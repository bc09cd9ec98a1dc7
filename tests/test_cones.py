import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conecalc import cones, symmat
from conecalc.cones import (
    SampleConfig,
    branch_cone,
    check_relation,
    complex_branch_cone,
    contains,
    dual_cone,
    enlarged_cone,
    geometric_cone,
    horizontal_cone,
    map_branch_cone,
    margins,
    parse_cone,
    pdelta_cone,
    positivity,
    pp_cone,
    pp_subset_test,
    pucci_cone,
    riesz_characteristic,
    sigma_cone,
    sphere_lattice,
)
from conecalc.errors import DomainError, SpecParseError
from conecalc.symmat import Frame, SymMatrix
from test_acceptance import garding_family_is_brute_force, garding_members, garding_min_factors


def catalogue(n=4):
    frames = [Frame(np.eye(n)[:2]), Frame(np.eye(n)[2:4])]
    specs = [
        positivity(n),
        pp_cone(2.5, n),
        branch_cone(2, n),
        pdelta_cone(0.5, n),
        pucci_cone(1.0, 2.0, n),
        sigma_cone(2, n),
        map_branch_cone(2, 3, n),
        geometric_cone(frames, n),
        horizontal_cone(frames[0], n),
        enlarged_cone(pp_cone(2.0, n), 0.25),
    ]
    if n % 2 == 0:
        specs.append(complex_branch_cone(1, n))
    return specs


def random_frame(n, k, rng):
    # a random k-plane in R^n; a trace over it does not see a vector's sign
    return Frame(np.linalg.qr(rng.standard_normal((k, n)).T)[0].T)


def random_sym_stack(seed, count, n):
    rng = np.random.default_rng(seed)
    return cones.sample_goe(rng, n, count)


# -- membership ------------------------------------------------------------------


def test_identity_in_every_catalogue_cone():
    for spec in catalogue(4):
        I = np.eye(4)
        assert contains(spec, I, "closed").member, spec.describe()
        assert contains(spec, I, "interior").member, spec.describe()


def test_branch_membership_example():
    rep = contains(branch_cone(2, 2), np.diag([-1.0, 2.0]))
    assert rep.member and rep.margin == pytest.approx(2.0)
    assert rep.witness == {"eigen_index": 2}


def test_pucci_membership_example():
    rep = contains(pucci_cone(1.0, 2.0, 2), np.diag([1.0, -1.0]))
    assert not rep.member
    assert rep.margin == pytest.approx(1.0 * 1.0 + 2.0 * (-1.0))


def test_enlarged_membership_against_decomposition():
    # A in the c-enlargement iff A + cI splits off a positive part
    spec = enlarged_cone(positivity(3), 1.0)
    A = -0.5 * np.eye(3)
    assert contains(spec, A).member
    rng = np.random.default_rng(0)
    for _ in range(100):
        B = random_sym_stack(rng.integers(1 << 30), 1, 3)[0]
        direct = np.linalg.eigvalsh(B + np.eye(3))[0] >= -1e-9 * (1 + np.abs(B).max())
        assert contains(spec, B).member == direct


def test_membership_report_threshold_consistency():
    rng = np.random.default_rng(1)
    for spec in catalogue(4):
        for A in random_sym_stack(2, 20, 4):
            for mode in ("closed", "interior"):
                rep = contains(spec, SymMatrix(A), mode)
                assert rep.member == (rep.margin >= rep.threshold)


@pytest.mark.parametrize("text", ["sigma:3", "dual:sigma:3"], ids=["contains", "dual"])
def test_overflowing_margin_is_a_domain_error(text):
    # sigma_3 of diag(1e200, 1e200, -1e200) overflows; no warning escapes
    with pytest.raises(DomainError, match="overflows"):
        contains(parse_cone(text, 3), np.diag([1e200, 1e200, -1e200]))


def test_geometric_results_are_labeled_sampled():
    spec = geometric_cone([Frame(np.eye(3)[:2])], 3)
    assert contains(spec, np.eye(3)).sampled
    assert not contains(positivity(3), np.eye(3)).sampled


def test_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        contains(positivity(3), np.eye(4))


@pytest.mark.parametrize(
    "make",
    [
        lambda k: branch_cone(k, 4),
        lambda k: complex_branch_cone(k, 4),
        lambda k: sigma_cone(k, 4),
        lambda k: map_branch_cone(2, k, 4),
    ],
    ids=["branch", "cbranch", "sigma", "mapb"],
)
def test_index_must_be_whole(make):
    with pytest.raises(DomainError, match="index must be an integer"):
        make(1.5)
    spec = make(np.float64(2.0))
    assert spec.k == 2 and type(spec.k) is int


def test_eigenvalue_invariance_flag():
    frame = Frame(np.eye(4)[:2])
    assert positivity(4).o_n_invariant
    assert pp_cone(2.5, 4).o_n_invariant
    assert pucci_cone(1, 2, 4).o_n_invariant
    assert not complex_branch_cone(1, 4).o_n_invariant
    assert not geometric_cone([frame], 4).o_n_invariant
    assert not horizontal_cone(frame, 4).o_n_invariant
    assert not enlarged_cone(geometric_cone([frame], 4), 0.5).o_n_invariant
    assert dual_cone(pp_cone(2.0, 4)).o_n_invariant


# -- monotonicity under +tI (every catalogue kind) -----------------------------------


_PROPERTY_KINDS = (
    "positivity", "pp", "branch", "cbranch", "pdelta", "pucci", "sigma", "geom", "horiz",
    "mapb", "enl:sigma", "enl:cbranch", "enl:mapb", "enl:geom", "enl:pucci",
    "dual:sigma", "dual:cbranch", "dual:mapb", "dual:geom", "dual:pp",
)


@st.composite
def catalogue_specs(draw, name, n=None):
    """A cone of the given catalogue kind (``wrap:kind`` for enl/dual), in
    dimension n or a drawn one."""
    wrap, _, kind = name.rpartition(":")
    if n is None:
        n = draw(st.sampled_from((2, 4)) if kind == "cbranch" else st.integers(2, 5))
    if kind == "positivity":
        spec = positivity(n)
    elif kind == "pp":
        spec = pp_cone(draw(st.floats(1.0, n)), n)
    elif kind in ("branch", "sigma"):
        spec = cones.ConeSpec(kind, n, k=draw(st.integers(1, n)))
    elif kind == "cbranch":
        spec = complex_branch_cone(draw(st.integers(1, n // 2)), n)
    elif kind == "pdelta":
        spec = pdelta_cone(draw(st.floats(0.05, 2.0)), n)
    elif kind == "pucci":
        lam = draw(st.floats(0.1, 2.0))
        spec = pucci_cone(lam, lam + draw(st.floats(0.1, 3.0)), n)
    elif kind == "mapb":
        p = draw(st.integers(1, n))
        spec = map_branch_cone(p, draw(st.integers(1, math.comb(n, p))), n)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        pdim = draw(st.integers(1, n))
        count = draw(st.integers(1, 3)) if kind == "geom" else 1
        frames = [random_frame(n, pdim, rng) for _ in range(count)]
        spec = geometric_cone(frames, n) if kind == "geom" else horizontal_cone(frames[0], n)
    if wrap == "enl":
        spec = enlarged_cone(spec, draw(st.floats(0.0, 1.0)))
    elif wrap == "dual":
        spec = dual_cone(spec)
    return spec


# Drawn entries in [-1, 1] and shifts in [0, 2], each from one of two
# strategies: multiples of 1/64 (exact, with ties and zeros), or arbitrary
# floats of any magnitude down to the subnormals.  The flush of relatively
# tiny entries in symmat.eigenvalues_of is exercised by both and needed
# only by decoupled_tiny_matrices.
_DYADIC = st.integers(-64, 64).map(lambda i: i / 64)
_ANY_FLOAT = st.one_of(
    st.floats(-1.0, 1.0),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 0)),
)
_DYADIC_SHIFT = st.integers(0, 128).map(lambda i: i / 64)
_ANY_FLOAT_SHIFT = _ANY_FLOAT.map(lambda x: 2 * abs(x))


@st.composite
def decoupled_tiny_matrices(draw, n):
    """``tau I + a (e_i e_j^T + e_j e_i^T)`` with ``j >= i + 2`` when n >= 3,
    so row i + 1 is exactly decoupled; a in [-1, 1] and tau 1e-146 to
    1e-142 times |a|.  Arbitrary floats almost never form this pattern,
    yet on 4-15% of these draws LAPACK's eigvalsh (OpenBLAS 0.3.31) misses
    eigenvalues by up to 1.2% unless ``symmat.eigenvalues_of`` flushes
    tau."""
    i = draw(st.integers(0, max(n - 3, 0)))
    j = draw(st.integers(min(i + 2, n - 1), n - 1))
    a = draw(st.floats(-1.0, 1.0))
    A = abs(a) * 10.0 ** draw(st.floats(-146.0, -142.0)) * np.eye(n)
    A[i, j] = A[j, i] = a
    return A


@st.composite
def shifted_stacks(draw, name):
    """(spec, symmetric stack, ascending shifts t >= 0): one to three drawn
    matrices, with dyadic or arbitrary-float entries in [-1, 1] or
    decoupled tiny-diagonal ones, above seeded GOE ones."""
    spec = draw(catalogue_specs(name))
    n = spec.dim
    entries = draw(st.sampled_from([_DYADIC, _ANY_FLOAT, None]))
    shifts = draw(st.sampled_from([_DYADIC_SHIFT, _ANY_FLOAT_SHIFT]))
    count = draw(st.integers(1, 3))
    if entries is None:
        G = np.stack([draw(decoupled_tiny_matrices(n)) for _ in range(count)])
    else:
        G = draw(hnp.arrays(float, (count, n, n), elements=entries))
        G = 0.5 * (G + np.swapaxes(G, -1, -2))
    goe = random_sym_stack(draw(st.integers(0, 2**16)), 4, n)
    mats = np.concatenate([G, goe])
    ts = draw(st.lists(shifts, min_size=2, max_size=5, unique=True))
    return spec, mats, sorted(ts)


def _innermost_kind(spec) -> str:
    return _innermost_kind(spec.base) if spec.base is not None else spec.kind


def _shifted(mats, t):
    return mats + t * np.eye(mats.shape[-1])


@pytest.mark.parametrize("name", _PROPERTY_KINDS)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_margins_under_identity_shifts(name, data):
    spec, mats, ts = data.draw(shifted_stacks(name))
    f, root = cones._margin_machine(spec, mats)
    prev_member = np.zeros(mats.shape[0], dtype=bool)
    prev_margin = None
    for t in ts:
        shifted = _shifted(mats, t)
        m = margins(spec, shifted)
        tol = cones.CLOSED_TOL * symmat.scale_of(shifted)
        # the cached-spectrum machine is the margin of the shifted matrix
        assert np.all(np.abs(f(t) - m) <= tol)
        # membership never ends once it starts
        member = np.array([contains(spec, A).member for A in shifted])
        assert not np.any(prev_member & ~member)
        prev_member = member
        # the margin value itself only grows, except for sigma (see below)
        if prev_margin is not None and _innermost_kind(spec) != "sigma":
            assert np.all(m >= prev_margin - tol)
        prev_margin = m
    # the margin crosses zero at the root its rule computes
    assert np.all(np.abs(f(root())) <= cones.CLOSED_TOL * symmat.scale_of(mats))


@pytest.mark.parametrize("name", _PROPERTY_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_membership_shift_is_minimal_and_lands_inside(name, data):
    spec, mats, _ = data.draw(shifted_stacks(name))
    f, _ = cones._margin_machine(spec, mats)
    t = cones.membership_shift(spec, mats)
    out = cones.force_membership(spec, mats.copy())  # shifts its stack in place
    members = f(0.0) >= 0.0
    # members come back bitwise unchanged; the rest move by t along I
    assert out[members].tobytes() == mats[members].tobytes()
    assert np.all(t[members] == 0.0) and np.all(t >= 0.0)
    assert np.array_equal(out, _shifted(mats, t[:, None, None]))
    # every shifted row is a member, by the margin it was shifted with ...
    assert np.all(f(t) >= 0.0)
    assert np.all(margins(spec, out) >= cones.thresholds(out))
    # ... and a few ulps of its scale less would not be
    slack = 4 * np.finfo(float).eps * (1.0 + np.abs(mats).max(axis=(1, 2)))
    assert np.all(f(np.maximum(t - slack, 0.0))[~members] < 0.0)


@pytest.mark.parametrize("spec", [pucci_cone(1.0, 1e308, 3)])
def test_membership_shift_beyond_the_float_range_is_a_domain_error(spec):
    # the eigenvalues are finite; Lam times their gaps, and so the shift, are not
    with np.errstate(all="ignore"), pytest.raises(DomainError, match=r"^membership shifts of pucci:1:1e\+308 overflow$"):
        cones.membership_shift(spec, np.diag([-1.0, 0.0, 1.0]))


@pytest.mark.parametrize("A", [np.eye(3), -np.eye(3)], ids=["positive", "negative"])
def test_a_nan_margin_is_a_domain_error_not_a_member(A):
    # the slope 1 + delta n overflows, so the margin at 0 is base + inf * 0 = NaN
    spec = pdelta_cone(1e308, 3)
    with pytest.raises(DomainError, match=r"^margins of pdelta:1e\+308 overflow$"):
        cones.membership_shift(spec, A)
    with pytest.raises(DomainError, match=r"^membership margin of pdelta:1e\+308 overflows"):
        contains(spec, A)


def test_a_margin_nan_at_its_crossing_is_a_domain_error():
    # a rule with margin -1 at 0 and NaN at the crossing it reports: not nudged
    def f(t):
        return np.where(np.asarray(t) > 0.0, np.nan, -1.0)

    with pytest.raises(DomainError, match=r"^margins of pp:2 overflow$"):
        cones._shift(pp_cone(2, 3), f, lambda: np.ones(2))


def test_force_membership_shifts_a_writable_stack_in_place():
    mats = np.array([np.diag([-1.0, 2.0]), np.eye(2)])
    assert cones.force_membership(positivity(2), mats) is mats
    assert mats.tolist() == [[[0.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]]]
    # a SymMatrix's read-only entries are shifted in a copy
    A = SymMatrix(np.diag([-1.0, 2.0]))
    assert cones.force_membership(positivity(2), A).tolist() == [[[0.0, 0.0], [0.0, 3.0]]]
    assert A.entries.tolist() == [[-1.0, 0.0], [0.0, 2.0]]


def test_pucci_shift_at_the_float_range_is_its_breakpoint():
    # the margin overflows to -inf, but the crossing is the breakpoint
    # t = 1e308, where A + tI = 0 lies on the boundary
    with np.errstate(all="ignore"):
        t = cones.membership_shift(pucci_cone(1.0, 2.0, 3), -1e308 * np.eye(3))
    assert t.tolist() == [1e308]


def test_sigma_margin_is_not_monotone_but_membership_is():
    spec = sigma_cone(2, 2)
    A = np.diag([-3.0, 1.0])
    ts = [0.0, 0.5, 1.0, 2.0, 3.0]
    got = [float(margins(spec, _shifted(A, t))[0]) for t in ts]
    assert got == pytest.approx([-3.0, -3.75, -4.0, -3.0, 0.0], abs=1e-12)
    assert [contains(spec, _shifted(A, t)).member for t in ts] == [False] * 4 + [True]


# -- duals ----------------------------------------------------------------------


def test_zero_matrix_in_every_dual():
    # true cones only: an enlargement is a shifted set with 0 interior
    for spec in catalogue(4):
        if spec.kind == "enl":
            assert not contains(dual_cone(spec), np.zeros((4, 4))).member
            continue
        assert contains(dual_cone(spec), np.zeros((4, 4))).member, spec.describe()


def test_dual_of_positivity_definitional_example():
    rep = contains(parse_cone("dual:p", 2), np.diag([-1.0, 2.0]))
    assert rep.member and rep.margin == pytest.approx(2.0)


def test_trace_halfspace_is_self_dual():
    spec = pp_cone(4.0, 4)  # the full-trace cone
    mats = random_sym_stack(3, 1000, 4)
    direct = margins(spec, mats)
    dual = margins(dual_cone(spec), mats)
    assert np.max(np.abs(direct - dual)) <= 1e-9 * (1 + np.abs(mats).max())


def test_dual_fast_path_agrees_with_definitional():
    mats = random_sym_stack(4, 1000, 4)
    scale = 1.0 + np.abs(mats).reshape(1000, -1).max(axis=1)
    for spec in catalogue(4):
        fast = cones.dual_fast_margins(spec, mats)
        if fast is None:
            continue
        definitional = margins(dual_cone(spec), mats)
        assert np.max(np.abs(fast - definitional) / scale) <= 1e-7, spec.describe()


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (5, 2), (5, 4)])
def test_branch_duality_reflection(n, k):
    mats = random_sym_stack(10 * n + k, 500, n)
    dual = margins(dual_cone(branch_cone(k, n)), mats)
    reflected = margins(branch_cone(n - k + 1, n), mats)
    assert np.max(np.abs(dual - reflected)) <= 1e-9 * (1 + np.abs(mats).max())


@pytest.mark.parametrize("spec,expected", [
    (branch_cone(2, 5), {"eigen_index": 4}),
    (branch_cone(1, 3), {"eigen_index": 3}),
    (complex_branch_cone(1, 4), {"hermitian_eigen_index": 2}),
])
def test_dual_branch_witness_is_reflected(spec, expected):
    A = random_sym_stack(11, 1, spec.dim)[0]
    assert contains(dual_cone(spec), A).witness == expected
    assert contains(parse_cone(f"dual:{spec.describe()}", spec.dim), A).witness == expected


def test_complex_branch_duality_reflection():
    m, n = 2, 4
    mats = random_sym_stack(17, 500, n)
    dual = margins(dual_cone(complex_branch_cone(1, n)), mats)
    reflected = margins(complex_branch_cone(m, n), mats)
    assert np.max(np.abs(dual - reflected)) <= 1e-9 * (1 + np.abs(mats).max())


def test_dual_involution():
    mats = random_sym_stack(5, 1000, 4)
    for spec in catalogue(4):
        twice = margins(dual_cone(dual_cone(spec)), mats)
        once = margins(spec, mats)
        assert np.max(np.abs(twice - once)) <= 1e-9 * (1 + np.abs(mats).max()), (
            spec.describe()
        )


# -- relation certification --------------------------------------------------------


def test_every_catalogue_cone_is_positivity_monotone():
    for spec in catalogue(4):
        rep = check_relation(spec, positivity(4), SampleConfig(seed=2, count=500))
        assert rep.passed, spec.describe()


def test_map_branches_are_partial_sum_monotone():
    for k in (1, 3, 6):
        rep = check_relation(
            map_branch_cone(2, k, 4), pp_cone(2.0, 4), SampleConfig(seed=3, count=2000)
        )
        assert rep.passed


def test_positivity_not_largest_branch_monotone():
    rep = check_relation(positivity(3), branch_cone(3, 3), SampleConfig(seed=1, count=1000))
    assert not rep.passed
    A, B = rep.counterexample
    assert np.linalg.eigvalsh(A.entries)[0] >= -1e-8
    assert np.linalg.eigvalsh(B.entries)[-1] >= -1e-8
    assert np.linalg.eigvalsh(A.entries + B.entries)[0] < 0


_SPECTRAL_KINDS = ("pp", "branch", "pdelta", "pucci", "sigma", "mapb")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_reported_counterexample_is_genuine(data):
    # spectral pairs draw A diagonal in the first pass and commuting pairs in
    # the second: dense membership of the reported pair confirms it, and the
    # reported margins are the pair's own, bit for bit (eigvalsh is exact on
    # a diagonal matrix).  About a third of the drawn relations fail
    n = data.draw(st.integers(2, 6))
    kinds = st.sampled_from(_SPECTRAL_KINDS)
    F = data.draw(catalogue_specs(data.draw(kinds), n))
    M = data.draw(catalogue_specs(data.draw(kinds), n))
    cfg = SampleConfig(seed=data.draw(st.integers(0, 2**16)), count=data.draw(st.integers(1, 400)))
    rep = check_relation(F, M, cfg)
    if rep.passed:
        return
    A, B = rep.counterexample
    a, b, s = contains(F, A), contains(M, B), contains(F, A.entries + B.entries)
    assert a.member and b.member and not s.member
    assert rep.margins == {"margin_a": a.margin, "margin_b": b.margin, "margin_sum": s.margin}


def test_check_relation_deterministic():
    cfg = SampleConfig(seed=9, count=300)
    r1 = check_relation(pucci_cone(1, 2, 3), positivity(3), cfg)
    r2 = check_relation(pucci_cone(1, 2, 3), positivity(3), cfg)
    assert r1.to_dict() == r2.to_dict()
    assert (r1.checked, r1.failure_index) == (r2.checked, r2.failure_index)


def _replay_block(F, M, cfg, index):
    """Draw ``check_relation``'s blocks in order up to the one that holds
    sample ``index``; return its first global index and its A, B stacks.
    Where F and M are both spectral kinds, A is diag(a) for a sorted row a
    of normals, drawn before B."""
    rng = np.random.default_rng(cfg.seed)
    n = F.dim
    diagonal = cones._KINDS[F.kind].spectral and cones._KINDS[M.kind].spectral
    step = cones._BLOCK_ENTRIES // n**2
    for start in range(0, cfg.count, step):
        size = min(step, cfg.count - start)
        if diagonal:
            A = np.zeros((size, n, n))
            A[:, range(n), range(n)] = np.sort(rng.standard_normal((size, n)), axis=-1)
        else:
            A = cones.sample_goe(rng, n, size)
        A = cones.force_membership(F, A)
        B = cones.force_membership(M, cones.sample_goe(rng, n, size))
        if index < start + size:
            return start, A, B
    raise AssertionError(f"sample {index} is past the count {cfg.count}")


def _assert_report_is_replayed(F, M, cfg, rep):
    start, A, B = _replay_block(F, M, cfg, rep.failure_index)
    i = rep.failure_index - start
    assert rep.checked == start + A.shape[0]
    assert rep.counterexample[0].entries.tobytes() == A[i].tobytes()
    assert rep.counterexample[1].entries.tobytes() == B[i].tobytes()
    assert rep.margins == {
        "margin_a": margins(F, A)[i],
        "margin_b": margins(M, B)[i],
        "margin_sum": margins(F, A + B)[i],
    }


def test_check_relation_reports_the_stacked_margins():
    # a geom margin of one matrix can differ in the last bit from its row in
    # the sampled stack; the report carries the rows that were tested, in
    # one block and in a count of several blocks (8192 matrices each in dim 2)
    F = geometric_cone([Frame(np.array([[0.6, 0.8]]))], 2)
    M = branch_cone(2, 2)
    for count in (50, 20_000):
        cfg = SampleConfig(seed=2, count=count)
        rep = check_relation(F, M, cfg)
        assert not rep.passed
        _assert_report_is_replayed(F, M, cfg, rep)


def test_check_relation_reports_a_failure_in_a_later_block():
    # pp:1.5 is not pp:1.52-monotone; with this seed the first counterexample
    # is sample 2417, in the second block of 2048 matrices in dim 4.  The
    # spectral pair draws A diagonal, and the replay forces diag(a) through
    # eigvalsh, which is exact on a diagonal matrix
    F, M = pp_cone(1.5, 4), pp_cone(1.52, 4)
    cfg = SampleConfig(seed=0, count=5000)
    rep = check_relation(F, M, cfg)
    assert not rep.passed and rep.family == "goe"
    assert rep.failure_index == 2417 and rep.checked == 4096
    _assert_report_is_replayed(F, M, cfg, rep)


@pytest.mark.parametrize("check, workers", [("relation", 1), ("duality", 1), ("relation", 2), ("duality", 2)],
                         ids=["relation", "duality", "relation-2-workers", "duality-2-workers"])
def test_randomized_checks_run_in_bounded_memory(monkeypatch, check, workers):
    # 3e4 samples in dim 6 take 33 blocks of 910 matrices; a relation that
    # held every stack at once traced a 46.6 MB peak.  Each worker thread
    # holds its own block, so the bound is per worker
    _workers(monkeypatch, workers)
    cfg = SampleConfig(seed=1, count=30_000)
    tracemalloc.start()
    try:
        if check == "relation":
            rep = check_relation(map_branch_cone(3, 1, 6), pp_cone(3.0, 6), cfg)
        else:
            rep = cones.check_duality(pp_cone(3.0, 6), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.checked == cfg.count
    assert peak < workers * 2e6


def test_sample_goe_is_the_symmetrized_draw():
    G = np.random.default_rng(5).standard_normal((40, 4, 4))
    expected = 0.5 * (G + np.swapaxes(G, -1, -2))
    got = cones.sample_goe(np.random.default_rng(5), 4, 40)
    assert got.tobytes() == expected.tobytes()


# -- the split of sample blocks over worker threads -------------------------------


def _workers(monkeypatch, count):
    """Make the randomized checks see ``count`` CPUs, so ``count`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.enumerate() == [threading.main_thread()]


def _skew_dual_margins(monkeypatch, level):
    """A closed-form dual margin that is wrong wherever A_00 > level."""
    fast = cones.dual_fast_margins
    monkeypatch.setattr(cones, "dual_fast_margins",
                        lambda spec, mats: fast(spec, mats) + (mats[:, 0, 0] > level))


def _relation(F, M, seed, count):
    return lambda: check_relation(F, M, SampleConfig(seed=seed, count=count))


def _duality(spec, seed, count):
    return lambda: cones.check_duality(spec, SampleConfig(seed=seed, count=count))


# (check, expected failure_index or None, level of a skewed dual margin);
# every count spans 3 or more blocks
_SPLIT_CASES = {
    "relation-pass": (_relation(map_branch_cone(3, 1, 6), pp_cone(3.0, 6), 1, 3000), None, None),
    # blocks of 3640 in dim 3: the first counterexample is sample 1
    "relation-fail-block-0": (_relation(positivity(3), branch_cone(3, 3), 1, 20_000), 1, None),
    # blocks of 2048 in dim 4: sample 2417 is in block 1, the second worker's
    "relation-fail-block-1": (_relation(pp_cone(1.5, 4), pp_cone(1.52, 4), 0, 5000), 2417, None),
    # the first pass (diag(a) and a GOE B) passes; the commuting pairs fail first in block 1
    "relation-commuting-fail-block-1": (_relation(pucci_cone(1, 2, 4), pdelta_cone(0.5, 4), 4, 16_000), 2619, None),
    "duality-pass": (_duality(pp_cone(3.0, 6), 2, 3000), None, None),
    "duality-fail-block-0": (_duality(pp_cone(1.5, 4), 1, 8000), 88, 2.5),
    "duality-fail-block-1": (_duality(pp_cone(1.5, 4), 4, 8000), 2360, 3.3),
}


@pytest.mark.parametrize("case", list(_SPLIT_CASES))
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, case):
    check, failure_index, level = _SPLIT_CASES[case]
    if level is not None:
        _skew_dual_margins(monkeypatch, level)
    # 4 workers: more than the cores of a 2-CPU host, all drawing from one generator
    reports = []
    for count in (1, 2, 4):
        _workers(monkeypatch, count)
        reports.append(check())
        _assert_no_child_left()
    one = reports[0]
    assert one.failure_index == failure_index
    for other in reports[1:]:
        assert (one.passed, one.checked, one.failure_index) == (other.passed, other.checked, other.failure_index)
        assert json.dumps(one.to_dict()) == json.dumps(other.to_dict())


def test_errors_do_not_depend_on_the_worker_count(monkeypatch):
    # every block overflows; the error is block 0's, with its type and text
    errors = []
    for count in (1, 2):
        _workers(monkeypatch, count)
        with pytest.raises(DomainError) as info:
            check_relation(pdelta_cone(1e308, 4), pp_cone(2.0, 4), SampleConfig(seed=1, count=5000))
        _assert_no_child_left()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]

    # the error in block 1 comes before the report in block 2 (blocks of
    # 2048 in dim 4), whichever thread tests each, and an error while
    # drawing block 1 (the second stack of normals) is block 1's as well
    def test(first, mats):
        if first == 2048:
            raise DomainError("block 1")
        return "block 2" if first == 4096 else None

    draw, draws = cones.sample_goe, []

    def draw_or_fail(rng, n, count):
        draws.append(1)
        if len(draws) == 2:
            raise DomainError("drawing block 1")
        return draw(rng, n, count)

    def goe():
        return cones._draw_goe(np.random.default_rng(1), 4, 1)

    for count in (1, 2, 4):
        _workers(monkeypatch, count)
        with pytest.raises(DomainError, match="^block 1"):
            cones._first_failure(8000, 4, goe(), test)
        _assert_no_child_left()
        draws.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cones, "sample_goe", draw_or_fail)
            with pytest.raises(DomainError, match="drawing block 1"):
                cones._first_failure(8000, 4, goe(), lambda first, mats: "block 2" if first == 4096 else None)
        _assert_no_child_left()


def test_a_worker_threads_system_exit_propagates(monkeypatch):
    # a SystemExit in a worker thread is not dropped with the thread: it
    # stops the caller, whose scan has ~10^3 blocks (~15 s) to go, and is raised
    _workers(monkeypatch, 2)
    force = cones.force_membership

    def force_or_exit(spec, mats):
        if threading.current_thread() is not threading.main_thread():
            raise SystemExit(3)
        return force(spec, mats)

    monkeypatch.setattr(cones, "force_membership", force_or_exit)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        check_relation(map_branch_cone(3, 1, 6), pp_cone(3.0, 6), SampleConfig(seed=1, count=10**6))
    assert time.perf_counter() - start < 2.0
    assert info.value.code == 3
    _assert_no_child_left()


def test_an_interrupted_check_stops_every_worker_thread(monkeypatch):
    # the caller is interrupted in its second block while the other thread
    # still has ~10^3 blocks (~15 s) to go: it stops at its next block
    _workers(monkeypatch, 2)
    force, calls = cones.force_membership, []

    def force_or_interrupt(spec, mats):
        if threading.current_thread() is threading.main_thread():
            calls.append(1)
            if len(calls) > 2:
                raise KeyboardInterrupt
        return force(spec, mats)

    monkeypatch.setattr(cones, "force_membership", force_or_interrupt)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        check_relation(map_branch_cone(3, 1, 6), pp_cone(3.0, 6), SampleConfig(seed=1, count=10**6))
    assert time.perf_counter() - start < 2.0
    _assert_no_child_left()


def test_an_interrupt_while_starting_the_threads_stops_those_started(monkeypatch):
    # of three workers, the first thread starts and the second does not: the
    # first, with ~10^3 blocks to go, is stopped and joined, and the
    # interrupt is what the check raises
    _workers(monkeypatch, 3)
    start_thread, starts = threading.Thread.start, []

    def start_or_interrupt(thread):
        starts.append(1)
        if len(starts) == 2:
            raise KeyboardInterrupt
        start_thread(thread)

    monkeypatch.setattr(threading.Thread, "start", start_or_interrupt)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        check_relation(map_branch_cone(3, 1, 6), pp_cone(3.0, 6), SampleConfig(seed=1, count=10**6))
    assert time.perf_counter() - start < 2.0
    _assert_no_child_left()


def test_worker_threads_draw_each_block_once_in_order(monkeypatch):
    # 8 threads, more than the cores, switching every microsecond: every
    # block tested is tested once, with the samples of a serial draw, and
    # the lowest failing block of 40 (128 matrices each in dim 16) wins
    step, dim, seen = 128, 16, {}
    rng = np.random.default_rng(7)
    serial = [cones.sample_goe(rng, dim, step).tobytes() for _ in range(40)]

    def test(first, mats):
        seen.setdefault(first // step, []).append(mats.tobytes())
        return first // step if first // step in (23, 31, 37) else None

    _workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        found = cones._first_failure(40 * step, dim, cones._draw_goe(np.random.default_rng(7), dim, 1), test)
    finally:
        sys.setswitchinterval(interval)
    _assert_no_child_left()
    assert found == 23
    assert set(range(24)) <= set(seen)
    assert all(seen[b] == [serial[b]] for b in seen)


def test_every_block_runs_under_the_callers_errstate(monkeypatch):
    # two workers, and the barrier holds the first block's thread until
    # another thread has taken block 1: both threads test a block, and each
    # sees the np.errstate of the caller, not numpy's default
    _workers(monkeypatch, 2)
    barrier, seen = threading.Barrier(2, timeout=10), []

    def test(first, mats):
        if first < 2 * 2048:  # blocks 0 and 1 of 2048 matrices in dim 4
            barrier.wait()
        seen.append((threading.get_ident(), np.geterr()["over"]))

    with np.errstate(over="ignore"):
        assert cones._first_failure(8000, 4, cones._draw_goe(np.random.default_rng(1), 4, 1), test) is None
    _assert_no_child_left()
    assert len(seen) == 4 and len({ident for ident, _ in seen}) == 2
    assert {over for _, over in seen} == {"ignore"}


def test_a_failure_in_the_first_block_stops_every_worker(monkeypatch):
    # every scan counts the blocks it draws and must stop below 1% of its
    # blocks: 274 of 27,473 in dim 3 and 488 of 48,829 in dim 4 at SAMPLE_CAP,
    # where a scan that does not stop draws them all.  A stalled host slows
    # every thread, so the count does not grow with it as seconds do
    scan, drawn = cones._first_failure, []

    def counting(count, dim, draw, test):
        def counted(size):
            drawn.append(size)
            return draw(size)

        found = scan(count, dim, counted, test)
        assert 1 <= len(drawn) < len(cones._blocks(count, dim)) // 100
        return found

    monkeypatch.setattr(cones, "_first_failure", counting)
    rep = check_relation(positivity(3), branch_cone(3, 3), SampleConfig(seed=1, count=cones.SAMPLE_CAP))
    assert not rep.passed and rep.failure_index == 1 and rep.checked == 3640
    _assert_no_child_left()
    # the relation fails in nearly every block; here only block 0 fails, so
    # the second worker returns only because it is told to stop
    _workers(monkeypatch, 2)
    drawn.clear()
    found = counting(cones.SAMPLE_CAP, 4, cones._draw_goe(np.random.default_rng(1), 4, 1),
                     lambda first, mats: "block 0" if first == 0 else None)
    assert found == "block 0"
    _assert_no_child_left()


def test_sample_count_and_dimension_caps():
    # just above each cap, so that nothing is allocated
    SampleConfig(count=cones.SAMPLE_CAP)
    with pytest.raises(DomainError, match="sample count"):
        SampleConfig(count=cones.SAMPLE_CAP + 1)
    assert cones.DIM_CAP**2 <= cones._BLOCK_ENTRIES < (cones.DIM_CAP + 1) ** 2
    positivity(cones.DIM_CAP)
    with pytest.raises(DomainError, match="ambient dim"):
        positivity(cones.DIM_CAP + 1)
    # the sphere-sample count of the family test, invariant cone or not
    for spec in (pp_cone(1.5, 3), horizontal_cone(Frame(np.eye(3)[:2]), 3)):
        for count in (0, -3, cones.SAMPLE_CAP + 1):
            with pytest.raises(DomainError, match="sphere sample count"):
                pp_subset_test(spec, 1.5, sphere_samples=count)
            with pytest.raises(DomainError, match="sphere sample count"):
                riesz_characteristic(spec, sphere_samples=count)


def test_pdelta_margin_with_entries_near_lapack_underflow():
    # LAPACK's eigvalsh is off by 1.2% on this matrix at t = 1e-146
    a = 0.49121094
    spec = pdelta_cone(0.5, 3)

    def margin(t):
        return float(margins(spec, np.array([[t, 0, a], [0, t, 0], [a, 0, t]]))[0])

    assert abs(margin(1e-146) - margin(0.0)) <= cones.CLOSED_TOL * (1 + a)


def test_monotonicity_mirrors_to_the_dual():
    # F + M stays inside F exactly when the dual relation also holds
    M = pp_cone(2.0, 4)
    for spec in [pp_cone(2.0, 4), map_branch_cone(2, 2, 4), map_branch_cone(2, 6, 4)]:
        assert check_relation(spec, M, SampleConfig(seed=4, count=800)).passed
        assert check_relation(dual_cone(spec), M, SampleConfig(seed=5, count=800)).passed
    # failing direction, witnessed explicitly: positivity is not
    # pp:2-monotone, so its dual cannot be either
    A = np.diag([0.0, -10.0, -10.0, -10.0])
    B = np.diag([-5.0, 5.0, 5.0, 5.0])
    assert not check_relation(positivity(4), M, SampleConfig(seed=4, count=800)).passed
    assert contains(dual_cone(positivity(4)), A).member
    assert contains(M, B).member
    assert not contains(dual_cone(positivity(4)), A + B).member


# pp:p is a convex cone, so pp:p + pp:q stays in pp:p exactly when q <= p.
# GOE pairs miss these near-equal exponents at 10^4 samples.  With A diagonal
# the first pass refutes 1.5/1.51 in dim 4 (sample 7310) and 1.5/1.6 in dim 6
# (sample 4484); only the commuting pairs refute 2.5/2.51 in dim 4
@pytest.mark.parametrize("p, q, dim", [(2.5, 2.51, 4), (1.5, 1.51, 4), (1.5, 1.6, 6)])
def test_check_relation_refutes_a_slightly_larger_pp_exponent(p, q, dim):
    assert not check_relation(pp_cone(p, dim), pp_cone(q, dim), SampleConfig(seed=0, count=10**4)).passed


@pytest.mark.parametrize("p, q, index", [(2.5, 2.6, 86), (2.0, 2.05, 177)])
def test_check_relation_refutes_a_larger_pp_exponent(p, q, index):
    rep = check_relation(pp_cone(p, 4), pp_cone(q, 4), SampleConfig(seed=0, count=10**4))
    assert (rep.passed, rep.failure_index) == (False, index)


def test_removability_gate_refutes_branch_3_for_a_pp_2_polar():
    # a check_relation control: F + pp:2 in F fails for F = branch:3, as the
    # removability experiment's closed-form rule says, at 2,000 samples
    assert not check_relation(branch_cone(3, 3), pp_cone(2.0, 3), SampleConfig(seed=0, count=2000)).passed


# The first pass (diag(a) and a GOE B) passes each at its count: of seeds
# 0-11, seed 6 is the first where it passes pp:1.5/pp:1.6 in dim 6 at 10^4
# samples and seed 2 the first for branch:3/pp:2 in dim 3 at 2000.  pdelta:0.5
# is not inside the convex cone pucci:1:2 in dim 4 (diag(-0.2, -0.2, -0.2, 1)
# is in one, not the other)
@pytest.mark.parametrize("F, M, cfg", [
    (pp_cone(1.5, 6), pp_cone(1.6, 6), SampleConfig(seed=6, count=10**4)),
    (pucci_cone(1.0, 2.0, 4), pdelta_cone(0.5, 4), SampleConfig(seed=1, count=8000)),
    (branch_cone(3, 3), pp_cone(2.0, 3), SampleConfig(seed=2, count=2000)),
], ids=["pp", "pucci-pdelta", "branch"])
def test_a_commuting_counterexample_is_a_diagonal_pair(F, M, cfg):
    rep = check_relation(F, M, cfg)
    assert not rep.passed and rep.family == "commuting" and rep.to_dict()["family"] == "commuting"
    A, B = (X.entries for X in rep.counterexample)
    a, b = np.diag(A), np.diag(B)
    assert np.array_equal(A, np.diag(a)) and np.array_equal(B, np.diag(b))
    assert np.all(np.diff(a) >= 0.0)
    assert np.all(np.diff(b) >= 0.0) or np.all(np.diff(b) <= 0.0)  # aligned or reversed
    assert contains(F, A).member and contains(M, B).member and not contains(F, A + B).member
    # the reported margins are those of the matrices, to the last bits of eigvalsh
    for key, m in (("margin_a", margins(F, A)), ("margin_b", margins(M, B)), ("margin_sum", margins(F, A + B))):
        assert rep.margins[key] == pytest.approx(m[0], abs=1e-12)


def test_only_spectral_kind_pairs_get_commuting_pairs(monkeypatch):
    families = []
    scan = cones._first_failure

    def recording(count, dim, draw, test):
        families.append(test.__name__)
        return scan(count, dim, draw, test)

    monkeypatch.setattr(cones, "_first_failure", recording)
    spectral = {"positivity", "pp", "branch", "pdelta", "pucci", "sigma", "mapb"}
    # true relations; the trace cone pp:4 holds the sum of geom's two plane traces
    pairs = [(spec, positivity(4)) for spec in [*catalogue(4), dual_cone(pp_cone(2.0, 4))]]
    pairs.append((pp_cone(4.0, 4), geometric_cone([Frame(np.eye(4)[:2]), Frame(np.eye(4)[2:])], 4)))
    for F, M in pairs:
        families.clear()
        assert check_relation(F, M, SampleConfig(seed=2, count=100)).passed, (F, M)
        both = F.kind in spectral and M.kind in spectral
        assert families == (["goe", "commuting"] if both else ["goe"]), (F, M)


def test_branch_3_is_not_pp_2_monotone():
    A = np.diag([0.0, -10.0, -10.0])
    B = np.diag([-1.0, 1.0, 1.0])
    assert contains(branch_cone(3, 3), A).member
    assert contains(pp_cone(2.0, 3), B).member
    assert not contains(branch_cone(3, 3), A + B).member


# -- unit-vector family test --------------------------------------------------------


def test_pp_subset_nesting_thresholds():
    q = 2.5
    assert pp_subset_test(pp_cone(q, 4), 2.0).passed
    assert pp_subset_test(pp_cone(q, 4), q).passed
    assert not pp_subset_test(pp_cone(q, 4), q + 1e-6).passed


def test_pp_subset_pdelta_boundary():
    assert pp_subset_test(pdelta_cone(1.0, 3), 2.0).passed
    rep = pp_subset_test(pdelta_cone(1.0, 3), 2.01)
    assert not rep.passed and rep.counterexample is not None


def test_pp_subset_positivity():
    assert pp_subset_test(positivity(3), 1.0).passed
    assert not pp_subset_test(positivity(3), 1.01).passed


def test_geometric_cones_pass_at_their_plane_dimension():
    rng = np.random.default_rng(6)
    frames = [random_frame(5, 2, rng) for _ in range(4)]
    assert pp_subset_test(geometric_cone(frames, 5), 2.0, sphere_samples=100).passed


def test_sphere_lattice_unit_norms():
    for n in (2, 3, 4, 6):
        pts = sphere_lattice(n, 64)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_normal_quantile_agrees_with_scipy_ndtri():
    from scipy.special import ndtri

    rng = np.random.default_rng(7)
    u = np.concatenate([
        rng.uniform(1e-12, 1.0 - 1e-12, 300_000),
        [1e-12, 1.0 - 1e-12, 0.5, 0.075, 0.925],  # both ends, the centre, the region seams
        np.mod(np.arange(1, 2001)[:, None] * np.sqrt([2.0, 3.0, 5.0, 7.0]), 1.0).ravel(),
    ])
    assert np.max(np.abs(cones._normal_quantile(u) - ndtri(u))) <= 4e-15


def test_sphere_lattice_loads_no_scipy():
    code = (
        "import sys; from conecalc.cones import sphere_lattice; sphere_lattice(4, 8); "
        "print(any(m.startswith('scipy.special') for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    ).stdout
    assert out.strip() == "False"


def test_sphere_lattice_by_index_range_is_bitwise_the_whole_lattice():
    for n in (1, 2, 3, 4, 5, 6, 9, 16):
        for count in (1, 7, 500, 4100):
            whole = sphere_lattice(n, count)
            assert whole.shape == (count, n)
            step = cones._BLOCK_ENTRIES // n**2
            parts = [sphere_lattice(n, count, start, min(start + step, count))
                     for start in cones._blocks(count, n)]
            assert np.vstack(parts).tobytes() == whole.tobytes()
            assert sphere_lattice(n, count, step // 3, count).tobytes() == whole[step // 3:].tobytes()


def _one_shot_pp_subset(M, p, sphere_samples):
    """pp_subset_test over the whole direction family at once: the first
    failing direction, its margin and the end of its block, or None."""
    n = M.dim
    es = np.vstack([sphere_lattice(n, 2 * sphere_samples), np.eye(n), *(f.vectors for f in M.frames)])
    mats = np.eye(n) - p * np.einsum("ki,kj->kij", es, es)
    m = margins(M, mats)
    bad = np.nonzero(m < cones.thresholds(mats))[0]
    if bad.size == 0:
        return None
    i = int(bad[0])
    step = cones._BLOCK_ENTRIES // n**2
    return es[i], float(m[i]), min(es.shape[0], (i // step + 1) * step)


@pytest.mark.parametrize("case", ["random-frames", "coordinate-plane"])
def test_pp_subset_failure_in_a_later_block_is_the_one_shot_counterexample(case):
    # 10,004 directions in dim 4 take 5 blocks of 2,048; the first passes
    n, samples = 4, 5000
    if case == "random-frames":
        rng = np.random.default_rng(4)
        M = geometric_cone([random_frame(n, 2, rng) for _ in range(3)], n)
        p = 2.0003
    else:
        # only the axes e1 and e2, after the lattice, bind the coordinate plane
        M = horizontal_cone(Frame(np.eye(n)[:2]), n)
        lattice = sphere_lattice(n, 2 * samples)
        p = 1.0 + 1.0 / (lattice[:, :2] ** 2).sum(axis=1).max()
    rep = pp_subset_test(M, p, sphere_samples=samples)
    e, margin, checked = _one_shot_pp_subset(M, p, samples)
    assert not rep.passed
    assert rep.counterexample.tobytes() == e.tobytes() and rep.margin == margin
    assert rep.checked == checked > cones._BLOCK_ENTRIES // n**2
    # the family ends with the vectors of the cone's frames
    frame_vectors = sum(f.plane_dim for f in M.frames)
    assert pp_subset_test(M, 2.0, sphere_samples=samples).checked == 2 * samples + n + frame_vectors


def test_the_direction_family_streams_in_bounded_memory():
    # 20,006 directions in dim 4 (the lattice, the axes and the frame's two
    # vectors) take 10 blocks of 2,048; the whole family and its matrices
    # at once traced a 6.1 MB peak
    spec = horizontal_cone(Frame(np.eye(4)[:2]), 4)
    tracemalloc.start()
    try:
        sub = pp_subset_test(spec, 1.5, sphere_samples=10_000)
        rc = riesz_characteristic(spec, sphere_samples=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.passed and sub.checked == 20_006 and rc.value == 2.0
    assert peak < 2e6


# riesz_characteristic of criterion C4's 17 transition cones: exact
# crossings, to a few ulps of the closed forms
_C4_TRANSITIONS = [
    (positivity(4), 1.0),
    (pp_cone(1.5, 4), 1.5),
    (pp_cone(2.0, 4), 2.0),
    (pp_cone(2.5, 4), 2.5),
    (pdelta_cone(0.1, 4), 1.2727272727272725),
    (pdelta_cone(1.0, 4), 2.5),
    (pdelta_cone(2.0, 4), 3.0),
    (pucci_cone(1.0, 2.0, 4), 2.5),
    (pucci_cone(2.0, 5.0, 4), 2.1999999999999997),
    (sigma_cone(1, 4), 4.0),
    (sigma_cone(2, 4), 2.0),
    (sigma_cone(3, 4), 1.3333333333333333),
    (sigma_cone(4, 4), 1.0),
    (map_branch_cone(2, 1, 4), 2.0),
    (enlarged_cone(pp_cone(2.0, 4), 0.25), 2.5),
    (complex_branch_cone(1, 4), 1.9999999999999991),
    (horizontal_cone(Frame(np.eye(4)[:2]), 4), 2.0),
]


def test_c4_transition_characteristics_are_unchanged():
    for spec, value in _C4_TRANSITIONS:
        assert riesz_characteristic(spec).value == value, spec.describe()


def _bisection_characteristic(M, sphere_samples=250, tol=1e-8):
    """Reference: bisection on p over pp_subset_test, whose passing set is
    a down-set in p; n when the test passes at n."""
    lo, hi = 1.0, float(M.dim)
    if pp_subset_test(M, hi, sphere_samples).passed:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pp_subset_test(M, mid, sphere_samples).passed:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _characteristic_catalogue():
    rng = np.random.default_rng(11)
    cases = []
    for n in (3, 4, 6):
        specs = [
            positivity(n), pp_cone(1.5, n), pp_cone(2.5, n), branch_cone(1, n),
            branch_cone(2, n), pdelta_cone(0.5, n), pucci_cone(1.0, 3.0, n),
            sigma_cone(2, n), sigma_cone(3, n), map_branch_cone(2, 1, n),
            map_branch_cone(2, n, n), enlarged_cone(pp_cone(2.0, n), 0.3),
            enlarged_cone(enlarged_cone(pp_cone(1.5, n), 0.2), 0.1),
            enlarged_cone(enlarged_cone(sigma_cone(2, n), 0.3), 0.2),
            dual_cone(pp_cone(2.0, n)), dual_cone(branch_cone(n, n)),
            dual_cone(pucci_cone(1.0, 3.0, n)), dual_cone(map_branch_cone(2, n, n)),
            dual_cone(enlarged_cone(pp_cone(2.0, n), 0.2)),
            enlarged_cone(dual_cone(branch_cone(n, n)), 0.2),
            dual_cone(enlarged_cone(dual_cone(pp_cone(1.5, n)), 0.3)),
            dual_cone(dual_cone(enlarged_cone(pp_cone(1.5, n), 0.4))),
            dual_cone(branch_cone(2, n)), dual_cone(enlarged_cone(branch_cone(2, n), 0.5)),
        ]
        if n % 2 == 0:
            specs += [complex_branch_cone(1, n), complex_branch_cone(2, n),
                      dual_cone(complex_branch_cone(1, n))]
        cases += [pytest.param(spec, 250, id=f"{spec.describe()}-n{n}") for spec in specs]
        # sampled cones, also at a family that spans several blocks
        for samples in (250, 3000):
            sampled = {
                "horiz-coordinate": horizontal_cone(Frame(np.eye(n)[:2]), n),
                "horiz-random": horizontal_cone(random_frame(n, 2, rng), n),
                "geom-random": geometric_cone(
                    [random_frame(n, 2, rng) for _ in range(3)], n),
                "enl-horiz-random": enlarged_cone(
                    horizontal_cone(random_frame(n, 2, rng), n), 0.1),
            }
            cases += [pytest.param(spec, samples, id=f"{label}-n{n}-s{samples}")
                      for label, spec in sampled.items()]
    return cases


@pytest.mark.parametrize("spec,samples", _characteristic_catalogue())
def test_characteristic_is_the_bisection_and_the_closed_form(spec, samples):
    rc = riesz_characteristic(spec, sphere_samples=samples)
    assert rc.iterations == 0
    assert abs(rc.value - _bisection_characteristic(spec, samples)) <= 1e-8
    assert rc.at_cap == pp_subset_test(spec, float(spec.dim), samples).passed
    if rc.closed_form is not None:
        assert abs(rc.value - min(rc.closed_form, spec.dim)) <= 1e-12 * spec.dim


def test_characteristic_runs_no_search(monkeypatch):
    # one pass over the direction family: each lattice block is built once
    # and tested for positivity, the cap and the shift; 6,006 directions
    # in dim 4 are three blocks of at most 2,048
    starts = []
    lattice = cones.sphere_lattice
    monkeypatch.setattr(cones, "sphere_lattice", lambda *a: starts.append(a[2]) or lattice(*a))
    horiz = horizontal_cone(Frame(np.eye(4)[:2]), 4)
    rc = riesz_characteristic(horiz, sphere_samples=3000)
    assert rc.iterations == 0 and starts == [0, 2048, 4096]
    # a cone without I - P_e stops at the first failing block
    starts.clear()
    with pytest.raises(DomainError, match="needs I - P_e"):
        riesz_characteristic(dual_cone(enlarged_cone(horiz, 0.9)), sphere_samples=3000)
    assert starts == [0]


def test_nested_enlargements_add():
    # enl(enl(B, c1), c2) = enl(B, c1 + c2): closed form (1 + c1 + c2) cf(B)
    spec = parse_cone("enl:enl:sigma:2:0.3:0.2", 4)
    assert cones.closed_form_characteristic(spec) == 3.0
    rc = riesz_characteristic(spec)
    assert abs(rc.value - 3.0) <= 4e-12 and not rc.at_cap
    assert not pp_subset_test(spec, 3.05).passed  # (1.3)(1.2) * 2 = 3.12 would pass it
    rc = riesz_characteristic(parse_cone("enl:enl:pp:2:0.5:0.5", 4))
    assert rc.closed_form == 4.0 and rc.value == 4.0 and rc.at_cap
    assert cones.closed_form_characteristic(parse_cone("enl:enl:pp:2:0.5:0.5", 5)) == 4.0


# -- Riesz characteristics ------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,expected",
    [
        (sigma_cone(2, 4), 2.0),
        (pdelta_cone(1.0, 3), 2.0),
        (pucci_cone(1.0, 2.0, 3), 2.0),
        (positivity(5), 1.0),
        (pp_cone(2.5, 4), 2.5),
        (enlarged_cone(pp_cone(2.0, 5), 0.5), 3.0),
        (complex_branch_cone(1, 6), 2.0),
        # the dual of branch:k is its mirror branch:n-k+1
        (dual_cone(branch_cone(2, 4)), 4.0),
        (dual_cone(branch_cone(4, 4)), 1.0),
        (dual_cone(complex_branch_cone(1, 4)), 4.0),
        (enlarged_cone(dual_cone(branch_cone(4, 4)), 0.5), 1.5),
        # lambda_3 >= 0.5 holds every I - pP_e: a negative shift leaves n
        (dual_cone(enlarged_cone(branch_cone(2, 4), 0.5)), 4.0),
    ],
)
def test_riesz_characteristic_closed_forms(spec, expected):
    rc = riesz_characteristic(spec)
    assert rc.value == pytest.approx(expected, abs=1e-6)
    assert rc.closed_form == pytest.approx(expected)


def test_riesz_characteristic_at_cap():
    rc = riesz_characteristic(branch_cone(2, 4))
    assert rc.at_cap and rc.value == 4.0


def test_riesz_characteristic_without_positivity_is_a_domain_error():
    # the dual of the enlarged branch:3 is the set lambda_min >= 0.2, not a
    # cone: I - P_e fails at every e, which is bad input, not a fault of
    # the program
    spec = parse_cone("dual:enl:branch:3:0.2", 3)
    with pytest.raises(DomainError, match=r"needs I - P_e in the cone.*e = \[1\.0, 0\.0, 0\.0\]"):
        riesz_characteristic(spec)


def test_riesz_characteristic_horizontal_plane():
    # a coordinate 2-plane: the axis directions catch the binding vector
    spec = horizontal_cone(Frame(np.eye(4)[:2]), 4)
    rc = riesz_characteristic(spec)
    assert rc.sampled
    assert rc.value == pytest.approx(2.0, abs=1e-6)


def test_riesz_characteristic_geometric_is_the_plane_dimension():
    # I - p P_e leaves the cone first at a vector e of one of its planes,
    # which the direction family holds, so the sampled value is the
    # closed form, the plane dimension, for planes in general position
    rng = np.random.default_rng(8)
    frames = [random_frame(4, 2, rng) for _ in range(3)]
    rc = riesz_characteristic(geometric_cone(frames, 4), sphere_samples=100)
    assert rc.sampled and rc.closed_form == 2.0
    assert abs(rc.value - 2.0) <= 1e-12


def test_enlarged_nesting_and_stabilization():
    base = pp_cone(2.0, 4)
    mats = random_sym_stack(7, 400, 4)
    m0 = margins(base, mats)
    prev = m0
    for c in (0.25, 0.5, 1.0):
        mc = margins(enlarged_cone(base, c), mats)
        assert np.all(mc >= prev - 1e-12)
        prev = mc
    # shrinking the enlargement recovers base membership off the boundary:
    # interior points stay members for every c, exterior points drop out
    # once c is small against their depth
    scale = 1.0 + np.abs(mats).reshape(400, -1).max(axis=1)
    decided = np.abs(m0) > 1e-3 * scale
    for i in np.nonzero(decided)[0][:50]:
        if m0[i] > 0:
            assert all(
                margins(enlarged_cone(base, c), mats[i])[0] >= 0
                for c in (1.0, 0.5, 0.25, 0.125)
            )
        else:
            c_small = abs(m0[i]) / 16.0
            assert margins(enlarged_cone(base, c_small), mats[i])[0] < 0


# -- Pucci Garding polynomial: C8's oracle ----------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_garding_family_matches_brute_force(n):
    assert garding_family_is_brute_force(n)


def test_garding_value_example():
    # I_2 with (lam, Lam) = (1, 2): subsets {1}, {2}, {1, 2} give factors 3, 3 and 2
    assert garding_members(2).tolist() == [[True, False], [False, True], [True, True]]
    eigs = symmat.eigenvalues_of(np.eye(2))
    assert garding_min_factors(eigs, 1.0, 2.0) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_garding_min_factor_sign_matches_interior(n):
    lam, Lam = 1.0, 2.5
    mats = random_sym_stack(20 + n, 1000, n)
    eigs = np.linalg.eigvalsh(mats)
    minf = garding_min_factors(eigs, lam, Lam)
    pucci_m = margins(pucci_cone(lam, Lam, n), mats)
    band = 1e-7 * (1.0 + np.abs(mats).reshape(1000, -1).max(axis=1))
    decided = (np.abs(minf) > band) & (np.abs(pucci_m) > band)
    assert np.all((minf[decided] > 0) == (pucci_m[decided] > 0))


# -- parsing -----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pp:2.5", "pp:2.5"),
        ("branch:3", "branch:3"),
        ("cbranch:2", "cbranch:2"),
        ("pdelta:0.5", "pdelta:0.5"),
        ("pucci:1:2", "pucci:1:2"),
        ("sigma:2", "sigma:2"),
        ("mapb:2:3", "mapb:2:3"),
        ("enl:pp:2:0.1", "enl:pp:2:0.1"),
        ("dual:branch:1", "dual:branch:1"),
        ("p", "p"),
        ("pp:2.0", "pp:2"),
        ("mapb:1:4", "mapb:1:4"),
        ("enl:p:0.5", "enl:p:0.5"),
        ("dual:p", "dual:p"),
        ("dual:dual:p", "dual:dual:p"),
        ("enl:dual:p:1", "enl:dual:p:1"),
        ("dual:enl:pucci:0.5:1.5:0.25", "dual:enl:pucci:0.5:1.5:0.25"),
        ("dual:cbranch:1", "dual:cbranch:1"),
        ("enl:sigma:3:2", "enl:sigma:3:2"),
        ("dual:pdelta:2", "dual:pdelta:2"),
        ("enl:mapb:2:6:0", "enl:mapb:2:6:0"),
    ],
)
def test_parse_cone_roundtrip(text, expected):
    assert parse_cone(text, 4).describe() == expected


def test_whole_parameters_print_as_integers_below_two_to_the_53():
    # above 2**53 every float is whole; its integer digits would fill the descriptor
    assert parse_cone("pdelta:1e20", 3).describe() == "pdelta:1e+20"
    assert parse_cone("pdelta:9007199254740991", 3).describe() == "pdelta:9007199254740991"
    for delta in (1e20, 1e308, 2.0**53):
        spec = pdelta_cone(delta, 3)
        assert parse_cone(spec.describe(), 3).delta == delta


def test_parse_cone_frames(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text("1,0,0\n0,1,0\n\n0,1,0\n0,0,1\n")
    spec = parse_cone(f"geom:@{path}", 3)
    assert spec.kind == "geom" and len(spec.frames) == 2
    assert spec.describe() == "geom:2x2-frames"
    single = tmp_path / "frame.csv"
    single.write_text("1,0,0\n")
    spec2 = parse_cone(f"horiz:@{single}", 3)
    assert spec2.kind == "horiz"
    assert parse_cone(f"dual:enl:horiz:@{single}:0.5", 3).describe() == "dual:enl:horiz:1-plane:0.5"


def test_parse_cone_errors_carry_position():
    cases = [
        ("nonsense:1", 0, "unknown cone kind 'nonsense'"),
        ("pucci:1:x", 8, "expected a number at position 8, got 'x'"),
        ("branch:2.5", 7, "expected a number at position 7, got '2.5'"),
        ("mapb:2", 4, "'mapb' takes 2 parameter(s), got 1"),
        ("mapb:2.5:1", 5, "expected a number at position 5, got '2.5'"),
        ("p:1", 1, "'p' takes 0 parameter(s), got 1"),
        ("pp:9", 0, "pp parameter 9.0 out of range [1, 3]"),  # out of range for the dimension
        ("mapb:4:1", 0, "mapb needs an integer p in [1, 3], got 4.0"),
        ("enl:pp:2:x", 9, "expected the enlargement amount, got 'x'"),
        ("enl:pp:2:nan", 0, "enl parameter c must be finite, got nan"),
        ("enl:pp:2:inf", 0, "enl parameter c must be finite, got inf"),
        ("pdelta:inf", 0, "pdelta parameter delta must be finite, got inf"),
        ("pucci:1:inf", 0, "pucci parameter Lam must be finite, got inf"),
    ]
    for text, position, message in cases:
        with pytest.raises(SpecParseError) as err:
            parse_cone(text, 3)
        assert (err.value.position, str(err.value)) == (position, message), text
