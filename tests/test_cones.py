import math

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
    dual_contains,
    enlarged_cone,
    garding_index_family,
    garding_pucci,
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
from conecalc.errors import DomainError, SamplingError, SpecParseError
from conecalc.symmat import Frame, SymMatrix


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


def random_sym_stack(seed, count, n, magnitude=1.0):
    rng = np.random.default_rng(seed)
    return cones.sample_goe(rng, n, count, magnitude)


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
def catalogue_specs(draw, name):
    """A cone of the given catalogue kind (``wrap:kind`` for enl/dual)."""
    wrap, _, kind = name.rpartition(":")
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
        frames = [symmat.random_frame(n, pdim, rng) for _ in range(count)]
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
    out = cones.force_membership(spec, mats)
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


@pytest.mark.parametrize("spec", [pp_cone(3.0, 3)])
def test_membership_shift_beyond_the_float_range_is_a_sampling_error(spec):
    # the eigenvalues are finite, their sum and so the shift are not
    with np.errstate(all="ignore"), pytest.raises(SamplingError, match="smaller magnitude"):
        cones.membership_shift(spec, -1e308 * np.eye(3))


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
            assert not dual_contains(spec, np.zeros((4, 4))).member
            continue
        assert dual_contains(spec, np.zeros((4, 4))).member, spec.describe()


def test_dual_of_positivity_definitional_example():
    rep = dual_contains(positivity(2), np.diag([-1.0, 2.0]))
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
    assert dual_contains(spec, A).witness == expected


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


def test_check_relation_deterministic():
    cfg = SampleConfig(seed=9, count=300)
    r1 = check_relation(pucci_cone(1, 2, 3), positivity(3), cfg)
    r2 = check_relation(pucci_cone(1, 2, 3), positivity(3), cfg)
    assert r1.to_dict() == r2.to_dict()


def test_check_relation_reports_the_stacked_margins():
    # a geom margin of one matrix can differ in the last bit from its row in
    # the sampled stack; the report carries the rows that were tested
    F = geometric_cone([Frame(np.array([[0.6, 0.8]]))], 2)
    M = branch_cone(2, 2)
    cfg = SampleConfig(seed=2, count=50)
    rep = check_relation(F, M, cfg)
    assert not rep.passed
    rng = np.random.default_rng(cfg.seed)
    A = cones.force_membership(F, cones.sample_goe(rng, 2, cfg.count, cfg.magnitude))
    B = cones.force_membership(M, cones.sample_goe(rng, 2, cfg.count, cfg.magnitude))
    i = rep.failure_index
    assert rep.margins == {
        "margin_a": margins(F, A)[i],
        "margin_b": margins(M, B)[i],
        "margin_sum": margins(F, A + B)[i],
    }


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
    frames = [symmat.random_frame(5, 2, rng) for _ in range(4)]
    assert pp_subset_test(geometric_cone(frames, 5), 2.0, sphere_samples=100).passed


def test_sphere_lattice_unit_norms():
    for n in (2, 3, 4, 6):
        pts = sphere_lattice(n, 64)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


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
    ],
)
def test_riesz_characteristic_closed_forms(spec, expected):
    rc = riesz_characteristic(spec)
    assert rc.value == pytest.approx(expected, abs=1e-6)
    assert rc.closed_form == pytest.approx(expected)


def test_riesz_characteristic_at_cap():
    rc = riesz_characteristic(branch_cone(2, 4))
    assert rc.at_cap and rc.value == 4.0


def test_riesz_characteristic_horizontal_plane():
    # a coordinate 2-plane: the axis directions catch the binding vector
    spec = horizontal_cone(Frame(np.eye(4)[:2]), 4)
    rc = riesz_characteristic(spec)
    assert rc.sampled
    assert rc.value == pytest.approx(2.0, abs=1e-6)


def test_riesz_characteristic_geometric_is_sampled_only():
    rng = np.random.default_rng(8)
    frames = [symmat.random_frame(4, 2, rng) for _ in range(3)]
    rc = riesz_characteristic(geometric_cone(frames, 4), sphere_samples=100)
    assert rc.sampled and rc.closed_form is None
    # the finite frame list constrains less than the full plane family
    assert rc.value >= 2.0 - 1e-6


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


# -- Pucci Garding polynomial -----------------------------------------------------------


def segment_meets_cube_oracle(vertex, lam, Lam, samples=4001):
    # brute force: sample the open segment and test cube membership
    ts = np.linspace(0.0, 1.0, samples)[1:-1]
    pts = ts[:, None] * vertex[None, :]
    inside = np.all((pts >= lam - 1e-12) & (pts <= Lam + 1e-12), axis=1)
    return bool(inside.any())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_garding_family_matches_brute_force(n):
    lam, Lam = 1.0, 2.0
    family = set(garding_index_family(n, lam, Lam))
    expected = set()
    for mask in range(2**n):
        members = tuple(i + 1 for i in range(n) if mask >> i & 1)
        vertex = np.full(n, Lam)
        for i in members:
            vertex[i - 1] = lam
        if not segment_meets_cube_oracle(vertex, lam, Lam):
            expected.add(members)
    assert family == expected
    assert len(family) == 2**n - 1


def test_garding_value_example():
    res = garding_pucci(np.eye(2), 1.0, 2.0)
    assert res.family_size == 3
    assert sorted(res.factors.tolist()) == pytest.approx([2.0, 3.0, 3.0])
    assert res.value == pytest.approx(18.0)
    assert set(res.subsets) == {(1,), (2,), (1, 2)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_garding_min_factor_sign_matches_interior(n):
    lam, Lam = 1.0, 2.5
    mats = random_sym_stack(20 + n, 1000, n)
    eigs = np.linalg.eigvalsh(mats)
    minf = cones.garding_pucci_min_factors(eigs, lam, Lam)
    pucci_m = margins(pucci_cone(lam, Lam, n), mats)
    band = 1e-7 * (1.0 + np.abs(mats).reshape(1000, -1).max(axis=1))
    decided = (np.abs(minf) > band) & (np.abs(pucci_m) > band)
    assert np.all((minf[decided] > 0) == (pucci_m[decided] > 0))


def test_garding_dimension_cap():
    with pytest.raises(Exception):
        garding_index_family(13, 1.0, 2.0)


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
    ]
    for text, position, message in cases:
        with pytest.raises(SpecParseError) as err:
            parse_cone(text, 3)
        assert (err.value.position, str(err.value)) == (position, message), text
