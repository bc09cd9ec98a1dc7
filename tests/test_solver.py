import dataclasses
import hashlib
import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conecalc import cones, grids, riesz, solver
from conecalc.errors import (
    DiscretizationError,
    DomainError,
    StencilError,
    UnsupportedPolarError,
)
from conecalc.grids import GridFunction, from_function, grid_coordinates
from conecalc.solver import (
    DirichletProblem,
    _Scheme,
    _combos,
    _evaluate,
    evaluate_expression,
    make_stencil,
    problem_from_config,
    removability_experiment,
    residual,
    solve,
)


def quadratic_grid(A, shape=(17, 17), origin=(-1.0, -1.0), h=0.125):
    A = np.asarray(A)

    def f(*coords):
        pts = np.stack(coords, axis=-1)
        return 0.5 * np.einsum("...i,ij,...j->...", pts, A, pts)

    return from_function(shape, np.asarray(origin), h, f)


def annulus_config(nside, p=1.5, a=0.125):
    h = 2.0 / (nside - 1)
    return {
        "operator": "pp",
        "p": p,
        "grid": {"shape": [nside, nside], "origin": [-1, -1], "h": h},
        "boundary": {"expr": "(x*x+y*y)**0.25"},
        "hole": {"min": [-a, -a], "max": [a, a]},
    }


def _minmax_config(nside):
    """Second eigenvalue branch in 3-D (the min-max form) with an
    indefinite quadratic datum."""
    return {
        "operator": "branch",
        "k": 2,
        "grid": {"shape": [nside] * 3, "origin": [-1, -1, -1], "h": 2.0 / (nside - 1)},
        "boundary": {"expr": "x*x - 0.5*y*y - 0.5*z*z + 0.1*x"},
    }


def _pp_cube_config(nside):
    """The min-max problem's cube and datum under pp:1.5."""
    cfg = dict(_minmax_config(nside), operator="pp", p=1.5)
    del cfg["k"]
    return cfg


# -- stencils ---------------------------------------------------------------------


def test_default_2d_stencil():
    st = make_stencil(2, 3)
    assert st.count == 16
    # one representative per line and coprime components
    for v in st.directions:
        assert tuple(-v) not in {tuple(w) for w in st.directions}
        assert np.gcd.reduce(np.abs(v)) == 1
    # every direction participates in an orthogonal pair
    used = {i for pair in st.ortho_pairs for i in pair}
    assert used == set(range(16))
    for i, j in st.ortho_pairs:
        assert st.directions[i] @ st.directions[j] == 0
    # the axis frame comes first
    assert st.directions[list(st.ortho_pairs[0])].tolist() in ([[0, 1], [1, 0]], [[1, 0], [0, 1]])


def test_3d_stencil_orthogonal_triples():
    st = make_stencil(3, 2)
    assert st.ortho_triples
    for i, j, k in st.ortho_triples:
        D = st.directions[[i, j, k]]
        assert D[0] @ D[1] == 0 and D[0] @ D[2] == 0 and D[1] @ D[2] == 0


def _loop_stencil(ndim, reach):
    """Directions, ortho pairs and ortho triples by loops over the
    coordinate product and the index sets: the reference enumeration."""
    dirs = []
    for v in itertools.product(range(-reach, reach + 1), repeat=ndim):
        if any(v) and next(c for c in v if c != 0) > 0 and math.gcd(*v) == 1:
            dirs.append(v)
    dirs.sort(key=lambda v: (max(abs(c) for c in v), sum(c * c for c in v), v))
    D = len(dirs)

    def dot(i, j):
        return sum(a * b for a, b in zip(dirs[i], dirs[j]))

    def frame_reach(frame):
        return max(max(abs(c) for c in dirs[i]) for i in frame), frame

    pairs = sorted(((i, j) for i in range(D) for j in range(i + 1, D) if dot(i, j) == 0),
                   key=frame_reach)
    triples = sorted(((i, j, k) for i, j in pairs for k in range(j + 1, D)
                      if dot(i, k) == 0 and dot(j, k) == 0), key=frame_reach)
    return dirs, tuple(pairs), tuple(triples)


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("reach", range(1, solver.REACH_CAP + 1))
def test_stencil_is_the_loop_enumeration(ndim, reach):
    dirs, pairs, triples = _loop_stencil(ndim, reach)
    st = make_stencil(ndim, reach)
    assert st.directions.dtype == np.intp
    assert st.directions.tolist() == [list(v) for v in dirs]
    assert st.lengths.tobytes() == np.linalg.norm(np.array(dirs, dtype=float), axis=1).tobytes()
    # tuples of int tuples, in the reference order
    assert st.ortho_pairs == pairs and st.ortho_triples == triples
    assert all(type(i) is int for frame in st.ortho_pairs + st.ortho_triples for i in frame)
    assert (len(triples) > 0) == (ndim == 3)


def test_stencil_rejects_bad_inputs():
    with pytest.raises(DomainError):
        make_stencil(4, 3)
    with pytest.raises(DomainError):
        make_stencil(2, 0)


def test_stencil_reach_cap():
    # the largest reach builds; the next is refused before any direction
    # is enumerated (a 2000 reach ran 27 s into a MemoryError)
    assert make_stencil(3, solver.REACH_CAP).reach == solver.REACH_CAP
    for reach in (solver.REACH_CAP + 1, 2000, 10**18):
        with pytest.raises(DomainError, match=r"stencil reach must be an integer in \[1, 5\]"):
            make_stencil(2, reach)


@st.composite
def lattice_problems(draw):
    """Small 2-D/3-D problems with an optional hole box and punctures."""
    nd = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(5, 24 if nd == 2 else 10)) for _ in range(nd))
    hole = None
    if draw(st.booleans()):
        lo = [draw(st.integers(0, s - 1)) for s in shape]
        hi = [draw(st.integers(a, s - 1)) for a, s in zip(lo, shape)]
        hole = np.zeros(shape, dtype=bool)
        hole[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] = True
    interior = st.tuples(*[st.integers(1, s - 2) for s in shape])
    punctures = draw(st.lists(interior, max_size=6, unique=True))
    if hole is not None:
        punctures = [pt for pt in punctures if not hole[pt]]
    g = np.zeros(shape)
    return DirichletProblem(shape, np.zeros(nd), 0.1, ("pp", 2), g, hole, tuple(punctures))


def _admissible(scheme):
    """(C, N) mask of the admissible frame combos of every unknown."""
    return scheme._admissible(scheme.valid)


def _on_one_root_path(a, b):
    """Whether each pair of heap codes (root 1, children 2c and 2c + 1)
    names a node and one of its ancestors or descendants, or one node:
    the shorter code is a prefix of the longer."""
    da = np.array([int(c).bit_length() for c in a])
    db = np.array([int(c).bit_length() for c in b])
    d = np.minimum(da, db)
    return (a >> (da - d)) == (b >> (db - d)), da - db


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    problem=lattice_problems(),
    op=st.sampled_from([("pp", 1.5), ("pp", 2), ("branch", 1)]),
    reach=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_dissection_order_follows_the_frozen_matrix(problem, op, reach, seed):
    try:
        scheme = _Scheme(dataclasses.replace(problem, operator=op), make_stencil(problem.ndim, reach))
    except (DomainError, DiscretizationError):
        assume(False)
    # a random admissible frame at every point
    rng = np.random.default_rng(seed)
    admissible = _admissible(scheme)
    scores = np.where(admissible, rng.random(admissible.shape), -1.0)
    L = scheme.assemble(np.argmax(scores, axis=0))[0]
    order = scheme.order(L)
    assert np.array_equal(np.sort(order), np.arange(L.shape[0]))
    node = scheme.separators(L)
    # unknowns only move up from their geometric home
    assert _on_one_root_path(node, scheme.home)[0].all()
    assert np.all(node <= scheme.home)
    # every entry joins a node to itself, an ancestor or a descendant,
    # never two subtrees of one node, and the descendant comes first
    coo = L.tocoo()
    related, deeper = _on_one_root_path(node[coo.row], node[coo.col])
    assert related.all()
    pos = np.argsort(order)
    first, second = pos[coo.row], pos[coo.col]
    assert np.all((first < second)[deeper > 0]) and np.all((first > second)[deeper < 0])


def _coo_assemble(scheme, selection):
    """Reference system: the selected arms as COO lists with the diagonal,
    converted (and summed) by scipy into CSR."""
    N = scheme.unknown_flat.shape[0]
    g = scheme.problem.boundary_values.reshape(-1)
    rows, cols, data = [], [], []
    rhs, diag = np.zeros(N), np.zeros(N)
    for s in range(scheme.dirs.shape[1]):
        w = scheme.weights[selection, s]
        pts = np.nonzero(w != 0.0)[0]
        d = scheme.dirs[selection[pts], s]
        coef = w[pts] * scheme.coeff[d]
        diag[pts] -= 2.0 * coef
        center = scheme.unknown_flat[pts]
        for nbr in (center + scheme.step[d], center - scheme.step[d]):
            r = scheme.rank[nbr]
            inner = r >= 0
            rows.append(pts[inner])
            cols.append(r[inner])
            data.append(coef[inner])
            rhs[pts[~inner]] -= coef[~inner] * g[nbr[~inner]]
    rows.append(np.arange(N))
    cols.append(np.arange(N))
    data.append(diag)
    L = solver.sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)
    )
    return L, rhs


def _coo_separators(scheme, L):
    """Reference ``separators``: the off-diagonal entries read through tocoo."""
    coo = L.tocoo()
    off = coo.row != coo.col
    i, j = coo.row[off], coo.col[off]
    a, b = scheme.home[i], scheme.home[j]
    da, db = solver._bit_length(a), solver._bit_length(b)
    depth = np.minimum(da, db)
    a, b = a >> (da - depth), b >> (db - depth)
    below = solver._bit_length(a ^ b)
    jump = below > 0
    a, below = a[jump], below[jump]
    right = ((a >> (below - 1)) & 1).astype(bool)
    node = scheme.home.copy()
    np.minimum.at(node, np.where(right, i[jump], j[jump]), a >> below)
    return node


def _permuted_factor_input(L, order):
    """Reference float32 CSC for ``splu``: L permuted by fancy indexing,
    then scaled by a power of two to a largest entry in [1/2, 1)."""
    A = L[order][:, order].tocsc()
    shift = np.frexp(np.max(np.abs(A.data)))[1]
    A.data = np.ldexp(A.data, -shift).astype(np.float32)
    return A


def _factor_input(L, order):
    """The matrix ``solver._factor`` hands to ``splu``."""
    real, seen = solver.spla, []
    stand_in = types.ModuleType(real.__name__)
    stand_in.__dict__.update(real.__dict__, splu=lambda A, **kw: seen.append(A) or real.splu(A, **kw))
    solver.spla = stand_in
    try:
        solver._factor(L, order)
    finally:
        solver.spla = real
    return seen[0]


def _same_bytes(*pairs):
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in pairs)


def _same_matrix(A, B):
    return type(A) is type(B) and A.shape == B.shape and _same_bytes(
        (A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data))


# pp:1 skips its zero-weight slot, pp:ndim is the trace form, and the
# min-max form (branch:2 in 3-D) assembles through its pair view
@pytest.mark.parametrize("op", ["pp:1", "pp:1.5", "pp:ndim", "pp:2.5", "branch:1",
                                "branch:ndim", "minmax"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(problem=lattice_problems(), reach=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_assembly_ordering_and_factor_input_match_the_coo_references(op, problem, reach, seed):
    nd = problem.ndim
    assume(op != "minmax" or nd == 3)
    kind, val = ("branch", 2) if op == "minmax" else op.replace("ndim", str(nd)).split(":")
    try:
        scheme = _Scheme(dataclasses.replace(problem, operator=(kind, float(val))),
                         make_stencil(nd, reach))
    except (DomainError, DiscretizationError):
        assume(False)
    rng = np.random.default_rng(seed)
    admissible = _admissible(scheme)
    selection = np.argmax(np.where(admissible, rng.random(admissible.shape), -1.0), axis=0)
    if op == "minmax":
        scheme = scheme.pair_view(selection)
        selection = scheme.pair_dirs[np.arange(selection.size), rng.integers(0, 2, selection.size)]
    L, rhs = scheme.assemble(selection)
    L_ref, rhs_ref = _coo_assemble(scheme, selection)
    assert L.has_canonical_format
    assert _same_matrix(L, L_ref) and _same_bytes((rhs, rhs_ref))
    assert _same_bytes((scheme.separators(L), _coo_separators(scheme, L)))
    order = scheme.order(L)
    assert _same_matrix(_factor_input(L, order), _permuted_factor_input(L, order))


def _strip_dissection(points, reach, leaf=64):
    """Geometric nested-dissection order of lattice points by separator
    strips ``reach`` cells wide, which no stencil arm can cross, fixed
    before any frame is chosen: the reference the solver's per-matrix
    order must not fill worse than.  Each box is split across its
    longest axis; left half, right half, then the strip."""
    order = []

    def visit(ids):
        pts = points[ids]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        axis = int(np.argmax(hi - lo))
        extent = int(hi[axis] - lo[axis]) + 1
        if ids.size <= leaf or extent < reach + 2:
            order.extend(ids.tolist())
            return
        cut = int(lo[axis]) + (extent - reach) // 2
        c = pts[:, axis]
        visit(ids[c < cut])
        visit(ids[c >= cut + reach])
        order.extend(ids[(c >= cut) & (c < cut + reach)].tolist())

    visit(np.arange(points.shape[0]))
    return np.array(order, dtype=np.intp)


def _fill(L, order):
    """Entries of the pivot-free LU factors of L eliminated in ``order``."""
    lu = solver.spla.splu(L[order][:, order].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
    return lu.L.nnz + lu.U.nnz


def _first_frozen_matrix(cfg):
    """The scheme of a problem config (reach-3 stencil) and its first
    policy step's frozen system; for the min-max form, that of the first
    inner step."""
    prob = problem_from_config(cfg)
    stencil = make_stencil(prob.ndim, 3)
    scheme = _Scheme(prob, stencil)
    u = prob.boundary_values.reshape(-1)
    sel = scheme.evaluate(u)[1]
    if scheme.form == "minmax":
        # the inner view of solve: single directions, the pair's two admissible
        inner = scheme.pair_view(sel)
        scheme, sel = inner, inner.evaluate(u)[1]
    return scheme, *scheme.assemble(sel)


_FROZEN_CASES = [
    pytest.param(annulus_config(65), id="annulus-65-pp1.5"),
    pytest.param(annulus_config(65, p=2), id="annulus-65-trace"),
    pytest.param(_pp_cube_config(11), id="pp1.5-11^3"),
    pytest.param(_minmax_config(11), id="minmax-inner-11^3"),
]


@pytest.mark.parametrize("cfg", _FROZEN_CASES)
def test_dissection_fills_no_more_than_reach_wide_strips(cfg):
    scheme, L, _ = _first_frozen_matrix(cfg)
    strips = _strip_dissection(np.argwhere(scheme.problem.unknown_mask()), 3)
    assert _fill(L, scheme.order(L)) <= _fill(L, strips)


# the componentwise backward error a refined solve must reach, written
# out so that a looser solver._BACKWARD_ERROR fails the tests that use it
_SIXTY_FOUR_EPS = 64 * np.finfo(float).eps


@pytest.mark.parametrize("cfg", _FROZEN_CASES[::2])
def test_permuted_factor_solve_meets_the_backward_error(cfg):
    scheme, L, rhs = _first_frozen_matrix(cfg)
    order = scheme.order(L)
    assert not np.array_equal(order, np.arange(order.size))
    x = solver._refine(L, rhs, np.zeros_like(rhs), solver._factor(L, order), math.inf)
    scale = abs(L) @ np.abs(x) + np.abs(rhs)
    assert np.all(np.abs(rhs - L @ x) <= _SIXTY_FOUR_EPS * scale)


_OPERATORS_BY_DIM = {
    2: [("pp", 1.2), ("pp", 1.5), ("pp", 2), ("branch", 1), ("branch", 2)],
    3: [("pp", 1.5), ("pp", 2.5), ("pp", 3), ("branch", 1), ("branch", 3)],
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    problem=lattice_problems(),
    op_index=st.integers(0, 4),
    reach=st.integers(1, 3),
    power=st.integers(-600, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_solve_refines_to_the_backward_error_at_any_scale(problem, op_index, reach, power, seed):
    # data of any binary magnitude, on a random admissible frozen selection:
    # the float32 factor and the power-of-two scalings reach 64 eps within
    # the refinement cap
    rng = np.random.default_rng(seed)
    g = np.ldexp(rng.uniform(-1.0, 1.0, problem.shape), power)
    op = _OPERATORS_BY_DIM[problem.ndim][op_index]
    try:
        scheme = _Scheme(
            dataclasses.replace(problem, operator=op, boundary_values=g),
            make_stencil(problem.ndim, reach),
        )
    except (DomainError, DiscretizationError):
        assume(False)
    admissible = _admissible(scheme)
    scores = np.where(admissible, rng.random(admissible.shape), -1.0)
    L, rhs = scheme.assemble(np.argmax(scores, axis=0))
    x = solver._refine(L, rhs, np.zeros_like(rhs), solver._factor(L, scheme.order(L)), math.inf)
    assert np.all(np.abs(rhs - L @ x) <= _SIXTY_FOUR_EPS * (abs(L) @ np.abs(x) + np.abs(rhs)))


# -- residuals ---------------------------------------------------------------------


def test_trace_residual_exact_on_quadratics():
    A = np.array([[2.0, 0.7], [0.7, -1.0]])
    u = quadratic_grid(A)
    assert residual(u, (8, 8), ("pp", 2)) == pytest.approx(np.trace(A), abs=1e-10)


def test_residuals_vanish_on_affine_data():
    u = from_function((17, 17), [-1, -1], 0.125, lambda x, y: 3 * x - 2 * y + 1)
    for op in (("pp", 1.5), ("pp", 2), ("branch", 1), ("branch", 2)):
        assert residual(u, (8, 8), op) == pytest.approx(0.0, abs=1e-10)


def test_branch_residual_angular_resolution():
    # smallest eigenvalue of a rotated quadratic: richer stencils shrink
    # the directional resolution error like the squared angular gap
    theta = 0.35
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    A = Q @ np.diag([-1.0, 2.0]) @ Q.T
    u = quadratic_grid(A, shape=(41, 41), h=0.05)
    errs = []
    for reach in (1, 2, 3):
        st = make_stencil(2, reach)
        errs.append(abs(residual(u, (20, 20), ("branch", 1), st) - (-1.0)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.05 * 3.0  # max eigenvalue spread times sin^2 of the gap


def test_pp_residual_between_bounds():
    rng = np.random.default_rng(0)
    st = make_stencil(2, 3)
    for _ in range(20):
        G = rng.standard_normal((2, 2))
        A = 0.5 * (G + G.T)
        u = quadratic_grid(A, shape=(25, 25), h=0.1)
        p = 1 + rng.random()
        lam = np.linalg.eigvalsh(A)
        exact = lam[0] + (p - 1) * lam[1]
        r = residual(u, (12, 12), ("pp", p), st)
        # sampled frames overestimate the frame minimum but stay close
        assert exact - 1e-9 <= r <= exact + 0.05 * (lam[1] - lam[0]) + 1e-9


def test_3d_trace_and_partial_sum_residuals():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((3, 3))
    A = 0.5 * (G + G.T)
    u = quadratic_grid(A, shape=(13, 13, 13), origin=(-0.6, -0.6, -0.6), h=0.1)
    st = make_stencil(3, 2)
    assert residual(u, (6, 6, 6), ("pp", 3), st) == pytest.approx(np.trace(A), abs=1e-9)
    lam = np.linalg.eigvalsh(A)
    r25 = residual(u, (6, 6, 6), ("pp", 2.5), st)
    exact = lam[0] + lam[1] + 0.5 * lam[2]
    assert exact - 1e-9 <= r25 <= exact + 0.1 * (lam[2] - lam[0])
    r2 = residual(u, (6, 6, 6), ("branch", 2), st)
    assert abs(r2 - lam[1]) <= 0.12 * (lam[2] - lam[0])


def test_residual_stencil_clipped():
    u = quadratic_grid(np.eye(2))
    with pytest.raises(StencilError):
        residual(u, (1, 8), ("pp", 2))


def _loop_scheme(problem, stencil, u):
    """Reference scheme: Python loops over directions and combos, NaN
    marking every second difference whose arm leaves the grid or lands
    on a puncture."""
    form, dirs, weights = _combos(problem.operator, stencil)
    unknown = np.argwhere(problem.unknown_mask())
    flat = np.ravel_multi_index(unknown.T, problem.shape)
    punct = problem.puncture_mask()
    coeff = 1.0 / (problem.h * stencil.lengths) ** 2
    dv = np.full((stencil.count, flat.size), np.nan)
    for d, v in enumerate(stencil.directions):
        for k, p in enumerate(unknown):
            a, b = p + v, p - v
            if all(0 <= c < s for q in (a, b) for c, s in zip(q, problem.shape)):
                if not (punct[tuple(a)] or punct[tuple(b)]):
                    dv[d, k] = (u[tuple(a)] + u[tuple(b)] - 2.0 * u[tuple(p)]) * coeff[d]
    vals = np.empty((dirs.shape[0], flat.size))
    for c, (ds, ws) in enumerate(zip(dirs, weights)):
        vals[c] = np.max(dv[ds], axis=0) if form == "minmax" else np.einsum("i,ij->j", ws, dv[ds])
    if form == "trace":
        sel = np.argmax(~np.isnan(vals), axis=0)
    else:
        sel = (np.nanargmax if form == "max" else np.nanargmin)(vals, axis=0)
    return flat, vals[sel, np.arange(flat.size)], sel


@pytest.mark.parametrize(
    "shape, op, reach",
    [
        ((17, 19), ("pp", 1.5), 3),
        ((17, 19), ("pp", 1.0), 3),
        ((17, 19), ("pp", 2), 3),
        ((17, 19), ("branch", 1), 3),
        ((17, 19), ("branch", 2), 3),
        ((9, 10, 11), ("branch", 2), 2),
        ((9, 10, 11), ("pp", 1.5), 2),
        ((9, 10, 11), ("pp", 2.5), 2),
        ((9, 10, 11), ("pp", 3), 2),
    ],
)
def test_scheme_kernel_matches_loop_reference(shape, op, reach):
    # same arithmetic as the loops, so residuals and frames agree bitwise;
    # the hole and the puncture make some frames inadmissible
    rng = np.random.default_rng(sum(shape))
    nd = len(shape)
    vals = rng.standard_normal(shape)
    hole = np.zeros(shape, dtype=bool)
    hole[(slice(3, 5),) * nd] = True
    st = make_stencil(nd, reach)
    problem = DirichletProblem(shape, np.zeros(nd), 0.1, op, vals, hole, [(6,) * nd])
    scheme = _Scheme(problem, st)
    u = vals.copy()
    u[(6,) * nd] = 0.0
    flat, ref_res, ref_sel = _loop_scheme(problem, st, u)
    order = np.argsort(scheme.unknown_flat)
    assert np.array_equal(scheme.unknown_flat[order], flat)
    res, sel = scheme.evaluate(u.reshape(-1))
    assert np.array_equal(res[order], ref_res)
    assert np.array_equal(sel[order], ref_sel)
    if scheme.form != "minmax":
        # the frozen-frame system reproduces the residual of its frames
        L, rhs = scheme.assemble(sel)
        lin = L @ u.reshape(-1)[scheme.unknown_flat] - rhs
        assert np.allclose(lin, res, rtol=1e-12, atol=1e-12 * np.abs(res).max())
        assert np.all(L.data != 0)  # zero-weight slots add no entries


@pytest.mark.parametrize(
    "shape, op, reach",
    [
        ((15, 17), ("pp", 1.5), 3),
        ((15, 17), ("branch", 1), 3),
        ((15, 17), ("branch", 2), 3),
        ((9, 10, 11), ("branch", 2), 2),
        ((9, 10, 11), ("pp", 2.5), 2),
        ((9, 10, 11), ("pp", 3), 2),
    ],
)
def test_pointwise_residual_is_the_scheme_residual(shape, op, reach):
    # one implementation: bitwise equal wherever the full stencil reaches
    rng = np.random.default_rng(len(shape) * 10 + reach)
    vals = rng.standard_normal(shape)
    st = make_stencil(len(shape), reach)
    problem = DirichletProblem(shape, np.zeros(len(shape)), 0.1, op, vals)
    scheme = _Scheme(problem, st)
    batched = scheme.evaluate(vals.reshape(-1))[0]
    u = GridFunction(vals, problem.origin, problem.h)
    checked = 0
    for k, flat in enumerate(scheme.unknown_flat):
        idx = np.unravel_index(flat, shape)
        if all(reach <= i < s - reach for i, s in zip(idx, shape)):
            assert residual(u, idx, op, st) == batched[k], idx
            checked += 1
    assert checked == np.prod([s - 2 * reach for s in shape])


_BLOCK_CASES = [
    ((17, 19), 3, [("pp", 1.0), ("pp", 1.5), ("pp", 2), ("branch", 1), ("branch", 2)]),
    ((9, 10, 11), 2, [("pp", 1.0), ("pp", 1.5), ("pp", 2.5), ("pp", 3), ("branch", 1),
                      ("branch", 2), ("branch", 3)]),
]


def _block_outputs(problem, stencil, u):
    """Residuals and selections with and without a random admissible
    ``keep`` selection, and the frozen system of the selection, of the
    scheme of ``problem`` and, for the min-max form, of its pair view."""
    rng = np.random.default_rng(3)
    out = []
    scheme = _Scheme(problem, stencil)
    while True:
        if scheme.pair_dirs is None:
            admissible = _admissible(scheme)
            keep = np.argmax(np.where(admissible, rng.random(admissible.shape), -1.0), axis=0)
        else:
            pair = scheme.pair_dirs
            keep = pair[np.arange(pair.shape[0]), rng.integers(0, 2, pair.shape[0])]
        res, sel = scheme.evaluate(u)
        out += [res, sel, *scheme.evaluate(u, keep=keep), scheme.valid]
        if scheme.form != "minmax":
            L, rhs = scheme.assemble(sel)
            return out + [L.data, L.indices, L.indptr, rhs]
        scheme = scheme.pair_view(sel)


@pytest.mark.parametrize("shape, reach, ops", _BLOCK_CASES, ids=["2d", "3d"])
def test_blocks_do_not_change_results(monkeypatch, shape, reach, ops):
    # a hole and a puncture make some frames inadmissible, and zero data
    # on the lower half ties every frame there, where ``keep`` wins;
    # blocks of one point, of a prime number of points and of every
    # point give the default blocks' outputs bit for bit
    rng = np.random.default_rng(7)
    nd = len(shape)
    vals = rng.standard_normal(shape)
    vals[: shape[0] // 2] = 0.0
    hole = np.zeros(shape, dtype=bool)
    hole[(slice(3, 5),) * nd] = True
    st = make_stencil(nd, reach)
    u = vals.reshape(-1).copy()
    u[np.ravel_multi_index((6,) * nd, shape)] = 0.0
    for op in ops:
        problem = DirichletProblem(shape, np.zeros(nd), 0.1, op, vals, hole, [(6,) * nd])
        default = _block_outputs(problem, st, u)
        combos = _combos(problem.operator, st)[1].shape[0]
        for values in (1, 7 * combos, combos * vals.size):
            monkeypatch.setattr(solver, "_BLOCK_VALUES", values)
            blocked = _block_outputs(problem, st, u)
            assert len(blocked) == len(default)
            for a, b in zip(blocked, default):
                assert a.dtype == b.dtype and np.array_equal(a, b), (op, values)
        monkeypatch.undo()


def test_pair_view_is_the_max_form_restricted_to_each_pair():
    # the pair view evaluates each point's two pair directions alone; the
    # reference evaluates every direction with all but the pair's
    # inadmissible.  Zero data on the lower half ties both directions
    # there, where the lower index or ``keep`` must win.
    rng = np.random.default_rng(11)
    shape = (9, 10, 11)
    vals = rng.standard_normal(shape)
    vals[:4] = 0.0
    hole = np.zeros(shape, dtype=bool)
    hole[3:5, 3:5, 3:5] = True
    st = make_stencil(3, 2)
    problem = DirichletProblem(shape, np.zeros(3), 0.1, ("branch", 2), vals, hole, [(6, 6, 6)])
    u = vals.reshape(-1).copy()
    u[np.ravel_multi_index((6, 6, 6), shape)] = 0.0
    scheme = _Scheme(problem, st)
    inner = scheme.pair_view(scheme.evaluate(u)[1])
    cols = np.arange(scheme.unknown_flat.size)
    admissible = np.zeros_like(scheme.valid)
    admissible[inner.pair_dirs.T, cols] = True
    step = st.directions @ [shape[1] * shape[2], shape[2], 1]
    arms = [np.where(scheme.valid, scheme.unknown_flat + sign * step[:, None], 0) for sign in (1, -1)]
    keep = inner.pair_dirs[cols, rng.integers(0, 2, cols.size)]
    for kept in (None, keep):
        ref = _evaluate(u, scheme.unknown_flat, *arms, scheme.coeff[:, None],
                        _combos(("branch", 3), st), admissible, kept)
        for a, b in zip(inner.evaluate(u, keep=kept), ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize(
    "cfg,stencil",
    [
        pytest.param(annulus_config(17), make_stencil(2), id="annulus-17"),
        pytest.param(_pp_cube_config(9), make_stencil(3, 2), id="pp1.5-9^3"),
        pytest.param(_minmax_config(9), make_stencil(3, 2), id="minmax-9^3"),
    ],
)
def test_solve_with_one_point_blocks_is_the_default_solve(monkeypatch, cfg, stencil):
    prob = problem_from_config(cfg)
    default = solve(prob, stencil=stencil, tol=1e-10)
    monkeypatch.setattr(solver, "_BLOCK_VALUES", 1)
    blocked = solve(prob, stencil=stencil, tol=1e-10)
    assert np.array_equal(blocked.solution.values, default.solution.values)
    assert blocked.history == default.history


def test_evaluate_memory_is_bounded_by_the_block():
    # 3-D pp:1.5 at reach 3 has 1,092 combos over 3,375 unknowns at 17^3,
    # ~30 MB for each (C, N) array of the whole grid.  No bound on time.
    prob = problem_from_config(_pp_cube_config(17))
    scheme = _Scheme(prob, make_stencil(3, 3))
    u = prob.boundary_values.reshape(-1).copy()
    held = {
        id(a): a.nbytes
        for v in vars(scheme).values()
        for a in (v if isinstance(v, tuple) else (v,))
        if isinstance(a, np.ndarray)
    }
    assert sum(held.values()) <= 4e6
    tracemalloc.start()
    try:
        scheme.evaluate(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def _traced(f, *args):
    """f(*args) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_policy_step_memory_at_257():
    # the first policy step of acceptance C6 at 257^2: 63,936 unknowns,
    # 316,624 entries.  Traced peaks 8.4, 7.1 and 6.1 MB for assemble,
    # order and the factor's Python side (SuperLU's own allocations are
    # not traced), bounded here with ~20% to spare, against 25.9, 17.8
    # and 8.9 MB through COO lists, tocoo and fancy-index permutations.
    # scipy loads before tracing, or the first assemble traces its import.
    prob = problem_from_config(annulus_config(257))
    scheme = _Scheme(prob, make_stencil(2))
    selection = scheme.evaluate(prob.boundary_values.reshape(-1).copy())[1]
    assert callable(solver.spla.splu)
    (L, rhs), assemble_peak = _traced(scheme.assemble, selection)
    order, order_peak = _traced(scheme.order, L)
    factor_peak = _traced(solver._factor, L, order)[1]
    assert assemble_peak <= 10e6 and order_peak <= 8.5e6 and factor_peak <= 7.3e6


# 2-D operators of every reduction form: min (pp), min and max (branch)
_OPERATORS_2D = st.one_of(
    st.floats(1.0, 2.0).map(lambda p: ("pp", p)),
    st.sampled_from([("branch", 1), ("branch", 2)]),
)


def _seeded_bumps():
    """One seeded 11x11 field and 40 single-point bumps of it."""
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((11, 11))
    bumps = []
    for _ in range(40):
        i, j = rng.integers(0, 11, 2)
        if (i, j) != (5, 5):
            bumps.append(((int(i), int(j)), float(rng.random())))
    return vals, bumps


_SEEDED_VALUES, _SEEDED_BUMPS = _seeded_bumps()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    values=hnp.arrays(float, (11, 11), elements=st.floats(-10.0, 10.0)),
    op=_OPERATORS_2D,
    bumps=st.lists(
        st.tuples(st.tuples(st.integers(0, 10), st.integers(0, 10)), st.floats(0.0, 10.0)),
        min_size=1,
        max_size=8,
    ),
)
@example(values=_SEEDED_VALUES, op=("pp", 1.5), bumps=_SEEDED_BUMPS)
@example(values=_SEEDED_VALUES, op=("branch", 1), bumps=_SEEDED_BUMPS)
@example(values=_SEEDED_VALUES, op=("branch", 2), bumps=_SEEDED_BUMPS)
def test_scheme_monotonicity_in_neighbor_values(values, op, bumps):
    # raising any off-center value never lowers the residual; every
    # floating-point step of the scheme is monotone, so not even by a bit
    stencil = make_stencil(2, 2)
    r0 = residual(GridFunction(values, [0, 0], 0.3), (5, 5), op, stencil)
    for point, amount in bumps:
        if point == (5, 5):
            continue
        bumped = values.copy()
        bumped[point] += amount
        assert residual(GridFunction(bumped, [0, 0], 0.3), (5, 5), op, stencil) >= r0


# -- solving -----------------------------------------------------------------------


def test_solve_harmonic_extension_of_nonsmooth_boundary():
    # boundary |x| - |y| on the square; interior init is not the solution
    cfg = {
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [33, 33], "origin": [-1, -1], "h": 2 / 32},
        "boundary": {"expr": "abs(x) - abs(y)"},
    }
    prob = problem_from_config(cfg)
    rep = solve(prob, tol=1e-10)
    assert rep.converged and rep.iterations >= 1
    assert rep.residual_sup <= 1e-10
    # discrete maximum principle
    interior = rep.solution.values[1:-1, 1:-1]
    assert interior.max() <= prob.boundary_values.max() + 1e-12
    assert interior.min() >= prob.boundary_values.min() - 1e-12


def _jacobi(scheme, u, tol, max_iter):
    """Damped Jacobi iteration ``u <- u + tau R(u)`` from u, updated in
    place, with ``tau = h^2 / (2 w)`` for w the largest total frame weight:
    monotone for every form but slow, the reference for the policy solves.
    Returns whether it reached residual_sup <= tol within max_iter sweeps."""
    tau = scheme.problem.h**2 / (2.0 * scheme.weights.sum(axis=1).max())
    for _ in range(max_iter):
        r = scheme.evaluate(u)[0]
        if np.max(np.abs(r)) <= tol:
            return True
        u[scheme.unknown_flat] += tau * r
    return False


@pytest.mark.parametrize(
    "cfg,stencil",
    [
        pytest.param(annulus_config(17), make_stencil(2), id="annulus-17"),
        pytest.param(_minmax_config(9), make_stencil(3, 1), id="minmax-9"),
    ],
)
def test_policy_and_jacobi_agree(cfg, stencil):
    prob = problem_from_config(cfg)
    rp = solve(prob, stencil=stencil, tol=1e-11)
    assert rp.converged and rp.method == "policy"
    u = prob.boundary_values.reshape(-1).copy()
    assert _jacobi(_Scheme(prob, stencil), u, tol=1e-11, max_iter=500_000)
    assert np.max(np.abs(rp.solution.values.reshape(-1) - u)) <= 1e-9


def test_solve_is_deterministic():
    # 65^2 factors each of its five policy steps
    for nside in (33, 65):
        prob = problem_from_config(annulus_config(nside))
        r1 = solve(prob, tol=1e-10)
        r2 = solve(prob, tol=1e-10)
        assert np.array_equal(r1.solution.values, r2.solution.values)
        assert r1.history == r2.history


def _logged_spla(monkeypatch):
    """Put a copy of scipy.sparse.linalg that logs its ``splu`` calls in
    place of ``solver.spla``, and log the scheme's ``assemble`` and
    ``order`` and ``solver._factor`` calls too; returns one list per
    linear policy step (each refines its iterate once) of that step's
    calls."""
    real = solver.spla
    steps, calls = [], []

    def logged(name, call):
        def spy(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)
        return spy

    refine = solver._refine

    def refine_step(*args, **kwargs):
        steps.append(calls[:])
        calls.clear()
        return refine(*args, **kwargs)

    copy = types.ModuleType(real.__name__)
    copy.__dict__.update(real.__dict__, splu=logged("splu", real.splu))
    monkeypatch.setattr(solver, "spla", copy)
    monkeypatch.setattr(solver, "_refine", refine_step)
    monkeypatch.setattr(solver, "_factor", logged("factor", solver._factor))
    for name in ("assemble", "order"):
        monkeypatch.setattr(_Scheme, name, logged(name, getattr(_Scheme, name)))
    return steps


def _factorizations(steps):
    return [calls.count("splu") for calls in steps]


def test_every_changed_selection_is_factored(monkeypatch):
    # at 65^2 the selection changes on each of the five steps, down to
    # 18 of 3,888 rows on the last, and each step factors its own matrix
    log = _logged_spla(monkeypatch)
    rep = solve(problem_from_config(annulus_config(65)), tol=1e-10)
    assert rep.converged and rep.iterations == 5
    assert _factorizations(log) == [1] * 5


def test_a_new_selection_is_refined_to_tol(monkeypatch):
    # the linear trace form at 257^2: the factored solve meets the 64-eps
    # backward error at residual ~1e-9, and refining on toward tol ends
    # the solve in its one step, at ~6.9e-11
    log = _logged_spla(monkeypatch)
    rep = solve(problem_from_config(annulus_config(257, p=2.0)), tol=1e-10)
    assert rep.converged and rep.iterations == 1
    assert rep.residual_sup <= 1e-10
    assert _factorizations(log) == [1]


def _selection_digests(monkeypatch):
    """Log the digest of every selection that ``_Scheme.assemble`` is
    given, and of every selection that ``_Scheme.evaluate`` returns;
    returns the two lists."""
    assembled, evaluated = [], []
    assemble, evaluate = _Scheme.assemble, _Scheme.evaluate

    def logged_assemble(self, sel):
        assembled.append(hashlib.sha256(sel).digest())
        return assemble(self, sel)

    def logged_evaluate(self, *args, **kwargs):
        r, sel = evaluate(self, *args, **kwargs)
        evaluated.append(hashlib.sha256(sel).digest())
        return r, sel

    monkeypatch.setattr(_Scheme, "assemble", logged_assemble)
    monkeypatch.setattr(_Scheme, "evaluate", logged_evaluate)
    return assembled, evaluated


def test_a_repeated_selection_ends_the_loop_without_a_step(monkeypatch):
    # tol 1e-16 is below round-off: every step assembles, orders and
    # factors its own system, and the loop ends on the first selection
    # that repeats one already solved, with no step for it
    log = _logged_spla(monkeypatch)
    assembled, evaluated = _selection_digests(monkeypatch)
    rep = solve(problem_from_config(annulus_config(65)), tol=1e-16)
    assert not rep.converged and len(rep.history) - 1 == rep.iterations > 1
    assert log == [["assemble", "order", "factor", "splu"]] * rep.iterations
    assert len(set(assembled)) == len(assembled) == rep.iterations
    assert evaluated[-1] in assembled


@st.composite
def policy_problems(draw):
    """2-D pp and branch problems on [-1, 1]^2 with seeded data of unit
    size and an optional centred hole."""
    n = draw(st.integers(9, 33))
    op = draw(st.sampled_from([("pp", 1.2), ("pp", 1.5), ("pp", 2), ("branch", 1), ("branch", 2)]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (n, n))
    hole = None
    if draw(st.booleans()):
        hole = np.zeros((n, n), dtype=bool)
        a = draw(st.integers(1, n // 4))
        hole[n // 2 - a:n // 2 + a + 1, n // 2 - a:n // 2 + a + 1] = True
    return DirichletProblem((n, n), np.array([-1.0, -1.0]), 2.0 / (n - 1), op, g, hole)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    problem=policy_problems(),
    reach=st.integers(1, 3),
    tol=st.sampled_from([0.0, 1e-12, 1e-10, 1e-6]),
)
@example(problem=problem_from_config(annulus_config(257, p=2.0)), reach=3, tol=1e-10)
def test_every_linear_step_factors_a_new_selection(problem, reach, tol):
    # one rule ends the loop: a step is taken only for a selection not
    # solved before in this solve, so each step factors once, and a
    # solve that stops short of tol and the step cap stops at a repeat
    with pytest.MonkeyPatch.context() as mp:
        log = _logged_spla(mp)
        assembled, evaluated = _selection_digests(mp)
        rep = solve(problem, stencil=make_stencil(2, reach), tol=tol)
    assert len(set(assembled)) == len(assembled)
    assert rep.iterations == sum(_factorizations(log)) == len(assembled)
    if not rep.converged and rep.iterations < solver.POLICY_STEP_CAP:
        assert evaluated[-1] in assembled


def test_a_policy_cycle_at_round_off_is_refined_to_tol(monkeypatch):
    # pp:1.2 at 257^2: refined to the 64-eps backward error alone, one row
    # flips its frame back and forth from step 11 with the residual
    # alternating 7.3e-10 / 5.9e-10 above tol.  Each step refined toward
    # tol instead converges in 10 steps, each factoring a new selection
    log = _logged_spla(monkeypatch)
    rep = solve(problem_from_config(annulus_config(257, p=1.2)), tol=1e-10, max_iter=16)
    assert rep.converged and rep.residual_sup <= 1e-10
    assert rep.iterations <= 10
    assert _factorizations(log) == [1] * rep.iterations


def test_tol_below_round_off_ends_early_and_refines_from_the_current_iterate(monkeypatch):
    # below round-off the policy ends on a repeated selection; each step
    # after the first refines from the iterate the step before left
    starts, ends = [], []
    refine = solver._refine

    def logged(L, rhs, x, correct, target):
        starts.append(x.copy())
        ends.append(refine(L, rhs, x, correct, target))
        return ends[-1]

    monkeypatch.setattr(solver, "_refine", logged)
    rep = solve(problem_from_config(annulus_config(65)), tol=1e-16)
    assert not rep.converged and len(starts) == rep.iterations < 20
    assert all(np.array_equal(x, y) for x, y in zip(starts[1:], ends))


def test_evaluate_keeps_a_tied_frame_and_reports_the_best_value():
    # two points, two single-direction combos; combo 1 trails combo 0 by
    # 2e-13 at the first point (a tie) and by 2e-9 at the second
    u = np.array([0.0, 0.5, 0.5 + 1e-13, 0.5 + 1e-9])
    nbrs = np.array([[1, 1], [2, 3]])
    args = (u, np.array([0, 0]), nbrs, nbrs, np.ones((2, 1)),
            ("min", np.array([[0], [1]]), np.ones((2, 1))))
    r, sel = _evaluate(*args)
    assert sel.tolist() == [0, 0]
    r_kept, sel_kept = _evaluate(*args, keep=np.array([1, 1]))
    assert sel_kept.tolist() == [1, 0]
    assert np.array_equal(r_kept, r)


@pytest.mark.parametrize("nside,p", [(65, 1.8), (97, 1.2)])
def test_tol_below_round_off_settles_on_tied_frames(nside, p):
    # at tol 1e-12 these annuli reach round-off above tol, where the policy
    # must settle on near-tied frames rather than flip between them
    rep = solve(problem_from_config(annulus_config(nside, p=p)), tol=1e-12)
    assert rep.iterations <= 12
    assert rep.converged == (rep.residual_sup <= 1e-12)
    # a run that stops on a repeated selection counts only its solves
    assert rep.history[-1] == (rep.iterations, rep.residual_sup)


@st.composite
def ordered_boundary_data(draw, ndim=2, sizes=(9, 17)):
    """(g, shift, hole): data g on an n^ndim grid, a shift >= 0 and an
    optional hole box."""
    n = draw(st.integers(*sizes))
    shape = (n,) * ndim
    g = draw(hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    shift = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1.0)))
    hole = None
    if draw(st.booleans()):
        lo = draw(st.tuples(*[st.integers(2, n - 3)] * ndim))
        size = draw(st.tuples(*[st.integers(1, 3)] * ndim))
        hole = np.zeros(shape, dtype=bool)
        hole[tuple(slice(a, a + b) for a, b in zip(lo, size))] = True
    return g, shift, hole


def _annulus_shifted_data():
    prob = problem_from_config(annulus_config(33))
    return prob.boundary_values, np.full(prob.shape, 0.3), prob.hole


def _assert_ordered_solutions(op, data, stencil=None):
    g, shift, hole = data

    def solved(values):
        origin = (-1.0,) * g.ndim
        prob = DirichletProblem(g.shape, origin, 2.0 / (g.shape[0] - 1), op, values, hole)
        rep = solve(prob, stencil=stencil, tol=1e-10)
        assert rep.converged
        return rep.solution.values, prob.unknown_mask()

    u1, unk = solved(g)
    u2, _ = solved(g + shift)
    assert np.all(u2[unk] >= u1[unk] - 1e-9)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(op=_OPERATORS_2D, data=ordered_boundary_data())
@example(op=("pp", 1.5), data=_annulus_shifted_data())
def test_comparison_principle_for_ordered_data(op, data):
    _assert_ordered_solutions(op, data)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=ordered_boundary_data(ndim=3, sizes=(7, 9)), reach=st.integers(1, 2))
def test_comparison_principle_for_the_minmax_form(data, reach):
    # ("branch", 2) in 3-D: solved by nested policy iteration
    _assert_ordered_solutions(("branch", 2), data, make_stencil(3, reach))


def test_solve_records_history_and_report_fields():
    prob = problem_from_config(annulus_config(17))
    rep = solve(prob, tol=1e-10)
    assert rep.history[0][0] == 0
    assert rep.history[-1][1] <= 1e-10
    d = rep.to_dict()
    assert set(d) == {"residual_sup", "iterations", "converged", "method"}


def _hull_envelope(prob, upper):
    """Convex envelope (or, ``upper``, concave envelope) of the Dirichlet
    data at the unknowns: the lower (upper) facets of the convex hull of
    the boundary nodes' graph points, a max (min) of affine functions."""
    from scipy.spatial import ConvexHull

    coords = np.stack([c.reshape(-1) for c in grid_coordinates(prob.shape, prob.origin, prob.h)],
                      axis=1)
    g = prob.boundary_values.reshape(-1)
    unk = prob.unknown_mask().reshape(-1)
    eq = ConvexHull(np.column_stack([coords[~unk], g[~unk]])).equations
    eq = eq[eq[:, -2] > 1e-12] if upper else eq[eq[:, -2] < -1e-12]
    planes = -(coords[unk] @ eq[:, :-2].T + eq[:, -1]) / eq[:, -2]
    return planes.min(axis=1) if upper else planes.max(axis=1)


@pytest.mark.parametrize("ndim,nside,k", [
    (2, 17, 1), (2, 33, 1), (2, 65, 1), (3, 9, 1), (3, 17, 1), (2, 33, 2), (3, 9, 3),
])
def test_extreme_branches_are_the_convex_and_concave_envelopes(ndim, nside, k):
    # on a full box, branch:1 solves to the convex envelope of the data
    # and branch:n to the concave one, to round-off (<= 4.3e-14 here);
    # without the (1, +-1) diagonals the 2-D cases miss by 4e-3 to 3e-2,
    # and without the face and body diagonals 17^3 misses by 5.7e-3
    xs = "x*x+y*y+z*z" if ndim == 3 else "x*x+y*y"
    prob = problem_from_config({
        "operator": "branch",
        "k": k,
        "grid": {"shape": [nside] * ndim, "origin": [-1] * ndim, "h": 2 / (nside - 1)},
        "boundary": {"expr": f"({xs})**0.25"},
    })
    rep = solve(prob, tol=1e-10)
    assert rep.converged
    got = rep.solution.values[prob.unknown_mask()]
    assert np.max(np.abs(got - _hull_envelope(prob, upper=k == ndim))) <= 1e-12


def test_branch_one_on_generic_data_stops_at_the_reach_floor():
    # on exp(0.7x + 0.3y)(1 + 0.2xy) the error against the convex envelope
    # does not fall with h at a fixed reach (the same to 3 digits at 65^2
    # and 129^2), only with the reach, about as 1/reach^2: measured 0.0581,
    # 0.0204, 0.00796, 0.00420 and 0.00257 at reach 1-5.  Without the
    # diagonal directions it is 0.253, 0.046, 0.018, 0.0090 and 0.0054
    prob = problem_from_config({
        "operator": "branch",
        "k": 1,
        "grid": {"shape": [65, 65], "origin": [-1, -1], "h": 2 / 64},
        "boundary": {"expr": "exp(0.7*x+0.3*y)*(1+0.2*x*y)"},
    })
    envelope = _hull_envelope(prob, upper=False)
    errors = []
    for reach, bound in zip(range(1, 6), (0.059, 0.021, 0.0081, 0.0043, 0.0026)):
        rep = solve(prob, stencil=make_stencil(2, reach), tol=1e-10)
        assert rep.converged
        errors.append(np.max(np.abs(rep.solution.values[prob.unknown_mask()] - envelope)))
        assert errors[-1] <= bound, reach
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_branch_two_resolves_max_of_affines():
    # largest-eigenvalue operator with a roof of two affines as data: the
    # roof itself has residual zero wherever the stencil clears the crease
    cfg = {
        "operator": "branch",
        "k": 2,
        "grid": {"shape": [33, 33], "origin": [-1, -1], "h": 2 / 32},
        "boundary": {"expr": "maximum(x + 0.5*y, -x - 0.5*y)"},
    }
    prob = problem_from_config(cfg)
    roof = prob.boundary_values
    u = GridFunction(roof, prob.origin, prob.h)
    st = make_stencil(2, 3)
    X, Y = grid_coordinates(prob.shape, prob.origin, prob.h)
    # stencil arms reach (3 + 0.5 * 3) h from the crease x + 0.5 y = 0
    near_crease = np.abs(X + 0.5 * Y) <= 4.5 * prob.h + 1e-12
    for i in range(3, 30):
        for j in range(3, 30):
            if not near_crease[i, j]:
                assert residual(u, (i, j), ("branch", 2), st) == pytest.approx(0.0, abs=1e-9)
    # across the crease the roof is a strict subsolution (the crease is a
    # 1-dimensional set, too large to be removable for the largest
    # branch), so the monotone solve dominates it and exceeds it there
    rep = solve(prob, tol=1e-9)
    assert rep.converged
    unk = prob.unknown_mask()
    assert np.min(rep.solution.values[unk] - roof[unk]) >= -1e-9
    assert np.max(rep.solution.values[near_crease & unk] - roof[near_crease & unk]) > prob.h


def test_3d_minmax_branch_by_nested_policy_iteration():
    prob = problem_from_config(_minmax_config(17))
    st = make_stencil(3, 1)
    rep = solve(prob, stencil=st, tol=1e-8)
    assert rep.method == "policy"
    assert rep.converged
    # iterations counts the linear solves of all inner policy loops
    assert rep.history[0][0] == 0 and rep.history[-1] == (rep.iterations, rep.residual_sup)
    worst = max(
        abs(residual(rep.solution, idx, ("branch", 2), st))
        for idx in itertools.product(range(1, 16), repeat=3)
    )
    assert worst <= 1e-8


def test_3d_minmax_outer_loop_stops_when_the_pairs_repeat():
    # at tol 0 the residual cannot reach tol; the outer loop ends because
    # its fourth step would hold the same pairs as its third, well before
    # the step cap
    prob = problem_from_config(_minmax_config(7))
    reports = [solve(prob, stencil=make_stencil(3, 2), tol=0.0) for _ in range(2)]
    rep = reports[0]
    assert [n for n, _ in rep.history] == [0, 4, 6, 7]
    assert [r for _, r in rep.history[:3]] == pytest.approx([1.0, 1.3, 0.363636], rel=1e-5)
    assert rep.iterations == 7 and len(rep.history) - 1 < solver.POLICY_STEP_CAP
    assert rep.residual_sup <= 1e-14 and not rep.converged
    assert reports[1].history == rep.history
    assert np.array_equal(reports[1].solution.values, rep.solution.values)


def test_3d_minmax_step_cap_holds_at_each_level():
    # max_iter 2 allows two outer steps, each of at most two inner solves
    prob = problem_from_config(_minmax_config(7))
    rep = solve(prob, stencil=make_stencil(3, 2), tol=0.0, max_iter=2)
    assert [n for n, _ in rep.history] == [0, 2, 4]
    assert [r for _, r in rep.history] == pytest.approx([1.0, 1.30136, 0.5], rel=1e-5)
    assert rep.iterations == 4 and not rep.converged


@pytest.mark.parametrize("config,forms", [
    pytest.param(annulus_config(17), ["min"], id="pp-2d"),
    pytest.param(_minmax_config(7), ["minmax", "max", "max", "max"], id="minmax-3d"),
])
def test_one_policy_loop_nested_for_minmax(monkeypatch, config, forms):
    # solve calls the loop once; the min-max form's outer steps call the
    # same loop on their pair views
    calls = []
    loop = solver._policy_iteration

    def spy(scheme, *args):
        calls.append(scheme.form)
        return loop(scheme, *args)

    monkeypatch.setattr(solver, "_policy_iteration", spy)
    solve(problem_from_config(config), stencil=make_stencil(len(config["grid"]["shape"]), 2),
          tol=0.0)
    assert calls == forms


@pytest.mark.xfail(reason="the min-max form discretizes (lambda_1 + lambda_2) / 2, not lambda_2")
@pytest.mark.parametrize(
    "eigs", [pytest.param((3.0, 1.0, -5.0), id="3,1,-5"), pytest.param((2.0, -2.0, 0.0), id="2,-2,0")]
)
def test_minmax_residual_is_the_second_eigenvalue(eigs):
    # for orthonormal v, w, max(v'Av, w'Aw) >= (lambda_1 + lambda_2) / 2,
    # with equality at the 45-degree pair of the lambda_1 lambda_2 plane
    u = quadratic_grid(np.diag(eigs), shape=(9, 9, 9), origin=(-1, -1, -1), h=0.25)
    lam2 = np.sort(eigs)[1]
    for reach in (1, 2, 3):
        assert residual(u, (4, 4, 4), ("branch", 2), make_stencil(3, reach)) == pytest.approx(
            lam2, abs=1e-9
        )


def test_puncture_without_admissible_frame_errors():
    cfg = {
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [9, 9], "origin": [-1, -1], "h": 0.25},
        "boundary": {"expr": "x*x - y*y"},
    }
    prob = problem_from_config(cfg).with_punctures([(5, 4), (4, 5), (5, 5), (5, 3)])
    with pytest.raises(DiscretizationError, match=r"at \(4, 3\);"):
        solve(prob, stencil=make_stencil(2, 1))
    # the lexicographically first uncovered point is reported, whatever
    # order the unknowns are numbered in (here (4, 2) is numbered first)
    cfg["grid"] = {"shape": [17, 17], "origin": [-1, -1], "h": 0.125}
    prob = problem_from_config(cfg).with_punctures([(2, 8), (2, 9), (5, 2), (5, 3)])
    with pytest.raises(DiscretizationError, match=r"at \(1, 8\);"):
        solve(prob, stencil=make_stencil(2, 1))


def test_punctured_cell_carries_no_value():
    prob = problem_from_config(annulus_config(33)).with_punctures([(24, 24)])
    rep = solve(prob, tol=1e-10)
    assert rep.solution.mask[24, 24]
    assert np.isneginf(rep.solution.values[24, 24])


# -- removability experiment -----------------------------------------------------------


def test_removability_rejects_small_exponents():
    prob = problem_from_config(annulus_config(17, p=1.5))
    with pytest.raises(UnsupportedPolarError):
        removability_experiment(prob, [[0.5, 0.5]])


def test_removability_rejects_uncertified_branch():
    cfg = {
        "operator": "branch",
        "k": 2,
        "grid": {"shape": [17, 17], "origin": [-1, -1], "h": 0.125},
        "boundary": {"expr": "x*x - y*y"},
    }
    prob = problem_from_config(cfg)
    with pytest.raises(DomainError, match=r"^branch:2 \+ pp:2 is not in branch:2; "):
        removability_experiment(prob, [[0.25, 0.25]], polar_p=2.0)


@pytest.mark.parametrize("p,polar_p", [(2, 2.5), (2, 3), (2.5, 3)])
def test_removability_rejects_uncertified_partial_sum(p, polar_p):
    # pp:p + pp:q lies in pp:p only for q <= p, so a larger polar exponent
    # fails the rule before any solve
    prob = problem_from_config({
        "operator": "pp",
        "p": p,
        "grid": {"shape": [9, 9, 9], "origin": [-1, -1, -1], "h": 0.25},
        "boundary": {"expr": "x*x + y*y - z*z"},
    })
    with pytest.raises(DomainError, match=rf"^pp:{p:g} \+ pp:{polar_p:g} is not in pp:{p:g}; "):
        removability_experiment(prob, [[0.0, 0.0, 0.0]], polar_p=polar_p)


def test_removability_rejects_branch_3_for_a_pp_2_polar():
    # branch:3 + pp:2 leaves branch:3 (diag(0, -10, -10) + diag(-1, 1, 1))
    prob = problem_from_config({
        "operator": "branch",
        "k": 3,
        "grid": {"shape": [9, 9, 9], "origin": [-1, -1, -1], "h": 0.25},
        "boundary": {"expr": "x*x + y*y - z*z"},
    })
    with pytest.raises(DomainError, match=r"^branch:3 \+ pp:2 is not in branch:3; a removability "
                                          r"experiment needs F \+ pp:q in F, which holds for "
                                          r"F = pp:p with q <= p only$"):
        removability_experiment(prob, [[0.0, 0.0, 0.0]], polar_p=2.0)


class _Solved(Exception):
    """Raised in place of a solve: the experiment got past its checks."""


def _rule_admits(monkeypatch, op, q, n):
    """Whether removability_experiment lets operator ``op`` run with polar
    exponent q in dimension n: its solve is replaced by a raise."""
    def solved(*args, **kwargs):
        raise _Solved

    monkeypatch.setattr(solver, "solve", solved)
    kind, val = op
    prob = problem_from_config({"operator": kind, ("p" if kind == "pp" else "k"): val,
                                "grid": {"shape": [5] * n, "origin": [-1] * n, "h": 0.5},
                                "boundary": {"expr": "x*x"}})
    try:
        removability_experiment(prob, [[0.0] * n], polar_p=q)
    except _Solved:
        return True
    except DomainError as exc:
        assert "needs F + pp:q in F" in str(exc)
        return False
    raise AssertionError("the experiment neither solved nor refused")


def test_removability_rule_agrees_with_sampled_certification(monkeypatch):
    # the reference: check_relation of F + pp:q in F on 10^4 samples, for
    # every operator the solver accepts with a q the polar admits
    ops2 = [("pp", 1 + 0.25 * i) for i in range(5)] + [("branch", 1), ("branch", 2)]
    ops3 = [("pp", 1 + 0.25 * i) for i in range(9)] + [("branch", k) for k in (1, 2, 3)]
    cases = [(op, 2.0, 2) for op in ops2]
    cases += [(op, q, 3) for op in ops3 for q in (2.0, 2.01, 2.25, 2.5, 2.75, 3.0)]
    disagree = []
    for op, q, n in cases:
        ref = cones.check_relation(solver.operator_cone(op, n), cones.pp_cone(q, n),
                                   cones.SampleConfig(seed=0, count=10**4)).passed
        if _rule_admits(monkeypatch, op, q, n) != ref:
            disagree.append((op, q, n, ref))
    assert len(cases) == 79 and disagree == []


def test_removability_draws_nothing(monkeypatch):
    # acceptance C7's quadratic case with the sampler and numpy's generator
    # unavailable: the experiment decides F + pp:q in F in closed form
    def drawn(*args, **kwargs):
        raise AssertionError("the removability experiment drew a sample")

    monkeypatch.setattr(cones, "check_relation", drawn)
    monkeypatch.setattr(np.random, "default_rng", drawn)
    prob = problem_from_config({
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [65, 65], "origin": [-1, -1], "h": 2 / 64},
        "boundary": {"expr": "x*x - y*y"},
    })
    rep = removability_experiment(prob, [[0.0, 0.0]], tol=1e-10)
    assert rep.passed and rep.sup_gap <= 1e-6


def test_removability_quadratic_case():
    cfg = {
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [33, 33], "origin": [-1, -1], "h": 2 / 32},
        "boundary": {"expr": "x*x - y*y"},
    }
    prob = problem_from_config(cfg)
    rep = removability_experiment(prob, [[0.0, 0.0]], tol=1e-10)
    assert rep.passed
    assert rep.sup_gap <= 1e-8
    assert rep.masked_gap <= 2 * prob.h**2
    assert all(v == 0 for v in rep.perturbation_checks.values())


def test_removability_checks_fixed_perturbations_against_a_fixed_gap_rule():
    # eps 1e-2 and 1e-3 and the gap constant 5 belong to the experiment:
    # the report carries both checks and the threshold 5 (h + tol)
    prob = problem_from_config({
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [9, 9], "origin": [-1, -1], "h": 0.25},
        "boundary": {"expr": "x*x - y*y"},
    })
    rep = removability_experiment(prob, [[0.0, 0.0]], tol=1e-10)
    assert rep.to_dict()["perturbation_checks"] == {"0.01": 0, "0.001": 0}
    assert rep.gap_threshold == 5 * (0.25 + 1e-10)
    assert rep.passed


def _polar(prob, q):
    """The polar of exponent q on prob's punctures, as the experiment builds it."""
    return riesz.build_polar([prob.origin + prob.h * np.asarray(pt) for pt in prob.punctures], q)


def _minus_three_r2(u, prob):
    """u - 3|x|^2, whose Laplacian is 12 below u's, masked on prob's punctures."""
    r2 = sum(c * c for c in grid_coordinates(prob.shape, prob.origin, prob.h))
    return GridFunction(u.values - 3 * r2, prob.origin, prob.h, prob.puncture_mask())


@pytest.mark.parametrize("n", [65, 129])
def test_perturbation_check_rejects_a_superharmonic_control(n):
    # acceptance C7's quadratic case on analytic data: x^2 - y^2 is
    # harmonic, and x^2 - y^2 - 3|x|^2 has Laplacian -12.  One c_tol for
    # every cell, read from the polar's eps / h^3 third differences next
    # to the puncture (23.8 at 129^2 for eps 1e-2), would pass the control
    prob = problem_from_config({
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [n, n], "origin": [-1, -1], "h": 2 / (n - 1)},
        "boundary": {"expr": "x*x - y*y"},
        "puncture": [[0.0, 0.0]],
    })
    checked = prob.unknown_mask().sum() - 8  # the 8 cells whose stencil reads E
    assert checked == {65: 3960, 129: 16120}[n]
    u = from_function(prob.shape, prob.origin, prob.h, lambda x, y: x * x - y * y,
                      prob.puncture_mask())
    for v, least, most in ((u, 0, 0), (_minus_three_r2(u, prob), 0.99 * checked, checked)):
        reps = solver._perturbation_checks(v, prob, _polar(prob, 2.0))
        assert set(reps) == {1e-2, 1e-3}
        for rep in reps.values():
            assert rep.points_checked == checked
            assert least <= len(rep.violations) <= most


@pytest.mark.parametrize("n", [65, 129])
def test_perturbation_check_rejects_a_superharmonic_control_on_the_kernel_annulus(n):
    # acceptance C7's kernel annulus: 0.5 log|x| is harmonic off the hole,
    # and 0.5 log|x| - 3|x|^2 has Laplacian -12.  One c_tol for every
    # cell, read from the log data's third differences next to the hole
    # (1159 at 65^2), would pass the control
    h = 2 / (n - 1)
    prob = problem_from_config({
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [n, n], "origin": [-1 + h / 2, -1 + h / 2], "h": h},
        "boundary": {"expr": "0.5*log(x*x+y*y)"},
        "hole": {"min": [-0.125, -0.125], "max": [0.125, 0.125]},
        "puncture": [[-1 + h / 2 + 0.75 * (n - 1) * h] * 2],
    })
    checked = prob.unknown_mask().sum() - 8  # the 8 cells whose stencil reads E
    u = from_function(prob.shape, prob.origin, prob.h, lambda x, y: 0.5 * np.log(x * x + y * y),
                      prob.puncture_mask())
    for v, least, most in ((u, 0, 0), (_minus_three_r2(u, prob), 0.9 * checked, checked)):
        reps = solver._perturbation_checks(v, prob, _polar(prob, 2.0))
        for rep in reps.values():
            assert rep.points_checked == checked
            assert least <= len(rep.violations) <= most


def test_removability_3d_point():
    cfg = {
        "operator": "pp",
        "p": 2.5,
        "grid": {"shape": [17, 17, 17], "origin": [1.0, -1, -1], "h": 0.125},
        "boundary": {"expr": "-((x*x+y*y+z*z)**(-0.25))"},
    }
    prob = problem_from_config(cfg)
    rep = removability_experiment(prob, [[2.0, 0.0, 0.0]], stencil=make_stencil(3, 2), tol=1e-9)
    assert rep.sup_gap <= 5 * prob.h
    assert rep.passed
    # the control u - 3|x|^2 leaves pp:2.5 at every checked cell: the 15^3
    # unknowns but E and the 18 cells whose stencil reads it
    punct = prob.with_punctures([(8, 8, 8)])
    control = _minus_three_r2(rep.punctured.solution, punct)
    reps = solver._perturbation_checks(control, punct, _polar(punct, 2.5))
    for check in reps.values():
        assert len(check.violations) == check.points_checked == 15**3 - 19


# -- configs ------------------------------------------------------------------------------


def test_problem_from_boundary_grid_file(tmp_path):
    u = from_function((17, 17), [-1, -1], 0.125, lambda x, y: x * x - y * y)
    path = tmp_path / "g.grid"
    grids.write_grid(path, u)
    cfg = {
        "operator": "pp",
        "p": 2,
        "grid": {"shape": [17, 17], "origin": [-1, -1], "h": 0.125},
        "boundary": {"grid_file": str(path)},
    }
    prob = problem_from_config(cfg)
    assert np.array_equal(prob.boundary_values, u.values)
    rep = solve(prob, tol=1e-10)
    assert np.max(np.abs(rep.solution.values - u.values)) <= 1e-9


def test_problem_from_config_errors():
    with pytest.raises(DomainError):
        problem_from_config({"operator": "pp", "p": 2})
    cfg = annulus_config(17)
    cfg["boundary"] = {"expr": "open('x')"}
    with pytest.raises(DomainError):
        problem_from_config(cfg)


@pytest.mark.parametrize(
    "expr",
    [
        "().__class__.__mro__[1].__subclasses__()",
        "x.__class__",
        "x.real",
        "x[0]",
        "(lambda: x)()",
        "[c for c in (1, 2)]",
        "sum(c for c in (1, 2))",
        "__import__('os').system('true')",
        "__builtins__",
        "sqrt(x, out=x)",
        "sqrt(*x)",
        "sqrt",
        "'x'",
        "x if y else 1",
        "0 < x < 1",
        "where(x > 0)",
        "minimum(x, y, z)",
        "exp(x, y)",
        "1/0",
        "(" * 300 + "x" + ")" * 300,
        "-" * 100_000 + "1",
    ],
)
def test_boundary_expression_cannot_run_code(expr):
    # 3-D with a hole box, so that a call writing into z would move the hole
    cfg = dict(_minmax_config(7), boundary={"expr": expr}, hole={"min": [-0.4] * 3, "max": [0.4] * 3})
    with pytest.raises(DomainError, match="boundary expression"):
        problem_from_config(cfg)


def test_boundary_expression_whitelist():
    coords = grid_coordinates((5, 5), np.array([-1.0, -1.0]), 0.5)
    x, y = coords
    got = evaluate_expression(
        "where(x >= 0, hypot(x, y), -abs(y)) + -x**2 % 3 // 1 + pi*e - r/2", coords
    )
    want = np.where(x >= 0, np.hypot(x, y), -np.abs(y)) + -x**2 % 3 // 1 + np.pi * np.e
    assert np.array_equal(got, want - np.sqrt(x * x + y * y) / 2)


def test_sparse_modules_resolve_as_solver_attributes(monkeypatch):
    # imported on first access, then plain module globals
    assert callable(solver.spla.splu)
    assert callable(solver.sp.csr_matrix)
    with pytest.raises(AttributeError):
        solver.no_such_name
    # a module set before the first load is kept
    monkeypatch.delattr(solver, "sp")
    monkeypatch.delattr(solver, "spla")
    stand_in = object()
    monkeypatch.setattr(solver, "spla", stand_in, raising=False)
    assert callable(solver.sp.csr_matrix)
    assert solver.spla is stand_in


def test_problem_validation():
    with pytest.raises(DomainError):
        DirichletProblem((4, 4), np.zeros(2), 0.1, ("pp", 2), np.zeros((4, 4)))
    g = np.zeros((9, 9))
    with pytest.raises(DomainError, match="branch index must be an integer"):
        DirichletProblem((9, 9), np.zeros(2), 0.1, ("branch", 1.7), g)
    with pytest.raises(DomainError):
        DirichletProblem((9, 9), np.zeros(2), 0.1, ("pp", 2), g, punctures=((0, 3),))
    with pytest.raises(DomainError):
        DirichletProblem((9, 9), np.zeros(2), 0.1, ("pp", 2.5), g)


@pytest.mark.parametrize("h,origin,expr", [
    pytest.param(1e-160, [-1e-159, -1e-159], "x*x", id="coefficients-overflow"),
    pytest.param(1e200, [0.0, 0.0], "sin(x/1e150)", id="coefficients-underflow"),
])
def test_spacing_whose_coefficients_leave_the_float_range_is_a_domain_error(h, origin, expr):
    # at h = 1e-160 a solve gave residual_sup NaN with four RuntimeWarnings;
    # at h = 1e200 every coefficient was 0 and the data "converged" in 0 steps
    cfg = {"operator": "pp", "p": 1.5, "grid": {"shape": [9, 9], "origin": origin, "h": h},
           "boundary": {"expr": expr}}
    with pytest.raises(DomainError, match="grid spacing .* out of range"):
        problem_from_config(cfg)
    with pytest.raises(DomainError, match="out of range"):
        DirichletProblem((9, 9), origin, h, ("pp", 1.5), np.zeros((9, 9)))
    u = GridFunction(np.zeros((9, 9)), np.array(origin), h)
    with pytest.raises(DomainError, match="out of range"):
        residual(u, (4, 4), ("pp", 1.5))


def test_spacing_checked_against_the_longest_stencil_direction():
    # at h = 5e153 the reach-1 coefficients are in range, but the reach-3
    # direction (2, 3) has (h |v|)^2 = 3.25e308, which overflows
    prob = DirichletProblem((9, 9), [0.0, 0.0], 5e153, ("pp", 1.5), np.zeros((9, 9)))
    assert solve(prob, stencil=make_stencil(2, 1)).converged
    with pytest.raises(DomainError, match="out of range"):
        solve(prob)


@pytest.mark.parametrize("op, nd", [(("pp", 1.5), 2), (("pp", 2), 2), (("branch", 1), 2),
                                    (("branch", 2), 3)], ids=["min", "trace", "max", "minmax"])
def test_data_too_large_for_their_second_differences_is_a_domain_error(op, nd):
    # a 9^2 pp:1.5 solve of 1e308*sin(9*x) gave residual_sup NaN with five
    # RuntimeWarnings, and from about 3e306 the linear solves overflowed;
    # each run ends in a finite report or a DomainError (warnings fail here)
    stencil = make_stencil(nd, 1)
    outcomes = set()
    for scale in (1e305, 3e305, 1e306, 3e306, 1e307, 3e307, 1e308, 1.7976931348623157e308):
        cfg = {"operator": op[0], ("p" if op[0] == "pp" else "k"): op[1],
               "grid": {"shape": [9] * nd, "origin": [-1] * nd, "h": 0.25},
               "boundary": {"expr": f"{scale!r}*sin(9*x)*cos(2*y)"}}
        prob = problem_from_config(cfg)
        u = GridFunction(prob.boundary_values, prob.origin, prob.h)
        try:
            rep = solve(prob, stencil)
            assert np.isfinite(rep.residual_sup) and np.all(np.isfinite(rep.solution.values))
            outcomes.add("solved")
        except DomainError as exc:
            assert "overflow" in str(exc)
            outcomes.add("rejected")
        try:
            assert np.isfinite(residual(u, (4,) * nd, op, stencil))
        except DomainError as exc:
            assert "overflow" in str(exc)
    assert outcomes == {"solved", "rejected"}


@pytest.mark.parametrize(
    "kwargs",
    [dict(tol=float("nan")), dict(tol=float("inf")), dict(tol=-1.0), dict(max_iter=0),
     dict(max_iter=-3), dict(max_iter=2.5), dict(max_iter=True)],
    ids=["tol-nan", "tol-inf", "tol-negative", "max-iter-0", "max-iter-negative",
         "max-iter-float", "max-iter-bool"],
)
def test_solve_rejects_a_bad_tolerance_or_step_cap(kwargs):
    with pytest.raises(DomainError):
        solve(problem_from_config(annulus_config(17)), **kwargs)
