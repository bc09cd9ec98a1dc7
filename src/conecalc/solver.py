"""Wide-stencil monotone Dirichlet solver for partial-eigenvalue-sum and
eigenvalue-branch operators on 2-D and 3-D lattices, plus the
removable-singularity experiment built on it.

Operators
---------
``("pp", p)``      bottom partial eigenvalue sum of D^2 u equals zero;
                   p in [1, 2] in 2-D and [1, 3] in 3-D (the ranges with a
                   min-over-frames representation); p = ndim reduces to the
                   exact trace scheme.
``("branch", k)``  k-th smallest eigenvalue of D^2 u equals zero, for
                   k = 1 and k = ndim.  For k = 2 in 3-D the min-max
                   form below computes (lambda_1 + lambda_2) / 2 instead:
                   max(v'Av, w'Aw) >= (lambda_1 + lambda_2) / 2 for
                   orthonormal v, w, with equality at the 45-degree pair
                   of the lambda_1 lambda_2 eigenplane.

The discretization takes second differences along coprime lattice
directions, normalized by (h |v|)^2, and combines them over orthogonal
frames snapped to the stencil:

* pp, 1 <= p <= 2:   min over ordered orthogonal pairs of D_v + (p-1) D_w
* pp, 2 <  p <= 3:   min over ordered orthogonal triples of
                     D_v + D_w + (p-2) D_z   (3-D)
* pp, p = ndim:      first admissible frame, i.e. the classical
                     (2 ndim + 1)-point Laplacian away from punctures
* branch 1 / ndim:   min / max over directions
* branch 2 in 3-D:   min over orthogonal pairs of max(D_v, D_w), which
                     tends to (lambda_1 + lambda_2) / 2, not lambda_2

Each operator's combos are two rectangular (C, k) arrays, direction
indices and weights.  One kernel evaluates the scheme: a single gather of
the (D, N) second differences, the combo values built slot by slot, then
the residual and the selected combo.  The solvers, the pointwise
``residual`` (on the one column at its point) and ``assemble`` (over the
same arrays) all share it.

Increasing any neighbor value never decreases a residual, so the scheme
is monotone.  Punctured cells carry no boundary condition: they are
excluded from the unknown set and every stencil direction touching them
is dropped, with a minimum-frame guarantee checked up front.

Every form is solved by exact policy (Howard) iteration over the frozen
frame choices, which converges in a handful of sparse linear solves.  The
min-max form nests it (Hoffman and Karp 1966): the outer policy freezes
each point's pair, the min player's choice, and the inner problem, the
max over that pair's two directions, runs the same policy iteration.  A
frozen inner row has one second difference.  Outputs are bitwise
reproducible.

Unknowns are numbered once, by geometric nested dissection of the
lattice with separator strips as wide as the stencil reach, so every
frozen-frame matrix is assembled already in a low-fill order.  Being a
monotone scheme, that matrix is a nonsingular M-matrix, which factors
without pivoting.  The solve holds one LU factor together with the frame
selection it was built from.  A policy step whose selection differs from
the held one in at most 0.5% of the rows, taken while the residual still
falls, solves by GMRES preconditioned with that factor (late Howard
steps solve nearby frozen systems; Bokanowski, Maroso and Zidani 2009);
it keeps the result only if its componentwise backward error is at most
64 eps.  Every other step drops the held factor, factors the new matrix
and takes one step of iterative refinement with it.  The policy stops on
an unchanged selection only after a factored solve, and ``converged``
means residual <= tol at the returned iterate.  Each new selection keeps
the previous frame wherever that frame is within 1e-12 (1 + |r|) of the
best, so near-tied frames at round-off do not flip the policy forever;
the outer min-max policy keeps tied pairs the same way and stops once
its pairs no longer change.
"""

from __future__ import annotations

import ast
import copy
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from . import cones, grids, riesz
from .cones import ConeSpec, SampleConfig
from .errors import (
    DiscretizationError,
    DomainError,
    StencilError,
    UnsupportedPolarError,
)
from .grids import GridFunction


def __getattr__(name):
    # scipy.sparse and scipy.sparse.linalg cost ~0.5 s to import and only
    # solves use them.  They load on first access to ``sp`` or ``spla``
    # (PEP 562) and then stay module globals, which the solves read; an
    # attribute set before the first load is kept, so ``solver.spla`` may
    # be replaced like any module attribute.
    if name not in ("sp", "spla"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse
    import scipy.sparse.linalg

    g = globals()
    g.setdefault("sp", scipy.sparse)
    g.setdefault("spla", scipy.sparse.linalg)
    return g[name]


# -- stencils -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StencilSet:
    """Coprime lattice directions (one per line) with their orthogonal
    frame combinations."""

    directions: np.ndarray  # (D, ndim) int
    lengths: np.ndarray  # (D,)
    ortho_pairs: tuple  # index pairs (i, j), v_i dot v_j = 0
    ortho_triples: tuple  # index triples, mutually orthogonal (3-D)

    @property
    def ndim(self) -> int:
        return self.directions.shape[1]

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @property
    def reach(self) -> int:
        """Max-norm of the longest direction."""
        return int(np.max(np.abs(self.directions)))


def _coprime_directions(ndim: int, reach: int) -> np.ndarray:
    dirs = []
    for v in itertools.product(range(-reach, reach + 1), repeat=ndim):
        if not any(v):
            continue
        first = next(c for c in v if c != 0)
        if first < 0:
            continue  # one representative per line
        if reduce(math.gcd, (abs(c) for c in v)) != 1:
            continue
        dirs.append(v)
    dirs.sort(key=lambda v: (max(abs(c) for c in v), sum(c * c for c in v), v))
    return np.array(dirs, dtype=np.intp)


def make_stencil(ndim: int, reach: int = 3) -> StencilSet:
    """All coprime directions with max-norm <= reach plus their frames.

    The default reach 3 yields 16 line directions in 2-D.  Frames are
    ordered so the coordinate-axis frame comes first.
    """
    if ndim not in (2, 3):
        raise DomainError(f"stencils support 2-D and 3-D grids, got ndim={ndim}")
    if isinstance(reach, bool) or not isinstance(reach, (int, np.integer)) or reach < 1:
        raise DomainError(f"stencil reach must be an integer >= 1, got {reach!r}")
    return _make_stencil(ndim, int(reach))


@lru_cache(maxsize=None)
def _make_stencil(ndim: int, reach: int) -> StencilSet:
    dirs = _coprime_directions(ndim, reach)
    dots = dirs @ dirs.T
    D = dirs.shape[0]
    pairs = [(i, j) for i in range(D) for j in range(i + 1, D) if dots[i, j] == 0]
    pairs.sort(key=lambda ij: (max(np.abs(dirs[list(ij)]).max(axis=1)), ij))
    triples = []
    if ndim == 3:
        for i, j in pairs:
            for k in range(D):
                if k > j and dots[i, k] == 0 and dots[j, k] == 0:
                    triples.append((i, j, k))
        triples.sort(key=lambda t: (max(np.abs(dirs[list(t)]).max(axis=1)), t))
    lengths = np.linalg.norm(dirs.astype(float), axis=1)
    return StencilSet(dirs, lengths, tuple(pairs), tuple(triples))


# -- operators ----------------------------------------------------------------


def operator_cone(op, ndim: int) -> ConeSpec:
    """Cone whose subharmonics are the operator's subsolutions.

    ``op`` is ``("pp", p)`` or ``("branch", k)``; the catalogue cone checks
    the parameter for ``ndim``.
    """
    if not (isinstance(op, tuple) and len(op) == 2 and op[0] in ("pp", "branch")):
        raise DomainError(f"operator must be ('pp', p) or ('branch', k), got {op!r}")
    kind, val = op
    if kind == "pp":
        return cones.pp_cone(val, ndim)
    return cones.branch_cone(val, ndim)


def _normalize_op(op, ndim: int) -> tuple:
    """The operator with the parameter its catalogue cone validated."""
    cone = operator_cone(op, ndim)
    return (cone.kind, cone.p if cone.kind == "pp" else cone.k)


def _combos(op: tuple, stencil: StencilSet):
    """Frame combinations and the reduction form of an operator.

    Returns ``(form, dirs, weights)``: combo c takes the second differences
    along directions ``dirs[c]`` with weights ``weights[c]``, both (C, k)
    with the same k for every combo.  Forms: ``min``, ``max``, ``trace``
    (first admissible combo), ``minmax`` (min over pairs of the pair max).
    """
    kind, val = op
    nd = stencil.ndim
    pairs = np.array(stencil.ortho_pairs, dtype=np.intp).reshape(-1, 2)
    triples = np.array(stencil.ortho_triples, dtype=np.intp).reshape(-1, 3)
    if kind == "pp":
        if abs(val - nd) < 1e-12:
            dirs = pairs if nd == 2 else triples
            return "trace", dirs, np.ones(dirs.shape)
        if val <= 2.0:
            dirs = np.stack([pairs, pairs[:, ::-1]], axis=1).reshape(-1, 2)
            return "min", dirs, np.tile([1.0, val - 1.0], (dirs.shape[0], 1))
        # 2 < p < 3 in 3-D: each slot of a triple in turn is the third
        if not triples.size:
            raise DomainError("stencil has no orthogonal triples; increase reach")
        dirs = triples[:, [[1, 2, 0], [0, 2, 1], [0, 1, 2]]].reshape(-1, 3)
        return "min", dirs, np.tile([1.0, 1.0, val - 2.0], (dirs.shape[0], 1))
    # branch
    k = int(val)
    if k in (1, nd):
        dirs = np.arange(stencil.count, dtype=np.intp)[:, None]
        return ("min" if k == 1 else "max"), dirs, np.ones(dirs.shape)
    # k = 2 in 3-D
    return "minmax", pairs, np.ones(pairs.shape)


# relative margin within which a policy step keeps its previous frame
_TIE = 1e-12


def _evaluate(u, center, plus, minus, coeff, combos, admissible=None, keep=None):
    """Scheme residual and selected combo at the points ``center``.

    One gather gives the (D, N) second differences
    ``(u[plus] + u[minus] - 2 u[center]) * coeff``.  The (C, N) combo
    values are then built slot by slot, a weighted sum or for ``minmax``
    a running maximum, so no (C, k, N) array is formed.  Combos that are
    not ``admissible`` (all are when None) are never selected; the trace
    form selects the first admissible one.  A ``keep`` selection (of
    admissible combos) is kept wherever its value ties the best one to
    within ``_TIE * (1 + |r|)``.  Returns ``(residual, selection)``, both
    (N,); the residual is always the best value.
    """
    form, dirs, weights = combos
    dv = u[plus]
    dv += u[minus]
    dv -= 2.0 * u[center]
    dv *= coeff[:, None]
    vals = weights[:, :1] * dv[dirs[:, 0]]
    for s in range(1, dirs.shape[1]):
        slot = dv[dirs[:, s]]
        if form == "minmax":
            np.maximum(vals, slot, out=vals)
        else:
            slot *= weights[:, s, None]
            vals += slot
    n = vals.shape[1]
    if form == "trace":
        sel = np.zeros(n, np.intp) if admissible is None else np.argmax(admissible, axis=0)
    else:
        if admissible is not None:
            vals[~admissible] = -np.inf if form == "max" else np.inf
        sel = np.argmax(vals, axis=0) if form == "max" else np.argmin(vals, axis=0)
    cols = np.arange(n)
    best = vals[sel, cols]
    if keep is not None:
        tied = np.abs(vals[keep, cols] - best) <= _TIE * (1.0 + np.abs(best))
        sel = np.where(tied, keep, sel)
    return best, sel


# -- problems -----------------------------------------------------------------


def _check_lattice(shape: tuple, origin: np.ndarray, h: float) -> None:
    nd = len(shape)
    if nd not in (2, 3):
        raise DomainError(f"solver supports 2-D and 3-D grids, got {nd}-D")
    if origin.shape != (nd,):
        raise DomainError("origin dimension does not match the shape")
    if any(s < 5 for s in shape):
        raise DomainError("grids need at least 5 points per axis")
    if not 0 < h < math.inf:
        raise DomainError(f"grid spacing must be finite and > 0, got {h}")
    if not np.all(np.isfinite(origin)):
        raise DomainError(f"grid origin must be finite, got {origin.tolist()}")


@dataclass(frozen=True, eq=False)
class DirichletProblem:
    """Lattice Dirichlet problem with optional hole region and punctures.

    ``boundary_values`` holds finite data on the whole lattice; it is read
    at every non-unknown cell (the outermost ring, the hole region, and
    wherever wide stencil arms land outside the unknown set).  Punctured
    cells carry no data at all.
    """

    shape: tuple
    origin: np.ndarray
    h: float
    operator: tuple
    boundary_values: np.ndarray
    hole: Optional[np.ndarray] = None
    punctures: tuple = ()

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        origin = np.asarray(self.origin, dtype=float).ravel()
        nd = len(shape)
        _check_lattice(shape, origin, self.h)
        op = _normalize_op(self.operator, nd)
        g = np.asarray(self.boundary_values, dtype=float)
        if g.shape != shape:
            raise DomainError("boundary value array must cover the whole grid")
        hole = self.hole
        if hole is not None:
            hole = np.asarray(hole, dtype=bool)
            if hole.shape != shape:
                raise DomainError("hole mask shape must match the grid")
            hole.flags.writeable = False
        punctures = tuple(tuple(int(c) for c in pt) for pt in self.punctures)
        for pt in punctures:
            if len(pt) != nd:
                raise DomainError(f"puncture {pt} has wrong dimension")
            if any(c <= 0 or c >= s - 1 for c, s in zip(pt, shape)):
                raise DomainError(f"puncture {pt} must be strictly interior")
            if hole is not None and hole[pt]:
                raise DomainError(f"puncture {pt} lies in the hole region")
        if not np.all(np.isfinite(np.delete(g.reshape(-1), [np.ravel_multi_index(p, shape) for p in punctures]) if punctures else g)):
            raise DomainError("boundary values must be finite")
        g = np.array(g)
        g.flags.writeable = False
        origin.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "operator", op)
        object.__setattr__(self, "boundary_values", g)
        object.__setattr__(self, "hole", hole)
        object.__setattr__(self, "punctures", punctures)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def unknown_mask(self) -> np.ndarray:
        m = np.ones(self.shape, dtype=bool)
        for axis in range(self.ndim):
            sl = [slice(None)] * self.ndim
            sl[axis] = 0
            m[tuple(sl)] = False
            sl[axis] = -1
            m[tuple(sl)] = False
        if self.hole is not None:
            m &= ~self.hole
        for pt in self.punctures:
            m[pt] = False
        return m

    def puncture_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        for pt in self.punctures:
            m[pt] = True
        return m

    def with_punctures(self, punctures) -> "DirichletProblem":
        return DirichletProblem(
            self.shape,
            self.origin,
            self.h,
            self.operator,
            self.boundary_values,
            self.hole,
            tuple(punctures),
        )


# -- scheme assembly -----------------------------------------------------------


def _dissection(points: np.ndarray, reach: int, leaf: int = 64):
    """Geometric nested-dissection order of lattice points (George 1973).

    The bounding box of ``points`` (n, ndim) is split across its longest
    axis by a separator strip ``reach`` cells wide, which no stencil arm
    of max-norm <= ``reach`` can cross; the left half is ordered first,
    then the right half, then the strip.  Boxes of at most ``leaf``
    points, or too thin to split, keep their input order.

    Returns ``(order, splits)``: ``order`` permutes the point indices,
    and each split ``(start, mid, stop)`` marks ``order[start:mid]`` and
    ``order[mid:stop]`` as two halves that one separator keeps apart.
    """
    order, splits = [], []

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
        start = len(order)
        visit(ids[c < cut])
        mid = len(order)
        visit(ids[c >= cut + reach])
        splits.append((start, mid, len(order)))
        order.extend(ids[(c >= cut) & (c < cut + reach)].tolist())

    visit(np.arange(points.shape[0]))
    return np.array(order, dtype=np.intp), splits


class _Scheme:
    """Precomputed stencil admissibility and frame combos for one problem."""

    def __init__(self, problem: DirichletProblem, stencil: StencilSet):
        if stencil.ndim != problem.ndim:
            raise DomainError("stencil dimension does not match the problem")
        self.problem = problem
        shape = problem.shape
        unknown = problem.unknown_mask()
        if not unknown.any():
            raise DomainError("problem has no unknown cells")
        lattice = np.argwhere(unknown)
        idx = lattice[_dissection(lattice, stencil.reach)[0]]
        self.unknown_flat = np.ravel_multi_index(idx.T, shape)
        N = self.unknown_flat.shape[0]
        self.rank = -np.ones(int(np.prod(shape)), dtype=np.intp)
        self.rank[self.unknown_flat] = np.arange(N)

        # (D, N) flat neighbor indices along every direction; 0 where an
        # arm leaves the grid, and such arms or ones landing on a puncture
        # are not valid
        arm = np.abs(stencil.directions)[:, None]
        valid = np.all((idx >= arm) & (idx < np.array(shape) - arm), axis=2)
        strides = np.array([int(np.prod(shape[a + 1 :])) for a in range(len(shape))])
        step = (stencil.directions @ strides)[:, None]
        self.plus = np.where(valid, self.unknown_flat + step, 0)
        self.minus = np.where(valid, self.unknown_flat - step, 0)
        punct = problem.puncture_mask().reshape(-1)
        valid &= ~punct[self.plus] & ~punct[self.minus]
        self.coeff = 1.0 / (problem.h * stencil.lengths) ** 2

        self.combos = _combos(problem.operator, stencil)
        self.form, self.dirs, self.weights = self.combos
        self.admissible = reduce(
            operator.and_, (valid[self.dirs[:, s]] for s in range(self.dirs.shape[1]))
        )
        covered = self.admissible.any(axis=0)
        if not covered.all():
            first = self.unknown_flat[~covered].min()  # lexicographically first
            bad = tuple(int(i) for i in np.unravel_index(first, shape))
            raise DiscretizationError(
                f"no admissible stencil frame at {bad}; refine the grid or "
                "shrink the puncture set"
            )

    def evaluate(self, u_flat: np.ndarray, keep: Optional[np.ndarray] = None):
        """Residual and selected frame combo at every unknown, keeping the
        ``keep`` selection where it ties the best (see ``_evaluate``)."""
        return _evaluate(
            u_flat, self.unknown_flat, self.plus, self.minus, self.coeff,
            self.combos, self.admissible, keep,
        )

    def assemble(self, selection: np.ndarray):
        """Sparse linear system of the frozen-frame scheme, L u = rhs."""
        N = self.unknown_flat.shape[0]
        g = self.problem.boundary_values.reshape(-1)
        rows, cols, data = [], [], []
        rhs = np.zeros(N)
        diag = np.zeros(N)
        for s in range(self.dirs.shape[1]):
            w = self.weights[selection, s]
            pts = np.nonzero(w != 0.0)[0]
            d = self.dirs[selection[pts], s]
            coef = w[pts] * self.coeff[d]
            diag[pts] -= 2.0 * coef
            for nbr in (self.plus[d, pts], self.minus[d, pts]):
                r = self.rank[nbr]
                inner = r >= 0
                rows.append(pts[inner])
                cols.append(r[inner])
                data.append(coef[inner])
                rhs[pts[~inner]] -= coef[~inner] * g[nbr[~inner]]
        rows.append(np.arange(N))
        cols.append(np.arange(N))
        data.append(diag)
        L = __getattr__("sp").csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N, N),
        )
        return L, rhs


def residual(u: GridFunction, index, op, stencil: Optional[StencilSet] = None) -> float:
    """Scheme residual of one operator at one interior point.

    The full stencil must fit inside the grid at the point and the values
    it reads must be finite; otherwise StencilError is raised.
    """
    op = _normalize_op(op, u.ndim)
    if stencil is None:
        stencil = make_stencil(u.ndim)
    idx = np.asarray(index, dtype=np.intp)
    reach = stencil.reach
    if np.any(idx < reach) or np.any(idx > np.array(u.shape) - 1 - reach):
        raise StencilError(f"stencil is clipped by the grid boundary at {tuple(idx)}")
    center = np.ravel_multi_index(idx[:, None], u.shape)
    plus = np.ravel_multi_index((idx + stencil.directions).T, u.shape)[:, None]
    minus = np.ravel_multi_index((idx - stencil.directions).T, u.shape)[:, None]
    uvals = u.values.reshape(-1)
    if not np.isfinite(uvals[np.concatenate([center, plus[:, 0], minus[:, 0]])]).all():
        raise StencilError(f"stencil at {tuple(idx)} reads a non-finite value")
    coeff = 1.0 / (u.h * stencil.lengths) ** 2
    return float(_evaluate(uvals, center, plus, minus, coeff, _combos(op, stencil))[0][0])


# -- solving -------------------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    solution: GridFunction
    residual_sup: float
    iterations: int
    converged: bool
    method: str
    history: tuple  # (linear solves so far, residual_sup) pairs

    def to_dict(self) -> dict:
        return {
            "residual_sup": float(self.residual_sup),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "method": self.method,
        }


def _solution_grid(problem: DirichletProblem, u_flat: np.ndarray) -> GridFunction:
    vals = u_flat.reshape(problem.shape).copy()
    mask = None
    if problem.punctures:
        mask = problem.puncture_mask()
        vals[mask] = -np.inf
    return GridFunction(vals, problem.origin, problem.h, mask)


# default cap on the policy steps of a solve
POLICY_STEP_CAP = 60

# A policy step reuses the held factor when at most this share of the
# rows changed frames since it was built ...
_REUSE_SHARE = 0.005
# ... and keeps the GMRES result only at this componentwise backward
# error; a factored solve with one refinement step reads 2-4e-16.
_BACKWARD_ERROR = 64 * np.finfo(float).eps


def _solve_with_held_factor(L, rhs, lu, x0):
    """GMRES on ``L x = rhs`` from ``x0``, preconditioned by the LU factor
    of a nearby frozen matrix: the solution, or None if it misses
    ``_BACKWARD_ERROR``.

    A change of r rows is a rank-r update of the factored matrix, so one
    restart cycle of at most 30 iterations suffices for the late policy
    steps.  scipy ends that cycle once its estimate of the preconditioned
    residual, the correction still owed to x, falls below rtol times
    ``|lu.solve(rhs)|_2``, about ``|x|_2``; rtol = eps / sqrt(n) asks for a
    correction below the round-off of a typical entry of x.  scipy's
    ``info`` is not consulted: the backward error
    ``max |rhs - L x| / (|L| |x| + |rhs|)`` alone decides.
    """
    spla = __getattr__("spla")
    M = spla.LinearOperator(L.shape, matvec=lu.solve, dtype=float)
    rtol = np.finfo(float).eps / math.sqrt(rhs.size)
    x, _ = spla.gmres(L, rhs, x0=x0, M=M, rtol=rtol, atol=0.0, restart=30, maxiter=1)
    scale = abs(L) @ np.abs(x) + np.abs(rhs)
    return x if np.all(np.abs(rhs - L @ x) <= _BACKWARD_ERROR * scale) else None


def _policy_iteration(scheme: _Scheme, u: np.ndarray, tol: float, max_iter: int) -> list:
    """Policy iteration on ``scheme`` from the iterate u, updated in place,
    for at most ``max_iter`` linear solves.  Returns the history: the
    pairs (solves so far, residual_sup), one before the first solve and
    one after each."""
    prev_sel = lu = lu_sel = None
    reused = False
    r, sel = scheme.evaluate(u)
    res_sup = float(np.max(np.abs(r)))
    history = [(0, res_sup)]
    it = 0
    while res_sup > tol and it < max_iter:
        settled = prev_sel is not None and np.array_equal(sel, prev_sel)
        if settled and not reused:
            break
        it += 1
        # reuse only while the residual still falls: at round-off the
        # policy flips ties, and factored solves end it as they always did
        try_reuse = (
            lu is not None
            and not settled
            and res_sup < history[-2][1]
            and np.count_nonzero(sel != lu_sel) <= _REUSE_SHARE * sel.size
        )
        if not try_reuse:
            lu = None  # free an unused factor before assembling
        L, rhs = scheme.assemble(sel)
        x = _solve_with_held_factor(L, rhs, lu, u[scheme.unknown_flat]) if try_reuse else None
        reused = x is not None
        if not reused:
            # L is a nonsingular M-matrix already in nested-dissection
            # order, so it factors without pivoting or column reordering;
            # one refinement step brings the solve down to round-off.
            lu = None  # one factor at a time: drop a rejected one first
            lu = __getattr__("spla").splu(
                L.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0
            )
            lu_sel = sel
            x = lu.solve(rhs)
            x += lu.solve(rhs - L @ x)
        u[scheme.unknown_flat] = x
        prev_sel = sel
        r, sel = scheme.evaluate(u, keep=sel)
        res_sup = float(np.max(np.abs(r)))
        history.append((it, res_sup))
    return history


def solve(
    problem: DirichletProblem,
    stencil: Optional[StencilSet] = None,
    tol: float = 1e-8,
    max_iter: int = POLICY_STEP_CAP,
) -> SolveReport:
    """Solve the Dirichlet problem to ``residual_sup <= tol``.

    Policy iteration freezes the optimal frame choice and solves the
    resulting sparse linear system, repeating until the residual settles
    (exact for the linear trace form in one solve).  Each linear solve
    either factors the frozen matrix or, once few rows change frames,
    reuses the held factor as a GMRES preconditioner (see the module
    docstring).  The 3-D second-branch min-max form nests it: the outer
    policy holds each point's pair, and each outer step runs the policy
    iteration of the max form over that pair's two directions.

    ``max_iter`` caps the policy steps, and for the min-max form the
    outer steps and each inner solve.  ``iterations`` counts linear
    solves; ``history`` holds (solves so far, residual_sup) before the
    first solve and after each policy step, or each outer step of the
    min-max form, so its last entry is (iterations, residual_sup).
    """
    if stencil is None:
        stencil = make_stencil(problem.ndim)
    scheme = _Scheme(problem, stencil)
    u = problem.boundary_values.reshape(-1).astype(float).copy()
    if problem.punctures:
        u[np.ravel_multi_index(np.array(problem.punctures).T, problem.shape)] = 0.0
    if scheme.form != "minmax":
        history = _policy_iteration(scheme, u, tol, max_iter)
    else:
        # the inner view is the max form over single directions (that of
        # branch 3) with each point admitting the two of its pair, so a
        # frozen row has one second difference
        inner = copy.copy(scheme)
        inner.combos = inner.form, inner.dirs, inner.weights = _combos(("branch", 3), stencil)
        r, pair = scheme.evaluate(u)
        history = [(0, float(np.max(np.abs(r))))]
        prev = None
        # at most max_iter outer steps, which end once the pairs are stable
        while history[-1][1] > tol and len(history) <= max_iter:
            if np.array_equal(pair, prev):
                break
            inner.admissible = np.zeros((stencil.count, pair.size), dtype=bool)
            inner.admissible[scheme.dirs[pair].T, np.arange(pair.size)] = True
            solves = history[-1][0] + _policy_iteration(inner, u, tol, max_iter)[-1][0]
            prev = pair
            r, pair = scheme.evaluate(u, keep=pair)
            history.append((solves, float(np.max(np.abs(r)))))
    it, res_sup = history[-1]
    return SolveReport(
        _solution_grid(problem, u), res_sup, it, res_sup <= tol, "policy", tuple(history)
    )


# -- verification and experiments -----------------------------------------------


@dataclass(frozen=True)
class HarmonicReport:
    subharmonic: grids.SubharmonicReport
    dual_subharmonic: grids.SubharmonicReport
    harmonic: bool

    def to_dict(self) -> dict:
        return {
            "harmonic": bool(self.harmonic),
            "subharmonic": self.subharmonic.to_dict(),
            "dual_subharmonic": self.dual_subharmonic.to_dict(),
        }


def _negated(u: GridFunction) -> GridFunction:
    neg = np.isneginf(u.values)
    vals = np.where(neg, -np.inf, -u.values)
    mask = None
    if u.mask is not None or neg.any():
        mask = u.masked() | neg
    return GridFunction(vals, u.origin, u.h, mask)


def harmonic_verify(
    u: GridFunction,
    spec: ConeSpec,
    c_tol: Optional[float] = None,
    region: Optional[np.ndarray] = None,
) -> HarmonicReport:
    """Check u against the cone and -u against its dual at grid scale.

    ``region`` restricts the checked points, e.g. to the unknown set of a
    solve so that Dirichlet data cells are not probed.
    """
    if c_tol is None:
        c_tol = grids.third_difference_kappa(u) * u.h
    sub = grids.subharmonic_verify(u, spec, c_tol, region=region)
    dual = grids.subharmonic_verify(
        _negated(u), cones.dual_cone(spec), c_tol, region=region
    )
    return HarmonicReport(sub, dual, sub.passed and dual.passed)


@dataclass(frozen=True)
class RemovabilityReport:
    """Full-vs-punctured comparison with the perturbation verification.

    ``sup_gap`` compares the extension with the unpunctured solution over
    unmasked cells; the shell-sup value at the punctures themselves
    carries an intrinsic O(h |grad u|) bias and is reported separately as
    ``masked_gap``.
    """

    sup_gap: float
    masked_gap: float
    gap_threshold: float
    perturbation_checks: dict  # eps -> violation count
    passed: bool
    full: SolveReport
    punctured: SolveReport
    extension_changed: int

    def to_dict(self) -> dict:
        return {
            "sup_gap": float(self.sup_gap),
            "masked_gap": float(self.masked_gap),
            "gap_threshold": float(self.gap_threshold),
            "perturbation_checks": {
                repr(k): int(v) for k, v in self.perturbation_checks.items()
            },
            "passed": bool(self.passed),
            "full": self.full.to_dict(),
            "punctured": self.punctured.to_dict(),
            "extension_changed": int(self.extension_changed),
        }


def removability_experiment(
    problem: DirichletProblem,
    punctures,
    polar_p: Optional[float] = None,
    stencil: Optional[StencilSet] = None,
    tol: float = 1e-9,
    eps_values=(1e-2, 1e-3),
    gap_constant: float = 5.0,
) -> RemovabilityReport:
    """Solve, puncture, extend, and verify the perturbation by a polar.

    Steps: (i) solve the full problem; (ii) solve with the punctures
    excluded; (iii) extend the punctured solution across them; (iv) build
    the polar function of the punctures and verify that the punctured
    solution plus eps times the polar stays subharmonic off the punctures
    for each eps; (v) compare extension with the full solution.  Passing
    needs the off-puncture sup gap below ``gap_constant * (h + tol)`` and
    every perturbation check clean.

    The partial-sum operator needs ``p >= 2`` (no finite point set is
    polar below that); branch operators additionally need a randomized
    monotonicity certification against the requested polar exponent, on
    2,000 samples drawn with seed 0.
    """
    if problem.punctures:
        raise DomainError("pass the puncture set separately, not in the problem")
    kind, val = problem.operator
    nd = problem.ndim
    try:
        points = [np.asarray(pt, dtype=float).reshape(nd) for pt in punctures]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"puncture points must be {nd}-D coordinates: {exc}") from exc
    if not points:
        raise DomainError("the experiment needs at least one puncture point")
    if polar_p is None:
        if kind != "pp":
            raise DomainError("branch operators need an explicit polar exponent")
        polar_p = float(val)
    if polar_p < 2.0:
        raise UnsupportedPolarError(
            f"removability experiments need a polar exponent >= 2, got {polar_p} "
            "(no finite point set is polar below 2)"
        )
    cone = operator_cone(problem.operator, nd)
    if kind == "branch":
        rep = cones.check_relation(
            cone, cones.pp_cone(polar_p, nd), SampleConfig(seed=0, count=2000)
        )
        if not rep.passed:
            raise DomainError(
                f"branch:{int(val)} is not certified monotone for pp:{polar_p}; "
                f"counterexample at sample {rep.failure_index}"
            )

    idx_pts = [tuple(int(round(c)) for c in (pt - problem.origin) / problem.h) for pt in points]
    full = solve(problem, stencil=stencil, tol=tol)
    punctured_problem = problem.with_punctures(idx_pts)
    punct = solve(punctured_problem, stencil=stencil, tol=tol)

    ext = grids.canonical_extension(punct.solution)
    off = ~punctured_problem.puncture_mask()
    sup_gap = float(
        np.max(np.abs(ext.extended.values[off] - full.solution.values[off]))
    )
    masked_gap = float(
        np.max(np.abs(ext.extended.values[~off] - full.solution.values[~off]))
    )

    polar = riesz.build_polar(
        [problem.origin + problem.h * np.asarray(pt) for pt in idx_pts], polar_p
    )
    coords = grids.grid_coordinates(problem.shape, problem.origin, problem.h)
    pts = np.stack([c.reshape(-1) for c in coords], axis=1)
    psi_vals = polar.values(pts).reshape(problem.shape)
    psi = GridFunction(
        psi_vals, problem.origin, problem.h, punctured_problem.puncture_mask()
    )
    region = punctured_problem.unknown_mask()
    checks = {}
    ok = True
    for eps in eps_values:
        rep = grids.subharmonic_verify(
            grids.perturb(punct.solution, psi, eps), cone, region=region
        )
        checks[float(eps)] = len(rep.violations)
        ok = ok and rep.passed

    threshold = gap_constant * (problem.h + tol)
    passed = ok and sup_gap <= threshold
    return RemovabilityReport(
        sup_gap=sup_gap,
        masked_gap=masked_gap,
        gap_threshold=threshold,
        perturbation_checks=checks,
        passed=passed,
        full=full,
        punctured=punct,
        extension_changed=ext.changed_points,
    )


# -- problem files ---------------------------------------------------------------

_EXPR_FUNCS = {
    "sqrt": np.sqrt,
    "log": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
    "hypot": np.hypot,
    "arctan2": np.arctan2,
}

_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


def _eval_node(node, names: dict):
    """Evaluate one node of a whitelisted expression tree."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)  # no unbounded integer powers such as 10**10**10
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        left = _eval_node(node.left, names)
        return _EXPR_OPS[type(node.op)](left, _eval_node(node.right, names))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_node(node.operand, names))
    if (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and type(node.ops[0]) in _EXPR_OPS
    ):
        left = _eval_node(node.left, names)
        return _EXPR_OPS[type(node.ops[0])](left, _eval_node(node.comparators[0], names))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _EXPR_FUNCS
        and not node.keywords
    ):
        args = [_eval_node(a, names) for a in node.args]
        return _EXPR_FUNCS[node.func.id](*args)
    raise DomainError(
        f"boundary expression may not contain {ast.unparse(node)!r}: only numbers, "
        "x, y, z, r, pi, e, arithmetic, single comparisons and calls to "
        f"{', '.join(_EXPR_FUNCS)} are allowed"
    )


def evaluate_expression(expr: str, coords) -> np.ndarray:
    """Evaluate a boundary expression over coordinate arrays.

    The expression may use number literals, x, y, z (as available), r
    (distance to the coordinate origin), pi, e, arithmetic, single
    comparisons and calls to the whitelisted numpy functions; anything
    else raises DomainError.  Nothing in it is executed as Python code.
    """
    names = {"pi": np.pi, "e": np.e}
    for name, arr in zip("xyz", coords):
        names[name] = arr
    try:
        # overflow and poles give non-finite values, which the problem rejects
        with np.errstate(all="ignore"):
            names["r"] = np.sqrt(sum(c * c for c in coords))
            vals = _eval_node(ast.parse(expr, mode="eval").body, names)
            return np.broadcast_to(np.asarray(vals, dtype=float), coords[0].shape).copy()
    except DomainError:
        raise
    # the parser reports over-deep nesting as MemoryError
    except (SyntaxError, MemoryError, RecursionError, TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"boundary expression failed: {exc}") from exc


def problem_from_config(cfg: dict) -> DirichletProblem:
    """Build a problem from its JSON dict form.

    Keys: ``operator`` ("pp"/"branch") with ``p`` or ``k``; ``grid`` with
    shape/origin/h; ``boundary`` with ``expr`` or ``grid_file``; optional
    ``hole`` box {min, max} and ``puncture`` point list.
    """
    try:
        grid = cfg["grid"]
        shape = tuple(int(s) for s in grid["shape"])
        nd = len(shape)
        origin = np.asarray(grid["origin"], dtype=float).reshape(nd)
        h = float(grid["h"])
        op_kind = cfg["operator"]
        op = _normalize_op((op_kind, cfg["p"] if op_kind == "pp" else cfg["k"]), nd)
        boundary = dict(cfg["boundary"])
        box = cfg.get("hole")
        if box:
            box = [np.asarray(box[key], dtype=float).reshape(nd) for key in ("min", "max")]
        points = [np.asarray(pt, dtype=float).reshape(nd) for pt in cfg.get("puncture") or []]
    except KeyError as exc:
        raise DomainError(f"problem config is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed problem config: {exc}") from exc
    _check_lattice(shape, origin, h)
    if not all(np.all(np.isfinite(pt)) for pt in points):
        raise DomainError("puncture points must be finite")
    coords = grids.grid_coordinates(shape, origin, h)
    if "expr" in boundary:
        g = evaluate_expression(boundary["expr"], coords)
    elif "grid_file" in boundary:
        gf = grids.read_grid(boundary["grid_file"])
        if gf.shape != shape:
            raise DomainError("boundary grid file does not match the problem grid")
        g = np.array(gf.values)
    else:
        raise DomainError("boundary needs 'expr' or 'grid_file'")
    hole = None
    if box:
        lo, hi = box
        hole = np.ones(shape, dtype=bool)
        for d in range(nd):
            hole &= (coords[d] >= lo[d] - 1e-12) & (coords[d] <= hi[d] + 1e-12)
    punctures = [tuple(int(round(c)) for c in (pt - origin) / h) for pt in points]
    return DirichletProblem(shape, origin, h, op, g, hole, tuple(punctures))
