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
indices and weights.  One kernel evaluates the scheme at a set of points:
a single gather of their second differences along the D directions, the
combo values built slot by slot, then the residual and the selected
combo.  The solvers run it over consecutive blocks of max(1, 2^17 // C)
unknowns, 8,192 points in 2-D at reach 3 and 120 for 3-D pp at reach 3,
so the transient memory of an evaluation is a few MB whatever the grid
(traced peaks: 7.5 MB at 257^2, 4.2 MB for 3-D pp at 33^3); each point's
values depend on its own column alone, so the results do not depend on
the blocks.  Between evaluations the scheme holds one (D, N) array, the
bool validity of every arm, and derives neighbour indices and frame
admissibility from it per block; the min-max inner view instead hands
the kernel only each point's two pair directions.  The pointwise
``residual`` is the kernel on the one column at its point, and
``assemble`` builds the selected arms' neighbours the same way, block
by block, into a per-row table that it compresses to canonical CSR;
``separators`` reads that CSR and ``_factor`` permutes it once (traced
peaks at the first 257^2 step: 8.4 MB assemble, 7.1 MB order, 6.1 MB
factor input).

Increasing any neighbor value never decreases a residual, so the scheme
is monotone.  Punctured cells carry no boundary condition: they are
excluded from the unknown set and every stencil direction touching them
is dropped, with a minimum-frame guarantee checked up front.

Every form is solved by exact policy (Howard) iteration over the frozen
frame choices, which converges in a handful of sparse linear solves.
One loop serves every operator, nested for min-max (Hoffman and Karp
1966): an outer step freezes each point's pair, the min player's
choice, and solves the inner problem, the max over that pair's two
directions, by the same loop.  A frozen inner row has one second
difference.  Outputs are bitwise reproducible.

Unknowns are numbered lattice-wise.  A dissection tree is built once per
problem by cutting the lattice with single planes (George 1973); every
factorization then orders the frozen matrix by its own graph, whose rows
hold only the arms of their selected frame: a point stays at its leaf or
cut plane unless one of the matrix's entries jumps a cut, and then the
point on the right of that cut joins its separator (Lipton, Rose and
Tarjan 1979).  The permuted matrix, a nonsingular M-matrix like every
monotone scheme's, factors without pivoting, in single precision: scaled
by a power of two to entries of at most 1, it takes half the memory of a
double-precision factor, and iterative refinement in double precision
recovers the full accuracy while cond(L) u_32 < 1 (Buttari et al. 2007;
Carson and Higham 2018).  SuperLU factors it in panels of 4 columns
(Demmel et al. 1999): its work arrays grow with the panel width, and
4-column panels keep the C6 257^2 solve's peak RSS at ~162 MB with
the same fill.  Every linear solve refines its iterate until
the componentwise backward error is at most 64 eps, for at most 8
corrections, and keeps the last iterate if the cap comes first (data at
the edge of the subnormal range cannot meet it).  Both levels of the
loop follow one rule: a selection not solved before in the loop is
solved, and a selection solved before, one that no longer changes or
that near-tied frames cycle back to at round-off, ends the loop with no
further step.  A linear step assembles, orders and factors its own
system and refines from the current iterate until max |rhs - L x| <=
tol as well, until a correction no longer lowers it, or to the cap; a
min-max outer step runs the loop on its pair view.  A tol below
round-off cannot be met, so there each step spends about one correction
more than the backward error needs.
``converged`` means residual <= tol at the returned iterate.  Each new
selection keeps the previous frame wherever that frame is within
1e-12 (1 + |r|) of the best, so near-tied frames at round-off do not
flip the policy forever.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from . import cones, grids
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
    axis = np.arange(-reach, reach + 1, dtype=np.intp)
    cube = np.stack(np.meshgrid(*[axis] * ndim, indexing="ij"), axis=-1).reshape(-1, ndim)
    first = cube[np.arange(len(cube)), np.argmax(cube != 0, axis=1)]
    dirs = cube[(first > 0) & (np.gcd.reduce(cube, axis=1) == 1)]  # one per line
    return dirs[np.lexsort((*dirs.T[::-1], (dirs**2).sum(axis=1), np.abs(dirs).max(axis=1)))]


# the largest stencil reach: a 3-D stencil of reach 5 has 577 directions,
# 3,234 orthogonal pairs and 266 triples and builds in ~0.02 s; the cap
# bounds the solver, which holds every direction and evaluates every frame
# at each unknown (reach 6 has 865 directions and 5,502 pairs)
REACH_CAP = 5


def make_stencil(ndim: int, reach: int = 3) -> StencilSet:
    """All coprime directions with max-norm <= reach plus their frames.

    The default reach 3 yields 16 line directions in 2-D.  Frames are
    ordered so the coordinate-axis frame comes first.  ``reach`` must lie
    in [1, REACH_CAP].
    """
    if ndim not in (2, 3):
        raise DomainError(f"stencils support 2-D and 3-D grids, got ndim={ndim}")
    if (isinstance(reach, bool) or not isinstance(reach, (int, np.integer))
            or not 1 <= reach <= REACH_CAP):
        raise DomainError(f"stencil reach must be an integer in [1, {REACH_CAP}], got {reach!r}")
    return _make_stencil(ndim, int(reach))


@lru_cache(maxsize=None)
def _make_stencil(ndim: int, reach: int) -> StencilSet:
    dirs = _coprime_directions(ndim, reach)
    ortho = dirs @ dirs.T == 0
    maxnorm = np.abs(dirs).max(axis=1)

    def by_reach(frames):  # ascending index rows, by their longest direction
        frames = frames[np.lexsort((*frames.T[::-1], maxnorm[frames].max(axis=1)))]
        return tuple(map(tuple, frames.tolist()))

    pairs = np.argwhere(np.triu(ortho))
    # a third direction orthogonal to both of a pair, past its second (none in 2-D)
    at, k = np.nonzero(ortho[pairs[:, 0]] & ortho[pairs[:, 1]]
                       & (np.arange(len(dirs)) > pairs[:, 1:]))
    triples = np.column_stack([pairs[at], k])
    lengths = np.linalg.norm(dirs.astype(float), axis=1)
    return StencilSet(dirs, lengths, by_reach(pairs), by_reach(triples))


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


@np.errstate(over="ignore", invalid="ignore")
def _evaluate(u, center, plus, minus, coeff, combos, admissible=None, keep=None):
    """Scheme residual and selected combo at the points ``center``.

    One gather gives the (D, N) second differences
    ``(u[plus] + u[minus] - 2 u[center]) * coeff``, where ``coeff`` is
    (D, 1), one coefficient per direction, or (D, N).  The (C, N) combo
    values are then built slot by slot, a weighted sum or for ``minmax``
    a running maximum, so no (C, k, N) array is formed.  Combos that are
    not ``admissible`` (all are when None) are never selected; the trace
    form selects the first admissible one.  A ``keep`` selection (of
    admissible combos) is kept wherever its value ties the best one to
    within ``_TIE * (1 + |r|)``.  Returns ``(residual, selection)``, both
    (N,); the residual is always the best value.  Values of u too large
    for their second differences, which make a selected value overflow,
    raise DomainError.
    """
    form, dirs, weights = combos
    dv = u[plus]
    dv += u[minus]
    dv -= 2.0 * u[center]
    dv *= coeff
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
    if not np.all(np.isfinite(best)):
        raise DomainError("the scheme's second differences overflow: "
                          "the values are too large for the grid spacing")
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
    grids.check_point_count(shape)
    grids.check_geometry(shape, origin, h)
    _coefficients(h, np.ones(1), nd)  # the axis directions, in every stencil


def _coefficients(h: float, lengths: np.ndarray, ndim: int) -> np.ndarray:
    """Scheme coefficients 1/(h |v|)^2 for directions of these lengths; a
    spacing that makes one 0, or a frozen row's diagonal (at most 2 ndim
    of them) overflow, is a DomainError."""
    with np.errstate(over="ignore", divide="ignore"):
        coeff = 1.0 / (h * lengths) ** 2
        if not np.all((coeff > 0.0) & np.isfinite(2 * ndim * coeff)):
            raise DomainError(f"grid spacing {h!r} is out of range: 1/(h |v|)^2 overflows or is 0")
    return coeff


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
        m = np.zeros(self.shape, dtype=bool)
        m[(slice(1, -1),) * self.ndim] = True
        if self.hole is not None:
            m &= ~self.hole
        return m & ~self.puncture_mask()

    def puncture_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        for pt in self.punctures:
            m[pt] = True
        return m

    def with_punctures(self, punctures) -> "DirichletProblem":
        return replace(self, punctures=tuple(punctures))


def _lattice_indices(points, origin: np.ndarray, h: float) -> list:
    """Lattice indices of puncture coordinates, rounded to the nearest
    node; points of the wrong dimension, not finite, or so far out that
    an index overflows int64 are DomainError, which names the point."""
    nd = origin.shape[0]
    try:
        pts = np.array([np.asarray(pt, dtype=float).reshape(nd) for pt in points]).reshape(-1, nd)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"puncture points must be {nd}-D coordinates: {exc}") from exc
    finite = np.all(np.isfinite(pts), axis=1)
    if not finite.all():
        raise DomainError(f"puncture point {pts[np.argmin(finite)].tolist()} must be finite")
    with np.errstate(over="ignore"):
        idx = np.round((pts - origin) / h)
    fits = np.all(np.abs(idx) < 2.0**63, axis=1)
    if not fits.all():
        raise DomainError(f"puncture point {pts[np.argmin(fits)].tolist()} is finite, but its "
                          "lattice index (x - origin) / h overflows")
    return [tuple(int(c) for c in row) for row in idx]


# -- scheme assembly -----------------------------------------------------------


# points in a dissection leaf; 16, 64 and 256 factor 3-D solves alike
_LEAF = 64
# columns in one SuperLU panel (Demmel et al. 1999).  SuperLU's work
# arrays grow with the panel width: at 4 columns, not its default, the
# policy-2d round (C6 at 129^2 and 257^2) peaks at 161.9 MB RSS instead
# of 173.8 MB (medians of 10 alternating pairs on a 2-vCPU host), with the
# same fill and factor time within noise.  The factor's bits move with
# the width, and widths 1, 2 and 8 each change a solve count (193^2
# pp:1.2 takes 11 solves at width 1, 257^2 pp:1.2 with max_iter 16 takes
# 16 at width 2 and does not converge at width 8); 4 keeps every one seen
_PANEL = 4


def _dissection_tree(points: np.ndarray):
    """Geometric nested-dissection tree of lattice points (George 1973).

    The bounding box of ``points`` (n, ndim) is cut across its longest
    axis by one lattice plane: the points below it form the left subtree,
    those above it the right one, and the plane's own points stay at the
    node.  Boxes of at most ``_LEAF`` points, or too thin to cut, are
    leaves.  Nodes carry heap codes, the root 1 and the children of c
    2c and 2c + 1, so the binary digits of a code spell its path.

    Returns ``(home, postorder)``: each point's node code, and every
    node's code in postorder (children before their parent).
    """
    # int32, one code per matrix entry in ``separators``: POINT_CAP keeps codes below 2**26
    home = np.empty(points.shape[0], dtype=np.int32)
    postorder = []

    def visit(ids, code):
        if ids.size > _LEAF:
            pts = points[ids]
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            axis = int(np.argmax(hi - lo))
            if hi[axis] - lo[axis] >= 2:
                cut = lo[axis] + (hi[axis] - lo[axis]) // 2
                c = pts[:, axis]
                visit(ids[c < cut], 2 * code)
                visit(ids[c > cut], 2 * code + 1)
                ids = ids[c == cut]
        home[ids] = code
        postorder.append(code)

    visit(np.arange(points.shape[0]), 1)
    return home, np.array(postorder, dtype=np.int64)


def _bit_length(codes: np.ndarray) -> np.ndarray:
    """Bit length of non-negative integers below 2**53 (0 for 0)."""
    return np.frexp(codes.astype(float))[1]


# the max over a pair view's two local directions
_PAIR_MAX = ("max", np.array([[0], [1]]), np.ones((2, 1)))

# combo values per block of points in ``_Scheme.evaluate``: 8,192 points
# for the 16 combos of 2-D pp at reach 3, 120 for the 1,092 of 3-D pp
_BLOCK_VALUES = 2**17


class _Scheme:
    """Stencil validity, frame combos and dissection tree for one problem.

    The only (D, N) array it holds is ``valid``, whether each arm of each
    unknown lies in the grid and off the punctures.  Neighbour indices
    and combo admissibility are derived from it per block of points.
    """

    def __init__(self, problem: DirichletProblem, stencil: StencilSet):
        if stencil.ndim != problem.ndim:
            raise DomainError("stencil dimension does not match the problem")
        self.problem = problem
        self.stencil = stencil
        shape = problem.shape
        unknown = problem.unknown_mask()
        if not unknown.any():
            raise DomainError("problem has no unknown cells")
        idx = np.argwhere(unknown)
        self.unknown_flat = np.ravel_multi_index(idx.T, shape)
        self.home, postorder = _dissection_tree(idx)
        # node code c has postorder rank code_rank[searchsorted(codes, c)]
        self.codes = np.sort(postorder)
        self.code_rank = np.argsort(postorder)
        N = self.unknown_flat.shape[0]
        self.rank = -np.ones(int(np.prod(shape)), dtype=np.intp)
        self.rank[self.unknown_flat] = np.arange(N)

        strides = np.array([int(np.prod(shape[a + 1 :])) for a in range(len(shape))])
        self.step = stencil.directions @ strides  # (D,) flat offset of each arm
        self.coeff = _coefficients(problem.h, stencil.lengths, problem.ndim)
        self.combos = _combos(problem.operator, stencil)
        self.form, self.dirs, self.weights = self.combos
        self.pair_dirs = None  # (N, 2) directions of each point's pair in a pair view

        # an arm is valid when both its ends lie in the grid and off the
        # punctures; the corner, index 0, that _arms reads for the others
        # is never a puncture
        self.valid = np.ones((stencil.count, N), dtype=bool)
        for a, size in enumerate(shape):
            arm = np.abs(stencil.directions[:, a])[:, None]
            self.valid &= (idx[:, a] >= arm) & (idx[:, a] < size - arm)
        punct = problem.puncture_mask().reshape(-1)
        covered = np.empty(N, dtype=bool)
        for blk in self._blocks():
            valid = self.valid[:, blk]  # a view: the mask is updated in place
            plus, minus = self._arms(self.unknown_flat[blk], valid)
            valid &= ~punct[plus] & ~punct[minus]
            covered[blk] = self._admissible(valid).any(axis=0)
        if not covered.all():
            first = self.unknown_flat[~covered].min()  # lexicographically first
            bad = tuple(int(i) for i in np.unravel_index(first, shape))
            raise DiscretizationError(
                f"no admissible stencil frame at {bad}; refine the grid or "
                "shrink the puncture set"
            )

    def _blocks(self, width=None):
        """Consecutive slices of the unknowns, ``max(1, _BLOCK_VALUES // width)``
        points each for width (default: C combos) values per point."""
        n = max(1, _BLOCK_VALUES // (width or self.dirs.shape[0]))
        N = self.unknown_flat.shape[0]
        return [slice(lo, min(lo + n, N)) for lo in range(0, N, n)]

    def _arms(self, center: np.ndarray, valid: np.ndarray):
        """(D, n) flat neighbours ``center + step`` and ``center - step`` of
        the points ``center``, 0 where the arm is not ``valid``."""
        step = self.step[:, None]
        plus, minus = center + step, center - step
        plus *= valid
        minus *= valid
        return plus, minus

    def _admissible(self, valid: np.ndarray) -> np.ndarray:
        """(C, n) mask of the combos whose arms are all ``valid``."""
        return reduce(operator.and_, (valid[self.dirs[:, s]] for s in range(self.dirs.shape[1])))

    def pair_view(self, pair: np.ndarray) -> "_Scheme":
        """The inner problem of the min-max form at the outer selection
        ``pair``: the max form over single directions (that of branch 3),
        each point admitting the two of its pair, so a frozen row has one
        second difference.  Its ``evaluate`` runs the kernel on those two
        directions alone, both valid, as the local max combos 0 and 1."""
        inner = copy.copy(self)
        inner.combos = inner.form, inner.dirs, inner.weights = _combos(("branch", 3), self.stencil)
        inner.pair_dirs = self.dirs[pair]
        return inner

    def evaluate(self, u_flat: np.ndarray, keep: Optional[np.ndarray] = None):
        """Residual and selected frame combo at every unknown, keeping the
        ``keep`` selection where it ties the best (see ``_evaluate``).

        The kernel runs block by block (``_blocks``); each point's values
        depend only on its own column, so the results do not depend on
        the block size."""
        N = self.unknown_flat.shape[0]
        res = np.empty(N)
        sel = np.empty(N, dtype=np.intp)
        for blk in self._blocks():
            center = self.unknown_flat[blk]
            kept = None if keep is None else keep[blk]
            if self.pair_dirs is None:
                valid = self.valid[:, blk]
                res[blk], sel[blk] = _evaluate(
                    u_flat, center, *self._arms(center, valid), self.coeff[:, None],
                    self.combos, self._admissible(valid), kept,
                )
            else:
                # (2, n), the lower direction first: a tie selects it, as
                # the max over every direction would
                pair = self.pair_dirs[blk].T
                step = self.step[pair]
                if kept is not None:
                    kept = (kept == pair[1]).astype(np.intp)
                res[blk], local = _evaluate(
                    u_flat, center, center + step, center - step, self.coeff[pair],
                    _PAIR_MAX, None, kept,
                )
                sel[blk] = pair[local, np.arange(local.size)]
        return res, sel

    def separators(self, L) -> np.ndarray:
        """Dissection-tree node of every unknown for the frozen matrix L.

        Each unknown stays at its home node, except that wherever an
        off-diagonal entry of L joins the two subtrees of a node, the
        endpoint in the right subtree moves up into that node's
        separator; the shallowest such node wins.  The node of an entry's
        two endpoints is their homes' lowest common ancestor: the longest
        common prefix of their codes.  Afterwards every entry of L joins a
        node to itself, an ancestor or a descendant.
        """
        i = np.repeat(np.arange(L.shape[0], dtype=L.indices.dtype), np.diff(L.indptr))
        cross = self.home[i] != self.home[L.indices]  # the diagonal joins no subtrees
        i, j = i[cross], L.indices[cross]
        a, b = self.home[i], self.home[j]
        da, db = _bit_length(a), _bit_length(b)
        depth = np.minimum(da, db)
        a, b = a >> (da - depth), b >> (db - depth)
        below = _bit_length(a ^ b)  # levels from the common ancestor down
        jump = below > 0
        a, below = a[jump], below[jump]
        right = ((a >> (below - 1)) & 1).astype(bool)  # i lies right of the cut
        node = self.home.copy()
        # an ancestor's code is the smaller one, so the minimum is the shallowest
        np.minimum.at(node, np.where(right, i[jump], j[jump]), a >> below)
        return node

    def order(self, L) -> np.ndarray:
        """Nested-dissection order of the unknowns of the frozen matrix L:
        the nodes of ``separators(L)`` in postorder, unknowns of one node
        in index order.  Eliminating in this order keeps the fill of each
        subtree within it and its ancestors."""
        node = self.separators(L)
        key = self.code_rank[np.searchsorted(self.codes, node)]
        return np.argsort(key, kind="stable")

    def assemble(self, selection: np.ndarray):
        """Sparse linear system of the frozen-frame scheme, L u = rhs, with
        L in canonical CSR.  Block by block, each row's centre and arms go
        into a table of 2k + 1 slots in the order of their flat offsets,
        which is that of their ranks; L is the table's filled slots."""
        N = self.unknown_flat.shape[0]
        g = self.problem.boundary_values.reshape(-1)
        k = self.dirs.shape[1]
        steps = self.step[self.dirs]
        place = np.argsort(np.argsort(np.hstack([0 * steps[:, :1], steps, -steps]), axis=1), axis=1)
        cols = np.full((N, 2 * k + 1), -1, dtype=np.int32)  # POINT_CAP keeps N in int32
        vals = np.zeros(cols.shape)
        rhs = np.zeros(N)
        for blk in self._blocks(2 * k + 1):
            rows, sel = np.arange(blk.start, blk.stop), selection[blk]
            cols[rows, place[sel, 0]] = rows
            for s in range(k):
                w = self.weights[sel, s]
                pts = np.nonzero(w != 0.0)[0]
                d = self.dirs[sel[pts], s]
                coef = w[pts] * self.coeff[d]
                vals[rows[pts], place[sel[pts], 0]] -= 2.0 * coef
                # a selected combo's arms are valid
                center = self.unknown_flat[rows[pts]]
                for slot, nbr in ((1 + s, center + self.step[d]), (1 + k + s, center - self.step[d])):
                    r = self.rank[nbr]
                    inner = r >= 0
                    at = rows[pts[inner]], place[sel[pts[inner]], slot]
                    cols[at] = r[inner]
                    vals[at] = coef[inner]
                    rhs[rows[pts[~inner]]] -= coef[~inner] * g[nbr[~inner]]
        filled = cols >= 0
        indptr = np.pad(np.cumsum(filled.sum(axis=1), dtype=np.int32), (1, 0))
        cols = cols[filled]  # freed before the value table is compressed
        return __getattr__("sp").csr_matrix((vals[filled], cols, indptr), shape=(N, N)), rhs


def residual(u: GridFunction, index, op, stencil: Optional[StencilSet] = None) -> float:
    """Scheme residual of one operator at one interior point.

    The full stencil must fit inside the grid at the point and the values
    it reads must be finite, else StencilError; a spacing out of range
    is a DomainError, as for a solve.
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
    coeff = _coefficients(u.h, stencil.lengths, u.ndim)[:, None]
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

# Every linear solve refines its iterate until the componentwise
# backward error max |rhs - L x| / (|L| |x| + |rhs|) is at most this,
# which a fresh single-precision factor reaches in 2-3 solves at 257^2
# (2 from the previous policy step's iterate) ...
_BACKWARD_ERROR = 64 * np.finfo(float).eps
# ... or until this many corrections have been taken
_REFINE_STEPS = 8


def _factor(L, order):
    """Solve function of the single-precision LU factor of L with its
    unknowns eliminated in ``order``; it takes and returns float64.

    The permuted L is a nonsingular M-matrix, so it factors without
    pivoting or column reordering, in SuperLU panels of ``_PANEL``
    columns, which hold its work arrays to about 12 MB below its
    default width's at 257^2.  L and each right-hand side are
    scaled by powers of two to a largest entry in [1/2, 1) before the
    float32 cast, which keeps the scaling exact and data far below
    float32's range (subnormal boundary values, say) from flushing to
    zero; the solution is scaled back in float64.
    """
    shift = np.frexp(max(L.data.max(), -L.data.min()))[1]
    place = np.argsort(order).astype(L.indices.dtype)
    # P L P^T scaled: columns renamed to their places in ``order``, rows taken in it
    A = __getattr__("sp").csr_matrix((np.ldexp(L.data, -shift).astype(np.float32),
                                      place[L.indices], L.indptr), shape=L.shape)[order].tocsc()
    lu = __getattr__("spla").splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                  panel_size=_PANEL)

    def solve(b):
        e = np.frexp(np.max(np.abs(b)))[1]
        x = np.empty_like(b)
        y = lu.solve(np.ldexp(b[order], -e).astype(np.float32))
        x[order] = np.ldexp(y.astype(float), e - shift)
        return x

    return solve


def _refine(L, rhs, x, correct, target):
    """Iterative refinement of x toward ``L x = rhs`` in float64: add
    ``correct(rhs - L x)`` until the componentwise backward error is at
    most ``_BACKWARD_ERROR`` and max |rhs - L x| <= ``target``, for at
    most ``_REFINE_STEPS`` corrections (Carson and Higham 2018: a factor
    of precision u suffices while cond(L) u < 1).  Once the backward
    error is met, a correction that no longer lowers max |rhs - L x|
    ends the refinement, and the best iterate that met it is kept.
    """
    absL = __getattr__("sp").csr_matrix((np.abs(L.data), L.indices, L.indptr), shape=L.shape)
    best = None  # (max |r|, x) of the best iterate that met the backward error
    for step in range(_REFINE_STEPS + 1):
        r = rhs - L @ x
        if np.all(np.abs(r) <= _BACKWARD_ERROR * (absL @ np.abs(x) + np.abs(rhs))):
            top = np.max(np.abs(r))
            if top <= target:
                return x
            if best is not None and top >= best[0]:
                break
            best = top, x
        if step == _REFINE_STEPS:
            break
        x = x + correct(r)
    return x if best is None else best[1]


def _linear_step(scheme: _Scheme, sel: np.ndarray, u: np.ndarray, tol: float) -> None:
    """Solve the frozen selection's system from the iterate u toward tol,
    updating u's unknowns in place: assemble, order by the matrix's own
    graph, factor and refine.  The system and its factor are freed on
    return, before the next step assembles its own."""
    L, rhs = scheme.assemble(sel)
    correct = _factor(L, scheme.order(L))
    u[scheme.unknown_flat] = _refine(L, rhs, u[scheme.unknown_flat], correct, tol)


@np.errstate(over="ignore", invalid="ignore")
def _policy_iteration(scheme: _Scheme, u: np.ndarray, tol: float, max_iter: int) -> list:
    """Policy iteration on ``scheme`` from the iterate u, updated in place,
    for at most ``max_iter`` steps.  A step solves the frozen selection's
    system: one linear solve, or for the min-max form this loop on its
    pair view.  A selection solved earlier in this loop ends it.
    Returns the history: the pairs (linear solves so far, residual_sup),
    one before the first step and one after each.  A step that overflows
    leaves a non-finite iterate, which the next evaluate reports as
    DomainError."""
    solved = set()  # digests of the selections solved in this loop
    r, sel = scheme.evaluate(u)
    history = [(0, float(np.max(np.abs(r))))]
    while history[-1][1] > tol and len(history) <= max_iter:
        # a selection solved earlier in this loop is a policy that no
        # longer changes, or near-tied frames that each look better from
        # the other's solution at round-off cycling: either ends it
        digest = hashlib.sha256(sel).digest()
        if digest in solved:
            break
        solved.add(digest)
        if scheme.form == "minmax":
            solves = _policy_iteration(scheme.pair_view(sel), u, tol, max_iter)[-1][0]
        else:
            solves = 1
            _linear_step(scheme, sel, u, tol)
        r, sel = scheme.evaluate(u, keep=sel)
        history.append((history[-1][0] + solves, float(np.max(np.abs(r)))))
    return history


def solve(
    problem: DirichletProblem,
    stencil: Optional[StencilSet] = None,
    tol: float = 1e-8,
    max_iter: int = POLICY_STEP_CAP,
) -> SolveReport:
    """Solve the Dirichlet problem to ``residual_sup <= tol``.

    Policy iteration freezes the optimal frame choice and solves the
    resulting sparse linear system until the residual is at most tol or
    a selection repeats one solved before (see the module docstring; the
    linear trace form takes one solve).  One loop serves every
    operator, nested for min-max: for the 3-D second branch an outer
    step holds each point's pair and runs the same loop on the max form
    over that pair's two directions.

    ``max_iter`` caps the policy steps at each level.  ``iterations``
    counts linear solves; ``history`` holds (solves so far, residual_sup)
    before the first step and after each (outer) step, so its last entry
    is (iterations, residual_sup).  ``tol`` must be finite and >= 0 and
    ``max_iter`` an integer >= 1.
    """
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"solve tolerance must be finite and >= 0, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if stencil is None:
        stencil = make_stencil(problem.ndim)
    scheme = _Scheme(problem, stencil)
    u = problem.boundary_values.reshape(-1).astype(float).copy()
    if problem.punctures:
        u[np.ravel_multi_index(np.array(problem.punctures).T, problem.shape)] = 0.0
    history = _policy_iteration(scheme, u, tol, max_iter)
    it, res_sup = history[-1]
    return SolveReport(
        _solution_grid(problem, u), res_sup, it, res_sup <= tol, "policy", tuple(history)
    )


# -- verification and experiments -----------------------------------------------


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


# the sizes eps of the perturbations u + eps * psi that a removability
# experiment verifies, and C in its gap threshold C * (h + tol)
PERTURBATION_EPS = (1e-2, 1e-3)
GAP_CONSTANT = 5.0


def _perturbation_checks(
    u: GridFunction, problem: DirichletProblem, cone: ConeSpec, polar_p: float, eps_values
) -> dict:
    """Check ``u + eps * psi`` against ``cone`` for each eps, with psi the
    polar of exponent ``polar_p`` on the problem's punctures E.

    Every unknown cell whose stencil avoids E is checked, each at its own
    tolerance c(x) (``grids.subharmonic_verify``): the polar's third
    differences, which grow as eps / h^3 next to E, raise c only at the
    cells beside E, so a defect of u elsewhere is not absorbed.  Returns
    ``{eps: SubharmonicReport}``.
    """
    from . import riesz  # the polar kernel loads for this experiment only
    polar = riesz.build_polar(
        [problem.origin + problem.h * np.asarray(pt) for pt in problem.punctures], polar_p
    )
    coords = grids.grid_coordinates(problem.shape, problem.origin, problem.h)
    pts = np.stack([c.reshape(-1) for c in coords], axis=1)
    E = problem.puncture_mask()
    psi = GridFunction(polar.values(pts).reshape(problem.shape), problem.origin, problem.h, E)
    region = problem.unknown_mask()
    return {float(eps): grids.subharmonic_verify(grids.perturb(u, psi, eps), cone, region=region)
            for eps in eps_values}


def removability_experiment(
    problem: DirichletProblem,
    punctures,
    polar_p: Optional[float] = None,
    stencil: Optional[StencilSet] = None,
    tol: float = 1e-9,
) -> RemovabilityReport:
    """Solve, puncture, extend, and verify the perturbation by a polar.

    Steps: (i) solve the full problem; (ii) solve with the punctures
    excluded; (iii) extend the punctured solution across them; (iv) build
    the polar function of the punctures and verify that the punctured
    solution plus eps times the polar stays subharmonic, for each eps in
    ``PERTURBATION_EPS``, at every unknown cell whose stencil avoids the
    punctures, each cell at its own tolerance (``_perturbation_checks``);
    (v) compare extension with the full solution.  Passing needs the
    off-puncture sup gap below ``GAP_CONSTANT * (h + tol)``, which must
    be finite, and every perturbation check clean.

    The polar exponent must be at least 2 (no finite point set is polar
    below that), and the operator's cone F must pass a randomized
    certification of F + pp:polar_p in F, on 2,000 samples drawn with
    seed 0; a partial-sum operator pp:p passes exactly when polar_p <= p.
    """
    if problem.punctures:
        raise DomainError("pass the puncture set separately, not in the problem")
    threshold = GAP_CONSTANT * (problem.h + tol)
    if not math.isfinite(threshold):
        raise DomainError(
            f"gap threshold {GAP_CONSTANT:g} * (h + tol) must be finite, got {threshold}")
    kind, val = problem.operator
    nd = problem.ndim
    idx_pts = _lattice_indices(punctures, problem.origin, problem.h)
    if not idx_pts:
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
    polar_cone = cones.pp_cone(polar_p, nd)
    rep = cones.check_relation(cone, polar_cone, SampleConfig(seed=0, count=2000))
    if not rep.passed:
        family = "" if rep.family == "goe" else f" of the {rep.family} pairs"
        raise DomainError(
            f"{cone.describe()} is not certified monotone for {polar_cone.describe()}; "
            f"counterexample at sample {rep.failure_index}{family}"
        )

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

    reps = _perturbation_checks(punct.solution, punctured_problem, cone, polar_p, PERTURBATION_EPS)
    checks = {eps: len(rep.violations) for eps, rep in reps.items()}
    passed = not any(checks.values()) and sup_gap <= threshold
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

# name -> (numpy function, number of arguments); a fixed count keeps a
# call from passing a coordinate array as an ``out`` argument
_EXPR_FUNCS = {
    "sqrt": (np.sqrt, 1),
    "log": (np.log, 1),
    "exp": (np.exp, 1),
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "tan": (np.tan, 1),
    "abs": (np.abs, 1),
    "minimum": (np.minimum, 2),
    "maximum": (np.maximum, 2),
    "hypot": (np.hypot, 2),
    "arctan2": (np.arctan2, 2),
    "where": (np.where, 3),
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
        func, arity = _EXPR_FUNCS[node.func.id]
        if len(node.args) != arity:
            raise DomainError(
                f"boundary expression calls {node.func.id} with {len(node.args)} "
                f"argument(s); it takes {arity}"
            )
        return func(*[_eval_node(a, names) for a in node.args])
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


def _refuse_unread(obj: dict, name: str, keys) -> None:
    """Raise DomainError naming the first key of ``obj`` not in ``keys``."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise DomainError(f"problem {name} has no key {unknown[0]!r} (its keys: {', '.join(keys)})")


def problem_from_config(cfg: dict) -> DirichletProblem:
    """Build a problem from its JSON dict form.

    Keys: ``operator`` ("pp"/"branch") with ``p`` or ``k``; ``grid`` with
    shape/origin/h; ``boundary`` with one of ``expr`` and ``grid_file``;
    optional ``hole`` box {min, max}, ``puncture`` point list and
    ``stencil_reach``, which the caller reads (``make_stencil``).  Any
    other key, at the top or in an object, is a DomainError.
    """
    try:
        grid = cfg["grid"]
        shape = tuple(int(s) for s in grid["shape"])
        nd = len(shape)
        origin = np.asarray(grid["origin"], dtype=float).reshape(nd)
        h = float(grid["h"])
        op_kind = cfg["operator"]
        param = "p" if op_kind == "pp" else "k"
        op = _normalize_op((op_kind, cfg[param]), nd)
        boundary = dict(cfg["boundary"])
        box = cfg.get("hole")
        if box:
            box = [np.asarray(box[key], dtype=float).reshape(nd) for key in ("min", "max")]
    except KeyError as exc:
        raise DomainError(f"problem config is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed problem config: {exc}") from exc
    _refuse_unread(cfg, "config", ("operator", param, "grid", "boundary", "hole", "puncture",
                                   "stencil_reach"))
    _refuse_unread(grid, "grid", ("shape", "origin", "h"))
    if box:
        _refuse_unread(cfg["hole"], "hole", ("min", "max"))
    _refuse_unread(boundary, "boundary", ("expr", "grid_file"))
    if ("expr" in boundary) == ("grid_file" in boundary):
        raise DomainError("boundary needs exactly one of 'expr' and 'grid_file'")
    _check_lattice(shape, origin, h)
    punctures = _lattice_indices(cfg.get("puncture") or [], origin, h)
    coords = grids.grid_coordinates(shape, origin, h)
    if "expr" in boundary:
        g = evaluate_expression(boundary["expr"], coords)
    else:
        gf = grids.read_grid(boundary["grid_file"])
        if gf.shape != shape:
            raise DomainError("boundary grid file does not match the problem grid")
        g = np.array(gf.values)
    hole = None
    if box:
        lo, hi = box
        hole = np.ones(shape, dtype=bool)
        for d in range(nd):
            hole &= (coords[d] >= lo[d] - 1e-12) & (coords[d] <= hi[d] + 1e-12)
    return DirichletProblem(shape, origin, h, op, g, hole, tuple(punctures))
