"""Extended-real functions on rectangular lattices: canonical extension
across singular sets, discrete 2-jets, cone-membership verification at
grid scale, perturbation by polar functions, distance-function jets, and
the upper-conical test.

A note on certification: the verification routines certify inequalities
at grid scale only.  Viscosity properties of non-smooth data are not
decidable from finitely many samples; reports carry this caveat.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cones
from .errors import DomainError, StencilError
from .symmat import Frame, Jet2, SymMatrix

GRID_SCALE_NOTE = (
    "certified at grid scale only: subharmonicity of non-smooth data "
    "is not decidable from samples"
)

EXTENSION_RADIUS_CAP = 5
_PROBE_RADIUS = 3  # Chebyshev radius of upper_conical_check's probe neighborhood


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Extended-real values on a uniform rectangular lattice.

    ``values[i1, ..., ik]`` sits at ``origin + h * (i1, ..., ik)``; entries
    are finite or -inf.  ``mask`` flags the singular set E.
    """

    values: np.ndarray
    origin: np.ndarray
    h: float
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        origin = np.asarray(self.origin, dtype=float).ravel()
        if vals.ndim != origin.shape[0]:
            raise DomainError(
                f"origin dim {origin.shape[0]} != value array dim {vals.ndim}"
            )
        if not 0 < self.h < math.inf:
            raise DomainError(f"grid spacing must be finite and > 0, got {self.h}")
        if not np.all(np.isfinite(origin)):
            raise DomainError(f"grid origin must be finite, got {origin.tolist()}")
        if np.any(np.isnan(vals)) or np.any(np.isposinf(vals)):
            raise DomainError("grid values must be finite or -inf")
        mask = self.mask
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != vals.shape:
                raise DomainError("mask shape must match value shape")
            mask.flags.writeable = False
        vals.flags.writeable = False
        origin.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "mask", mask)

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def point(self, index) -> np.ndarray:
        return self.origin + self.h * np.asarray(index, dtype=float)

    def masked(self) -> np.ndarray:
        if self.mask is None:
            return np.zeros(self.shape, dtype=bool)
        return self.mask

    def same_geometry(self, other: "GridFunction") -> bool:
        return (
            self.shape == other.shape
            and abs(self.h - other.h) <= 1e-12 * self.h
            and np.all(np.abs(self.origin - other.origin) <= 1e-12 * (1 + np.abs(self.origin)))
        )


def grid_coordinates(shape, origin, h) -> list[np.ndarray]:
    """Coordinate arrays (meshgrid, ij indexing) of a lattice."""
    axes = [origin[d] + h * np.arange(shape[d]) for d in range(len(shape))]
    return np.meshgrid(*axes, indexing="ij")


def from_function(shape, origin, h, fn, mask=None) -> GridFunction:
    """Sample ``fn(coordinate arrays) -> values`` on a lattice."""
    coords = grid_coordinates(shape, np.asarray(origin, dtype=float), h)
    return GridFunction(np.asarray(fn(*coords), dtype=float), origin, h, mask)


# -- canonical upper semicontinuous extension ---------------------------------


@dataclass(frozen=True)
class ExtensionReport:
    """Outcome of a canonical extension; agrees with the input off the mask."""

    extended: GridFunction
    changed_points: int
    sup_change: float


def _chebyshev_shells(ndim: int, cap: int) -> list[np.ndarray]:
    shells = []
    for r in range(1, cap + 1):
        offs = [
            o
            for o in itertools.product(range(-r, r + 1), repeat=ndim)
            if max(abs(c) for c in o) == r
        ]
        shells.append(np.array(offs, dtype=np.intp))
    return shells


def canonical_extension(
    u: GridFunction, radius_cap: int = EXTENSION_RADIUS_CAP
) -> ExtensionReport:
    """Discrete limsup extension across the masked set.

    At each masked point the value becomes the sup of u over the nearest
    Chebyshev shell of unmasked points, growing the shell radius until one
    is non-empty.  Points with no unmasked neighbor within ``radius_cap``
    cells count as interior to the singular set and become -inf.  Unmasked
    values pass through unchanged; the operation is idempotent and
    monotone.
    """
    mask = u.masked()
    if not mask.any():
        return ExtensionReport(u, 0, 0.0)
    if mask.all():
        raise DomainError("cannot extend a fully masked grid")
    shells = _chebyshev_shells(u.ndim, radius_cap)
    vals = np.array(u.values)
    shape = np.array(u.shape)
    changed = 0
    sup_change = 0.0
    for idx in np.argwhere(mask):
        new = -np.inf
        for shell in shells:
            pts = idx + shell
            ok = np.all((pts >= 0) & (pts < shape), axis=1)
            if not ok.any():
                continue
            pts = pts[ok]
            keep = ~mask[tuple(pts.T)]
            if keep.any():
                new = float(np.max(u.values[tuple(pts[keep].T)]))
                break
        old = u.values[tuple(idx)]
        if new != old and not (np.isneginf(new) and np.isneginf(old)):
            changed += 1
            if np.isfinite(new) and np.isfinite(old):
                sup_change = max(sup_change, abs(new - old))
            else:
                sup_change = np.inf
        vals[tuple(idx)] = new
    return ExtensionReport(GridFunction(vals, u.origin, u.h, u.mask), changed, sup_change)


# -- discrete jets ------------------------------------------------------------


def _usable(u: GridFunction) -> np.ndarray:
    return np.isfinite(u.values) & ~u.masked()


def _shifted(arr: np.ndarray, offset) -> np.ndarray:
    """View of the interior block shifted by ``offset`` (offsets in -1..1)."""
    slices = []
    for o in offset:
        if o == -1:
            slices.append(slice(0, -2))
        elif o == 0:
            slices.append(slice(1, -1))
        else:
            slices.append(slice(2, None))
    return arr[tuple(slices)]


def _hessian_offsets(ndim: int) -> list[tuple]:
    offs = [tuple(0 for _ in range(ndim))]
    for i in range(ndim):
        for s in (-1, 1):
            o = [0] * ndim
            o[i] = s
            offs.append(tuple(o))
    for i in range(ndim):
        for j in range(i + 1, ndim):
            for si in (-1, 1):
                for sj in (-1, 1):
                    o = [0] * ndim
                    o[i], o[j] = si, sj
                    offs.append(tuple(o))
    return offs


def discrete_hessian_field(u: GridFunction):
    """Batched central-difference 2-jets at every admissible interior point.

    Returns ``(indices, values, gradients, hessians)`` with shapes
    (N, ndim), (N,), (N, ndim), (N, ndim, ndim).  A point is admissible
    when its full second-difference stencil stays in bounds, unmasked,
    and finite.  Mixed derivatives use the symmetric 4-point stencil, so
    the discrete Hessian is exactly symmetric.
    """
    nd = u.ndim
    if any(s < 3 for s in u.shape):
        raise DomainError("Hessian operations need at least 3 points per axis")
    usable = _usable(u)
    ok = _shifted(usable, (0,) * nd).copy()
    for off in _hessian_offsets(nd):
        ok &= _shifted(usable, off)
    vals = np.where(usable, u.values, 0.0)  # unusable cells feed dropped points only
    h = u.h
    center = _shifted(vals, (0,) * nd)
    grad = np.empty(center.shape + (nd,))
    hess = np.empty(center.shape + (nd, nd))
    for i in range(nd):
        up = _shifted(vals, tuple(1 if d == i else 0 for d in range(nd)))
        dn = _shifted(vals, tuple(-1 if d == i else 0 for d in range(nd)))
        grad[..., i] = (up - dn) / (2 * h)
        hess[..., i, i] = (up - 2 * center + dn) / (h * h)
    for i in range(nd):
        for j in range(i + 1, nd):
            def at(si, sj):
                off = [0] * nd
                off[i], off[j] = si, sj
                return _shifted(vals, tuple(off))

            mixed = (at(1, 1) + at(-1, -1) - at(1, -1) - at(-1, 1)) / (4 * h * h)
            hess[..., i, j] = mixed
            hess[..., j, i] = mixed
    idx = np.argwhere(ok) + 1
    flat_ok = ok.reshape(-1)
    return (
        idx,
        center.reshape(-1)[flat_ok],
        grad.reshape(-1, nd)[flat_ok],
        hess.reshape(-1, nd, nd)[flat_ok],
    )


def discrete_hessian(u: GridFunction, index) -> Jet2:
    """Central-difference 2-jet at one interior unmasked point.

    The point's row of ``discrete_hessian_field``, computed on the
    3^ndim block around it.  O(h^2) consistent on C^4 data and exact (to
    roundoff) on quadratics.  Raises StencilError when the stencil is
    clipped by the boundary or touches the mask.
    """
    nd = u.ndim
    idx = tuple(int(i) for i in index)
    if len(idx) != nd:
        raise DomainError(f"index length {len(idx)} != grid dim {nd}")
    if any(i < 1 or i > s - 2 for i, s in zip(idx, u.shape)):
        raise StencilError(f"stencil at {idx} is clipped by the grid boundary")
    block = tuple(slice(i - 1, i + 2) for i in idx)
    mask = None if u.mask is None else u.mask[block]
    _, value, grad, hess = discrete_hessian_field(
        GridFunction(u.values[block], u.origin, u.h, mask)
    )
    if not value.size:
        raise StencilError(f"stencil at {idx} touches a masked or -inf cell")
    return Jet2(float(value[0]), grad[0], SymMatrix(hess[0]))


def third_difference_kappa(u: GridFunction) -> float:
    """Largest axis third-difference magnitude, an estimate of sup|D^3 u|."""
    usable = _usable(u)
    kappa = 0.0
    h3 = u.h**3
    for axis in range(u.ndim):
        n = u.shape[axis]
        if n < 4:
            continue
        sl = [slice(None)] * u.ndim

        def take(lo, hi):
            s = list(sl)
            s[axis] = slice(lo, n + hi if hi < 0 else None)
            return s

        v0 = u.values[tuple(take(0, -3))]
        v1 = u.values[tuple(take(1, -2))]
        v2 = u.values[tuple(take(2, -1))]
        s3 = [slice(None)] * u.ndim
        s3[axis] = slice(3, None)
        v3 = u.values[tuple(s3)]
        m = (
            usable[tuple(take(0, -3))]
            & usable[tuple(take(1, -2))]
            & usable[tuple(take(2, -1))]
            & usable[tuple(s3)]
        )
        if m.any():
            d3 = np.abs(v3[m] - 3 * v2[m] + 3 * v1[m] - v0[m]) / h3
            kappa = max(kappa, float(d3.max()))
    return kappa


@dataclass(frozen=True)
class Violation:
    index: tuple
    margin: float


@dataclass(frozen=True)
class SubharmonicReport:
    """Points where the discrete Hessian leaves the enlarged cone."""

    violations: list
    c_tol: float
    points_checked: int
    note: str = GRID_SCALE_NOTE

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"index": list(v.index), "margin": float(v.margin)}
                for v in self.violations[:32]
            ],
            "violation_count": len(self.violations),
            "c_tol": float(self.c_tol),
            "points_checked": int(self.points_checked),
            "note": self.note,
        }


def subharmonic_verify(
    u: GridFunction,
    spec: cones.ConeSpec,
    c_tol: Optional[float] = None,
    region: Optional[np.ndarray] = None,
) -> SubharmonicReport:
    """Check discrete Hessians against the cone enlarged by ``c_tol``.

    ``c_tol`` defaults to ``kappa * h`` with kappa estimated from the
    data's third differences, which absorbs the O(h) consistency error of
    the stencil on resolved data.  ``region`` optionally restricts which
    points are checked (stencils may still read values outside it).  Only
    grid-scale certification; see the report note.
    """
    if spec.dim != u.ndim:
        raise DomainError(f"cone dim {spec.dim} != grid dim {u.ndim}")
    if c_tol is None:
        c_tol = third_difference_kappa(u) * u.h
    idx, _, _, hess = discrete_hessian_field(u)
    if region is not None:
        region = np.asarray(region, dtype=bool)
        if region.shape != u.shape:
            raise DomainError("region mask shape must match the grid")
        keep = region[tuple(idx.T)]
        idx, hess = idx[keep], hess[keep]
    if idx.shape[0] == 0:
        return SubharmonicReport([], float(c_tol), 0)
    enlarged = cones.enlarged_cone(spec, float(c_tol)) if c_tol > 0 else spec
    m = cones.margins(enlarged, hess)
    bad = np.nonzero(m < cones.thresholds(hess))[0]
    violations = [Violation(tuple(int(i) for i in idx[b]), float(m[b])) for b in bad]
    return SubharmonicReport(violations, float(c_tol), int(idx.shape[0]))


def perturb(u: GridFunction, psi: GridFunction, eps: float) -> GridFunction:
    """Pointwise ``u + eps * psi`` with -inf absorbing; masks are unioned."""
    if not u.same_geometry(psi):
        raise DomainError("perturbation needs identical grid geometry")
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    mask = None
    if u.mask is not None or psi.mask is not None:
        mask = u.masked() | psi.masked()
    if eps == 0.0:
        return GridFunction(u.values, u.origin, u.h, mask)
    neg = np.isneginf(u.values) | np.isneginf(psi.values)
    vals = np.where(neg, -np.inf, u.values + eps * np.where(neg, 0.0, psi.values))
    return GridFunction(vals, u.origin, u.h, mask)


# -- distance jets for flat singular sets -------------------------------------


@dataclass(frozen=True)
class AffineFlat:
    """A point (tangent=None) or an affine plane through ``point`` spanned
    by the tangent frame."""

    point: np.ndarray
    tangent: Optional[Frame] = None

    def __post_init__(self):
        q = np.asarray(self.point, dtype=float).ravel()
        q.flags.writeable = False
        object.__setattr__(self, "point", q)
        if self.tangent is not None and self.tangent.ambient_dim != q.shape[0]:
            raise DomainError("tangent frame dimension does not match the point")

    @property
    def n(self) -> int:
        return self.point.shape[0]


def distance_jet(flat: AffineFlat, x) -> Jet2:
    """Exact 2-jet of the distance function to a flat set at x off the set.

    The value is the distance, the gradient the unit vector from the foot
    point, and the Hessian ``(1/dist) P_S`` with S the normal space of the
    set intersected with the gradient's orthogonal complement (flat sets
    carry no curvature term).
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != flat.n:
        raise DomainError(f"point dim {x.shape[0]} != set dim {flat.n}")
    q = flat.point
    if flat.tangent is None:
        foot = q
        normal_proj = np.eye(flat.n)
    else:
        V = flat.tangent.vectors
        foot = q + V.T @ (V @ (x - q))
        normal_proj = np.eye(flat.n) - V.T @ V
    diff = x - foot
    dist = float(np.linalg.norm(diff))
    if dist <= 1e-12 * (1.0 + np.linalg.norm(x)):
        raise DomainError("distance jet is undefined on the set itself")
    nu = diff / dist
    hess = (normal_proj - np.outer(nu, nu)) / dist
    return Jet2(dist, nu, SymMatrix(hess))


# -- upper-conical test --------------------------------------------------------


@dataclass(frozen=True)
class UpperConicalResult:
    """Outcome of the dominating-quadratic search at a grid point.

    ``test_found`` means some quadratic with Hessian norm at most
    ``hess_bound`` dominates ``U + eps * |x - q|`` near q with equality at
    q; absence is certified only within that bound (label ``within
    bound``) and on the probed neighborhood.
    """

    test_found: bool
    witness: Optional[Jet2]
    slack: float
    eps: float
    hess_bound: float
    label: str = "within bound"

    def to_dict(self) -> dict:
        out = {
            "test_found": bool(self.test_found),
            "slack": float(self.slack),
            "eps": float(self.eps),
            "hess_bound": float(self.hess_bound),
            "label": self.label,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


def upper_conical_check(
    u: GridFunction,
    index,
    eps: float,
    hess_bound: float,
) -> UpperConicalResult:
    """Search for a test function of ``U + eps dist(., q)`` at a grid point.

    Any admissible Hessian is dominated by ``hess_bound * I``, so the
    search reduces to linear feasibility in the gradient alone over the
    probe neighborhood (the cells within Chebyshev distance 3):

        <g, x - q>  >=  U(x) - U(q) + eps |x - q| - hess_bound |x - q|^2 / 2

    solved exactly as a small LP.  ``test_found`` returns the witness jet;
    otherwise absence is certified within the bound.
    """
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    if hess_bound < 0:
        raise DomainError(f"hess_bound must be >= 0, got {hess_bound}")
    nd = u.ndim
    idx = tuple(int(i) for i in index)
    if any(i - _PROBE_RADIUS < 0 or i + _PROBE_RADIUS > s - 1 for i, s in zip(idx, u.shape)):
        raise DomainError("probe neighborhood touches the grid boundary")
    uq = float(u.values[idx])
    if not np.isfinite(uq):
        raise DomainError("upper conical test needs a finite value at the point")
    offsets = np.array(
        [
            o
            for o in itertools.product(range(-_PROBE_RADIUS, _PROBE_RADIUS + 1), repeat=nd)
            if any(o)
        ],
        dtype=float,
    )
    pts = np.asarray(idx, dtype=int) + offsets.astype(int)
    uvals = u.values[tuple(pts.T)]
    usable = np.isfinite(uvals) & ~u.masked()[tuple(pts.T)]
    xi = u.h * offsets[usable]
    norms = np.linalg.norm(xi, axis=1)
    c = uvals[usable] - uq + eps * norms - 0.5 * hess_bound * norms**2
    from scipy.optimize import linprog  # 0.3 s to import; only this test needs it

    # minimize t subject to <g, xi_i> + t >= c_i, variables (g, t) free
    A_ub = np.column_stack([-xi, -np.ones(xi.shape[0])])
    res = linprog(
        c=np.concatenate([np.zeros(nd), [1.0]]),
        A_ub=A_ub,
        b_ub=-c,
        bounds=[(None, None)] * (nd + 1),
        method="highs",
    )
    if not res.success:  # pragma: no cover - highs handles these LPs
        raise DomainError(f"feasibility LP failed: {res.message}")
    t_star = float(res.fun)
    feas_tol = 1e-9 * (1.0 + float(np.max(np.abs(c))) if c.size else 1.0)
    if t_star <= feas_tol:
        g = res.x[:nd]
        witness = Jet2(uq, g, SymMatrix(hess_bound * np.eye(nd)))
        return UpperConicalResult(True, witness, -t_star, eps, hess_bound)
    return UpperConicalResult(False, None, -t_star, eps, hess_bound)


# -- grid file format ----------------------------------------------------------


def write_grid(path, u: GridFunction) -> None:
    """Write the grid format: header, optional mask block, then value rows."""
    with open(path, "w", encoding="utf-8") as fh:
        shape = ",".join(str(s) for s in u.shape)
        origin = ",".join(repr(float(v)) for v in u.origin)
        fh.write(f"grid n={u.ndim} shape={shape} origin={origin} h={u.h!r}\n")
        # repr of a Python float is the shortest round-trip form, "-inf" included
        if u.mask is not None:
            fh.write("mask\n")
            for row in u.mask.reshape(-1, u.shape[-1]).tolist():
                fh.write(",".join("1" if v else "0" for v in row) + "\n")
        for row in u.values.reshape(-1, u.shape[-1]).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def parse_geometry(text: str):
    """Shape, origin and h from ``shape=.. origin=.. h=..`` tokens; an
    ``n=`` token, as in a grid file header, must agree with the shape."""
    fields = dict(token.partition("=")[::2] for token in text.split())
    try:
        shape = tuple(int(s) for s in fields["shape"].split(","))
        origin = np.array([float(v) for v in fields["origin"].split(",")])
        h = float(fields["h"])
        nd = int(fields.get("n", len(shape)))
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed grid geometry {text!r}: {exc}") from exc
    if len(shape) != nd or origin.shape[0] != nd or min(shape) < 1:
        raise DomainError(f"grid geometry {text!r} has inconsistent dimensions")
    if not (0 < h < math.inf and np.all(np.isfinite(origin))):
        raise DomainError(f"grid geometry {text!r} needs a finite origin and a finite h > 0")
    return shape, origin, h


_MASK_TOKENS = {"0": False, "1": True}


def read_grid(path) -> GridFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"could not read grid file {path}: {exc}") from exc
    if not lines or not lines[0].startswith("grid "):
        raise DomainError(f"not a grid file: {path}")
    shape, origin, h = parse_geometry(lines[0][len("grid ") :])
    nrows = math.prod(shape[:-1])
    cursor = 1
    mask = None
    try:
        if cursor < len(lines) and lines[cursor].strip() == "mask":
            cursor += 1
            rows = []
            for _ in range(nrows):
                rows.append([_MASK_TOKENS[tok.strip()] for tok in lines[cursor].split(",")])
                cursor += 1
            mask = np.array(rows, dtype=bool).reshape(shape)
        rows = []
        for _ in range(nrows):
            rows.append([float(tok) for tok in lines[cursor].split(",")])
            cursor += 1
        values = np.array(rows, dtype=float).reshape(shape)
    except KeyError as exc:
        raise DomainError(f"mask entries in {path} must be 0 or 1, got {exc}") from exc
    except (IndexError, ValueError) as exc:
        raise DomainError(f"malformed grid data in {path}: {exc}") from exc
    if any(line.strip() for line in lines[cursor:]):
        raise DomainError(f"{path} holds rows past its shape {shape}")
    return GridFunction(values, origin, h, mask)
