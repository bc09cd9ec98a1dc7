"""Extended-real functions on rectangular lattices: canonical extension
across singular sets, discrete 2-jets, cone-membership verification at
grid scale, perturbation by polar functions, and the grid file format.

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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, StencilError
from .symmat import Jet2, SymMatrix, _parse_float_row, csv_lines, read_text, write_text

GRID_SCALE_NOTE = (
    "certified at grid scale only: subharmonicity of non-smooth data "
    "is not decidable from samples"
)

EXTENSION_RADIUS_CAP = 5
# the most points a lattice may have, checked before any array over it is
# built: 1025^2 and 128^3 lattices fit, and one float64 array is 16 MiB
POINT_CAP = 2**21


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
        check_geometry(vals.shape, origin, self.h)
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

    def to_dict(self) -> dict:  # an infinite sup_change (a cell to or from -inf) is null
        sup = float(self.sup_change)
        return {"changed_points": int(self.changed_points),
                "sup_change": sup if math.isfinite(sup) else None}


# signed order on these int64 keys of float64 bits is IEEE totalOrder
# (-0.0 < +0.0): a negative float flips its magnitude bits.  The map is its
# own inverse, and int64.min, the key of a NaN, lies below every grid value
_UNREACHED = np.iinfo(np.int64).min


def _total_order(bits: np.ndarray) -> np.ndarray:
    return bits ^ ((bits >> 63) & np.int64(2**63 - 1))


def _grow_cube(a: np.ndarray) -> None:
    """Replace each cell of ``a``, in place, by the max over its 3^ndim
    cube: a 3-wide max along each axis in turn."""
    for axis in range(a.ndim):  # numpy buffers the overlapping operands
        line = np.moveaxis(a, axis, 0)
        np.maximum(line[:-1], line[1:], out=line[:-1])
        np.maximum(line[1:], line[:-1], out=line[1:])


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

    Method: masked cells start below every value, and each radius takes a
    3-wide max along every axis in turn, so after radius r each cell holds
    the max of the unmasked values in its (2r + 1)^ndim cube.  A masked
    cell is closed at the first radius that reaches it; no unmasked cell
    lies nearer, so that cube max is the max over its nearest shell.  The
    max is IEEE totalOrder: a shell holding 0.0 and -0.0 gives 0.0, and
    every extended value is, bit for bit, that of an unmasked cell.  Each
    radius costs O(ndim * N) work and O(N) memory on an N-point grid; the
    radii stop at ``max(u.shape) - 1``, past which no cube grows, whatever
    the cap.
    """
    if not (isinstance(radius_cap, (int, np.integer)) and radius_cap >= 1):
        raise DomainError(f"extension radius cap must be an integer >= 1, got {radius_cap!r}")
    mask = u.masked()
    if not mask.any():
        return ExtensionReport(u, 0, 0.0)
    if mask.all():
        raise DomainError("cannot extend a fully masked grid")
    top = np.where(mask, _UNREACHED, _total_order(u.values.view(np.int64)))
    keys, pending = top.copy(), mask.copy()
    for _ in range(min(radius_cap, max(u.shape) - 1)):
        _grow_cube(top)
        hit = pending & (top != _UNREACHED)
        np.copyto(keys, top, where=hit)
        pending ^= hit
        if not pending.any():
            break
    vals = np.where(keys == _UNREACHED, -np.inf, _total_order(keys).view(np.float64))
    new, old = vals[mask], u.values[mask]
    changed = (new != old) & ~(np.isneginf(new) & np.isneginf(old))
    with np.errstate(over="ignore"):
        gaps = np.abs(new[changed] - old[changed])  # inf where one side is -inf
    return ExtensionReport(
        GridFunction(vals, u.origin, u.h, u.mask),
        int(gaps.size),
        float(np.max(gaps, initial=0.0)),
    )


# -- discrete jets ------------------------------------------------------------


def _spacing_power(h: float, k: int) -> np.float64:
    """h^k, inf where it overflows (not OverflowError); a power that
    underflows to 0 is a DomainError naming the spacing."""
    with np.errstate(over="ignore"):
        hk = np.float64(h) ** k
    if hk == 0.0:
        raise DomainError(f"grid spacing {h!r} is out of range: h^{k} underflows to 0")
    return hk


def _check_second_differences(h: float) -> None:
    """A spacing whose second-difference coefficient 1/h^2 is not finite
    is a DomainError naming it, by the rule of ``solver._coefficients``."""
    with np.errstate(over="ignore", divide="ignore"):
        if not np.isfinite(1.0 / np.float64(h) ** 2):
            raise DomainError(f"grid spacing {h!r} is out of range: 1/h^2 overflows")


def _usable(u: GridFunction) -> np.ndarray:
    return np.isfinite(u.values) & ~u.masked()


def discrete_hessian_field(u: GridFunction):
    """Batched central-difference 2-jets at every admissible interior point.

    Returns ``(indices, values, gradients, hessians)`` with shapes
    (N, ndim), (N,), (N, ndim), (N, ndim, ndim).  Each interior point reads
    the 3^ndim window around it; its stencil is the window cells with at
    most two off-centre coordinates (the centre, the axis neighbors and
    the 2-D diagonals).  A point is admissible when that stencil is
    unmasked and finite.  Mixed derivatives use the symmetric 4-point
    stencil, so the discrete Hessian is exactly symmetric.  A spacing
    whose 1/h^2 is not finite is a DomainError, whatever the data.
    """
    nd = u.ndim
    if any(s < 3 for s in u.shape):
        raise DomainError("Hessian operations need at least 3 points per axis")
    _check_second_differences(u.h)
    usable = _usable(u)
    stencil = np.sum(np.indices((3,) * nd) != 1, axis=0) <= 2
    ok = sliding_window_view(usable, (3,) * nd)[..., stencil].all(axis=-1)
    vals = np.where(usable, u.values, 0.0)  # unusable cells feed dropped points only
    win = sliding_window_view(vals, (3,) * nd)

    def along(*axes):
        """The window cells off the centre along ``axes`` only."""
        return win[(...,) + tuple(slice(None) if d in axes else 1 for d in range(nd))]

    h = u.h
    center = along()
    grad = np.empty(center.shape + (nd,))
    hess = np.empty(center.shape + (nd, nd))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(nd):
            up, dn = along(i)[..., 2], along(i)[..., 0]
            grad[..., i] = (up - dn) / (2 * h)
            hess[..., i, i] = (up - 2 * center + dn) / (h * h)
        for i, j in itertools.combinations(range(nd), 2):
            sq = along(i, j)
            mixed = (sq[..., 2, 2] + sq[..., 0, 0] - sq[..., 2, 0] - sq[..., 0, 2]) / (4 * h * h)
            hess[..., i, j] = mixed
            hess[..., j, i] = mixed
    flat = ok.reshape(-1)  # a 1-D mask gathers without building per-axis index arrays
    return (
        np.argwhere(ok) + 1,
        center.reshape(-1)[flat],
        grad.reshape(-1, nd)[flat],
        hess.reshape(-1, nd, nd)[flat],
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


def third_difference_tolerance(u: GridFunction) -> np.ndarray:
    """Per-cell tolerance c(x) = h * kappa(x), with kappa(x) the largest
    axis third-difference magnitude of the 4-cell windows that meet x's
    3^ndim cube, an estimate of sup|D^3 u| near x; windows with a masked
    or -inf cell are skipped.  Overflow makes c inf, nan or 0 without a
    warning; a spacing whose cube underflows to 0 is a DomainError."""
    usable = _usable(u)
    kappa = np.zeros(u.shape)
    for axis in range(u.ndim):
        if u.shape[axis] < 4:
            continue
        ok, (v0, v1, v2, v3) = (
            np.moveaxis(sliding_window_view(a, 4, axis=axis), -1, 0) for a in (usable, u.values)
        )
        m = np.logical_and.reduce(ok)
        if not m.any():
            continue
        h3 = _spacing_power(u.h, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.moveaxis(np.where(m, np.abs(v3 - 3 * v2 + 3 * v1 - v0) / h3, 0.0), axis, 0)
        line = np.moveaxis(kappa, axis, 0)
        for k in range(4):
            np.maximum(line[k : k + d.shape[0]], d, out=line[k : k + d.shape[0]])
    _grow_cube(kappa)
    with np.errstate(over="ignore"):
        return kappa * u.h


@dataclass(frozen=True)
class Violation:
    index: tuple
    margin: float


@dataclass(frozen=True)
class SubharmonicReport:
    """Cells whose discrete Hessian plus their tolerance leaves the cone."""

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
    region: Optional[np.ndarray] = None,
) -> SubharmonicReport:
    """Check that each discrete Hessian A(x) + c(x) I lies in ``spec``.

    c(x) is ``third_difference_tolerance(u)`` at x: it absorbs the O(h)
    error of the stencil on resolved data, and a steep feature raises it
    only next to that feature.  The report's ``c_tol`` is the largest
    c(x) checked (0 if none).  A c(x) that is not finite raises
    DomainError.  ``region`` optionally restricts which points are
    checked (stencils and windows may still read values outside it).
    Only grid-scale certification; see the report note.
    """
    from . import cones  # the cone catalogue loads for verification only
    if spec.dim != u.ndim:
        raise DomainError(f"cone dim {spec.dim} != grid dim {u.ndim}")
    idx, _, _, hess = discrete_hessian_field(u)
    if region is not None:
        region = np.asarray(region, dtype=bool)
        if region.shape != u.shape:
            raise DomainError("region mask shape must match the grid")
        keep = region[tuple(idx.T)]
        idx, hess = idx[keep], hess[keep]
    c = third_difference_tolerance(u)[tuple(idx.T)]
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise DomainError(f"c_tol estimated from third differences must be finite, "
                          f"got {c[bad[0]]} at {tuple(idx[bad[0]].tolist())}")
    if idx.shape[0] == 0:
        return SubharmonicReport([], 0.0, 0)
    m = cones._margin_machine(spec, hess)[0](c)
    bad = np.nonzero(m < cones.thresholds(hess))[0]
    violations = [Violation(tuple(int(i) for i in idx[b]), float(m[b])) for b in bad]
    return SubharmonicReport(violations, float(c.max()), int(idx.shape[0]))


def perturb(u: GridFunction, psi: GridFunction, eps: float) -> GridFunction:
    """Pointwise ``u + eps * psi`` with -inf absorbing; masks are unioned.
    A finite sum that overflows float64, either way, raises DomainError."""
    if not u.same_geometry(psi):
        raise DomainError("perturbation needs identical grid geometry")
    if not 0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    mask = None
    if u.mask is not None or psi.mask is not None:
        mask = u.masked() | psi.masked()
    if eps == 0.0:
        return GridFunction(u.values, u.origin, u.h, mask)
    neg = np.isneginf(u.values) | np.isneginf(psi.values)
    with np.errstate(over="ignore"):
        vals = np.where(neg, -np.inf, u.values + eps * np.where(neg, 0.0, psi.values))
    if not np.all(neg | np.isfinite(vals)):
        raise DomainError(f"u + eps * psi overflows float64 at eps {eps}")
    return GridFunction(vals, u.origin, u.h, mask)


# -- grid file format ----------------------------------------------------------


def write_grid(path, u: GridFunction) -> None:
    """Write the grid format: header, optional mask block of 0/1 rows,
    then value rows.  A path that cannot be written raises DomainError."""
    shape = ",".join(str(s) for s in u.shape)
    origin = ",".join(repr(float(v)) for v in u.origin)
    blocks = [[f"grid n={u.ndim} shape={shape} origin={origin} h={u.h!r}\n"]]
    if u.mask is not None:
        blocks += [["mask\n"], csv_lines(u.mask.view(np.int8).reshape(-1, u.shape[-1]).tolist())]
    blocks.append(csv_lines(u.values.reshape(-1, u.shape[-1]).tolist()))
    write_text(path, itertools.chain.from_iterable(blocks))


def check_point_count(shape) -> None:
    """Raise DomainError for a lattice of more than POINT_CAP points."""
    count = math.prod(shape)
    if count > POINT_CAP:
        raise DomainError(f"a lattice of shape {list(shape)} has {count} points, "
                          f"above the cap of {POINT_CAP}")


def check_geometry(shape, origin: np.ndarray, h: float) -> None:
    """Raise DomainError unless h is finite and > 0 and the origin and
    the far corner ``origin + h * (shape - 1)`` are finite: then every
    lattice coordinate is finite."""
    if not 0 < h < math.inf:
        raise DomainError(f"grid spacing must be finite and > 0, got {h}")
    if not np.all(np.isfinite(origin)):
        raise DomainError(f"grid origin must be finite, got {origin.tolist()}")
    with np.errstate(over="ignore"):
        corner = origin + h * (np.asarray(shape) - 1)
    if not np.all(np.isfinite(corner)):
        raise DomainError(f"a lattice of shape {list(shape)}, origin {origin.tolist()} and "
                          f"spacing {h} overflows float64: its far corner is {corner.tolist()}")


def parse_geometry(text: str):
    """Shape, origin and h from ``shape=.. origin=.. h=..`` tokens; an
    ``n=`` token, as in a grid file header, must agree with the shape.
    Any other token, or one of these given twice, raises DomainError
    naming it."""
    fields = {}
    for token in text.split():
        key, _, value = token.partition("=")
        if key in fields or key not in ("n", "shape", "origin", "h"):
            why = "repeats a key" if key in fields else "is not one of n, shape, origin, h"
            raise DomainError(f"grid geometry token {token!r} {why}")
        fields[key] = value
    try:
        shape = tuple(int(s) for s in fields["shape"].split(","))
        origin = np.array([float(v) for v in fields["origin"].split(",")])
        h = float(fields["h"])
        nd = int(fields.get("n", len(shape)))
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed grid geometry {text!r}: {exc}") from exc
    if len(shape) != nd or origin.shape[0] != nd or min(shape) < 1:
        raise DomainError(f"grid geometry {text!r} has inconsistent dimensions")
    check_point_count(shape)
    check_geometry(shape, origin, h)
    return shape, origin, h


_MASK_TOKENS = {"0": False, "1": True}


def read_grid(path) -> GridFunction:
    lines = read_text(path).split("\n")
    if not lines[0].startswith("grid "):
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
            rows.append(_parse_float_row(lines[cursor], path, cursor + 1))
            cursor += 1
        values = np.array(rows, dtype=float).reshape(shape)
    except KeyError as exc:
        raise DomainError(f"mask entries in {path} must be 0 or 1, got {exc}") from exc
    except DomainError:
        raise
    except (IndexError, ValueError) as exc:
        raise DomainError(f"malformed grid data in {path}: {exc}") from exc
    if any(line.strip() for line in lines[cursor:]):
        raise DomainError(f"{path} holds rows past its shape {shape}")
    return GridFunction(values, origin, h, mask)
