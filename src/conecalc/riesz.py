"""Radial potential kernels, their exact 2-jets, discrete-measure
potentials, and smooth polar functions for finite singular sets.

The kernel with exponent p on R^n is pinned to

    k_p(x) = |x|^(2-p)        for 1 <= p < 2,
    k_2(x) = log|x|,
    k_p(x) = -|x|^(2-p)       for p > 2,

whose gradient is ``c_p |x|^(1-p) e`` and whose Hessian is
``c_p |x|^(-p) (I - p P_e)`` with ``e = x/|x|`` and ``c_p = |p - 2|``
(``c_2 = 1``).  The Hessian eigenvalues are ``(1-p) c_p |x|^(-p)`` once
and ``c_p |x|^(-p)`` with multiplicity n-1, so the bottom partial sum of
order p vanishes identically off the pole.

-inf propagates through sums (``-inf + finite = -inf``), matching the
semantics of upper semicontinuous potentials.  Atom sums use numpy's
pairwise reduction, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, PoleError, UnsupportedPolarError
from .symmat import Jet2, SymMatrix, _check_p, read_vectors_csv

NEAR_POLE = 1e-12
# entries of the (points, atoms, n) difference array of one block of an
# atom sum: 2 MiB of float64, whatever the point count
_BLOCK_ENTRIES = 2**18


@dataclass(frozen=True)
class RieszKernelSpec:
    """Kernel exponent p on R^n with the derived Hessian constant c_p."""

    p: float
    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"ambient dimension must be >= 1, got {self.n}")
        _check_p(self.p, self.n)

    @property
    def c_p(self) -> float:
        return 1.0 if self.p == 2.0 else abs(self.p - 2.0)

    def pole_value(self) -> float:
        """Limiting kernel value at the pole: 0 below p=2, -inf at and above."""
        return 0.0 if self.p < 2.0 else float("-inf")


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, without overflow or underflow
    wherever x is finite, and inf where the norm exceeds float64.

    ``np.linalg.norm`` squares before it takes the root, so a norm
    outside [1e-150, 1e150] is taken again of x scaled by its largest
    entry; inside that range the values are ``np.linalg.norm``'s.
    """
    with np.errstate(over="ignore"):
        r = np.linalg.norm(x, axis=-1 if x.ndim > 1 else None)
    rescale = ~((r >= 1e-150) & (r <= 1e150))
    if not rescale.any():
        return r
    top = np.max(np.abs(x), axis=-1, keepdims=True)
    ok = (top > 0.0) & np.isfinite(top)  # else r is 0, inf or nan as it should be
    with np.errstate(over="ignore"):  # a norm above the largest float64 is inf
        scaled = top[..., 0] * np.linalg.norm(x / np.where(ok, top, 1.0), axis=-1)
    return np.where(rescale & ok[..., 0], scaled, r)


def kernel_value(spec: RieszKernelSpec, r) -> np.ndarray:
    """Kernel value at radius r (vectorized; r=0 maps to the pole value)."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        if spec.p < 2.0:
            out = np.where(r > 0.0, r ** (2.0 - spec.p), 0.0)
        elif spec.p == 2.0:
            out = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)), -np.inf)
        else:
            out = np.where(r > 0.0, -(r ** (2.0 - spec.p)), -np.inf)
    return out


def _finite_point(x) -> np.ndarray:
    """x as a flat float array; DomainError naming it unless it is finite."""
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise DomainError(f"point x = {x.tolist()} must be finite")
    return x


def kernel_jet(spec: RieszKernelSpec, x) -> Jet2:
    """Exact 2-jet of the kernel at a finite x != 0.

    Raises PoleError at (or within 1e-12 of) the origin; the error carries
    the limiting value (-inf for p >= 2, 0 for p < 2).  Elsewhere it is the
    potential jet of a unit atom at the origin.
    """
    x = _finite_point(x)
    if x.shape[0] != spec.n:
        raise DimensionMismatchError(f"point dim {x.shape[0]} != kernel dim {spec.n}")
    r = float(_norm(x))
    if r <= NEAR_POLE:
        raise PoleError(
            f"kernel jet requested at the pole (|x| = {r:.3g})",
            limit_value=spec.pole_value(),
        )
    return potential_jet(spec, DiscreteMeasure(np.zeros((1, spec.n)), np.ones(1)), x)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weighted point atoms."""

    points: np.ndarray  # (m, n)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] == 0:
            raise DomainError("measure needs at least one atom")
        if w.shape[0] != pts.shape[0]:
            raise DomainError("one weight per atom required")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite and >= 0")
        if not np.all(np.isfinite(pts)):
            raise DomainError("atom coordinates must be finite")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


def uniform_measure(points) -> DiscreteMeasure:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return DiscreteMeasure(pts, np.full(pts.shape[0], 1.0 / pts.shape[0]))


def potential_values(spec: RieszKernelSpec, mu: DiscreteMeasure, xs) -> np.ndarray:
    """Potential values at a batch of points: weighted atom sums of the
    kernel, shape (N,).

    A point within ``NEAR_POLE`` of an atom reads the pole value there;
    a -inf term of positive weight makes the sum -inf.  A point that is
    not finite, or whose distance to an atom overflows, is a DomainError.
    Points are summed in blocks of at most ``_BLOCK_ENTRIES``
    differences; each point's row reduces on its own, so the values do
    not depend on the block size.
    Sums here and in ``potential_jet`` start from -0.0, the additive
    identity, so that one atom's term keeps its sign of zero.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if mu.n != spec.n:
        raise DimensionMismatchError(f"measure dim {mu.n} != kernel dim {spec.n}")
    if xs.shape[-1] != spec.n:
        raise DimensionMismatchError(f"point dim {xs.shape[-1]} != kernel dim {spec.n}")
    finite = np.all(np.isfinite(xs), axis=-1)
    if not finite.all():
        raise DomainError(f"point x = {xs[np.argmin(finite)].tolist()} must be finite")
    out = np.empty(xs.shape[0])
    step = max(1, _BLOCK_ENTRIES // mu.points.size)
    for start in range(0, xs.shape[0], step):
        with np.errstate(over="ignore"):
            r = _norm(xs[start:start + step, None, :] - mu.points[None, :, :])
        if not np.all(np.isfinite(r)):
            i, j = np.argwhere(~np.isfinite(r))[0]
            raise DomainError(f"the distance from point x = {xs[start + i].tolist()} to the atom "
                              f"at {mu.points[j].tolist()} overflows float64")
        vals = kernel_value(spec, np.where(r <= NEAR_POLE, 0.0, r))
        neg = np.isneginf(vals)
        block = np.add.reduce(mu.weights * np.where(neg, 0.0, vals), axis=1, initial=-0.0)
        block[np.any(neg & (mu.weights > 0)[None, :], axis=1)] = -np.inf
        out[start:start + step] = block
    return out


def potential_jet(spec: RieszKernelSpec, mu: DiscreteMeasure, x):
    """Termwise 2-jet of the potential at a finite x.

    Returns the float ``-inf`` marker when x coincides with an atom of
    positive weight and p >= 2.  For p < 2 the value at such an atom is
    finite but the jet is undefined, so a PoleError (carrying that finite
    value) is raised.  An atom of weight 0 adds nothing, a pole included.
    """
    x = _finite_point(x)
    value = float(potential_values(spec, mu, x)[0])  # checks both dimensions
    held = mu.weights > 0
    diffs = x[None, :] - mu.points[held]
    r = _norm(diffs)
    if np.any(r <= NEAR_POLE):
        if spec.p >= 2.0:
            return float("-inf")
        raise PoleError(
            f"potential jet undefined on an atom for p < 2 (value is finite: {value:.6g})",
            limit_value=value,
        )
    e = diffs / r[:, None]
    c = spec.c_p
    w = mu.weights[held]
    grad = np.add.reduce(w[:, None] * c * r[:, None] ** (1.0 - spec.p) * e, axis=0, initial=-0.0)
    outer = np.einsum("mi,mj->mij", e, e)
    hs = c * r[:, None, None] ** (-spec.p) * (
        np.eye(spec.n)[None, :, :] - spec.p * outer
    )
    hess = np.add.reduce(w[:, None, None] * hs, axis=0, initial=-0.0)
    return Jet2(value, grad, SymMatrix(hess))


@dataclass(frozen=True)
class PolarFunction:
    """Smooth off its atoms, -inf exactly on them; built from a potential."""

    spec: RieszKernelSpec
    measure: DiscreteMeasure

    def values(self, xs) -> np.ndarray:
        return potential_values(self.spec, self.measure, xs)


def build_polar(points, p: float) -> PolarFunction:
    """Uniform-weight polar function of a finite point set, p >= 2 only.

    Below p = 2 the kernels are finite, so no function can be -inf exactly
    on the points; such requests raise UnsupportedPolarError.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise DomainError("polar construction needs a non-empty point list")
    if p < 2.0:
        raise UnsupportedPolarError(
            f"polar functions need p >= 2 (kernels with p = {p} are finite, "
            "so no finite point set is polar for them)"
        )
    spec = RieszKernelSpec(p=float(p), n=pts.shape[1])
    return PolarFunction(spec, uniform_measure(pts))


# -- box-counting diagnostic --------------------------------------------------


def box_counts(points, scales) -> np.ndarray:
    """Occupied-box counts of a point cloud at each scale (anchored grid).

    A scale must be finite, > 0 and coarse enough that every box index
    fits in int64; otherwise DomainError."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = pts.min(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        span = np.max(pts - lo)
    counts = []
    for s in scales:
        if not 0 < s < math.inf:
            raise DomainError(f"scales must be finite and > 0, got {s}")
        with np.errstate(over="ignore", invalid="ignore"):
            if not span / s < 2.0**63:
                raise DomainError(f"box scale {s} is too fine: box indices of the points overflow int64")
        idx = np.floor((pts - lo) / s).astype(np.int64)
        counts.append(np.unique(idx, axis=0).shape[0])
    return np.array(counts, dtype=float)


def box_dimension(points, scales) -> float:
    """Least-squares slope of log(box count) against log(1/scale).

    Advisory only: a sampled diagnostic, not a measure computation.  A
    degenerate cloud (all points identical) returns 0.  The scales must
    be distinct, and far enough apart that the fit has a slope.
    """
    scales = np.asarray(list(scales), dtype=float)
    if scales.size < 2:
        raise DomainError("box dimension needs at least two scales")
    if np.unique(scales).size < scales.size:
        raise DomainError(f"box scales must be distinct, got {scales.tolist()}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if np.all(pts == pts[0]):
        return 0.0
    counts = box_counts(pts, scales)
    with warnings.catch_warnings():
        # polyfit's RankWarning, whose base class differs between numpy versions
        warnings.simplefilter("error")
        try:
            slope = np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0]
        except Warning:
            raise DomainError(f"box scales {scales.tolist()} are too close for a slope fit") from None
    return float(slope)


# -- file formats -------------------------------------------------------------


def read_measure_csv(path) -> DiscreteMeasure:
    """Read atoms from CSV rows ``x1,...,xn,weight``: a point set with a
    trailing weight column."""
    rows = read_vectors_csv(path)
    if rows.shape[1] < 2:
        raise DomainError("measure rows need coordinates plus a weight column")
    return DiscreteMeasure(rows[:, :-1], rows[:, -1])
