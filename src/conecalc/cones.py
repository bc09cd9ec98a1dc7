"""Catalogue of pure second-order eigenvalue cones.

Each cone is a closed subset of the symmetric matrices that is stable
under adding positive matrices.  The catalogue covers:

* ``positivity``          A >= 0
* ``pp:p``                bottom partial eigenvalue sum >= 0 (real p)
* ``branch:k``            k-th smallest eigenvalue >= 0
* ``cbranch:k``           k-th hermitian eigenvalue >= 0 (even ambient dim)
* ``pdelta:d``            A + d (tr A) I >= 0
* ``pucci:l:L``           l tr A+ + L tr A- >= 0  (0 < l < L)
* ``sigma:k``             elementary symmetric polynomials 1..k all >= 0
* ``geom:@frames``        min over listed planes of the restricted trace >= 0
* ``horiz:@frame``        restricted trace over one plane >= 0
* ``mapb:p:k``            k-th smallest p-fold eigenvalue sum >= 0
* ``enl:<base>:c``        A + c I in base (enlargement by c >= 0)
* ``dual:<base>``         -A not in the interior of base

Membership tolerances scale with ``1 + max|A_ij|``: a slack of at least
``-1e-9 * scale`` counts as closed membership and interior membership
requires slack of at least ``+1e-7 * scale`` (``thresholds``).  A dual
cone's closed membership uses the closed tolerance like every other kind,
whether it is asked as ``dual:<base>`` or through ``dual_contains``.
Geometric cones are exact for their listed planes only and their reports
carry ``sampled=True``.

Randomized certifications are deterministic given a seed and independent
of any worker split: samples are generated up front from one generator
and processed in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import symmat
from .errors import (
    DimensionMismatchError,
    DomainError,
    InternalConsistencyError,
    ResourceLimitError,
    SamplingError,
    SpecParseError,
)
from .symmat import (
    Frame,
    SymMatrix,
    as_matrix,
    elementary_symmetric,
    frame_traces,
    hermitian_eigenvalues,
    partial_sum_eigs,
    pfold_index_sets,
    pfold_sums_eigs,
    scale_of,
    top_partial_sum_eigs,
)

CLOSED_TOL = 1e-9
INTERIOR_TOL = 1e-7
GARDING_DIM_CAP = 12


def _whole(tok: str) -> float:
    """An integer parameter that the cone keeps as a float (mapb's p)."""
    return float(int(tok))


# descriptor head -> (kind, typed parameter fields), for the kinds whose
# parameters are scalars; parse_cone and ConeSpec.describe both read it
_DESCRIPTORS = {
    "p": ("positivity", ()),
    "pp": ("pp", (("p", float),)),
    "branch": ("branch", (("k", int),)),
    "cbranch": ("cbranch", (("k", int),)),
    "pdelta": ("pdelta", (("delta", float),)),
    "pucci": ("pucci", (("lam", float), ("Lam", float))),
    "sigma": ("sigma", (("k", int),)),
    "mapb": ("mapb", (("p", _whole), ("k", int))),
}
_HEADS = {kind: (head, fields) for head, (kind, fields) in _DESCRIPTORS.items()}
_KINDS = (*_HEADS, "geom", "horiz", "enl", "dual")


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Descriptor of one catalogue cone; immutable and validated."""

    kind: str
    dim: int
    p: Optional[float] = None
    k: Optional[int] = None
    delta: Optional[float] = None
    lam: Optional[float] = None
    Lam: Optional[float] = None
    frames: Optional[tuple] = None
    base: Optional["ConeSpec"] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown cone kind {self.kind!r}")
        n = self.dim
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise DomainError(f"ambient dim must be a positive integer, got {n!r}")
        if self.k is not None:
            try:
                whole = float(self.k).is_integer()
            except (TypeError, ValueError):
                whole = False
            if not whole:
                raise DomainError(f"{self.kind} index must be an integer, got {self.k!r}")
            object.__setattr__(self, "k", int(float(self.k)))
        k = self.kind
        if k == "pp":
            if self.p is None or not (1.0 <= self.p <= n):
                raise DomainError(f"pp parameter {self.p} out of range [1, {n}]")
        elif k == "branch":
            if self.k is None or not (1 <= self.k <= n):
                raise DomainError(f"branch index {self.k} out of range [1, {n}]")
        elif k == "cbranch":
            if n % 2 != 0:
                raise DomainError("cbranch needs an even ambient dimension")
            m = n // 2
            if self.k is None or not (1 <= self.k <= m):
                raise DomainError(f"cbranch index {self.k} out of range [1, {m}]")
        elif k == "pdelta":
            if self.delta is None or not self.delta > 0:
                raise DomainError(f"pdelta parameter must be > 0, got {self.delta}")
        elif k == "pucci":
            if self.lam is None or self.Lam is None or not 0 < self.lam < self.Lam:
                raise DomainError(
                    f"pucci needs 0 < lam < Lam, got ({self.lam}, {self.Lam})"
                )
        elif k == "sigma":
            if self.k is None or not (1 <= self.k <= n):
                raise DomainError(f"sigma index {self.k} out of range [1, {n}]")
        elif k in ("geom", "horiz"):
            frames = self.frames
            if not frames:
                raise DomainError(f"{k} cone needs a non-empty frame list")
            frames = tuple(frames)
            if k == "horiz" and len(frames) != 1:
                raise DomainError("horiz cone takes exactly one frame")
            pdims = {f.plane_dim for f in frames}
            if len(pdims) != 1:
                raise DomainError("all frames must share one plane dimension")
            for f in frames:
                if f.ambient_dim != n:
                    raise DimensionMismatchError(
                        f"frame ambient dim {f.ambient_dim} != cone dim {n}"
                    )
            object.__setattr__(self, "frames", frames)
        elif k == "mapb":
            if self.p is None or not (
                abs(self.p - round(self.p)) < 1e-12 and 1 <= self.p <= n
            ):
                raise DomainError(f"mapb needs an integer p in [1, {n}], got {self.p}")
            object.__setattr__(self, "p", float(round(self.p)))
            count = math.comb(n, int(self.p))
            if self.k is None or not (1 <= self.k <= count):
                raise DomainError(
                    f"mapb branch index {self.k} out of range [1, {count}]"
                )
        elif k in ("enl", "dual"):
            if self.base is None or self.base.dim != n:
                raise DomainError(f"{k} cone needs a base cone in the same dim")
            if k == "enl" and (self.c is None or self.c < 0):
                raise DomainError(f"enlargement amount must be >= 0, got {self.c}")

    @property
    def o_n_invariant(self) -> bool:
        """True when membership depends only on eigenvalues."""
        if self.kind in ("geom", "horiz", "cbranch"):
            return False
        if self.kind in ("enl", "dual"):
            return self.base.o_n_invariant
        return True

    @property
    def sampled(self) -> bool:
        """True when results are exact only for a sampled plane family."""
        if self.kind == "geom":
            return True
        if self.kind in ("enl", "dual"):
            return self.base.sampled
        return False

    def describe(self) -> str:
        k = self.kind
        if k in _HEADS:
            head, fields = _HEADS[k]
            return ":".join([head] + [_fmt(getattr(self, name)) for name, _ in fields])
        if k == "geom":
            return f"geom:{len(self.frames)}x{self.frames[0].plane_dim}-frames"
        if k == "horiz":
            return f"horiz:{self.frames[0].plane_dim}-plane"
        if k == "enl":
            return f"enl:{self.base.describe()}:{_fmt(self.c)}"
        return f"dual:{self.base.describe()}"

    def __repr__(self):
        return f"ConeSpec({self.describe()}, dim={self.dim})"


def _fmt(x: float) -> str:
    if abs(x - round(x)) < 1e-12:
        return str(int(round(x)))
    return repr(float(x))


# -- constructors -----------------------------------------------------------


def positivity(dim: int) -> ConeSpec:
    return ConeSpec("positivity", dim)


def pp_cone(p: float, dim: int) -> ConeSpec:
    return ConeSpec("pp", dim, p=float(p))


def branch_cone(k: int, dim: int) -> ConeSpec:
    return ConeSpec("branch", dim, k=k)


def complex_branch_cone(k: int, dim: int) -> ConeSpec:
    return ConeSpec("cbranch", dim, k=k)


def pdelta_cone(delta: float, dim: int) -> ConeSpec:
    return ConeSpec("pdelta", dim, delta=float(delta))


def pucci_cone(lam: float, Lam: float, dim: int) -> ConeSpec:
    return ConeSpec("pucci", dim, lam=float(lam), Lam=float(Lam))


def sigma_cone(k: int, dim: int) -> ConeSpec:
    return ConeSpec("sigma", dim, k=k)


def geometric_cone(frames, dim: int) -> ConeSpec:
    return ConeSpec("geom", dim, frames=tuple(frames))


def horizontal_cone(frame: Frame, dim: int) -> ConeSpec:
    return ConeSpec("horiz", dim, frames=(frame,))


def map_branch_cone(p: int, k: int, dim: int) -> ConeSpec:
    return ConeSpec("mapb", dim, p=float(p), k=k)


def enlarged_cone(base: ConeSpec, c: float) -> ConeSpec:
    return ConeSpec("enl", base.dim, base=base, c=float(c))


def dual_cone(base: ConeSpec) -> ConeSpec:
    return ConeSpec("dual", base.dim, base=base)


# -- margins ----------------------------------------------------------------


def _stack(mats) -> np.ndarray:
    if isinstance(mats, SymMatrix):
        return mats.entries[None, :, :]
    arr = np.asarray(mats, dtype=float)
    if arr.ndim == 2:
        return arr[None, :, :]
    return arr


def _affine(base: np.ndarray, slope: float):
    """An affine margin rule: ``f(t) = base + slope * t``, root ``-base / slope``."""

    def f(t):
        return base + slope * np.asarray(t, dtype=float)

    return f, lambda: -base / slope


def _margin_machine(spec: ConeSpec, mats: np.ndarray):
    """Return ``(f, root)``: f(t) -> margins of ``mats + t I`` computed
    from cached spectra, and root() -> per matrix the t at which that
    margin crosses zero, where membership starts.

    ``t`` may be a scalar or a vector matching the leading axis.  The
    membership predicate ``f(t) >= 0`` is monotone in t for every
    catalogue cone, since adding tI preserves membership, so each rule has
    one crossing.  Most rules are affine in t.  Pucci's margin is
    increasing and piecewise linear, and sigma's need not be monotone at
    all (for ``diag(-3, 1)`` in ``sigma:2`` it is -3, -3.75, -4, -3, 0 at
    t = 0, 0.5, 1, 2, 3); each solves for its crossing directly.
    """
    kind = spec.kind
    if kind == "cbranch":
        return _affine(hermitian_eigenvalues(mats)[..., spec.k - 1], 1.0)
    if kind in ("geom", "horiz"):
        traces = frame_traces(mats, spec.frames)
        pdim = spec.frames[0].plane_dim

        def f(t):
            t = np.asarray(t, dtype=float)
            return (traces + pdim * t[..., None]).min(axis=-1)

        return f, lambda: -traces.min(axis=-1) / pdim
    if kind == "enl":
        fb, root_b = _margin_machine(spec.base, mats)
        c = spec.c

        def f(t):
            return fb(np.asarray(t, dtype=float) + c)

        return f, lambda: root_b() - c
    if kind == "dual":
        fneg, root_neg = _margin_machine(spec.base, -mats)

        def f(t):
            return -fneg(-np.asarray(t, dtype=float))

        return f, lambda: -root_neg()

    lam = symmat.eigenvalues_of(mats)

    if kind in ("positivity", "branch"):
        return _affine(lam[..., (spec.k or 1) - 1], 1.0)
    if kind == "pp":
        return _affine(partial_sum_eigs(lam, spec.p), spec.p)
    if kind == "pdelta":
        delta = spec.delta
        return _affine(lam[..., 0] + delta * lam.sum(axis=-1), 1.0 + delta * spec.dim)
    if kind == "mapb":
        p = spec.p  # a whole number, kept as a float
        return _affine(pfold_sums_eigs(lam, int(p))[..., spec.k - 1], p)
    if kind == "pucci":
        lam_c, Lam_c = spec.lam, spec.Lam

        def value(shifted):
            pos = np.clip(shifted, 0.0, None).sum(axis=-1)
            neg = np.clip(shifted, None, 0.0).sum(axis=-1)
            return lam_c * pos + Lam_c * neg

        def f(t):
            return value(lam + np.asarray(t, dtype=float)[..., None])

        def root():
            # f at the breakpoints t = -lambda_i, nonincreasing in i; the
            # q of them with f >= 0 bound the crossing segment, on which the
            # q lowest shifted eigenvalues are <= 0 and the rest >= 0
            at = value(lam[:, None, :] - lam[:, :, None])
            q = (at >= 0.0).sum(axis=-1)
            rows, i = np.arange(q.shape[0]), q - 1
            slope = Lam_c * q + lam_c * (lam.shape[-1] - q)
            t = -lam[rows, i] - at[rows, i] / slope
            t[~np.isfinite(at).all(axis=-1)] = np.nan  # overflow
            return t

        return f, root
    if kind == "sigma":
        k = spec.k

        def f(t):
            shifted = lam + np.asarray(t, dtype=float)[..., None]
            return elementary_symmetric(shifted, k)[..., 1:].min(axis=-1)

        def root():
            # sigma_k(lambda + t 1) is real-rooted in t (Garding); right of
            # its largest root it and sigma_1 .. sigma_{k-1} are positive, and
            # Newton from t = -lambda_1 descends monotonically onto that root
            t = -lam[..., 0]
            tol = 4.0 * np.spacing(np.abs(lam).max(axis=-1))
            weight = lam.shape[-1] - k + 1
            rows = np.arange(t.shape[0])
            while rows.size:
                e = elementary_symmetric(lam[rows] + t[rows, None], k)
                p, dp = e[:, k], weight * e[:, k - 1]
                finite = np.isfinite(e).all(axis=-1)  # nan marks an overflow
                step = np.divide(p, dp, out=np.where(finite, 0.0, np.nan),
                                 where=finite & (p > 0.0) & (dp > 0.0))
                t[rows] -= step
                rows = rows[step > tol[rows]]
            return t

        return f, root
    raise DomainError(f"no margin rule for kind {kind!r}")  # pragma: no cover


def margins(spec: ConeSpec, mats) -> np.ndarray:
    """Vectorized membership margins of a stack of matrices."""
    arr = _stack(mats)
    if arr.shape[-1] != spec.dim:
        raise DimensionMismatchError(
            f"matrix dim {arr.shape[-1]} != cone dim {spec.dim}"
        )
    return _margin_machine(spec, arr)[0](0.0)


def _witness(spec: ConeSpec, A: SymMatrix):
    """Identify the binding constraint for a single matrix (1-based indices)."""
    kind = spec.kind
    if kind == "positivity":
        return {"eigen_index": 1}
    if kind == "pp":
        k, frac = divmod(spec.p, 1.0)
        last = int(k) + (1 if frac > 1e-9 else 0)
        return {"eigen_indices": list(range(1, max(last, 1) + 1))}
    if kind == "branch":
        return {"eigen_index": spec.k}
    if kind == "cbranch":
        return {"hermitian_eigen_index": spec.k}
    if kind == "sigma":
        e = elementary_symmetric(symmat.eigenvalues_of(A), spec.k)[1:]
        return {"sigma_index": int(np.argmin(e)) + 1}
    if kind in ("geom", "horiz"):
        traces = frame_traces(A.entries, spec.frames)
        return {"frame_index": int(np.argmin(traces)) + 1}
    if kind == "mapb":
        lam = symmat.eigenvalues_of(A)
        idx = pfold_index_sets(spec.dim, int(spec.p))
        sums = lam[idx].sum(axis=-1)
        order = np.argsort(sums, kind="stable")
        binding = idx[order[spec.k - 1]]
        return {"eigen_subset": [int(i) + 1 for i in binding]}
    if kind == "enl":
        return _witness(spec.base, A + spec.c * symmat.identity(spec.dim))
    if kind == "dual":
        base = spec.base
        if base.kind == "branch":
            return {"eigen_index": spec.dim - base.k + 1}
        if base.kind == "cbranch":
            return {"hermitian_eigen_index": spec.dim // 2 - base.k + 1}
        return _witness(base, -A)
    return None


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of one membership test.

    ``member`` holds exactly when ``margin >= threshold``; ``thresholds``
    gives the threshold of each mode.  ``witness`` identifies the binding
    scalar inequality.
    """

    member: bool
    margin: float
    witness: Optional[dict]
    mode: str
    threshold: float
    sampled: bool = False

    def to_dict(self) -> dict:
        return {
            "member": bool(self.member),
            "margin": float(self.margin),
            "witness": self.witness,
            "mode": self.mode,
            "threshold": float(self.threshold),
            "sampled": bool(self.sampled),
        }


def thresholds(mats, mode: str = "closed") -> np.ndarray:
    """Membership threshold of each matrix in a stack.

    A matrix is a member when its margin is at least its threshold:
    ``-CLOSED_TOL * scale`` in closed mode and ``+INTERIOR_TOL * scale`` in
    interior mode, with ``scale = 1 + max|A_ij|`` per matrix.
    """
    if mode not in ("closed", "interior"):
        raise DomainError(f"mode must be 'closed' or 'interior', got {mode!r}")
    arr = _stack(mats)
    scale = 1.0 + np.abs(arr).max(axis=(-2, -1))
    return INTERIOR_TOL * scale if mode == "interior" else -CLOSED_TOL * scale


def contains(spec: ConeSpec, A, mode: str = "closed") -> MembershipReport:
    """Membership of A in the cone, in ``closed`` or ``interior`` mode."""
    A = as_matrix(A)
    threshold = float(thresholds(A, mode)[0])
    margin = float(margins(spec, A)[0])
    return MembershipReport(
        member=margin >= threshold,
        margin=margin,
        witness=_witness(spec, A),
        mode=mode,
        threshold=threshold,
        sampled=spec.sampled,
    )


def dual_contains(spec: ConeSpec, A) -> MembershipReport:
    """Closed membership of A in the dual cone, ``-A not interior to the base``.

    The same report as ``contains(dual_cone(spec), A)``, closed tolerance
    included.  Where ``dual_fast_margins`` has a closed form (top partial
    sum; reflected branch index) it is evaluated as well and must agree
    with the definitional margin.
    """
    A = as_matrix(A)
    rep = contains(dual_cone(spec), A)
    fast = dual_fast_margins(spec, A)
    if fast is not None and abs(fast[0] - rep.margin) > thresholds(A, "interior")[0]:
        raise InternalConsistencyError(
            f"dual fast path {fast[0]:.6g} disagrees with definitional margin "
            f"{rep.margin:.6g} for {spec.describe()}"
        )
    return rep


def dual_fast_margins(spec: ConeSpec, mats) -> Optional[np.ndarray]:
    """Closed-form dual margins where the catalogue provides them.

    Partial-sum cones dualize to top partial sums and branches reflect
    their index; other kinds return None (definitional evaluation only).
    """
    arr = _stack(mats)
    if spec.kind in ("pp", "positivity"):
        p = spec.p if spec.kind == "pp" else 1.0
        return top_partial_sum_eigs(symmat.eigenvalues_of(arr), p)
    if spec.kind == "branch":
        lam = symmat.eigenvalues_of(arr)
        return lam[..., spec.dim - spec.k]
    if spec.kind == "cbranch":
        return hermitian_eigenvalues(arr)[..., spec.dim // 2 - spec.k]
    return None


# -- sampling ---------------------------------------------------------------


@dataclass(frozen=True)
class SampleConfig:
    """Seeded sampling parameters for randomized certifications."""

    seed: int = 0
    count: int = 1000
    magnitude: float = 1.0

    def __post_init__(self):
        if self.count < 1:
            raise DomainError(f"sample count must be >= 1, got {self.count}")
        if not 0 < self.magnitude < math.inf:
            raise DomainError(f"magnitude must be finite and > 0, got {self.magnitude}")


def sample_goe(rng: np.random.Generator, n: int, count: int, magnitude: float = 1.0):
    """Gaussian-orthogonal-ensemble matrices of shape (count, n, n)."""
    G = rng.standard_normal((count, n, n)) * magnitude
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def membership_shift(spec: ConeSpec, mats) -> np.ndarray:
    """The smallest t >= 0 per matrix, to a few ulps of its scale, with
    ``A + t I`` in the cone.

    Members get exactly 0; every other matrix gets the crossing that
    ``_margin_machine`` computes for its rule, nudged upward by a step that
    starts at one ulp of t and doubles until the margin is >= 0: a fixed
    ulp can stall for enl, where ``t + c`` rounds back to c while t is
    much smaller than c, and a crossing near 0 can round to just below it.
    A crossing that overflows raises SamplingError.
    """
    f, root = _margin_machine(spec, _stack(mats))
    need = f(0.0) < 0.0
    t = np.where(need, root(), 0.0)
    step = np.spacing(np.abs(t))
    short = need & (f(t) < 0.0)
    while np.any(short):
        t[short] += step[short]
        step[short] *= 2.0
        short &= f(t) < 0.0
    if not np.all(np.isfinite(t)):
        raise SamplingError("membership shift overflows; try a smaller magnitude")
    return t


def force_membership(spec: ConeSpec, mats: np.ndarray) -> np.ndarray:
    """Shift each matrix along the identity onto the cone boundary, by
    ``membership_shift``: members come back unchanged, every other matrix
    lands essentially on the boundary, from inside."""
    mats = _stack(mats)
    t = membership_shift(spec, mats)
    rows = np.nonzero(t)[0]
    if rows.size == 0:
        return mats
    out = mats.copy()
    diag = np.arange(spec.dim)
    out[rows[:, None], diag, diag] += t[rows, None]
    return out


@dataclass(frozen=True)
class RelationReport:
    """Result of a randomized ``F + M subset F`` certification."""

    passed: bool
    checked: int
    seed: int
    failure_index: Optional[int] = None
    counterexample: Optional[tuple] = None  # (SymMatrix, SymMatrix)
    margins: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "passed": bool(self.passed),
            "checked": int(self.checked),
            "seed": int(self.seed),
        }
        if not self.passed:
            A, B = self.counterexample
            out["failure_index"] = int(self.failure_index)
            out["counterexample"] = {
                "A": A.entries.tolist(),
                "B": B.entries.tolist(),
            }
            out["margins"] = {k: float(v) for k, v in self.margins.items()}
        return out


@np.errstate(over="ignore", invalid="ignore")
def check_relation(F: ConeSpec, M: ConeSpec, cfg: SampleConfig) -> RelationReport:
    """Certify ``F + M subset F`` on seeded random samples.

    Draws A in F and B in M (GOE samples shifted along the identity onto
    the cone boundary) and verifies A + B stays in F.  Returns the first
    counterexample with margins, or a pass.  Deterministic given the seed.
    Overflow at a huge magnitude raises a typed error, not a warning:
    DomainError for non-finite samples (``eigenvalues_of``), SamplingError
    for non-finite shifts or margins.
    """
    if F.dim != M.dim:
        raise DimensionMismatchError(f"cone dims differ: {F.dim} vs {M.dim}")
    rng = np.random.default_rng(cfg.seed)
    A = force_membership(F, sample_goe(rng, F.dim, cfg.count, cfg.magnitude))
    B = force_membership(M, sample_goe(rng, M.dim, cfg.count, cfg.magnitude))
    S = A + B
    m = margins(F, S)
    if not np.all(np.isfinite(m)):
        raise SamplingError("margins overflow; try a smaller magnitude")
    bad = np.nonzero(m < thresholds(S))[0]
    if bad.size == 0:
        return RelationReport(passed=True, checked=cfg.count, seed=cfg.seed)
    i = int(bad[0])
    # rows of the stacked margins: for geom/horiz a lone matrix's margin can
    # differ from its stack row in the last bit (einsum's summation order)
    return RelationReport(
        passed=False,
        checked=cfg.count,
        seed=cfg.seed,
        failure_index=i,
        counterexample=(SymMatrix(A[i]), SymMatrix(B[i])),
        margins={
            "margin_a": float(margins(F, A)[i]),
            "margin_b": float(margins(M, B)[i]),
            "margin_sum": float(m[i]),
        },
    )


# -- unit-vector family test and Riesz characteristic ------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def sphere_lattice(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors, shape (count, n).

    Uses equal angles on the circle, a Fibonacci spiral on the 2-sphere,
    and a Weyl sequence pushed through the inverse normal CDF above.
    """
    count = max(1, int(count))
    if n == 1:
        return np.ones((1, 1))
    if n == 2:
        theta = np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        i = np.arange(count) + 0.5
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        phi = 2.0 * np.pi * i / golden
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    if n > len(_PRIMES):
        raise ResourceLimitError(f"sphere lattice supports n <= {len(_PRIMES)}")
    from scipy.special import ndtri  # 0.35 s to import; only n >= 4 needs it

    alphas = np.sqrt(np.array(_PRIMES[:n], dtype=float))
    k = np.arange(1, count + 1)[:, None]
    u = np.mod(k * alphas, 1.0)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms < 1e-12] = 1.0
    return g / norms[:, None]


def _test_directions(spec: ConeSpec, sphere_samples: int) -> np.ndarray:
    if spec.o_n_invariant:
        e = np.zeros((1, spec.dim))
        e[0, 0] = 1.0
        return e
    lattice = sphere_lattice(spec.dim, 2 * sphere_samples)
    return np.vstack([lattice, np.eye(spec.dim)])


@dataclass(frozen=True)
class PPSubsetReport:
    """Result of testing ``I - p P_e`` membership over a direction family."""

    passed: bool
    p: float
    checked: int
    counterexample: Optional[np.ndarray] = None
    margin: Optional[float] = None

    def to_dict(self) -> dict:
        out = {"passed": bool(self.passed), "p": float(self.p), "checked": self.checked}
        if not self.passed:
            out["counterexample"] = self.counterexample.tolist()
            out["margin"] = float(self.margin)
        return out


def pp_subset_test(M: ConeSpec, p: float, sphere_samples: int = 250) -> PPSubsetReport:
    """Test ``I - p P_e in M`` over a deterministic direction family.

    A single direction suffices (and is used) when M depends only on
    eigenvalues; otherwise a sphere lattice of ``2 * sphere_samples``
    points plus the coordinate axes is probed.
    """
    if not (1.0 <= p <= M.dim):
        raise DomainError(f"p={p} out of range [1, {M.dim}]")
    es = _test_directions(M, sphere_samples)
    eye = np.eye(M.dim)
    mats = eye[None, :, :] - p * np.einsum("ki,kj->kij", es, es)
    m = margins(M, mats)
    tol = CLOSED_TOL * scale_of(mats)
    bad = np.nonzero(m < -tol)[0]
    if bad.size == 0:
        return PPSubsetReport(passed=True, p=float(p), checked=es.shape[0])
    i = int(bad[0])
    return PPSubsetReport(
        passed=False,
        p=float(p),
        checked=es.shape[0],
        counterexample=es[i],
        margin=float(m[i]),
    )


def closed_form_characteristic(spec: ConeSpec) -> Optional[float]:
    """Catalogue closed form for the identity-minus-projector threshold,
    uncapped (may exceed the ambient dimension)."""
    n = spec.dim
    kind = spec.kind
    if kind == "positivity":
        return 1.0
    if kind == "pp":
        return float(spec.p)
    if kind == "branch":
        return 1.0 if spec.k == 1 else float(n)
    if kind == "cbranch":
        return 2.0 if spec.k == 1 else float(n)
    if kind == "pdelta":
        return (1.0 + spec.delta * n) / (1.0 + spec.delta)
    if kind == "pucci":
        return (spec.lam / spec.Lam) * (n - 1) + 1.0
    if kind == "sigma":
        return n / spec.k
    if kind == "mapb":
        p = int(spec.p)
        return float(p) if spec.k <= math.comb(n - 1, p - 1) else float(n)
    if kind == "enl":
        base = closed_form_characteristic(spec.base)
        return None if base is None else (1.0 + spec.c) * base
    return None


@dataclass(frozen=True)
class RieszCharacteristic:
    """Threshold exponent of a cone with its catalogue closed form.

    ``at_cap`` flags 'characteristic >= n' (the family test passed at the
    ambient dimension); ``sampled`` flags direction-sampled results for
    cones that do not depend on eigenvalues alone.
    """

    value: float
    closed_form: Optional[float]
    at_cap: bool
    sampled: bool
    iterations: int

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "closed_form": None if self.closed_form is None else float(self.closed_form),
            "at_cap": bool(self.at_cap),
            "sampled": bool(self.sampled),
            "iterations": int(self.iterations),
        }


def riesz_characteristic(
    M: ConeSpec,
    tol: float = 1e-8,
    sphere_samples: int = 250,
    max_iter: int = 60,
) -> RieszCharacteristic:
    """Largest p with ``I - p P_e`` in M for the tested direction family.

    Bisection on p is valid because the passing set is a down-set (the
    partial-sum cones are nested in p).  When the catalogue provides a
    closed form, agreement within tolerance is asserted.
    """
    if not contains(M, symmat.identity(M.dim), mode="interior").member:
        raise DomainError(
            "riesz_characteristic needs the identity in the cone interior"
        )
    n = M.dim
    cf = closed_form_characteristic(M)

    def passes(p: float) -> bool:
        return pp_subset_test(M, p, sphere_samples).passed

    if not passes(1.0):
        raise InternalConsistencyError(
            f"{M.describe()} rejected I - P_e; positivity is violated"
        )
    if passes(float(n)):
        result = RieszCharacteristic(
            value=float(n),
            closed_form=cf,
            at_cap=True,
            sampled=not M.o_n_invariant,
            iterations=0,
        )
        _assert_closed_form(result, tol, M)
        return result
    lo, hi = 1.0, float(n)
    iterations = 0
    while hi - lo > tol and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    result = RieszCharacteristic(
        value=0.5 * (lo + hi),
        closed_form=cf,
        at_cap=False,
        sampled=not M.o_n_invariant,
        iterations=iterations,
    )
    _assert_closed_form(result, tol, M)
    return result


def _assert_closed_form(result: RieszCharacteristic, tol: float, M: ConeSpec):
    if result.closed_form is None:
        return
    expected = min(result.closed_form, float(M.dim))
    if abs(result.value - expected) > max(10.0 * tol, 1e-6):
        raise InternalConsistencyError(
            f"bisection characteristic {result.value:.9g} disagrees with the "
            f"closed form {expected:.9g} for {M.describe()}"
        )


def dual_description(spec: ConeSpec) -> str:
    """Human-readable description of the dual cone."""
    n = spec.dim
    kind = spec.kind
    if kind == "positivity":
        return f"branch:{n} (largest eigenvalue >= 0)"
    if kind == "pp":
        return f"sum of the {_fmt(spec.p)} largest eigenvalues >= 0"
    if kind == "branch":
        return f"branch:{n - spec.k + 1}"
    if kind == "cbranch":
        return f"cbranch:{n // 2 - spec.k + 1}"
    if kind == "pucci":
        return (
            f"{_fmt(spec.Lam)}*tr(A+) + {_fmt(spec.lam)}*tr(A-) >= 0 "
            "(coefficients swapped)"
        )
    if kind == "mapb":
        N = math.comb(n, int(spec.p))
        return f"mapb:{int(spec.p)}:{N - spec.k + 1}"
    return "reflection: A is a dual member iff -A is not interior to the cone"


# -- Pucci Garding polynomial -------------------------------------------------


@dataclass(frozen=True)
class GardingPucciResult:
    """Factored hyperbolic polynomial attached to a Pucci cone.

    ``subsets`` lists the retained index families (1-based ascending
    eigenvalue positions); ``factors[i]`` is the linear factor of
    ``subsets[i]`` and ``value`` their product.
    """

    value: float
    factors: np.ndarray
    subsets: tuple
    family_size: int

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "factors": self.factors.tolist(),
            "subsets": [list(s) for s in self.subsets],
            "family_size": int(self.family_size),
        }


def garding_index_family(n: int, lam: float, Lam: float) -> list[tuple]:
    """Index subsets whose cube vertex is unreachable by the open segment.

    For each subset I the vertex has value lam on I and Lam elsewhere;
    I is retained exactly when ``{t * v(I): 0 < t < 1}`` misses the cube
    ``[lam, Lam]^n`` (exact interval test, no combinatorial shortcut).
    """
    if not 0 < lam < Lam:
        raise DomainError(f"need 0 < lam < Lam, got ({lam}, {Lam})")
    if n > GARDING_DIM_CAP:
        raise ResourceLimitError(
            f"dimension {n} exceeds the Garding cap {GARDING_DIM_CAP} (2^n subsets)"
        )
    family = []
    for mask in range(2**n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        v = np.full(n, Lam)
        if members:
            v[list(members)] = lam
        # the segment point t*v lies in the cube iff t is in every
        # per-coordinate interval [lam/v_i, Lam/v_i]
        t_lo = float(np.max(lam / v))
        t_hi = float(np.min(Lam / v))
        meets_cube = t_lo <= t_hi and t_lo < 1.0 and t_hi > 0.0
        if not meets_cube:
            family.append(tuple(i + 1 for i in members))
    return family


def _garding_factors(n: int, lam: float, Lam: float):
    """Index family and coefficients: ``eigs @ coeffs.T`` gives every factor."""
    family = garding_index_family(n, lam, Lam)
    coeffs = np.full((len(family), n), Lam)
    for i, subset in enumerate(family):
        coeffs[i, [j - 1 for j in subset]] = lam
    return family, coeffs


def garding_pucci(A, lam: float, Lam: float) -> GardingPucciResult:
    """Evaluate the Pucci hyperbolic polynomial as a product of factors.

    Each retained subset I contributes ``lam * sum_{i in I} lam_i(A) +
    Lam * sum_{i not in I} lam_i(A)`` over the ascending eigenvalues.
    """
    A = as_matrix(A)
    family, coeffs = _garding_factors(A.n, lam, Lam)
    factors = symmat.eigenvalues_of(A) @ coeffs.T
    return GardingPucciResult(
        value=float(np.prod(factors)) if factors.size else 1.0,
        factors=factors,
        subsets=tuple(family),
        family_size=len(family),
    )


def garding_pucci_min_factors(lams: np.ndarray, lam: float, Lam: float) -> np.ndarray:
    """Minimum factor over the index family for a stack of eigenvalue rows."""
    lams = np.asarray(lams, dtype=float)
    coeffs = _garding_factors(lams.shape[-1], lam, Lam)[1]
    return (lams @ coeffs.T).min(axis=-1)


# -- descriptor parsing -------------------------------------------------------


def parse_cone(text: str, dim: int) -> ConeSpec:
    """Parse a compact cone descriptor such as ``pp:2.5`` or ``pucci:1:2``.

    ``geom:@file`` and ``horiz:@file`` read frames from a CSV file (vectors
    as rows, blank lines separating frames).  Raises SpecParseError with
    the offending position.
    """
    text = text.strip()
    if not text:
        raise SpecParseError("empty cone descriptor", 0)
    tokens = text.split(":")
    head = tokens[0]
    rest = tokens[1:]

    def _arity(k):
        if len(rest) != k:
            raise SpecParseError(
                f"{head!r} takes {k} parameter(s), got {len(rest)}", len(head)
            )

    try:
        if head in _DESCRIPTORS:
            kind, fields = _DESCRIPTORS[head]
            _arity(len(fields))
            params = {}
            for i, (name, typ) in enumerate(fields):
                try:
                    params[name] = typ(rest[i])
                except ValueError:
                    pos = len(":".join(tokens[: i + 1])) + 1
                    raise SpecParseError(
                        f"expected a number at position {pos}, got {rest[i]!r}", pos
                    ) from None
            return ConeSpec(kind, dim, **params)
        if head == "geom" or head == "horiz":
            _arity(1)
            tok = rest[0]
            if not tok.startswith("@"):
                raise SpecParseError(
                    f"{head!r} expects @<frames file>, got {tok!r}", len(head) + 1
                )
            frames = symmat.read_frames_csv(tok[1:])
            if head == "geom":
                return geometric_cone(frames, dim)
            if len(frames) != 1:
                raise SpecParseError("horiz frame file must hold one frame", len(head) + 1)
            return horizontal_cone(frames[0], dim)
        if head == "enl":
            if len(rest) < 2:
                raise SpecParseError("enl:<base...>:<c>", len(head))
            base = parse_cone(":".join(rest[:-1]), dim)
            try:
                c = float(rest[-1])
            except ValueError:
                raise SpecParseError(
                    f"expected the enlargement amount, got {rest[-1]!r}",
                    len(text) - len(rest[-1]),
                ) from None
            return enlarged_cone(base, c)
        if head == "dual":
            if not rest:
                raise SpecParseError("dual:<base...>", len(head))
            return dual_cone(parse_cone(":".join(rest), dim))
    except DomainError as exc:
        raise SpecParseError(str(exc), 0) from exc
    raise SpecParseError(f"unknown cone kind {head!r}", 0)
