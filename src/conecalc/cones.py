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

Each kind is one ``_Kind`` record in ``_KINDS`` with every rule the
catalogue has for it: descriptor head and typed fields, parameter check,
``o_n_invariant`` and ``sampled`` flags, margin rule with zero crossing,
witness, dual (a mirror cone, or a closed-form dual margin and text) and
closed-form characteristic; ``enl`` and ``dual`` delegate to their base,
and the dual of a ``dual`` is its base.
A new kind is one record plus its rows in ``tests/test_cone_catalogue.py``.

Membership tolerances scale with ``1 + max|A_ij|``: a slack of at least
``-1e-9 * scale`` counts as closed membership and interior membership
requires slack of at least ``+1e-7 * scale`` (``thresholds``).  Dual
membership is membership in ``dual:<base>``, with the closed tolerance
like every other kind.
Geometric cones are exact for their listed planes only and their reports
carry ``sampled=True``.

Randomized checks are deterministic given a seed and independent of the
worker split: samples are drawn from one seeded generator in blocks of at
most ``_BLOCK_ENTRIES`` matrix entries per stack, so their memory does not
grow with the sample count, and the blocks are tested by one thread per
CPU the process may run on (``_first_failure``), each drawing its block's
samples in index order; the report is the lowest failing block's, as in a
serial scan.  ``check_relation``'s commuting pairs are a second such scan,
from a generator spawned from the seed.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import symmat
from .errors import (
    DimensionMismatchError,
    DomainError,
    InternalConsistencyError,
    ResourceLimitError,
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
    top_partial_sum_eigs,
)

CLOSED_TOL = 1e-9
INTERIOR_TOL = 1e-7
GARDING_DIM_CAP = 12

# entries per sample stack in one block of a randomized check: 256 KiB of
# float64, whatever the sample count
_BLOCK_ENTRIES = 2**15
# the largest ambient dimension: one matrix of it still fits in a block
DIM_CAP = math.isqrt(_BLOCK_ENTRIES)  # 181
# the largest sample count: at the ~6e4 samples/s per CPU of a dim-6
# relation (mapb:3:k against pp:3), 10^8 samples take half an hour on one
# CPU and about a quarter of an hour on two
SAMPLE_CAP = 10**8
# half the sphere-lattice directions of the family test and the Riesz
# characteristic when no count is given
SPHERE_SAMPLES = 250


def _whole(tok: str) -> float:
    """An integer parameter that the cone keeps as a float (mapb's p)."""
    return float(int(tok))


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
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= DIM_CAP):
            raise DomainError(f"ambient dim must be an integer in [1, {DIM_CAP}], got {n!r}")
        if self.k is not None:
            try:
                whole = float(self.k).is_integer()
            except (TypeError, ValueError):
                whole = False
            if not whole:
                raise DomainError(f"{self.kind} index must be an integer, got {self.k!r}")
            object.__setattr__(self, "k", int(float(self.k)))
        for name in ("p", "delta", "lam", "Lam", "c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{self.kind} parameter {name} must be finite, got {value}")
        _KINDS[self.kind].check(self)

    @property
    def o_n_invariant(self) -> bool:
        """True when membership depends only on eigenvalues."""
        spectral = _KINDS[self.kind].spectral
        return self.base.o_n_invariant if spectral is None else spectral

    @property
    def sampled(self) -> bool:
        """True when results are exact only for a sampled plane family."""
        sampled = _KINDS[self.kind].sampled
        return self.base.sampled if sampled is None else sampled

    def describe(self) -> str:
        kind = _KINDS[self.kind]
        if kind.describe:
            return kind.describe(self)
        return ":".join([kind.head] + [_fmt(getattr(self, name)) for name, _ in kind.fields])

    def __repr__(self):
        return f"ConeSpec({self.describe()}, dim={self.dim})"


def _fmt(x: float) -> str:
    # whole values print as integers below 2**53 only: every float above is whole
    if abs(x) < 2.0**53 and abs(x - round(x)) < 1e-12:
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


# -- the rules of each kind -----------------------------------------------------


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise DomainError(message)


def _within(value, top, what: str) -> None:
    _require(value is not None and 1 <= value <= top, f"{what} {value} out of range [1, {top}]")


def _check_cbranch(spec: ConeSpec) -> None:
    _require(spec.dim % 2 == 0, "cbranch needs an even ambient dimension")
    _within(spec.k, spec.dim // 2, "cbranch index")


def _check_mapb(spec: ConeSpec) -> None:
    n, p = spec.dim, spec.p
    _require(p is not None and abs(p - round(p)) < 1e-12 and 1 <= p <= n,
             f"mapb needs an integer p in [1, {n}], got {p}")
    object.__setattr__(spec, "p", float(round(p)))
    _within(spec.k, math.comb(n, int(spec.p)), "mapb branch index")


def _check_frames(spec: ConeSpec) -> None:
    _require(bool(spec.frames), f"{spec.kind} cone needs a non-empty frame list")
    frames = tuple(spec.frames)
    _require(spec.kind != "horiz" or len(frames) == 1, "horiz cone takes exactly one frame")
    _require(len({f.plane_dim for f in frames}) == 1, "all frames must share one plane dimension")
    for f in frames:
        if f.ambient_dim != spec.dim:
            raise DimensionMismatchError(
                f"frame ambient dim {f.ambient_dim} != cone dim {spec.dim}"
            )
    object.__setattr__(spec, "frames", frames)


def _check_base(spec: ConeSpec, amount_ok: bool = True) -> None:
    _require(spec.base is not None and spec.base.dim == spec.dim,
             f"{spec.kind} cone needs a base cone in the same dim")
    _require(amount_ok, f"enlargement amount must be >= 0, got {spec.c}")


def _arity(head: str, rest: list, count: int) -> None:
    if len(rest) != count:
        raise SpecParseError(f"{head!r} takes {count} parameter(s), got {len(rest)}", len(head))


def _parse_scalars(kind, rest: list, text: str, dim: int) -> ConeSpec:
    _arity(kind.head, rest, len(kind.fields))
    params = {}
    for i, (name, typ) in enumerate(kind.fields):
        try:
            params[name] = typ(rest[i])
        except ValueError:
            pos = len(":".join([kind.head, *rest[:i]])) + 1
            raise SpecParseError(
                f"expected a number at position {pos}, got {rest[i]!r}", pos
            ) from None
    return ConeSpec(kind.name, dim, **params)


def _parse_frames(kind, rest: list, text: str, dim: int) -> ConeSpec:
    _arity(kind.head, rest, 1)
    if not rest[0].startswith("@"):
        raise SpecParseError(
            f"{kind.head!r} expects @<frames file>, got {rest[0]!r}", len(kind.head) + 1
        )
    frames = symmat.read_frames_csv(rest[0][1:])
    if kind.name == "horiz" and len(frames) != 1:
        raise SpecParseError("horiz frame file must hold one frame", len(kind.head) + 1)
    return ConeSpec(kind.name, dim, frames=tuple(frames))


def _parse_enl(kind, rest: list, text: str, dim: int) -> ConeSpec:
    if len(rest) < 2:
        raise SpecParseError("enl:<base...>:<c>", len(kind.head))
    base = parse_cone(":".join(rest[:-1]), dim)
    try:
        c = float(rest[-1])
    except ValueError:
        raise SpecParseError(
            f"expected the enlargement amount, got {rest[-1]!r}",
            len(text) - len(rest[-1]),
        ) from None
    return enlarged_cone(base, c)


def _parse_dual(kind, rest: list, text: str, dim: int) -> ConeSpec:
    if not rest:
        raise SpecParseError("dual:<base...>", len(kind.head))
    return dual_cone(parse_cone(":".join(rest), dim))


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


def _pucci_machine(spec: ConeSpec, lam: np.ndarray):
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


def _sigma_machine(spec: ConeSpec, lam: np.ndarray):
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


def _frames_machine(spec: ConeSpec, mats: np.ndarray):
    traces = frame_traces(mats, spec.frames)
    pdim = spec.frames[0].plane_dim

    def f(t):
        t = np.asarray(t, dtype=float)
        return (traces + pdim * t[..., None]).min(axis=-1)

    return f, lambda: -traces.min(axis=-1) / pdim


def _enl_machine(spec: ConeSpec, mats: np.ndarray):
    fb, root_b = _margin_machine(spec.base, mats)
    return lambda t: fb(np.asarray(t, dtype=float) + spec.c), lambda: root_b() - spec.c


def _dual_machine(spec: ConeSpec, mats: np.ndarray):
    fneg, root_neg = _margin_machine(spec.base, -mats)
    return lambda t: -fneg(-np.asarray(t, dtype=float)), lambda: -root_neg()


def _frames_witness(spec: ConeSpec, A: SymMatrix) -> dict:
    return {"frame_index": int(np.argmin(frame_traces(A.entries, spec.frames))) + 1}


def _pp_witness(spec: ConeSpec, A: SymMatrix) -> dict:
    k, frac = symmat._split_p(spec.p)
    return {"eigen_indices": list(range(1, k + (frac > 0.0) + 1))}


def _mapb_witness(spec: ConeSpec, A: SymMatrix) -> dict:
    lam = symmat.eigenvalues_of(A)
    idx = pfold_index_sets(spec.dim, int(spec.p))
    order = np.argsort(lam[idx].sum(axis=-1), kind="stable")
    return {"eigen_subset": [int(i) + 1 for i in idx[order[spec.k - 1]]]}


def _dual_witness(spec: ConeSpec, A: SymMatrix) -> dict:
    # the dual of a kind with a mirror is the mirror; any other base is witnessed at -A
    mirror = _KINDS[spec.base.kind].mirror
    return _witness(mirror(spec.base), A) if mirror else _witness(spec.base, -A)


_REFLECTION = "reflection: A is a dual member iff -A is not interior to the cone"


@dataclass(frozen=True)
class _Kind:
    """The rules of kind ``name`` (see the module docstring).  ``parse``
    reads the tokens after ``head``, ``describe`` is None for a descriptor
    of scalar ``fields`` only, and a None flag means as the base.
    ``machine`` and ``dual_margins`` read the ascending eigenvalues of a
    spectral kind's stack (``machine`` any other kind's stack), and
    ``characteristic(spec, s)`` is s times the closed form."""

    name: str
    head: str
    machine: Callable
    fields: tuple = ()
    parse: Callable = _parse_scalars
    describe: Optional[Callable] = None
    check: Callable = lambda spec: None
    spectral: Optional[bool] = True
    sampled: Optional[bool] = False
    witness: Callable = lambda spec, A: None
    mirror: Optional[Callable] = None
    dual_margins: Optional[Callable] = None
    dual_text: Callable = lambda spec: _REFLECTION
    characteristic: Callable = lambda spec, scale: None


_KINDS = {kind.name: kind for kind in (
    _Kind("positivity", "p",
          machine=lambda s, lam: _affine(lam[..., 0], 1.0),
          witness=lambda s, A: {"eigen_index": 1},
          dual_margins=lambda s, lam: top_partial_sum_eigs(lam, 1.0),
          dual_text=lambda s: f"branch:{s.dim} (largest eigenvalue >= 0)",
          characteristic=lambda s, scale: scale),
    _Kind("pp", "pp", fields=(("p", float),),
          check=lambda s: _within(s.p, s.dim, "pp parameter"),
          machine=lambda s, lam: _affine(partial_sum_eigs(lam, s.p), s.p),
          witness=_pp_witness,
          dual_margins=lambda s, lam: top_partial_sum_eigs(lam, s.p),
          dual_text=lambda s: f"sum of the {_fmt(s.p)} largest eigenvalues >= 0",
          characteristic=lambda s, scale: scale * s.p),
    _Kind("branch", "branch", fields=(("k", int),),
          check=lambda s: _within(s.k, s.dim, "branch index"),
          machine=lambda s, lam: _affine(lam[..., s.k - 1], 1.0),
          witness=lambda s, A: {"eigen_index": s.k},
          mirror=lambda s: branch_cone(s.dim - s.k + 1, s.dim),
          # k >= 2 holds every I - pP_e: n, raised by an enlargement, not cut by a dual
          characteristic=lambda s, scale: scale if s.k == 1 else max(scale, 1.0) * s.dim),
    _Kind("cbranch", "cbranch", fields=(("k", int),), check=_check_cbranch, spectral=False,
          machine=lambda s, mats: _affine(hermitian_eigenvalues(mats)[..., s.k - 1], 1.0),
          witness=lambda s, A: {"hermitian_eigen_index": s.k},
          mirror=lambda s: complex_branch_cone(s.dim // 2 - s.k + 1, s.dim),
          characteristic=lambda s, scale: 2.0 * scale if s.k == 1 else max(scale, 1.0) * s.dim),
    _Kind("pdelta", "pdelta", fields=(("delta", float),),
          check=lambda s: _require(s.delta is not None and s.delta > 0,
                                   f"pdelta parameter must be > 0, got {s.delta}"),
          machine=lambda s, lam: _affine(lam[..., 0] + s.delta * lam.sum(axis=-1),
                                         1.0 + s.delta * s.dim),
          characteristic=lambda s, scale: scale * (1.0 + s.delta * s.dim) / (1.0 + s.delta)),
    _Kind("pucci", "pucci", fields=(("lam", float), ("Lam", float)),
          check=lambda s: _require(s.lam is not None and s.Lam is not None and 0 < s.lam < s.Lam,
                                   f"pucci needs 0 < lam < Lam, got ({s.lam}, {s.Lam})"),
          machine=_pucci_machine,
          dual_text=lambda s: (f"{_fmt(s.Lam)}*tr(A+) + {_fmt(s.lam)}*tr(A-) >= 0 "
                               "(coefficients swapped)"),
          characteristic=lambda s, scale: scale * ((s.lam / s.Lam) * (s.dim - 1) + 1.0)),
    _Kind("sigma", "sigma", fields=(("k", int),),
          check=lambda s: _within(s.k, s.dim, "sigma index"),
          machine=_sigma_machine,
          witness=lambda s, A: {"sigma_index": int(np.argmin(
              elementary_symmetric(symmat.eigenvalues_of(A), s.k)[1:])) + 1},
          characteristic=lambda s, scale: scale * s.dim / s.k),
    _Kind("mapb", "mapb", fields=(("p", _whole), ("k", int)), check=_check_mapb,
          machine=lambda s, lam: _affine(pfold_sums_eigs(lam, int(s.p))[..., s.k - 1], s.p),
          witness=_mapb_witness,
          dual_text=lambda s: f"mapb:{int(s.p)}:{math.comb(s.dim, int(s.p)) - s.k + 1}",
          # above C(n-1, p-1) the index holds every I - pP_e, as branch's k >= 2 does
          characteristic=lambda s, scale: (scale * int(s.p) if s.k <= math.comb(s.dim - 1, int(s.p) - 1)
                                           else max(scale, 1.0) * s.dim)),
    _Kind("geom", "geom", parse=_parse_frames, check=_check_frames, spectral=False, sampled=True,
          describe=lambda s: f"geom:{len(s.frames)}x{s.frames[0].plane_dim}-frames",
          machine=_frames_machine, witness=_frames_witness,
          characteristic=lambda s, scale: scale * s.frames[0].plane_dim),
    _Kind("horiz", "horiz", parse=_parse_frames, check=_check_frames, spectral=False,
          describe=lambda s: f"horiz:{s.frames[0].plane_dim}-plane",
          machine=_frames_machine, witness=_frames_witness,
          mirror=lambda s: s,  # a half-space {tr(A|W) >= 0} is its own dual
          characteristic=lambda s, scale: scale * s.frames[0].plane_dim),
    _Kind("enl", "enl", parse=_parse_enl, spectral=None, sampled=None,
          check=lambda s: _check_base(s, amount_ok=s.c is not None and s.c >= 0),
          describe=lambda s: f"enl:{s.base.describe()}:{_fmt(s.c)}",
          machine=_enl_machine,
          witness=lambda s, A: _witness(s.base, A + s.c * symmat.identity(s.dim))),
    _Kind("dual", "dual", parse=_parse_dual, check=_check_base, spectral=None, sampled=None,
          describe=lambda s: f"dual:{s.base.describe()}",
          machine=_dual_machine, witness=_dual_witness,
          mirror=lambda s: s.base),  # the dual of a dual is the base
)}
_HEADS = {kind.head: kind for kind in _KINDS.values()}


# -- margins ----------------------------------------------------------------


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
    kind = _KINDS[spec.kind]
    return kind.machine(spec, symmat.eigenvalues_of(mats) if kind.spectral else mats)


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
    return _KINDS[spec.kind].witness(spec, A)


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


@np.errstate(over="ignore", invalid="ignore")
def contains(spec: ConeSpec, A, mode: str = "closed") -> MembershipReport:
    """Membership of A in the cone, in ``closed`` or ``interior`` mode.

    A margin that overflows raises DomainError.
    """
    A = as_matrix(A)
    threshold = float(thresholds(A, mode)[0])
    margin = float(margins(spec, A)[0])
    if not math.isfinite(margin):
        raise DomainError(
            f"membership margin of {spec.describe()} overflows; the matrix entries are too large"
        )
    return MembershipReport(
        member=margin >= threshold,
        margin=margin,
        witness=_witness(spec, A),
        mode=mode,
        threshold=threshold,
        sampled=spec.sampled,
    )


def dual_fast_margins(spec: ConeSpec, mats) -> Optional[np.ndarray]:
    """Closed-form dual margins where the catalogue provides them.

    Partial-sum cones dualize to top partial sums, branches to their
    mirror (reflected index), ``horiz`` to itself and a ``dual`` to its
    base; other kinds return None (definitional only).
    """
    arr = _stack(mats)
    kind = _KINDS[spec.kind]
    if kind.mirror:
        return _margin_machine(kind.mirror(spec), arr)[0](0.0)
    if kind.dual_margins:
        return kind.dual_margins(spec, symmat.eigenvalues_of(arr))
    return None


# -- sampling ---------------------------------------------------------------


@dataclass(frozen=True)
class SampleConfig:
    """Seeded sampling parameters for randomized certifications."""

    seed: int = 0
    count: int = 1000

    def __post_init__(self):
        if not 1 <= self.count <= SAMPLE_CAP:
            raise DomainError(f"sample count must be in [1, {SAMPLE_CAP}], got {self.count}")


def sample_goe(rng: np.random.Generator, n: int, count: int):
    """Gaussian-orthogonal-ensemble matrices of shape (count, n, n),
    ``0.5 * (G + G^T)`` for a standard normal G, in one pass: an in-place
    ``G += G^T`` would make numpy buffer its overlapping operand."""
    G = rng.standard_normal((count, n, n))
    S = G + np.swapaxes(G, -1, -2)
    S *= 0.5
    return S


def _draw_goe(rng: np.random.Generator, n: int, stacks: int):
    """A block draw for ``_first_failure``: ``stacks`` GOE stacks from rng."""
    return lambda size: [sample_goe(rng, n, size) for _ in range(stacks)]


def _blocks(count: int, dim: int) -> range:
    """The start of each sampling block of ``count`` samples in ``dim``, in
    index order; a block ends at the next start or at ``count``.  DIM_CAP
    keeps every block at least one matrix."""
    return range(0, count, _BLOCK_ENTRIES // dim**2)


def _worker_count(blocks: int) -> int:
    """Threads for a check of ``blocks`` blocks: one per CPU this process
    may run on, at most one per block; 1 where ``os.sched_getaffinity`` is
    missing."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), blocks))


def _first_failure(count: int, dim: int, draw, test):
    """The report of the lowest block of ``count`` samples in ``dim`` for
    which ``test(start, *draw(size))`` returns one, or None if no block
    fails; an exception raised at a lower block than any report is raised.

    ``_worker_count`` threads, the caller one of them, take the blocks in
    index order.  A thread draws its block under a lock, so every block
    gets the samples of a serial scan from the one generator ``draw``
    reads, and tests them outside it (numpy's ``eigvalsh`` releases the
    GIL).  An exception while drawing or testing block b is block b's
    result, and no block at or past the lowest failing block found so far
    is taken.  A KeyboardInterrupt or SystemExit in any thread stops every
    thread at its next block and is raised whatever its block.  Each
    thread runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds in it, and every thread is joined before this
    returns or raises.
    """
    starts = _blocks(count, dim)
    blocks = len(starts)
    lock = threading.Lock()
    found = {}  # block -> its report or exception; -1 -> an interrupt
    taken = 0  # the next block to draw; ``blocks`` once the scan stops

    def scan():
        nonlocal taken
        while True:
            try:
                with lock:
                    if taken >= min(found, default=blocks):
                        return
                    b, taken = taken, taken + 1
                    start = starts[b]
                    drawn = draw(min(starts.step, count - start))
                result = test(start, *drawn)
            except Exception as exc:
                result = exc
            except BaseException as exc:
                b, result = -1, exc
            if result is not None:
                with lock:
                    found[b] = result

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(scan,))
               for _ in range(_worker_count(blocks) - 1)]
    try:
        for thread in threads:
            thread.start()
        scan()
    finally:
        with lock:
            taken = blocks
        for thread in threads:
            if thread.is_alive():  # not one that failed to start
                thread.join()
    result = found[min(found)] if found else None
    if isinstance(result, BaseException):
        raise result
    return result


def _finite(spec: ConeSpec, m: np.ndarray, what: str = "margins") -> np.ndarray:
    """m, or a DomainError naming the cone where m overflows."""
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{what} of {spec.describe()} overflow")
    return m


def _shift(spec: ConeSpec, f, root) -> np.ndarray:
    """``membership_shift`` from a margin rule ``(f, root)`` of ``spec``."""
    need = f(0.0) < 0.0
    t = _finite(spec, np.where(need, root(), 0.0), "membership shifts")
    m = f(t)  # f(0) where no shift is needed
    if np.isnan(m).any():
        raise DomainError(f"margins of {spec.describe()} overflow")
    step = np.spacing(np.abs(t))
    short = need & (m < 0.0)
    while np.any(short):
        t[short] += step[short]
        step[short] *= 2.0
        short &= f(t) < 0.0
    return _finite(spec, t, "membership shifts")


@np.errstate(over="ignore", invalid="ignore")
def membership_shift(spec: ConeSpec, mats) -> np.ndarray:
    """The smallest t >= 0 per matrix, to a few ulps of its scale, with
    ``A + t I`` in the cone.

    Members get exactly 0; every other matrix gets the crossing that
    ``_margin_machine`` computes for its rule, nudged upward by a step that
    starts at one ulp of t and doubles until the margin is >= 0: a fixed
    ulp can stall for enl, where ``t + c`` rounds back to c while t is
    much smaller than c, and a crossing near 0 can round to just below it.
    A crossing that overflows, or a margin that is NaN at 0 or at the
    crossing, raises DomainError.
    """
    return _shift(spec, *_margin_machine(spec, _stack(mats)))


def force_membership(spec: ConeSpec, mats: np.ndarray) -> np.ndarray:
    """Shift each matrix along the identity onto the cone boundary, by
    ``membership_shift``, and return the stack: members stay unchanged,
    every other matrix lands essentially on the boundary, from inside.
    A writable float stack is shifted in place, any other input in a copy
    (a SymMatrix's entries are read-only)."""
    mats = _stack(mats)
    if not mats.flags.writeable:
        mats = mats.copy()
    t = membership_shift(spec, mats)
    rows = np.nonzero(t)[0]
    diag = np.arange(spec.dim)
    mats[rows[:, None], diag, diag] += t[rows, None]
    return mats


def _spectral_margins(spec: ConeSpec, lam: np.ndarray) -> np.ndarray:
    """The margins of a kind with ``spectral=True`` at rows of ascending
    eigenvalues, without a matrix."""
    return _finite(spec, _KINDS[spec.kind].machine(spec, lam)[0](0.0))


@dataclass(frozen=True)
class RelationReport:
    """Result of a randomized ``F + M subset F`` certification.

    ``checked`` counts the samples of the reported ``family`` that were
    tested: all of them on a pass, those through the failing block
    otherwise; ``failure_index`` indexes that family's samples, for the
    commuting family its draws.  A GOE failure's dict carries no family
    key.
    """

    passed: bool
    checked: int
    failure_index: Optional[int] = None
    counterexample: Optional[tuple] = None  # (SymMatrix, SymMatrix)
    margins: Optional[dict] = None
    family: str = "goe"

    def to_dict(self) -> dict:
        out = {"passed": bool(self.passed)}
        if not self.passed:
            A, B = self.counterexample
            out["counterexample"] = {"A": A.entries.tolist(), "B": B.entries.tolist()}
            out["margins"] = {k: float(v) for k, v in self.margins.items()}
            if self.family != "goe":
                out["family"] = self.family
        return out


@np.errstate(over="ignore", invalid="ignore")
def check_relation(F: ConeSpec, M: ConeSpec, cfg: SampleConfig) -> RelationReport:
    """Certify ``F + M subset F`` on seeded random samples.

    Draws A in F and B in M (GOE samples shifted along the identity onto
    the cone boundary) and verifies A + B stays in F.  Each block of
    ``_blocks`` draws its A stack and then its B stack from the one
    generator seeded with ``cfg.seed``, so a count within one block draws
    the stream of an unblocked check.  The blocks are split over the CPUs
    by ``_first_failure``; the report is that of the first block with a
    counterexample: its global index, the pair, and its rows of the
    block's stacked margins; or a pass.

    Where F and M are both kinds with ``spectral=True`` (positivity, pp,
    branch, pdelta, pucci, sigma, mapb) and the GOE samples pass, half as
    many commuting pairs follow, family ``commuting``: independent GOE
    pairs rarely align their low eigenvectors in higher dimensions, which
    is where a relation false by a small margin fails.  Its samples are
    ``ceil(cfg.count / 4)`` draws, in blocks from a generator spawned from
    ``cfg.seed``, so the GOE stream is untouched.  A draw is two sorted
    rows of standard normals, ascending eigenvalues a and b, each moved
    onto its cone's boundary by its margin rule's crossing.  Then
    ``diag(a) + diag(sigma b)`` has the eigenvalues ``a + b`` for sigma
    the identity and ``sort(a + reversed b)`` for the reversal; both are
    tested against F's margin and the closed threshold, with no
    ``eigvalsh``.  A failure reports
    ``diag(a)``, ``diag(sigma b)`` and their margins.  ``enl``, ``dual``,
    ``cbranch``, ``geom`` and ``horiz`` have no such diagonal family and
    get the GOE samples only.

    Overflow raises DomainError, not a warning: for non-finite samples
    (``eigenvalues_of``), and naming the cone for non-finite shifts or
    margins.
    """
    if F.dim != M.dim:
        raise DimensionMismatchError(f"cone dims differ: {F.dim} vs {M.dim}")

    def failure(start, size, i, A, B, m_a, m_b, m_sum, family):
        return RelationReport(
            passed=False,
            checked=start + size,
            failure_index=start + i,
            counterexample=(SymMatrix(A), SymMatrix(B)),
            margins={"margin_a": float(m_a), "margin_b": float(m_b), "margin_sum": float(m_sum)},
            family=family,
        )

    def goe(start, A, B):
        A = force_membership(F, A)
        B = force_membership(M, B)
        S = A + B
        m = _finite(F, margins(F, S))
        bad = np.nonzero(m < thresholds(S))[0]
        if bad.size == 0:
            return None
        i = int(bad[0])
        # rows of the stacked margins: for geom/horiz a lone matrix's margin can
        # differ from its stack row in the last bit (einsum's summation order)
        return failure(start, len(S), i, A[i], B[i], margins(F, A)[i], margins(M, B)[i], m[i], "goe")

    def commuting(start, pair):
        pair.sort(axis=-1)
        a, b = pair
        for spec, lam in ((F, a), (M, b)):
            lam += _shift(spec, *_KINDS[spec.kind].machine(spec, lam))[:, None]
        sigma_b = (b, b[:, ::-1])
        S = np.stack([a + b, np.sort(a + sigma_b[1], axis=-1)])
        m = _spectral_margins(F, S)
        # the closed thresholds of diag(S): an ascending row has max|s_i| = max(-s_1, s_n)
        low = m < -CLOSED_TOL * (1.0 + np.maximum(-S[..., 0], S[..., -1]))
        bad = np.nonzero(low.any(axis=0))[0]
        if bad.size == 0:
            return None
        i = int(bad[0])
        j = 0 if low[0, i] else 1
        return failure(start, len(a), i, np.diag(a[i]), np.diag(sigma_b[j][i]), _spectral_margins(F, a[i:i + 1])[0],
                       _spectral_margins(M, b[i:i + 1])[0], m[j, i], "commuting")

    n = F.dim
    report = _first_failure(cfg.count, n, _draw_goe(np.random.default_rng(cfg.seed), n, 2), goe)
    if report is None and _KINDS[F.kind].spectral and _KINDS[M.kind].spectral:
        rng = np.random.default_rng(cfg.seed).spawn(1)[0]
        draws = (cfg.count + 3) // 4  # two pairs a draw: half as many pairs as samples
        report = _first_failure(draws, n, lambda size: [rng.standard_normal((2, size, n))], commuting)
    return report or RelationReport(passed=True, checked=cfg.count)


@dataclass(frozen=True)
class DualityReport:
    """Result of a randomized check of a closed-form dual margin.

    ``checked`` counts as in RelationReport; a failure carries the sample
    and its ``definitional_margin`` and ``fast_margin``.
    """

    passed: bool
    checked: int
    failure_index: Optional[int] = None
    counterexample: Optional[np.ndarray] = None
    margins: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"passed": bool(self.passed)}
        if not self.passed:
            out["counterexample"] = {"sample_index": int(self.failure_index),
                                     "A": self.counterexample.tolist(), **self.margins}
        return out


@np.errstate(over="ignore", invalid="ignore")
def check_duality(spec: ConeSpec, cfg: SampleConfig) -> DualityReport:
    """Closed-form (``dual_fast_margins``) versus definitional (the
    ``dual:`` kind's) margins on seeded GOE samples: they must agree to
    within the interior threshold of each sample.  GOE samples are drawn
    and tested block by block, as in ``check_relation``, which also gives
    the overflow errors.
    A cone without a closed-form dual raises DomainError.
    """
    dual = dual_cone(spec)
    kind = _KINDS[spec.kind]
    if not (kind.mirror or kind.dual_margins):  # dual_fast_margins would return None
        raise DomainError(f"check duality needs a cone with a closed-form dual "
                          f"(p, pp, branch, cbranch, horiz or any dual:), got {spec.describe()}")

    def test(start, mats):
        fast = _finite(spec, dual_fast_margins(spec, mats), "dual margins")
        definitional = _finite(spec, margins(dual, mats), "dual margins")
        bad = np.nonzero(np.abs(fast - definitional) > thresholds(mats, "interior"))[0]
        if bad.size == 0:
            return None
        i = int(bad[0])
        return DualityReport(
            passed=False,
            checked=start + len(mats),
            failure_index=start + i,
            counterexample=mats[i].copy(),
            margins={
                "definitional_margin": float(definitional[i]),
                "fast_margin": float(fast[i]),
            },
        )

    report = _first_failure(cfg.count, spec.dim, _draw_goe(np.random.default_rng(cfg.seed), spec.dim, 1), test)
    return report or DualityReport(passed=True, checked=cfg.count)


# -- unit-vector family test and Riesz characteristic ------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _normal_quantile(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each entry of u in (0, 1): the
    standard library's, Wichura's AS241 (scipy.special.ndtri would cost
    0.35 s and 22 MB to import)."""
    from statistics import NormalDist

    return np.frompyfunc(NormalDist().inv_cdf, 1, 1)(u).astype(float)


def sphere_lattice(n: int, count: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Rows ``start:stop`` (default all) of ``count`` deterministic
    low-discrepancy unit vectors in R^n; each row depends only on its index.

    Uses equal angles on the circle, a Fibonacci spiral on the 2-sphere,
    and a Weyl sequence pushed through the inverse normal CDF above.
    """
    count = max(1, int(count))
    k = np.arange(start, count if stop is None else stop)
    if n == 1:
        return np.ones((k.size, 1))
    if n == 2:
        theta = np.pi * k / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        i = k + 0.5
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        phi = 2.0 * np.pi * i / golden
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    if n > len(_PRIMES):
        raise ResourceLimitError(f"sphere lattice supports n <= {len(_PRIMES)}")
    alphas = np.sqrt(np.array(_PRIMES[:n], dtype=float))
    u = np.mod((k + 1)[:, None] * alphas, 1.0)
    g = _normal_quantile(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms < 1e-12] = 1.0
    return g / norms[:, None]


def _test_directions(spec: ConeSpec, sphere_samples: int):
    """The direction family in index order, in the blocks of ``_blocks``:
    one axis when the cone depends only on eigenvalues, else a sphere
    lattice of ``2 * sphere_samples`` points, the coordinate axes and the
    vectors of the frames the cone is built on, if any; ``sphere_samples``
    must lie in [1, SAMPLE_CAP]."""
    if not 1 <= sphere_samples <= SAMPLE_CAP:
        raise DomainError(f"sphere sample count must be in [1, {SAMPLE_CAP}], got {sphere_samples}")
    n = spec.dim
    if spec.o_n_invariant:
        yield np.eye(n)[:1]
        return
    base = spec
    while base.base is not None:
        base = base.base
    tail = np.vstack([np.eye(n), *(f.vectors for f in base.frames or ())])
    count = 2 * sphere_samples
    starts = _blocks(count + len(tail), n)
    for start in starts:
        stop = min(start + starts.step, starts.stop)
        yield np.vstack([sphere_lattice(n, count, start, min(stop, count)),
                         tail[max(start - count, 0):max(stop - count, 0)]])


@dataclass(frozen=True)
class PPSubsetReport:
    """Result of testing ``I - p P_e`` membership over a direction family;
    ``checked`` counts directions as RelationReport counts samples."""

    passed: bool
    p: float
    checked: int
    counterexample: Optional[np.ndarray] = None
    margin: Optional[float] = None

    def to_dict(self) -> dict:
        out = {"passed": bool(self.passed), "p": float(self.p)}
        if not self.passed:
            out["counterexample"] = {"e": self.counterexample.tolist(), "margin": float(self.margin)}
        return out


def pp_subset_test(M: ConeSpec, p: float, sphere_samples: int = SPHERE_SAMPLES) -> PPSubsetReport:
    """Test ``I - p P_e in M`` over a deterministic direction family.

    A single direction suffices (and is used) when M depends only on
    eigenvalues; otherwise a sphere lattice of ``2 * sphere_samples``
    points plus the coordinate axes is probed, block by block, up to the
    first failing block.
    """
    symmat._check_p(p, M.dim)
    checked = 0
    for es in _test_directions(M, sphere_samples):
        checked += es.shape[0]
        failure = _first_nonmember(M, es, np.eye(M.dim) - p * np.einsum("ki,kj->kij", es, es))
        if failure is not None:
            return PPSubsetReport(False, float(p), checked, *failure)
    return PPSubsetReport(passed=True, p=float(p), checked=checked)


def _first_nonmember(M: ConeSpec, es: np.ndarray, mats: np.ndarray):
    """``(e, margin)`` of the first of ``mats``, one per row e of ``es``,
    outside M with the closed tolerance, or None."""
    m = margins(M, mats)
    bad = np.nonzero(m < thresholds(mats))[0]
    if bad.size == 0:
        return None
    i = int(bad[0])
    return es[i], float(m[i])


def _cone_and_shift(spec: ConeSpec):
    """``(H, a)`` with A in spec exactly when ``A + a I`` is in H, for a
    cone H closed under positive scaling: an enlargement adds its amount
    to a, a dual takes H to its mirror or its dual and negates a."""
    if spec.kind == "enl":
        H, a = _cone_and_shift(spec.base)
        return H, a + spec.c
    if spec.kind == "dual":
        H, a = _cone_and_shift(spec.base)
        return (_KINDS[H.kind].mirror or dual_cone)(H), -a
    return spec, 0.0


def closed_form_characteristic(spec: ConeSpec) -> Optional[float]:
    """Catalogue closed form for the identity-minus-projector threshold,
    uncapped: ``(1 + a)`` times H's for ``(H, a) = _cone_and_shift(spec)``,
    so nested enlargements add.  A value at or above the dimension n is
    not a threshold: it means that the cone holds every ``I - p P_e``
    with p <= n (``enl:branch:2:0.25`` in dim 4 gives 5.0), so the
    characteristic is n."""
    H, a = _cone_and_shift(spec)
    return _KINDS[H.kind].characteristic(H, 1.0 + a)


@dataclass(frozen=True)
class RieszCharacteristic:
    """Threshold exponent of a cone with its catalogue closed form.

    ``at_cap`` flags 'characteristic >= n' (the family test passed at the
    ambient dimension, with the closed tolerance); ``sampled`` flags
    direction-sampled results for cones that do not depend on eigenvalues
    alone.  ``closed_form`` is uncapped: at or above n it says that the
    cone holds every ``I - p P_e`` with p <= n, not where it stops.
    ``iterations`` is always 0: no search runs.
    """

    value: float
    closed_form: Optional[float]
    at_cap: bool
    sampled: bool
    iterations: int

    def to_dict(self) -> dict:
        return {
            "riesz_characteristic": float(self.value),
            "closed_form": None if self.closed_form is None else float(self.closed_form),
            "at_cap": bool(self.at_cap),
            "sampled": bool(self.sampled),
        }


def riesz_characteristic(M: ConeSpec, sphere_samples: int = SPHERE_SAMPLES) -> RieszCharacteristic:
    """Largest p <= n with ``I - p P_e`` in M for the tested direction family.

    With ``(H, a) = _cone_and_shift(M)``, ``I - p P_e`` is in M exactly
    when ``((1 + a)/p) I - P_e`` is in H, so direction e passes up to
    ``p = (1 + a)/t`` for ``t = membership_shift(H, -P_e)``: no search, and
    exact to a few ulps.  Each block of directions is built once and
    tested for ``I - P_e``, for ``I - n P_e`` until that first fails, and
    for its shifts.  Agreement with a catalogue closed form is asserted.
    A cone without the identity in its interior, or without ``I - P_e``
    for some tested direction e, is a DomainError.
    """
    if not contains(M, symmat.identity(M.dim), mode="interior").member:
        raise DomainError(
            "riesz_characteristic needs the identity in the cone interior"
        )
    n = float(M.dim)
    H, a = _cone_and_shift(M)
    at_cap, t = True, 0.0
    for es in _test_directions(M, sphere_samples):
        Pe = np.einsum("ki,kj->kij", es, es)
        positivity = _first_nonmember(M, es, np.eye(M.dim) - Pe)
        if positivity is not None:
            e, margin = positivity
            raise DomainError(
                "riesz_characteristic needs I - P_e in the cone for every direction e; "
                f"{M.describe()} rejects it at e = {e.tolist()} (margin {margin:.6g})"
            )
        at_cap = at_cap and _first_nonmember(M, es, np.eye(M.dim) - n * Pe) is None
        t = max(t, float(membership_shift(H, -Pe).max()))
    value = min(n, (1.0 + a) / t) if t > 0.0 else n
    cf = closed_form_characteristic(M)
    if cf is not None and abs(value - min(cf, n)) > 1e-6:
        raise InternalConsistencyError(
            f"characteristic {value:.9g} disagrees with the "
            f"closed form {min(cf, n):.9g} for {M.describe()}"
        )
    return RieszCharacteristic(value, cf, at_cap, not M.o_n_invariant, 0)


def dual_description(spec: ConeSpec) -> str:
    """Human-readable description of the dual cone (a mirror's descriptor)."""
    kind = _KINDS[spec.kind]
    return kind.mirror(spec).describe() if kind.mirror else kind.dual_text(spec)


# -- Pucci Garding polynomial -------------------------------------------------


def garding_index_family(n: int, lam: float, Lam: float) -> list[tuple]:
    """Index subsets whose cube vertex is unreachable by the open segment.

    For each subset I the vertex v has value lam on I and Lam elsewhere;
    I is retained exactly when ``{t * v: 0 < t < 1}`` misses the cube
    ``[lam, Lam]^n``.  The point t * v lies in the cube iff t lies in
    every interval [lam / v_i, Lam / v_i].  A member i gives lam / v_i = 1,
    so no t < 1 reaches the cube, while the empty set reaches it at
    t = lam / Lam < 1: the family is every nonempty subset, in the order
    of their bit masks.
    """
    return _garding_factors(n, lam, Lam)[0]


def _garding_factors(n: int, lam: float, Lam: float):
    """Index family and coefficients: ``eigs @ coeffs.T`` gives every factor."""
    if not 0 < lam < Lam:
        raise DomainError(f"need 0 < lam < Lam, got ({lam}, {Lam})")
    if n > GARDING_DIM_CAP:
        raise ResourceLimitError(
            f"dimension {n} exceeds the Garding cap {GARDING_DIM_CAP} (2^n subsets)"
        )
    members = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1) == 1
    family = [tuple((np.flatnonzero(row) + 1).tolist()) for row in members]
    return family, np.where(members, lam, Lam)


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
    head, *rest = text.split(":")
    if head not in _HEADS:
        raise SpecParseError(f"unknown cone kind {head!r}", 0)
    kind = _HEADS[head]
    try:
        return kind.parse(kind, rest, text, dim)
    except DomainError as exc:
        raise SpecParseError(str(exc), 0) from exc
