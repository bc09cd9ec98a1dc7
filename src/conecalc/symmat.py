"""Spectral core: symmetric matrices, ordered eigenvalues, and the
eigenvalue functionals consumed by every cone predicate.

Each functional has one implementation, vectorized over leading axes,
and ``cones`` calls it on stacks.  ``eigenvalues_of`` and
``hermitian_eigenvalues`` also take one matrix: they are the only
one-matrix views left.

Conventions fixed here and relied on everywhere else:

* eigenvalues are reported in ascending order;
* the complex structure ``J`` pairs coordinates as (x1, y1, ..., xm, ym);
* tolerances scale by ``1 + max|A_ij|`` so pass/fail is invariant under
  matrix scaling.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InternalConsistencyError,
    ResourceLimitError,
)

PFOLD_CAP = 10**6


def scale_of(entries) -> float:
    """Tolerance scale ``1 + max|A_ij|`` of a matrix or stack of matrices."""
    entries = np.asarray(entries, dtype=float)
    if entries.size == 0:
        return 1.0
    return 1.0 + float(np.max(np.abs(entries)))


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes the input as ``(M + M^T) / 2`` and rejects
    non-square data and a non-finite result.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DomainError("matrix dimension must be >= 1")
        with np.errstate(over="ignore", invalid="ignore"):
            sym = 0.5 * (arr + arr.T)
        if not np.all(np.isfinite(sym)):
            raise DomainError("matrix entries and their symmetrization must be finite")
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    def __setstate__(self, state):
        # numpy unpickles an array writable: keep the entries read-only, as constructed
        state["entries"].flags.writeable = False
        self.__dict__.update(state)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.entries + as_matrix(other).entries)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.entries - as_matrix(other).entries)

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(-self.entries)

    def __mul__(self, t: float) -> "SymMatrix":
        return SymMatrix(self.entries * float(t))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


def as_matrix(A) -> SymMatrix:
    """Coerce an array-like or SymMatrix to a SymMatrix."""
    if isinstance(A, SymMatrix):
        return A
    return SymMatrix(A)


def identity(n: int) -> SymMatrix:
    return SymMatrix(np.eye(n))


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal vectors spanning a k-plane, stored as rows of shape (k, n)."""

    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if vecs.ndim != 2:
            raise DomainError("frame vectors must form a 2-D array")
        k, n = vecs.shape
        if not 1 <= k <= n:
            raise DomainError(f"frame must have 1..n vectors, got {k} in dim {n}")
        if not np.all(np.isfinite(vecs)):  # NaN would pass the orthonormality test
            raise DomainError(f"frame vectors {vecs.tolist()} must be finite")
        gram = vecs @ vecs.T
        if np.max(np.abs(gram - np.eye(k))) > 1e-12:
            raise DomainError("frame vectors are not orthonormal to 1e-12")
        vecs.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)

    @property
    def plane_dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class Jet2:
    """2-jet (value, gradient, Hessian) of a C^2 function at a point."""

    value: float
    gradient: np.ndarray
    hessian: SymMatrix

    def __post_init__(self):
        grad = np.asarray(self.gradient, dtype=float)
        if not np.isfinite(self.value):
            raise DomainError("jet value must be finite (poles carry no jets)")
        if not np.all(np.isfinite(grad)):
            raise DomainError("jet gradient must be finite")
        grad.flags.writeable = False
        object.__setattr__(self, "gradient", grad)
        object.__setattr__(self, "hessian", as_matrix(self.hessian))

    @property
    def n(self) -> int:
        return self.gradient.shape[0]

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "gradient": self.gradient.tolist(),
            "hessian": self.hessian.entries.tolist(),
        }


# ---------------------------------------------------------------------------
# eigenvalues


def eigenvalues_of(A) -> np.ndarray:
    """Ascending eigenvalues of a SymMatrix, matrix, or stack of matrices.

    Every eigenvalue-only solve goes through here.  Entries below
    ``1e-100 * max|A_ij|`` of their own matrix are flushed to zero first:
    LAPACK's eigvalsh (OpenBLAS 0.3.31) is off by up to 1.2% on matrices
    that mix entries ~1e-146 times the scale with O(1) ones, and the flush
    moves no eigenvalue by more than ``n * 1e-100 * max|A_ij|``.  A
    non-finite entry raises DomainError.
    """
    entries = np.asarray(A.entries if isinstance(A, SymMatrix) else A, dtype=float)
    mags = np.abs(entries)
    top = mags.max(initial=0.0)
    if not np.isfinite(top):
        raise DomainError(f"matrix entries must be finite, got max |A_ij| = {top}")
    # only entries tiny against the whole stack's max can be tiny against
    # their own matrix's; the per-matrix max is the costly reduction
    tiny = (mags > 0.0) & (mags < 1e-100 * top)
    if tiny.any():
        tiny &= mags < 1e-100 * mags.max(axis=(-2, -1), keepdims=True)
        entries = np.where(tiny, 0.0, entries)
    return np.linalg.eigvalsh(entries)


# ---------------------------------------------------------------------------
# eigenvalue functionals


def _check_p(p: float, n: int):
    if not 1.0 <= p <= n:  # NaN fails too
        raise DomainError(f"p={p} out of range [1, {n}]")


def _split_p(p: float):
    # integer/fraction split, tolerant of float noise around integers
    if abs(p - round(p)) < 1e-9:
        return int(round(p)), 0.0
    return int(math.floor(p)), p - math.floor(p)


def partial_sum_eigs(lam: np.ndarray, p: float) -> np.ndarray:
    """Bottom partial sum of ascending eigenvalues along the last axis.

    Returns lam_1 + ... + lam_floor(p) + (p - floor(p)) * lam_{floor(p)+1};
    the fractional term is absent when p is an integer.  Vectorized over
    leading axes.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    _check_p(p, n)
    k, frac = _split_p(p)
    out = lam[..., :k].sum(axis=-1)
    if frac > 0.0:
        out = out + frac * lam[..., k]
    return out


def top_partial_sum_eigs(lam: np.ndarray, p: float) -> np.ndarray:
    """Top partial sum: the same functional applied to the largest eigenvalues.

    Equal to ``-partial_sum_eigs(-lam reversed, p)``; for integer p this is
    lam_{n-p+1} + ... + lam_n.
    """
    lam = np.asarray(lam, dtype=float)
    return -partial_sum_eigs(-lam[..., ::-1], p)


def complex_structure(n: int) -> np.ndarray:
    """The fixed complex structure J on R^n with coordinates paired
    (x1, y1, ..., xm, ym): J e_{2i} = e_{2i+1}, J e_{2i+1} = -e_{2i}."""
    if n % 2 != 0:
        raise DomainError(f"complex structure needs even dimension, got n={n}")
    J = np.zeros((n, n))
    for i in range(0, n, 2):
        J[i + 1, i] = 1.0
        J[i, i + 1] = -1.0
    return J


def hermitian_eigenvalues(A) -> np.ndarray:
    """Ascending hermitian eigenvalues of A, one representative per pair.

    ``A`` is a SymMatrix, a matrix (symmetrized) or an ``(..., n, n)``
    stack.  The real eigenvalues of the hermitian part ``(A - J A J) / 2``
    occur in equal pairs; the k-th returned value is the 2k-th ascending
    real eigenvalue.  A pair mismatch beyond ``1e-8 * (1 + max|A_C|)``
    over the whole stack raises InternalConsistencyError.
    """
    if isinstance(A, SymMatrix) or np.ndim(A) == 2:
        mats = as_matrix(A).entries
    else:
        mats = np.asarray(A, dtype=float)
    J = complex_structure(mats.shape[-1])
    AC = 0.5 * (mats - J @ mats @ J)
    vals = eigenvalues_of(AC)
    tol = 1e-8 * scale_of(AC)
    gaps = np.abs(vals[..., 0::2] - vals[..., 1::2])
    if gaps.size and np.max(gaps) > tol:
        raise InternalConsistencyError(
            f"hermitian eigenvalues failed to pair within {tol:.3g} "
            f"(worst gap {np.max(gaps):.3g})"
        )
    return vals[..., 1::2]


def elementary_symmetric(lam: np.ndarray, k: int) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_k of lam along the last axis.

    Vectorized over leading axes; the result has shape ``(..., k + 1)``.
    """
    lam = np.asarray(lam, dtype=float)
    e = np.zeros(lam.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for j in range(lam.shape[-1]):
        e[..., 1:] = e[..., 1:] + lam[..., j : j + 1] * e[..., :-1]
    return e


def frame_traces(mats, frames) -> np.ndarray:
    """Traces of a matrix or ``(..., n, n)`` stack restricted to the planes
    of F frames of one plane dimension, shape ``(..., F)``."""
    mats = np.asarray(mats, dtype=float)
    if {W.ambient_dim for W in frames} != {mats.shape[-1]}:
        raise DimensionMismatchError(f"frames and matrices of dim {mats.shape[-1]} differ")
    V = np.stack([W.vectors for W in frames])
    return np.einsum("fpi,...ij,fpj->...f", V, mats, V)


def pfold_index_sets(n: int, p: int) -> np.ndarray:
    """Index subsets of size p as an array of shape (C(n,p), p)."""
    count = math.comb(n, p)
    if count > PFOLD_CAP:
        raise ResourceLimitError(
            f"C({n},{p}) = {count} exceeds the configured cap {PFOLD_CAP}"
        )
    return np.array(list(combinations(range(n), p)), dtype=np.intp)


def pfold_sums_eigs(lam: np.ndarray, p: int) -> np.ndarray:
    """Ascending p-fold eigenvalue sums along the last axis, vectorized."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not (isinstance(p, (int, np.integer)) and 1 <= p <= n):
        raise DomainError(f"p={p} must be an integer in [1, {n}]")
    idx = pfold_index_sets(n, int(p))
    sums = lam[..., idx].sum(axis=-1)
    return np.sort(sums, axis=-1)


# ---------------------------------------------------------------------------
# file formats: every file conecalc reads or writes goes through read_text
# or write_text, and every numeric row through csv_lines


def is_number(value) -> bool:
    """Whether a value read from JSON is a number: a bool or a string is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_object(value, what: str, required=(), optional=()) -> dict:
    """``value`` if it is a JSON object holding every ``required`` key and no
    key outside ``required`` and ``optional``; any other value, ``null``
    among them, is a DomainError that names ``what`` and the first bad key."""
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be a JSON object, got {value!r}")
    missing = [key for key in required if key not in value]
    if missing:
        raise DomainError(f"{what} is missing key {missing[0]!r}")
    keys = (*required, *optional)
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise DomainError(f"{what} has no key {unknown[0]!r} (its keys: {', '.join(keys)})")
    return value


def _check_path(path) -> None:
    # open() takes an integer as a file descriptor: 1 would close stdout
    if not isinstance(path, (str, os.PathLike)):
        raise DomainError(f"a file path must be a string, got {path!r}")


def read_text(path) -> str:
    """The text of a UTF-8 file; a path that is not a string or a path
    object, or a file that cannot be read or decoded, raises DomainError."""
    _check_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"could not read {path}: {exc}") from exc


def write_text(path, chunks) -> None:
    """Stream an iterable of strings to a UTF-8 file; a path that is not a
    string or a path object, or cannot be written, raises DomainError."""
    _check_path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DomainError(f"could not write {path}: {exc}") from exc


def csv_lines(rows):
    """Lines of comma-separated ``repr`` values, one per row, lazily."""
    return (",".join(map(repr, row)) + "\n" for row in rows)


def _parse_float_row(line: str, path, lineno: int) -> list[float]:
    try:
        return [float(tok) for tok in line.split(",")]
    except ValueError as exc:
        raise DomainError(f"{path}:{lineno}: {exc}") from exc


def _read_csv_blocks(path) -> list[list[list[float]]]:
    """Float rows of a CSV file, grouped into blocks at blank lines."""
    blocks = [[]]
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if line:
            blocks[-1].append(_parse_float_row(line, path, lineno))
        elif blocks[-1]:
            blocks.append([])
    if len({len(row) for block in blocks for row in block}) > 1:
        raise DomainError(f"rows of {path} differ in length")
    return [block for block in blocks if block]


def read_matrix_csv(path) -> SymMatrix:
    """Read a matrix stored as n lines of n comma-separated floats."""
    return SymMatrix(read_vectors_csv(path))


def read_vectors_csv(path) -> np.ndarray:
    """Read points or vectors, one per line, comma-separated."""
    rows = [row for block in _read_csv_blocks(path) for row in block]
    if not rows:
        raise DomainError(f"no rows in {path}")
    return np.array(rows)


def read_frames_csv(path) -> list[Frame]:
    """Read frames from CSV: vectors as rows, blank lines separate frames."""
    frames = [Frame(np.array(block)) for block in _read_csv_blocks(path)]
    if not frames:
        raise DomainError(f"no frames found in {path}")
    return frames
