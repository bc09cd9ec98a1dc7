import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conecalc import symmat
from conecalc.errors import (
    DimensionMismatchError,
    DomainError,
    ResourceLimitError,
)
from conecalc.symmat import (
    Frame,
    Jet2,
    SymMatrix,
    as_matrix,
    eigenvalues_of,
    elementary_symmetric,
    frame_traces,
    hermitian_eigenvalues,
    orthonormal_frame,
    partial_sum,
    partial_sum_eigs,
    pfold_sums_eigs,
    random_frame,
    trace_over_frame,
)


def random_sym(rng, n, scale=1.0):
    G = rng.standard_normal((n, n)) * scale
    return SymMatrix(0.5 * (G + G.T))


def test_symmetrization_and_validation():
    M = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert np.allclose(as_matrix(M).entries, [[1.0, 1.0], [1.0, 3.0]])
    with pytest.raises(DomainError):
        SymMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        SymMatrix(np.ones((2, 3)))


def test_a_pickled_matrix_keeps_read_only_entries():
    # numpy unpickles an array writable; SymMatrix keeps its entries read-only
    A = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    B = pickle.loads(pickle.dumps(A))
    assert B.entries.tobytes() == A.entries.tobytes()
    assert not B.entries.flags.writeable
    with pytest.raises(ValueError):
        B.entries[0, 0] = 5.0


# -- partial sums --------------------------------------------------------------


def test_partial_sum_zero_matrix():
    assert partial_sum(np.zeros((3, 3)), 2) == 0.0


def test_partial_sum_fractional_arithmetic():
    assert partial_sum(np.diag([-2.0, 1.0, 1.0, 1.0]), 2.5) == pytest.approx(-0.5)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_partial_sum_identity_minus_projector(p):
    rng = np.random.default_rng(11)
    for _ in range(10):
        e = rng.standard_normal(4)
        e /= np.linalg.norm(e)
        A = np.eye(4) - p * np.outer(e, e)
        assert partial_sum(A, p) == pytest.approx(0.0, abs=1e-12)


def test_partial_sum_concavity():
    # minimum of linear functionals, so midpoint value dominates the average
    rng = np.random.default_rng(5)
    for _ in range(200):
        A, B = random_sym(rng, 4), random_sym(rng, 4)
        p = 1 + 3 * rng.random()
        mid = partial_sum(SymMatrix(0.5 * (A.entries + B.entries)), p)
        assert mid >= 0.5 * partial_sum(A, p) + 0.5 * partial_sum(B, p) - 1e-10


def test_partial_sum_orthogonal_invariance():
    rng = np.random.default_rng(6)
    for _ in range(100):
        A = random_sym(rng, 5)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        p = 1 + 4 * rng.random()
        assert partial_sum(SymMatrix(Q @ A.entries @ Q.T), p) == pytest.approx(
            partial_sum(A, p), abs=1e-9 * A.scale
        )


def test_partial_sum_domain_errors():
    with pytest.raises(DomainError):
        partial_sum(np.eye(3), 0.5)
    with pytest.raises(DomainError):
        partial_sum(np.eye(3), 3.5)


# -- hermitian eigenvalues -------------------------------------------------------


def test_hermitian_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(4)), [1.0, 1.0])


def test_hermitian_anti_invariant_part_vanishes():
    # hand oracle: (A - J A J) / 2 for A = diag(1, -1) is the zero matrix
    A = np.diag([1.0, -1.0])
    J = symmat.complex_structure(2)
    assert np.allclose(0.5 * (A - J @ A @ J), 0.0)
    assert np.allclose(hermitian_eigenvalues(A), [0.0])


def test_hermitian_projector_halves():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, 0.0])), [0.5])


def test_hermitian_requires_even_dim():
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.eye(3))


def test_hermitian_invariance_under_j_commuting_rotations():
    rng = np.random.default_rng(9)
    n = 6
    J = symmat.complex_structure(n)
    for _ in range(20):
        A = random_sym(rng, n)
        vals = hermitian_eigenvalues(A)
        assert np.allclose(hermitian_eigenvalues(SymMatrix(J @ A.entries @ J.T)), vals)
        # block rotation acting as multiplication by a unit complex number
        t = rng.random() * 2 * np.pi
        R = np.cos(t) * np.eye(n) + np.sin(t) * J
        assert np.allclose(
            hermitian_eigenvalues(SymMatrix(R @ A.entries @ R.T)), vals, atol=1e-9
        )


# -- symmetric functions -----------------------------------------------------------


def test_sigma_elementary_examples():
    rng = np.random.default_rng(10)
    A = random_sym(rng, 5)
    assert elementary_symmetric(eigenvalues_of(A), 1)[1] == pytest.approx(
        np.trace(A.entries), abs=1e-10
    )
    e = elementary_symmetric(eigenvalues_of(np.diag([1.0, 2.0, 3.0])), 4)
    assert e.tolist() == pytest.approx([1.0, 6.0, 11.0, 6.0, 0.0])


def test_trace_over_frame_full_basis_and_identity():
    rng = np.random.default_rng(12)
    A = random_sym(rng, 4)
    W = Frame(np.eye(4))
    assert trace_over_frame(A, W) == pytest.approx(np.trace(A.entries), abs=1e-12)
    W2 = random_frame(4, 2, rng)
    assert trace_over_frame(SymMatrix(np.eye(4)), W2) == pytest.approx(2.0)
    with pytest.raises(DimensionMismatchError):
        trace_over_frame(A, Frame(np.eye(3)))


def test_trace_over_frame_eigenframe_minimum():
    rng = np.random.default_rng(13)
    A = random_sym(rng, 5)
    p = 2
    eigenframe = Frame(np.linalg.eigh(A.entries)[1][:, :p].T)
    assert trace_over_frame(A, eigenframe) == pytest.approx(
        partial_sum(A, p), abs=1e-10
    )
    best = min(trace_over_frame(A, random_frame(5, p, rng)) for _ in range(2000))
    assert best >= partial_sum(A, p) - 1e-9


# -- p-fold sums --------------------------------------------------------------------


def test_pfold_sums_examples():
    D = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(pfold_sums_eigs(eigenvalues_of(D), 2), [3.0, 4.0, 5.0])
    assert np.allclose(pfold_sums_eigs(eigenvalues_of(D), 3), [6.0])


def test_pfold_first_entry_is_partial_sum():
    rng = np.random.default_rng(14)
    for _ in range(50):
        A = random_sym(rng, 6)
        p = int(rng.integers(1, 7))
        sums = pfold_sums_eigs(eigenvalues_of(A), p)
        assert sums[0] == pytest.approx(partial_sum(A, p), abs=1e-10 * A.scale)
        assert np.all(np.diff(sums) >= -1e-12)


def test_pfold_shift_by_identity():
    rng = np.random.default_rng(15)
    A = random_sym(rng, 5)
    t = 0.37
    for p in (1, 2, 3):
        base = pfold_sums_eigs(eigenvalues_of(A), p)
        shifted = pfold_sums_eigs(eigenvalues_of(SymMatrix(A.entries + t * np.eye(5))), p)
        assert np.max(np.abs(shifted - base - p * t)) <= 1e-10


def test_pfold_cap():
    old = symmat.PFOLD_CAP
    symmat.PFOLD_CAP = 5
    try:
        with pytest.raises(ResourceLimitError):
            pfold_sums_eigs(eigenvalues_of(np.eye(6)), 3)
    finally:
        symmat.PFOLD_CAP = old


# -- pointwise functionals are rows of the batched ones ------------------------------


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(2, 6), count=st.integers(1, 5))
def test_pointwise_functionals_are_rows_of_the_batched_forms(data, n, count):
    G = data.draw(hnp.arrays(float, (count, n, n), elements=st.floats(-4.0, 4.0)))
    stack = 0.5 * (G + np.swapaxes(G, -1, -2))
    p = data.draw(st.integers(1, n))
    lam = eigenvalues_of(stack)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    W = random_frame(n, p, rng)
    for i, A in enumerate(stack):
        assert np.array_equal(eigenvalues_of(A), lam[i])
        assert partial_sum(A, p) == partial_sum_eigs(lam, p)[i]
        if n % 2 == 0:
            assert np.array_equal(hermitian_eigenvalues(A), hermitian_eigenvalues(stack)[i])
        # einsum may sum a lone matrix in another order than a longer stack
        # (seen in 2-D with one line frame), so the row is the one-row stack
        assert trace_over_frame(A, W) == frame_traces(stack[i : i + 1], [W])[0, 0]
        assert trace_over_frame(A, W) == pytest.approx(
            frame_traces(stack, [W])[i, 0], rel=1e-14, abs=1e-14
        )


def test_elementary_symmetric_truncates_the_full_recurrence():
    lam = np.random.default_rng(3).standard_normal((50, 6))
    full = elementary_symmetric(lam, 6)
    assert np.array_equal(full[:, 0], np.ones(50))
    assert np.allclose(full[:, 6], lam.prod(axis=1))
    for k in range(7):
        assert np.array_equal(elementary_symmetric(lam, k), full[:, : k + 1])


# -- frames and jets ------------------------------------------------------------------


def test_frame_validation_and_orthonormalize():
    with pytest.raises(DomainError):
        Frame(np.array([[1.0, 0.0], [1.0, 0.1]]))
    F = orthonormal_frame(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    assert F.plane_dim == 2
    assert np.allclose(F.vectors @ F.vectors.T, np.eye(2), atol=1e-12)
    with pytest.raises(DomainError):
        orthonormal_frame(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_jet_rejects_nonfinite():
    with pytest.raises(DomainError):
        Jet2(-np.inf, np.zeros(2), SymMatrix(np.eye(2)))


# -- file formats -----------------------------------------------------------------------


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(16)
    A = random_sym(rng, 4)
    path = tmp_path / "mat.csv"
    symmat.write_matrix_csv(path, A)
    B = symmat.read_matrix_csv(path)
    assert np.array_equal(A.entries, B.entries)


def test_frames_csv_roundtrip(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text("1,0,0\n0,1,0\n\n0,0,1\n")
    frames = symmat.read_frames_csv(path)
    assert len(frames) == 2
    assert frames[0].plane_dim == 2
    assert frames[1].plane_dim == 1


def test_eigenvalues_flush_only_relatively_tiny_entries():
    a = 0.49121094
    mixed = np.array([[1e-146, 0, a], [0, 1e-146, 0], [a, 0, 1e-146]])
    tiny = 1e-200 * np.diag([1.0, 2.0, 3.0])
    lam = eigenvalues_of(np.stack([mixed, tiny]))
    assert lam[0] == pytest.approx([-a, 0.0, a], abs=1e-15)
    # each matrix is flushed against its own scale: a uniformly tiny one is kept
    assert np.array_equal(lam[1], [1e-200, 2e-200, 3e-200])
