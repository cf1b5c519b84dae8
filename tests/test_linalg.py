import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vnspec import linalg
from vnspec.errors import NumericalBreakdown

rng_ints = st.integers(min_value=-4, max_value=4)


def _complex_rows(draw, rows, cols):
    re = draw(st.lists(st.lists(rng_ints, min_size=cols, max_size=cols),
                       min_size=rows, max_size=rows))
    im = draw(st.lists(st.lists(rng_ints, min_size=cols, max_size=cols),
                       min_size=rows, max_size=rows))
    return (np.array(re, dtype=float) + 1j * np.array(im, dtype=float)) / 2.0


@st.composite
def row_batches(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=5))
    return _complex_rows(draw, rows, cols)


@settings(max_examples=40, deadline=None)
@given(row_batches())
def test_extend_orthonormal_spans_and_is_orthonormal(cand):
    empty = np.zeros((0, cand.shape[1]), dtype=np.complex128)
    basis = linalg.extend_orthonormal(empty, cand, 1e-10)
    if basis.size:
        gram = basis @ basis.conj().T
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12
    # every candidate lies in the span
    resid = cand - (cand @ basis.conj().T) @ basis if basis.size else cand
    assert np.abs(resid).max() < 1e-10
    assert len(basis) == np.linalg.matrix_rank(cand, tol=1e-8)


def test_extend_orthonormal_incremental_matches_batch():
    rng = np.random.default_rng(3)
    cand = linalg.random_complex(rng, (40, 7))
    empty = np.zeros((0, 7), dtype=np.complex128)
    all_at_once = linalg.extend_orthonormal(empty, cand, 1e-10)
    stepped = linalg.extend_orthonormal(empty, cand[:10], 1e-10)
    stepped = linalg.extend_orthonormal(stepped, cand[10:], 1e-10)
    assert all_at_once.shape == stepped.shape == (7, 7)
    assert np.abs(stepped @ stepped.conj().T - np.eye(7)).max() < 1e-12


def test_nullspace_is_scale_invariant():
    """The cutoff grows with the largest singular value, so scaling a matrix
    keeps its kernel: an absolute cutoff of 1e-10 loses it at c = 1e8."""
    rng = np.random.default_rng(4)
    a = linalg.random_complex(rng, (5, 3)) @ linalg.random_complex(rng, (3, 4))
    for c in (1.0, 1e4, 1e8):
        k = linalg.nullspace(c * a, 1e-10)
        assert k.shape == (4, 1), c
        assert np.abs(a @ k).max() < 1e-12 * np.linalg.norm(a, 2), c
        assert linalg.rank(c * a, 1e-10) == 3, c


def test_rank_and_spans_share_one_cutoff():
    """rank, orthonormal_columns, extend_orthonormal and nullspace keep the
    same singular values: s > eps_rank * max(1, s_0)."""
    s = np.array([1e6, 1.0, 2e-4, 5e-5])
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(linalg.random_complex(rng, (6, 4)))
    w, _ = np.linalg.qr(linalg.random_complex(rng, (5, 4)))
    a = (u * s) @ w.conj().T
    empty = np.zeros((0, 5), dtype=np.complex128)
    for eps, kept in ((1e-12, 4), (1e-10, 3), (1e-8, 2), (1e-5, 1)):
        assert linalg.rank(a, eps) == kept, eps
        assert linalg.orthonormal_columns(a, eps).shape == (6, kept), eps
        assert linalg.extend_orthonormal(empty, a, eps).shape == (kept, 5), eps
        assert linalg.nullspace(a, eps).shape == (5, 5 - kept), eps
    assert linalg.rank(np.zeros((0, 3)), 1e-10) == 0


def test_nullspace_of_wide_and_tall():
    a = np.array([[1.0, 1.0, 0.0]], dtype=complex)  # wide: kernel dim 2
    k = linalg.nullspace(a, 1e-12)
    assert k.shape == (3, 2)
    assert np.abs(a @ k).max() < 1e-12
    b = np.vstack([np.eye(3), np.eye(3)]).astype(complex)  # tall, full rank
    assert linalg.nullspace(b, 1e-12).shape == (3, 0)


def _nullspace_by_full_svd(a, eps_rank):
    """The kernel from an economy SVD of the tall matrix itself."""
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh[int(np.sum(s > eps_rank)):].conj().T


@pytest.mark.parametrize("seed, rows, cols, rank", [
    (0, 40, 6, 6), (1, 300, 12, 7), (2, 900, 28, 19), (3, 50, 5, 0)])
def test_nullspace_of_tall_input_matches_full_svd(seed, rows, cols, rank):
    rng = np.random.default_rng(seed)
    a = linalg.random_complex(rng, (rows, rank)) @ linalg.random_complex(rng, (rank, cols))
    got = linalg.nullspace(a, 1e-10)
    want = _nullspace_by_full_svd(a, 1e-10)
    assert got.shape == want.shape == (cols, cols - rank)
    assert np.abs(got.conj().T @ got - np.eye(cols - rank)).max(initial=0.0) < 1e-12
    assert linalg.subspace_inclusion_residual(got, want) <= 1e-12
    assert linalg.subspace_inclusion_residual(want, got) <= 1e-12


def test_subspace_inclusion_residual():
    e1 = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    plane = np.eye(3, dtype=complex)[:, :2]
    assert linalg.subspace_inclusion_residual(e1, plane) < 1e-15
    e3 = np.eye(3, dtype=complex)[:, 2:]
    assert abs(linalg.subspace_inclusion_residual(e3, plane) - 1.0) < 1e-12


def test_inv_sqrt_psd():
    rng = np.random.default_rng(0)
    x = linalg.random_complex(rng, (4, 4))
    h = x @ x.conj().T + np.eye(4)
    s = oracles.inv_sqrt_psd(h, 1e-12)
    assert np.abs(s @ h @ s - np.eye(4)).max() < 1e-10


def test_inv_sqrt_psd_failures_are_breakdowns(monkeypatch):
    with pytest.raises(NumericalBreakdown):
        oracles.inv_sqrt_psd(np.diag([1.0, 0.0]), 1e-12)

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(oracles.np.linalg, "eigh", fail)
    with pytest.raises(NumericalBreakdown):
        oracles.inv_sqrt_psd(np.eye(2), 1e-12)


@pytest.mark.parametrize("value", [[1.0, 2.0], np.zeros((2, 2, 2))])
def test_as_matrix_refuses_a_non_matrix(value):
    with pytest.raises(ValueError, match="^expected a matrix$"):
        linalg.as_matrix(value)
