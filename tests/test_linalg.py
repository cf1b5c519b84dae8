import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    stepped = linalg.extend_orthonormal(stepped, cand[10:], 1e-10, chunk=8)
    assert all_at_once.shape == stepped.shape == (7, 7)


def test_nullspace_of_wide_and_tall():
    a = np.array([[1.0, 1.0, 0.0]], dtype=complex)  # wide: kernel dim 2
    k = linalg.nullspace(a, 1e-12)
    assert k.shape == (3, 2)
    assert np.abs(a @ k).max() < 1e-12
    b = np.vstack([np.eye(3), np.eye(3)]).astype(complex)  # tall, full rank
    assert linalg.nullspace(b, 1e-12).shape == (3, 0)


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
    s = linalg.inv_sqrt_psd(h, 1e-12)
    assert np.abs(s @ h @ s - np.eye(4)).max() < 1e-10


def test_inv_sqrt_psd_failures_are_breakdowns(monkeypatch):
    with pytest.raises(NumericalBreakdown):
        linalg.inv_sqrt_psd(np.diag([1.0, 0.0]), 1e-12)

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(linalg.np.linalg, "eigh", fail)
    with pytest.raises(NumericalBreakdown):
        linalg.inv_sqrt_psd(np.eye(2), 1e-12)
