"""Dense complex linear algebra helpers.

Matrices are complex128 throughout.  Vectors of operators use the
Hilbert-Schmidt inner product <x, y> = Tr(x* y).  Rank decisions are made on
singular values: ``orthonormal_columns`` and ``extend_orthonormal`` cut at
eps_rank * max(1, s_0) for the largest singular value s_0, ``nullspace`` at
eps_rank itself.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalBreakdown


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def hs_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def extend_orthonormal(existing: np.ndarray, candidates: np.ndarray,
                       eps_rank: float, chunk: int = 384) -> np.ndarray:
    """Extend an orthonormal row family by the span of ``candidates``.

    Candidates are Gram-Schmidt projected against the existing rows (twice,
    re-orthogonalization) and the genuinely new directions are extracted by an
    SVD with singular-value cutoff ``eps_rank``.  Large batches are processed
    in chunks so that rows already captured are filtered before any SVD.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=np.complex128))
    if cand.size == 0:
        return existing
    out = existing
    for start in range(0, cand.shape[0], chunk):
        out = _extend_block(out, cand[start:start + chunk], eps_rank)
    return out


def _extend_block(existing: np.ndarray, cand: np.ndarray,
                  eps_rank: float) -> np.ndarray:
    if existing.size:
        for _ in range(2):
            cand = cand - (cand @ existing.conj().T) @ existing
    norms = np.linalg.norm(cand, axis=1)
    cand = cand[norms > eps_rank]
    if cand.shape[0] == 0:
        return existing
    _, s, vh = np.linalg.svd(cand, full_matrices=False)
    keep = int(np.sum(s > eps_rank * max(1.0, float(s[0]))))
    if not keep:
        return existing
    new = vh[:keep]
    if existing.size:
        # single polishing pass; residual after the batch projection is ~1e-15
        new = new - (new @ existing.conj().T) @ existing
        new = new / np.linalg.norm(new, axis=1)[:, None]
        return np.vstack([existing, new])
    return new


def orthonormal_columns(cols: np.ndarray, eps_rank: float) -> np.ndarray:
    """Orthonormal basis of the column span, via SVD."""
    a = np.atleast_2d(np.asarray(cols, dtype=np.complex128))
    if a.size == 0:
        return a
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = int(np.sum(s > eps_rank * max(1.0, float(s[0]) if s.size else 0.0)))
    return u[:, :keep]


def nullspace(mat: np.ndarray, eps_rank: float) -> np.ndarray:
    """Orthonormal columns spanning the kernel, cutoff on singular values."""
    a = np.asarray(mat, dtype=np.complex128)
    m, n = a.shape
    if m > n:  # R of a = QR has the same singular values and right vectors
        a = np.linalg.qr(a, mode="r")
    elif m < n:  # pad so the economy SVD still returns all right singular vectors
        a = np.vstack([a, np.zeros((n - m, n), dtype=np.complex128)])
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > eps_rank))
    return vh[rank:].conj().T


def subspace_inclusion_residual(inner: np.ndarray, outer: np.ndarray) -> float:
    """|| (I - P_outer) P_inner || for orthonormal column families."""
    if inner.size == 0:
        return 0.0
    if outer.size == 0:
        return float(np.linalg.norm(inner, 2))
    resid = inner - outer @ (outer.conj().T @ inner)
    return float(np.linalg.norm(resid, 2))


def inv_sqrt_psd(mat: np.ndarray, eps_rank: float) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix."""
    try:
        w, q = np.linalg.eigh(np.asarray(mat, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"eigendecomposition failed: {exc}") from exc
    if w.min() <= eps_rank:
        raise NumericalBreakdown(
            f"matrix not positive definite (smallest eigenvalue {w.min():.2e})")
    return (q * (w ** -0.5)) @ q.conj().T


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sort_key(mat: np.ndarray) -> bytes:
    """Deterministic lexicographic key on entries rounded to 8 decimals."""
    r = np.round(mat.real, 8) + 0.0
    i = np.round(mat.imag, 8) + 0.0
    return r.tobytes() + i.tobytes()
