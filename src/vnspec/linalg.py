"""Dense complex linear algebra helpers.

Matrices are complex128 throughout.  Vectors of operators use the
Hilbert-Schmidt inner product <x, y> = Tr(x* y).  This module is the one
place where a singular value becomes a rank decision, by one rule: keep
s > eps_rank * max(1, s_0) for the largest singular value s_0, a cutoff that
scales with the matrix once s_0 exceeds 1.  ``rank``, ``orthonormal_columns``,
``nullspace`` and ``extend_orthonormal`` all apply it through ``_kept``.
"""
from __future__ import annotations

import numpy as np


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def hs_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def _kept(s: np.ndarray, eps_rank: float) -> int:
    """How many of the singular values ``s`` the rank rule keeps."""
    return int(np.sum(s > eps_rank * np.max(s, initial=1.0)))


def _right_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors; a tall matrix is first
    reduced to R of a = QR, which has the same ones, so U is never formed."""
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return s, vh


def rank(mat: np.ndarray, eps_rank: float) -> int:
    """Numerical rank of a matrix."""
    s = np.linalg.svd(np.asarray(mat, dtype=np.complex128), compute_uv=False)
    return _kept(s, eps_rank)


def extend_orthonormal(existing: np.ndarray, candidates: np.ndarray,
                       eps_rank: float) -> np.ndarray:
    """Extend an orthonormal row family by the span of ``candidates``.

    The candidates are projected off the existing rows twice
    (re-orthogonalization), and one SVD of what is left gives the new
    directions, which are stacked below the existing rows.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=np.complex128))
    if existing.size:
        for _ in range(2):
            cand = cand - (cand @ existing.conj().T) @ existing
    s, vh = _right_svd(cand)
    new = vh[:_kept(s, eps_rank)]
    if existing.size:
        # single polishing pass; residual after the batch projection is ~1e-15
        new = new - (new @ existing.conj().T) @ existing
        new = new / np.linalg.norm(new, axis=1)[:, None]
    return np.vstack([existing, new])


def orthonormal_columns(cols: np.ndarray, eps_rank: float) -> np.ndarray:
    """Orthonormal basis of the column span, via SVD."""
    u, s, _ = np.linalg.svd(np.asarray(cols, dtype=np.complex128), full_matrices=False)
    return u[:, :_kept(s, eps_rank)]


def nullspace(mat: np.ndarray, eps_rank: float) -> np.ndarray:
    """Orthonormal columns spanning the kernel."""
    a = np.asarray(mat, dtype=np.complex128)
    m, n = a.shape
    if m < n:  # pad so the economy SVD still returns all right singular vectors
        a = np.vstack([a, np.zeros((n - m, n), dtype=np.complex128)])
    s, vh = _right_svd(a)
    return vh[_kept(s, eps_rank):].conj().T


def subspace_inclusion_residual(inner: np.ndarray, outer: np.ndarray) -> float:
    """|| (I - P_outer) P_inner || for orthonormal column families."""
    if inner.size == 0:
        return 0.0
    if outer.size == 0:
        return float(np.linalg.norm(inner, 2))
    resid = inner - outer @ (outer.conj().T @ inner)
    return float(np.linalg.norm(resid, 2))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sort_key(mat: np.ndarray) -> bytes:
    """Deterministic lexicographic key on entries rounded to 8 decimals."""
    r = np.round(mat.real, 8) + 0.0
    i = np.round(mat.imag, 8) + 0.0
    return r.tobytes() + i.tobytes()
