"""Dense complex linear algebra helpers.

Matrices are complex128 throughout.  Vectors of operators use the
Hilbert-Schmidt inner product <x, y> = Tr(x* y).  This module is the one
place where a singular value becomes a rank decision, by one rule: keep
s > eps_rank * max(1, s_0) for the largest singular value s_0, a cutoff that
scales with the matrix once s_0 exceeds 1.  ``rank``, ``orthonormal_columns``,
``nullspace`` and ``extend_orthonormal`` all apply it through ``_kept``,
``block_ranks`` applies it to a block-diagonal matrix one block at a time, and
``circle_clusters`` applies it to the chords between eigenvalues of a unitary.
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


def _kept(s: np.ndarray, eps_rank: float, top: float | None = None) -> int:
    """How many of the singular values ``s`` the rank rule keeps; ``top`` is
    the largest singular value of the whole matrix when ``s`` are a block's."""
    top = np.max(s, initial=1.0) if top is None else max(1.0, top)
    return int(np.sum(s > eps_rank * top))


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


def stacked(fn, *lists) -> list:
    """``fn`` applied to the i-th arrays of ``lists`` for every i, in one call
    on the stacks of those of each shape, so that equal blocks go to BLAS and
    LAPACK together; ``fn`` returns an array or a tuple of arrays stacked
    along the first axis.  Returns the results in the order of the lists."""
    out, shapes = [None] * len(lists[0]), {}
    for i in range(len(out)):
        shapes.setdefault(tuple(a[i].shape for a in lists), []).append(i)
    for idx in shapes.values():
        res = fn(*(a[idx[0]][None] if len(idx) == 1 else np.stack([a[i] for i in idx])
                   for a in lists))
        for j, i in enumerate(idx):
            out[i] = tuple(r[j] for r in res) if isinstance(res, tuple) else res[j]
    return out


def block_ranks(blocks, eps_rank: float) -> list[int]:
    """Numerical ranks of the diagonal blocks of a block-diagonal matrix, by
    the rank rule on the whole matrix: its singular values are those of the
    blocks, so each block is cut at eps_rank * max(1, largest over all)."""
    s = stacked(lambda a: np.linalg.svd(a, compute_uv=False), blocks)
    top = max(float(np.max(x, initial=0.0)) for x in s)
    return [_kept(x, eps_rank, top) for x in s]


def off_blocks(mat: np.ndarray, blocks) -> np.ndarray:
    """|mat| with its diagonal blocks mat[rows, cols], for the pairs of
    slices ``blocks``, set to 0: the part that a block-diagonal route
    leaves out."""
    off = np.abs(mat)
    for rows, cols in blocks:
        off[rows, cols] = 0.0
    return off


def block_rows(blocks, mat: np.ndarray) -> np.ndarray:
    """blockdiag(blocks) @ mat: block k multiplies the rows of ``mat`` that
    its columns index, in one stacked product when the blocks share a
    shape."""
    if len(blocks) == 1:
        return blocks[0] @ mat
    if len({b.shape for b in blocks}) == 1:
        k, (p, q) = len(blocks), blocks[0].shape
        return (np.stack(blocks) @ mat.reshape(k, q, -1)).reshape(k * p, -1)
    starts = np.cumsum([0, *(b.shape[1] for b in blocks)])
    return np.vstack([b @ mat[a:z] for b, a, z in zip(blocks, starts, starts[1:])])


def block_sandwich(left, mat: np.ndarray, right) -> np.ndarray:
    """blockdiag(left) @ mat @ blockdiag(right)^H, by ``block_rows``."""
    return block_rows(right, block_rows(left, mat).conj().T).conj().T


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


def circle_clusters(lam: np.ndarray, eps_rank: float) -> list[np.ndarray]:
    """Indices of the eigenvalues lam on the unit circle, grouped by the rank
    rule on Ad(R) - 1 for a unitary R with these eigenvalues, whose singular
    values are the chords |lam_i - lam_j|: neighbours around the circle share
    a group when their chord is at most eps_rank max(1, largest chord)."""
    order = np.argsort(np.angle(lam), kind="stable")
    ring = lam[order]
    gaps = np.abs(np.concatenate((ring[1:], ring[:1])) - ring)  # i to i + 1, wrapping
    spread = max(1.0, float(np.abs(lam[:, None] - lam[None]).max()))
    starts = np.flatnonzero(gaps > eps_rank * spread) + 1  # where a group begins
    if not len(starts):
        return [order]
    return [np.concatenate((order[starts[-1]:], order[:starts[0]])),  # across the wrap
            *(order[a:b] for a, b in zip(starts[:-1], starts[1:]))]


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
