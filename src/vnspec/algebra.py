"""Matrix *-algebras, traces, trace-preserving automorphisms and subsystems.

A von Neumann algebra is stored concretely as a *-subalgebra of M_N(C) with a
Hilbert-Schmidt orthonormal basis.  A W*-dynamical system is such an algebra
together with a faithful tracial state (given by a density matrix) and a
trace-preserving *-automorphism, conjugation by a unitary, stored with its
coordinate matrix over the basis; ``system`` certifies all three from the
algebra, the trace and the unitary.  A subsystem carries the trace-preserving
conditional expectation onto it, solved once where the subsystem is made.
Its central blocks, minimal projections and matrix units come from one
seeded generic pair of its elements (``matrix_units``), and their sizes in
the parent from integer traces (``bratteli_blocks``).
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, NonSquareGenerator, NotAutomorphism,
                     NotUnitary, NumericalBreakdown, SubsystemInvalid,
                     TraceNotFaithful)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy: rank cutoff, identity-check threshold, Cesaro cap."""
    eps_rank: float = 1e-10
    eps_assert: float = 1e-8
    cesaro_n_max: int = 256

    def __post_init__(self):
        if not all(not isinstance(t, (bool, np.bool_)) and math.isfinite(t) and t > 0
                   for t in (self.eps_rank, self.eps_assert)):
            raise ValueError("tolerances must be finite and positive")
        if not positive_integer(self.cesaro_n_max):
            raise ValueError("cesaro_n_max must be a positive integer")


def positive_integer(value) -> bool:
    """The rule for a Cesaro horizon: integral, not a bool, at least 1."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and value >= 1)


DEFAULT_TOL = ToleranceConfig()
BLOCK_SEED = 7  # seed of h, whose eigenprojections are F's minimal projections
SPAN_SEED = 11  # seed of the generic generators of A over F spanning <A, e>
MODES_SEED = 19  # seed of the phases w whose Hermitian part of w alpha is diagonalised
PRODUCT_SEED = 23  # seed of the generic elements certifying the build's linear checks
                   # (``generic_elements``) and the block product of <A, e>
MINIMAL_SEED = 29  # seed of f, which links F's minimal projections into blocks and
                   # gives its matrix units and the partial isometries of the dynamics
TABLE_CHUNK = 1 << 18  # complex entries (4 MiB) of a stack of n x n products held at once
GENERIC_ROWS_HELD = 32  # shapes (count, d) whose generic rows are held


@dataclass(frozen=True)
class MatrixStarAlgebra:
    """Unital *-subalgebra of M_N(C) with a Hilbert-Schmidt orthonormal basis."""
    ambient_dim: int
    basis: np.ndarray  # (dim, N, N)

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coords(self, mats) -> np.ndarray:
        """Hilbert-Schmidt coordinates <b_k, mat> (..., dim) of a matrix or of
        a stack (..., N, N) of them.

        The input and the result are conjugated, never the basis.
        """
        mats = np.asarray(mats)
        flat = mats.reshape(*mats.shape[:-2], -1)
        return (flat.conj() @ self.basis_rows().T).conj()

    def from_coords(self, c) -> np.ndarray:
        """The matrices (..., N, N) with coordinates (..., dim)."""
        c = np.asarray(c)
        return (c @ self.basis_rows()).reshape(*c.shape[:-1], *self.basis.shape[1:])

    def membership_residual(self, mat: np.ndarray) -> float:
        return linalg.hs_norm(mat - self.from_coords(self.coords(mat))) \
            / max(1.0, linalg.hs_norm(mat))

    def basis_rows(self) -> np.ndarray:
        return self.basis.reshape(self.dim, -1)

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=np.complex128)


@dataclass(frozen=True)
class BlockAlgebra:
    """The algebra sum_k M_{m_k} (x) 1_{n_k} on C^n, in block coordinates.

    Block k acts through n_k orthonormal frames V_{k,i} (``frames[k][i]``,
    n x m_k) with pairwise orthogonal ranges: an element x is
    sum_k sum_i V_{k,i} x_k V_{k,i}^H, and its coordinates are the entries of
    its blocks x_k, row by row and block after block, sum_k m_k^2 of them.
    Products and adjoints are blockwise, and the Hilbert-Schmidt product is
    sum_k n_k tr(x_k^H y_k).  The coordinates of any matrix are those of its
    Hilbert-Schmidt projection onto the algebra, the averaged compressions
    (1 / n_k) sum_i V_{k,i}^H x V_{k,i}.
    """
    frames: tuple[np.ndarray, ...]  # (n_k, n, m_k) for each block k

    def __post_init__(self):
        for f in self.frames:
            f.setflags(write=False)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(f.shape[2] for f in self.frames)

    @property
    def mults(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.frames)

    @property
    def dim(self) -> int:
        return sum(m * m for m in self.sizes)

    @property
    def ambient_dim(self) -> int:
        return self.frames[0].shape[1]

    @property
    def hs_weights(self) -> np.ndarray:
        """n_k at each coordinate of block k: <x, y>_HS = sum conj(x) w y."""
        return np.concatenate([np.full(m * m, float(nk))
                               for m, nk in zip(self.sizes, self.mults)])

    def blocks(self, c) -> list[np.ndarray]:
        """The blocks (..., m_k, m_k) of coordinates (..., dim)."""
        c, out, start = np.asarray(c), [], 0
        for m in self.sizes:
            out.append(c[..., start:start + m * m].reshape(*c.shape[:-1], m, m))
            start += m * m
        return out

    def join(self, blocks) -> np.ndarray:
        """Coordinates (..., dim) of blocks (..., m_k, m_k)."""
        return np.concatenate([b.reshape(*b.shape[:-2], -1) for b in blocks], axis=-1)

    def product(self, x, y) -> np.ndarray:
        return self.join([a @ b for a, b in zip(self.blocks(x), self.blocks(y))])

    def identity_coords(self) -> np.ndarray:
        return self.join([np.eye(m, dtype=np.complex128) for m in self.sizes])

    def coords(self, mats) -> np.ndarray:
        """Coordinates of a matrix or of a stack (..., n, n) of them."""
        mats = np.asarray(mats)
        lead = (1,) * (mats.ndim - 2)
        out = []
        for f in self.frames:
            if len(f) == 1:
                out.append(f[0].conj().T @ mats @ f[0])
                continue
            fh = f.conj().transpose(0, 2, 1)
            out.append((fh.reshape(len(f), *lead, *fh.shape[1:]) @ mats
                        @ f.reshape(len(f), *lead, *f.shape[1:])).mean(axis=0))
        return self.join(out)

    def from_coords(self, c) -> np.ndarray:
        """The matrices (..., n, n) with coordinates (..., dim)."""
        c = np.asarray(c, dtype=np.complex128)
        n = self.ambient_dim
        total = np.zeros((*c.shape[:-1], n, n), dtype=np.complex128)
        for f, x in zip(self.frames, self.blocks(c)):
            for v in f:
                total += v @ x @ v.conj().T
        return total

    def block_traces(self, c) -> np.ndarray:
        """tr(x_k) of each block k, (..., number of blocks)."""
        return np.stack([np.trace(b, axis1=-2, axis2=-1) for b in self.blocks(c)], -1)

    def membership_residual(self, mat: np.ndarray, coords=None) -> float:
        """Relative distance of ``mat`` from its coordinates' element."""
        coords = self.coords(mat) if coords is None else coords
        return linalg.hs_norm(mat - self.from_coords(coords)) \
            / max(1.0, linalg.hs_norm(mat))


def generate_algebra(generators, ambient_dim: int,
                     tol: ToleranceConfig = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Smallest unital *-subalgebra of M_N containing the generators.

    Extends the span by the products of its newest rows with the generators
    (both sides) and by their adjoints, as the older rows' already lie in it,
    until it stops growing; capped at N^2 rounds.  A cutoff below roundoff
    keeps noise rows, which outgrow N^2 or are not orthonormal.
    """
    gens = []
    for g in generators:
        m = linalg.as_matrix(g)
        if m.shape[0] != m.shape[1]:
            raise NonSquareGenerator(f"generator of shape {m.shape}")
        if m.shape[0] != ambient_dim:
            raise DimensionMismatch(
                f"generator is {m.shape[0]}x{m.shape[1]}, ambient dim is {ambient_dim}")
        gens.append(m)
        gens.append(m.conj().T)
    eye = np.eye(ambient_dim, dtype=np.complex128)
    seed = np.stack([eye] + gens) if gens else eye[None]
    empty = np.zeros((0, ambient_dim ** 2), dtype=np.complex128)
    rows = linalg.extend_orthonormal(empty, seed.reshape(len(seed), -1), tol.eps_rank)
    if not len(rows):
        raise NumericalBreakdown(f"rank cutoff {tol.eps_rank:g} drops the identity")
    if gens:
        garr, new = np.stack(gens), rows
        for _ in range(ambient_dim ** 2):
            mats = new.reshape(len(new), ambient_dim, ambient_dim)
            left = np.einsum("gab,kbc->gkac", garr, mats).reshape(-1, ambient_dim ** 2)
            right = np.einsum("kab,gbc->kgac", mats, garr).reshape(-1, ambient_dim ** 2)
            adjs = mats.conj().transpose(0, 2, 1).reshape(len(new), -1)
            grown = linalg.extend_orthonormal(rows, np.vstack([left, right, adjs]),
                                              tol.eps_rank)
            rows, new = grown, grown[len(rows):]
            if not len(new) or len(rows) > ambient_dim ** 2:
                break
    ortho = float(np.abs(rows @ rows.conj().T - np.eye(len(rows))).max())
    if len(rows) > ambient_dim ** 2 or ortho > tol.eps_assert:
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} keeps roundoff: {len(rows)} basis rows "
            f"in M_{ambient_dim}, orthonormal to {ortho:.2e}")
    basis = rows.reshape(rows.shape[0], ambient_dim, ambient_dim)
    return MatrixStarAlgebra(ambient_dim, np.ascontiguousarray(basis))


def partial_isometry(target: np.ndarray, f: np.ndarray,
                     source: np.ndarray) -> tuple[np.ndarray, float]:
    """w = target f source / sqrt(lambda), with the largest entry of
    w w* - target and of w* w - source (inf when target f source = 0).

    For minimal projections of one block of F and a generic f in F,
    target f source f* target = lambda target with lambda > 0, so w is the
    partial isometry of F from source to target.
    """
    w = target @ f @ source
    scale = np.vdot(w, w).real / np.trace(target).real
    if not scale > 0:
        return w, float("inf")
    w = w / np.sqrt(scale)
    return w, max(float(np.abs(w @ w.conj().T - target).max()),
                  float(np.abs(w.conj().T @ w - source).max()))


@dataclass(frozen=True)
class MatrixUnits:
    """F = sum_k M_{n_k} through its matrix units, from ``matrix_units``.

    ``units[k][i]`` is the partial isometry u_{k,i} of F from q_k =
    ``units[k][0]`` onto the minimal projection q_{k,i} = u_{k,i} u_{k,i}*,
    so the u_{k,i} u_{k,j}* are matrix units of F p_k, and the minimal central
    projections p_k = sum_i q_{k,i} come largest trace first.  ``generators``
    are h, and f when some n_k > 1, which generate F as an algebra.
    """
    projections: tuple[np.ndarray, ...]  # p_k, (N, N) each
    units: tuple[np.ndarray, ...]        # (n_k, N, N) for each block k
    generators: np.ndarray               # (1 or 2, N, N)

    def __post_init__(self):
        for a in (*self.projections, *self.units, self.generators):
            a.setflags(write=False)


def _pair_units(alg: MatrixStarAlgebra, h: np.ndarray, f: np.ndarray,
                tol: ToleranceConfig) -> tuple[list, int, float]:
    """The blocks [(p_k, units)] that one pair h, f gives, with sum n_k^2 and
    the certificate's residual (see ``matrix_units``)."""
    vals, vecs = np.linalg.eigh(h)
    spread = max(1.0, float(vals[-1] - vals[0]))
    starts = np.concatenate([[0], np.nonzero(np.diff(vals) > tol.eps_rank * spread)[0] + 1])
    ranges = np.split(vecs, starts[1:], axis=1)  # orthonormal columns of each q
    qs = [v @ v.conj().T for v in ranges]
    f_eig = np.abs(vecs.conj().T @ f @ vecs) ** 2
    links = np.sqrt(np.add.reduceat(np.add.reduceat(f_eig, starts, axis=0),
                                    starts, axis=1))  # |q_i f q_j|_F
    linked = links > tol.eps_rank * max(1.0, float(links.max()))
    free, blocks, resid, frame = list(range(len(qs))), [], 0.0, []
    while free:
        first = free[0]
        members = [first] + [i for i in free[1:] if linked[i, first]]
        free = [i for i in free if i not in members]
        pairs = [partial_isometry(qs[i], f, qs[first]) for i in members[1:]]
        resid = max([resid] + [r for _, r in pairs])
        units = np.stack([qs[first]] + [w for w, _ in pairs])
        blocks.append((sum(qs[i] for i in members), units))
        frame.append(units @ ranges[first])  # u_i V_k spans q_i
    # the basis of F in the frame of the units: what lies off the span of the
    # u_i u_j*, which there are the blocks 1 (x) E_ij, is the residual
    cols = np.concatenate([np.concatenate(list(y), axis=1) for y in frame], axis=1)
    moved = cols.conj().T @ alg.basis @ cols
    start = 0
    for y in frame:
        n, r = y.shape[0], y.shape[2]
        block = slice(start, start + n * r)
        coef = np.einsum("kiaja->kij", moved[:, block, block].reshape(-1, n, r, n, r)) / r
        moved[:, block, block] -= np.einsum("kij,ab->kiajb", coef, np.eye(r)).reshape(
            -1, n * r, n * r)
        start += n * r
    resid = max(resid, float(np.linalg.norm(moved, axis=(1, 2)).max()))
    return blocks, sum(len(u) ** 2 for _, u in blocks), resid


def matrix_units(alg: MatrixStarAlgebra,
                 tol: ToleranceConfig = DEFAULT_TOL) -> MatrixUnits:
    """Central blocks, minimal projections and matrix units of F from one
    seeded generic pair of Hermitian elements h and f of F (Goodman, de la
    Harpe and Jones 1989, ch. 2).

    The eigenprojections of h, its sorted eigenvalues cut where neighbours
    differ by more than eps_rank max(1, spread), are minimal projections q of
    F.  Two of them lie in one central block exactly when q_i f q_j != 0,
    which the rank rule decides on the norms |q_i f q_j|_F; the first q of
    a block is q_k, and the normalised q_i f q_k are the units
    (``partial_isometry``).  One identity certifies the result: sum_k n_k^2
    = dim F, and every basis element of F lies within eps_assert of the span
    of the u_{k,i} u_{k,j}*, which has that dimension and so is F.  As each
    q is a polynomial in h and (q_i f q_k)(q_k f q_j) spans q_i F q_j, h and
    f generate F, and h alone when every n_k = 1.  A pair that fails is
    redrawn, up to 20 times.
    """
    rngs = [np.random.default_rng(BLOCK_SEED), np.random.default_rng(MINIMAL_SEED)]
    for _ in range(20):
        h, f = (x + x.conj().T for x in
                [alg.from_coords(linalg.random_complex(rng, alg.dim)) for rng in rngs])
        blocks, count, resid = _pair_units(alg, h, f, tol)
        if count == alg.dim and resid <= tol.eps_assert:
            break
    else:
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g}: no generic pair gives matrix units of F "
            f"(sum n_k^2 = {count} for dim F = {alg.dim}, residual {resid:.2e})")
    blocks.sort(key=lambda b: (-round(float(np.trace(b[0]).real), 6),
                               linalg.sort_key(b[0])))
    commutative = all(len(u) == 1 for _, u in blocks)
    return MatrixUnits(tuple(p for p, _ in blocks), tuple(u for _, u in blocks),
                       np.stack([h] if commutative else [h, f]))


def bratteli_blocks(alg: MatrixStarAlgebra, sub_alg: MatrixStarAlgebra,
                    units: MatrixUnits, tol: ToleranceConfig = DEFAULT_TOL
                    ) -> list[tuple[np.ndarray, int, int]]:
    """The central blocks (p_k, n_k, m_k) of F in A (Goodman, de la Harpe and
    Jones 1989, ch. 2); dim j(F)' = sum_k m_k^2 is the dimension of <A, e>.

    Over the minimal central projections p_k of F, with n_k units each
    (``matrix_units``), F p_k = M_{n_k} acts on A p_k, which is m_k copies of
    its row space.  Right multiplication by p_k is an orthogonal projection
    of X = F or A, so its rank dim X p_k is its trace Tr(Q_X p_k), with
    Q_X = sum_i b_i* b_i over the orthonormal basis of X; dim F p_k must lie
    within eps_assert of n_k^2, and dim A p_k of a multiple of n_k.
    """
    q_f, q_a = (x.basis.reshape(-1, x.ambient_dim).conj().T
                @ x.basis.reshape(-1, x.ambient_dim) for x in (sub_alg, alg))
    blocks = []
    for p, us in zip(units.projections, units.units):
        fp, ap = (float(np.vdot(p, q).real) for q in (q_f, q_a))  # Tr(Q p), p = p*
        n_k, dim_ap = len(us), round(ap)
        if max(abs(fp - n_k * n_k), abs(ap - dim_ap)) > tol.eps_assert or dim_ap % n_k:
            raise NumericalBreakdown(f"a central block of F has dim F p = {fp:.12g}, "
                                     f"not n^2 for an n dividing dim A p = {ap:.12g}")
        blocks.append((p, n_k, dim_ap // n_k))
    return blocks


@dataclass(frozen=True)
class TraceFunctional:
    """Positive tracial functional, represented by an ambient density matrix."""
    density: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self.density.setflags(write=False)

    def value(self, mat: np.ndarray) -> complex:
        return complex(np.trace(self.density @ mat))

    def values(self, mats: np.ndarray) -> np.ndarray:
        return np.einsum("ab,kba->k", self.density, mats)


def trace_functional(density, normalized: bool = True) -> TraceFunctional:
    return TraceFunctional(linalg.as_matrix(density), normalized)


def gram_matrix(alg: MatrixStarAlgebra, trace: TraceFunctional) -> np.ndarray:
    """G[i, j] = trace(b_i* b_j)."""
    rows = alg.basis_rows()
    weighted = (alg.basis @ trace.density).reshape(alg.dim, -1)
    return rows.conj() @ weighted.T


def validate_trace(alg: MatrixStarAlgebra, trace: TraceFunctional, table: np.ndarray,
                   tol: ToleranceConfig = DEFAULT_TOL,
                   gram: np.ndarray | None = None,
                   values: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Check Hermitian PSD density, faithfulness on the algebra and traciality.

    Faithfulness is only required on the algebra (the ambient density may be
    singular), and is read off the Gram matrix: ``gram`` when the caller
    knows it (a product system's kron(G_B, G_C)), else ``gram_matrix``.
    Traciality reads the algebra's multiplication table T: the traces
    M[i, j] = mu(b_i b_j) = sum_c T[i, j, c] mu(b_c) must be symmetric, with
    mu(b_c) from ``values`` when the caller holds them.
    Returns the Gram matrix for reuse and the traciality residual max |M - M^T|.
    """
    rho = trace.density
    if np.abs(rho - rho.conj().T).max() > tol.eps_assert:
        raise TraceNotFaithful("density is not Hermitian")
    if np.linalg.eigvalsh(rho).min() < -tol.eps_assert:
        raise TraceNotFaithful("density is not positive semidefinite")
    if gram is None:
        gram = gram_matrix(alg, trace)
    if np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() < tol.eps_rank:
        raise TraceNotFaithful("trace is not faithful on the algebra")
    products = table @ (trace.values(alg.basis) if values is None else values)
    tracial = float(np.abs(products - products.T).max())
    if tracial > tol.eps_assert:
        raise TraceNotFaithful("functional is not tracial on the algebra")
    if trace.normalized and abs(trace.value(alg.identity()) - 1.0) > tol.eps_assert:
        raise TraceNotFaithful("normalized trace must send 1 to 1")
    return gram, tracial


@dataclass(frozen=True)
class StarAutomorphism:
    """Trace-preserving *-automorphism Ad(u): its coordinate matrix over the
    basis and the ambient unitary u."""
    matrix: np.ndarray  # (dim, dim)
    unitary: np.ndarray = field(repr=False)  # (N, N)

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.unitary.setflags(write=False)

    def apply(self, alg: MatrixStarAlgebra, mat: np.ndarray) -> np.ndarray:
        return alg.from_coords(self.matrix @ alg.coords(mat))


def _conjugation(alg: MatrixStarAlgebra, unitary, tol: ToleranceConfig) -> StarAutomorphism:
    """Conjugation by a unitary in coordinate form.

    Ad(u) is a *-automorphism of the algebra exactly when u A u* lies in A
    (equality follows by dimension); its coordinate matrix is then unitary,
    so nonsingular, multiplicative and *-preserving.  Only invariance, at one
    generic element (``generic_elements``), is checked here.  Column j of
    the matrix holds the coordinates of u b_j u*, formed a chunk of images
    at a time.
    """
    u = linalg.as_matrix(unitary)
    d, n = alg.dim, alg.ambient_dim
    if u.shape != (n, n):
        raise DimensionMismatch("unitary has wrong shape")
    if np.abs(u @ u.conj().T - np.eye(n)).max() > tol.eps_assert:
        raise NotUnitary("dynamics matrix is not unitary")
    uh, m = u.conj().T, np.empty((d, d), dtype=np.complex128)
    step = max(1, TABLE_CHUNK // (n * n))
    for j in range(0, d, step):
        m[:, j:j + step] = alg.coords(u @ alg.basis[j:j + step] @ uh).T
    (x,), (xm,) = generic_elements(alg)
    resid = float(np.abs(u @ xm @ uh - alg.from_coords(m @ x)).max())
    if resid > tol.eps_assert:
        raise NotAutomorphism(f"conjugation by the unitary does not map the algebra "
                              f"onto itself (residual {resid:.2e})")
    return StarAutomorphism(m, np.ascontiguousarray(u))


def multiplication_table(alg: MatrixStarAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Structure constants of the algebra in its own coordinates.

    Returns T with T[i, j] = coords(b_i b_j) and the adjoint matrix S with
    S[:, i] = coords(b_i*), which ``system`` certifies.  Products are formed
    a block of rows i at a time.
    """
    d, n = alg.dim, alg.ambient_dim
    table = np.empty((d, d, d), dtype=np.complex128)
    step = max(1, TABLE_CHUNK // max(1, d * n * n))
    for i in range(0, d, step):
        prods = alg.basis[i:i + step, None] @ alg.basis[None]
        table[i:i + step] = alg.coords(prods)
    star = alg.coords(alg.basis.conj().transpose(0, 2, 1)).T
    return table, np.ascontiguousarray(star)


@functools.lru_cache(maxsize=GENERIC_ROWS_HELD)
def _generic_rows(count: int, dim: int) -> np.ndarray:
    """The first draw (count, dim) of a generator seeded with PRODUCT_SEED,
    read-only."""
    x = linalg.random_complex(np.random.default_rng(PRODUCT_SEED), (count, dim))
    x.setflags(write=False)
    return x


def generic_elements(alg: MatrixStarAlgebra, count: int = 1
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Rows x (count, d), the first draw from PRODUCT_SEED, and the elements
    X = sum_i x_i b_i.  A linear condition on the basis holds on all of it
    once it holds at X: a nonzero linear map vanishes only on a proper
    subspace, a null set for Gaussian x (Schwartz, J. ACM 27, 1980).  The
    rows depend on (count, d) alone, so they are drawn once per shape and
    held, read-only, for the last GENERIC_ROWS_HELD shapes."""
    x = _generic_rows(count, alg.dim)
    return x, alg.from_coords(x)


def _generic_closure_residual(alg: MatrixStarAlgebra, table: np.ndarray,
                             star: np.ndarray) -> float:
    """The largest entry of X Y - sum_k (x^T T_k y) b_k and of
    X* - sum_k (S conj(x))_k b_k for a generic pair X = sum x_i b_i,
    Y = sum y_j b_j (``generic_elements``), in O(N^3 + d^3); linear in each
    of x, y and conj(x), they vanish only if the basis is closed under
    products and adjoints with structure constants T and S."""
    (x, y), (xm, ym) = generic_elements(alg, 2)
    prod = alg.from_coords(np.einsum("i,ijk,j->k", x, table, y))
    adj = alg.from_coords(star @ x.conj())
    return max(float(np.abs(xm @ ym - prod).max()),
               float(np.abs(xm.conj().T - adj).max()))


def eigenmodes(matrix: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
               ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam and a unitary eigenbasis V of a unitary matrix alpha,
    alpha = V diag(lam) V^H.

    V is the eigenbasis of the Hermitian part of w alpha for a seeded phase
    w, which shares alpha's eigenvectors unless two eigenphases satisfy
    theta_p + theta_q = -2 arg w (mod 2 pi).  With lam_p the phase of
    (V^H alpha V)_pp, a draw is kept when max |alpha V - V diag(lam)| is at
    most eps_assert, and redrawn otherwise, up to 20 times.
    """
    rng = np.random.default_rng(MODES_SEED)
    for _ in range(20):
        turned = np.exp(2j * np.pi * rng.random()) * matrix  # w alpha
        _, vecs = np.linalg.eigh(turned + turned.conj().T)
        moved = matrix @ vecs
        lam = np.exp(1j * np.angle((vecs.conj() * moved).sum(axis=0)))
        if np.abs(moved - vecs * lam).max() <= tol.eps_assert:
            return lam, vecs
    raise NumericalBreakdown("no unitary eigenbasis of the dynamics was certified")


CESARO_BLOCK = 1024  # Cesaro steps whose powers of the cluster representatives are held


@dataclass(frozen=True)
class WStarSystem:
    """(algebra, faithful tracial state, trace-preserving *-automorphism
    Ad u), made and certified by ``system`` from (A, mu, u).

    Carries the data every stage reads from the algebra's one multiplication:
    the Gram matrix, the table T[i, j] = coords(b_i b_j) and the adjoint
    matrix S[:, i] = coords(b_i*) (from ``multiplication_table``, or from
    the factors' tables for a product system), the traces mu(b_i) of the
    basis (``trace_values``), and the tolerance ``tol`` it was built with,
    the one at which every stage of its analysis decides ranks and checks
    identities: a stage reads it off the system, never takes its own.
    The spectral data that only the Cesaro averages read are formed on first
    read and held with the system, read-only: the certified eigenbasis
    ``modes = (lam, V)`` of the dynamics' coordinate matrix, alpha =
    V diag(lam) V^H, from ``eigenmodes``, whose ``NumericalBreakdown`` is
    raised at that read; the indicator ``clusters`` of its c clusters of
    equal eigenvalues, 1 at (j, c) when lam_j lies in cluster c
    (``linalg.circle_clusters`` at tol.eps_rank); the powers
    ``mode_powers``, c x CESARO_BLOCK numbers; and ``cluster_spread``.  A
    system that no Cesaro average reads, such as a factor of a product
    system, never diagonalises its dynamics; a ``dataclasses.replace`` copy
    forms its own.
    """
    algebra: MatrixStarAlgebra
    trace: TraceFunctional
    dynamics: StarAutomorphism
    gram: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)  # (d, d, d)
    star: np.ndarray = field(repr=False)   # (d, d)
    trace_values: np.ndarray = field(repr=False)  # (d,), mu(b_i)
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        for a in (self.gram, self.table, self.star, self.trace_values):
            a.setflags(write=False)

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, V), read-only: alpha = V diag(lam) V^H (``eigenmodes``)."""
        modes = eigenmodes(self.dynamics.matrix, self.tol)
        for a in modes:
            a.setflags(write=False)
        return modes

    @cached_property
    def clusters(self) -> np.ndarray:
        """Read-only (d, c) indicator of the clusters of equal eigenvalues."""
        lam = self.modes[0]
        groups = linalg.circle_clusters(lam, self.tol.eps_rank)
        clusters = np.zeros((len(lam), len(groups)))
        for c, members in enumerate(groups):
            clusters[members, c] = 1.0
        clusters.setflags(write=False)
        return clusters

    @cached_property
    def mode_powers(self) -> np.ndarray:
        """mu^1 .. mu^CESARO_BLOCK, read-only (c, CESARO_BLOCK): row c holds
        the powers of mu_c = lam_j for the lowest j in cluster c, column
        n - 1 its n-th power, from one cumprod."""
        first = self.clusters.argmax(axis=0)
        powers = np.repeat(self.modes[0][first][:, None], CESARO_BLOCK, axis=1)
        np.cumprod(powers, axis=1, out=powers)
        powers.setflags(write=False)
        return powers

    @cached_property
    def cluster_spread(self) -> float:
        """The largest |lam_j - mu_c| for lam_j in cluster c: how far merging
        moves an eigenvalue onto its cluster's representative."""
        merged = self.clusters @ self.mode_powers[:, 0]  # mu_c for each lam_j
        return float(np.abs(self.modes[0] - merged).max())


def system(algebra: MatrixStarAlgebra, trace: TraceFunctional, unitary,
           tol: ToleranceConfig = DEFAULT_TOL,
           factors: tuple[WStarSystem, WStarSystem] | None = None) -> WStarSystem:
    """The system (A, mu, Ad u), certified: first the dynamics, then the
    algebra's closure under products and adjoints, then the trace on it.

    The unitary must have A's ambient shape and be unitary, and conjugation
    by it must map A onto itself (``_conjugation``, at one generic element)
    and preserve the trace: with m its coordinate matrix, mu(u b_j u*) =
    sum_i m[i, j] mu(b_i), so values @ m = values for the traces mu(b_i)
    of the basis, which are formed once, read by this check and by the
    traciality check, and held.  The dynamics is diagonalised only when a
    Cesaro average first reads its eigenbasis (``WStarSystem.modes``), at
    ``tol``, which the system holds.

    T and S come from ``multiplication_table``, or, with the factor systems
    ``(B, C)`` of an algebra whose basis is b_i (x) c_j at index i dim C + j,
    off the factors' tables, as (b_i (x) c_j)(b_k (x) c_l) = b_i b_k (x) c_j c_l
    and (b_i (x) c_j)* = b_i* (x) c_j*: T[(i, j), (k, l)] = T_B[i, k] (x)
    T_C[j, l] and S = S_B (x) S_C.  One generic pair certifies them, and the
    closure, on the algebra itself (``_generic_closure_residual``).  When the
    density is rho_B (x) rho_C, the Gram matrix is kron(G_B, G_C), as
    mu(b_i* b_k (x) c_j* c_l) = mu_B(b_i* b_k) mu_C(c_j* c_l).
    """
    dynamics = _conjugation(algebra, unitary, tol)
    values = trace.values(algebra.basis)
    if np.abs(values @ dynamics.matrix - values).max() > tol.eps_assert:
        raise NotAutomorphism("conjugation by the unitary does not preserve the trace")
    gram = None
    if factors is None:
        table, star = multiplication_table(algebra)
    else:
        (b, c), d = factors, algebra.dim
        if d != b.algebra.dim * c.algebra.dim:
            raise DimensionMismatch(f"a product algebra of dim {d} over factors "
                                    f"of dims {b.algebra.dim} and {c.algebra.dim}")
        table = np.einsum("ikm,jln->ijklmn", b.table, c.table).reshape(d, d, d)
        star = np.kron(b.star, c.star)
        product = np.kron(b.trace.density, c.trace.density)
        if np.abs(trace.density - product).max() <= tol.eps_assert:
            gram = np.kron(b.gram, c.gram)
    closure = _generic_closure_residual(algebra, table, star)
    if closure > tol.eps_assert:
        raise NumericalBreakdown(f"the basis does not span a *-algebra: a product or "
                                 f"adjoint leaves its span (residual {closure:.2e})")
    gram, _ = validate_trace(algebra, trace, table, tol, gram, values)
    return WStarSystem(algebra, trace, dynamics, gram, table, star, values, tol)


@dataclass(frozen=True)
class ConditionalExpectation:
    """Trace-preserving conditional expectation A -> F in the coordinates of A."""
    algebra: MatrixStarAlgebra  # A
    matrix: np.ndarray  # (d, d), image lies in the span of F

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def apply(self, mat: np.ndarray) -> np.ndarray:
        return self.algebra.from_coords(self.matrix @ self.algebra.coords(mat))


@dataclass(frozen=True)
class Subsystem:
    """Unital subalgebra F with alpha(F) = F and faithful restricted trace,
    with the trace-preserving conditional expectation onto it.  The map
    ``whitened_expectation`` that every Cesaro sequence reads is formed on
    first use and held with the subsystem."""
    parent: WStarSystem
    algebra: MatrixStarAlgebra
    coords_in_parent: np.ndarray = field(repr=False)  # (m, d)
    expectation: ConditionalExpectation = field(repr=False)

    def __post_init__(self):
        self.coords_in_parent.setflags(write=False)

    @cached_property
    def whitened_expectation(self) -> np.ndarray:
        """R f^H E_F, read-only (m, d): E_F followed by the coordinates in a
        basis of F orthonormal for mu(x* y), where the columns f are the
        coordinates of F's basis and R^H R = f^H G f is the Cholesky factor
        of F's Gram matrix."""
        fh = self.coords_in_parent.conj()  # f^H
        r = np.linalg.cholesky(fh @ self.parent.gram @ fh.conj().T).conj().T
        out = r @ (fh @ self.expectation.matrix)
        out.setflags(write=False)
        return out


def subsystem(parent: WStarSystem, sub_algebra: MatrixStarAlgebra) -> Subsystem:
    """Validates F and solves for E_F, the orthogonal projection of A onto F
    for the inner product mu(a* b), from F's Gram matrix in A's coordinates.
    F in A and alpha(F) in F are checked at one generic element of F, at the
    tolerance the parent holds."""
    alg, tol = parent.algebra, parent.tol
    if sub_algebra.ambient_dim != alg.ambient_dim:
        raise SubsystemInvalid("ambient dimensions differ")
    if sub_algebra.membership_residual(alg.identity()) > tol.eps_assert:
        raise SubsystemInvalid("subalgebra must contain the unit")
    coords = alg.coords(sub_algebra.basis)  # (m, d)
    (z,), (zm,) = generic_elements(sub_algebra)
    if np.abs(alg.from_coords(z @ coords) - zm).max() > tol.eps_assert:
        raise SubsystemInvalid("subalgebra is not contained in the parent algebra")
    image = alg.from_coords(parent.dynamics.matrix @ (z @ coords))
    if np.abs(sub_algebra.from_coords(sub_algebra.coords(image)) - image).max() \
            > tol.eps_assert:
        raise SubsystemInvalid("dynamics does not preserve the subalgebra")
    fc = coords.T  # (d, m)
    small = fc.conj().T @ parent.gram @ fc  # mu(f_k* f_l)
    if np.linalg.eigvalsh((small + small.conj().T) / 2).min() < tol.eps_rank:
        raise SubsystemInvalid("restricted trace is not faithful")
    exp = fc @ np.linalg.solve(small, fc.conj().T @ parent.gram)
    return Subsystem(parent, sub_algebra, np.ascontiguousarray(coords),
                     ConditionalExpectation(alg, np.ascontiguousarray(exp)))
