"""Matrix *-algebras, traces, trace-preserving automorphisms and subsystems.

A von Neumann algebra is stored concretely as a *-subalgebra of M_N(C) with a
Hilbert-Schmidt orthonormal basis.  A W*-dynamical system is such an algebra
together with a faithful tracial state (given by a density matrix) and a
trace-preserving *-automorphism, conjugation by a unitary, stored with its
coordinate matrix over the basis.  A subsystem carries the trace-preserving
conditional expectation onto it, solved once where the subsystem is made;
its central blocks (``bratteli_blocks``) decide whether it is commutative.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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
BLOCK_SEED = 7  # seed of the generic central element in block_decomposition
SPAN_SEED = 11  # seed of the generic generators of A over F spanning <A, e>
INCLUSION_SEED = 13  # seed of the generic generators of F in the j(F)' check
CENTER_SEED = 17  # seed of the two generic generators whose commutant is the center
MODES_SEED = 19  # seed of the phases w whose Hermitian part of w alpha is diagonalised
PRODUCT_SEED = 23  # seed of the generic pair certifying a product system's inherited table


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

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt coordinates of ``mat`` over the basis, <b_k, mat>.

        The input and the result are conjugated, never the basis.
        """
        return (self.basis_rows() @ np.asarray(mat).conj().reshape(-1)).conj()

    def coords_stack(self, mats: np.ndarray) -> np.ndarray:
        """Coordinates of a stack of matrices; row k holds coords(mats[k])."""
        flat = np.asarray(mats).reshape(len(mats), -1)
        return (flat.conj() @ self.basis_rows().T).conj()

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(c, dtype=np.complex128), self.basis, axes=(0, 0))

    def from_coords_stack(self, c: np.ndarray) -> np.ndarray:
        """Matrices from a stack of coordinate rows."""
        return np.tensordot(np.asarray(c, dtype=np.complex128), self.basis, axes=(1, 0))

    def project(self, mat: np.ndarray) -> np.ndarray:
        return self.from_coords(self.coords(mat))

    def membership_residual(self, mat: np.ndarray) -> float:
        return linalg.hs_norm(mat - self.project(mat)) / max(1.0, linalg.hs_norm(mat))

    def basis_rows(self) -> np.ndarray:
        return self.basis.reshape(self.dim, -1)

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=np.complex128)


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


def center(alg: MatrixStarAlgebra,
           tol: ToleranceConfig = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Center of the algebra, computed in its own coordinates.

    It is the kernel of c -> ([c, g_1], [c, g_2]) for two seeded generic g,
    which generate the algebra as two generic elements of a finite-dimensional
    C*-algebra do; each kernel element is checked to commute with every basis
    element, which certifies that.  The null space has 2 n^2 rows, not d n^2.
    """
    d, n = alg.dim, alg.ambient_dim
    rng = np.random.default_rng(CENTER_SEED)
    gens = alg.from_coords_stack(linalg.random_complex(rng, (2, d)))
    comms = alg.basis[:, None] @ gens - gens @ alg.basis[:, None]  # [b_i, g]
    kernel = linalg.nullspace(comms.reshape(d, -1).T, tol.eps_rank)  # central coords
    if not kernel.shape[1]:  # the identity is central, so the cutoff dropped it
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} drops the identity from the center")
    mats = np.tensordot(kernel.T, alg.basis, axes=(1, 0))
    resid = max((float(np.abs(z @ alg.basis - alg.basis @ z).max()) for z in mats),
                default=0.0)
    if resid > tol.eps_assert:
        raise NumericalBreakdown(f"two generic elements do not generate the algebra: "
                                 f"their commutant is not central (residual {resid:.2e})")
    return MatrixStarAlgebra(n, np.ascontiguousarray(mats))


def block_decomposition(alg: MatrixStarAlgebra,
                        tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Minimal central projections, pairwise orthogonal and summing to 1.

    A generic self-adjoint central element is drawn from a fixed seed; its
    spectral projections realize the blocks.  Central elements are constant on
    each block, so the eigenvalue clusters are exact up to roundoff.
    """
    z_alg = center(alg, tol)
    dz = z_alg.dim
    rng = np.random.default_rng(BLOCK_SEED)
    for _ in range(20):
        zmat = z_alg.from_coords(linalg.random_complex(rng, dz))
        zmat = zmat + zmat.conj().T
        vals, vecs = np.linalg.eigh(zmat)
        spread = max(1.0, float(vals[-1] - vals[0]))
        splits = np.nonzero(np.diff(vals) > tol.eps_rank * spread)[0]
        groups = np.split(np.arange(len(vals)), splits + 1)
        if len(groups) != dz:
            continue
        projs = [vecs[:, g] @ vecs[:, g].conj().T for g in groups]
        if all(alg.membership_residual(p) < tol.eps_assert for p in projs):
            projs.sort(key=lambda p: (-round(float(np.trace(p).real), 6),
                                      linalg.sort_key(p)))
            return projs
    raise NumericalBreakdown(
        f"could not separate central blocks at rank cutoff {tol.eps_rank:g}")


def bratteli_blocks(alg: MatrixStarAlgebra, sub_alg: MatrixStarAlgebra,
                    tol: ToleranceConfig = DEFAULT_TOL
                    ) -> list[tuple[np.ndarray, int, int]]:
    """The central blocks (p_k, n_k, m_k) of F in A (Goodman, de la Harpe and
    Jones 1989, ch. 2); dim j(F)' = sum_k m_k^2 is the dimension of <A, e>.

    Over the minimal central projections p_k of F, F p_k = M_{n_k} acts on
    A p_k, which is m_k copies of its row space.  Right multiplication by p_k
    is an orthogonal projection of X = F or A, so its rank dim X p_k is its
    trace Tr(Q_X p_k), with Q_X = sum_i b_i* b_i over the orthonormal basis
    of X; each count must lie within eps_assert of an integer.
    """
    q_f, q_a = (x.basis.reshape(-1, x.ambient_dim).conj().T
                @ x.basis.reshape(-1, x.ambient_dim) for x in (sub_alg, alg))
    blocks = []
    for p in block_decomposition(sub_alg, tol):
        fp, ap = (float(np.vdot(p, q).real) for q in (q_f, q_a))  # Tr(Q p), p = p*
        dim_fp, dim_ap = round(fp), round(ap)
        n_k = math.isqrt(max(dim_fp, 0))
        if max(abs(fp - dim_fp), abs(ap - dim_ap)) > tol.eps_assert \
                or not n_k or n_k * n_k != dim_fp or dim_ap % n_k:
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


def product_trace_table(alg: MatrixStarAlgebra, density: np.ndarray) -> np.ndarray:
    """T[i, j] = Tr(density b_i b_j); traciality means T is symmetric."""
    left = (density @ alg.basis).transpose(0, 2, 1).reshape(alg.dim, -1)
    return left @ alg.basis_rows().T


def validate_trace(alg: MatrixStarAlgebra, trace: TraceFunctional,
                   tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Check Hermitian PSD density, faithfulness on the algebra and traciality.

    Faithfulness is only required on the algebra (the ambient density may be
    singular).  Returns the Gram matrix for reuse and the traciality residual
    max |T - T^T| of the product trace table it checked.
    """
    rho = trace.density
    if np.abs(rho - rho.conj().T).max() > tol.eps_assert:
        raise TraceNotFaithful("density is not Hermitian")
    if np.linalg.eigvalsh(rho).min() < -tol.eps_assert:
        raise TraceNotFaithful("density is not positive semidefinite")
    gram = gram_matrix(alg, trace)
    if np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() < tol.eps_rank:
        raise TraceNotFaithful("trace is not faithful on the algebra")
    table = product_trace_table(alg, rho)
    tracial = float(np.abs(table - table.T).max())
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


def automorphism_from_unitary(alg: MatrixStarAlgebra, unitary,
                              trace: TraceFunctional,
                              tol: ToleranceConfig = DEFAULT_TOL) -> StarAutomorphism:
    """Conjugation by a unitary in coordinate form.

    Ad(u) is a *-automorphism of the algebra exactly when u A u* lies in A
    (equality follows by dimension).  Its coordinate matrix over the
    Hilbert-Schmidt orthonormal basis is then unitary, so nonsingular,
    multiplicative and *-preserving; only invariance and the trace are checked.
    """
    u = linalg.as_matrix(unitary)
    if u.shape != (alg.ambient_dim, alg.ambient_dim):
        raise DimensionMismatch("unitary has wrong shape")
    if np.abs(u @ u.conj().T - np.eye(alg.ambient_dim)).max() > tol.eps_assert:
        raise NotUnitary("dynamics matrix is not unitary")
    images = u @ alg.basis @ u.conj().T
    m = alg.coords_stack(images).T  # column j = coords of u b_j u*
    resid = float(np.abs(alg.from_coords_stack(m.T) - images).max())
    if resid > tol.eps_assert:
        raise NotAutomorphism(f"conjugation by the unitary does not map the algebra "
                              f"onto itself (residual {resid:.2e})")
    if np.abs(trace.values(images) - trace.values(alg.basis)).max() > tol.eps_assert:
        raise NotAutomorphism("conjugation by the unitary does not preserve the trace")
    return StarAutomorphism(np.ascontiguousarray(m), np.ascontiguousarray(u))


def multiplication_table(alg: MatrixStarAlgebra) -> tuple[np.ndarray, np.ndarray, float]:
    """Structure constants of the algebra in its own coordinates.

    Returns T with T[i, j] = coords(b_i b_j), the adjoint matrix S with
    S[:, i] = coords(b_i*), and the closure residual: the largest entry of
    b_i b_j - sum_c T[i, j, c] b_c or of b_i* - sum_c S[c, i] b_c, which is
    0 exactly when the span is closed under products and adjoints.  Products
    are formed a block of rows i at a time.
    """
    d, n = alg.dim, alg.ambient_dim
    rows = alg.basis_rows()
    table = np.empty((d, d, d), dtype=np.complex128)
    step = max(1, (1 << 18) // max(1, d * n * n))
    resid = 0.0
    for i in range(0, d, step):
        prods = (alg.basis[i:i + step, None] @ alg.basis[None]).reshape(-1, n * n)
        coords = alg.coords_stack(prods)
        table[i:i + step] = coords.reshape(-1, d, d)
        resid = max(resid, float(np.abs(coords @ rows - prods).max()))
    adj = alg.basis.conj().transpose(0, 2, 1).reshape(d, -1)
    star = alg.coords_stack(adj).T
    resid = max(resid, float(np.abs(star.T @ rows - adj).max()))
    return table, np.ascontiguousarray(star), resid


def _generic_closure_residual(alg: MatrixStarAlgebra, table: np.ndarray,
                             star: np.ndarray) -> float:
    """The largest entry of X Y - sum_k (x^T T_k y) b_k and of
    X* - sum_k (S conj(x))_k b_k for one seeded generic pair X = sum x_i b_i,
    Y = sum y_j b_j, in O(N^3 + d^3).

    Both differences are sum_ij x_i y_j (b_i b_j - sum_k T[i, j, k] b_k) and
    sum_i conj(x_i) (b_i* - sum_k S[k, i] b_k), so at generic coefficients
    they vanish only if the basis is closed under products and adjoints with
    structure constants T and S.
    """
    rng = np.random.default_rng(PRODUCT_SEED)
    x, y = linalg.random_complex(rng, (2, alg.dim))
    xm, ym = alg.from_coords_stack(np.stack([x, y]))
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


@dataclass(frozen=True)
class WStarSystem:
    """(algebra, faithful tracial state, trace-preserving *-automorphism).

    Carries the data every stage reads from the algebra's one multiplication:
    the Gram matrix, the table T[i, j] = coords(b_i b_j) and the adjoint
    matrix S[:, i] = coords(b_i*) (from ``multiplication_table``, or from
    the factors' tables for a product system), and the
    certified eigenbasis ``modes = (lam, V)`` of the dynamics' coordinate
    matrix, alpha = V diag(lam) V^H, from ``eigenmodes``; ``system`` computes
    and checks them.
    """
    algebra: MatrixStarAlgebra
    trace: TraceFunctional
    dynamics: StarAutomorphism
    gram: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)  # (d, d, d)
    star: np.ndarray = field(repr=False)   # (d, d)
    modes: tuple[np.ndarray, np.ndarray] = field(repr=False)  # (d,), (d, d)

    def __post_init__(self):
        for a in (self.gram, self.table, self.star, *self.modes):
            a.setflags(write=False)


def system(algebra: MatrixStarAlgebra, trace: TraceFunctional,
           dynamics: StarAutomorphism, tol: ToleranceConfig = DEFAULT_TOL,
           factors: tuple[WStarSystem, WStarSystem] | None = None) -> WStarSystem:
    """Validates the algebra's closure under products and adjoints, then the
    trace on it, and diagonalises the dynamics; the dynamics itself was
    validated where it was made.

    Without ``factors`` the closure is the residual of the dense
    ``multiplication_table``.  With the factor systems ``(B, C)`` of an
    algebra whose basis is b_i (x) c_j at index i dim C + j, T and S are
    read off the factors' tables, as (b_i (x) c_j)(b_k (x) c_l) =
    b_i b_k (x) c_j c_l and (b_i (x) c_j)* = b_i* (x) c_j*, so that
    T[(i, j), (k, l)] = T_B[i, k] (x) T_C[j, l] and S = S_B (x) S_C; they
    are certified on the algebra itself by ``_generic_closure_residual``.
    """
    if factors is None:
        table, star, closure = multiplication_table(algebra)
    else:
        (b, c), d = factors, algebra.dim
        if d != b.algebra.dim * c.algebra.dim:
            raise DimensionMismatch(f"a product algebra of dim {d} over factors "
                                    f"of dims {b.algebra.dim} and {c.algebra.dim}")
        table = np.einsum("ikm,jln->ijklmn", b.table, c.table).reshape(d, d, d)
        star = np.kron(b.star, c.star)
        closure = _generic_closure_residual(algebra, table, star)
    if closure > tol.eps_assert:
        raise NumericalBreakdown(f"the basis does not span a *-algebra: a product or "
                                 f"adjoint leaves its span (residual {closure:.2e})")
    gram, _ = validate_trace(algebra, trace, tol)
    return WStarSystem(algebra, trace, dynamics, gram, table, star,
                       eigenmodes(dynamics.matrix, tol))


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
    with the trace-preserving conditional expectation onto it."""
    parent: WStarSystem
    algebra: MatrixStarAlgebra
    coords_in_parent: np.ndarray = field(repr=False)  # (m, d)
    expectation: ConditionalExpectation = field(repr=False)

    def __post_init__(self):
        self.coords_in_parent.setflags(write=False)


def subsystem(parent: WStarSystem, sub_algebra: MatrixStarAlgebra,
              tol: ToleranceConfig = DEFAULT_TOL) -> Subsystem:
    """Validates F and solves for E_F, the orthogonal projection of A onto F
    for the inner product mu(a* b), from F's Gram matrix in A's coordinates."""
    alg = parent.algebra
    if sub_algebra.ambient_dim != alg.ambient_dim:
        raise SubsystemInvalid("ambient dimensions differ")
    if sub_algebra.membership_residual(alg.identity()) > tol.eps_assert:
        raise SubsystemInvalid("subalgebra must contain the unit")
    coords = alg.coords_stack(sub_algebra.basis)  # (m, d)
    recon = alg.from_coords_stack(coords)
    if np.abs(recon - sub_algebra.basis).max() > tol.eps_assert:
        raise SubsystemInvalid("subalgebra is not contained in the parent algebra")
    images = alg.from_coords_stack((parent.dynamics.matrix @ coords.T).T)
    recon2 = sub_algebra.from_coords_stack(sub_algebra.coords_stack(images))
    if np.abs(recon2 - images).max() > tol.eps_assert:
        raise SubsystemInvalid("dynamics does not preserve the subalgebra")
    fc = coords.T  # (d, m)
    small = fc.conj().T @ parent.gram @ fc  # mu(f_k* f_l)
    if np.linalg.eigvalsh((small + small.conj().T) / 2).min() < tol.eps_rank:
        raise SubsystemInvalid("restricted trace is not faithful")
    exp = fc @ np.linalg.solve(small, fc.conj().T @ parent.gram)
    return Subsystem(parent, sub_algebra, np.ascontiguousarray(coords),
                     ConditionalExpectation(alg, np.ascontiguousarray(exp)))
