"""Matrix *-algebras, traces, trace-preserving automorphisms and subsystems.

A von Neumann algebra is stored concretely as a *-subalgebra of M_N(C) with a
Hilbert-Schmidt orthonormal basis.  A W*-dynamical system is such an algebra
together with a faithful tracial state (given by a density matrix) and a
trace-preserving *-automorphism (a coordinate matrix over the basis).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, NonSquareGenerator, NotUnitary,
                     NumericalBreakdown, SubsystemInvalid, TraceNotFaithful)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy: rank cutoff, identity-check threshold, Cesaro cap."""
    eps_rank: float = 1e-10
    eps_assert: float = 1e-8
    cesaro_n_max: int = 256

    def __post_init__(self):
        if self.eps_rank <= 0 or self.eps_assert <= 0:
            raise ValueError("tolerances must be positive")
        if self.cesaro_n_max < 1:
            raise ValueError("cesaro_n_max must be positive")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class MatrixStarAlgebra:
    """Unital *-subalgebra of M_N(C) with a Hilbert-Schmidt orthonormal basis."""
    ambient_dim: int
    basis: np.ndarray  # (dim, N, N)
    contains_identity: bool = True

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt coordinates of ``mat`` over the basis."""
        return np.tensordot(self.basis.conj(), mat, axes=([1, 2], [0, 1]))

    def coords_stack(self, mats: np.ndarray) -> np.ndarray:
        """Coordinates of a stack of matrices; row k holds coords(mats[k])."""
        return np.tensordot(mats, self.basis.conj(), axes=([1, 2], [1, 2]))

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


def star_algebra(basis_mats, ambient_dim: int | None = None,
                 tol: ToleranceConfig = DEFAULT_TOL,
                 validate: bool = True) -> MatrixStarAlgebra:
    """Wrap an orthonormal family as a MatrixStarAlgebra, checking the axioms."""
    basis = np.asarray(basis_mats, dtype=np.complex128)
    if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
        raise NonSquareGenerator("basis must be a stack of square matrices")
    if ambient_dim is not None and ambient_dim != basis.shape[1]:
        raise DimensionMismatch(
            f"expected ambient dim {ambient_dim}, got {basis.shape[1]}")
    alg = MatrixStarAlgebra(basis.shape[1], basis)
    if validate:
        validate_algebra(alg, tol)
    return alg


def validate_algebra(alg: MatrixStarAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    rows = alg.basis_rows()
    gram = rows @ rows.conj().T
    if np.abs(gram - np.eye(alg.dim)).max() > tol.eps_assert:
        raise NumericalBreakdown("basis is not Hilbert-Schmidt orthonormal")
    for i in range(alg.dim):
        prods = (alg.basis[i] @ alg.basis).reshape(alg.dim, -1)
        resid = prods - (prods @ rows.conj().T) @ rows
        if np.abs(resid).max() > tol.eps_assert:
            raise NumericalBreakdown("basis is not closed under products")
    adj = alg.basis.conj().transpose(0, 2, 1).reshape(alg.dim, -1)
    resid = adj - (adj @ rows.conj().T) @ rows
    if np.abs(resid).max() > tol.eps_assert:
        raise NumericalBreakdown("basis is not closed under adjoints")
    if alg.contains_identity:
        if alg.membership_residual(alg.identity()) > tol.eps_assert:
            raise NumericalBreakdown("identity is not in the span")


def generate_algebra(generators, ambient_dim: int,
                     tol: ToleranceConfig = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Smallest unital *-subalgebra of M_N containing the generators.

    Extends the span by products with the generators (both sides) and by
    adjoints until the dimension stabilizes; capped at N^2 rounds.
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
    if gens:
        garr = np.stack(gens)
        for _ in range(ambient_dim ** 2):
            d = rows.shape[0]
            mats = rows.reshape(d, ambient_dim, ambient_dim)
            left = np.einsum("gab,kbc->gkac", garr, mats).reshape(-1, ambient_dim ** 2)
            right = np.einsum("kab,gbc->kgac", mats, garr).reshape(-1, ambient_dim ** 2)
            adjs = mats.conj().transpose(0, 2, 1).reshape(d, -1)
            rows = linalg.extend_orthonormal(rows, np.vstack([left, right, adjs]),
                                             tol.eps_rank)
            if rows.shape[0] == d:
                break
    basis = rows.reshape(rows.shape[0], ambient_dim, ambient_dim)
    return MatrixStarAlgebra(ambient_dim, np.ascontiguousarray(basis))


def commutant(alg: MatrixStarAlgebra,
              tol: ToleranceConfig = DEFAULT_TOL) -> MatrixStarAlgebra:
    """{X : Xb = bX for every basis element b}, one basis element at a time.

    The commutant found so far is an orthonormal family X_1 .. X_k; the
    next basis element b keeps the combinations sum c_i X_i in the null space
    of c -> sum c_i (b X_i - X_i b), which is again orthonormal.  Each step
    is one SVD of an n^2 x k matrix, and k shrinks as it goes; no Kronecker
    matrix is formed.
    """
    n = alg.ambient_dim
    mats = np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)
    for b in alg.basis:
        comms = (b @ mats - mats @ b).reshape(len(mats), -1)
        kernel = linalg.nullspace(comms.T, tol.eps_rank)  # (k, k') coefficients
        mats = np.tensordot(kernel.T, mats, axes=(1, 0))
    return MatrixStarAlgebra(n, np.ascontiguousarray(mats))


def center(alg: MatrixStarAlgebra,
           tol: ToleranceConfig = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Center of the algebra, computed in its own coordinates."""
    d, n = alg.dim, alg.ambient_dim
    cols = np.empty((d * n * n, d), dtype=np.complex128)
    for i in range(d):
        comms = alg.basis[i] @ alg.basis - alg.basis @ alg.basis[i]
        cols[:, i] = comms.reshape(-1)
    kernel = linalg.nullspace(cols, tol.eps_rank)  # coords of central elements
    mats = np.tensordot(kernel.T, alg.basis, axes=(1, 0))
    return MatrixStarAlgebra(n, np.ascontiguousarray(mats))


def block_decomposition(alg: MatrixStarAlgebra, tol: ToleranceConfig = DEFAULT_TOL,
                        seed: int = 7) -> list[np.ndarray]:
    """Minimal central projections, pairwise orthogonal and summing to 1.

    A generic self-adjoint central element is drawn from a fixed seed; its
    spectral projections realize the blocks.  Central elements are constant on
    each block, so the eigenvalue clusters are exact up to roundoff.
    """
    z_alg = center(alg, tol)
    dz = z_alg.dim
    rng = np.random.default_rng(seed)
    cluster_tol = 1e-8
    for _ in range(20):
        zmat = z_alg.from_coords(linalg.random_complex(rng, dz))
        zmat = zmat + zmat.conj().T
        vals, vecs = np.linalg.eigh(zmat)
        spread = max(1.0, float(vals[-1] - vals[0]))
        splits = np.nonzero(np.diff(vals) > cluster_tol * spread)[0]
        groups = np.split(np.arange(len(vals)), splits + 1)
        if len(groups) != dz:
            continue
        projs = [vecs[:, g] @ vecs[:, g].conj().T for g in groups]
        if all(alg.membership_residual(p) < tol.eps_assert for p in projs):
            projs.sort(key=lambda p: (-round(float(np.trace(p).real), 6),
                                      linalg.sort_key(p)))
            return projs
    raise NumericalBreakdown("could not separate central blocks")


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
                   tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Check Hermitian PSD density, faithfulness on the algebra and traciality.

    Faithfulness is only required on the algebra (the ambient density may be
    singular).  Returns the Gram matrix for reuse.
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
    if np.abs(table - table.T).max() > tol.eps_assert:
        raise TraceNotFaithful("functional is not tracial on the algebra")
    if trace.normalized and abs(trace.value(alg.identity()) - 1.0) > tol.eps_assert:
        raise TraceNotFaithful("normalized trace must send 1 to 1")
    return gram


@dataclass(frozen=True)
class StarAutomorphism:
    """Trace-preserving *-automorphism as a coordinate matrix over the basis."""
    matrix: np.ndarray  # (dim, dim)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def apply_coords(self, c: np.ndarray) -> np.ndarray:
        return self.matrix @ c

    def apply(self, alg: MatrixStarAlgebra, mat: np.ndarray) -> np.ndarray:
        return alg.from_coords(self.matrix @ alg.coords(mat))


def automorphism_from_matrix(alg: MatrixStarAlgebra, matrix,
                             trace: TraceFunctional,
                             tol: ToleranceConfig = DEFAULT_TOL) -> StarAutomorphism:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (alg.dim, alg.dim):
        raise DimensionMismatch("coordinate matrix has wrong shape")
    auto = StarAutomorphism(np.ascontiguousarray(m))
    validate_automorphism(alg, auto, trace, tol)
    return auto


def automorphism_from_unitary(alg: MatrixStarAlgebra, unitary,
                              trace: TraceFunctional,
                              tol: ToleranceConfig = DEFAULT_TOL) -> StarAutomorphism:
    """Normalize conjugation by a unitary to coordinate form."""
    u = linalg.as_matrix(unitary)
    if u.shape != (alg.ambient_dim, alg.ambient_dim):
        raise DimensionMismatch("unitary has wrong shape")
    if np.abs(u @ u.conj().T - np.eye(alg.ambient_dim)).max() > tol.eps_assert:
        raise NotUnitary("dynamics matrix is not unitary")
    images = u @ alg.basis @ u.conj().T
    m = alg.coords_stack(images).T  # column j = coords of u b_j u*
    auto = StarAutomorphism(np.ascontiguousarray(m))
    validate_automorphism(alg, auto, trace, tol)
    return auto


def validate_automorphism(alg: MatrixStarAlgebra, auto: StarAutomorphism,
                          trace: TraceFunctional,
                          tol: ToleranceConfig = DEFAULT_TOL) -> None:
    m = auto.matrix
    if np.linalg.svd(m, compute_uv=False)[-1] <= tol.eps_rank:
        raise NumericalBreakdown("automorphism matrix is singular")
    images = alg.from_coords_stack(m.T)  # images[i] = alpha(b_i)
    for i in range(alg.dim):
        lhs = alg.from_coords_stack((m @ alg.coords_stack(alg.basis[i] @ alg.basis).T).T)
        rhs = images[i] @ images
        if np.abs(lhs - rhs).max() > tol.eps_assert:
            raise NumericalBreakdown("map is not multiplicative")
    adj_of_image = images.conj().transpose(0, 2, 1)
    image_of_adj = alg.from_coords_stack(
        (m @ alg.coords_stack(alg.basis.conj().transpose(0, 2, 1)).T).T)
    if np.abs(image_of_adj - adj_of_image).max() > tol.eps_assert:
        raise NumericalBreakdown("map is not *-preserving")
    if np.abs(trace.values(images) - trace.values(alg.basis)).max() > tol.eps_assert:
        raise NumericalBreakdown("map does not preserve the trace")


@dataclass(frozen=True)
class WStarSystem:
    """(algebra, faithful tracial state, trace-preserving *-automorphism)."""
    algebra: MatrixStarAlgebra
    trace: TraceFunctional
    dynamics: StarAutomorphism
    gram: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.gram is None:
            object.__setattr__(self, "gram", gram_matrix(self.algebra, self.trace))
        self.gram.setflags(write=False)


def system(algebra: MatrixStarAlgebra, trace: TraceFunctional,
           dynamics: StarAutomorphism, tol: ToleranceConfig = DEFAULT_TOL,
           validate: bool = True) -> WStarSystem:
    if validate:
        gram = validate_trace(algebra, trace, tol)
        validate_automorphism(algebra, dynamics, trace, tol)
    else:
        gram = gram_matrix(algebra, trace)
    return WStarSystem(algebra, trace, dynamics, gram)


@dataclass(frozen=True)
class Subsystem:
    """Unital subalgebra F with alpha(F) = F and faithful restricted trace."""
    parent: WStarSystem
    algebra: MatrixStarAlgebra
    coords_in_parent: np.ndarray = field(repr=False, default=None)  # (m, d)
    dynamics_matrix: np.ndarray = field(repr=False, default=None)   # (m, m)

    def __post_init__(self):
        for a in (self.coords_in_parent, self.dynamics_matrix):
            if a is not None:
                a.setflags(write=False)


def subsystem(parent: WStarSystem, sub_algebra: MatrixStarAlgebra,
              tol: ToleranceConfig = DEFAULT_TOL) -> Subsystem:
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
    phi = sub_algebra.coords_stack(images).T  # column i = coords_F(alpha(f_i))
    recon2 = sub_algebra.from_coords_stack(phi.T)
    if np.abs(recon2 - images).max() > tol.eps_assert:
        raise SubsystemInvalid("dynamics does not preserve the subalgebra")
    sub_gram = gram_matrix(sub_algebra, parent.trace)
    if np.linalg.eigvalsh((sub_gram + sub_gram.conj().T) / 2).min() < tol.eps_rank:
        raise SubsystemInvalid("restricted trace is not faithful")
    return Subsystem(parent, sub_algebra, np.ascontiguousarray(coords),
                     np.ascontiguousarray(phi))


@dataclass(frozen=True)
class ConditionalExpectation:
    """Trace-preserving conditional expectation A -> F in parent coordinates."""
    sub: Subsystem
    matrix: np.ndarray  # (d, d), image lies in the span of F

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def apply_coords(self, c: np.ndarray) -> np.ndarray:
        return self.matrix @ c

    def apply(self, mat: np.ndarray) -> np.ndarray:
        alg = self.sub.parent.algebra
        return alg.from_coords(self.matrix @ alg.coords(mat))


def conditional_expectation(parent: WStarSystem, sub: Subsystem,
                            tol: ToleranceConfig = DEFAULT_TOL) -> ConditionalExpectation:
    """Orthogonal projection of A onto F for the inner product mu(a* b)."""
    if sub.parent is not parent:
        raise SubsystemInvalid("subsystem does not belong to this system")
    fc = sub.coords_in_parent.T  # (d, m)
    small = fc.conj().T @ parent.gram @ fc
    mat = fc @ np.linalg.solve(small, fc.conj().T @ parent.gram)
    return ConditionalExpectation(sub, np.ascontiguousarray(mat))


def random_element(alg: MatrixStarAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Deterministic pseudo-random algebra element (for property checks)."""
    c = linalg.random_complex(rng, alg.dim) / np.sqrt(alg.dim)
    return alg.from_coords(c)
