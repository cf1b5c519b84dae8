"""Generic algebra routines the package no longer runs, kept as test oracles
and property-check helpers: the commutant grown from all of M_n, the closure
test by products with generators, the full algebra validator, seeded random
elements, GNS vectors of ambient matrices and of elements of <A, e>, the
inverse square root that scaled the old default partition, and the dense
form of <A, e>: its n^2-wide span with an SVD basis, and the fixed points of
its dynamics as n x n matrices.  Also the routes the return unitaries of F's
block orbits replaced: the fixed points as one null space of the dim <A, e>
square matrix alpha_bar - 1, with the generic center search on them, and the
pivoted Cholesky factor of the joining's scaled Gram."""
import numpy as np

from vnspec import linalg
from vnspec.algebra import (DEFAULT_TOL, MatrixStarAlgebra, ToleranceConfig,
                            central_projection_coords)
from vnspec.errors import NumericalBreakdown


def product_closure_residual(alg: MatrixStarAlgebra, generators) -> float:
    """How far the span of the basis is from a unital algebra.

    When every basis element is a sum of words in the generators, the span is
    closed under products once it is closed under right multiplication by
    each generator.  Returns the worst relative distance of such a product
    from the span, and of the identity.
    """
    rows = alg.basis_rows()
    worst = alg.membership_residual(alg.identity())
    for g in generators:
        prods = (alg.basis @ g).reshape(alg.dim, -1)
        resid = prods - (prods @ rows.conj().T) @ rows
        norms = np.maximum(1.0, np.linalg.norm(prods, axis=1))
        worst = max(worst, float((np.linalg.norm(resid, axis=1) / norms).max()))
    return worst


def validate_algebra(alg: MatrixStarAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    rows = alg.basis_rows()
    gram = rows @ rows.conj().T
    if np.abs(gram - np.eye(alg.dim)).max() > tol.eps_assert:
        raise NumericalBreakdown("basis is not Hilbert-Schmidt orthonormal")
    if product_closure_residual(alg, alg.basis) > tol.eps_assert:
        raise NumericalBreakdown("span is not a unital algebra")
    adj = alg.basis.conj().transpose(0, 2, 1).reshape(alg.dim, -1)
    resid = adj - (adj @ rows.conj().T) @ rows
    if np.abs(resid).max() > tol.eps_assert:
        raise NumericalBreakdown("basis is not closed under adjoints")


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
        if not kernel.shape[1]:
            raise NumericalBreakdown(
                f"rank cutoff {tol.eps_rank:g} drops the identity from the commutant")
        mats = np.tensordot(kernel.T, mats, axes=(1, 0))
    return MatrixStarAlgebra(n, np.ascontiguousarray(mats))


def random_element(alg: MatrixStarAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Deterministic pseudo-random algebra element (for property checks)."""
    c = linalg.random_complex(rng, alg.dim) / np.sqrt(alg.dim)
    return alg.from_coords(c)


def vector_of(gns, mat: np.ndarray) -> np.ndarray:
    """a Omega for an algebra element given as an ambient matrix."""
    return gns.to_vector @ gns.system.algebra.coords(mat)


def bar_vector(bc, mat: np.ndarray) -> np.ndarray:
    """GNS vector of an element of the basic construction <A, e>."""
    return bc.bar_to_vector @ bc.algebra.coords(mat)


def span_candidates(bc) -> np.ndarray:
    """The d k products (L(x_i) e)(e L(b_s)) spanning <A, e>, as n^2-wide
    rows i k + s, as the package once formed them."""
    gns = bc.gns
    left_x = np.tensordot(bc.x_coords, gns.left_mats, axes=(1, 0)) @ bc.e
    right_b = bc.e @ np.tensordot(bc.b_coords, gns.left_mats, axes=(1, 0))
    return (left_x[:, None] @ right_b[None]).reshape(-1, gns.dim ** 2)


def dense_span(bc, eps_rank: float = DEFAULT_TOL.eps_rank) -> MatrixStarAlgebra:
    """<A, e> as n x n matrices with a Hilbert-Schmidt orthonormal basis, from
    one SVD of the n^2-wide span candidates, as the package once built it."""
    n = bc.gns.dim
    rows = linalg.extend_orthonormal(np.zeros((0, n * n), dtype=np.complex128),
                                     span_candidates(bc), eps_rank)
    return MatrixStarAlgebra(n, np.ascontiguousarray(rows.reshape(-1, n, n)))


def joint_commutant(bc, eps_rank: float = DEFAULT_TOL.eps_rank) -> MatrixStarAlgebra:
    """The fixed points of the lifted dynamics as n x n matrices with a
    Hilbert-Schmidt orthonormal basis."""
    n = bc.gns.dim
    mats = bc.algebra.from_coords(bc.fixed.T).reshape(-1, n * n)
    rows = linalg.extend_orthonormal(np.zeros((0, n * n), dtype=np.complex128), mats,
                                     eps_rank)
    return MatrixStarAlgebra(n, np.ascontiguousarray(rows.reshape(-1, n, n)))


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


def dense_fixed_points(bc, eps_rank: float = DEFAULT_TOL.eps_rank) -> np.ndarray:
    """Orthonormal coordinates of {U}' in <A, e>: the null space of the
    dim <A, e> square matrix alpha_bar - 1, as the package once found them."""
    dyn = bc.dynamics.matrix
    return linalg.nullspace(dyn - np.eye(len(dyn)), eps_rank)


def fixed_point_center(bc, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Minimal central projections of the fixed points, by the generic center
    search on the dense null space, as module search once found them."""
    return central_projection_coords(bc.algebra, dense_fixed_points(bc, tol.eps_rank).T,
                                     tol)


def pivoted_cholesky(gram: np.ndarray, eps_rank: float = DEFAULT_TOL.eps_rank
                     ) -> tuple[np.ndarray, list[float]]:
    """Rows L^T of G = L L^H + S by pivoted Cholesky (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10), with the pivots kept: pivot
    on the largest remaining diagonal entry, the first of those equal to it
    up to a factor 1 - eps_rank, and stop once it is at most eps_rank, as
    the joining once factored its scaled Gram."""
    diag = gram.diagonal().real.copy()
    rows = np.empty(gram.shape, dtype=np.complex128)
    pivots: list[float] = []
    while len(pivots) < len(gram) and diag.max() > eps_rank:
        k, piv = len(pivots), int(np.argmax(diag >= (1 - eps_rank) * diag.max()))
        rows[k] = (gram[:, piv] - rows[:k].T @ rows[:k, piv].conj()) / np.sqrt(diag[piv])
        pivots.append(float(diag[piv]))
        diag -= rows[k].real ** 2 + rows[k].imag ** 2
        diag[piv] = 0.0
    return rows[:len(pivots)], pivots
