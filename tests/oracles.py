"""Generic algebra routines the package no longer runs, kept as test oracles
and property-check helpers: the commutant grown from all of M_n, the closure
test by products with generators, the full algebra validator, seeded random
elements, GNS vectors of ambient matrices and of elements of <A, e>, and a
stand-in for the span routine that faults only the span of <A, e>."""
import numpy as np

from vnspec import linalg
from vnspec.algebra import DEFAULT_TOL, MatrixStarAlgebra, ToleranceConfig
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


def on_span(n: int, patched):
    """A stand-in for ``linalg.extend_orthonormal`` that calls ``patched`` on
    the span of <A, e>, whose candidates are n^2 wide for the GNS dimension
    n, and the real routine on every other span, such as the words of the
    inclusion generators in F's coordinates."""
    extend = linalg.extend_orthonormal

    def routed(existing, candidates, eps_rank):
        wide = np.shape(candidates)[-1] == n * n
        return (patched if wide else extend)(existing, candidates, eps_rank)
    return routed


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
