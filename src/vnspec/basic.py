"""Jones basic construction with its canonical lifted trace.

Given a system on H with cyclic projection e onto the subalgebra's cyclic
subspace, builds <A, e> as the span of the products a e b (in finite
dimensions this span is already a unital algebra, and the check of that is
recorded), certifies that it is the commutant j(F)' of the right subalgebra
action by inclusion (every basis element commutes with j(F)) and dimension
(the Bratteli count sum_k m_k^2 over the central blocks of F in A, which
never reads e), extends the trace by  lifted(a e b) = mu(a b),  conjugates the
dynamics, and maps the result into L2(<A, e>, lifted trace) by a Cholesky
factor of its Gram matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (DEFAULT_TOL, MatrixStarAlgebra, StarAutomorphism, Subsystem,
                      ToleranceConfig, TraceFunctional, automorphism_from_unitary,
                      bratteli_dimension, product_closure_residual, validate_trace)
from .errors import (CommutantMismatch, ExtensionInconsistent, NotAutomorphism,
                     NumericalBreakdown, PartitionInvalid, TraceNotFaithful)
from .gns import GnsSpace, cyclic_subspace_projection, gns_map


@dataclass(frozen=True)
class BasicConstruction:
    gns: GnsSpace
    sub: Subsystem
    e: np.ndarray                   # projection onto the cyclic subspace of F
    algebra: MatrixStarAlgebra      # span(A e A), equal to j(F)'
    trace_vector: np.ndarray        # lifted trace on the algebra basis
    trace: TraceFunctional          # same functional as a density (not normalized)
    dynamics: StarAutomorphism      # conjugation by U in algebra coordinates
    bar_to_vector: np.ndarray       # algebra coords -> L2(algebra, lifted trace)
    u_bar: np.ndarray               # unitary implementing the dynamics there
    commutant_residual: float
    extension_residual: float

    def __post_init__(self):
        for a in (self.e, self.trace_vector, self.bar_to_vector, self.u_bar):
            a.setflags(write=False)

    def lifted_value(self, mat: np.ndarray) -> complex:
        """Lifted trace of an element of the constructed algebra."""
        return complex(self.trace_vector @ self.algebra.coords(mat))

    def gamma(self, mat: np.ndarray) -> np.ndarray:
        """GNS vector of an element of the constructed algebra."""
        return self.bar_to_vector @ self.algebra.coords(mat)


def _span_products(gns: GnsSpace, e: np.ndarray) -> np.ndarray:
    """The d^2 products left(a_i) e left(a_j); row i * d + j."""
    n = gns.dim
    left_e = gns.left_mats @ e
    return (left_e[:, None] @ gns.left_mats[None]).reshape(-1, n, n)


def lifted_trace_coefficients(gns: GnsSpace, e: np.ndarray,
                              alg_bar: MatrixStarAlgebra,
                              tol: ToleranceConfig = DEFAULT_TOL
                              ) -> tuple[np.ndarray, float]:
    """Extend  a e b -> mu(a b)  to a linear functional on the whole algebra.

    First checks that the algebra, the span of {a_i e a_j}, is closed under
    products and contains the identity.  Every basis element is then
    expressed in the spanning family by least squares; consistency requires
    that null combinations of the family map to zero values.  The returned
    residual is the larger of the closure and the consistency residual.
    """
    alg = gns.system.algebra
    closure = product_closure_residual(alg_bar, list(gns.left_mats) + [e])
    if closure > tol.eps_assert:
        raise ExtensionInconsistent(
            f"span(A e A) is not closed under products "
            f"(residual {closure:.2e})")
    span_cols = alg_bar.coords_stack(_span_products(gns, e)).T
    values = gns.system.trace.values(
        (alg.basis[:, None] @ alg.basis[None]).reshape(-1, *alg.basis.shape[1:]))
    trace_vec = values @ np.linalg.pinv(span_cols, rcond=tol.eps_rank)
    consistency = float(np.abs(trace_vec @ span_cols - values).max())
    if consistency > tol.eps_assert:
        raise ExtensionInconsistent(
            f"trace extension is inconsistent on the kernel "
            f"(residual {consistency:.2e})")
    return trace_vec, max(closure, consistency)


def build_basic_construction(gns: GnsSpace, sub: Subsystem,
                             tol: ToleranceConfig = DEFAULT_TOL) -> BasicConstruction:
    e = cyclic_subspace_projection(gns, sub, tol)
    n = gns.dim
    rows = linalg.extend_orthonormal(
        np.zeros((0, n * n), dtype=np.complex128),
        _span_products(gns, e).reshape(-1, n * n), tol.eps_rank)
    spanned = MatrixStarAlgebra(n, np.ascontiguousarray(rows.reshape(-1, n, n)))
    # inclusion in j(F)': the largest entry of [b, j(f)], relative to |j(f)|
    right_f = [gns.j_op(gns.left(f)) for f in sub.algebra.basis]
    resid = max(float(np.abs(spanned.basis @ j - j @ spanned.basis).max()
                      / np.linalg.norm(j, 2)) for j in right_f)
    count = bratteli_dimension(gns.system.algebra, sub.algebra, tol)
    if spanned.dim != count or resid > tol.eps_assert:
        raise CommutantMismatch(
            f"span(A e A) (dim {spanned.dim}) and j(F)' (dim {count} by the "
            f"Bratteli count) disagree, commutator residual {resid:.2e}")
    trace_vec, ext_resid = lifted_trace_coefficients(gns, e, spanned, tol)
    # density representing the lifted trace on the algebra: faithful and PSD
    rho_bar = np.tensordot(trace_vec, spanned.basis.conj().transpose(0, 2, 1),
                           axes=(0, 0))
    trace_bar = TraceFunctional(rho_bar, normalized=False)
    # the lifted trace is faithful, and U normalises <A, e> whenever alpha is
    # an automorphism of A fixing F; a fault here is a failed cross-check
    try:
        gram_bar = validate_trace(spanned, trace_bar, tol)
        dyn_bar = automorphism_from_unitary(spanned, gns.u_matrix, trace_bar, tol)
    except (TraceNotFaithful, NotAutomorphism) as exc:
        raise NumericalBreakdown(f"lifted system: {exc}") from exc
    # validate_trace has checked that the Gram matrix is positive definite
    to_vec, _, u_bar = gns_map(gram_bar, dyn_bar.matrix)
    return BasicConstruction(gns, sub, e, spanned, np.ascontiguousarray(trace_vec),
                             trace_bar, dyn_bar, np.ascontiguousarray(to_vec),
                             np.ascontiguousarray(u_bar), resid, ext_resid)


def default_partition(bc: BasicConstruction,
                      tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Elements v_i of the commutant-side construction with sum v_i* e v_i = 1.

    Takes an orthonormal basis (m_i) of J <A,e> J; the averaged element
    sum m_i* e m_i is central and positive there, so m_i scaled by its inverse
    square root gives a valid partition.
    """
    gns = bc.gns
    m_basis = np.stack([gns.j_op(x) for x in bc.algebra.basis])
    psi = np.einsum("iba,bc,icd->ad", m_basis.conj(), bc.e, m_basis,
                    optimize=True)
    psi = (psi + psi.conj().T) / 2
    scale = linalg.inv_sqrt_psd(psi, tol.eps_rank)
    return [m @ scale for m in m_basis]


def lifted_trace_via_partition(bc: BasicConstruction, partial_isometries,
                               tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the lifted trace as sum_i <J v_i* Omega, t J v_i* Omega>.

    Validates sum v_i* e v_i = 1 and that the result agrees with the
    least-squares extension on the algebra basis.
    """
    vs = [np.asarray(v, dtype=np.complex128) for v in partial_isometries]
    total = sum(v.conj().T @ bc.e @ v for v in vs)
    if np.abs(total - np.eye(bc.gns.dim)).max() > tol.eps_assert:
        raise PartitionInvalid("sum v_i* e v_i differs from the identity")
    vecs = np.stack([bc.gns.apply_j(v.conj().T @ bc.gns.omega) for v in vs])
    values = np.einsum("ia,kab,ib->k", vecs.conj(), bc.algebra.basis, vecs,
                       optimize=True)
    resid = float(np.abs(values - bc.trace_vector).max())
    if resid > tol.eps_assert:
        raise ExtensionInconsistent(
            f"partition formula disagrees with the trace extension "
            f"(residual {resid:.2e})")
    return values
