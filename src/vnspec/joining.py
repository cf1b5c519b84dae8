"""Commutant system, relatively independent joining and its GNS data.

The commutant carries the mirrored trace and dynamics.  The joining is the
state on the algebraic tensor product built from the two conditional
expectations composed with the diagonal state; its GNS space is constructed
with an explicit null-space quotient and is unitarily equivalent to the GNS
space of the basic construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (DEFAULT_TOL, MatrixStarAlgebra, StarAutomorphism, Subsystem,
                      ToleranceConfig, TraceFunctional, WStarSystem,
                      conditional_expectation)
from .basic import BasicConstruction
from .errors import IsometryViolation, StateNotPositive
from .gns import GnsSpace

FIXED_POINT_TOL = 1e-8  # eigenvalue-cluster tolerance for unitary fixed spaces


@dataclass(frozen=True)
class CommutantSystem:
    """The mirrored system on the commutant, with basis j(a_i)."""
    system: WStarSystem
    dynamics_residual: float  # | coords of Ad(U) on j(A) minus those on A |


def build_commutant_system(gns: GnsSpace,
                           tol: ToleranceConfig = DEFAULT_TOL) -> CommutantSystem:
    """Carry trace and dynamics over to the commutant through j."""
    left_rows = linalg.extend_orthonormal(
        np.zeros((0, gns.dim ** 2), dtype=np.complex128),
        gns.left_mats.reshape(len(gns.left_mats), -1), tol.eps_rank)
    left_onb = left_rows.reshape(-1, gns.dim, gns.dim)
    basis = np.stack([gns.j_op(m) for m in left_onb])
    alg = MatrixStarAlgebra(gns.dim, np.ascontiguousarray(basis))
    density = np.outer(gns.omega, gns.omega.conj())
    trace = TraceFunctional(np.ascontiguousarray(density), normalized=True)
    u = gns.u_matrix
    images = u @ basis @ u.conj().T
    m_prime = alg.coords_stack(images).T
    # oracle: conjugating j(x) by U equals j of conjugating x by U
    mirrored = np.stack([gns.j_op(u @ m @ u.conj().T) for m in left_onb])
    resid = float(np.abs(images - mirrored).max())
    dyn = StarAutomorphism(np.ascontiguousarray(m_prime))
    sys_prime = WStarSystem(alg, trace, dyn)
    return CommutantSystem(sys_prime, resid)


@dataclass(frozen=True)
class JoiningData:
    """Relatively independent joining of a system with its commutant.

    Tensor coordinates are indexed over pairs of the parent basis, with the
    commutant slot running over b_i = j(left(a_i)).
    """
    gns: GnsSpace
    sub: Subsystem
    commutant: CommutantSystem
    omega_values: np.ndarray        # (d, d) joint state on basis pairs
    two_formula_residual: float     # expectation route vs lifted-trace route
    marginal_residual: float
    invariance_residual: float
    gram: np.ndarray                # (d^2, d^2) Gram of the joining state
    gamma: np.ndarray               # (r, d^2) quotient map onto the GNS space
    w_matrix: np.ndarray            # (r, r) unitary of the joint dynamics
    omega_vec: np.ndarray           # (r,) GNS cyclic vector
    h_lambda: np.ndarray            # (r, m) orthonormal basis of the F-subspace
    h_lambda_alt_residual: float    # F (x) 1 span versus 1 (x) j(F) span

    def __post_init__(self):
        for a in (self.omega_values, self.gram, self.gamma, self.w_matrix,
                  self.omega_vec, self.h_lambda):
            a.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.gamma.shape[0]


def relative_joining(gns: GnsSpace, sub: Subsystem, bc: BasicConstruction,
                     tol: ToleranceConfig = DEFAULT_TOL) -> JoiningData:
    parent = gns.system
    alg = parent.algebra
    d = alg.dim
    commutant_sys = build_commutant_system(gns, tol)
    exp = conditional_expectation(parent, sub, tol)
    # conditioned left/right actions
    d_coords = exp.matrix  # (d, d)
    left_d = np.tensordot(d_coords.T, gns.left_mats, axes=(1, 0))  # left(D(a_i))
    right_d = np.stack([gns.j_op(m) for m in left_d])              # j(left(D(a_i)))
    # joint state, route one: diagonal state after D (x) D'
    r_omega = right_d @ gns.omega
    omega_vals = np.einsum("a,iab,jb->ij", gns.omega.conj(), left_d, r_omega,
                           optimize=True)
    # route two: lifted trace of e a e j(b); j sends the commutant slot back to
    # a left-acting element, so the conditioning happens through e alone
    e = bc.e
    alt = np.empty((d, d), dtype=np.complex128)
    for i in range(d):
        blocks = e @ gns.left_mats[i] @ e @ gns.left_mats
        alt[i] = bc.algebra.coords_stack(blocks) @ bc.trace_vector
    two_formula = float(np.abs(omega_vals - alt).max())
    # marginals against mu and mu' = mu(j(.))
    mu_vals = parent.trace.values(alg.basis)
    marg = max(float(np.abs(np.einsum("a,iab,b->i", gns.omega.conj(), left_d,
                                      gns.omega) - mu_vals).max()),
               float(np.abs(np.einsum("a,ia->i", gns.omega.conj(), r_omega)
                            - mu_vals).max()))
    # invariance under the joint dynamics
    m_alpha = parent.dynamics.matrix
    invariance = float(np.abs(m_alpha.T @ omega_vals @ m_alpha - omega_vals).max())
    # Gram of the joining state over the d^2 simple tensors
    p_vecs = np.empty((d, d, gns.dim), dtype=np.complex128)
    q_vecs = np.empty((d, d, gns.dim), dtype=np.complex128)
    adj = alg.basis.conj().transpose(0, 2, 1)
    for i in range(d):
        p_vecs[i] = (e @ gns.to_vector @ alg.coords_stack(adj @ alg.basis[i]).T).T
        q_vecs[i] = (e @ gns.to_vector @ alg.coords_stack(alg.basis @ adj[i]).T).T
    gram = np.einsum("ikh,jlh->ijkl", p_vecs.conj(), q_vecs,
                     optimize=True).reshape(d * d, d * d)
    gram = (gram + gram.conj().T) / 2
    vals, vecs = np.linalg.eigh(gram)
    if vals.min() < -tol.eps_assert:
        raise StateNotPositive(f"joining state has negative part {vals.min():.2e}")
    keep = vals > tol.eps_rank
    lam = vals[keep]
    v = vecs[:, keep]
    gamma = (np.sqrt(lam)[:, None] * v.conj().T)  # (r, d^2)
    m_tau = np.kron(m_alpha, m_alpha)
    w = (np.sqrt(lam)[:, None] * (v.conj().T @ m_tau @ v)) / np.sqrt(lam)[None, :]
    id_coords = alg.coords(alg.identity())
    omega_vec = gamma @ np.kron(id_coords, id_coords)
    # F-subspace, both descriptions
    f_first = gamma @ np.stack([np.kron(fc, id_coords)
                                for fc in sub.coords_in_parent]).T
    f_second = gamma @ np.stack([np.kron(id_coords, fc)
                                 for fc in sub.coords_in_parent]).T
    h_lambda = linalg.orthonormal_columns(f_first, tol.eps_rank)
    alt_span = linalg.orthonormal_columns(f_second, tol.eps_rank)
    span_resid = max(linalg.subspace_inclusion_residual(alt_span, h_lambda),
                     linalg.subspace_inclusion_residual(h_lambda, alt_span))
    return JoiningData(gns, sub, commutant_sys, omega_vals, two_formula, marg,
                       invariance, gram, np.ascontiguousarray(gamma),
                       np.ascontiguousarray(w), omega_vec,
                       np.ascontiguousarray(h_lambda), span_resid)


def joining_equivalence(jd: JoiningData, bc: BasicConstruction,
                        tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The unitary from the joining GNS space onto the basic-construction one.

    Determined by gamma(a (x) j(b)) -> gamma_bar(a e b); validated to be
    unitary and to intertwine the two dynamics unitaries.
    """
    gns = jd.gns
    d = gns.system.algebra.dim
    if jd.rank != bc.bar.dim:
        raise IsometryViolation(
            f"joining GNS rank {jd.rank} differs from basic-construction "
            f"dimension {bc.bar.dim}")
    cols = np.empty((bc.bar.dim, d * d), dtype=np.complex128)
    for i in range(d):
        blocks = gns.left_mats[i] @ bc.e @ gns.left_mats
        cols[:, i * d:(i + 1) * d] = bc.bar.to_vector @ bc.algebra.coords_stack(blocks).T
    r = cols @ np.linalg.pinv(jd.gamma, rcond=tol.eps_rank)
    eye = np.eye(jd.rank)
    resid = max(float(np.abs(r.conj().T @ r - eye).max()),
                float(np.abs(r @ r.conj().T - eye).max()))
    if resid > tol.eps_assert:
        raise IsometryViolation(f"equivalence map is not unitary ({resid:.2e})")
    inter = float(np.abs(r @ jd.w_matrix @ r.conj().T - bc.bar.u_matrix).max())
    if inter > tol.eps_assert:
        raise IsometryViolation(
            f"equivalence map does not intertwine the dynamics ({inter:.2e})")
    return r


@dataclass(frozen=True)
class ErgodicityCheck:
    holds: bool
    residual: float
    fixed_dim: int
    lambda_dim: int


def relative_ergodicity_check(jd: JoiningData, bc: BasicConstruction,
                              tol: ToleranceConfig = DEFAULT_TOL) -> ErgodicityCheck:
    """Whether every fixed vector of the lifted dynamics lies in the F-subspace.

    The fixed space is computed on the basic-construction side, the F-subspace
    as the span of gamma_bar(e f) over the subalgebra basis.
    """
    u_bar = bc.bar.u_matrix
    fixed = linalg.nullspace(u_bar - np.eye(bc.bar.dim), FIXED_POINT_TOL)
    f_left = np.stack([jd.gns.left(f) for f in jd.sub.algebra.basis])
    cols = np.stack([bc.gamma(bc.e @ m) for m in f_left]).T
    lam = linalg.orthonormal_columns(cols, tol.eps_rank)
    resid = linalg.subspace_inclusion_residual(fixed, lam)
    return ErgodicityCheck(resid < tol.eps_assert, resid,
                           fixed.shape[1], lam.shape[1])
