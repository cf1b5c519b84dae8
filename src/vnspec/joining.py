"""Relatively independent joining of a system with its commutant.

The joining is the state on the algebraic tensor product built from the two
conditional expectations composed with the diagonal state; its GNS space is
the range of a pivoted Cholesky factor of the state's Gram matrix over the
simple tensors, and is unitarily equivalent to L2 of the basic construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import DEFAULT_TOL, ToleranceConfig
from .basic import BasicConstruction
from .errors import IsometryViolation, NumericalBreakdown, StateNotPositive


@dataclass(frozen=True)
class JoiningData:
    """Relatively independent joining of a system with its commutant.

    Tensor coordinates are indexed over pairs of the parent basis, with the
    commutant slot running over b_i = j(left(a_i)).
    """
    basic: BasicConstruction        # owns the GNS space and the subsystem
    omega_values: np.ndarray        # (d, d) joint state on basis pairs
    two_formula_residual: float     # expectation route vs lifted-trace route
    marginal_residual: float
    invariance_residual: float
    gamma: np.ndarray               # (r, d^2) quotient map onto the GNS space
    w_matrix: np.ndarray            # (r, r) unitary of the joint dynamics
    omega_vec: np.ndarray           # (r,) GNS cyclic vector
    h_lambda_alt_residual: float    # F (x) 1 span versus 1 (x) j(F) span
    factor_residual: float          # ||G - L L^H||_F of the Gram factor
    smallest_pivot: float           # smallest pivot kept in that factor

    def __post_init__(self):
        for a in (self.omega_values, self.gamma, self.w_matrix,
                  self.omega_vec):
            a.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.gamma.shape[0]


def factor_gram(p: np.ndarray, q: np.ndarray, to_vector: np.ndarray,
                tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float, float]:
    """Factor G = L L^H + S for G[(i, j), (k, l)] = sum_h conj(p[i, k, h]) q[j, l, h].

    Pivoted Cholesky (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 10) runs on the whitened G_w = K^-H G K^-1, K = kron(R, R) for
    R = to_vector, computing one row of G_w per pivot, and stops once the
    largest remaining diagonal entry is at most eps_rank; then L = K^H L_w.
    The Schur complement S = G - L L^H is formed a block of rows at a time and
    never stored whole.  As L L^H is positive, lambda_min(G) >= -||S||_F, so
    StateNotPositive is raised when ||S||_F > eps_assert.  Returns L^T (row k
    is column k of L), ||S||_F and the smallest pivot kept.
    """
    d = len(p)
    r_inv = np.linalg.inv(to_vector)
    p_w = np.einsum("ia,kc,ikh->ach", r_inv, r_inv.conj(), p, optimize=True)
    q_w = np.einsum("jb,ld,jlh->bhd", r_inv.conj(), r_inv, q, optimize=True)
    diag = np.einsum("aah,bhb->ab", p_w.conj(), q_w).real.ravel()
    rows = np.empty((min(d * d, 64), d * d), dtype=np.complex128)
    pivots: list[float] = []
    while len(pivots) < d * d:
        k, piv = len(pivots), int(np.argmax(diag))
        if diag[piv] <= tol.eps_rank:
            break
        if k == len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
        a, b = divmod(piv, d)
        col = (p_w[a].conj() @ q_w[b]).ravel().conj()  # column piv of G_w
        rows[k] = (col - rows[:k].T @ rows[:k, piv].conj()) / np.sqrt(diag[piv])
        pivots.append(float(diag[piv]))
        diag -= rows[k].real ** 2 + rows[k].imag ** 2
        diag[piv] = 0.0
    # L = K^H L_w: R^H X conj(R) for each column X of L_w read as a d x d matrix
    rows = (to_vector.conj().T @ rows[:len(pivots)].reshape(-1, d, d)
            @ to_vector.conj()).reshape(len(pivots), -1)
    rows_conj = rows.conj()
    q_t = np.ascontiguousarray(q.transpose(0, 2, 1))
    sq = 0.0
    for i in range(d):
        block = np.matmul(p[i].conj(), q_t).reshape(d, -1)  # rows (i, j) of G
        block -= rows[:, i * d:(i + 1) * d].T @ rows_conj
        sq += float(np.vdot(block, block).real)
    resid = float(np.sqrt(sq))
    if resid > tol.eps_assert:
        raise StateNotPositive(f"joining state has negative part: Schur complement "
                               f"{resid:.2e} at rank {len(pivots)}")
    return rows, resid, min(pivots, default=float("inf"))


def relative_joining(bc: BasicConstruction,
                     tol: ToleranceConfig = DEFAULT_TOL) -> JoiningData:
    gns, sub = bc.gns, bc.sub
    parent = gns.system
    alg = parent.algebra
    d = alg.dim
    # conditioned left/right actions
    left_d = np.tensordot(sub.expectation.matrix.T, gns.left_mats,
                          axes=(1, 0))  # left(D(a_i))
    right_d = np.stack([gns.j_op(m) for m in left_d])              # j(left(D(a_i)))
    # joint state, route one: diagonal state after D (x) D'
    r_omega = right_d @ gns.omega
    omega_vals = np.einsum("a,iab,jb->ij", gns.omega.conj(), left_d, r_omega,
                           optimize=True)
    # route two: lifted trace Tr(Delta x) of x = e a e j(b); j sends the
    # commutant slot back to a left-acting element, so the conditioning
    # happens through e alone
    e = bc.e
    alt = np.einsum("ab,ibc,cd,jda->ij", bc.trace.density @ e, gns.left_mats, e,
                    gns.left_mats, optimize=True)
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
    if invariance > tol.eps_assert:
        raise NumericalBreakdown(f"the joining is not invariant under alpha (x) "
                                 f"alpha' (residual {invariance:.2e})")
    # Gram of the joining state over the d^2 simple tensors, as a sum of
    # Kronecker products with terms p[i, k] = e (b_k* b_i) Omega and
    # q[i, k] = e (b_k b_i*) Omega, read from the GNS action: b_i Omega is
    # column i of to_vector, L(b_k*) = L(b_k)^H, and b_i* Omega = J b_i Omega
    vecs = gns.to_vector
    p_vecs = np.ascontiguousarray(
        (e @ gns.left_mats.conj().transpose(0, 2, 1) @ vecs).transpose(2, 0, 1))
    q_vecs = np.ascontiguousarray(
        (e @ gns.left_mats @ gns.apply_j(vecs)).transpose(2, 0, 1))
    l_rows, factor_resid, smallest_pivot = factor_gram(p_vecs, q_vecs, vecs, tol)
    # L = V S with V orthonormal: gamma = S V^H, and L L^H = gamma^H gamma
    _, s, vh = np.linalg.svd(l_rows, full_matrices=False)
    gamma = s[:, None] * vh.conj()  # (r, d^2)
    # kron(m, m) acts on a column of V, read as a d x d matrix X, as m X m^T
    moved = (m_alpha @ vh.reshape(-1, d, d) @ m_alpha.T).reshape(len(s), -1)
    w = s[:, None] * (vh.conj() @ moved.T) / s[None, :]
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
    if span_resid > tol.eps_assert:
        raise NumericalBreakdown(f"F (x) 1 and 1 (x) j(F) span different subspaces "
                                 f"(residual {span_resid:.2e})")
    return JoiningData(bc, omega_vals, two_formula, marg, invariance,
                       np.ascontiguousarray(gamma), np.ascontiguousarray(w),
                       omega_vec, span_resid, factor_resid, smallest_pivot)


def _bar_columns(bc: BasicConstruction) -> np.ndarray:
    """gamma_bar(a_i e a_j) as column i * d + j."""
    gns = bc.gns
    d = gns.system.algebra.dim
    cols = np.empty((len(bc.u_bar), d * d), dtype=np.complex128)
    for i in range(d):
        blocks = gns.left_mats[i] @ bc.e @ gns.left_mats
        cols[:, i * d:(i + 1) * d] = bc.bar_to_vector @ bc.algebra.coords_stack(blocks).T
    return cols


def joining_equivalence(jd: JoiningData, tol: ToleranceConfig = DEFAULT_TOL
                        ) -> tuple[np.ndarray, float, float]:
    """The unitary from the joining GNS space onto the basic-construction one.

    Determined by gamma(a (x) j(b)) -> gamma_bar(a e b); validated to satisfy
    that defining relation R gamma = gamma_bar on all d^2 simple tensors, to be
    unitary and to intertwine the two dynamics unitaries.  Returns the map
    with its isometry residual (the larger of the defining and the unitarity
    residual) and its intertwining residual.
    """
    bc = jd.basic
    dim_bar = len(bc.u_bar)
    if jd.rank != dim_bar:
        raise IsometryViolation(
            f"joining GNS rank {jd.rank} differs from basic-construction "
            f"dimension {dim_bar}")
    cols = _bar_columns(bc)
    # gamma = sqrt(lam) v^H has orthogonal rows of squared norms lam, so its
    # pseudo-inverse is gamma^H / lam
    lam = np.einsum("ij,ij->i", jd.gamma.conj(), jd.gamma).real
    r = cols @ (jd.gamma.conj().T / lam)
    d = bc.gns.system.algebra.dim  # d columns at a time: no second (r, d^2) array
    defining = max(float(np.abs(r @ jd.gamma[:, k:k + d] - cols[:, k:k + d]).max())
                   for k in range(0, d * d, d))
    if defining > tol.eps_assert:
        raise IsometryViolation(f"equivalence map does not send gamma(a (x) j(b)) "
                                f"to gamma_bar(a e b) ({defining:.2e})")
    eye = np.eye(jd.rank)
    resid = max(defining, float(np.abs(r.conj().T @ r - eye).max()),
                float(np.abs(r @ r.conj().T - eye).max()))
    if resid > tol.eps_assert:
        raise IsometryViolation(f"equivalence map is not unitary ({resid:.2e})")
    inter = float(np.abs(r @ jd.w_matrix @ r.conj().T - bc.u_bar).max())
    if inter > tol.eps_assert:
        raise IsometryViolation(
            f"equivalence map does not intertwine the dynamics ({inter:.2e})")
    return r, resid, inter


@dataclass(frozen=True)
class ErgodicityCheck:
    holds: bool
    residual: float
    fixed_dim: int
    lambda_dim: int


def relative_ergodicity_check(jd: JoiningData,
                              tol: ToleranceConfig = DEFAULT_TOL) -> ErgodicityCheck:
    """Whether every fixed vector of the lifted dynamics lies in the F-subspace.

    The fixed vectors are gamma_bar of the basic construction's fixed points,
    whose QR factor is orthonormal with no rank decision as gamma_bar is
    invertible; the F-subspace is the span of gamma_bar(e f) over F's basis.
    """
    bc = jd.basic
    fixed, _ = np.linalg.qr(bc.bar_to_vector @ bc.fixed)
    f_left = np.tensordot(bc.sub.coords_in_parent, bc.gns.left_mats, axes=(1, 0))
    cols = bc.bar_to_vector @ bc.algebra.coords_stack(bc.e @ f_left).T
    lam = linalg.orthonormal_columns(cols, tol.eps_rank)
    resid = linalg.subspace_inclusion_residual(fixed, lam)
    return ErgodicityCheck(resid < tol.eps_assert, resid,
                           fixed.shape[1], lam.shape[1])
