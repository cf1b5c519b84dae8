"""Relatively independent joining of a system with its commutant.

The joining is the state on the algebraic tensor product built from the two
conditional expectations composed with the diagonal state.  Its GNS space is
the relative tensor product L2(A) (x)_F L2(A) (Sauvageot 1983), which the d k
generating tensors x_i (x) j(b_s) span just as the x_i e b_s span <A, e>
(Pimsner and Popa 1986).  It splits over the central blocks p_k of F as
<A, e> does, since p_k (x) 1 = 1 (x) j(p_k) there (Jones 1983; Sauvageot
1983): with the x_i of A p_k coming block after block, the Jacobi-scaled
Gram matrix of the generating tensors is block diagonal, and the GNS space
is the range of the factor that an eigendecomposition of each diagonal
block gives, whose columns are orthogonal; what lies off the blocks joins
the factor's residual.  It is unitarily equivalent to L2 of the basic
construction by a block-diagonal R, checked block by block on the
x_i e b_s in the <A, e> coordinates that the basic construction keeps.
Neither the Gram matrix nor the equivalence ranges over the d^2 simple
tensors a_i (x) j(a_j).  The four Grams a joining reads, of the generating
tensors against themselves, against the tensors moved by the dynamics and
against F (x) 1 and 1 (x) j(F), are one GEMM per chunk of right-hand
sides each (``_tensor_grams``), and both routes of the joint state are
explicit products over A's basis, reading e = E_0 E_0^H through E_0.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import linalg
from .algebra import DEFAULT_TOL, TABLE_CHUNK, ToleranceConfig
from .basic import BasicConstruction
from .errors import IsometryViolation, NumericalBreakdown, StateNotPositive


@dataclass(frozen=True)
class JoiningData:
    """Relatively independent joining of a system with its commutant.

    omega_values is indexed over pairs of the parent basis, with the
    commutant slot running over j(left(a_i)).  The GNS space is read through
    the generating tensors t = x_i (x) j(b_s) of the basic construction,
    column i k + s: gamma holds the GNS vectors of the unit tensors t / |t|,
    from the eigenvalues of their scaled Gram above eps_rank, block by
    block: rows ranks[k] of block k span the tensors of A p_k (x) j(A).
    """
    basic: BasicConstruction        # owns the GNS space and the subsystem
    omega_values: np.ndarray        # (d, d) joint state on basis pairs
    two_formula_residual: float     # expectation route vs lifted-trace route
    marginal_residual: float
    invariance_residual: float
    gamma: np.ndarray               # (r, d k) GNS vectors of t / |t|, rows orthogonal
    norms: np.ndarray               # (d k,) |t| by the expectation route
    w_matrix: np.ndarray            # (r, r) unitary of the joint dynamics
    h_lambda_alt_residual: float    # F (x) 1 span versus 1 (x) j(F) span
    factor_residual: float          # ||G - L L^H||_F of the scaled Gram's factor
    smallest_kept_eigenvalue: float     # of the scaled Gram, in that factor
    largest_dropped_eigenvalue: float   # -inf when every eigenvalue is kept
    ranks: tuple[int, ...]          # rows of gamma per central block of F

    def __post_init__(self):
        for a in (self.omega_values, self.gamma, self.norms, self.w_matrix):
            a.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.gamma.shape[0]


def _read_back(gamma: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(gamma^H)^+ D^-1/2 for D = diag(norms^2): gamma = S V^H has orthogonal
    rows of squared norms lam, so (gamma^H)^+ = gamma / lam."""
    lam = np.einsum("ij,ij->i", gamma.conj(), gamma).real
    return gamma / lam[:, None] / norms


def _generating_side(bc: BasicConstruction) -> tuple[np.ndarray, np.ndarray]:
    """The vectors L(x_i) Omega and L(b_s)^H Omega of the generating tensors,
    as columns i and s, formed once for every ``_tensor_grams`` of a joining
    from the vectors L(a_j) Omega and L(a_j)^H Omega of A's basis."""
    lm, om = bc.gns.left_mats, bc.gns.omega
    # L(a_j)^H Omega = conj(Omega^H L(a_j)), with no conjugated copy of L
    return ((bc.x_coords @ (lm @ om)).T, (bc.b_coords @ (om.conj() @ lm)).conj().T)


def _tensor_grams(bc: BasicConstruction, side: tuple[np.ndarray, np.ndarray],
                  rights) -> list[np.ndarray]:
    """G[(i, s), (l, t)] = <x_i (x) j(b_s), y_l (x) j(c_t)>
    = mu(E(x_i* y_l) E(c_t b_s*)) between the generating tensors, whose
    vectors ``side`` = (X, B) = (L(x_i) Omega, L(b_s)^H Omega) come from
    ``_generating_side``, for each right-hand side (y, c) of ``rights``,
    stacks of coordinate rows in A.

    Read from the GNS action alone as <E(y_l* x_i) Omega, E(c_t b_s*) Omega>
    with E(y* x) Omega = e L(y)^H L(x) Omega and E(c b*) Omega =
    e L(c) L(b)^H Omega, the operators the span's products x_i e b_s use;
    coordinates x Omega through to_vector would carry its condition number.
    As e = E_0 E_0^H, the inner product is X^H L(y_l) E_0 (E_0^H L(c_t) B):
    per right-hand side, the small E_0 (E_0^H L(c) B) is formed first, then
    L(y) and X^H L(y), with its rows (l, i) contiguous, a chunk of rows y_l
    at a time (``TABLE_CHUNK`` entries of L(y), all of them for d <= 24),
    each multiplied by E_0 (E_0^H L(c) B) in one GEMM.
    """
    gns, (x_vecs, b_vecs), e0 = bc.gns, side, bc.e_frame
    xh, n_x, n_b, n = x_vecs.conj().T, x_vecs.shape[1], b_vecs.shape[1], gns.dim
    step = max(1, TABLE_CHUNK // (n * n))
    grams = []
    for y, c in rights:
        q = e0 @ (e0.conj().T @ (np.tensordot(c, gns.left_mats, axes=(1, 0)) @ b_vecs))
        q = q.transpose(1, 0, 2).reshape(n, -1)
        # [(l, i), (t, s)]
        g = np.empty((len(y) * n_x, len(c) * n_b), dtype=np.complex128)
        for start in range(0, len(y), step):
            # X^H L(y_l), row (l, i)
            rows = xh @ np.tensordot(y[start:start + step], gns.left_mats, axes=(1, 0))
            np.matmul(rows.reshape(-1, n), q,
                      out=g[start * n_x:(start + len(rows)) * n_x])
        grams.append(g.reshape(len(y), n_x, len(c), n_b).transpose(1, 3, 0, 2)
                     .reshape(n_x * n_b, len(y) * len(c)))
    return grams


def _factor_blocks(gram: np.ndarray, blocks, tol: ToleranceConfig
                   ) -> tuple[list[np.ndarray], float, float, float]:
    """``factor_gram`` of the diagonal blocks gram[s, s] for the slices s of
    ``blocks``, equal ones in one stacked ``eigh``, with the Frobenius norm
    of what lies off them joined to ||S||_F: the rows of each block, the
    residual, the smallest eigenvalue kept and the largest dropped over all
    blocks."""
    rows, dropped_sq = [], 0.0
    parts = linalg.stacked(np.linalg.eigh, [gram[s, s] for s in blocks])
    for (vals, vecs), s in zip(parts, blocks):  # eigenvalues ascending
        kept = vals > tol.eps_rank
        rows.append(np.sqrt(vals[kept])[:, None] * vecs[:, kept].T)
        left_out = gram[s, s] - rows[-1].T @ rows[-1].conj()
        dropped_sq += float(np.linalg.norm(left_out)) ** 2
    vals = np.concatenate([v for v, _ in parts])
    kept = vals > tol.eps_rank
    smallest, kept_min = float(vals.min()), float(vals[kept].min(initial=np.inf))
    dropped = float(vals[~kept].max(initial=-np.inf))
    off = float(np.linalg.norm(linalg.off_blocks(gram, [(s, s) for s in blocks]))) \
        if len(blocks) > 1 else 0.0
    resid = float(np.sqrt(dropped_sq + off * off))
    if smallest < -tol.eps_assert:
        raise StateNotPositive(f"joining state has a negative part: smallest "
                               f"eigenvalue {smallest:.2e}")
    if resid > tol.eps_assert:
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} loses rank in the joining: it drops a part "
            f"{resid:.2e} of the scaled Gram at rank {sum(len(r) for r in rows)}, "
            f"largest dropped eigenvalue {dropped:.2e}"
            + (f", {off:.2e} of it off the central blocks of F" if len(blocks) > 1
               else ""))
    return rows, resid, kept_min, dropped


def factor_gram(gram: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
                ) -> tuple[np.ndarray, float, float, float]:
    """Factor a Hermitian G = L L^H + S from one eigendecomposition.

    G = V diag(lam) V^H, and the eigenvalues above eps_rank, an absolute
    cutoff on a Gram of unit diagonal, give L = V_kept diag(sqrt(lam_kept)),
    whose columns are orthogonal; S is the dropped part.  A smallest
    eigenvalue below -eps_assert is a state that is not positive
    (StateNotPositive); otherwise an ||S||_F above eps_assert is a cutoff
    that drops part of a positive Gram, and the factor loses rank
    (NumericalBreakdown).  Returns L^T (row k is column k of L), ||S||_F, the
    smallest eigenvalue kept and the largest dropped (-inf when none is).
    The joining factors the diagonal blocks of its Gram this way, one per
    central block of F.
    """
    (rows,), resid, kept, dropped = _factor_blocks(gram, [slice(0, len(gram))], tol)
    return rows, resid, kept, dropped


def _trace_route(bc: BasicConstruction) -> np.ndarray:
    """Route two of the joint state on basis pairs: the lifted trace of
    e a_i e j(a_j), with j sending the commutant slot back to a left-acting
    element, so e = E_0 E_0^H alone conditions it: one product of dim F x
    dim F corners, Tr((E_0^H L(a_i) E_0)(E_0^H L(a_j) Delta E_0))."""
    lm, e0, e0h = bc.gns.left_mats, bc.e_frame, bc.e_frame.conj().T
    corner = (e0h @ (lm @ e0)).transpose(0, 2, 1).reshape(len(lm), -1)
    weighted = (e0h @ (lm @ (bc.trace.density @ e0))).reshape(len(lm), -1)
    return corner @ weighted.T


def relative_joining(bc: BasicConstruction) -> JoiningData:
    """The joining, every rank decision and identity check at the system's tol."""
    gns, sub = bc.gns, bc.sub
    parent, alg, tol = gns.system, gns.system.algebra, gns.system.tol
    lm, om, cond = gns.left_mats, gns.omega, sub.expectation.matrix.T
    # joint state, route one: diagonal state after D (x) D', from the rows
    # Omega^H L(D(a_i)) and the vectors j(L(D(a_i))) Omega
    # = K L(D(a_i))^T conj(K) Omega, as j(x) = K x^T conj(K), each read off
    # the same vectors of A's basis, as L(D(a_i)) = sum_j E[j, i] L(a_j)
    left_rows = cond @ (om.conj() @ lm)
    r_omega = (cond @ ((gns.conj_matrix.conj() @ om) @ lm)) @ gns.conj_matrix.T
    omega_vals = left_rows @ r_omega.T
    two_formula = float(np.abs(omega_vals - _trace_route(bc)).max())
    # marginals against mu and mu' = mu(j(.))
    mu_vals = parent.trace_values
    marg = max(float(np.abs(left_rows @ om - mu_vals).max()),
               float(np.abs(r_omega @ om.conj() - mu_vals).max()))
    # invariance under the joint dynamics
    m_alpha = parent.dynamics.matrix
    invariance = float(np.abs(m_alpha.T @ omega_vals @ m_alpha - omega_vals).max())
    if invariance > tol.eps_assert:
        raise NumericalBreakdown(f"the joining is not invariant under alpha (x) "
                                 f"alpha' (residual {invariance:.2e})")
    # the Grams of the generating tensors against themselves, against the
    # tensors moved by U (t' -> (alpha (x) alpha') t') and against the
    # F-subspace in both descriptions, F (x) 1 and 1 (x) j(F)
    gens = (bc.x_coords, bc.b_coords)
    f, one = sub.coords_in_parent, alg.coords(alg.identity())[None]
    gram, moved, f_one, one_f = _tensor_grams(
        bc, _generating_side(bc),
        [gens, tuple(z @ m_alpha.T for z in gens), (f, one), (one, f)])
    # the Gram factored after Jacobi scaling so that the kept eigenvalues do
    # not follow the trace weights; |t|^2 = mu(E(x* x) E(b b*)) is positive
    # as mu is faithful and E(b_s b_s*) invertible for generic b_s.  The
    # tensors of A p_k (x) j(A) are orthogonal to those of the other blocks,
    # as E(p_k x* y p_l) = 0, so the Gram is factored per central block,
    # and what lies off those blocks joins the factor's residual
    norms = np.sqrt(gram.diagonal().real)
    tensors = [g for g, _ in bc.block_slices]  # the generating tensors of block k
    l_rows, factor_resid, kept, dropped = _factor_blocks(
        gram / np.outer(norms, norms), tensors, tol)
    # L = V diag(sqrt(lam)) has orthogonal columns: gamma = L^H, and
    # L L^H = gamma^H gamma; block k of gamma holds the rows of block k
    ranks = tuple(len(r) for r in l_rows)
    starts = [0, *accumulate(ranks)]
    gamma = np.zeros((starts[-1], len(norms)), dtype=np.complex128)
    for r0, t, rows in zip(starts, tensors, l_rows):
        gamma[r0:r0 + len(rows), t] = rows.conj()
    read_all = _read_back(gamma, norms)
    read = [read_all[r0:r1, t] for r0, r1, t in zip(starts, starts[1:], tensors)]
    # <t, W t'> = <t, (alpha (x) alpha') t'>; W carries block k to block
    # pi(k), and is formed whole, one product per block of (gamma^H)^+
    w = linalg.block_sandwich(read, moved, read)
    h_lambda, alt_span = (linalg.orthonormal_columns(linalg.block_rows(read, g),
                                                     tol.eps_rank)
                          for g in (f_one, one_f))
    span_resid = max(linalg.subspace_inclusion_residual(alt_span, h_lambda),
                     linalg.subspace_inclusion_residual(h_lambda, alt_span))
    if span_resid > tol.eps_assert:
        raise NumericalBreakdown(f"F (x) 1 and 1 (x) j(F) span different subspaces "
                                 f"(residual {span_resid:.2e})")
    return JoiningData(bc, omega_vals, two_formula, marg, invariance, gamma, norms,
                       np.ascontiguousarray(w), span_resid, factor_resid, kept,
                       dropped, ranks)


def _balance(bc: BasicConstruction) -> float:
    """Largest omega(n* n) / |L(g)|^2 for n = a_i g (x) j(a_j) - a_i (x) j(g a_j)
    over the basis pairs and the inclusion generators g of F.

    omega(n* n) = T1 - 2 Re T2 + T3, each term a d x d matrix over the pairs
    of inner products <E(v* u) Omega, E(w z*) Omega> = <u (x) j(z), v (x) j(w)>:
    T1 = <a g (x) j(b), same>, T2 = <a g (x) j(b), a (x) j(g b)> and
    T3 = <a (x) j(g b), same>.  O(d^3) per g, with no factor of the rank.
    """
    lm, om, e0 = bc.gns.left_mats, bc.gns.omega, bc.e_frame
    lt, e0h = lm.transpose(0, 2, 1), e0.conj().T  # L^H v = conj(L^T conj(v))

    def each(mats, rows):  # row i is mats[i] @ rows[i]
        return np.einsum("iab,ib->ia", mats, rows)
    aa = each(lt, (lm @ om).conj())                 # rows conj(a_i* a_i Omega)
    bb = each(lm, (lt @ om.conj()).conj()).T        # columns b_j b_j* Omega

    def residual(g):
        lg = np.tensordot(g, lm, axes=(0, 0))
        aag = each(lt, (lm @ (lg @ om)).conj())     # rows conj(a_i* a_i g Omega)
        bbg = each(lm, (lt @ (lg.T @ om.conj())).conj()).T  # b_j b_j* g* Omega
        value = ((aag @ lg @ e0) @ (e0h @ bb) - 2 * ((aag @ e0) @ (e0h @ lg) @ bb).real
                 + (aa @ e0) @ (e0h @ lg @ bbg))  # each term reads e = E_0 E_0^H
        return float(np.abs(value).max()) / np.linalg.norm(lg, 2) ** 2
    return max(residual(g) for g in bc.g_coords)


def _unitarity(r: np.ndarray) -> np.ndarray:
    """The largest entry of R^H R - 1 or R R^H - 1 of each R of a stack."""
    rh, eye = r.conj().transpose(0, 2, 1), np.eye(r.shape[-1])
    return np.maximum(np.abs(rh @ r - eye).max(axis=(1, 2)),
                      np.abs(r @ rh - eye).max(axis=(1, 2)))


def joining_equivalence(jd: JoiningData) -> tuple[np.ndarray, float, float]:
    """The unitary from the joining GNS space onto the basic-construction one.

    Determined by gamma(a (x) j(b)) -> gamma_bar(a e b), and validated on the
    d k generating tensors t = x_i (x) j(b_s): R = C gamma^+ for the columns
    C = gamma_bar(x_i e b_s) / |t| must satisfy R gamma = C, be unitary and
    intertwine the two dynamics unitaries.  That gives the relation on all
    d^2 simple tensors.  By generation,
    b = sum_s f_s b_s with f_s in F.  The balance a (x) j(f b) = a f (x) j(b)
    holds in the GNS space, as omega(n* n) = 0 puts n in the null space of
    the positive state omega; it is checked for the inclusion generators g
    of F, so holds on the words in them, all of F.  Hence
    gamma(a (x) j(b)) = sum_s gamma(a f_s (x) j(b_s)), a combination of the
    generating tensors as the x_i are a basis of A.  On the bar side the
    certified Jones relation gives e f = f e, so a e b = sum_s (a f_s) e b_s
    with the same coefficients, and R sends the one to the other.  As gamma
    and C keep to the central blocks of F, R is block diagonal, formed and
    checked for unitarity one block at a time; the entries of C off the
    blocks count in the defining residual, and R W R^H - U_bar is formed
    whole.  Returns the map with its isometry residual (the largest of the
    defining, the unitarity and the balance residual) and its intertwining
    residual, each checked at the system's eps_assert.
    """
    bc, tol = jd.basic, jd.basic.gns.system.tol
    if jd.rank != len(bc.u_bar):
        raise IsometryViolation(
            f"joining GNS rank {jd.rank} differs from basic-construction "
            f"dimension {len(bc.u_bar)}")
    sizes = tuple(m * m for m in bc.algebra.sizes)
    if jd.ranks != sizes:
        raise IsometryViolation(f"joining GNS ranks {list(jd.ranks)} by central block "
                                f"differ from the block dimensions {list(sizes)}")
    balance = _balance(bc)
    if balance > tol.eps_assert:
        raise NumericalBreakdown(f"a g (x) j(b) and a (x) j(g b) differ for g in F "
                                 f"(omega(n* n) = {balance:.2e})")
    # gamma_bar(x_i e b_s), column i k + s
    cols = bc.bar_scale[:, None] * bc.span_coords.T
    slices = bc.block_slices
    # R is block diagonal, block k C_k (gamma_k^H)^+ D_k^-1/2 from the
    # diagonal blocks of C and gamma; R gamma - C D^-1/2 is formed whole, so
    # the entries of C off the blocks, which R gamma lacks, count in it
    read = _read_back(jd.gamma, jd.norms)
    blocks = linalg.stacked(lambda c, rd: c @ rd.conj().transpose(0, 2, 1),
                            [cols[c, g] for g, c in slices],
                            [read[c, g] for g, c in slices])
    defining = float(np.abs(linalg.block_rows(blocks, jd.gamma) - cols / jd.norms).max())
    if defining > tol.eps_assert:
        raise IsometryViolation(f"equivalence map does not send gamma(a (x) j(b)) "
                                f"to gamma_bar(a e b) ({defining:.2e})")
    resid = max(defining, balance, *map(float, linalg.stacked(_unitarity, blocks)))
    if resid > tol.eps_assert:
        raise IsometryViolation(f"equivalence map is not unitary ({resid:.2e})")
    inter = float(np.abs(linalg.block_sandwich(blocks, jd.w_matrix, blocks)
                         - bc.u_bar).max())
    if inter > tol.eps_assert:
        raise IsometryViolation(
            f"equivalence map does not intertwine the dynamics ({inter:.2e})")
    r = np.zeros((jd.rank, jd.rank), dtype=np.complex128)
    for (_, c), block in zip(slices, blocks):
        r[c, c] = block
    return r, resid, inter


@dataclass(frozen=True)
class ErgodicityCheck:
    holds: bool
    residual: float
    fixed_dim: int
    lambda_dim: int


def relative_ergodicity_check(jd: JoiningData) -> ErgodicityCheck:
    """Whether every fixed vector of the lifted dynamics lies in the F-subspace.

    The fixed vectors are gamma_bar of the basic construction's fixed points,
    whose QR factor is orthonormal with no rank decision as gamma_bar is
    invertible; the F-subspace is the span of gamma_bar(e f) over F's basis,
    its rank read at the system's eps_rank.
    """
    bc, tol = jd.basic, jd.basic.gns.system.tol
    fixed, _ = np.linalg.qr(bc.bar_scale[:, None] * bc.fixed)
    f_left = np.tensordot(bc.sub.coords_in_parent, bc.gns.left_mats, axes=(1, 0))
    e0 = bc.e_frame
    cols = bc.bar_scale[:, None] * bc.algebra.coords(e0 @ (e0.conj().T @ f_left)).T
    lam = linalg.orthonormal_columns(cols, tol.eps_rank)
    resid = linalg.subspace_inclusion_residual(fixed, lam)
    return ErgodicityCheck(resid < tol.eps_assert, resid,
                           fixed.shape[1], lam.shape[1])
