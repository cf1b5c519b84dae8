"""Jones basic construction with its canonical lifted trace.

Given a system on H with cyclic projection e onto the subalgebra's cyclic
subspace, builds <A, e> as the span of the d k products x e b, for the d
elements x of A making the L(x) e Hilbert-Schmidt orthonormal and k seeded
generic b in A with F b_1 + ... + F b_k = A (a Pimsner-Popa-type generating
set), k = ceil(dim A / dim F) unless more are needed; it never forms the d^2
products a_i e a_j.  It certifies that this span is the commutant j(F)' of
the right subalgebra action by inclusion (every basis element commutes with
j(g) for seeded generic g that generate F as an algebra, one when every
central block of F is M_1 and two otherwise) and dimension (the Bratteli
count sum_k m_k^2 over those blocks (p_k, n_k, m_k) of F in A, which never
reads e or the b), and that it is a unital algebra by the Jones relation
e a e = E(a) e  on the basis of A, with the subsystem's E, and by the
identity's membership.  The relation makes e commute with F, so a e (f b) = (a f) e b
and the span is all of span(A e A), which is closed under
(a e b)(c e d) = a E(b c) e d.  It gives the algebra the trace
lifted(a e b) = mu(a b)  in closed form from the same blocks, conjugates the
dynamics, maps the result into L2(<A, e>, lifted trace) by a Cholesky
factor of its Gram matrix, and finds the fixed points of the conjugated
dynamics, {U}' in <A, e>, by one null space that the module and ergodicity
routes share.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (DEFAULT_TOL, INCLUSION_SEED, SPAN_SEED, MatrixStarAlgebra,
                      StarAutomorphism, Subsystem, ToleranceConfig, TraceFunctional,
                      automorphism_from_unitary, bratteli_blocks, product_trace_table,
                      validate_trace)
from .errors import (CommutantMismatch, ExtensionInconsistent, NotAutomorphism,
                     NumericalBreakdown, PartitionInvalid, SubsystemInvalid,
                     TraceNotFaithful)
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
    fixed: np.ndarray               # (dim, f) orthonormal coords of the fixed points
    commutant_residual: float
    extension_residual: float
    tracial_residual: float         # max |T - T^T| of the lifted trace's table
    blocks: tuple                   # central blocks (p_k, n_k, m_k) of F in A
    x_coords: np.ndarray            # (d, d) coords of x_i: L(x_i) e HS orthonormal
    b_coords: np.ndarray            # (k, d) coords of b_s: F b_1 + ... + F b_k = A
    g_coords: np.ndarray            # coords of the inclusion generators of F
    span_coords: np.ndarray         # (d k, dim) coords of x_i e b_s, row i k + s

    def __post_init__(self):
        for a in (self.e, self.trace_vector, self.bar_to_vector, self.u_bar, self.fixed,
                  self.x_coords, self.b_coords, self.g_coords, self.span_coords):
            a.setflags(write=False)

    @property
    def dim_complement(self) -> int:
        """Dimension of (1 - e) H, the complement of the F-cyclic subspace."""
        return self.gns.dim - int(round(float(np.trace(self.e).real)))

    def lifted_value(self, mat: np.ndarray) -> complex:
        """Lifted trace of an element of the constructed algebra."""
        return complex(self.trace_vector @ self.algebra.coords(mat))


def _whitener(ops: np.ndarray) -> np.ndarray:
    """C with sum_j C[j, i] ops[j] Hilbert-Schmidt orthonormal: R^-1 for the
    Cholesky factor R^H R of the operators' Gram matrix."""
    rows = ops.reshape(len(ops), -1)
    gram = rows.conj() @ rows.T
    return np.linalg.inv(np.linalg.cholesky((gram + gram.conj().T) / 2).conj().T)


def _generators(sub: Subsystem, whiten: np.ndarray,
                tol: ToleranceConfig) -> np.ndarray:
    """HS coordinates of seeded generic b_1 .. b_k with F b_1 + ... + F b_k = A.

    Draws k = ceil(dim A / dim F) of them at once, the fewest that can
    generate, as complex normal vectors mapped by ``whiten``, and one more at
    a time while the products f_c b_s span less than A, decided by one rank
    count of their coordinates sum_ij F[c, i] B[s, j] T[i, j], read from A's
    multiplication table T.  k never depends on the Bratteli count that the
    span is checked against.
    """
    d = sub.parent.algebra.dim
    # f_table[c, j] = coords(f_c a_j) over the basis a_j of A
    f_table = np.tensordot(sub.coords_in_parent, sub.parent.table, axes=(1, 0))
    rng = np.random.default_rng(SPAN_SEED)
    draws = linalg.random_complex(rng, (-(-d // len(f_table)), d))
    while True:
        coords = draws @ whiten.T
        prods = np.tensordot(coords, f_table, axes=(1, 1))  # (k, m, d)
        rank = linalg.rank(prods.reshape(-1, d), tol.eps_rank)
        if rank == d:
            return coords
        if len(draws) >= d:
            raise NumericalBreakdown(
                f"{len(draws)} generic elements generate a space of dim {rank} "
                f"over F, not all of A (dim {d})")
        draws = np.vstack([draws, linalg.random_complex(rng, (1, d))])


def _span_candidates(gns: GnsSpace, e: np.ndarray, x_coords: np.ndarray,
                     b_coords: np.ndarray) -> np.ndarray:
    """The d k products (L(x_i) e)(e L(b_s)) spanning <A, e>, row i k + s.

    The x_i make the L(x_i) e Hilbert-Schmidt orthonormal, and the b_s are
    generic combinations of elements making the e L(b) so, which generate A
    over F.  Both factors then have singular values near 1 however skewed
    the trace, so the rank cutoff sees no trace weight.  As e commutes with
    L(F), a e (f b) = (a f) e b, so span(A e B) = span(A e A).
    """
    left_x = np.tensordot(x_coords, gns.left_mats, axes=(1, 0)) @ e
    right_b = e @ np.tensordot(b_coords, gns.left_mats, axes=(1, 0))
    return (left_x[:, None] @ right_b[None]).reshape(-1, gns.dim ** 2)


def _inclusion_generators(sub_alg: MatrixStarAlgebra, count: int,
                          tol: ToleranceConfig) -> np.ndarray:
    """``count`` seeded generic g in F that generate F as an algebra: the
    caller passes one when F is commutative, two otherwise.

    An operator commuting with every j(g) commutes with the algebra they
    generate, which is j of the algebra the g generate, as j is linear and
    reverses products; so commuting with j(F) needs only these.  Generation
    as an algebra, not as a *-algebra, is certified by the rank of the words
    in the g in F's own coordinates: the span of the words of length l is
    extended by its newest directions times each g, until it stops growing,
    and must then have dim F, so a count too small fails here.
    """
    m, n = sub_alg.dim, sub_alg.ambient_dim
    rng = np.random.default_rng(INCLUSION_SEED)
    gens = sub_alg.from_coords_stack(linalg.random_complex(rng, (count, m)))
    span = new = linalg.extend_orthonormal(np.zeros((0, m), dtype=np.complex128),
                                           sub_alg.coords(np.eye(n)), tol.eps_rank)
    while len(new) and len(span) < m:
        words = (sub_alg.from_coords_stack(new)[:, None] @ gens[None]).reshape(-1, n, n)
        grown = linalg.extend_orthonormal(span, sub_alg.coords_stack(words), tol.eps_rank)
        span, new = grown, grown[len(span):]
    if len(span) != m:
        raise NumericalBreakdown(
            f"{count} generic elements of F generate an algebra of dim "
            f"{len(span)}, not F (dim {m})")
    return gens


def _jones_relation(gns: GnsSpace, sub: Subsystem, e: np.ndarray,
                    alg_bar: MatrixStarAlgebra, tol: ToleranceConfig) -> float:
    """Residual of  e a e = E(a) e  on the basis of A, and of the identity's
    membership in the algebra, the span of {x_i e b_s}.

    For a in F the relation gives e a = a e, so with F b_1 + ... + F b_k = A
    the span holds every a e (f b) = (a f) e b, that is span(A e A); by the
    relation (Jones 1983), (a e b)(c e d) = a E(b c) e d, so span(A e A) is
    closed under products.  The dimension count has certified that the basis
    leaves none of the x_i e b_s out.  E is the trace-preserving conditional
    expectation onto F, and L(E(a_i)) = sum_j E[j, i] L(a_j).
    """
    ident = alg_bar.membership_residual(np.eye(gns.dim))
    if ident > tol.eps_assert:
        raise ExtensionInconsistent(
            f"span(A e A) does not contain the identity (residual {ident:.2e})")
    cond = np.tensordot(sub.expectation.matrix, gns.left_mats, axes=(0, 0))
    jones = float(np.abs(e @ gns.left_mats @ e - cond @ e).max())
    if jones > tol.eps_assert:
        raise ExtensionInconsistent(
            f"the Jones relation e a e = E(a) e fails on a basis element of A "
            f"(residual {jones:.2e})")
    return max(ident, jones)


def lifted_trace(gns: GnsSpace, e: np.ndarray, alg_bar: MatrixStarAlgebra,
                 blocks: list[tuple[np.ndarray, int, int]], tol: ToleranceConfig = DEFAULT_TOL
                 ) -> tuple[TraceFunctional, float]:
    """The trace  a e b -> mu(a b)  on the algebra, in closed form.

    <A, e> = j(F)' has the trace vector of F, so the trace is Tr(x Delta)
    with the central density Delta = j(sum_k mu(p_k) / n_k^2 p_k) over the
    blocks (p_k, n_k, m_k) of F in A.  The defining identity is checked on
    every pair of basis elements, and its residual is returned.
    """
    mu = gns.system.trace
    z = sum(mu.value(p).real / n ** 2 * p for p, n, _ in blocks)
    density = gns.j_op(gns.left(z))
    lifted = np.einsum("ab,ibc,cd,jda->ij", density, gns.left_mats, e,
                       gns.left_mats, optimize=True)
    defining = float(np.abs(
        lifted - product_trace_table(gns.system.algebra, mu.density)).max())
    if defining > tol.eps_assert:
        raise ExtensionInconsistent(
            f"lifted(a e b) = mu(a b) fails on a basis pair "
            f"(residual {defining:.2e})")
    return TraceFunctional(density, normalized=False), defining


def build_basic_construction(gns: GnsSpace, sub: Subsystem,
                             tol: ToleranceConfig = DEFAULT_TOL) -> BasicConstruction:
    if sub.parent is not gns.system:
        raise SubsystemInvalid("subsystem does not belong to this system")
    e = cyclic_subspace_projection(gns, sub, tol)
    n = gns.dim
    xs = _whitener(gns.left_mats @ e).T  # coordinates of the x_i
    bs = _generators(sub, _whitener(e @ gns.left_mats), tol)
    cand = _span_candidates(gns, e, xs, bs)
    rows = linalg.extend_orthonormal(np.zeros((0, n * n), dtype=np.complex128),
                                     cand, tol.eps_rank)
    spanned = MatrixStarAlgebra(n, np.ascontiguousarray(rows.reshape(-1, n, n)))
    span_coords = spanned.coords_stack(cand)  # read by the equivalence
    del cand  # the d k x n^2 candidates are not kept
    blocks = bratteli_blocks(gns.system.algebra, sub.algebra, tol)
    # inclusion in j(F)': the largest entry of [b, j(g)], relative to |j(g)|,
    # for one g when F is commutative (every block n_k = 1), two otherwise
    commutative = all(nk == 1 for _, nk, _ in blocks)
    gens = _inclusion_generators(sub.algebra, 1 if commutative else 2, tol)
    gen_coords = gns.system.algebra.coords_stack(gens)
    right_g = gns.j_op(np.tensordot(gen_coords, gns.left_mats, axes=(1, 0)))
    resid = max(float(np.abs(spanned.basis @ j - j @ spanned.basis).max()
                      / np.linalg.norm(j, 2)) for j in right_g)
    count = sum(m * m for _, _, m in blocks)
    if spanned.dim != count or resid > tol.eps_assert:
        raise CommutantMismatch(
            f"span(A e A) (dim {spanned.dim}) and j(F)' (dim {count} by the "
            f"Bratteli count) disagree, commutator residual {resid:.2e}")
    jones = _jones_relation(gns, sub, e, spanned, tol)
    trace_bar, defining = lifted_trace(gns, e, spanned, blocks, tol)
    # the lifted trace is faithful, and U normalises <A, e> whenever alpha is
    # an automorphism of A fixing F; a fault here is a failed cross-check
    try:
        gram_bar, tracial = validate_trace(spanned, trace_bar, tol)
        dyn_bar = automorphism_from_unitary(spanned, gns.u_matrix, trace_bar, tol)
    except (TraceNotFaithful, NotAutomorphism) as exc:
        raise NumericalBreakdown(f"lifted system: {exc}") from exc
    # validate_trace has checked that the Gram matrix is positive definite
    to_vec, _, u_bar = gns_map(gram_bar, dyn_bar.matrix)
    # {U}' in <A, e>: alpha_bar is unitary in the Hilbert-Schmidt coordinates
    fixed = linalg.nullspace(dyn_bar.matrix - np.eye(spanned.dim), tol.eps_rank)
    if not fixed.shape[1]:
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} drops the identity from the fixed points")
    return BasicConstruction(gns, sub, e, spanned, trace_bar.values(spanned.basis),
                             trace_bar, dyn_bar, np.ascontiguousarray(to_vec),
                             np.ascontiguousarray(u_bar), np.ascontiguousarray(fixed),
                             resid, max(jones, defining), tracial, tuple(blocks),
                             xs, bs, gen_coords, span_coords)


def default_partition(bc: BasicConstruction,
                      tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Elements v_i of the commutant-side construction with sum v_i* e v_i = 1.

    Takes an orthonormal basis (m_i) of J <A,e> J; the averaged element
    sum m_i* e m_i is central and positive there, so m_i scaled by its inverse
    square root gives a valid partition.
    """
    gns = bc.gns
    m_basis = gns.j_op(bc.algebra.basis)
    psi = np.einsum("iba,bc,icd->ad", m_basis.conj(), bc.e, m_basis,
                    optimize=True)
    psi = (psi + psi.conj().T) / 2
    scale = linalg.inv_sqrt_psd(psi, tol.eps_rank)
    return [m @ scale for m in m_basis]


def lifted_trace_via_partition(bc: BasicConstruction, partial_isometries,
                               tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Evaluate the lifted trace as sum_i <J v_i* Omega, t J v_i* Omega>.

    Validates sum v_i* e v_i = 1 and that the result agrees with the
    closed-form trace on the algebra basis; returns the largest disagreement.
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
            f"partition formula disagrees with the closed-form trace "
            f"(residual {resid:.2e})")
    return resid
