"""Jones basic construction in the block coordinates of j(F)', with its
canonical lifted trace.

<A, e> is the commutant j(F)' of the right action of F on H, which is
sum_k M_{m_k} (x) 1_{n_k} over the central blocks (p_k, n_k, m_k) of F in A
(Jones 1983; Goodman, de la Harpe and Jones 1989, ch. 2).  F's blocks, a
minimal projection q_k of each and its matrix units u_{k,i} come once from
one generic pair h, f of F (``algebra.matrix_units``), which every step
below reads.  An orthonormal basis V_k of j(q_k) H and the frames
V_{k,i} = j(u_{k,i})* V_k make an element x its r = sum_k m_k^2 block
entries x_k = V_k^H x V_k (``algebra.BlockAlgebra``); no n^2-wide array is
formed.

The algebra is spanned by the d k products x e b, for the d elements x of A
making the L(x) e Hilbert-Schmidt orthonormal and k seeded generic b in A
with F b_1 + ... + F b_k = A (a Pimsner-Popa-type generating set),
k = ceil(dim A / dim F) unless more are needed.  The x come block by
block, n_k m_k of them in A p_k (``_x_coords``).  Writing
e = E_0 E_0^H, block l of x e b is (V_l^H L(x) E_0)(E_0^H L(b) V_l), which
is 0 for x in A p_k, k != l: the d k x r matrix of these blocks is block
diagonal, its largest entry off the diagonal blocks is a residual, and
each diagonal block must have rank m_k^2 under the cutoff of the whole
matrix, so the rank is r, the Bratteli count sum_k m_k^2 (which reads A
and F, never e or the b).  The products lie in j(F)' as L(A)
commutes with j(F), and e does too, which one commutator [e, j(g)] per
generator g of F certifies: h, and f when some n_k > 1, which generate F as
an algebra as each q is a polynomial in h and (q_i f q_k)(q_k f q_j) spans
q_i F q_j; a seeded generic pair of span elements must be rebuilt from its
blocks, multiply blockwise and satisfy the trace property.
The Jones relation e a e = E(a) e on the basis of A, with the subsystem's E,
and the identity's membership make the span a unital algebra: e commutes
with F, so a e (f b) = (a f) e b, the span is all of span(A e A), and
(a e b)(c e d) = a E(b c) e d.

The lifted trace lifted(a e b) = mu(a b) is sum_k mu(p_k) / n_k tr(x_k), in
closed form, checked on every pair of basis elements of A.  Conjugation by U
carries block k to block pi(k), where alpha(p_k) = p_pi(k), by
x_k -> U_k x_k U_k^H with U_k = V_pi(k)^H j(w_k)* U V_k, for the partial
isometry w_k from alpha(q_k) to q_pi(k) in F (p_pi(k) when n_k = 1); each
w_k and U_k is certified, with U V_k = j(w_k) V_pi(k) U_k.  L2(<A, e>) of the
lifted trace is diagonal in these coordinates.  The fixed points of the
lifted dynamics, C = {U}' in <A, e>, and the minimal central projections of
C come from the m x m return unitary R of each orbit of pi (the finite form
of the Mackey range of a group extension: Zimmer 1976; Furstenberg 1977):
the null space of Ad(R) - 1 and the eigenprojections of R, carried around
the orbit, which must agree with each other and with the dense dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import linalg
from .algebra import (DEFAULT_TOL, PRODUCT_SEED, SPAN_SEED, BlockAlgebra, MatrixUnits,
                      StarAutomorphism, Subsystem, ToleranceConfig, TraceFunctional,
                      bratteli_blocks, eigenmodes, matrix_units, partial_isometry)
from .errors import (CommutantMismatch, ExtensionInconsistent, NumericalBreakdown,
                     PartitionInvalid, SubsystemInvalid)
from .gns import GnsSpace, cyclic_subspace_frame


@dataclass(frozen=True)
class BasicConstruction:
    gns: GnsSpace
    sub: Subsystem
    e_frame: np.ndarray             # (n, dim F) orthonormal frame E_0 of F Omega
    algebra: BlockAlgebra           # span(A e A), equal to j(F)', in block coordinates
    e_coords: np.ndarray            # block coordinates of e
    trace_vector: np.ndarray        # lifted trace: lifted(x) = trace_vector @ coords(x)
    trace: TraceFunctional          # same functional as a central density (not normalized)
    dynamics: StarAutomorphism      # conjugation by U in block coordinates
    bar_to_vector: np.ndarray       # block coords -> L2(algebra, lifted trace), diagonal
    u_bar: np.ndarray               # unitary implementing the dynamics there
    fixed: np.ndarray               # (dim, f) orthonormal coords of the fixed points C
    central: np.ndarray             # (c, dim) coords of C's minimal central projections
    commutant_residual: float
    extension_residual: float
    tracial_residual: float         # trace property, block product of a generic pair
    blocks: tuple                   # central blocks (p_k, n_k, m_k) of F in A
    x_coords: np.ndarray            # (d, d) coords of x_i: L(x_i) e HS orthonormal
    b_coords: np.ndarray            # (k, d) coords of b_s: F b_1 + ... + F b_k = A
    g_coords: np.ndarray            # coords of the inclusion generators of F
    span_coords: np.ndarray         # (d k, dim) block coords of x_i e b_s, row i k + s
    perm: np.ndarray                # block permutation pi: alpha(p_k) = p_pi(k)

    def __post_init__(self):
        for a in (self.e_frame, self.e_coords, self.trace_vector, self.bar_to_vector,
                  self.u_bar, self.fixed, self.central, self.x_coords, self.b_coords,
                  self.g_coords, self.span_coords, self.perm):
            a.setflags(write=False)

    @property
    def block_slices(self) -> list[tuple[slice, slice]]:
        """For each central block k of F, the rows x_{k,i} e b_s of
        ``span_coords`` (the x_i come block by block, n_k m_k in A p_k) and
        the m_k^2 block coordinates of block k; the products of block k lie
        in block k alone."""
        return _block_slices(self.blocks, len(self.b_coords))

    @property
    def e(self) -> np.ndarray:
        """The Jones projection E_0 E_0^H, formed on access; no stage reads it."""
        return self.e_frame @ self.e_frame.conj().T

    @property
    def dim_complement(self) -> int:
        """Dimension of (1 - e) H, the complement of the F-cyclic subspace."""
        return self.gns.dim - self.e_frame.shape[1]

    @property
    def complement_coords(self) -> np.ndarray:
        """Block coordinates of 1 - e."""
        return self.algebra.identity_coords() - self.e_coords

    def lifted_value(self, coords: np.ndarray) -> complex:
        """Lifted trace of the element of <A, e> with block coordinates ``coords``."""
        return complex(self.trace_vector @ coords)


def _block_slices(blocks, nb: int) -> list[tuple[slice, slice]]:
    """``BasicConstruction.block_slices`` for the blocks (p_k, n_k, m_k) and
    nb generators b_s."""
    rows = [0, *accumulate(n * m * nb for _, n, m in blocks)]
    cols = [0, *accumulate(m * m for _, _, m in blocks)]
    return [(slice(r0, r1), slice(c0, c1))
            for r0, r1, c0, c1 in zip(rows, rows[1:], cols, cols[1:])]


def _whitener(ops: np.ndarray) -> np.ndarray:
    """C with sum_j C[j, i] ops[j] Hilbert-Schmidt orthonormal: R^-1 for the
    Cholesky factor R^H R of the operators' Gram matrix."""
    rows = ops.reshape(len(ops), -1)
    gram = rows.conj() @ rows.T
    return np.linalg.inv(np.linalg.cholesky((gram + gram.conj().T) / 2).conj().T)


def _x_coords(sub: Subsystem, left_e: np.ndarray, e_left_e: np.ndarray, units: MatrixUnits,
              blocks, tol: ToleranceConfig) -> tuple[np.ndarray, float]:
    """Coordinates (d, d) of the x_i, which make the L(x_i) E_0
    Hilbert-Schmidt orthonormal (``_whitener`` of ``left_e``), regrouped into
    n_k m_k elements of each A p_k, block after block, with the residual of
    that split.

    For <x, y> = Tr(e L(x* y) e), right multiplication by p_k is an
    orthogonal projection, as E(p_k x* y p_l) = E(x* y) p_k p_l = 0 for
    k != l.  As L(p_k) e = e L(p_k) e, <x p_k, y p_k> is the Hilbert-Schmidt
    product of L(x) E_0 Y_k and L(y) E_0 Y_k, for Y_k an orthonormal basis
    of the range of the projection Z_k = E_0^H L(p_k) E_0; on the
    orthonormal x_i these products make a Hermitian idempotent P_k of trace
    n_k m_k.  An x_i with |x_i p_k|^2 within eps_rank of 1 lies in A p_k and
    is kept as it is: a rotation would add roundoff times its coordinates,
    which grow as the trace weights shrink.  The other x_i are rotated by
    the eigenvectors at 1 of each P_k compressed to them.  The residual is
    the largest |lam (lam - 1)| over the eigenvalues of the Z_k and of the
    compressed P_k, the largest 1 - |x_i p_k|^2 over the kept x_i of each
    block k, and the unitarity of the rotation; Z_k must have n_k^2
    eigenvalues at 1 and A p_k n_k m_k elements, the counts of
    ``bratteli_blocks``.  One central block leaves the x_i as they are.
    """
    xs = _whitener(left_e).T
    if len(blocks) == 1:
        return xs, 0.0
    # coordinates of the p_k in A, through F's
    proj = sub.algebra.coords_stack(np.stack(units.projections)) @ sub.coords_in_parent
    z_vals, z_vecs = np.linalg.eigh(np.tensordot(proj, e_left_e, axes=(1, 0)))  # Z_k
    ranges = [v[:, lam > 0.5] for lam, v in zip(z_vals, z_vecs)]
    edges = [0, *accumulate(y.shape[1] for y in ranges)]
    # L(x_i) E_0 Y_k of every block k, side by side, and |x_i p_k|^2
    parts = np.tensordot(xs, left_e, axes=(1, 0)) @ np.hstack(ranges)
    sums = np.cumsum((parts.real ** 2 + parts.imag ** 2).sum(axis=1), axis=1)
    weight = np.hstack([np.zeros((len(xs), 1)), sums])[:, edges]
    weight = weight[:, 1:] - weight[:, :-1]  # (d, blocks)
    home, kept = weight.argmax(axis=1), 1 - weight.max(axis=1) <= tol.eps_rank
    resid = max(float(np.abs(z_vals * (z_vals - 1)).max()),
                float((1 - weight.max(axis=1))[kept].max(initial=0.0)))
    members = [xs[kept & (home == k)] for k in range(len(blocks))]
    rest = np.nonzero(~kept)[0]
    if len(rest):
        ops = [parts[rest, :, a:b].reshape(len(rest), -1)
               for a, b in zip(edges, edges[1:])]
        vals, vecs = np.linalg.eigh(np.stack([v.conj() @ v.T for v in ops]))
        coeffs = [v[:, lam > 0.5] for lam, v in zip(vals, vecs)]
        both = np.hstack(coeffs)
        resid = max(resid, float(np.abs(vals * (vals - 1)).max()),
                    float(np.abs(both.conj().T @ both - np.eye(len(rest))).max()))
        members = [np.vstack([x, c.T @ xs[rest]]) for x, c in zip(members, coeffs)]
    counts = [(y.shape[1], len(x)) for y, x in zip(ranges, members)]
    expected = [(n_k * n_k, n_k * m_k) for _, n_k, m_k in blocks]
    if counts != expected or resid > tol.eps_assert:
        raise NumericalBreakdown(
            f"right multiplication by the central blocks of F splits (F, A) into "
            f"dimensions {counts}, not (n_k^2, n_k m_k) = {expected} (idempotency "
            f"residual {resid:.2e})")
    return np.vstack(members), resid


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


def _block_algebra(gns: GnsSpace, units: MatrixUnits, blocks,
                   tol: ToleranceConfig) -> BlockAlgebra:
    """j(F)' in the frames of its blocks: V_k an orthonormal basis of
    j(q_k) H, and V_{k,i} = j(u_{k,i})* V_k for F's matrix units u_{k,i}
    (``algebra.matrix_units``), which map j(q_k) H onto j(q_{k,i}) H as j
    reverses products.  j(q_k) H has dimension m_k, the Bratteli count of
    block k; a frame of another width is a rank cutoff that keeps roundoff
    or drops part of j(q_k), a numerical breakdown that names the cutoff."""
    alg = gns.system.algebra
    first = alg.coords_stack(np.stack([us[0] for us in units.units]))
    right = gns.j_op(np.tensordot(first, gns.left_mats, axes=(1, 0)))  # j(q_k)
    bases = [linalg.orthonormal_columns(jq, tol.eps_rank) for jq in right]
    widths, sizes = [v.shape[1] for v in bases], [m for _, _, m in blocks]
    if widths != sizes:
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} gives the frames of j(q_k) H the widths "
            f"{widths}, not m_k = {sizes}")
    frames = []
    for us, v in zip(units.units, bases):
        others = [gns.j_op(gns.left(u)).conj().T @ v for u in us[1:]]
        frames.append(np.ascontiguousarray(np.stack([v, *others])))
    return BlockAlgebra(tuple(frames))


def _span_coords(alg: BlockAlgebra, corners, x_coords: np.ndarray,
                 b_coords: np.ndarray) -> np.ndarray:
    """Block coordinates of the d k products x_i e b_s spanning <A, e>, row
    i k + s.

    The x_i make the L(x_i) e Hilbert-Schmidt orthonormal, and the b_s are
    generic combinations of elements making the e L(b) so, which generate A
    over F.  Both factors then have singular values near 1 however skewed
    the trace, so the rank cutoff sees no trace weight.  As e commutes with
    L(F), a e (f b) = (a f) e b, so span(A e B) = span(A e A).
    """
    d, k = len(x_coords), len(b_coords)
    left = np.tensordot(x_coords, corners[0], axes=(1, 0))  # (d, sum m_k, dim F)
    right = np.tensordot(b_coords, corners[1], axes=(1, 0))  # (k, dim F, sum m_k)
    edges = np.cumsum([0, *alg.sizes])
    # block l is one GEMM (d m_l, dim F) x (dim F, k m_l), blocks of one size
    # stacked, with rows (i, a) and columns (s, b) of (x_i e b_s)_l[a, b]
    prods = linalg.stacked(np.matmul, *zip(*(
        (left[:, a:b].reshape(d * (b - a), -1),
         right[:, :, a:b].transpose(1, 0, 2).reshape(-1, k * (b - a)))
        for a, b in zip(edges, edges[1:]))))
    return np.hstack([p.reshape(d, m, k, m).transpose(0, 2, 1, 3).reshape(d * k, m * m)
                      for p, m in zip(prods, alg.sizes)])


def _generic_pair(left_e: np.ndarray, e_left: np.ndarray,
                  b_coords: np.ndarray) -> list[np.ndarray]:
    """Two seeded generic elements sum_s L(c_s) e L(b_s) of span(A e A), with
    generic c_s in A, scaled to unit Hilbert-Schmidt norm, read off the stacks."""
    rng = np.random.default_rng(PRODUCT_SEED)
    right = np.tensordot(b_coords, e_left, axes=(1, 0))
    pair = []
    for _ in range(2):
        c = linalg.random_complex(rng, b_coords.shape)
        x = np.einsum("sab,sbc->ac", np.tensordot(c, left_e, axes=(1, 0)), right)
        pair.append(x / linalg.hs_norm(x))
    return pair


def _jones_relation(sub: Subsystem, e_frame: np.ndarray, left_e: np.ndarray,
                    e_left_e: np.ndarray, alg_bar, tol: ToleranceConfig) -> float:
    """Residual of  e a e = E(a) e  on the basis of A, and of the identity's
    membership in the algebra, the span of {x_i e b_s}.

    As e = E_0 E_0^H and E_0^H E_0 = 1, it holds exactly when E_0 (E_0^H L(a)
    E_0) = L(E(a)) E_0, read off the stacks ``e_left_e`` and ``left_e``.
    For a in F the relation gives e a = a e, so with F b_1 + ... + F b_k = A
    the span holds every a e (f b) = (a f) e b, that is span(A e A); by the
    relation (Jones 1983), (a e b)(c e d) = a E(b c) e d, so span(A e A) is
    closed under products.  The dimension count has certified that the basis
    leaves none of the x_i e b_s out.  E is the trace-preserving conditional
    expectation onto F, and L(E(a_i)) = sum_j E[j, i] L(a_j).
    """
    ident = alg_bar.membership_residual(np.eye(len(e_frame)))
    if ident > tol.eps_assert:
        raise ExtensionInconsistent(
            f"span(A e A) does not contain the identity (residual {ident:.2e})")
    cond = np.tensordot(sub.expectation.matrix, left_e, axes=(0, 0))  # L(E(a_i)) E_0
    jones = float(np.abs(e_frame @ e_left_e - cond).max())
    if jones > tol.eps_assert:
        raise ExtensionInconsistent(
            f"the Jones relation e a e = E(a) e fails on a basis element of A "
            f"(residual {jones:.2e})")
    return max(ident, jones)


def lifted_trace(gns: GnsSpace, corners, alg: BlockAlgebra,
                 blocks: list[tuple[np.ndarray, int, int]],
                 tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """The trace  a e b -> mu(a b)  on the algebra, in closed form.

    <A, e> = j(F)' has the trace vector of F: over the blocks
    (p_k, n_k, m_k) of F in A, the trace of x is sum_k mu(p_k) / n_k tr(x_k),
    where mu(p_k) / n_k is the trace of a minimal projection of F p_k.
    Returns it as the vector t with lifted(x) = t @ coords(x), after checking
    the defining identity on every pair of basis elements a_i, a_j, whose
    blocks are products of the ``corners``, against
    mu(a_i a_j) = sum_c T[i, j, c] mu(a_c) from the system's multiplication
    table T; the residual is returned.
    """
    system = gns.system
    mu = system.trace
    weights = [mu.value(p).real / n for p, n, _ in blocks]
    left, right = corners  # (d, sum m_k, dim F) and (d, dim F, sum m_k)
    scaled = (left * np.repeat(weights, alg.sizes)[:, None]).reshape(len(left), -1)
    lifted = scaled @ right.transpose(0, 2, 1).reshape(len(right), -1).T
    products = system.table @ mu.values(system.algebra.basis)  # mu(a_i a_j)
    defining = float(np.abs(lifted - products).max())
    if defining > tol.eps_assert:
        raise ExtensionInconsistent(
            f"lifted(a e b) = mu(a b) fails on a basis pair "
            f"(residual {defining:.2e})")
    vector = alg.join([w * np.eye(m) for w, m in zip(weights, alg.sizes)])
    return vector, defining


def _lifted_dynamics(gns: GnsSpace, alg: BlockAlgebra, blocks, units: MatrixUnits,
                     tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, list]:
    """Coordinate matrix of x -> U x U* on the block algebra, with the block
    permutation pi and the unitaries U_k that make it up.

    U j(a) U* = j(alpha(a)) as U commutes with J, so U maps j(q_k) H onto
    j(alpha(q_k)) H, and alpha(p_k) = p_pi(k) for a permutation pi of the
    blocks.  With w_k the partial isometry of F from alpha(q_k) to q_pi(k)
    (p_pi(k) when n_k = 1), j(w_k) V_pi(k) is an orthonormal basis of
    j(alpha(q_k)) H, so U V_k = j(w_k) V_pi(k) U_k for a unitary U_k, and
    the block pi(k) of U x U* is U_k x_k U_k^H.  Checks that pi is a
    permutation, U J = J U, each w_k's and U_k's relations and that relation.
    """
    u, amb = gns.u_matrix, gns.system.dynamics.unitary
    conj = gns.conj_matrix
    resid = float(np.abs(u @ conj - conj @ u.conj()).max())
    projs = np.stack([p for p, _, _ in blocks])
    moved = amb @ projs @ amb.conj().T  # alpha(p_k)
    perm = (moved.reshape(len(projs), -1).conj()
            @ projs.reshape(len(projs), -1).T).real.argmax(axis=1)
    resid = max(resid, float(np.abs(moved - projs[perm]).max()))
    if len(set(perm.tolist())) != len(perm):
        resid = float("inf")
    starts = np.cumsum([0, *(m * m for m in alg.sizes)])
    matrix = np.zeros((alg.dim, alg.dim), dtype=np.complex128)
    unitaries = []
    for k, l in enumerate(perm):
        if (alg.sizes[l], alg.mults[l]) != (alg.sizes[k], alg.mults[k]):
            raise NumericalBreakdown("the dynamics moves a central block of F onto "
                                     "one of another shape")
        image = alg.frames[l][0]
        if alg.mults[k] > 1:
            q_k, q_l, f = units.units[k][0], units.units[l][0], units.generators[1]
            w, partial = partial_isometry(q_l, f, amb @ q_k @ amb.conj().T)
            resid = max(resid, partial)
            image = gns.j_op(gns.left(w)) @ image
        moved_v = u @ alg.frames[k][0]
        uk = image.conj().T @ moved_v
        resid = max(resid, float(np.abs(uk.conj().T @ uk - np.eye(len(uk))).max()),
                    float(np.abs(moved_v - image @ uk).max()))
        matrix[starts[l]:starts[l + 1], starts[k]:starts[k + 1]] = np.kron(uk, uk.conj())
        unitaries.append(uk)
    if resid > tol.eps_assert:
        raise NumericalBreakdown(f"lifted system: conjugation by the unitary does not "
                                 f"map the blocks of <A, e> onto each other "
                                 f"(residual {resid:.2e})")
    return matrix, perm, unitaries


def _orbits(perm: np.ndarray) -> list[list[int]]:
    """The cycles k_0 -> pi(k_0) -> ... of a permutation, each from its
    smallest element."""
    seen, out = set(), []
    for start in range(len(perm)):
        orbit, k = [], start
        while k not in seen:
            seen.add(k)
            orbit.append(k)
            k = int(perm[k])
        if orbit:
            out.append(orbit)
    return out


def _fixed_points(alg: BlockAlgebra, perm: np.ndarray, unitaries: list,
                  tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal coordinates (dim, f) of C = {U}' in <A, e>, and the
    coordinates (c, dim) of its minimal central projections, from the return
    unitaries of the orbits of pi.

    On an orbit k_0 -> ... -> k_{L-1} of length L, the frames W_0 = 1,
    W_{i+1} = U_{k_i} W_i carry y to the element with blocks W_i y W_i^H,
    which is fixed exactly when y commutes with R = W_L.  Route one is the
    null space of kron(R, conj R) - 1 under the one rank rule, carried and
    scaled by 1 / sqrt(L), which keeps it orthonormal; it must hold the
    identity.  Route two is the eigenprojections of R (``eigenmodes``), its
    eigenvalues clustered by the same rule, carried unscaled.  Each orbit's
    kernel must have dimension sum mult(lambda)^2, and each projection must
    lie in the span of the fixed points.
    """
    starts = np.cumsum([0, *(m * m for m in alg.sizes)])
    fixed, central, counts = [], [], []
    for orbit in _orbits(perm):
        m = alg.sizes[orbit[0]]
        frames = [np.eye(m, dtype=np.complex128)]
        for k in orbit:
            frames.append(unitaries[k] @ frames[-1])
        ret, frames = frames[-1], np.stack(frames[:-1])
        kernel = linalg.nullspace(np.kron(ret, ret.conj()) - np.eye(m * m), tol.eps_rank)
        ident = np.eye(m).reshape(-1) / np.sqrt(m)
        if np.linalg.norm(ident - kernel @ (kernel.conj().T @ ident)) > tol.eps_assert:
            raise NumericalBreakdown(
                f"rank cutoff {tol.eps_rank:g} drops the identity from the fixed points")
        lam, vecs = eigenmodes(ret, tol)
        groups = linalg.circle_clusters(lam, tol.eps_rank)
        counts.append((sum(len(g) ** 2 for g in groups), kernel.shape[1]))
        # carry both families around the orbit: y -> W_i y W_i^H on block k_i
        ys = np.concatenate([kernel.T.reshape(-1, m, m) / np.sqrt(len(orbit)),
                             [vecs[:, g] @ vecs[:, g].conj().T for g in groups]])
        moved = frames[None] @ ys[:, None] @ frames.conj().transpose(0, 2, 1)[None]
        coords = np.zeros((len(ys), alg.dim), dtype=np.complex128)
        for i, k in enumerate(orbit):
            coords[:, starts[k]:starts[k + 1]] = moved[:, i].reshape(len(ys), -1)
        fixed.append(coords[:kernel.shape[1]])
        central.append(coords[kernel.shape[1]:])
    fixed, central = np.vstack(fixed).T, np.vstack(central)
    span = float(np.abs(central - (central @ fixed.conj()) @ fixed.T).max())
    if span > tol.eps_assert or any(a != b for a, b in counts):
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g}: the eigenprojections of the return "
            f"unitaries and the null space of alpha_bar - 1 disagree (dimensions "
            f"{[a for a, _ in counts]} and {[b for _, b in counts]}, span residual "
            f"{span:.2e})")
    return np.ascontiguousarray(fixed), central


def build_basic_construction(gns: GnsSpace, sub: Subsystem,
                             tol: ToleranceConfig = DEFAULT_TOL) -> BasicConstruction:
    if sub.parent is not gns.system:
        raise SubsystemInvalid("subsystem does not belong to this system")
    e0 = cyclic_subspace_frame(gns, sub, tol)
    # A's corner stacks L(a_j) E_0, E_0^H L(a_j), E_0^H L(a_j) E_0, formed once
    left_e, e_left = gns.left_mats @ e0, e0.conj().T @ gns.left_mats
    e_left_e = e_left @ e0
    bs = _generators(sub, _whitener(e_left), tol)
    units = matrix_units(sub.algebra, tol)
    blocks = bratteli_blocks(gns.system.algebra, sub.algebra, units, tol)
    xs, split = _x_coords(sub, left_e, e_left_e, units, blocks, tol)  # block after block
    alg = _block_algebra(gns, units, blocks, tol)
    # block k of a_i e a_j is (V_k^H L(a_i) E_0)(E_0^H L(a_j) V_k), all k side by side
    frames = np.hstack([f[0] for f in alg.frames])
    corners = (frames.conj().T @ left_e, e_left @ frames)
    span_coords = _span_coords(alg, corners, xs, bs)  # read by the equivalence
    # x_{k,i} e b_s lies in block k: the rank is counted per block, and what
    # lies off the diagonal blocks is a residual
    slices = _block_slices(blocks, len(bs))
    ranks = linalg.block_ranks([span_coords[s] for s in slices], tol.eps_rank)
    off_block = float(linalg.off_blocks(span_coords, slices).max())
    # inclusion in j(F)': the largest entry of [e, j(g)], relative to |j(g)|,
    # for the generators h (and f) of F that gave its matrix units, and a
    # generic pair of span elements rebuilt from its blocks
    gen_coords = gns.system.algebra.coords_stack(units.generators)
    right_g = gns.j_op(np.tensordot(gen_coords, gns.left_mats, axes=(1, 0)))
    pair = _generic_pair(left_e, e_left, bs)
    e = e0 @ e0.conj().T
    commutator = max(float(np.abs(e @ j - j @ e).max() / np.linalg.norm(j, 2))
                     for j in right_g)
    rebuilt = max(float(np.abs(x - alg.from_coords(alg.coords(x))).max()) for x in pair)
    resid = max(commutator, rebuilt, off_block, split)
    if ranks != [m * m for _, _, m in blocks] or resid > tol.eps_assert:
        raise CommutantMismatch(
            f"span(A e A) (dim {sum(ranks)}) and j(F)' (dim {alg.dim} by the "
            f"Bratteli count) disagree, ranks {ranks} by block, off-block residual "
            f"{off_block:.2e}, commutator residual {commutator:.2e}, block rebuild "
            f"residual {rebuilt:.2e}")
    jones = _jones_relation(sub, e0, left_e, e_left_e, alg, tol)
    trace_vector, defining = lifted_trace(gns, corners, alg, blocks, tol)
    del left_e, e_left, e_left_e, corners  # what follows reads only the blocks
    # the block product and the trace property on the generic pair
    x, y = pair
    cx, cy = alg.coords(x), alg.coords(y)
    tracial = max(float(np.abs(alg.coords(x @ y) - alg.product(cx, cy)).max()),
                  abs(trace_vector @ (alg.product(cx, cy) - alg.product(cy, cx))))
    # the lifted trace's Gram matrix is diagonal here, w_k = mu(p_k) / n_k at
    # each coordinate of block k; over a Hilbert-Schmidt orthonormal basis its
    # eigenvalues are w_k / n_k, which faithfulness bounds by eps_rank
    weights = alg.join([np.full(t.shape, t[0, 0]) for t in alg.blocks(trace_vector)])
    if (weights / alg.hs_weights).min() < tol.eps_rank:
        raise NumericalBreakdown("lifted system: trace is not faithful on the algebra")
    if tracial > tol.eps_assert:
        raise NumericalBreakdown("lifted system: functional is not tracial on the "
                                 f"algebra (residual {tracial:.2e})")
    dyn, perm, unitaries = _lifted_dynamics(gns, alg, blocks, units, tol)
    if np.abs(trace_vector @ dyn - trace_vector).max() > tol.eps_assert:
        raise NumericalBreakdown("lifted system: conjugation by the unitary does not "
                                 "preserve the trace")
    root = np.sqrt(weights)
    u_bar = root[:, None] * dyn / root
    fixed, central = _fixed_points(alg, perm, unitaries, tol)
    moved = float(np.abs(dyn @ fixed - fixed).max())
    if moved > tol.eps_assert:
        raise NumericalBreakdown(f"rank cutoff {tol.eps_rank:g}: the lifted dynamics "
                                 f"moves a fixed point (residual {moved:.2e})")
    density = TraceFunctional(alg.from_coords(trace_vector / alg.hs_weights),
                              normalized=False)
    return BasicConstruction(gns, sub, e0, alg, alg.coords(e), trace_vector, density,
                             StarAutomorphism(dyn, gns.u_matrix), np.diag(root),
                             np.ascontiguousarray(u_bar), fixed, central,
                             resid, max(jones, defining), tracial, tuple(blocks),
                             xs, bs, gen_coords, span_coords, perm)


def default_partition(bc: BasicConstruction,
                      tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Elements v_i of the commutant-side construction with sum v_i* e v_i = 1.

    They are v_i = j(y_i) = J y_i* J for y_i in <A, e> with
    sum_i y_i e y_i* = 1, as v_i* e v_i = J y_i e y_i* J.  Block k of e is a
    projection e_k of rank rho_k with orthonormal range columns G_k, and block
    k of y_i maps G_k onto the standard basis vectors i rho_k .. i rho_k +
    rho_k - 1 of C^{m_k} (those below m_k), so the y_i e y_i* add up to 1 in
    max_k ceil(m_k / rho_k) members.  As e H = L2(F) holds n_k copies of the
    irreducible right module of F p_k, rho_k must equal n_k.  On H, y_i is
    the sum of V_{k,r}[:, c] (V_{k,r} G_k)^H over the frames, c the slice.
    """
    alg, dim = bc.algebra, bc.gns.dim
    ranges = [linalg.orthonormal_columns(ek, tol.eps_rank)
              for ek in alg.blocks(bc.e_coords)]
    if not all(g.shape[1] for g in ranges):
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} drops e from a block of <A, e>")
    ranks = [g.shape[1] for g in ranges]
    if ranks != [n for _, n, _ in bc.blocks]:
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} gives e the ranks {ranks} in the blocks of "
            f"<A, e>, not n_k = {[n for _, n, _ in bc.blocks]}")
    count = max(-(-m // rho) for m, rho in zip(alg.sizes, ranks))
    members = []
    for i in range(count):
        image, source = [], []  # the frames' columns side by side
        for f, g, rho in zip(alg.frames, ranges, ranks):
            cols = f[:, :, i * rho:(i + 1) * rho]  # slice i of each frame
            image.append(cols.transpose(1, 0, 2).reshape(dim, -1))
            source.append((f @ g[:, :cols.shape[2]]).transpose(1, 0, 2).reshape(dim, -1))
        members.append(np.hstack(image) @ np.hstack(source).conj().T)
    return list(bc.gns.j_op(np.stack(members)))


def lifted_trace_via_partition(bc: BasicConstruction, partial_isometries,
                               tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Evaluate the lifted trace as sum_i <J v_i* Omega, t J v_i* Omega>.

    Validates sum v_i* e v_i = 1 and that the result agrees with the
    closed-form trace on the algebra; returns the largest disagreement.  For
    t in <A, e> and a vector w, <w, t w> = sum_k sum_i z^H t_k z with
    z = V_{k,i}^H w, so the functional's coordinates are read off the
    vectors' block components.
    """
    vs = [np.asarray(v, dtype=np.complex128) for v in partial_isometries]
    total = sum(w.conj().T @ w for w in (bc.e_frame.conj().T @ v for v in vs))
    if np.abs(total - np.eye(bc.gns.dim)).max() > tol.eps_assert:
        raise PartitionInvalid("sum v_i* e v_i differs from the identity")
    vecs = np.stack([bc.gns.apply_j(v.conj().T @ bc.gns.omega) for v in vs])
    parts = []
    for f in bc.algebra.frames:
        z = (f.conj().transpose(0, 2, 1) @ vecs.T).transpose(1, 0, 2).reshape(
            f.shape[2], -1)
        parts.append(z.conj() @ z.T)
    resid = float(np.abs(bc.algebra.join(parts) - bc.trace_vector).max())
    if resid > tol.eps_assert:
        raise ExtensionInconsistent(
            f"partition formula disagrees with the closed-form trace "
            f"(residual {resid:.2e})")
    return resid
