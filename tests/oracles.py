"""Generic algebra routines the package no longer runs, kept as test oracles
and property-check helpers: the commutant grown from all of M_n, the closure
test by products with generators, the full algebra validator, seeded random
elements, GNS vectors of ambient matrices and of elements of <A, e>, the
inverse square root that scaled the old default partition, and the dense
form of <A, e>: its n^2-wide span with an SVD basis, and the fixed points of
its dynamics as n x n matrices.  Also the routes the return unitaries of F's
block orbits replaced: the fixed points as one null space of the dim <A, e>
square matrix alpha_bar - 1, with the generic center search on them, and the
pivoted Cholesky factor of the joining's scaled Gram, and the one einsum per
right-hand side that formed the joining's tensor Grams.  And the generic
center search itself, which once found F's central blocks too before
``algebra.matrix_units`` read them off one generic pair: the kernel of the
commutators with two generic elements, and the clusters of a generic central
element.  And the dense product trace table Tr(rho b_i b_j) that once
checked a trace's traciality, before the multiplication table did.  And
the whole-matrix routes that the central blocks of F split: the rank of the
d k x r span by one SVD, the factor of the joining's scaled Gram by one
eigh, and the equivalence R = C (gamma^H)^+ D^-1/2 as one dense product.
And the dense forms of the Jones projection e that its frame E_0 replaced:
the Jones relation on d x n x n stacks and route two of the joint state in
chunks of n x n transposes; with the corner stacks of A that the basic
construction forms from E_0, for the tests that call its steps.  And the
dense forms of the build's linear checks that one generic element of the
algebra certifies: the closure residual over every product and adjoint of
basis elements, the invariance of the algebra under the dynamics on the whole
rebuilt stack of images, F in A and alpha(F) in F on the rebuilt stacks of
F's basis and its images, and the relative commutant by each basis element;
each raises the class and message of the check it stands for.  And the
Cesaro averages over all d eigenvalues of the dynamics, before the
eigenvalues were merged into their clusters."""
import numpy as np

from vnspec import linalg, spectrum
from vnspec.algebra import (BlockAlgebra, CESARO_BLOCK, DEFAULT_TOL, TABLE_CHUNK,
                            MatrixStarAlgebra, ToleranceConfig)
from vnspec.errors import (ConstraintViolated, NotAutomorphism, NumericalBreakdown,
                           SubsystemInvalid)

CENTER_SEED = 17  # the two generic generators whose commutant is the center
CENTRAL_SEED = 7  # the generic central element whose clusters give the blocks


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


def einsum_tensor_gram(bc, right) -> np.ndarray:
    """G[(i, s), (l, t)] = <x_i (x) j(b_s), y_l (x) j(c_t)> between the
    generating tensors and right = (y, c), as one einsum over
    p[l] = e L(y_l)^H L(x_i) Omega and q[t] = e L(c_t) L(b_s)^H Omega, as the
    joining once formed each of its four Grams."""
    gns, (y, c) = bc.gns, right
    lm, om = gns.left_mats, gns.omega
    x_vecs = (bc.x_coords @ (lm @ om)).T
    b_vecs = (bc.b_coords.conj() @ (lm.conj().transpose(0, 2, 1) @ om)).T
    ly, lc = (np.tensordot(z, lm, axes=(1, 0)) for z in (y, c))
    p = bc.e @ ly.conj().transpose(0, 2, 1) @ x_vecs  # (l, h, i)
    q = bc.e @ lc @ b_vecs  # (t, h, s)
    return np.einsum("lhi,ths->islt", p.conj(), q, optimize=True).reshape(
        x_vecs.shape[1] * b_vecs.shape[1], len(y) * len(c))


def product_trace_table(alg: MatrixStarAlgebra, density: np.ndarray) -> np.ndarray:
    """T[i, j] = Tr(density b_i b_j); traciality means T is symmetric."""
    left = (density @ alg.basis).transpose(0, 2, 1).reshape(alg.dim, -1)
    return left @ alg.basis_rows().T


def full_matrix_algebra(n: int) -> BlockAlgebra:
    """M_n as one block, so that coordinates are the matrix entries."""
    return BlockAlgebra((np.eye(n, dtype=np.complex128)[None],))


def center_coords(ambient: BlockAlgebra, basis: np.ndarray,
                  tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Center of the *-subalgebra of ``ambient`` spanned by ``basis``, rows of
    coordinates orthonormal in the plain inner product; returns its own
    orthonormal rows of coordinates.

    It is the kernel of c -> ([c, g_1], [c, g_2]) for two seeded generic g,
    which generate the algebra as two generic elements of a finite-dimensional
    C*-algebra do; each kernel element is checked to commute with every basis
    element, which certifies that.  The commutators lie in the algebra, so
    the null space reads their coordinates over the basis.
    """
    rng = np.random.default_rng(CENTER_SEED)
    gens = linalg.random_complex(rng, (2, len(basis))) @ basis
    comms = ambient.product(basis[:, None], gens) - ambient.product(gens, basis[:, None])
    kernel = linalg.nullspace((comms @ basis.conj().T).reshape(len(basis), -1).T,
                              tol.eps_rank)
    if not kernel.shape[1]:  # the identity is central, so the cutoff dropped it
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} drops the identity from the center")
    central = kernel.T @ basis
    resid = max(float(np.abs(ambient.product(z, basis) - ambient.product(basis, z)).max())
                for z in central)
    if resid > tol.eps_assert:
        raise NumericalBreakdown(f"two generic elements do not generate the algebra: "
                                 f"their commutant is not central (residual {resid:.2e})")
    return central


def central_projection_coords(ambient: BlockAlgebra, basis: np.ndarray,
                              tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Minimal central projections of the *-subalgebra of ``ambient`` spanned
    by the orthonormal coordinate rows ``basis``, as coordinates.

    A generic self-adjoint central element z is drawn from a fixed seed; its
    blocks z_k are diagonalised one by one, and the clusters of their pooled
    eigenvalues give the projections, one per cluster, with the eigenvectors
    of that cluster in each block; each projection is checked to lie in the
    subalgebra.
    """
    central = center_coords(ambient, basis, tol)
    rng = np.random.default_rng(CENTRAL_SEED)
    for _ in range(20):
        z = linalg.random_complex(rng, len(central)) @ central
        pairs = [np.linalg.eigh(b + b.conj().swapaxes(-1, -2)) for b in ambient.blocks(z)]
        vals = np.concatenate([w for w, _ in pairs])
        order = np.argsort(vals, kind="stable")
        spread = max(1.0, float(vals[order[-1]] - vals[order[0]]))
        splits = np.nonzero(np.diff(vals[order]) > tol.eps_rank * spread)[0]
        groups = np.split(order, splits + 1)
        if len(groups) != len(central):
            continue
        label = np.empty(len(vals), dtype=int)  # the cluster of each eigenvalue
        for i, g in enumerate(groups):
            label[g] = i
        labels = np.split(label, np.cumsum([len(w) for w, _ in pairs])[:-1])
        projs = [ambient.join([v[:, lab == i] @ v[:, lab == i].conj().T
                               for (_, v), lab in zip(pairs, labels)])
                 for i in range(len(groups))]
        resid = max(float(np.linalg.norm(p - (p @ basis.conj().T) @ basis))
                    / max(1.0, float(np.linalg.norm(p))) for p in projs)
        if resid < tol.eps_assert:
            return projs
    raise NumericalBreakdown(
        f"could not separate central blocks at rank cutoff {tol.eps_rank:g}")


def center(alg: MatrixStarAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Center of the algebra, from the commutators' coordinates over its basis."""
    n = alg.ambient_dim
    rows = center_coords(full_matrix_algebra(n), alg.basis_rows(), tol)
    return MatrixStarAlgebra(n, np.ascontiguousarray(rows.reshape(-1, n, n)))


def block_decomposition(alg: MatrixStarAlgebra,
                        tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Minimal central projections, pairwise orthogonal and summing to 1, the
    largest first, as the package once found F's blocks."""
    n = alg.ambient_dim
    projs = [p.reshape(n, n) for p in
             central_projection_coords(full_matrix_algebra(n), alg.basis_rows(), tol)]
    projs.sort(key=lambda p: (-round(float(np.trace(p).real), 6), linalg.sort_key(p)))
    return projs


def full_span_rank(bc, eps_rank: float = DEFAULT_TOL.eps_rank) -> int:
    """Rank of the whole d k x r matrix of the span products x_i e b_s, by
    one SVD, as the package once decided it."""
    return linalg.rank(bc.span_coords, eps_rank)


def full_factor(gram: np.ndarray, eps_rank: float = DEFAULT_TOL.eps_rank
                ) -> tuple[np.ndarray, float]:
    """Rows L^T of G = L L^H + S from one eigendecomposition of the whole
    Hermitian G, with ||S||_F, as the joining once factored its scaled
    Gram."""
    vals, vecs = np.linalg.eigh(gram)
    kept = vals > eps_rank
    rows = np.sqrt(vals[kept])[:, None] * vecs[:, kept].T
    return rows, float(np.linalg.norm(gram - rows.T @ rows.conj()))


def full_equivalence(jd) -> tuple[np.ndarray, float, float, float]:
    """R = C (gamma^H)^+ D^-1/2 for the columns C = gamma_bar(x_i e b_s) as
    one dense product, with its defining, unitarity and intertwining
    residuals on the whole matrices, as the package once formed them."""
    bc = jd.basic
    cols = bc.bar_to_vector @ bc.span_coords.T
    lam = np.einsum("ij,ij->i", jd.gamma.conj(), jd.gamma).real
    r = cols @ (jd.gamma / lam[:, None] / jd.norms).conj().T
    eye = np.eye(jd.rank)
    return (r, float(np.abs(r @ jd.gamma - cols / jd.norms).max()),
            max(float(np.abs(r.conj().T @ r - eye).max()),
                float(np.abs(r @ r.conj().T - eye).max())),
            float(np.abs(r @ jd.w_matrix @ r.conj().T - bc.u_bar).max()))


def corner_stacks(bc):
    """A's corner stacks L(a_j) E_0, E_0^H L(a_j) and E_0^H L(a_j) E_0 from
    ``bc.e_frame``, and the block corners V_k^H L(a_j) E_0 and E_0^H L(a_j) V_k
    of every block k side by side, as ``build_basic_construction`` forms
    them."""
    lm, e0 = bc.gns.left_mats, bc.e_frame
    left_e, e_left = lm @ e0, e0.conj().T @ lm
    frames = np.hstack([f[0] for f in bc.algebra.frames])
    return left_e, e_left, e_left @ e0, (frames.conj().T @ left_e, e_left @ frames)


def dense_jones_residual(gns, sub, e: np.ndarray) -> float:
    """max |e L(a) e - L(E(a)) e| over A's basis, on d x n x n stacks, as the
    basic construction once checked the Jones relation."""
    cond = np.tensordot(sub.expectation.matrix, gns.left_mats, axes=(0, 0))
    return float(np.abs(e @ gns.left_mats @ e - cond @ e).max())


def chunked_trace_route(bc, e: np.ndarray) -> np.ndarray:
    """Route two of the joint state, Tr(P_i L(a_j)) for
    P_i = Delta e L(a_i) e, from the transposes of the P_i, a chunk of i at a
    time (``TABLE_CHUNK`` entries), as the joining once formed it."""
    lm, n = bc.gns.left_mats, bc.gns.dim
    step, right_t = max(1, TABLE_CHUNK // (n * n)), (bc.trace.density @ e).T
    alt = np.empty((len(lm), len(lm)), dtype=np.complex128)
    for start in range(0, len(lm), step):
        p_t = e.T @ lm[start:start + step].transpose(0, 2, 1) @ right_t  # P_i^T
        np.matmul(p_t.reshape(len(p_t), -1), lm.reshape(len(lm), -1).T,
                  out=alt[start:start + step])
    return alt


def dense_closure_residual(alg: MatrixStarAlgebra) -> float:
    """The largest entry of b_i b_j - sum_c T[i, j, c] b_c or of
    b_i* - sum_c S[c, i] b_c for the table T and adjoint matrix S of the
    basis, over every pair, a block of rows i at a time, as
    ``multiplication_table`` once returned it beside T and S."""
    d, n = alg.dim, alg.ambient_dim
    rows, resid = alg.basis_rows(), 0.0
    step = max(1, TABLE_CHUNK // max(1, d * n * n))
    for i in range(0, d, step):
        prods = (alg.basis[i:i + step, None] @ alg.basis[None]).reshape(-1, n * n)
        resid = max(resid, float(np.abs(alg.coords_stack(prods) @ rows - prods).max()))
    adj = alg.basis.conj().transpose(0, 2, 1).reshape(d, -1)
    return max(resid, float(np.abs(alg.coords_stack(adj) @ rows - adj).max()))


def dense_closure_check(alg: MatrixStarAlgebra, tol: ToleranceConfig = DEFAULT_TOL
                        ) -> float:
    """``system``'s closure check on the dense residual; returns it."""
    resid = dense_closure_residual(alg)
    if resid > tol.eps_assert:
        raise NumericalBreakdown(f"the basis does not span a *-algebra: a product or "
                                 f"adjoint leaves its span (residual {resid:.2e})")
    return resid


def stack_invariance_residual(alg: MatrixStarAlgebra, u: np.ndarray,
                              matrix: np.ndarray) -> float:
    """The largest entry of sum_i m[i, j] b_i - u b_j u* over every j, on the
    whole stack of images rebuilt from the coordinate matrix m."""
    images = u @ alg.basis @ u.conj().T
    return float(np.abs(alg.from_coords_stack(matrix.T) - images).max())


def dense_automorphism_check(alg: MatrixStarAlgebra, u: np.ndarray, trace,
                             tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``automorphism_from_unitary``'s invariance and trace checks on the
    whole rebuilt stack of images, as it once ran them; returns the
    coordinate matrix."""
    images = u @ alg.basis @ u.conj().T
    m = alg.coords_stack(images).T
    resid = stack_invariance_residual(alg, u, m)
    if resid > tol.eps_assert:
        raise NotAutomorphism(f"conjugation by the unitary does not map the algebra "
                              f"onto itself (residual {resid:.2e})")
    if np.abs(trace.values(images) - trace.values(alg.basis)).max() > tol.eps_assert:
        raise NotAutomorphism("conjugation by the unitary does not preserve the trace")
    return m


def dense_subsystem_check(parent, sub_algebra: MatrixStarAlgebra,
                          tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``subsystem``'s F in A and alpha(F) in F on the rebuilt stacks of F's
    basis and of its images, as it once ran them; returns F's coordinates."""
    alg = parent.algebra
    coords = alg.coords_stack(sub_algebra.basis)
    if np.abs(alg.from_coords_stack(coords) - sub_algebra.basis).max() > tol.eps_assert:
        raise SubsystemInvalid("subalgebra is not contained in the parent algebra")
    images = alg.from_coords_stack((parent.dynamics.matrix @ coords.T).T)
    recon = sub_algebra.from_coords_stack(sub_algebra.coords_stack(images))
    if np.abs(recon - images).max() > tol.eps_assert:
        raise SubsystemInvalid("dynamics does not preserve the subalgebra")
    return coords


def dense_relative_commutant_check(alg: MatrixStarAlgebra, x: np.ndarray, name: str,
                                   tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """The relative-commutant check of a finite extension on each basis
    element in turn, as it once ran; returns the residual."""
    resid = max(float(np.abs(x @ b - b @ x).max()) for b in alg.basis)
    if resid > tol.eps_assert:
        raise ConstraintViolated(f"{name} is not in the relative commutant "
                                 f"(residual {resid:.2e})")
    return resid


def d_wide_cesaro_rows(system, sub, coords: np.ndarray, n_max: int) -> list[np.ndarray]:
    """The running averages of ``spectrum._cesaro_rows`` without the early
    exit, run over all d eigenvalues lam of the dynamics: term n is
    |K lam^n|^2 for the dim F x d matrix K, in blocks of CESARO_BLOCK steps
    of the d x CESARO_BLOCK powers of lam, with K moved on by lam^w from
    block to block, so a step costs O(d dim F) per element."""
    if not len(coords):
        return []
    lam, vecs = system.modes
    k = (sub.whitened_expectation @ spectrum._adjoint_left_map(system, coords) @ vecs) \
        * (coords @ vecs.conj())[:, None]  # (k, dim F, d)
    width = min(CESARO_BLOCK, n_max)
    powers = np.cumprod(np.repeat(lam[:, None], width, axis=1), axis=1)
    sums, start, totals = np.empty((len(coords), n_max)), 1, 0.0
    while start <= n_max:
        stop = min(start + width, n_max + 1)
        z = k.reshape(-1, len(lam)) @ powers[:, :stop - start]
        running = (z.real ** 2 + z.imag ** 2).reshape(k.shape[:2] + (-1,)).sum(axis=1)
        running[:, 0] += totals
        np.cumsum(running, axis=1, out=running)
        totals = running[:, -1]
        sums[:, start - 1:stop - 1] = running / np.arange(start, stop)
        start = stop
        k = k * powers[:, -1]
    return list(sums)
