"""Relative weak mixing and relative discrete spectrum diagnostics.

Finds the minimal jointly invariant submodules of the orthogonal complement of
the subalgebra's cyclic subspace, by the block route from the minimal central
projections of the fixed points that the basic construction certified and,
for skew products, by the orbit route from the orbits' indices; evaluates and
certifies each family once, runs the
Cesaro averages characterizing relative weak mixing, for all admissible
elements at once from their coordinates, and cross-checks the
ergodicity route against the module route (any disagreement is an error, never
a silent pass).  The conditional expectation is the one the subsystem
carries, the Cesaro averages run on the clusters of equal eigenvalues of the
dynamics that the system carries, and the fiber analysis counts each
module's multiplicities over the central blocks of F that the basic
construction found, for every F.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (DEFAULT_TOL, Subsystem, ToleranceConfig, WStarSystem,
                      positive_integer)
from .basic import BasicConstruction
from .errors import (NotInAlgebra, NotMeanZero, NumericalBreakdown, SubsystemInvalid,
                     VerdictMismatch)
from .joining import ErgodicityCheck, JoiningData, relative_ergodicity_check

CESARO_EXIT_TOL = 1e-6


@dataclass(frozen=True)
class SubmoduleCandidate:
    """A jointly invariant subspace of the complement of the F-cyclic space, as
    the block coordinates P_k of its projection P (of P's projection onto
    <A, e> when P is no right module), of dimension Tr P = sum_k n_k tr P_k."""
    coords: np.ndarray
    dim: int
    lifted_trace: float
    is_right_module: bool
    is_u_invariant: bool

    def __post_init__(self):
        self.coords.setflags(write=False)


@dataclass(frozen=True)
class CesaroSample:
    label: str
    values: np.ndarray  # running averages c_1 .. c_N

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def minimum(self) -> float:
        return float(self.values.min()) if self.values.size else 0.0


@dataclass(frozen=True)
class SpectrumReport:
    """Modules may come from a constructor-level certificate (e.g. orbit
    modules of a skew product); ``block_modules`` always holds the generic
    joint-commutant block decomposition and both span the complement."""
    modules: tuple[SubmoduleCandidate, ...]
    block_modules: tuple[SubmoduleCandidate, ...]
    dim_module_span: int
    dim_complement: int
    rds: bool
    rwm: bool
    completeness_residual: float
    additivity_residual: float
    cesaro: tuple[CesaroSample, ...]
    ergodicity: ErgodicityCheck  # evidence behind the rwm verdict
    fibers: tuple[FiberReport, ...]  # one per entry of ``modules``


def _adjoint_left_map(system: WStarSystem, coords: np.ndarray) -> np.ndarray:
    """L with L[:, j] = coords(a* b_j) for the element a with coordinates c,
    or a stack (..., d, d) of them for a stack of rows: sum_m coords(a*)_m
    T[m, j] with coords(a*) = S conj(c), from the system's multiplication
    table T and adjoint matrix S, in one product with T."""
    d = len(system.star)
    a_star = coords.conj() @ system.star.T
    return (a_star @ system.table.reshape(d, -1)).reshape(
        *coords.shape[:-1], d, d).swapaxes(-1, -2)


def _cesaro_rows(system: WStarSystem, sub: Subsystem, coords: np.ndarray,
                 n_max: int, tol: ToleranceConfig,
                 early_exit: bool = True) -> list[np.ndarray]:
    """Running averages of lambda(|D(a* alpha^n(a))|^2) for the elements a
    with the coordinate rows ``coords`` (k, d), all at once; every a must
    have mean zero.

    In coordinates the n-th term is v^H G v with v = E L alpha^n(c), where c
    holds the coordinates of a, G is the Gram matrix, E = E_F, and L: x -> a* x
    is read from the system's multiplication table T and adjoint matrix S
    (``_adjoint_left_map``), in one product with T for all k elements.  The
    coordinates f of F's basis are orthonormal columns spanning E's image,
    and alpha = V diag(lam) V^H (``system.modes``), so the term is
    |K lam^n|^2 for the dim F x dim A matrix K = (R f^H E L V) diag(V^H c),
    with R^H R = f^H G f the Cholesky factor of F's Gram matrix.  Columns of
    K whose eigenvalues share one of the c clusters of ``system.clusters``
    meet the power mu_c^n of that cluster's representative, so they are
    summed once per element, by the product with that indicator, into a
    dim F x c matrix.  The powers mu^1 .. mu^w of a block of
    w = min(CESARO_BLOCK, n_max) steps are the first w columns of
    ``system.mode_powers`` and R f^H E is
    ``sub.whitened_expectation``, both held from the first call on; one
    product with the powers runs a block for every element still running,
    and K is moved on by mu^w from block to block, so a step costs
    O(c dim F) per element.  Each sequence stops at its own first even
    n >= 4 where the averages at n and n/2 agree to 1e-6, its output grown
    with the steps run; with the early exit disabled every sequence runs to
    n_max, and the output has that length from the start.

    Merging moves lam_j^n by at most n s, for s = ``system.cluster_spread``,
    the largest |lam_j - mu_c|, so term n moves by at most
    2 n s (sum_j |K_j|)^2 over the columns K_j of the unmerged K; above
    eps_assert at the last step a sequence ran, the cutoff that formed the
    clusters is refused.
    """
    if not len(coords):
        return []
    if np.abs(sub.expectation.matrix @ coords.T).max() > tol.eps_assert:
        raise NotMeanZero("element has a nonzero conditional expectation")
    vecs, spread = system.modes[1], system.cluster_spread
    powers = system.mode_powers[:, :n_max]  # mu^1 .. mu^width
    (c, width), count = powers.shape, len(coords)
    k = (sub.whitened_expectation @ _adjoint_left_map(system, coords) @ vecs) \
        * (coords @ vecs.conj())[:, None]  # (k, dim F, d)
    reach = 2.0 * spread * np.sqrt((np.abs(k) ** 2).sum(axis=1)).sum(axis=1) ** 2
    k = k @ system.clusters  # (k, dim F, c)
    out: list = [None] * count
    live = list(range(count))  # the elements still running, rows of k
    sums = np.empty((count, width if early_exit else n_max))
    start, totals = 1, 0.0
    while live:
        stop = min(start + width, n_max + 1)
        z = k.reshape(-1, c) @ powers[:, :stop - start]
        running = (z.real ** 2 + z.imag ** 2).reshape(len(live), -1,
                                                     stop - start).sum(axis=1)
        running[:, 0] += totals  # the terms, summed on from the last block's total
        np.cumsum(running, axis=1, out=running)
        totals = running[:, -1]
        if sums.shape[1] < stop - 1:
            grown = min(n_max, 2 * sums.shape[1]) - sums.shape[1]
            sums = np.concatenate((sums, np.empty((len(live), grown))), axis=1)
        np.divide(running, np.arange(start, stop), out=sums[:, start - 1:stop - 1])
        if early_exit:
            even = np.arange(max(4, start + start % 2), stop, 2)
            hit = np.abs(sums[:, even - 1] - sums[:, even // 2 - 1]) < CESARO_EXIT_TOL
            ended = hit.any(axis=1)
            for row in np.nonzero(ended)[0]:
                out[live[row]] = sums[row, :even[hit[row].argmax()]].copy()
            if ended.any():
                live = [i for i, e in zip(live, ended) if not e]
                k, sums, totals = k[~ended], sums[~ended], totals[~ended]
        if stop > n_max:
            for row, i in enumerate(live):
                out[i] = sums[row]
            break
        start = stop
        k = k * powers[:, -1]
    moved = max(r * len(row) for r, row in zip(reach.tolist(), out))  # at the last step
    if moved > tol.eps_assert:
        raise NumericalBreakdown(
            f"rank cutoff {tol.eps_rank:g} merges eigenvalues of the dynamics "
            f"{spread:.2e} apart, which may move a Cesaro term by {moved:.2e}")
    return out


def cesaro_sequence(system: WStarSystem, sub: Subsystem, element,
                    n_max: int | None = None, tol: ToleranceConfig = DEFAULT_TOL,
                    early_exit: bool = True) -> np.ndarray:
    """Running averages of lambda(|D(a* alpha^n(a))|^2) for a mean-zero a in A,
    the case of one element of the routine the spectrum report runs on all
    admissible elements at once (``_cesaro_rows``, which describes the
    method: each step runs on the c clusters of equal eigenvalues of the
    dynamics, at O(c dim F), and a merge too coarse to certify raises
    ``NumericalBreakdown``).  The arguments are checked before any held data
    is read: the horizon, the subsystem, and that ``element`` lies in the
    algebra, whose coordinates the routine reads.  Stops at the first even
    n >= 4 where the averages at n and n/2 agree to 1e-6, unless disabled.
    """
    n_max = tol.cesaro_n_max if n_max is None else n_max
    if not positive_integer(n_max):
        raise ValueError("n_max must be positive and integral")
    if sub.parent is not system:
        raise SubsystemInvalid("subsystem does not belong to this system")
    alg = system.algebra
    a = np.asarray(element, dtype=np.complex128)
    coords = alg.coords(a)  # membership_residual's projection, formed once
    if linalg.hs_norm(a - alg.from_coords(coords)) / max(1.0, linalg.hs_norm(a)) \
            > tol.eps_assert:
        raise NotInAlgebra("element does not lie in the algebra")
    return _cesaro_rows(system, sub, coords[None], n_max, tol, early_exit)[0]


def _candidate(bc: BasicConstruction, coords, is_mod, is_inv) -> SubmoduleCandidate:
    dim_v = int(round(float(bc.algebra.block_traces(coords).real @ bc.algebra.mults)))
    return SubmoduleCandidate(np.ascontiguousarray(coords), dim_v,
                              bc.lifted_value(coords).real, is_mod, is_inv)


def _ordered(bc: BasicConstruction, modules) -> list[SubmoduleCandidate]:
    """Decreasing lifted trace, then multiplicities tr P_k, then coordinates."""
    return sorted(modules, key=lambda c: (
        -round(c.lifted_trace, 8),
        tuple(-bc.algebra.block_traces(c.coords).real.round(8)), linalg.sort_key(c.coords)))


def module_candidate(bc: BasicConstruction, projection: np.ndarray,
                     tol: ToleranceConfig = DEFAULT_TOL) -> SubmoduleCandidate:
    """Package a projection P on H, as the orbit route gives them, with its
    lifted trace and invariance flags, whose evidence stays on H: P must equal
    the element of its block coordinates (formed once) and u P u*."""
    alg, u = bc.algebra, bc.gns.u_matrix
    coords = alg.coords(projection)
    is_mod = alg.membership_residual(projection, coords) < tol.eps_assert
    is_inv = float(np.abs(u @ projection @ u.conj().T - projection).max()) \
        < tol.eps_assert
    return _candidate(bc, coords, is_mod, is_inv)


def find_minimal_modules(bc: BasicConstruction, tol: ToleranceConfig = DEFAULT_TOL
                         ) -> list[SubmoduleCandidate]:
    """Minimal joint invariant blocks of the complement of the F-cyclic space.

    Both e and 1 - e lie in the joint commutant C of U and the right F-action,
    {U}' within j(F)' = <A, e>, as U e U* = e, so the center of the corner
    (1 - e) C (1 - e) is Z(C)(1 - e): the blocks are z (1 - e) for the
    minimal central projections z of C with z (1 - e) != 0, formed and kept
    in block coordinates.  The z are the eigenprojections of the return
    unitaries of F's block orbits that the basic construction certified
    (``bc.central``); U-invariance is read from the dynamics' coordinates.
    Isomorphic minimal modules are reported as their block sum rather than an
    arbitrary internal splitting.
    """
    blocks = bc.algebra.product(bc.central, bc.complement_coords)
    fixed = np.abs(blocks @ bc.dynamics.matrix.T - blocks).max(axis=1) < tol.eps_assert
    out = [_candidate(bc, c, True, bool(ok)) for c, ok in zip(blocks, fixed)]
    return _ordered(bc, [c for c in out if c.dim > 0])


def skew_orbit_modules(bc: BasicConstruction, orbits: tuple[tuple[int, ...], ...],
                       tol: ToleranceConfig = DEFAULT_TOL) -> list[SubmoduleCandidate]:
    """Orbit modules of a skew product: base space tensored with the span of
    each dual orbit, given as its A-basis indices.  These are invariant right
    modules of finite lifted trace spanning the complement of the base's
    cyclic subspace; their traces equal the orbit sizes.
    """
    frames = (linalg.orthonormal_columns(bc.gns.to_vector[:, list(idx)], tol.eps_rank)
              for idx in orbits)
    return _ordered(bc, [module_candidate(bc, q @ q.conj().T, tol) for q in frames])


def rwm_certificate(jd: JoiningData,
                    tol: ToleranceConfig = DEFAULT_TOL) -> ErgodicityCheck:
    """Relative weak mixing, certified by two independent routes.

    Route one: relative ergodicity of the joined system.  Route two: absence
    of nontrivial invariant modules of finite lifted trace, which at finite
    dimension is the statement that the complement of the F-cyclic space is
    zero.  A disagreement raises, never passes; otherwise the ergodicity
    evidence is returned.
    """
    erg = relative_ergodicity_check(jd, tol)
    bc = jd.basic
    module_route = bc.dim_complement == 0
    if erg.holds != module_route:
        raise VerdictMismatch(
            f"ergodicity route says {erg.holds} (residual {erg.residual:.2e}) but the "
            f"module route says {module_route} (complement dim {bc.dim_complement})")
    return erg


@dataclass(frozen=True)
class RdsCertificate:
    verdict: bool
    modules: tuple[SubmoduleCandidate, ...]
    span_residual: float
    trace_of_complement: float


def rds_verdict(bc: BasicConstruction, modules: list[SubmoduleCandidate],
                tol: ToleranceConfig = DEFAULT_TOL) -> RdsCertificate:
    """Relative discrete spectrum with an explicit spanning certificate.

    True iff the modules of finite lifted trace span the complement of the
    F-cyclic space and each is what it claims to be: a right F-module (its
    projection lies in <A, e>) invariant under U.  At finite dimension every
    projection has finite lifted trace, so the decomposition itself is the
    certificate; the modules' block coordinates must add up to 1 - e's.
    """
    comp = bc.complement_coords
    resid = float(np.abs(sum(c.coords for c in modules) - comp).max())
    claims = all(c.is_right_module and c.is_u_invariant for c in modules)
    return RdsCertificate(resid < tol.eps_assert and claims, tuple(modules), resid,
                          bc.lifted_value(comp).real)


@dataclass(frozen=True)
class FiberReport:
    atom_weights: tuple[float, ...]  # mu(p_k) / n_k: a minimal projection of F p_k
    fiber_dims: tuple[int, ...]      # the multiplicities c_k, rounded
    integrality_gap: float           # max_k |c_k - round(c_k)|
    weighted_sum: float
    plain_sum: float
    measured: float
    matching_formula: str  # "weighted", "plain", "both" or "neither"
    rank_bound: int

    @property
    def residual(self) -> float:
        """The larger gap of the fiber formula: weighted sum against the
        measured lifted trace, and the multiplicities against integers."""
        return max(abs(self.weighted_sum - self.measured), self.integrality_gap)


def fiber_analysis(bc: BasicConstruction, module: SubmoduleCandidate,
                   tol: ToleranceConfig = DEFAULT_TOL) -> FiberReport:
    """Multiplicities of a module over the central blocks (p_k, n_k, m_k) of F.

    A module P lies in <A, e> = j(F)', so P j(p_k) H is c_k copies of the
    irreducible right F p_k = M_{n_k} module, c_k = Tr(P j(p_k)) / n_k, which
    is the trace of P's block P_k, and a minimal projection of F p_k has trace
    mu(p_k) / n_k, the trace vector's entries on block k's diagonal.  The
    lifted trace of P is then sum_k mu(p_k) / n_k c_k, as <A, e> carries the
    trace vector of F (Goodman, de la Harpe and Jones 1989, ch. 2).  For a
    commutative F every n_k = 1 and this is the classical weighted fiber sum;
    the weight-free sum of the c_k is kept beside it as the classical
    comparison, flagged in ``matching_formula``, and the rank bound is the
    largest c_k.

    How independent this is: the weighted sum reads the same block traces
    as the lifted trace of P, rounded to integers, so it is not a third route
    to the trace; what it adds is the integrality of every c_k.
    """
    weights = [float(t[0, 0].real) for t in bc.algebra.blocks(bc.trace_vector)]
    mults = bc.algebra.block_traces(module.coords).real.tolist()
    dims = [int(round(c)) for c in mults]
    gap = max(abs(c - k) for c, k in zip(mults, dims))
    weighted = float(sum(w * dv for w, dv in zip(weights, dims)))
    plain = float(sum(dims))
    measured = module.lifted_trace
    w_match = abs(weighted - measured) < tol.eps_assert
    p_match = abs(plain - measured) < tol.eps_assert
    label = {(True, True): "both", (True, False): "weighted",
             (False, True): "plain", (False, False): "neither"}[(w_match, p_match)]
    return FiberReport(tuple(weights), tuple(dims), gap, weighted, plain, measured,
                       label, max(dims))


def _admissible_coords(system: WStarSystem, sub: Subsystem,
                       tol: ToleranceConfig, seed: int) -> np.ndarray:
    """The coordinate rows (k, d) of ``admissible_elements``."""
    if sub.parent is not system:
        raise SubsystemInvalid("subsystem does not belong to this system")
    k = system.algebra.dim - sub.algebra.dim
    rng = np.random.default_rng(seed)
    cols = (np.eye(system.algebra.dim) - sub.expectation.matrix) @ linalg.random_complex(
        rng, (system.algebra.dim, k))
    if linalg.rank(cols, tol.eps_rank) != k:
        raise NumericalBreakdown(f"{k} generic elements span less than ker E_F")
    rows = np.linalg.qr(cols)[0].T
    norms = np.sqrt(((rows.conj() @ system.gram) * rows).sum(axis=1).real)
    return rows / norms[:, None]


def admissible_elements(system: WStarSystem, sub: Subsystem,
                        tol: ToleranceConfig = DEFAULT_TOL,
                        seed: int = 0) -> list[tuple[str, np.ndarray]]:
    """A labeled basis of the kernel of the conditional expectation.

    One QR of (1 - E_F) G, for a seeded Gaussian d x k matrix G with
    k = dim A - dim F and a rank k checked at eps_rank, gives generic elements,
    so structured zeros do not mask the Cesaro behaviour; unlike an SVD of
    1 - E_F, whose nonzero singular values are degenerate, it moves only by
    roundoff when E_F does.  Each element is normalized in the GNS norm so
    that witness floors are comparable across trace scales.  These are the
    matrices of the coordinates that the spectrum report's Cesaro stage reads.
    """
    mats = system.algebra.from_coords_stack(_admissible_coords(system, sub, tol, seed))
    return [(f"k{i}", a) for i, a in enumerate(mats)]


def build_spectrum_report(jd: JoiningData, tol: ToleranceConfig = DEFAULT_TOL,
                          seed: int = 0,
                          module_certificate: list[SubmoduleCandidate] | None = None
                          ) -> SpectrumReport:
    bc = jd.basic
    system, sub = bc.gns.system, bc.sub
    blocks = find_minimal_modules(bc, tol)
    families = [blocks] if module_certificate is None \
        else [list(module_certificate), blocks]
    certs = [rds_verdict(bc, family, tol) for family in families]
    erg = rwm_certificate(jd, tol)
    additivity = max(abs(sum(c.lifted_trace for c in cert.modules)
                         - cert.trace_of_complement) for cert in certs)
    rows = _cesaro_rows(system, sub, _admissible_coords(system, sub, tol, seed),
                        tol.cesaro_n_max, tol)
    samples = [CesaroSample(f"k{i}", values) for i, values in enumerate(rows)]
    modules = families[0]
    dim_span = sum(c.dim for c in modules)
    return SpectrumReport(tuple(modules), tuple(blocks), dim_span,
                          bc.dim_complement, all(cert.verdict for cert in certs),
                          erg.holds, max(cert.span_residual for cert in certs),
                          float(additivity), tuple(samples), erg,
                          tuple(fiber_analysis(bc, m, tol) for m in modules))
