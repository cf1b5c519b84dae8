"""Relative weak mixing and relative discrete spectrum diagnostics.

Finds the minimal jointly invariant submodules of the orthogonal complement of
the subalgebra's cyclic subspace, evaluates their lifted traces, runs the
Cesaro averages characterizing relative weak mixing, and cross-checks the
ergodicity route against the module route (any disagreement is an error, never
a silent pass).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (DEFAULT_TOL, MatrixStarAlgebra, Subsystem, ToleranceConfig,
                      WStarSystem, block_decomposition, conditional_expectation)
from .basic import BasicConstruction
from .errors import NotCommutative, NotMeanZero, SubsystemInvalid, VerdictMismatch
from .gns import GnsSpace
from .joining import ErgodicityCheck, JoiningData, relative_ergodicity_check

CESARO_EXIT_TOL = 1e-6


@dataclass(frozen=True)
class SubmoduleCandidate:
    """A jointly invariant subspace of the complement of the F-cyclic space."""
    projection: np.ndarray
    dim: int
    lifted_trace: float
    is_right_module: bool
    is_u_invariant: bool

    def __post_init__(self):
        self.projection.setflags(write=False)


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


def cesaro_sequence(system: WStarSystem, sub: Subsystem, element,
                    n_max: int | None = None, tol: ToleranceConfig = DEFAULT_TOL,
                    early_exit: bool = True) -> np.ndarray:
    """Running averages of lambda(|D(a* alpha^n(a))|^2) for a mean-zero a.

    Stops early once consecutive doublings agree to 1e-6, unless disabled.
    """
    n_max = tol.cesaro_n_max if n_max is None else n_max
    alg = system.algebra
    a = np.asarray(element, dtype=np.complex128)
    exp = conditional_expectation(system, sub, tol)
    coords = alg.coords(a)
    if np.abs(exp.matrix @ coords).max() > tol.eps_assert:
        raise NotMeanZero("element has a nonzero conditional expectation")
    a_adj = a.conj().T
    cur = coords
    sums = np.empty(n_max, dtype=np.float64)
    total = 0.0
    for n in range(1, n_max + 1):
        cur = system.dynamics.matrix @ cur
        prod = a_adj @ alg.from_coords(cur)
        f = alg.from_coords(exp.matrix @ alg.coords(prod))
        total += float(system.trace.value(f.conj().T @ f).real)
        sums[n - 1] = total / n
        if early_exit and n % 2 == 0 and n >= 4:
            if abs(sums[n - 1] - sums[n // 2 - 1]) < CESARO_EXIT_TOL:
                return sums[:n].copy()
    return sums


def module_candidate(gns: GnsSpace, bc: BasicConstruction, projection: np.ndarray,
                     tol: ToleranceConfig = DEFAULT_TOL) -> SubmoduleCandidate:
    """Package a projection with its lifted trace and invariance flags."""
    dim_v = int(round(float(np.trace(projection).real)))
    value = float((bc.trace_vector @ bc.algebra.coords(projection)).real)
    is_mod = bc.algebra.membership_residual(projection) < tol.eps_assert
    u = gns.u_matrix
    is_inv = float(np.abs(u @ projection @ u.conj().T - projection).max()) \
        < tol.eps_assert
    return SubmoduleCandidate(np.ascontiguousarray(projection), dim_v, value,
                              is_mod, is_inv)


def joint_commutant(bc: BasicConstruction,
                    tol: ToleranceConfig = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Commutant of the dynamics unitary together with the right F-action.

    It is {U}' within j(F)' = <A, e>, that is the fixed points of the lifted
    dynamics: one null space in the coordinates of <A, e>.
    """
    fixed = linalg.nullspace(bc.dynamics.matrix - np.eye(bc.algebra.dim),
                             tol.eps_rank)
    return MatrixStarAlgebra(bc.gns.dim, np.ascontiguousarray(
        bc.algebra.from_coords_stack(fixed.T)))


def find_minimal_modules(gns: GnsSpace, sub: Subsystem, bc: BasicConstruction,
                         tol: ToleranceConfig = DEFAULT_TOL
                         ) -> list[SubmoduleCandidate]:
    """Minimal joint invariant blocks of the complement of the F-cyclic space.

    Decomposes the joint commutant of the dynamics unitary and the right
    subalgebra action, compressed to the complement.  Isomorphic minimal
    modules are reported as their block sum rather than an arbitrary
    internal splitting.
    """
    evals, evecs = np.linalg.eigh((bc.e + bc.e.conj().T) / 2)
    q = evecs[:, evals < 0.5]  # orthonormal basis of the complement
    m = q.shape[1]
    if m == 0:
        return []
    comm = joint_commutant(bc, tol)
    compressed = np.einsum("ah,kab,bg->khg", q.conj(), comm.basis, q,
                           optimize=True)
    rows = linalg.extend_orthonormal(
        np.eye(m, dtype=np.complex128).reshape(1, -1) / np.sqrt(m),
        compressed.reshape(len(compressed), -1), tol.eps_rank)
    corner = MatrixStarAlgebra(m, np.ascontiguousarray(rows.reshape(-1, m, m)))
    blocks = block_decomposition(corner, tol)
    out = [module_candidate(gns, bc, q @ small @ q.conj().T, tol)
           for small in blocks]
    out.sort(key=lambda c: (-round(c.lifted_trace, 8), linalg.sort_key(c.projection)))
    return out


def rwm_certificate(jd: JoiningData, bc: BasicConstruction,
                    tol: ToleranceConfig = DEFAULT_TOL) -> ErgodicityCheck:
    """Relative weak mixing, certified by two independent routes.

    Route one: relative ergodicity of the joined system.  Route two: absence
    of nontrivial invariant modules of finite lifted trace, which at finite
    dimension is the statement that the complement of the F-cyclic space is
    zero.  A disagreement raises, never passes; otherwise the ergodicity
    evidence is returned.
    """
    erg = relative_ergodicity_check(jd, bc, tol)
    rank_e = int(round(float(np.trace(bc.e).real)))
    dim_complement = bc.gns.dim - rank_e
    module_route = dim_complement == 0
    if erg.holds != module_route:
        raise VerdictMismatch(
            f"ergodicity route says {erg.holds} (residual {erg.residual:.2e}) but "
            f"the module route says {module_route} (complement dim {dim_complement})")
    return erg


def rwm_verdict_exact(jd: JoiningData, bc: BasicConstruction,
                      tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """The verdict of ``rwm_certificate``."""
    return rwm_certificate(jd, bc, tol).holds


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
    F-cyclic space; at finite dimension every projection has finite lifted
    trace, so the decomposition itself is the certificate.
    """
    one_minus_e = np.eye(bc.gns.dim) - bc.e
    total = sum((c.projection for c in modules),
                np.zeros_like(bc.e))
    resid = float(np.abs(total - one_minus_e).max())
    value = float((bc.trace_vector @ bc.algebra.coords(one_minus_e)).real)
    return RdsCertificate(resid < tol.eps_assert, tuple(modules), resid, value)


@dataclass(frozen=True)
class FiberReport:
    atom_weights: tuple[float, ...]
    fiber_dims: tuple[int, ...]
    weighted_sum: float
    plain_sum: float
    measured: float
    matching_formula: str  # "weighted", "plain", "both" or "neither"
    rank_bound: int


def classical_fiber_analysis(gns: GnsSpace, sub: Subsystem,
                             module: SubmoduleCandidate,
                             tol: ToleranceConfig = DEFAULT_TOL) -> FiberReport:
    """Fiber dimensions of a module over the atoms of a commutative subalgebra.

    Reports both the weight-free and the weighted fiber sums next to the
    measured lifted trace and flags which one matches; the rank bound is the
    largest fiber dimension.
    """
    f = sub.algebra
    for i in range(f.dim):
        comm = f.basis[i] @ f.basis - f.basis @ f.basis[i]
        if np.abs(comm).max() > tol.eps_assert:
            raise NotCommutative("subalgebra is not commutative")
    atoms = block_decomposition(f, tol)
    weights = [float(gns.system.trace.value(p).real) for p in atoms]
    dims = []
    for p in atoms:
        jp = gns.j_op(gns.left(p))
        dims.append(int(round(float(np.trace(jp @ module.projection).real))))
    weighted = float(sum(w * dv for w, dv in zip(weights, dims)))
    plain = float(sum(dims))
    measured = module.lifted_trace
    w_match = abs(weighted - measured) < tol.eps_assert
    p_match = abs(plain - measured) < tol.eps_assert
    label = {(True, True): "both", (True, False): "weighted",
             (False, True): "plain", (False, False): "neither"}[(w_match, p_match)]
    return FiberReport(tuple(weights), tuple(dims), weighted, plain, measured,
                       label, max(dims) if dims else 0)


def absolute_spectrum_check(gns: GnsSpace, sub: Subsystem,
                            tol: ToleranceConfig = DEFAULT_TOL
                            ) -> tuple[bool, np.ndarray]:
    """Discrete spectrum in the absolute case (trivial subalgebra).

    The dynamics unitary is diagonalizable, so its eigenvectors span; the
    returned eigenvalue list is the certificate.
    """
    if sub.algebra.dim != 1:
        raise SubsystemInvalid("absolute case requires the trivial subalgebra")
    vals = np.linalg.eigvals(gns.u_matrix)
    order = np.lexsort((np.round(vals.imag, 9), np.round(vals.real, 9),
                        np.round(np.angle(vals), 9)))
    return True, vals[order]


def admissible_elements(system: WStarSystem, sub: Subsystem,
                        tol: ToleranceConfig = DEFAULT_TOL,
                        seed: int = 0) -> list[tuple[str, np.ndarray]]:
    """A labeled basis of the kernel of the conditional expectation.

    The raw null-space basis is mixed by a seeded random unitary so that
    structured zeros of individual basis vectors do not mask the generic
    Cesaro behaviour, and each element is normalized in the GNS norm so that
    witness floors are comparable across trace scales.
    """
    alg = system.algebra
    exp = conditional_expectation(system, sub, tol)
    kernel = linalg.orthonormal_columns(np.eye(alg.dim) - exp.matrix, tol.eps_rank)
    k = kernel.shape[1]
    if k == 0:
        return []
    rng = np.random.default_rng(seed)
    mix, _ = np.linalg.qr(linalg.random_complex(rng, (k, k)))
    mixed = kernel @ mix
    out = []
    for i in range(k):
        c = mixed[:, i]
        norm = np.sqrt(float((c.conj() @ system.gram @ c).real))
        out.append((f"k{i}", alg.from_coords(c / norm)))
    return out


def build_spectrum_report(gns: GnsSpace, sub: Subsystem, bc: BasicConstruction,
                          jd: JoiningData, tol: ToleranceConfig = DEFAULT_TOL,
                          seed: int = 0,
                          module_certificate: list[SubmoduleCandidate] | None = None
                          ) -> SpectrumReport:
    blocks = find_minimal_modules(gns, sub, bc, tol)
    modules = blocks if module_certificate is None else list(module_certificate)
    cert = rds_verdict(bc, modules, tol)
    block_cert = rds_verdict(bc, blocks, tol)
    erg = rwm_certificate(jd, bc, tol)
    additivity = max(
        abs(sum(c.lifted_trace for c in modules) - cert.trace_of_complement),
        abs(sum(c.lifted_trace for c in blocks) - block_cert.trace_of_complement))
    samples = []
    for label, mat in admissible_elements(gns.system, sub, tol, seed):
        values = cesaro_sequence(gns.system, sub, mat, tol=tol)
        samples.append(CesaroSample(label, values))
    dim_span = sum(c.dim for c in modules)
    rank_e = int(round(float(np.trace(bc.e).real)))
    return SpectrumReport(tuple(modules), tuple(blocks), dim_span,
                          gns.dim - rank_e, cert.verdict and block_cert.verdict,
                          erg.holds,
                          max(cert.span_residual, block_cert.span_residual),
                          float(additivity), tuple(samples), erg)
