"""End-to-end analysis of a described system.

Runs GNS, basic construction, joining, equivalence and spectrum, and fills the
check ledger: every named identity with its numeric residual.  Checks that do
not apply to a given kind are reported as not applicable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (DEFAULT_TOL, ToleranceConfig, product_trace_table,
                      random_element)
from .basic import (BasicConstruction, build_basic_construction, default_partition,
                    lifted_trace_via_partition)
from .constructors import (ConstructedSystem, finite_extension_diagnostics,
                           skew_orbit_modules, tensor_partition_isometries)
from .descriptions import SystemDescription, build_from_description
from .gns import GnsSpace, build_gns
from .joining import JoiningData, joining_equivalence, relative_joining
from .spectrum import (SpectrumReport, build_spectrum_report,
                       classical_fiber_analysis)

CHECK_NAMES = (
    "mu_bar_extension", "commutant_equality", "trace_tracial",
    "alpha_bar_invariance", "R_isometry", "R_intertwine", "omega_marginals",
    "omega_two_formulas", "module_completeness", "trace_additivity", "rds",
    "rwm_exact", "rwm_cesaro_consistency", "fiber_formula",
    "finite_extension_beta", "finite_extension_nonproduct",
)

CESARO_WITNESS_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    applicable: bool = True
    note: str = ""


@dataclass(frozen=True)
class SystemAnalysis:
    name: str
    kind: str
    built: ConstructedSystem
    gns: GnsSpace
    basic: BasicConstruction
    joining: JoiningData
    equivalence: np.ndarray
    spectrum: SpectrumReport
    checks: tuple[CheckResult, ...]
    extras: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)


def _random_pair_residual(gns: GnsSpace, bc: BasicConstruction, seed: int,
                          pairs: int = 100) -> float:
    """|lifted(a e b) - mu(a b)| over seeded random pairs."""
    rng = np.random.default_rng(seed)
    alg = gns.system.algebra
    worst = 0.0
    for _ in range(pairs):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        lifted = bc.lifted_value(gns.left(a) @ bc.e @ gns.left(b))
        worst = max(worst, abs(lifted - gns.system.trace.value(a @ b)))
    return worst


def _traciality_residual(bc: BasicConstruction) -> float:
    table = product_trace_table(bc.algebra, bc.trace.density)
    return float(np.abs(table - table.T).max())


def _is_commutative(sub_basis: np.ndarray, eps: float) -> bool:
    for i in range(len(sub_basis)):
        if np.abs(sub_basis[i] @ sub_basis - sub_basis @ sub_basis[i]).max() > eps:
            return False
    return True


def analyze_built(name: str, kind: str, built: ConstructedSystem,
                  tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
                  ) -> SystemAnalysis:
    gns = build_gns(built.system, tol)
    bc = build_basic_construction(gns, built.sub, tol)
    jd = relative_joining(gns, built.sub, bc, tol)
    r = joining_equivalence(jd, bc, tol)
    certificate = None
    extras: dict = {}
    if kind == "skew_product":
        certificate = skew_orbit_modules(built, gns, bc, tol)
    spectrum = build_spectrum_report(gns, built.sub, bc, jd, tol, seed, certificate)

    checks: list[CheckResult] = []

    def add(name_: str, residual: float, threshold: float = tol.eps_assert,
            applicable: bool = True, passed: bool | None = None, note: str = ""):
        ok = (residual <= threshold) if passed is None else passed
        checks.append(CheckResult(name_, float(residual), threshold,
                                  bool(ok) or not applicable, applicable, note))

    add("mu_bar_extension",
        max(bc.extension_residual, _random_pair_residual(gns, bc, seed)))
    add("commutant_equality", bc.commutant_residual)
    add("trace_tracial", _traciality_residual(bc))
    add("alpha_bar_invariance",
        float(np.abs(bc.trace_vector @ bc.dynamics.matrix - bc.trace_vector).max()))
    eye = np.eye(jd.rank)
    add("R_isometry", max(float(np.abs(r.conj().T @ r - eye).max()),
                          float(np.abs(r @ r.conj().T - eye).max())))
    add("R_intertwine",
        float(np.abs(r @ jd.w_matrix @ r.conj().T - bc.bar.u_matrix).max()))
    add("omega_marginals", jd.marginal_residual)
    add("omega_two_formulas", jd.two_formula_residual)
    add("module_completeness", spectrum.completeness_residual)
    add("trace_additivity", spectrum.additivity_residual)
    add("rds", spectrum.completeness_residual, passed=spectrum.rds,
        note=f"lifted trace of complement = {spectrum.dim_complement}-dim space "
             f"is finite")
    # the two theorem routes agreed inside rwm_certificate, or it would raise;
    # the residual is the distance of the fixed space from the F-subspace
    erg = spectrum.ergodicity
    add("rwm_exact", erg.residual, passed=True,
        note=f"relative weak mixing = {spectrum.rwm}; fixed_dim {erg.fixed_dim}, "
             f"lambda_dim {erg.lambda_dim}")
    if spectrum.dim_complement > 0:
        witness = max((s.minimum for s in spectrum.cesaro), default=0.0)
        consistent = (witness > CESARO_WITNESS_TOL) == (not spectrum.rwm)
        add("rwm_cesaro_consistency", 0.0 if consistent else 1.0, passed=consistent,
            note=f"best Cesaro witness floor {witness:.3e}")
    else:
        vacuous = spectrum.rwm and not spectrum.cesaro
        add("rwm_cesaro_consistency", 0.0 if vacuous else 1.0, passed=vacuous,
            note="no admissible mean-zero elements")
    if _is_commutative(built.sub.algebra.basis, tol.eps_assert):
        fibers = [classical_fiber_analysis(gns, built.sub, mod, tol)
                  for mod in spectrum.modules]
        extras["fibers"] = fibers
        resid = max((min(abs(f.weighted_sum - f.measured),
                         abs(f.plain_sum - f.measured)) for f in fibers),
                    default=0.0)
        matched = all(f.matching_formula != "neither" for f in fibers)
        add("fiber_formula", resid, passed=matched and resid <= tol.eps_assert,
            note=", ".join(f.matching_formula for f in fibers) or "no modules")
    else:
        add("fiber_formula", 0.0, applicable=False, note="subalgebra not commutative")
    if kind == "finite_extension":
        diag = finite_extension_diagnostics(built, tol)
        extras["finite_extension"] = diag
        add("finite_extension_beta",
            max(diag["beta_two_expressions"], diag["off_diagonal"],
                diag["restriction"], diag["display_pattern"]))
        if diag["nonproduct_expected"]:
            add("finite_extension_nonproduct",
                0.0 if diag["nonproduct_detected"] else 1.0,
                passed=diag["nonproduct_detected"],
                note=f"distance from product form {diag['product_distance']:.3e}")
        else:
            add("finite_extension_nonproduct", 0.0, applicable=False,
                note="a summand is absent")
    else:
        add("finite_extension_beta", 0.0, applicable=False,
            note="not a finite extension")
        add("finite_extension_nonproduct", 0.0, applicable=False,
            note="not a finite extension")

    # partition cross-checks (raise on disagreement; residuals recorded)
    vs = default_partition(bc, tol)
    vals = lifted_trace_via_partition(bc, vs, tol)
    extras["default_partition_residual"] = float(
        np.abs(vals - bc.trace_vector).max())
    if built.tensor_factors is not None:
        vt = tensor_partition_isometries(*built.tensor_factors, tol=tol)
        tvals = lifted_trace_via_partition(bc, vt, tol)
        extras["tensor_partition_residual"] = float(
            np.abs(tvals - bc.trace_vector).max())
        (balg, _), (calg, _) = built.tensor_factors
        extras["tensor_dims_ok"] = bc.algebra.dim == balg.dim * calg.dim ** 2
    return SystemAnalysis(name, kind, built, gns, bc, jd, r, spectrum,
                          tuple(checks), extras)


def analyze_description(desc: SystemDescription,
                        tol: ToleranceConfig | None = None,
                        seed: int = 0) -> SystemAnalysis:
    tol = desc.tolerance_config() if tol is None else tol
    built = build_from_description(desc, tol)
    return analyze_built(desc.name, desc.kind, built, tol, seed)
