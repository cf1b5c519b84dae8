"""End-to-end analysis of a described system.

Runs GNS, basic construction, joining, equivalence and spectrum, and fills the
check ledger: every named identity with its numeric residual.  The built
system's family data, not the kind, decide the family checks; checks that do
not apply to a system are reported as not applicable; the fiber formula
applies to every system, as the spectrum reports each module's multiplicities
over the central blocks of F whether or not F is commutative (with no modules
it holds vacuously).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ToleranceConfig
from .basic import (BasicConstruction, build_basic_construction, default_partition,
                    lifted_trace_via_partition)
from .constructors import (ConstructedSystem, FiniteExtensionDiagnostics,
                           finite_extension_diagnostics, tensor_partition_isometries)
from .descriptions import SystemDescription, build_from_description
from .errors import NumericalBreakdown
from .gns import GnsSpace, build_gns
from .joining import JoiningData, joining_equivalence, relative_joining
from .spectrum import SpectrumReport, build_spectrum_report, skew_orbit_modules

CHECK_NAMES = (
    "mu_bar_extension", "commutant_equality", "trace_tracial",
    "alpha_bar_invariance", "R_isometry", "R_intertwine", "omega_marginals",
    "omega_two_formulas", "joining_factorisation", "module_completeness",
    "trace_additivity", "rds", "rwm_exact", "rwm_cesaro_consistency", "fiber_formula",
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
    finite_extension: FiniteExtensionDiagnostics | None  # for a finite extension only
    default_partition_residual: float  # partition formula against the closed-form trace
    tensor_partition_residual: float | None  # the same for a product system's fibers

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)


def analyze_built(name: str, kind: str, built: ConstructedSystem,
                  seed: int = 0) -> SystemAnalysis:
    """Every stage and check on a built system, at the tolerance the system
    holds.  A rank cutoff below the machine epsilon is refused first: no
    singular value or eigenvalue that roundoff leaves can be told from zero
    there."""
    tol = built.system.tol
    if tol.eps_rank < np.finfo(float).eps:
        raise NumericalBreakdown(f"rank cutoff {tol.eps_rank:g} lies below roundoff "
                                 f"(machine epsilon {np.finfo(float).eps:.2e})")
    gns = build_gns(built.system)
    bc = build_basic_construction(gns, built.sub)
    jd = relative_joining(bc)
    r, isometry, intertwine = joining_equivalence(jd)
    certificate = None
    diag = None
    if built.orbits is not None:
        certificate = skew_orbit_modules(bc, built.orbits)
    spectrum = build_spectrum_report(jd, seed, certificate)

    checks: list[CheckResult] = []

    def add(name_: str, residual: float, threshold: float = tol.eps_assert,
            applicable: bool = True, passed: bool | None = None, note: str = ""):
        ok = (residual <= threshold) if passed is None else passed
        checks.append(CheckResult(name_, float(residual), threshold,
                                  bool(ok) or not applicable, applicable, note))

    add("mu_bar_extension", bc.extension_residual)
    add("commutant_equality", bc.commutant_residual)
    add("trace_tracial", bc.tracial_residual)
    add("alpha_bar_invariance",
        float(np.abs(bc.trace_vector @ bc.dynamics.matrix - bc.trace_vector).max()))
    add("R_isometry", isometry)
    add("R_intertwine", intertwine)
    add("omega_marginals", jd.marginal_residual)
    add("omega_two_formulas", jd.two_formula_residual)
    kept, dropped = jd.smallest_kept_eigenvalue, jd.largest_dropped_eigenvalue
    add("joining_factorisation", jd.factor_residual,
        note=f"smallest kept eigenvalue {kept:.3e}, "
             f"{kept / tol.eps_rank:.3e} x eps_rank; "
             + (f"largest dropped {dropped:.3e}, {dropped / tol.eps_rank:.3e} x eps_rank"
                if np.isfinite(dropped) else "none dropped"))
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
    fibers = spectrum.fibers
    add("fiber_formula", max((f.residual for f in fibers), default=0.0),
        note=(f"largest integrality gap {max(f.integrality_gap for f in fibers):.1e}; "
              f"sums matched: {', '.join(f.matching_formula for f in fibers)}"
              if fibers else "no modules"))
    if built.summands is not None:
        diag = finite_extension_diagnostics(built)
        add("finite_extension_beta", diag.structure_residual)
        if diag.nonproduct_expected:
            add("finite_extension_nonproduct",
                0.0 if diag.nonproduct_detected else 1.0,
                passed=diag.nonproduct_detected,
                note=f"distance from product form {diag.product_distance:.3e}")
        else:
            add("finite_extension_nonproduct", 0.0, applicable=False,
                note="a summand is absent")
    else:
        add("finite_extension_beta", 0.0, applicable=False,
            note="not a finite extension")
        add("finite_extension_nonproduct", 0.0, applicable=False,
            note="not a finite extension")

    # partition cross-checks (raise on disagreement; residuals recorded)
    default = lifted_trace_via_partition(bc, default_partition(bc))
    tensor = None
    if built.factors is not None:
        tensor = lifted_trace_via_partition(bc, tensor_partition_isometries(*built.factors))
    return SystemAnalysis(name, kind, built, gns, bc, jd, r, spectrum,
                          tuple(checks), diag, default, tensor)


def analyze_description(desc: SystemDescription,
                        tol: ToleranceConfig | None = None,
                        seed: int = 0) -> SystemAnalysis:
    """Build the described system at ``tol`` (the file's tolerances when
    None) and analyze it at the tolerance it then holds."""
    return analyze_built(desc.name, desc.kind, build_from_description(desc, tol), seed)
