"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the criterion at its stated
tolerance.
"""
import json
import subprocess
import sys
import time

import numpy as np

import vnspec as v
from conftest import E12
from oracles import random_element


def _report(num: int, ok: bool, what: str):
    print(f"acceptance {num:2d}: {'PASS' if ok else 'FAIL'} - {what}")
    assert ok, what


def test_criterion_01_lifted_trace_identity(analyses):
    """Lifted-trace identity on 100 seeded random pairs per shipped system."""
    worst = 0.0
    slowest = 0.0
    rng_seed = 0
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        alg = an.built.system.algebra
        rng = np.random.default_rng(rng_seed)
        t0 = time.perf_counter()
        for _ in range(100):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            x = gns.left(a) @ bc.e @ gns.left(b)
            lifted = bc.lifted_value(bc.algebra.coords(x))
            worst = max(worst, abs(lifted - an.built.system.trace.value(a @ b)))
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst < 1e-8 and slowest < 5.0 and len(analyses) >= 6
    _report(1, ok, f"max residual {worst:.2e} over {len(analyses)} systems, "
                   f"slowest {slowest:.2f}s")


def test_criterion_02_basic_construction_equality(analyses):
    """Generated algebra equals the commutant route on every shipped system."""
    worst = max(an.basic.commutant_residual for an in analyses.values())
    _report(2, worst < 1e-8, f"max mutual-inclusion residual {worst:.2e}")


def test_criterion_03_tensor_reproduction(analyses):
    """Tensor dimensions and the product-trace formula."""
    ok = True
    details = []
    for name in ("tensor_diag2_m2", "finite_extension_m2", "skew_z4_inversion"):
        an = analyses[name]
        balg, calg = (f.algebra for f in an.built.factors)
        dims_ok = an.basic.algebra.dim == balg.dim * calg.dim ** 2
        resid = an.tensor_partition_residual
        default_resid = an.default_partition_residual
        ok = ok and dims_ok and resid < 1e-8 and default_resid < 1e-8
        details.append(f"{name}: dims {'ok' if dims_ok else 'BAD'}, "
                       f"product-trace dev {resid:.2e}")
    _report(3, ok, "; ".join(details))


def test_criterion_04_equivalence_unitary(analyses):
    """The joining-to-basic-construction unitary on every shipped system."""
    worst = 0.0
    for an in analyses.values():
        r = an.equivalence
        eye = np.eye(r.shape[0])
        worst = max(worst,
                    float(np.abs(r.conj().T @ r - eye).max()),
                    float(np.abs(r @ r.conj().T - eye).max()),
                    float(np.abs(r @ an.joining.w_matrix @ r.conj().T
                                 - an.basic.u_bar).max()))
    _report(4, worst < 1e-8, f"max unitarity/intertwining residual {worst:.2e}")


def test_criterion_05_theorem_cross_check(analyses):
    """Ergodicity route equals module route equals cyclic-subspace equality."""
    ok = True
    for name, an in analyses.items():
        erg = v.relative_ergodicity_check(an.joining)
        dim_e_zero = an.spectrum.dim_complement == 0
        h_equal = int(round(np.trace(an.basic.e).real)) == an.gns.dim
        exact = v.rwm_certificate(an.joining).holds  # raises on mismatch
        ok = ok and (erg.holds == dim_e_zero == h_equal == exact)
    _report(5, ok, "all three characterizations agree on every shipped system")


def test_criterion_06_skew_orbit_traces(shipped_descriptions):
    """Orbit module traces 2 and 1 for the standard skew product, under 10 s."""
    from vnspec.pipeline import analyze_description
    t0 = time.perf_counter()
    an = analyze_description(shipped_descriptions["skew_z4_inversion"])
    elapsed = time.perf_counter() - t0
    traces = sorted(round(m.lifted_trace, 10) for m in an.spectrum.modules)
    ok = (abs(traces[0] - 1.0) < 1e-8 and abs(traces[1] - 2.0) < 1e-8
          and an.spectrum.rds and elapsed < 10.0)
    _report(6, ok, f"module traces {traces}, rds {an.spectrum.rds}, "
                   f"{elapsed:.2f}s")


def test_criterion_07_finite_extension(analyses):
    """Restricted dynamics display, block pattern, non-product detection."""
    an = analyses["finite_extension_m2"]
    diag = an.finite_extension
    resid = max(diag.beta_two_expressions, diag.off_diagonal,
                diag.restriction, diag.display_pattern)
    complement_trace = an.basic.lifted_value(
        an.basic.algebra.coords(np.eye(an.gns.dim) - an.basic.e)).real
    ok = (resid < 1e-8 and diag.nonproduct_detected and an.spectrum.rds
          and np.isfinite(complement_trace))
    _report(7, ok, f"structure residual {resid:.2e}, non-product fired, "
                   f"complement trace {complement_trace:.6g}")


def test_criterion_08_cesaro(analyses, m2_grading):
    """Exact quarter averages, and a positive witness wherever mixing fails."""
    seq = v.cesaro_sequence(m2_grading.system, m2_grading.sub, E12,
                            n_max=256, early_exit=False)
    quarter_ok = len(seq) == 256 and np.abs(seq - 0.25).max() < 1e-9
    witness_ok = True
    details = []
    for name, an in analyses.items():
        if an.spectrum.dim_complement == 0:
            continue
        floor = max((s.minimum for s in an.spectrum.cesaro), default=0.0)
        witness_ok = witness_ok and floor > 1e-6 and not an.spectrum.rwm
        details.append(f"{name} floor {floor:.2e}")
    _report(8, quarter_ok and witness_ok,
            f"quarter max dev {np.abs(seq - 0.25).max():.2e}; "
            + "; ".join(details))


def test_criterion_09_completeness_additivity(analyses):
    """Module projections sum to the complement; lifted traces add up."""
    worst_span = max(an.spectrum.completeness_residual for an in analyses.values())
    worst_add = max(an.spectrum.additivity_residual for an in analyses.values())
    ok = worst_span < 1e-8 and worst_add < 1e-8
    _report(9, ok, f"span residual {worst_span:.2e}, "
                   f"additivity residual {worst_add:.2e}")


def test_criterion_10_classical_fibers(analyses):
    """Per-atom fiber dimensions of the large skew module, formula flagged."""
    an = analyses["skew_z4_inversion"]
    rep = an.spectrum.fibers[0]
    ok = (rep.fiber_dims == (2, 2, 2)
          and rep.matching_formula in ("weighted", "both")
          and abs(rep.weighted_sum - rep.measured) < 1e-8)
    _report(10, ok, f"fiber dims {rep.fiber_dims}, "
                    f"{rep.matching_formula} sum matches within "
                    f"{abs(rep.weighted_sum - rep.measured):.2e}")


def test_criterion_11_determinism():
    """Byte-identical selftest reports across two consecutive runs."""
    cmd = [sys.executable, "-m", "vnspec", "selftest", "--quiet", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 1000)
    _report(11, ok, f"{len(first.stdout)} bytes, identical across runs")
    doc = json.loads(first.stdout)
    assert doc["pass"] is True
