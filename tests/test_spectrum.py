import dataclasses
import re

import numpy as np
import pytest

import vnspec as v
from vnspec import linalg, pipeline
from vnspec.errors import (InputError, NotInAlgebra, NotMeanZero, NumericalBreakdown,
                           VerdictMismatch)
from vnspec.spectrum import admissible_elements
from conftest import E12
from oracles import bar_vector


# --- Cesaro averages ---------------------------------------------------------

def test_cesaro_of_zero_element(m2_grading):
    seq = v.cesaro_sequence(m2_grading.system, m2_grading.sub,
                            np.zeros((2, 2), dtype=complex), n_max=16,
                            early_exit=False)
    assert np.abs(seq).max() < 1e-12


def test_cesaro_constant_quarter(m2_grading):
    seq = v.cesaro_sequence(m2_grading.system, m2_grading.sub, E12,
                            n_max=256, early_exit=False)
    assert len(seq) == 256
    assert np.abs(seq - 0.25).max() < 1e-9


@pytest.mark.parametrize("n_max", [0, -3, True, 2.5, "4"])
def test_cesaro_rejects_a_horizon_below_one(m2_grading, n_max):
    """Also a horizon that is not an integer, by ToleranceConfig's rule."""
    with pytest.raises(ValueError, match="n_max must be positive"):
        v.cesaro_sequence(m2_grading.system, m2_grading.sub, E12, n_max=n_max)


def test_cesaro_takes_a_numpy_integer_horizon(m2_grading):
    seq = v.cesaro_sequence(m2_grading.system, m2_grading.sub, E12,
                            n_max=np.int64(3), early_exit=False)
    assert len(seq) == 3 and np.abs(seq - 0.25).max() < 1e-9


def test_cesaro_rejects_nonzero_expectation(m2_grading):
    with pytest.raises(NotMeanZero, match="nonzero conditional expectation"):
        v.cesaro_sequence(m2_grading.system, m2_grading.sub, np.eye(2))


def test_cesaro_rejects_element_outside_algebra(analyses):
    # E_01 is not diagonal; its projection onto the algebra is zero, which
    # would read as an all-zero average, a false weak-mixing witness
    built = analyses["classical_4cycle"].built
    e01 = np.zeros((4, 4), dtype=complex)
    e01[0, 1] = 1.0
    assert built.system.algebra.membership_residual(e01) == pytest.approx(1.0)
    with pytest.raises(NotInAlgebra, match="does not lie in the algebra"):
        v.cesaro_sequence(built.system, built.sub, e01)
    assert issubclass(NotInAlgebra, InputError)


def test_cesaro_early_exit_shortens(m2_grading):
    seq = v.cesaro_sequence(m2_grading.system, m2_grading.sub, E12)
    assert len(seq) < 256  # the average is constant, so the exit fires


def test_no_admissible_elements_for_full_subsystem(analyses):
    an = analyses["full_subsystem_m2"]
    assert admissible_elements(an.built.system, an.built.sub) == []


def test_admissible_elements_refuse_a_draw_below_the_rank_cutoff(analyses):
    """At eps_rank 10 every singular value of the draw is cut, so the k
    generic elements no longer span ker E_F.  The public call reads the
    system's cutoff, so the step it runs is called at 10."""
    built = analyses["finite_extension_m2"].built
    with pytest.raises(NumericalBreakdown,
                       match="^18 generic elements span less than ker E_F$"):
        v.spectrum._admissible_coords(built.system, built.sub,
                                      v.ToleranceConfig(eps_rank=10.0), 0)


@pytest.mark.parametrize("call", ["cesaro_sequence", "admissible_elements"])
def test_a_tolerance_argument_may_only_repeat_the_systems(analyses, call):
    """The two calls that still take ``tol`` run at the system's own: None
    and an equal ToleranceConfig give the same output, and any other is
    refused with a ValueError that names both."""
    built = analyses["finite_extension_m2"].built
    system, sub = built.system, built.sub
    element = admissible_elements(system, sub)[0][1]
    run = {"cesaro_sequence": lambda tol: [v.cesaro_sequence(system, sub, element,
                                                             tol=tol)],
           "admissible_elements": lambda tol: [a for _, a in admissible_elements(
               system, sub, tol)]}[call]
    equal = dataclasses.replace(system.tol)
    assert equal == system.tol and equal is not system.tol
    want = run(None)
    assert len(want) and all(np.array_equal(x, y) for x, y in zip(run(equal), want))
    other = v.ToleranceConfig(eps_rank=1e-6)
    with pytest.raises(ValueError, match=re.escape(
            f"tolerance {other} differs from the system's {system.tol}")):
        run(other)


def test_admissible_elements_span_kernel(analyses):
    for name, an in analyses.items():
        sys, sub = an.built.system, an.built.sub
        exp = sub.expectation
        elems = admissible_elements(sys, sub)
        assert len(elems) == sys.algebra.dim - sub.algebra.dim, name
        for _, mat in elems:
            assert np.abs(exp.apply(mat)).max() < 1e-9, name


def test_cesaro_witnesses_move_by_roundoff_with_e_f(analyses):
    """A 1e-15 perturbation of E_F moves every labelled element's Cesaro
    averages by roundoff: the elements are a QR of (1 - E_F) G for a fixed
    draw G, not an SVD basis of the degenerate singular values of 1 - E_F."""
    rng = np.random.default_rng(8)
    for name, an in analyses.items():
        sys, sub = an.built.system, an.built.sub
        exp = sub.expectation
        noise = 1e-15 * linalg.random_complex(rng, exp.matrix.shape)
        moved = dataclasses.replace(
            sub, expectation=dataclasses.replace(exp, matrix=exp.matrix + noise))
        elems, moved_elems = admissible_elements(sys, sub), admissible_elements(sys, moved)
        assert len(elems) == len(moved_elems), name
        for (label, a), (_, b) in zip(elems, moved_elems):
            before = v.cesaro_sequence(sys, sub, a, early_exit=False)
            after = v.cesaro_sequence(sys, sub, b, early_exit=False)
            assert np.abs(after - before).max() <= 1e-12, (name, label)


# --- module discovery ------------------------------------------------------

def test_no_modules_when_subsystem_is_everything(analyses):
    an = analyses["full_subsystem_m2"]
    assert an.spectrum.modules == ()
    assert an.spectrum.dim_complement == 0


def test_modules_are_invariant_right_modules(analyses):
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        for cand in an.spectrum.modules + an.spectrum.block_modules:
            assert cand.is_right_module, name
            assert cand.is_u_invariant, name
            p = bc.algebra.from_coords(cand.coords)
            assert np.abs(p @ p - p).max() < 1e-9, name
            assert np.abs(p @ bc.e).max() < 1e-9, name
            for f in an.built.sub.algebra.basis:
                jf = gns.j_op(gns.left(f))
                assert np.abs(p @ jf - jf @ p).max() < 1e-9, name


def test_module_completeness_and_additivity(analyses):
    for name, an in analyses.items():
        sp = an.spectrum
        assert sp.completeness_residual < 1e-8, name
        assert sp.additivity_residual < 1e-8, name
        one_minus_e = np.eye(an.gns.dim) - an.basic.e
        for group in (sp.modules, sp.block_modules):
            if group:
                total = an.basic.algebra.from_coords(sum(c.coords for c in group))
                assert np.abs(total - one_minus_e).max() < 1e-8, name


def test_fixed_point_witness(analyses):
    # gamma_bar of each module projection is a fixed vector orthogonal to the
    # image of e F
    for name, an in analyses.items():
        bc = an.basic
        for cand in an.spectrum.modules:
            x = bar_vector(bc, bc.algebra.from_coords(cand.coords))
            assert np.abs(bc.u_bar @ x - x).max() < 1e-8, name
            for f in an.built.sub.algebra.basis:
                y = bar_vector(bc, bc.e @ an.gns.left(f))
                assert abs(np.vdot(x, y)) < 1e-8, name


def test_explicit_m2_block_structure(analyses):
    an = analyses["explicit_m2_grading"]
    traces = sorted(round(c.lifted_trace, 8) for c in an.spectrum.modules)
    assert traces == [1.0, 2.0]


def test_degenerate_dynamics_reports_block_sum(m2_over_diagonal):
    # with identity dynamics every splitting is basis dependent, so the
    # decomposition reports sums of isomorphic modules
    cs = m2_over_diagonal
    gns = v.build_gns(cs.system)
    bc = v.build_basic_construction(gns, cs.sub)
    mods = v.find_minimal_modules(bc)
    total_dim = sum(c.dim for c in mods)
    rank_e = int(round(np.trace(bc.e).real))
    assert total_dim == gns.dim - rank_e
    for c in mods:
        assert c.is_right_module and c.is_u_invariant


# --- verdicts ------------------------------------------------------------

def test_rds_always_true_and_rwm_iff_trivial_complement(analyses):
    for name, an in analyses.items():
        sp = an.spectrum
        assert sp.rds, name
        assert sp.rwm == (sp.dim_complement == 0), name


def test_rwm_verdict_cross_check(analyses):
    for name, an in analyses.items():
        assert v.rwm_certificate(an.joining).holds == an.spectrum.rwm, name


def test_rds_certificate_contents(analyses):
    an = analyses["skew_z4_inversion"]
    cert = v.rds_verdict(an.basic, list(an.spectrum.modules))
    assert cert.verdict
    assert abs(cert.trace_of_complement - 3.0) < 1e-9
    assert len(cert.modules) == 2


def test_rds_rejects_a_spanning_split_that_is_not_invariant(analyses):
    """A line in 1 - e and its complement span, but are not U-invariant."""
    an = analyses["skew_z4_inversion"]
    gns, bc = an.gns, an.basic
    rng = np.random.default_rng(31)
    vec = (np.eye(gns.dim) - bc.e) @ linalg.random_complex(rng, gns.dim)
    line = np.outer(vec, vec.conj()) / np.vdot(vec, vec).real
    split = [v.spectrum.module_candidate(bc, p)
             for p in (line, np.eye(gns.dim) - bc.e - line)]
    assert not split[0].is_u_invariant
    cert = v.rds_verdict(bc, split)
    assert cert.span_residual < 1e-12
    assert not cert.verdict


@pytest.mark.parametrize("claim", ["is_right_module", "is_u_invariant"])
def test_rds_requires_every_module_claim(analyses, claim):
    an = analyses["skew_z4_inversion"]
    modules = list(an.spectrum.modules)
    assert v.rds_verdict(an.basic, modules).verdict
    modules[-1] = dataclasses.replace(modules[-1], **{claim: False})
    assert not v.rds_verdict(an.basic, modules).verdict


# --- fibers: multiplicities over the central blocks of F ------------------

def test_fiber_analysis_of_noncommutative_subalgebra(analyses):
    """F = M_2 (+) C (+) C: each module's lifted trace is sum_k mu(p_k)/n_k c_k."""
    an = analyses["finite_extension_m2"]
    assert tuple(n for _, n, _ in an.basic.blocks) == (2, 1, 1)
    reports = an.spectrum.fibers
    assert [r.fiber_dims for r in reports] == [
        (0, 2, 0), (0, 0, 2), (3, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1)]
    for rep in reports:
        assert np.abs(np.subtract(rep.atom_weights, (1 / 6, 1 / 3, 1 / 3))).max() < 1e-15
        assert rep.integrality_gap < 1e-13
        assert abs(rep.weighted_sum - rep.measured) < 1e-12
    assert np.abs(np.subtract([r.measured for r in reports],
                              (2 / 3, 2 / 3, 1 / 2, 1 / 2, 1 / 3, 1 / 3))).max() < 1e-12
    check = {c.name: c for c in an.checks}["fiber_formula"]
    assert check.applicable and check.passed


def test_fiber_analysis_flags_a_fractional_multiplicity(analyses, monkeypatch):
    """A rank-one projection inside j(p_k) H with n_k = 2 has c_k = 1/2, and
    fiber_formula fails on it."""
    an = analyses["finite_extension_m2"]
    gns = an.gns
    k, p = next((k, p) for k, (p, n, _) in enumerate(an.basic.blocks) if n == 2)
    jp = gns.j_op(gns.left(p))
    vec = jp @ np.ones(gns.dim, dtype=complex)
    vec /= np.linalg.norm(vec)
    rank_one = v.spectrum.module_candidate(an.basic, np.outer(vec, vec.conj()))
    rep = v.fiber_analysis(an.basic, rank_one)
    assert rep.fiber_dims[k] in (0, 1)
    assert abs(rep.integrality_gap - 0.5) < 1e-12
    report = pipeline.build_spectrum_report
    monkeypatch.setattr(pipeline, "build_spectrum_report",
                        lambda jd, seed, _: report(jd, seed, [rank_one]))
    redone = pipeline.analyze_built(an.name, an.kind, an.built)
    check = {c.name: c for c in redone.checks}["fiber_formula"]
    assert check.applicable and not check.passed
    assert abs(check.residual - 0.5) < 1e-12


def test_fiber_formula_fails_on_the_plain_sum(analyses, monkeypatch):
    """The ledger takes the weighted sum only: the large orbit module of the
    skew product, with its lifted trace set to the plain sum 6 (the weighted
    sum is 2), fails fiber_formula."""
    an = analyses["skew_z4_inversion"]
    big, *rest = an.spectrum.modules
    tampered = [dataclasses.replace(big, lifted_trace=6.0), *rest]
    monkeypatch.setattr(pipeline, "skew_orbit_modules", lambda *_: tampered)
    redone = pipeline.analyze_built(an.name, an.kind, an.built)
    rep = redone.spectrum.fibers[0]
    assert (rep.weighted_sum, rep.plain_sum, rep.matching_formula) == (2.0, 6.0, "plain")
    check = {c.name: c for c in redone.checks}["fiber_formula"]
    assert check.applicable and not check.passed
    assert abs(check.residual - 4.0) < 1e-12


def test_fiber_analysis_zero_module(analyses):
    an = analyses["skew_z4_inversion"]
    zero = v.spectrum.module_candidate(an.basic,
                                       np.zeros((an.gns.dim, an.gns.dim),
                                                dtype=complex))
    rep = v.fiber_analysis(an.basic, zero)
    assert rep.fiber_dims == (0, 0, 0)
    assert rep.measured == 0.0


def test_fiber_analysis_orbit_module(analyses):
    an = analyses["skew_z4_inversion"]
    reports = an.spectrum.fibers
    big = reports[0]
    assert big.fiber_dims == (2, 2, 2)
    assert big.matching_formula == "weighted"
    assert abs(big.weighted_sum - big.measured) < 1e-9
    assert big.rank_bound == 2
    small = reports[1]
    assert small.fiber_dims == (1, 1, 1)


def test_full_complement_fibers(analyses):
    an = analyses["skew_z4_inversion"]
    comp = v.spectrum.module_candidate(an.basic,
                                       np.eye(an.gns.dim) - an.basic.e)
    rep = v.fiber_analysis(an.basic, comp)
    assert rep.fiber_dims == (3, 3, 3)  # |G| - 1 per atom


def test_right_module_characterization_both_ways(analyses):
    # projections of invariant submodules lie in the constructed algebra, the
    # orbit modules' ones on H with the coordinates the modules hold; a
    # generic one-dimensional subspace of the complement does not, and it
    # also fails invariance under the right subalgebra action
    an = analyses["skew_z4_inversion"]
    gns, bc = an.gns, an.basic
    for idx in an.built.orbits:
        q = linalg.orthonormal_columns(gns.to_vector[:, list(idx)], 1e-10)
        orbit = q @ q.conj().T
        assert bc.algebra.membership_residual(orbit) < 1e-9
        assert min(np.abs(c.coords - bc.algebra.coords(orbit)).max()
                   for c in an.spectrum.modules) < 1e-9
    rng = np.random.default_rng(29)
    vec = (np.eye(gns.dim) - bc.e) @ (rng.standard_normal(gns.dim)
                                      + 1j * rng.standard_normal(gns.dim))
    vec /= np.linalg.norm(vec)
    proj = np.outer(vec, vec.conj())
    assert bc.algebra.membership_residual(proj) > 1e-3
    worst = max(np.abs((np.eye(gns.dim) - proj) @ gns.j_op(gns.left(f)) @ proj).max()
                for f in an.built.sub.algebra.basis)
    assert worst > 1e-3


def test_rwm_certificate_refuses_disagreeing_routes(analyses, monkeypatch):
    """The ergodicity route, flipped, disagrees with the module route."""
    jd = analyses["skew_z4_inversion"].joining
    check = v.spectrum.relative_ergodicity_check
    monkeypatch.setattr(v.spectrum, "relative_ergodicity_check",
                        lambda jd: dataclasses.replace(check(jd), holds=True))
    with pytest.raises(VerdictMismatch, match=r"ergodicity route says True \(residual "
                       r".*\) but the module route says False \(complement dim 9\)"):
        v.spectrum.rwm_certificate(jd)


def test_family_data_not_the_kind_choose_the_certificates(analyses):
    """A skew product labelled as a tensor still gets its orbit modules, and
    the label is only reported."""
    an = analyses["skew_z4_inversion"]
    redone = pipeline.analyze_built(an.name, "tensor", an.built)
    assert redone.kind == "tensor" and redone.passed
    assert [c.dim for c in redone.spectrum.modules] == [6, 3]
    assert [c.dim for c in redone.spectrum.block_modules] \
        == [c.dim for c in an.spectrum.block_modules]
