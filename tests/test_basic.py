import numpy as np
import pytest

import vnspec as v
from vnspec.basic import (default_partition, lifted_trace_coefficients,
                          lifted_trace_via_partition, product_closure_residual)
from vnspec.errors import ExtensionInconsistent, NumericalBreakdown, PartitionInvalid


def test_m2_over_scalars_gives_full_operator_algebra(analyses):
    an = analyses["explicit_m2_grading"]
    bc = an.basic
    assert bc.algebra.dim == 16          # all of B(H) for dim H = 4
    eye = np.eye(an.gns.dim)
    assert abs(bc.lifted_value(eye) - 4.0) < 1e-9   # canonical trace of 1
    assert abs(bc.lifted_value(bc.e) - 1.0) < 1e-9  # rank-one projection
    assert bc.bar.dim == 16


def test_full_subsystem_collapses(analyses):
    an = analyses["full_subsystem_m2"]
    bc = an.basic
    assert bc.algebra.dim == an.built.system.algebra.dim
    assert np.abs(bc.e - np.eye(an.gns.dim)).max() < 1e-10
    assert bc.bar.dim == an.gns.dim
    assert abs(bc.lifted_value(np.eye(an.gns.dim)) - 1.0) < 1e-9  # mu itself


def test_tensor_dimension_count(analyses):
    an = analyses["tensor_diag2_m2"]
    (balg, _), (calg, _) = an.built.tensor_factors
    assert an.basic.algebra.dim == balg.dim * calg.dim ** 2  # 2 * 16
    assert abs(an.basic.lifted_value(np.eye(an.gns.dim)) - calg.dim) < 1e-9


def test_skew_bar_space_dimension(analyses):
    an = analyses["skew_z4_inversion"]
    assert an.basic.algebra.dim == 48
    assert an.basic.bar.dim == 48


def test_lifted_trace_identity_on_random_pairs(analyses):
    rng = np.random.default_rng(17)
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        alg = an.built.system.algebra
        for _ in range(20):
            a = v.random_element(alg, rng)
            b = v.random_element(alg, rng)
            lifted = bc.lifted_value(gns.left(a) @ bc.e @ gns.left(b))
            assert abs(lifted - an.built.system.trace.value(a @ b)) < 1e-9, name


def test_lifted_trace_is_positive_and_faithful(analyses):
    rng = np.random.default_rng(23)
    for name, an in analyses.items():
        bc = an.basic
        for _ in range(10):
            x = v.random_element(bc.algebra, rng)
            val = bc.lifted_value(x.conj().T @ x)
            assert val.real > 1e-12, name
            assert abs(val.imag) < 1e-9, name


def test_lifted_trace_monotone_on_projections(analyses):
    an = analyses["explicit_m2_grading"]
    bc = an.basic
    # P <= Q implies lifted(P) <= lifted(Q): compare e against identity
    assert bc.lifted_value(bc.e).real <= bc.lifted_value(np.eye(an.gns.dim)).real + 1e-12


def test_dynamics_restriction_and_e_fixed(analyses):
    for name, an in analyses.items():
        bc, gns = an.basic, an.gns
        u = gns.u_matrix
        assert np.abs(u @ bc.e @ u.conj().T - bc.e).max() < 1e-9, name
        # conjugation restricted to the left algebra implements the dynamics
        images = an.built.system.algebra.from_coords_stack(
            an.built.system.dynamics.matrix.T)
        for i in range(min(4, an.built.system.algebra.dim)):
            lhs = u @ gns.left_mats[i] @ u.conj().T
            rhs = gns.left(images[i])
            assert np.abs(lhs - rhs).max() < 1e-9, name


def test_bar_unitary_intertwines_gamma(analyses):
    rng = np.random.default_rng(31)
    for name, an in analyses.items():
        bc = an.basic
        for _ in range(5):
            x = v.random_element(bc.algebra, rng)
            lhs = bc.bar.u_matrix @ bc.gamma(x)
            rhs = bc.gamma(bc.dynamics.apply(bc.algebra, x))
            assert np.abs(lhs - rhs).max() < 1e-9, name


def test_partition_formulas_agree_everywhere(analyses):
    for name, an in analyses.items():
        assert an.extras["default_partition_residual"] < 1e-9, name
        if an.built.tensor_factors is not None:
            assert an.extras["tensor_partition_residual"] < 1e-9, name


def test_partition_agrees_on_random_elements(analyses):
    rng = np.random.default_rng(41)
    for name, an in analyses.items():
        bc = an.basic
        vs = default_partition(bc)
        vals = lifted_trace_via_partition(bc, vs)
        vecs = np.stack([bc.gns.apply_j(w.conj().T @ bc.gns.omega) for w in vs])
        for _ in range(100):
            x = v.random_element(bc.algebra, rng)
            extension = bc.lifted_value(x)
            partition = np.einsum("ia,ab,ib->", vecs.conj(), x, vecs,
                                  optimize=True)
            assert abs(extension - partition) < 1e-9, name
        assert np.abs(vals - bc.trace_vector).max() < 1e-9, name


def test_partition_trivial_for_full_subsystem(analyses):
    an = analyses["full_subsystem_m2"]
    vals = lifted_trace_via_partition(an.basic, [np.eye(an.gns.dim)])
    assert np.abs(vals - an.basic.trace_vector).max() < 1e-9


def test_partition_rejects_incomplete_family(analyses):
    an = analyses["tensor_diag2_m2"]
    vt = v.tensor_partition_isometries(*an.built.tensor_factors)
    with pytest.raises(PartitionInvalid):
        lifted_trace_via_partition(an.basic, vt[:-1])


def test_default_partition_members_live_in_mirror_algebra(analyses):
    an = analyses["explicit_m2_grading"]
    gns, bc = an.gns, an.basic
    mirror_basis = np.stack([gns.j_op(x) for x in bc.algebra.basis])
    mirror = v.MatrixStarAlgebra(gns.dim, mirror_basis)
    for w in default_partition(bc)[:6]:
        assert mirror.membership_residual(w) < 1e-9


def test_lifted_trace_identity_via_alg_bar_membership(analyses):
    # a e b spans the constructed algebra (two-sided ideal is everything)
    an = analyses["classical_4cycle"]
    gns, bc = an.gns, an.basic
    x = gns.left_mats[0] @ bc.e @ gns.left_mats[1]
    assert bc.algebra.membership_residual(x) < 1e-9


def test_default_partition_uses_given_tolerance(analyses):
    # the averaged element sum m_i* e m_i is the identity here, so a rank
    # cutoff of 2 rejects it while the default cutoff accepts it
    bc = analyses["classical_4cycle"].basic
    assert len(default_partition(bc)) == bc.algebra.dim
    with pytest.raises(NumericalBreakdown):
        default_partition(bc, v.ToleranceConfig(eps_rank=2.0))


def test_pipeline_passes_file_tolerance_to_partition(shipped_descriptions,
                                                     monkeypatch):
    from vnspec import pipeline
    seen = []

    def spy(bc, tol):
        seen.append(tol.eps_rank)
        return default_partition(bc, tol)
    monkeypatch.setattr(pipeline, "default_partition", spy)
    desc = shipped_descriptions["classical_4cycle"]
    desc = type(desc)(desc.name, desc.kind, desc.parameters, {"eps_rank": 1e-12})
    assert pipeline.analyze_description(desc).passed
    assert seen == [1e-12]


def test_closure_residual_fails_on_a_truncated_span(analyses):
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        gens = list(gns.left_mats) + [bc.e]
        assert product_closure_residual(bc.algebra, gens) < 1e-12, name
        short = v.MatrixStarAlgebra(gns.dim, bc.algebra.basis[:-1].copy())
        assert product_closure_residual(short, gens) > 0.1, name
        with pytest.raises(ExtensionInconsistent):
            lifted_trace_coefficients(gns, bc.e, short)
