import dataclasses

import numpy as np
import pytest

import vnspec as v
from vnspec import basic
from vnspec.algebra import ToleranceConfig
from vnspec.basic import default_partition, lifted_trace, lifted_trace_via_partition
from vnspec.errors import (CommutantMismatch, ExtensionInconsistent, NumericalBreakdown,
                           PartitionInvalid)
from oracles import bar_vector, dense_span, product_closure_residual, random_element


def test_m2_over_scalars_gives_full_operator_algebra(analyses):
    an = analyses["explicit_m2_grading"]
    bc = an.basic
    assert bc.algebra.dim == 16          # all of B(H) for dim H = 4
    eye = np.eye(an.gns.dim)
    assert abs(bc.lifted_value(bc.algebra.coords(eye)) - 4.0) < 1e-9  # trace of 1
    assert abs(bc.lifted_value(bc.e_coords) - 1.0) < 1e-9  # rank-one projection
    assert len(bc.u_bar) == 16


def test_full_subsystem_collapses(analyses):
    an = analyses["full_subsystem_m2"]
    bc = an.basic
    assert bc.algebra.dim == an.built.system.algebra.dim
    assert np.abs(bc.e - np.eye(an.gns.dim)).max() < 1e-10
    assert len(bc.u_bar) == an.gns.dim
    one = bc.algebra.coords(np.eye(an.gns.dim))
    assert abs(bc.lifted_value(one) - 1.0) < 1e-9  # mu itself


def test_tensor_dimension_count(analyses):
    an = analyses["tensor_diag2_m2"]
    balg, calg = (f.algebra for f in an.built.factors)
    assert an.basic.algebra.dim == balg.dim * calg.dim ** 2  # 2 * 16
    one = an.basic.algebra.coords(np.eye(an.gns.dim))
    assert abs(an.basic.lifted_value(one) - calg.dim) < 1e-9


def test_skew_bar_space_dimension(analyses):
    an = analyses["skew_z4_inversion"]
    assert an.basic.algebra.dim == 48
    assert len(an.basic.u_bar) == 48


def test_lifted_trace_identity_on_random_pairs(analyses):
    rng = np.random.default_rng(17)
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        alg = an.built.system.algebra
        for _ in range(20):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            x = gns.left(a) @ bc.e @ gns.left(b)
            lifted = bc.lifted_value(bc.algebra.coords(x))
            assert abs(lifted - an.built.system.trace.value(a @ b)) < 1e-9, name


def test_lifted_trace_is_positive_and_faithful(analyses):
    rng = np.random.default_rng(23)
    for name, an in analyses.items():
        bc = an.basic
        for _ in range(10):
            x = random_element(bc.algebra, rng)
            val = bc.lifted_value(bc.algebra.coords(x.conj().T @ x))
            assert val.real > 1e-12, name
            assert abs(val.imag) < 1e-9, name


def test_lifted_trace_monotone_on_projections(analyses):
    an = analyses["explicit_m2_grading"]
    bc = an.basic
    # P <= Q implies lifted(P) <= lifted(Q): compare e against identity
    one = bc.algebra.coords(np.eye(an.gns.dim))
    assert bc.lifted_value(bc.e_coords).real <= bc.lifted_value(one).real + 1e-12


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
            x = random_element(bc.algebra, rng)
            lhs = bc.u_bar @ bar_vector(bc, x)
            rhs = bar_vector(bc, bc.dynamics.apply(bc.algebra, x))
            assert np.abs(lhs - rhs).max() < 1e-9, name


def test_partition_formulas_agree_everywhere(analyses):
    for name, an in analyses.items():
        assert an.default_partition_residual < 1e-9, name
        if an.built.factors is not None:
            assert an.tensor_partition_residual < 1e-9, name
        else:
            assert an.tensor_partition_residual is None, name


def test_partition_agrees_on_random_elements(analyses):
    rng = np.random.default_rng(41)
    for name, an in analyses.items():
        bc = an.basic
        vs = default_partition(bc)
        resid = lifted_trace_via_partition(bc, vs)
        vecs = np.stack([bc.gns.apply_j(w.conj().T @ bc.gns.omega) for w in vs])
        for _ in range(100):
            x = random_element(bc.algebra, rng)
            extension = bc.lifted_value(bc.algebra.coords(x))
            partition = np.einsum("ia,ab,ib->", vecs.conj(), x, vecs,
                                  optimize=True)
            assert abs(extension - partition) < 1e-9, name
        assert resid < 1e-9, name


def test_partition_trivial_for_full_subsystem(analyses):
    an = analyses["full_subsystem_m2"]
    assert lifted_trace_via_partition(an.basic, [np.eye(an.gns.dim)]) < 1e-9


def test_partition_rejects_incomplete_family(analyses):
    an = analyses["tensor_diag2_m2"]
    vt = v.tensor_partition_isometries(*an.built.factors)
    with pytest.raises(PartitionInvalid):
        lifted_trace_via_partition(an.basic, vt[:-1])


def test_default_partition_members_live_in_mirror_algebra(analyses):
    """Each v_i lies in j(<A, e>), so j(v_i) lies in <A, e>."""
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        for w in default_partition(bc):
            assert bc.algebra.membership_residual(gns.j_op(w)) < 1e-9, name


def test_lifted_trace_identity_via_alg_bar_membership(analyses):
    # a e b spans the constructed algebra (two-sided ideal is everything)
    an = analyses["classical_4cycle"]
    gns, bc = an.gns, an.basic
    x = gns.left_mats[0] @ bc.e @ gns.left_mats[1]
    assert bc.algebra.membership_residual(x) < 1e-9


def test_default_partition_uses_given_tolerance(analyses):
    # block k of e has rank n_k (e j(q_k) H = F q_k Omega), so the partition
    # has max_k ceil(m_k / n_k) members, not dim <A, e>; a rank cutoff of 2
    # drops every singular value 1 of those blocks
    for name, an in analyses.items():
        bc = an.basic
        assert len(default_partition(bc)) == max(-(-m // n) for _, n, m in bc.blocks), name
    bc = analyses["classical_4cycle"].basic
    with pytest.raises(NumericalBreakdown, match="rank cutoff 2 drops e from a block"):
        default_partition(bc, v.ToleranceConfig(eps_rank=2.0))


def test_default_partition_below_roundoff_names_the_cutoff(shipped_descriptions):
    """At 1e-17, below the pipeline's guard, e keeps two noise directions in
    each block of classical_4cycle's <A, e>, where n_k = 1: a failed rank
    decision, not a partition that the user supplied."""
    tol = v.ToleranceConfig(eps_rank=1e-17)
    built = v.descriptions.build_from_description(
        shipped_descriptions["classical_4cycle"], tol)
    bc = v.build_basic_construction(v.build_gns(built.system, tol), built.sub, tol)
    assert [n for _, n, _ in bc.blocks] == [1, 1]
    with pytest.raises(NumericalBreakdown, match=r"^rank cutoff 1e-17 gives e the ranks "
                       r"\[2, 2\] in the blocks of <A, e>, not n_k = \[1, 1\]$"):
        default_partition(bc, tol)


@pytest.mark.parametrize("name, widths, sizes", [
    ("full_subsystem_m2", r"\[4\]", r"\[2\]"),
    ("finite_extension_m2", r"\[16, 8, 8\]", r"\[8, 4, 4\]")])
def test_frame_widths_below_roundoff_name_the_cutoff(shipped_descriptions, name,
                                                     widths, sizes):
    """At 1e-17, below the pipeline's guard, the orthonormal basis of each
    j(q_k) H keeps noise columns: twice the width m_k that the Bratteli count
    gives, refused where the frames are made."""
    tol = v.ToleranceConfig(eps_rank=1e-17)
    built = v.descriptions.build_from_description(shipped_descriptions[name], tol)
    gns = v.build_gns(built.system, tol)
    with pytest.raises(NumericalBreakdown, match=rf"^rank cutoff 1e-17 gives the frames "
                       rf"of j\(q_k\) H the widths {widths}, not m_k = {sizes}$"):
        v.build_basic_construction(gns, built.sub, tol)


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


def _blocks(an):
    sub_alg = an.built.sub.algebra
    return v.bratteli_blocks(an.built.system.algebra, sub_alg, v.matrix_units(sub_alg))


def test_closure_residual_fails_on_a_truncated_span(analyses, monkeypatch):
    """The closure oracle sees a missing row of the dense span; the
    pipeline's dimension count rejects a span one block coordinate short
    before the Jones relation is tried."""
    span_coords = basic._span_coords
    for name, an in analyses.items():
        gns, bc = an.gns, an.basic
        gens = list(gns.left_mats) + [bc.e]
        dense = dense_span(bc)
        assert product_closure_residual(dense, gens) < 1e-12, name
        short = v.MatrixStarAlgebra(gns.dim, dense.basis[:-1].copy())
        assert product_closure_residual(short, gens) > 0.1, name

        def dropped(*args):
            cols = span_coords(*args).copy()
            cols[:, -1] = 0.0
            return cols
        with monkeypatch.context() as mp:
            mp.setattr(basic, "_span_coords", dropped)
            with pytest.raises(CommutantMismatch, match="disagree"):
                v.build_basic_construction(gns, an.built.sub)


def test_extension_threshold_follows_eps_assert(analyses):
    an = analyses["explicit_m2_grading"]
    frame = v.cyclic_subspace_frame(an.gns, an.built.sub)
    corners = basic._corner_factors(an.gns, frame, an.basic.algebra)
    with pytest.raises(ExtensionInconsistent):
        lifted_trace(an.gns, corners, an.basic.algebra, _blocks(an),
                     ToleranceConfig(eps_assert=1e-30))


def test_jones_relation_needs_the_identity(analyses):
    """The span of e alone misses the identity, which is checked before the
    relation itself."""
    an = analyses["classical_4cycle"]
    e = an.basic.e
    assert np.trace(e).real < an.gns.dim - 0.5
    e_only = v.MatrixStarAlgebra(an.gns.dim, (e / np.linalg.norm(e))[None])
    with pytest.raises(ExtensionInconsistent,
                       match=r"span\(A e A\) does not contain the identity \(residual"):
        basic._jones_relation(an.gns, an.built.sub, e, e_only, v.DEFAULT_TOL)


def test_partition_formula_refuses_a_disagreeing_trace(analyses):
    """A valid partition read against a doubled closed-form trace."""
    bc = analyses["tensor_diag2_m2"].basic
    doubled = dataclasses.replace(bc, trace_vector=2 * bc.trace_vector)
    with pytest.raises(ExtensionInconsistent,
                       match="partition formula disagrees with the closed-form trace"):
        lifted_trace_via_partition(doubled, default_partition(bc))
