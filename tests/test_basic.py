import dataclasses
import re

import numpy as np
import pytest

import vnspec as v
from vnspec import basic
from vnspec.algebra import ToleranceConfig
from vnspec.basic import default_partition, lifted_trace_via_partition
from vnspec.errors import (CommutantMismatch, ExtensionInconsistent, NumericalBreakdown,
                           PartitionInvalid)
from conftest import at_tolerance
from oracles import (bar_vector, corner_stacks, dense_span, product_closure_residual,
                     random_element)


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
        images = an.built.system.algebra.from_coords(
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
    # the partition reads the system's cutoff: a copy of the construction
    # whose system holds eps_rank 2 (no build passes there)
    bc = at_tolerance(analyses["classical_4cycle"].basic, v.ToleranceConfig(eps_rank=2.0))
    with pytest.raises(NumericalBreakdown, match="rank cutoff 2 drops e from a block"):
        default_partition(bc)


def test_default_partition_below_roundoff_names_the_cutoff(shipped_descriptions):
    """At 1e-17, below the pipeline's guard, e keeps two noise directions in
    each block of classical_4cycle's <A, e>, where n_k = 1: a failed rank
    decision, not a partition that the user supplied."""
    tol = v.ToleranceConfig(eps_rank=1e-17)
    built = v.descriptions.build_from_description(
        shipped_descriptions["classical_4cycle"], tol)
    bc = v.build_basic_construction(v.build_gns(built.system), built.sub)
    assert [n for _, n, _ in bc.blocks] == [1, 1]
    with pytest.raises(NumericalBreakdown, match=r"^rank cutoff 1e-17 gives e the ranks "
                       r"\[2, 2\] in the blocks of <A, e>, not n_k = \[1, 1\]$"):
        default_partition(bc)


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
    gns = v.build_gns(built.system)
    with pytest.raises(NumericalBreakdown, match=rf"^rank cutoff 1e-17 gives the frames "
                       rf"of j\(q_k\) H the widths {widths}, not m_k = {sizes}$"):
        v.build_basic_construction(gns, built.sub)


def test_pipeline_passes_file_tolerance_to_partition(shipped_descriptions,
                                                     monkeypatch):
    from vnspec import pipeline
    seen = []

    def spy(bc):
        seen.append(bc.gns.system.tol.eps_rank)
        return default_partition(bc)
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
    *_, corners = corner_stacks(an.basic)
    with pytest.raises(ExtensionInconsistent):
        basic._lifted_trace(an.gns, corners, an.basic.algebra, _blocks(an),
                            ToleranceConfig(eps_assert=1e-30))


def test_jones_relation_needs_the_identity(analyses):
    """The span of e alone misses the identity, which is checked before the
    relation itself."""
    an = analyses["classical_4cycle"]
    e = an.basic.e
    assert np.trace(e).real < an.gns.dim - 0.5
    e_only = v.MatrixStarAlgebra(an.gns.dim, (e / np.linalg.norm(e))[None])
    left_e, _, e_left_e, _ = corner_stacks(an.basic)
    with pytest.raises(ExtensionInconsistent,
                       match=r"span\(A e A\) does not contain the identity \(residual"):
        basic._jones_relation(an.built.sub, an.basic.e_frame, left_e, e_left_e, e_only,
                              v.DEFAULT_TOL)


def test_partition_formula_refuses_a_disagreeing_trace(analyses):
    """A valid partition read against a doubled closed-form trace."""
    bc = analyses["tensor_diag2_m2"].basic
    doubled = dataclasses.replace(bc, trace_vector=2 * bc.trace_vector)
    with pytest.raises(ExtensionInconsistent,
                       match="partition formula disagrees with the closed-form trace"):
        lifted_trace_via_partition(doubled, default_partition(bc))


# --- fault injection: the block split of A and the lifted system -------------

def _shipped_analysis(analyses, name):
    an = analyses[name]
    return an, an.gns, an.built.sub


def test_a_block_split_off_the_bratteli_counts_is_refused(analyses, monkeypatch):
    """Right multiplication by p_k splits A into n_k m_k = 16, 4 and 4
    dimensions here; counts of 16, 5 and 3 are refused before the frames
    of j(F)' are built."""
    an, gns, sub = _shipped_analysis(analyses, "finite_extension_m2")
    blocks = v.bratteli_blocks

    def shifted(*args):
        (p0, n0, m0), (p1, n1, m1), (p2, n2, m2) = blocks(*args)
        return [(p0, n0, m0), (p1, n1, m1 + 1), (p2, n2, m2 - 1)]
    monkeypatch.setattr(basic, "bratteli_blocks", shifted)
    with pytest.raises(NumericalBreakdown, match=re.escape(
            "splits (F, A) into dimensions [(4, 16), (1, 4), (1, 4)], not (n_k^2, "
            "n_k m_k) = [(4, 16), (1, 5), (1, 3)]")):
        v.build_basic_construction(gns, sub)


def test_x_i_of_a_block_are_kept_and_the_rest_rotated(analyses):
    """The x_i that lie in one A p_k are today's whitened x_i, in block
    order; on finite_extension_m2 the 8 x_i across p_1 and p_2 are rotated,
    and every x_i of block k lies in A p_k."""
    for name, an in analyses.items():
        bc, gns = an.basic, an.gns
        whitened = basic._whitener(gns.left_mats @ basic.cyclic_subspace_frame(
            gns, an.built.sub)).T
        table, alg = an.built.system.table, an.built.system.algebra
        kept = 0
        for (rows, _), (p, n, m) in zip(bc.block_slices, bc.blocks):
            xs = bc.x_coords[rows.start // len(bc.b_coords):rows.stop // len(bc.b_coords)]
            assert len(xs) == n * m, name
            moved = np.tensordot(xs, np.tensordot(table, alg.coords(p), axes=(1, 0)),
                                 axes=(1, 0))  # coords of x p_k
            assert np.abs(moved - xs).max() <= 1e-9 * np.abs(xs).max(), name
            kept += sum(np.abs(whitened - x).max(axis=1).min() == 0.0 for x in xs)
        assert kept == (16 if name == "finite_extension_m2" else len(whitened)), name


def test_off_block_span_entry_is_refused(analyses, monkeypatch):
    """x_{k,i} e b_s lies in block k of <A, e>; an entry of 1e-6 in another
    block keeps every block's rank and fails the inclusion."""
    an, gns, sub = _shipped_analysis(analyses, "skew_z4_inversion")
    span = basic._span_coords

    def leaking(*args):
        cols = span(*args).copy()
        cols[0, -1] += 1e-6
        return cols
    monkeypatch.setattr(basic, "_span_coords", leaking)
    with pytest.raises(CommutantMismatch, match=r"\(dim 48\) and j\(F\)' \(dim 48 .*"
                       r"ranks \[16, 16, 16\] by block, off-block residual 1\.00e-06"):
        v.build_basic_construction(gns, sub)


def test_dynamics_onto_a_block_of_another_shape_is_refused(analyses):
    """A unitary that swaps the range of p_1 (n = 1, m = 4) with half of
    that of p_0 (n = 2, m = 8) moves block 1 onto block 0."""
    an, gns, sub = _shipped_analysis(analyses, "finite_extension_m2")
    bc = an.basic
    (p0, _, _), (p1, _, _), _ = bc.blocks
    w0, w1 = (np.linalg.eigh(p)[1][:, -round(np.trace(p).real):] for p in (p0, p1))
    half = w0[:, :w1.shape[1]]
    swap = (np.eye(len(p0)) - w1 @ w1.conj().T - half @ half.conj().T
            + half @ w1.conj().T + w1 @ half.conj().T)
    system = an.built.system
    moved = dataclasses.replace(system, dynamics=v.StarAutomorphism(
        system.dynamics.matrix, swap))
    with pytest.raises(NumericalBreakdown, match="^the dynamics moves a central block "
                       "of F onto one of another shape$"):
        basic._lifted_dynamics(dataclasses.replace(gns, system=moved), bc.algebra,
                               bc.blocks, v.matrix_units(sub.algebra), v.DEFAULT_TOL)


def _with_trace_vector(monkeypatch, change):
    """_lifted_trace returning ``change`` of the closed-form vector."""
    closed = basic._lifted_trace

    def changed(gns, corners, alg, blocks, tol):
        vector, defining = closed(gns, corners, alg, blocks, tol)
        return change(alg, vector), defining
    monkeypatch.setattr(basic, "_lifted_trace", changed)


def test_a_functional_that_is_not_tracial_is_refused(analyses, monkeypatch):
    """Block 0 weighted by diag(1.1, 0.9, 1, 1) instead of the identity: still
    faithful, not a trace."""
    an, gns, sub = _shipped_analysis(analyses, "tensor_diag2_m2")

    def skewed(alg, vector):
        blocks = alg.blocks(vector.copy())
        blocks[0] = blocks[0] @ np.diag([1.1, 0.9, 1.0, 1.0])
        return alg.join(blocks)
    _with_trace_vector(monkeypatch, skewed)
    with pytest.raises(NumericalBreakdown, match=r"^lifted system: functional is not "
                       r"tracial on the algebra \(residual \d"):
        v.build_basic_construction(gns, sub)


def test_a_trace_that_the_dynamics_moves_is_refused(analyses, monkeypatch):
    """Doubling the weight of block 0, which pi carries to block 1, keeps a
    faithful trace that conjugation by U does not preserve."""
    an, gns, sub = _shipped_analysis(analyses, "skew_z4_inversion")
    assert list(an.basic.perm) != [0, 1, 2]

    def doubled(alg, vector):
        blocks = alg.blocks(vector.copy())
        blocks[0] = 2 * blocks[0]
        return alg.join(blocks)
    _with_trace_vector(monkeypatch, doubled)
    with pytest.raises(NumericalBreakdown, match="^lifted system: conjugation by the "
                       "unitary does not preserve the trace$"):
        v.build_basic_construction(gns, sub)
