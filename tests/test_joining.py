from dataclasses import replace

import numpy as np
import pytest

import vnspec as v
from vnspec import linalg
from vnspec.errors import IsometryViolation, NumericalBreakdown
from test_routes import joining_gram_by_eigh, simple_tensor_vectors
from oracles import bar_vector, commutant, random_element


def test_commutant_system_dimensions_and_trace(analyses):
    for name, an in analyses.items():
        gns = an.gns
        # mu'(j(a)) = mu(a) on the left algebra
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = random_element(an.built.system.algebra, rng)
            jb = gns.j_op(gns.left(a))
            lhs = np.vdot(gns.omega, jb @ gns.omega)
            assert abs(lhs - an.built.system.trace.value(a)) < 1e-9, name


def test_commutant_of_left_algebra_is_mirror(m2_grading):
    gns = v.build_gns(m2_grading.system)
    left_rows = gns.left_mats.reshape(4, -1)
    from vnspec import linalg
    onb = linalg.extend_orthonormal(np.zeros((0, 16), dtype=complex),
                                    left_rows, 1e-10)
    left_alg = v.MatrixStarAlgebra(4, onb.reshape(-1, 4, 4))
    comm = commutant(left_alg)
    assert comm.dim == 4
    # the commutant is exactly the mirrored algebra j(A)
    for x in left_alg.basis:
        assert comm.membership_residual(gns.j_op(x)) < 1e-9


def test_joining_state_normalized_and_invariant(analyses):
    for name, an in analyses.items():
        jd = an.joining
        alg = an.built.system.algebra
        ident = alg.coords(alg.identity())
        total = ident.conj() @ jd.omega_values @ ident
        assert abs(total - 1.0) < 1e-9, name          # omega(1 (x) 1) = 1
        assert jd.marginal_residual < 1e-9, name
        assert jd.two_formula_residual < 1e-9, name
        assert jd.invariance_residual < 1e-9, name
        assert jd.h_lambda_alt_residual < 1e-9, name  # both F-span descriptions


def test_joining_of_full_subsystem_is_diagonal(analyses):
    # diagonal joining: omega(a (x) j(b)) = <Omega, a j(b) Omega> with D = id
    an = analyses["full_subsystem_m2"]
    gns = an.gns
    alg = an.built.system.algebra
    for i in range(alg.dim):
        for j in range(alg.dim):
            jb = gns.j_op(gns.left_mats[j])
            expected = np.vdot(gns.omega, gns.left_mats[i] @ jb @ gns.omega)
            assert abs(an.joining.omega_values[i, j] - expected) < 1e-9


def test_joining_of_trivial_subsystem_is_product(analyses):
    an = analyses["explicit_m2_grading"]
    alg = an.built.system.algebra
    mu = an.built.system.trace.values(alg.basis)
    expected = np.outer(mu, mu)
    assert np.abs(an.joining.omega_values - expected).max() < 1e-9


def test_gram_positive_and_quotient_rank(analyses):
    for name, an in analyses.items():
        jd = an.joining
        gram, _, _ = joining_gram_by_eigh(an.gns, an.basic)
        vals = np.linalg.eigvalsh(gram)
        assert vals.min() > -1e-9, name
        assert jd.rank == len(an.basic.u_bar), name


def test_w_unitary_and_fixes_cyclic_vector(analyses):
    for name, an in analyses.items():
        jd, alg = an.joining, an.built.system.algebra
        eye = np.eye(jd.rank)
        assert np.abs(jd.w_matrix @ jd.w_matrix.conj().T - eye).max() < 1e-9, name
        # Omega = gamma(1 (x) j(1)), a combination of the simple tensors
        one = alg.coords(alg.identity())
        omega = simple_tensor_vectors(jd) @ np.kron(one, one)
        assert abs(np.linalg.norm(omega) - 1.0) < 1e-9, name  # omega(1) = 1
        assert np.abs(jd.w_matrix @ omega - omega).max() < 1e-9, name


def test_equivalence_matches_defining_columns(analyses):
    rng = np.random.default_rng(9)
    for name, an in analyses.items():
        gns, bc, jd, r = an.gns, an.basic, an.joining, an.equivalence
        alg = an.built.system.algebra
        d = alg.dim
        vecs = simple_tensor_vectors(jd)
        # R gamma(a (x) j(b)) = gamma_bar(a e b) on random simple tensors
        for _ in range(20):
            ca = np.zeros(d, dtype=complex)
            cb = np.zeros(d, dtype=complex)
            ca[rng.integers(d)] = 1.0
            cb[rng.integers(d)] = 1.0
            a, b = alg.from_coords(ca), alg.from_coords(cb)
            lhs = r @ (vecs @ np.kron(ca, cb))
            rhs = bar_vector(bc, gns.left(a) @ bc.e @ gns.left(b))
            assert np.abs(lhs - rhs).max() < 1e-9, name


def test_isometry_identity_on_random_simple_tensors(analyses):
    rng = np.random.default_rng(13)
    for name, an in analyses.items():
        gns, bc, jd = an.gns, an.basic, an.joining
        alg = an.built.system.algebra
        d = alg.dim
        vecs = simple_tensor_vectors(jd)
        for _ in range(100):
            ca = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / d
            cb = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / d
            a, b = alg.from_coords(ca), alg.from_coords(cb)
            tens = np.kron(ca, cb)
            # <gamma_bar(R0 s), gamma_bar(R0 t)> = <gamma(s), gamma(t)>
            bar_vec = bar_vector(bc, gns.left(a) @ bc.e @ gns.left(b))
            join_vec = vecs @ tens
            assert abs(np.vdot(bar_vec, bar_vec)
                       - np.vdot(join_vec, join_vec)) < 1e-9, name


def test_cyclic_vector_images_are_fixed(analyses):
    for name, an in analyses.items():
        bc, jd = an.basic, an.joining
        gamma_e = bar_vector(bc, bc.e)
        assert np.abs(bc.u_bar @ gamma_e - gamma_e).max() < 1e-9, name


def test_relative_ergodicity_cases(analyses, m2_over_diagonal):
    # F = A: always ergodic relative to itself
    an = analyses["full_subsystem_m2"]
    assert v.relative_ergodicity_check(an.joining).holds
    # A strictly bigger than F at finite dimension: never relatively ergodic
    for name in ("explicit_m2_grading", "skew_z4_inversion", "classical_4cycle"):
        an = analyses[name]
        chk = v.relative_ergodicity_check(an.joining)
        assert not chk.holds, name
    # identity dynamics over the trivial subsystem: fixed vectors everywhere
    sys, sub = m2_over_diagonal.system, m2_over_diagonal.sub
    gns = v.build_gns(sys)
    bc = v.build_basic_construction(gns, sub)
    jd = v.relative_joining(bc)
    assert not v.relative_ergodicity_check(jd).holds


def test_joining_rejects_a_dynamics_that_moves_f(m2_over_diagonal):
    """Ad(w) for a 45 degree rotation w keeps the trace of M_2 but moves the
    diagonal F, so mu o (E (x) E') is not invariant under alpha (x) alpha'."""
    sys, sub = m2_over_diagonal.system, m2_over_diagonal.sub
    gns = v.build_gns(sys)
    bc = v.build_basic_construction(gns, sub)
    w = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    moved = v.system(sys.algebra, sys.trace, w)
    with pytest.raises(NumericalBreakdown, match="not invariant"):
        v.relative_joining(replace(bc, gns=replace(gns, system=moved),
                                   sub=replace(sub, parent=moved)))


def test_joining_rejects_unequal_f_subspaces(analyses, monkeypatch):
    """The 1 (x) j(F) description of the F-subspace loses a vector."""
    an = analyses["classical_4cycle"]
    orthonormal, calls = linalg.orthonormal_columns, []

    def second_short(cols, eps_rank):
        calls.append(cols)
        q = orthonormal(cols, eps_rank)
        return q[:, :-1] if len(calls) == 2 else q
    monkeypatch.setattr(linalg, "orthonormal_columns", second_short)
    with pytest.raises(NumericalBreakdown, match="span different subspaces"):
        v.relative_joining(an.basic)
    assert len(calls) == 2


def test_equivalence_refuses_a_rank_mismatch(analyses):
    jd = analyses["classical_4cycle"].joining
    short = replace(jd, gamma=jd.gamma[:-1])
    with pytest.raises(IsometryViolation, match=f"joining GNS rank {jd.rank - 1} differs "
                       f"from basic-construction dimension {jd.rank}"):
        v.joining_equivalence(short)


def test_equivalence_refuses_a_dynamics_it_does_not_intertwine(analyses):
    """-W is unitary and leaves R as it was, but R (-W) R* = -U_bar."""
    jd = analyses["classical_4cycle"].joining
    with pytest.raises(IsometryViolation, match="does not intertwine the dynamics"):
        v.joining_equivalence(replace(jd, w_matrix=-jd.w_matrix))


# --- fault injection: what the block route leaves out is measured ------------

def test_off_block_gram_entry_is_refused(analyses, monkeypatch):
    """The tensors of A p_k (x) j(A) are orthogonal to the other blocks'; a
    Hermitian pair of 1e-6 entries between blocks 0 and 1 of the Gram joins
    the factor's residual."""
    from vnspec import joining
    bc = analyses["classical_4cycle"].basic
    grams = joining._tensor_grams

    def leaking(*args):
        gram, *rest = grams(*args)
        gram = gram.copy()
        gram[0, -1] += 1e-6
        gram[-1, 0] += 1e-6
        return [gram, *rest]
    monkeypatch.setattr(joining, "_tensor_grams", leaking)
    with pytest.raises(NumericalBreakdown, match=r"loses rank in the joining: it drops a "
                       r"part \S+ of the scaled Gram at rank 8, largest dropped eigenvalue "
                       r"-inf, \S+ of it off the central blocks of F$"):
        v.relative_joining(bc)


def test_off_pattern_w_entry_is_refused(analyses):
    """W carries block k of the joining to block pi(k); an entry of 1e-6 in
    block (k, k), which pi moves, breaks the intertwining."""
    jd = analyses["classical_4cycle"].joining
    assert list(jd.basic.perm) == [1, 0]
    w = jd.w_matrix.copy()
    w[0, 0] += 1e-6
    with pytest.raises(IsometryViolation, match=r"does not intertwine the dynamics "
                       r"\(\d\.\d\de-07\)"):
        v.joining_equivalence(replace(jd, w_matrix=w))


def test_equivalence_refuses_ranks_that_miss_the_blocks(analyses):
    """The total rank matches dim <A, e>, but not block by block."""
    jd = analyses["classical_4cycle"].joining
    assert jd.ranks == (4, 4)
    with pytest.raises(IsometryViolation, match=r"joining GNS ranks \[5, 3\] by central "
                       r"block differ from the block dimensions \[4, 4\]"):
        v.joining_equivalence(replace(jd, ranks=(5, 3)))
