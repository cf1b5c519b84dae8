import numpy as np
import pytest

import vnspec as v
from conftest import E11, E12, E21
from oracles import random_element, vector_of

TOL = 1e-10


def gns_invariant_residuals(gns: v.GnsSpace) -> dict[str, float]:
    """Numerical residuals of the defining GNS identities."""
    alg = gns.system.algebra
    d, dim = alg.dim, gns.dim
    eye = np.eye(dim)
    k = gns.conj_matrix
    u = gns.u_matrix
    out = {}
    # <Omega, a Omega> = mu(a) on the basis
    vals = np.array([np.vdot(gns.omega, gns.left_mats[i] @ gns.omega)
                     for i in range(d)])
    out["cyclic_vector_trace"] = float(
        np.abs(vals - gns.system.trace.values(alg.basis)).max())
    # J is an involution and antiunitary
    out["j_involution"] = float(np.abs(k @ k.conj() - eye).max())
    out["j_antiunitary"] = float(np.abs(k.conj().T @ k - eye).max())
    out["j_fixes_omega"] = float(np.abs(k @ gns.omega.conj() - gns.omega).max())
    # J(a Omega) = a* Omega
    star_vecs = gns.to_vector @ alg.coords_stack(
        alg.basis.conj().transpose(0, 2, 1)).T
    plain_vecs = gns.to_vector @ np.eye(d)
    out["j_star_vector"] = float(
        np.abs(k @ plain_vecs.conj() - star_vecs).max())
    # U unitary, U Omega = Omega, U a U* = alpha(a)
    out["u_unitary"] = float(np.abs(u @ u.conj().T - eye).max())
    out["u_fixes_omega"] = float(np.abs(u @ gns.omega - gns.omega).max())
    images = alg.from_coords_stack(gns.system.dynamics.matrix.T)
    conj_resid = 0.0
    for i in range(d):
        lhs = u @ gns.left_mats[i] @ u.conj().T
        conj_resid = max(conj_resid, float(np.abs(lhs - gns.left(images[i])).max()))
    out["u_implements_dynamics"] = conj_resid
    out["uj_commute"] = float(np.abs(u @ k - k @ u.conj()).max())
    # left and right actions commute
    comm = 0.0
    for i in range(d):
        ji = gns.j_op(gns.left_mats[i])
        resid = np.abs(gns.left_mats @ ji - ji @ gns.left_mats).max()
        comm = max(comm, float(resid))
    out["left_right_commute"] = comm
    return out


def _scalar_system():
    alg = v.generate_algebra([], 1)
    tr = v.trace_functional(np.eye(1))
    dyn = v.automorphism_from_unitary(alg, np.eye(1), tr)
    return v.system(alg, tr, dyn)


def test_gns_of_scalars_is_one_dimensional():
    gns = v.build_gns(_scalar_system())
    assert gns.dim == 1
    assert np.abs(gns.u_matrix - np.eye(1)).max() < TOL
    assert np.abs(gns.conj_matrix - np.eye(1)).max() < TOL


def test_gns_dimension_and_gram_for_m2(m2_grading):
    gns = v.build_gns(m2_grading.system)
    assert gns.dim == 4
    vec = vector_of(gns, E11)
    assert abs(np.vdot(vec, vec) - 0.5) < TOL  # mu(E11* E11) = 1/2


def test_gns_weighted_diagonal_gram():
    alg = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    tr = v.trace_functional(np.diag([1 / 3, 2 / 3]))
    dyn = v.automorphism_from_unitary(alg, np.eye(2), tr)
    gns = v.build_gns(v.system(alg, tr, dyn))
    v1 = vector_of(gns, E11)
    v2 = vector_of(gns, np.diag([0.0, 1.0]))
    assert abs(np.vdot(v1, v1) - 1 / 3) < TOL
    assert abs(np.vdot(v2, v2) - 2 / 3) < TOL
    assert abs(np.vdot(v1, v2)) < TOL


def test_gns_invariants_on_all_shipped(analyses):
    for name, an in analyses.items():
        res = gns_invariant_residuals(an.gns)
        worst = max(res.values())
        assert worst < 1e-9, (name, res)


def test_inner_product_reproduces_trace(analyses):
    rng = np.random.default_rng(5)
    for name, an in analyses.items():
        sys = an.built.system
        gns = an.gns
        for _ in range(10):
            a = random_element(sys.algebra, rng)
            b = random_element(sys.algebra, rng)
            ip = np.vdot(vector_of(gns, a), vector_of(gns, b))
            assert abs(ip - sys.trace.value(a.conj().T @ b)) < 1e-9, name


def test_cyclic_projection_ranks(m2_grading, m2_over_diagonal, analyses):
    gns = v.build_gns(m2_grading.system)
    frame = v.cyclic_subspace_frame(gns, m2_grading.sub)
    assert frame.shape == (4, 1)  # F = C1
    gns2 = v.build_gns(m2_over_diagonal.system)
    frame2 = v.cyclic_subspace_frame(gns2, m2_over_diagonal.sub)
    assert frame2.shape == (4, 2)  # dim F Omega = dim F
    assert np.abs(frame2.conj().T @ frame2 - np.eye(2)).max() < 1e-12
    an = analyses["full_subsystem_m2"]
    assert np.abs(an.basic.e - np.eye(an.gns.dim)).max() < 1e-9  # F = A


def test_cyclic_projection_reproduces_expectation(analyses):
    rng = np.random.default_rng(7)
    for name, an in analyses.items():
        sys, sub = an.built.system, an.built.sub
        exp = sub.expectation
        for _ in range(5):
            a = random_element(sys.algebra, rng)
            lhs = an.basic.e @ vector_of(an.gns, a)
            rhs = vector_of(an.gns, exp.apply(a))
            assert np.abs(lhs - rhs).max() < 1e-9, name


def test_cyclic_projection_commutes_with_subalgebra_and_dynamics(analyses):
    for name, an in analyses.items():
        e, gns = an.basic.e, an.gns
        u = gns.u_matrix
        assert np.abs(u @ e @ u.conj().T - e).max() < 1e-9, name
        for f in an.built.sub.algebra.basis:
            lf = gns.left(f)
            assert np.abs(e @ lf - lf @ e).max() < 1e-9, name


def _right(gns, x, a):
    """Right module action x . a = j(a) x."""
    return gns.j_op(gns.left(a)) @ x


def test_right_action_on_cyclic_vector(m2_grading):
    gns = v.build_gns(m2_grading.system)
    a = E12 + 0.3 * E11
    # x a for x = Omega equals a Omega in the tracial case
    assert np.abs(_right(gns, gns.omega, a) - vector_of(gns, a)).max() < TOL
    x = vector_of(gns, E21)
    assert np.abs(_right(gns, x, np.eye(2)) - x).max() < TOL


def test_right_action_is_right_multiplication(m2_grading):
    gns = v.build_gns(m2_grading.system)
    rng = np.random.default_rng(2)
    alg = m2_grading.system.algebra
    for _ in range(5):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        x = vector_of(gns, b)
        # independent oracle: x . a = (b a) Omega
        assert np.abs(_right(gns, x, a)
                      - vector_of(gns, b @ a)).max() < 1e-10


def test_left_right_distinction(m2_grading):
    gns = v.build_gns(m2_grading.system)
    x = vector_of(gns, E12)
    right = _right(gns, x, E11)   # (E12 E11) Omega = 0
    left = gns.left(E11) @ x              # (E11 E12) Omega = E12 Omega
    assert np.abs(right).max() < TOL
    assert np.abs(left - x).max() < TOL


def test_right_action_is_a_right_action(m2_grading):
    gns = v.build_gns(m2_grading.system)
    rng = np.random.default_rng(4)
    alg = m2_grading.system.algebra
    x = vector_of(gns, random_element(alg, rng))
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    once = _right(gns, _right(gns, x, a), b)
    composed = _right(gns, x, a @ b)
    assert np.abs(once - composed).max() < 1e-10


def test_trace_not_faithful_raises():
    alg = v.generate_algebra([E12], 2)
    # positive but unfaithful density on the full matrix algebra
    tr = v.TraceFunctional(np.diag([1.0, 0.0]).astype(complex), normalized=True)
    dyn = v.StarAutomorphism(np.eye(4, dtype=complex), np.eye(2, dtype=complex))
    table, star = v.algebra.multiplication_table(alg)
    sys = v.WStarSystem(alg, tr, dyn, v.gram_matrix(alg, tr), table, star,
                        v.algebra.eigenmodes(dyn.matrix), np.ones((4, 1)))
    with pytest.raises(v.errors.TraceNotFaithful):
        v.build_gns(sys)


def test_mirrored_expectation_agrees_on_cyclic_vector(analyses):
    # D'(b) Omega = D(j(b)) Omega for commutant elements b
    rng = np.random.default_rng(19)
    for name, an in analyses.items():
        gns = an.gns
        exp = an.built.sub.expectation
        for _ in range(5):
            a = random_element(an.built.system.algebra, rng)
            conditioned = gns.left(exp.apply(a))
            lhs = gns.j_op(conditioned) @ gns.omega
            rhs = conditioned @ gns.omega
            assert np.abs(lhs - rhs).max() < 1e-9, name


def test_conjugation_fixes_cyclic_subspace(analyses):
    # J e J = e, i.e. the modular conjugation preserves the F-cyclic subspace
    for name, an in analyses.items():
        k, e = an.gns.conj_matrix, an.basic.e
        assert np.abs(k @ e.conj() @ k.conj() - e).max() < 1e-9, name
