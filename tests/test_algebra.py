import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vnspec as v
from vnspec.algebra import multiplication_table
from vnspec.errors import (DimensionMismatch, NonSquareGenerator, NotUnitary,
                           NumericalBreakdown, SubsystemInvalid, TraceNotFaithful)
from conftest import E11, E12, E21, E22
from oracles import commutant, random_element, validate_algebra
from test_routes import validate_automorphism

TOL = v.DEFAULT_TOL


# --- generate_algebra ----------------------------------------------------

def test_generate_algebra_empty_gives_scalars():
    alg = v.generate_algebra([], 3)
    assert alg.dim == 1
    assert alg.membership_residual(np.eye(3)) < 1e-12


def test_generate_algebra_nilpotent_generates_full_m2():
    alg = v.generate_algebra([E12], 2)
    assert alg.dim == 4
    for m in (E11, E12, E21, E22):
        assert alg.membership_residual(m) < 1e-12


def test_generate_algebra_selfadjoint_stays_diagonal():
    alg = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    assert alg.dim == 2
    assert alg.membership_residual(E12) > 0.5


def test_generate_algebra_errors():
    with pytest.raises(NonSquareGenerator):
        v.generate_algebra([np.zeros((2, 3))], 2)
    with pytest.raises(DimensionMismatch):
        v.generate_algebra([np.eye(3)], 2)


@pytest.mark.parametrize("eps_rank", [1e-20, 1e-17, 1e-10])
def test_generate_algebra_refuses_a_cutoff_that_keeps_roundoff(eps_rank):
    """A cutoff below roundoff keeps noise directions once the span is all of
    M_2; the rows then outgrow N^2 = 4 or stop being orthonormal.  Either the
    result is the orthonormal basis of M_2 or a NumericalBreakdown names the
    cutoff."""
    tol = v.ToleranceConfig(eps_rank=eps_rank)
    try:
        alg = v.generate_algebra([E12], 2, tol)
    except NumericalBreakdown as exc:
        assert eps_rank < 1e-16 and f"rank cutoff {eps_rank:g}" in str(exc)
        return
    rows = alg.basis_rows()
    assert alg.dim == 4
    assert np.abs(rows @ rows.conj().T - np.eye(4)).max() < 1e-12


def test_generate_algebra_at_a_cutoff_of_1e_300_is_a_breakdown():
    with pytest.raises(NumericalBreakdown, match=r"rank cutoff 1e-300 .* M_2"):
        v.generate_algebra([E12], 2, v.ToleranceConfig(eps_rank=1e-300))


@st.composite
def small_generators(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    count = draw(st.integers(min_value=1, max_value=2))
    ints = st.integers(min_value=-2, max_value=2)
    gens = []
    for _ in range(count):
        re = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                           min_size=n, max_size=n))
        im = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                           min_size=n, max_size=n))
        gens.append((np.array(re, float) + 1j * np.array(im, float)) / 2.0)
    return n, gens


@settings(max_examples=25, deadline=None)
@given(small_generators())
def test_generated_algebra_is_closed_and_double_commutant_stable(data):
    n, gens = data
    alg = v.generate_algebra(gens, n)
    validate_algebra(alg)  # orthonormal, closed under products and adjoints
    rng = np.random.default_rng(0)
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    assert alg.membership_residual(a @ b) < 1e-9
    double = commutant(commutant(alg))
    assert double.dim == alg.dim
    assert max(double.membership_residual(x) for x in alg.basis) < 1e-9


def test_validate_algebra_rejects_a_span_without_the_identity():
    corner = v.MatrixStarAlgebra(2, E11[None].copy())  # closed under * and products
    with pytest.raises(NumericalBreakdown, match="unital"):
        validate_algebra(corner)


# --- commutant ------------------------------------------------------------

def test_commutant_of_scalars_is_everything():
    alg = v.generate_algebra([], 2)
    assert commutant(alg).dim == 4


def test_commutant_of_diagonal_is_diagonal():
    alg = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    comm = commutant(alg)
    assert comm.dim == 2
    assert comm.membership_residual(E11) < 1e-10


def test_commutant_of_full_matrix_algebra_is_scalars():
    alg = v.generate_algebra([E12], 2)
    comm = commutant(alg)
    assert comm.dim == 1
    assert comm.membership_residual(np.eye(2)) < 1e-10


# --- block decomposition: F's matrix units from one generic pair ---------------

def _assert_matrix_units(units):
    """Each unit is a partial isometry from the block's first projection,
    the minimal projections of a block are orthogonal, and the p_k are
    orthogonal projections summing to 1."""
    for p, us in zip(units.projections, units.units):
        q = us[0]
        qs = us @ us.conj().transpose(0, 2, 1)
        assert np.abs(us.conj().transpose(0, 2, 1) @ us - q).max() < 1e-12
        assert np.abs(qs.sum(axis=0) - p).max() < 1e-12
        assert np.abs(p @ p - p).max() < 1e-12
    total = sum(units.projections)
    assert np.abs(total - np.eye(len(total))).max() < 1e-12


def test_block_decomposition_factor():
    alg = v.generate_algebra([E12], 2)
    units = v.matrix_units(alg)
    assert [len(u) for u in units.units] == [2]
    assert np.abs(units.projections[0] - np.eye(2)).max() < 1e-10
    assert len(units.generators) == 2  # h and f
    _assert_matrix_units(units)


def test_block_decomposition_diagonal():
    alg = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    units = v.matrix_units(alg)
    assert [len(u) for u in units.units] == [1, 1]
    assert len(units.generators) == 1  # h alone generates a commutative F
    for p in units.projections:
        assert np.abs(p @ p - p).max() < 1e-10
    _assert_matrix_units(units)


def test_block_decomposition_two_full_blocks():
    g1 = np.zeros((4, 4), dtype=complex)
    g1[0, 1] = 1.0
    g2 = np.zeros((4, 4), dtype=complex)
    g2[2, 3] = 1.0
    alg = v.generate_algebra([g1, g2], 4)
    assert alg.dim == 8
    units = v.matrix_units(alg)
    assert [len(u) for u in units.units] == [2, 2]
    expected = {(2, 0), (0, 2)}
    got = {(int(round(np.trace(p[:2, :2]).real)),
            int(round(np.trace(p[2:, 2:]).real))) for p in units.projections}
    assert got == expected
    _assert_matrix_units(units)


def test_matrix_units_below_roundoff_name_the_cutoff():
    """M_2 keeps its one block at 1e-20, as no null space is taken; in
    M_2 (+) M_2 roundoff links the two blocks at that cutoff, so no pair
    gives sum n_k^2 = dim F, and the message names the cutoff."""
    m2 = v.generate_algebra([E12], 2)
    tol = v.ToleranceConfig(eps_rank=1e-20)
    assert [len(u) for u in v.matrix_units(m2, tol).units] == [2]
    g1, g2 = np.zeros((2, 4, 4), dtype=complex)
    g1[0, 1] = g2[2, 3] = 1.0
    alg = v.generate_algebra([g1, g2], 4)
    with pytest.raises(NumericalBreakdown,
                       match=r"^rank cutoff 1e-20: no generic pair gives matrix units of "
                             r"F \(sum n_k\^2 = 16 for dim F = 8, residual"):
        v.matrix_units(alg, tol)


# --- the eigenbasis of the dynamics ------------------------------------------

def _spied_eigh(monkeypatch):
    draws, eigh = [], np.linalg.eigh

    def spy(mat):
        draws.append(mat)
        return eigh(mat)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    return draws


def test_eigenmodes_redraw_a_phase_under_which_eigenphases_collide(monkeypatch):
    """theta_0 + theta_1 = -2 arg w for the first seeded phase w, so the
    Hermitian part of w alpha has one eigenvalue on both eigenvectors."""
    w = np.exp(2j * np.pi * np.random.default_rng(v.algebra.MODES_SEED).random())
    theta = np.array([0.4, -2 * np.angle(w) - 0.4, 1.3, 2.9])
    q, _ = np.linalg.qr(v.linalg.random_complex(np.random.default_rng(37), (4, 4)))
    alpha = q @ np.diag(np.exp(1j * theta)) @ q.conj().T
    draws = _spied_eigh(monkeypatch)
    lam, vecs = v.algebra.eigenmodes(alpha)
    assert len(draws) > 1
    assert np.abs(draws[0] - (w * alpha + (w * alpha).conj().T)).max() < 1e-12
    first = np.linalg.eigh(draws[0])[1]
    first_lam = np.diag(first.conj().T @ alpha @ first)
    assert np.abs(alpha @ first - first * first_lam).max() > 1e-3
    assert np.abs(alpha @ vecs - vecs * lam).max() <= TOL.eps_assert
    assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-12
    assert np.allclose(np.sort(np.mod(np.angle(lam), 2 * np.pi)),
                       np.sort(np.mod(theta, 2 * np.pi)), atol=1e-10)


def test_eigenmodes_refuse_a_non_normal_matrix(monkeypatch):
    draws = _spied_eigh(monkeypatch)
    with pytest.raises(NumericalBreakdown, match="eigenbasis"):
        v.algebra.eigenmodes(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert len(draws) == 20


# --- traces -------------------------------------------------------------

def test_trace_validation_rejects_unfaithful():
    alg = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    bad = v.trace_functional(np.diag([1.0, 0.0]))
    with pytest.raises(TraceNotFaithful):
        v.validate_trace(alg, bad, multiplication_table(alg)[0])


def test_trace_validation_rejects_nontracial():
    alg = v.generate_algebra([E12], 2)
    skew = v.trace_functional(np.diag([0.7, 0.3]))
    with pytest.raises(TraceNotFaithful):
        v.validate_trace(alg, skew, multiplication_table(alg)[0])


@pytest.mark.parametrize("density, message", [
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "density is not Hermitian"),
    (np.diag([1.5, -0.5]), "density is not positive semidefinite"),
    (np.eye(2), "normalized trace must send 1 to 1"),
])
def test_trace_validation_names_the_failed_condition(density, message):
    """A non-Hermitian density, an indefinite one and a faithful tracial
    density of trace 2 offered as a state."""
    alg = v.generate_algebra([E12], 2)
    with pytest.raises(TraceNotFaithful, match=f"^{message}$"):
        v.validate_trace(alg, v.trace_functional(density), multiplication_table(alg)[0])


def test_weighted_trace_on_diagonal_algebra_is_fine():
    alg = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    tr = v.trace_functional(np.diag([1 / 3, 2 / 3]))
    gram, _ = v.validate_trace(alg, tr, multiplication_table(alg)[0])
    assert gram.shape == (2, 2)


# --- automorphisms -------------------------------------------------------

def test_automorphism_from_unitary_rejects_nonunitary():
    alg = v.generate_algebra([E12], 2)
    tr = v.trace_functional(np.eye(2) / 2)
    with pytest.raises(NotUnitary):
        v.automorphism_from_unitary(alg, np.diag([1.0, 2.0]), tr)


def test_automorphism_from_unitary_rejects_a_wrong_shape():
    alg = v.generate_algebra([E12], 2)
    tr = v.trace_functional(np.eye(2) / 2)
    with pytest.raises(DimensionMismatch, match="^unitary has wrong shape$"):
        v.automorphism_from_unitary(alg, np.eye(3), tr)


def test_automorphism_coordinate_and_unitary_forms_agree():
    alg = v.generate_algebra([E12], 2)
    tr = v.trace_functional(np.eye(2) / 2)
    u = np.diag([1.0, 1.0j])
    auto = v.automorphism_from_unitary(alg, u, tr)
    # normalizing to coordinate form and rebuilding gives the same map
    rebuilt = v.StarAutomorphism(auto.matrix.copy(), auto.unitary)
    validate_automorphism(alg, rebuilt, tr)
    x = E12 + 0.5 * E21
    assert np.abs(auto.apply(alg, x) - rebuilt.apply(alg, x)).max() < 1e-12
    assert np.abs(auto.apply(alg, x) - u @ x @ u.conj().T).max() < 1e-12


# --- subsystems and conditional expectations ----------------------------------

def test_subsystem_accepts_invariant_subalgebra():
    alg = v.generate_algebra([E12], 2)
    tr = v.trace_functional(np.eye(2) / 2)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    dyn = v.automorphism_from_unitary(alg, swap, tr)
    sys = v.system(alg, tr, dyn)
    diag = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    sub = v.subsystem(sys, diag)  # the swap preserves the diagonal algebra
    assert sub.algebra.dim == 2


def test_subsystem_rejects_noninvariant_subalgebra():
    alg = v.generate_algebra([E12], 2)
    tr = v.trace_functional(np.eye(2) / 2)
    rot = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
    dyn = v.automorphism_from_unitary(alg, rot, tr)
    sys = v.system(alg, tr, dyn)
    diag = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    with pytest.raises(SubsystemInvalid, match="dynamics does not preserve"):
        v.subsystem(sys, diag)


def _diagonal_m2_system(weights=(0.5, 0.5)):
    """The diagonal algebra of M_2 under the identity dynamics."""
    alg = v.generate_algebra([np.diag([1.0, -1.0])], 2)
    tr = v.trace_functional(np.diag(weights))
    return v.system(alg, tr, v.automorphism_from_unitary(alg, np.eye(2), tr))


def test_subsystem_rejects_another_ambient_dimension():
    with pytest.raises(SubsystemInvalid, match="ambient dimensions differ"):
        v.subsystem(_diagonal_m2_system(), v.generate_algebra([], 3))


def test_subsystem_rejects_a_subalgebra_without_the_unit():
    """span{E11} is a *-algebra whose own unit E11 is not the unit of M_2."""
    corner = v.MatrixStarAlgebra(2, E11[None].copy())
    with pytest.raises(SubsystemInvalid, match="must contain the unit"):
        v.subsystem(_diagonal_m2_system(), corner)


def test_subsystem_rejects_a_subalgebra_outside_the_parent():
    """M_2 contains the unit but not in the diagonal algebra."""
    with pytest.raises(SubsystemInvalid, match="not contained in the parent"):
        v.subsystem(_diagonal_m2_system(), v.generate_algebra([E12], 2))


def test_subsystem_rejects_a_trace_unfaithful_at_its_own_cutoff():
    """The subsystem takes its own tolerances: an atom of weight 1e-9 is
    faithful at the system's eps_rank 1e-10 but not at 1e-8, where the
    Gram matrix of F = A has an eigenvalue below the cutoff."""
    sys = _diagonal_m2_system((1e-9, 1.0 - 1e-9))
    assert v.subsystem(sys, sys.algebra).algebra.dim == 2
    with pytest.raises(SubsystemInvalid, match="restricted trace is not faithful"):
        v.subsystem(sys, sys.algebra, v.ToleranceConfig(eps_rank=1e-8))


def test_conditional_expectation_onto_diagonal(m2_over_diagonal):
    sys, sub = m2_over_diagonal.system, m2_over_diagonal.sub
    exp = sub.expectation
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.abs(exp.apply(x) - np.diag([1.0, 4.0])).max() < 1e-12
    assert np.abs(exp.apply(np.eye(2)) - np.eye(2)).max() < 1e-12


def test_conditional_expectation_onto_scalars(m2_grading):
    sys, sub = m2_grading.system, m2_grading.sub
    exp = sub.expectation
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    # trace-preserving projection onto C1 is mu(x) 1
    mu = sys.trace.value(x)
    assert np.abs(exp.apply(x) - mu * np.eye(2)).max() < 1e-12


def test_conditional_expectation_identity_when_sub_is_all(analyses):
    an = analyses["full_subsystem_m2"]
    exp = an.built.sub.expectation
    assert np.abs(exp.matrix - np.eye(an.built.system.algebra.dim)).max() < 1e-10


coeffs = st.lists(st.integers(min_value=-3, max_value=3), min_size=8, max_size=8)


@settings(max_examples=30, deadline=None)
@given(coeffs, coeffs)
def test_conditional_expectation_properties(c1, c2):
    alg = v.generate_algebra([E12], 2)
    tr = v.trace_functional(np.eye(2) / 2)
    dyn = v.automorphism_from_unitary(alg, np.eye(2), tr)
    sys = v.system(alg, tr, dyn)
    sub = v.subsystem(sys, v.generate_algebra([np.diag([1.0, -1.0])], 2))
    exp = sub.expectation
    a = ((c1[0] + 1j * c1[1]) * E11 + (c1[2] + 1j * c1[3]) * E12
         + (c1[4] + 1j * c1[5]) * E21 + (c1[6] + 1j * c1[7]) * E22)
    f = np.diag([c2[0] + 1j * c2[1], c2[2] + 1j * c2[3]])
    g = np.diag([c2[4] + 1j * c2[5], c2[6] + 1j * c2[7]])
    # idempotent
    assert np.abs(exp.apply(exp.apply(a)) - exp.apply(a)).max() < 1e-10
    # bimodule property over the subalgebra
    lhs = exp.apply(f @ a @ g)
    rhs = f @ exp.apply(a) @ g
    assert np.abs(lhs - rhs).max() < 1e-10
    # trace preserving
    assert abs(sys.trace.value(exp.apply(a)) - sys.trace.value(a)) < 1e-10
    # positive on squares
    sq = exp.apply(a.conj().T @ a)
    assert np.linalg.eigvalsh((sq + sq.conj().T) / 2).min() > -1e-10


def test_conditional_expectation_commutes_with_dynamics(analyses):
    for name, an in analyses.items():
        sys, sub = an.built.system, an.built.sub
        exp = sub.expectation
        d_alpha = exp.matrix @ sys.dynamics.matrix
        alpha_d = sys.dynamics.matrix @ exp.matrix
        assert np.abs(d_alpha - alpha_d).max() < 1e-9, name


def test_trace_after_expectation_is_trace(analyses):
    rng = np.random.default_rng(11)
    for name, an in analyses.items():
        sys = an.built.system
        exp = an.built.sub.expectation
        for _ in range(100):
            a = random_element(sys.algebra, rng)
            assert abs(sys.trace.value(exp.apply(a))
                       - sys.trace.value(a)) < 1e-9, name


@pytest.mark.parametrize("fields", [
    {"eps_rank": float("nan")}, {"eps_rank": float("inf")}, {"eps_rank": 0.0},
    {"eps_assert": float("nan")}, {"eps_assert": float("inf")}, {"eps_assert": -1e-8},
    {"cesaro_n_max": 2.5}, {"cesaro_n_max": 0}, {"cesaro_n_max": -3},
    {"cesaro_n_max": True}, {"eps_rank": True}, {"eps_rank": np.True_},
])
def test_tolerance_config_rejects_bad_values(fields):
    with pytest.raises(ValueError):
        v.ToleranceConfig(**fields)


def test_nonfinite_inputs_rejected():
    with pytest.raises(ValueError):
        v.generate_algebra([np.array([[np.nan, 0], [0, 0]])], 2)
    with pytest.raises(ValueError):
        v.trace_functional(np.array([[np.inf, 0], [0, 1.0]]))
