import re

import numpy as np
import pytest

import vnspec as v
from vnspec.constructors import (dual_orbits, finite_extension_diagnostics,
                                 left_regular_matrices)
from vnspec.errors import (ConstraintViolated, NotAutomorphism, NotUnitary,
                           SpecInvalid, WeightsNotPreserved)
from vnspec.descriptions import matrix_to_array
from conftest import E11, E12, E22
from oracles import validate_algebra

Z4 = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
Z4_INV = tuple((-g) % 4 for g in range(4))
Z2 = ((0, 1), (1, 0))
X = np.array([[0, 1], [1, 0]], dtype=complex)


# --- classical systems -------------------------------------------------------

def test_single_atom_system():
    sys = v.build_classical_system([1.0], [0])
    assert sys.algebra.dim == 1


def test_three_cycle_has_order_three():
    sys = v.build_classical_system([1 / 3, 1 / 3, 1 / 3], [1, 2, 0])
    m = sys.dynamics.matrix
    assert np.abs(np.linalg.matrix_power(m, 3) - np.eye(3)).max() < 1e-12
    assert np.abs(m - np.eye(3)).max() > 0.5


def test_weights_not_preserved():
    with pytest.raises(WeightsNotPreserved):
        v.build_classical_system([0.5, 0.25, 0.25], [1, 0, 2])


def test_classical_dynamics_is_composition():
    sys = v.build_classical_system([0.25] * 4, [1, 2, 3, 0])
    f = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    image = sys.dynamics.apply(sys.algebra, f)
    # alpha(f) = f o S with S the 4-cycle x -> x + 1
    assert np.abs(np.diag(image) - np.array([2, 3, 4, 1])).max() < 1e-12


def test_sub_partition_must_cover():
    sys = v.build_classical_system([0.25] * 4, [1, 2, 3, 0])
    with pytest.raises(SpecInvalid):
        v.classical_sub_partition(sys, [[0, 1]])


# --- group von Neumann systems ----------------------------------------------

def test_z2_group_system():
    gs = v.build_group_vn_system(Z2, (0, 1))
    assert gs.system.algebra.dim == 2
    lm = left_regular_matrices(gs.table)
    assert abs(gs.system.trace.value(lm[1])) < 1e-12  # sigma(l(g)) = 0, g != e
    assert abs(gs.system.trace.value(lm[0]) - 1.0) < 1e-12


def test_z4_inversion_permutes_generators():
    gs = v.build_group_vn_system(Z4, Z4_INV)
    lm = left_regular_matrices(gs.table) / 2.0  # normalized basis
    img = gs.system.dynamics.apply(gs.system.algebra, lm[1])
    assert np.abs(img - lm[3]).max() < 1e-12
    for g in (0, 2):
        img = gs.system.dynamics.apply(gs.system.algebra, lm[g])
        assert np.abs(img - lm[g]).max() < 1e-12


def test_identity_automorphism_gives_identity_dynamics():
    gs = v.build_group_vn_system(Z4, (0, 1, 2, 3))
    assert np.abs(gs.system.dynamics.matrix - np.eye(4)).max() < 1e-12


def test_non_automorphism_rejected():
    with pytest.raises(NotAutomorphism):
        v.build_group_vn_system(Z4, (0, 2, 1, 3))  # not multiplicative on Z4


def test_bad_table_rejected():
    with pytest.raises(SpecInvalid):
        v.build_group_vn_system(((0, 0), (1, 1)), (0, 1))


def test_group_subsystem():
    gs = v.build_group_vn_system(Z4, Z4_INV)
    sub = v.group_sub_system(gs, [0, 2])  # invariant subgroup {0, 2}
    assert sub.algebra.dim == 2
    with pytest.raises(SpecInvalid):
        v.group_sub_system(gs, [0, 1])  # not closed


def test_dual_orbits_of_inversion():
    gs = v.build_group_vn_system(Z4, Z4_INV)
    assert dual_orbits(gs) == [(1, 3), (2,)]


# --- tensor systems ---------------------------------------------------------

def test_tensor_with_trivial_base_reduces_to_absolute(analyses):
    scal = v.build_classical_system([1.0], [0])
    c = v.build_explicit_system(2, [E12], np.eye(2) / 2,
                                dynamics_unitary=np.diag([1.0, -1.0])).system
    ten = v.build_tensor_system(scal, c)
    gns = v.build_gns(ten.system)
    bc = v.build_basic_construction(gns, ten.sub)
    assert bc.algebra.dim == 16  # all of B(H_sigma)
    assert ten.sub.algebra.dim == 1


def test_tensor_lifted_trace_of_identity_is_fiber_dimension(analyses):
    an = analyses["tensor_diag2_m2"]
    calg = an.built.factors[1].algebra
    value = an.basic.lifted_value(an.basic.algebra.coords(np.eye(an.gns.dim)))
    assert abs(value - calg.dim) < 1e-9


# --- skew products -----------------------------------------------------------

def _skew_spec(cocycle=(0, 1, 1), permutation=(1, 2, 0), autom=Z4_INV):
    return v.SkewProductSpec(weights=(1 / 3, 1 / 3, 1 / 3),
                             permutation=permutation, group_table=Z4,
                             group_automorphism=autom, cocycle=cocycle)


def test_skew_trivial_cocycle_identity_base_is_identity():
    spec = v.SkewProductSpec(weights=(0.5, 0.5), permutation=(0, 1),
                             group_table=Z4, group_automorphism=(0, 1, 2, 3),
                             cocycle=(0, 0))
    skew = v.build_skew_product(spec)
    assert np.abs(skew.system.dynamics.matrix
                  - np.eye(skew.system.algebra.dim)).max() < 1e-12


def test_skew_matches_tensor_when_cocycle_vanishes():
    spec = v.SkewProductSpec(weights=(1 / 3, 1 / 3, 1 / 3), permutation=(1, 2, 0),
                             group_table=Z4, group_automorphism=(0, 1, 2, 3),
                             cocycle=(0, 0, 0))
    skew = v.build_skew_product(spec)
    base = v.build_classical_system([1 / 3] * 3, [1, 2, 0])
    fiber = v.build_group_vn_system(Z4, (0, 1, 2, 3)).system
    ten = v.build_tensor_system(base, fiber)
    assert np.abs(skew.system.algebra.basis - ten.system.algebra.basis).max() < 1e-12
    assert np.abs(skew.system.trace.density - ten.system.trace.density).max() < 1e-12
    assert np.abs(skew.system.dynamics.matrix
                  - ten.system.dynamics.matrix).max() < 1e-12


def test_skew_orbit_modules_match_orbit_sizes(analyses):
    an = analyses["skew_z4_inversion"]
    traces = [round(c.lifted_trace, 8) for c in an.spectrum.modules]
    assert traces == [2.0, 1.0]
    dims = [c.dim for c in an.spectrum.modules]
    assert dims == [6, 3]


def test_skew_cocycle_length_checked():
    with pytest.raises(SpecInvalid):
        v.build_skew_product(_skew_spec(cocycle=(0, 1)))


def test_skew_system_passes_validators(analyses):
    an = analyses["skew_z4_inversion"]
    validate_algebra(an.built.system.algebra)
    system = an.built.system
    v.validate_trace(system.algebra, system.trace, system.table)


# --- finite extensions -----------------------------------------------------

def _fe_spec(**kw):
    b1 = v.build_explicit_system(2, [E12], np.eye(2) / 2,
                                 dynamics_unitary=X).system
    b2 = v.build_group_vn_system(Z2, (0, 1)).system
    base = dict(b1=b1, b2=b2, s=1 / 3, v1=X, v4=X, v2=X, v3=np.eye(2))
    base.update(kw)
    return v.FiniteExtensionSpec(**base)


def test_finite_extension_shapes(analyses):
    an = analyses["finite_extension_m2"]
    assert an.built.system.algebra.dim == 24  # (4 + 2) * 4
    assert an.built.sub.algebra.dim == 6
    assert an.basic.algebra.dim == 96


def test_finite_extension_diagnostics_pass(analyses):
    diag = analyses["finite_extension_m2"].finite_extension
    assert diag.beta_two_expressions < 1e-9
    assert diag.off_diagonal < 1e-9
    assert diag.restriction < 1e-9
    assert diag.display_pattern < 1e-9
    assert diag.nonproduct_detected


def test_finite_extension_displayed_corner(analyses, shipped_descriptions):
    # alpha(1 (x) E12) carries v1 v4* in the upper corner of the first summand
    # and v3 v2* in the lower corner of the second, per the block display
    an = analyses["finite_extension_m2"]
    assert an.built.summands == (2, 2)
    p = shipped_descriptions["finite_extension_m2"].parameters
    v1, v2, v3, v4 = (matrix_to_array(p[k]) for k in ("v1", "v2", "v3", "v4"))
    # w1 = v1 (+) 0, w4 = v4 (+) 0, w2 = 0 (+) v2, w3 = 0 (+) v3 on 2 + 2
    w1, w4 = np.kron(E11, v1), np.kron(E11, v4)
    w2, w3 = np.kron(E22, v2), np.kron(E22, v3)
    alg = an.built.system.algebra
    eye_b = np.eye(4, dtype=complex)
    image = an.built.system.dynamics.apply(alg, np.kron(eye_b, E12))
    expected = np.kron(w1 @ w4.conj().T, E12) + np.kron(w3 @ w2.conj().T, E12.T)
    assert np.abs(image - expected).max() < 1e-9


def test_finite_extension_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        v.build_finite_extension(_fe_spec(v1=np.diag([1.0, 2.0])))


def test_finite_extension_rejects_commutant_violation():
    # v4* v1 must be central relative to the first summand
    with pytest.raises(ConstraintViolated):
        v.build_finite_extension(_fe_spec(v4=np.diag([1.0, -1.0])))


def test_finite_extension_degenerate_summand_is_product():
    b1 = v.build_explicit_system(2, [E12], np.eye(2) / 2,
                                 dynamics_unitary=X).system
    spec = v.FiniteExtensionSpec(b1=b1, b2=None, s=0.5, v1=X, v4=X)
    fe = v.build_finite_extension(spec)
    assert fe.factors[0] is b1  # B = B1 is not built again
    diag = finite_extension_diagnostics(fe)
    assert diag.product_distance < 1e-9  # alpha = beta (x) id
    assert not diag.nonproduct_expected
    alg = fe.system.algebra
    m = np.array([[0.3, 1.0], [0.25j, -0.1]], dtype=complex)
    image = fe.system.dynamics.apply(alg, np.kron(np.eye(2), m))
    assert np.abs(image - np.kron(np.eye(2), m)).max() < 1e-9


def test_finite_extension_requires_second_unitaries():
    with pytest.raises(SpecInvalid):
        v.build_finite_extension(_fe_spec(v2=None, v3=None))


def test_finite_extension_s_range():
    with pytest.raises(SpecInvalid):
        v.build_finite_extension(_fe_spec(s=1.5))


# --- invalid specifications, each refused by its own check -----------------

NO_IDENTITY = tuple(tuple((-a - b) % 3 for b in range(3)) for a in range(3))
# a loop of order 5, the smallest order with one that is not associative
NON_ASSOCIATIVE = ((0, 1, 2, 3, 4), (1, 3, 4, 0, 2), (2, 4, 3, 1, 0), (3, 2, 0, 4, 1),
                   (4, 0, 1, 2, 3))
KLEIN = tuple(tuple(a ^ b for b in range(4)) for a in range(4))


@pytest.mark.parametrize("build, message", [
    (lambda: v.build_classical_system([0.5, 0.6], [0, 1]),
     "weights must be positive and sum to one"),
    (lambda: v.build_classical_system([1.5, -0.5], [0, 1]),
     "weights must be positive and sum to one"),
    (lambda: v.build_group_vn_system(NO_IDENTITY, (0, 1, 2)),
     "multiplication table has no identity"),
    (lambda: v.build_group_vn_system(NON_ASSOCIATIVE, tuple(range(5))),
     "multiplication table is not associative"),
    # {0, 1} is a subgroup of Z_2 x Z_2 that the swap of 1 and 2 moves
    (lambda: v.group_sub_system(v.build_group_vn_system(KLEIN, (0, 2, 1, 3)), [0, 1]),
     "subgroup is not invariant under the automorphism"),
    (lambda: v.build_finite_extension(_fe_spec(v1=np.eye(3))), "v1 has the wrong shape"),
    # diag(1, -1) is unitary but not in span(1, X), the algebra of Z_2
    (lambda: v.build_finite_extension(_fe_spec(v2=np.diag([1.0, -1.0]))),
     "v2 does not lie in its algebra"),
], ids=["weight_sum", "negative_weight", "no_identity", "non_associative",
        "non_invariant_subgroup", "wrong_shape", "outside_algebra"])
def test_invalid_spec_is_refused(build, message):
    with pytest.raises(SpecInvalid, match=f"^{re.escape(message)}$"):
        build()
