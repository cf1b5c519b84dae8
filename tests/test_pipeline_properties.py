"""End-to-end properties: every valid input yields a coherent certificate."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vnspec as v
from vnspec import cli
from vnspec.descriptions import array_to_matrix, build_from_description, parse_system
from vnspec.pipeline import CHECK_NAMES, analyze_built, analyze_description
from conftest import E12
from test_routes import _bar_columns, simple_tensor_vectors


@st.composite
def classical_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    perm = draw(st.permutations(range(n)))
    # weights constant on permutation cycles so the map is measure preserving
    cycle_of = {}
    for start in range(n):
        if start in cycle_of:
            continue
        cyc = [start]
        while perm[cyc[-1]] != start:
            cyc.append(perm[cyc[-1]])
        for x in cyc:
            cycle_of[x] = start
    reps = sorted(set(cycle_of.values()))
    raw = {r: draw(st.integers(min_value=1, max_value=4)) for r in reps}
    weights = np.array([raw[cycle_of[x]] for x in range(n)], dtype=float)
    weights /= weights.sum()
    # the subalgebra of functions constant on cycles is always invariant
    blocks = [[x for x in range(n) if cycle_of[x] == r] for r in reps]
    return list(weights), list(perm), blocks


@settings(max_examples=10, deadline=None)
@given(classical_inputs())
def test_random_classical_systems_pass_all_checks(data):
    weights, perm, blocks = data
    sys = v.build_classical_system(weights, perm)
    sub = v.classical_sub_partition(sys, blocks)
    an = analyze_built("random_classical", "classical",
                       v.ConstructedSystem(sys, sub))
    assert {c.name for c in an.checks} == set(CHECK_NAMES)
    assert an.passed, [(c.name, c.residual) for c in an.checks if not c.passed]
    assert an.spectrum.rds


@st.composite
def cyclic_group_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    unit = draw(st.sampled_from([k for k in range(1, n) if np.gcd(k, n) == 1]))
    autom = [(unit * g) % n for g in range(n)]
    return table, autom


@settings(max_examples=8, deadline=None)
@given(cyclic_group_inputs())
def test_random_cyclic_group_systems_pass_all_checks(data):
    table, autom = data
    gs = v.build_group_vn_system(table, autom)
    sub = v.subsystem(gs.system,
                      v.trivial_subalgebra(gs.system.algebra.ambient_dim))
    an = analyze_built("random_group", "group_vn",
                       v.ConstructedSystem(gs.system, sub))
    assert an.passed, [(c.name, c.residual) for c in an.checks if not c.passed]


def test_group_full_subgroup_gives_mixing_relative_to_itself():
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    gs = v.build_group_vn_system(z4, [0, 3, 2, 1])
    sub = v.group_sub_system(gs, [0, 1, 2, 3])
    an = analyze_built("group_full", "group_vn",
                       v.ConstructedSystem(gs.system, sub))
    assert an.passed
    assert an.spectrum.rwm  # F = A leaves nothing to mix


def test_invariant_subgroup_subsystem_pipeline():
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    gs = v.build_group_vn_system(z4, [0, 3, 2, 1])
    sub = v.group_sub_system(gs, [0, 2])  # inversion fixes {0, 2}
    an = analyze_built("group_sub", "group_vn",
                       v.ConstructedSystem(gs.system, sub))
    assert an.passed
    assert not an.spectrum.rwm
    assert an.spectrum.dim_complement == 2


def test_classical_noninvariant_partition_rejected():
    sys = v.build_classical_system([0.25] * 4, [1, 2, 3, 0])
    with pytest.raises(v.errors.SubsystemInvalid):
        v.classical_sub_partition(sys, [[0, 1], [2, 3]])  # 4-cycle mixes blocks


def test_skew_with_weighted_base_and_z3_fiber():
    # non-uniform weights on a transposition base, inversion on the Z_3 fiber
    z3 = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    spec = v.SkewProductSpec(weights=(0.3, 0.3, 0.4), permutation=(1, 0, 2),
                             group_table=z3, group_automorphism=(0, 2, 1),
                             cocycle=(1, 0, 2))
    skew = v.build_skew_product(spec)
    an = analyze_built("skew_weighted", "skew_product", skew)
    assert an.passed, [(c.name, c.residual) for c in an.checks if not c.passed]
    traces = sorted(round(c.lifted_trace, 8) for c in an.spectrum.modules)
    assert traces == [2.0]  # single dual orbit {1, 2} of the inversion on Z_3


def _skewed_fiber_description(weight):
    """A two-atom base tensored with a commutative fibre of weights (1-w, w)."""
    return {"format_version": 1, "name": "skewed_tensor", "kind": "tensor",
            "parameters": {
                "b_factor": {"kind": "classical",
                             "parameters": {"weights": [0.5, 0.5], "permutation": [0, 1]}},
                "c_factor": {"kind": "explicit", "parameters": {
                    "ambient_dim": 2,
                    "algebra_generators": [array_to_matrix(np.diag([1.0, -1.0]))],
                    "trace_density": array_to_matrix(np.diag([1 - weight, weight])),
                    "dynamics_unitary": array_to_matrix(np.eye(2))}}}}


def _skewed_fiber_tensor(weight):
    return build_from_description(parse_system(_skewed_fiber_description(weight)))


def test_skewed_weights_within_regime_pass():
    # witness floors are GNS-normalized, so small trace weights stay certifiable
    an = analyze_built("t", "tensor", _skewed_fiber_tensor(1e-4))
    assert an.passed
    assert max(s.minimum for s in an.spectrum.cesaro) > 1e-2


def test_skewed_weights_pass_down_to_1e6():
    # the joining factors the Jacobi-scaled Gram of its generating tensors,
    # whose kept eigenvalues do not scale with the weight
    an = analyze_built("t", "tensor", _skewed_fiber_tensor(1e-6))
    ref = analyze_built("t", "tensor", _skewed_fiber_tensor(1e-2))
    assert an.passed
    kept, ref_kept = (x.joining.smallest_kept_eigenvalue for x in (an, ref))
    assert abs(kept / ref_kept - 1) <= 1e-6
    assert kept > 0.05


def test_extreme_weights_fail_loudly_not_silently(tmp_path, capsys):
    # the equivalence is certified down to 1e-9, where the d^2 defining
    # relation still holds to 1e-12; at 1e-10 the faithfulness cutoff refuses
    # the trace, and the toolkit must refuse rather than emit a wrong
    # certificate
    an = analyze_built("t", "tensor", _skewed_fiber_tensor(1e-9))
    assert an.passed
    vecs = simple_tensor_vectors(an.joining)
    assert np.abs(an.equivalence @ vecs - _bar_columns(an.basic)).max() <= 1e-12
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(_skewed_fiber_description(1e-9)))
    assert cli.main(["analyze", str(path), "--quiet"]) == 0
    path.write_text(json.dumps(_skewed_fiber_description(1e-10)))
    assert cli.main(["analyze", str(path), "--quiet"]) == 2
    assert "not faithful" in capsys.readouterr().err


def _weight_ladder(weight, atom_pairs):
    """Weights (w, w, (1-2w)/2, (1-2w)/2), the swaps 0 <-> 1 and 2 <-> 3, and F
    trivial or generated by the two invariant atom pairs."""
    params = {"weights": [weight, weight, (1 - 2 * weight) / 2, (1 - 2 * weight) / 2],
              "permutation": [1, 0, 3, 2]}
    if atom_pairs:
        params["sub_partition"] = [[0, 1], [2, 3]]
    return {"format_version": 1, "name": "weight_ladder", "kind": "classical",
            "parameters": params}


@pytest.mark.parametrize("atom_pairs", [False, True], ids=["trivial_f", "atom_pairs"])
def test_weight_ladder_passes_down_to_the_trace_cutoff(atom_pairs):
    """Every weight the faithfulness cutoff eps_rank admits is certified, with
    the smallest kept eigenvalue of the Jacobi-scaled generating Gram that
    w = 1e-2 gives; an eigendecomposition of the unscaled d^2 x d^2 Gram of
    all simple tensors lost rank below w = 1e-5 with trivial F and below
    w = 5e-10 with the atom pairs."""
    an = analyze_description(parse_system(_weight_ladder(2e-10, atom_pairs)))
    ref = analyze_description(parse_system(_weight_ladder(1e-2, atom_pairs)))
    assert an.passed
    kept, ref_kept = (x.joining.smallest_kept_eigenvalue for x in (an, ref))
    assert abs(kept / ref_kept - 1) <= 1e-6
    assert kept > 0.05


@pytest.mark.parametrize("atom_pairs", [False, True], ids=["trivial_f", "atom_pairs"])
def test_weight_ladder_below_the_trace_cutoff_is_refused(atom_pairs, tmp_path, capsys):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(_weight_ladder(5e-11, atom_pairs)))
    assert cli.main(["analyze", str(path), "--quiet"]) == 2
    assert "not faithful" in capsys.readouterr().err


@pytest.mark.parametrize("eps_assert", [1e-6, 1e-12])
def test_structure_does_not_follow_eps_assert(eps_assert, analyses,
                                              shipped_descriptions):
    """The identity-check threshold decides checks, not the fixed space or
    the module blocks: those are cut with eps_rank."""
    for name, desc in shipped_descriptions.items():
        an = analyze_description(desc, v.ToleranceConfig(eps_assert=eps_assert))
        ref = analyses[name]
        got, want = an.spectrum, ref.spectrum
        assert got.ergodicity.fixed_dim == want.ergodicity.fixed_dim, name
        assert len(got.modules) == len(want.modules), name
        assert (got.rds, got.rwm, an.passed) == (want.rds, want.rwm, ref.passed), name


def test_extension_without_b2_has_no_nonproduct_check():
    """With B = B1 the extension is a product, and the ledger says the
    non-product check does not apply."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    b1 = v.build_explicit_system(2, [E12], np.eye(2) / 2, dynamics_unitary=x).system
    fe = v.build_finite_extension(v.FiniteExtensionSpec(b1=b1, b2=None, s=0.5,
                                                        v1=x, v4=x))
    assert fe.summands == (2, 0)
    an = analyze_built("extension_of_m2", "finite_extension", fe)
    checks = {c.name: c for c in an.checks}
    assert an.passed and checks["finite_extension_beta"].applicable
    entry = checks["finite_extension_nonproduct"]
    assert (entry.applicable, entry.passed, entry.note) \
        == (False, True, "a summand is absent")
