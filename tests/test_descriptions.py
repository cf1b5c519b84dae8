import json

import numpy as np
import pytest

from vnspec.cli import shipped_system_paths
from vnspec.constructors import left_regular_matrices
from vnspec.descriptions import (SystemDescription, array_to_matrix,
                                 build_from_description, emit_description,
                                 matrix_to_array, parse_system)
from vnspec.errors import ParseError, ValidationError


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0], [-0.5j, 3]], dtype=complex)
    assert np.abs(matrix_to_array(array_to_matrix(m)) - m).max() == 0.0


def test_parse_emit_parse_idempotent():
    for path in shipped_system_paths():
        desc = parse_system(path.read_text())
        again = parse_system(json.dumps(emit_description(desc)))
        assert again == desc


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as err:
        parse_system("{not json")
    assert "line" in str(err.value)


def test_parse_rejects_wrong_version():
    with pytest.raises(ValidationError) as err:
        parse_system({"format_version": 99, "kind": "classical",
                      "parameters": {}})
    assert err.value.field == "format_version"


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValidationError) as err:
        parse_system({"format_version": 1, "kind": "mystery", "parameters": {}})
    assert err.value.field == "kind"


@pytest.mark.parametrize("kind", ["mystery", "tensor"])
def test_parse_rejects_an_unknown_factor_kind(shipped_descriptions, kind):
    """A factor's kind is checked against the factor kinds before its
    parameters are read; a tensor is no factor kind."""
    doc = emit_description(shipped_descriptions["tensor_diag2_m2"])
    factor = dict(doc["parameters"]["b_factor"], kind=kind)
    doc = dict(doc, parameters=dict(doc["parameters"], b_factor=factor))
    with pytest.raises(ValidationError) as err:
        parse_system(doc)
    assert str(err.value) == ("parameters.b_factor.kind: factor kind must be one of "
                              "('explicit', 'classical', 'group_vn')")


@pytest.mark.parametrize("kind, message", [
    ("tensor", "kind: unsupported factor kind 'tensor'"),
    ("bogus", "kind: unknown kind 'bogus'"),
])
def test_build_refuses_a_kind_that_parsing_refuses(shipped_descriptions, kind,
                                                   message):
    """A description built directly, not parsed: a tensor whose first factor
    is a tensor, and a system of an unknown kind."""
    params = shipped_descriptions["tensor_diag2_m2"].parameters
    if kind == "tensor":
        params = dict(params, b_factor=dict(params["b_factor"], kind="tensor"))
        desc = SystemDescription("nested", "tensor", params)
    else:
        desc = SystemDescription("bogus", kind, params)
    with pytest.raises(ValidationError) as err:
        build_from_description(desc)
    assert str(err.value) == message


@pytest.mark.parametrize("system, path, field", [
    ("classical_4cycle", (), "tolerence"),
    ("classical_4cycle", ("parameters",), "parameters.partiton"),
    ("tensor_diag2_m2", ("parameters", "b_factor"), "parameters.b_factor.extra"),
    # a factor takes no subsystem
    ("tensor_diag2_m2", ("parameters", "b_factor", "parameters"),
     "parameters.b_factor.parameters.sub_partition"),
    ("finite_extension_m2", ("parameters", "b2_factor", "parameters"),
     "parameters.b2_factor.parameters.subgroup"),
])
def test_parse_rejects_unknown_keys(system, path, field):
    doc = json.loads(next(p for p in shipped_system_paths()
                          if p.stem == system).read_text())
    obj = doc
    for key in path:
        obj = obj[key]
    obj[field.rsplit(".", 1)[-1]] = [[0]]
    with pytest.raises(ValidationError, match="unknown key") as err:
        parse_system(doc)
    assert err.value.field == field


def test_parse_rejects_ragged_matrix():
    doc = {"format_version": 1, "name": "x", "kind": "explicit",
           "parameters": {"ambient_dim": 2,
                          "algebra_generators": [[[[0, 0], [1, 0]], [[0, 0]]]],
                          "trace_density": [[[0.5, 0], [0, 0]],
                                            [[0, 0], [0.5, 0]]],
                          "dynamics_unitary": [[[1, 0], [0, 0]],
                                               [[0, 0], [1, 0]]]}}
    with pytest.raises(ValidationError) as err:
        parse_system(doc)
    assert "algebra_generators" in err.value.field


def test_parse_rejects_bad_entries():
    doc = {"format_version": 1, "name": "x", "kind": "classical",
           "parameters": {"weights": [1.0], "permutation": ["a"]}}
    with pytest.raises(ValidationError) as err:
        parse_system(doc)
    assert err.value.field == "parameters.permutation"


def test_build_rejects_nonunitary_dynamics():
    doc = {"format_version": 1, "name": "x", "kind": "explicit",
           "parameters": {"ambient_dim": 2,
                          "algebra_generators": [[[[0, 0], [1, 0]],
                                                  [[0, 0], [0, 0]]]],
                          "subalgebra_generators": [],
                          "trace_density": [[[0.5, 0], [0, 0]],
                                            [[0, 0], [0.5, 0]]],
                          "dynamics_unitary": [[[2, 0], [0, 0]],
                                               [[0, 0], [1, 0]]]}}
    desc = parse_system(doc)
    with pytest.raises(ValidationError) as err:
        build_from_description(desc)
    assert "unitary" in str(err.value)


def test_build_names_bad_extension_unitary(shipped_descriptions):
    base = emit_description(shipped_descriptions["finite_extension_m2"])
    doc = json.loads(json.dumps(base))
    doc["parameters"]["v1"] = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
    with pytest.raises(ValidationError) as err:
        build_from_description(parse_system(doc))
    assert "v1" in str(err.value)


@pytest.mark.parametrize("b2", [False, 0, {}, [], ""],
                         ids=["false", "zero", "empty_object", "empty_list",
                              "empty_string"])
def test_falsy_b2_factor_is_refused(shipped_descriptions, b2):
    """Only a missing b2_factor or null means the one-summand extension."""
    doc = emit_description(shipped_descriptions["finite_extension_m2"])
    doc = dict(doc, parameters=dict(doc["parameters"], b2_factor=b2))
    with pytest.raises(ValidationError) as err:
        parse_system(doc)
    assert err.value.field.startswith("parameters.b2_factor")


def test_null_b2_factor_drops_the_second_summand(shipped_descriptions):
    doc = emit_description(shipped_descriptions["finite_extension_m2"])
    doc = dict(doc, parameters=dict(doc["parameters"], b2_factor=None))
    p = parse_system(doc).parameters
    assert p["b2_factor"] is None and p["v2"] is None and p["v3"] is None


def test_tolerance_overrides():
    desc = SystemDescription("t", "classical",
                             {"weights": [1.0], "permutation": [0],
                              "sub_partition": [[0]]},
                             {"eps_assert": 1e-6})
    cfg = desc.tolerance_config()
    assert cfg.eps_assert == 1e-6
    assert cfg.eps_rank == 1e-10


@pytest.mark.parametrize("tols", [{"eps_rank": -1}, {"eps_rank": 0},
                                  {"eps_assert": "1e-8"}, {"eps_assert": True},
                                  {"cesaro_n_max": 0}, {"cesaro_n_max": 2.5}])
def test_parse_rejects_bad_tolerances(tols):
    doc = {"format_version": 1, "kind": "classical", "tolerances": tols,
           "parameters": {"weights": [1.0], "permutation": [0]}}
    with pytest.raises(ValidationError, match="tolerances"):
        parse_system(doc)


def test_shipped_descriptions_cover_required_kinds(shipped_descriptions):
    kinds = {d.kind for d in shipped_descriptions.values()}
    assert {"explicit", "classical", "tensor", "skew_product",
            "finite_extension"} <= kinds
    # the degenerate full subsystem is among the shipped systems
    full = shipped_descriptions["full_subsystem_m2"]
    assert full.parameters["subalgebra_generators"] \
        == full.parameters["algebra_generators"]
    assert len(shipped_descriptions) >= 6


Z4_TABLE = [[(i + j) % 4 for j in range(4)] for i in range(4)]


def _z4_inversion(subgroup):
    return {"format_version": 1, "name": "z4_subgroup", "kind": "group_vn",
            "parameters": {"group_table": Z4_TABLE, "automorphism": [0, 3, 2, 1],
                           "subgroup": subgroup}}


def test_group_vn_subgroup_spans_its_subsystem():
    built = build_from_description(parse_system(_z4_inversion([2, 0])))
    assert np.array_equal(built.sub.algebra.basis,
                          left_regular_matrices(np.array(Z4_TABLE))[[0, 2]] / 2)


@pytest.mark.parametrize("subgroup, message", [
    ([1, 3], "subgroup must contain the identity"),
    ([0, 1], "subgroup is not closed under multiplication")])
def test_group_vn_subgroup_is_checked(subgroup, message):
    with pytest.raises(ValidationError, match=rf"^parameters \(group_vn\): {message}$"):
        build_from_description(parse_system(_z4_inversion(subgroup)))
