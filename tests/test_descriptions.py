import json

import numpy as np
import pytest

from vnspec.cli import shipped_system_paths
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
