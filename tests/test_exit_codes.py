"""Every input ends in an exit code of the documented set 0/1/2/3.

Mutated shipped descriptions (keys dropped or inserted, values retyped,
numbers perturbed) and command-line flags run through ``cli.main`` in-process: no
exception may escape, and exit 1 may only report a negative verdict.  The
inputs below the fuzz test each gave a traceback once; they are pinned with
their exit codes, a few of them in a child process.
"""
import copy
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vnspec import cli

SHIPPED = {p.stem: json.loads(p.read_text()) for p in cli.shipped_system_paths()}
COMMANDS = ("analyze", "certify-rds", "rwm", "joining", "report")
NEGATIVE_VERDICTS = {"rwm": "weakly mixing relative to the subsystem: False",
                     "certify-rds": "relative discrete spectrum: False"}
REPLACEMENTS = (None, "x", True, [], {}, 0, -1, 1.5, 1e300, float("nan"),
                float("inf"), [[0, 0]], 2 ** 40)
INSERTED_KEYS = ("extra", "partiton", "tolerence", "subgroup", "kind")


def _paths(obj, prefix=()):
    """Every key or index path below the root of a JSON tree."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _perturbed(value, draw):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return draw(st.sampled_from(REPLACEMENTS))
    if isinstance(value, int):
        return value + draw(st.sampled_from([-1, 1, 2, 100]))
    return value * draw(st.sampled_from([0.0, -1.0, 1 + 1e-9, 1 + 1e-3, 2.0]))


@st.composite
def mutated_descriptions(draw):
    doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["drop", "retype", "perturb", "insert"]))
        if op == "drop":
            del parent[path[-1]]
        elif op == "insert":
            # into the object at the path, or else into the one holding it
            target = parent[path[-1]]
            target = target if isinstance(target, dict) else parent
            if isinstance(target, dict):
                target[draw(st.sampled_from(INSERTED_KEYS))] = draw(
                    st.sampled_from(REPLACEMENTS))
        elif op == "retype":
            parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
        else:
            parent[path[-1]] = _perturbed(parent[path[-1]], draw)
    return doc


@st.composite
def flag_lists(draw):
    command = draw(st.sampled_from(COMMANDS))
    flags = []
    if command == "rwm":
        element = draw(st.sampled_from([None, "k0", "k1", "zz"]))
        if element is not None:
            flags += ["--element", element]
        horizon = draw(st.sampled_from([None, "1", "7", "300"]))
        if horizon is not None:
            flags += ["--N", horizon]
    if command in ("analyze", "report"):
        flags += ["--format", draw(st.sampled_from(["text", "json"]))]
    for flag in ("--eps-rank", "--eps-assert"):
        value = draw(st.sampled_from([None, None, "1e-3", "1e-14", "1e-30", "10"]))
        if value is not None:
            flags += [flag, value]
    seed = draw(st.sampled_from([None, "3"]))
    if seed is not None:
        flags += ["--seed", seed]
    # at most one usage error, so that most flag lists reach the analysis
    flags += draw(st.sampled_from(
        [[]] * 8 + [["--N", "0"], ["--eps-rank", "inf"], ["--eps-assert", "nan"],
                    ["--eps-rank", "-1"], ["--seed", "-1"], ["--format", "xml"]]))
    return command, flags


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "system.json"


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_descriptions(), flags=flag_lists())
def test_mutated_inputs_end_in_documented_exit_codes(doc_path, doc, flags):
    command, rest = flags
    doc_path.write_text(json.dumps(doc))
    code, out, _ = _run([command, str(doc_path), *rest])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert command in NEGATIVE_VERDICTS and NEGATIVE_VERDICTS[command] in out


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _complex(rows):
    return [[[float(x), 0.0] for x in row] for row in rows]


PARAMS = ("parameters",)
DIAGONAL_M2 = _mutated(SHIPPED["explicit_m2_grading"], PARAMS + ("algebra_generators",),
                       [_complex([[1, 0], [0, -1]])])
ROTATION_45 = _complex(np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0))
PINNED = {
    "ragged_group_table": (_mutated(SHIPPED["group_z4_inversion"],
                                    PARAMS + ("group_table", 2), [2, 0, 1]), [], 2),
    "nan_weight": (_mutated(SHIPPED["skew_z4_inversion"], PARAMS + ("weights", 0),
                            float("nan")), [], 2),
    "boolean_dimension": (_mutated(
        _mutated(SHIPPED["explicit_m2_grading"], PARAMS + ("ambient_dim",), True),
        PARAMS + ("algebra_generators",), []), [], 2),
    "density_shape": (_mutated(SHIPPED["explicit_m2_grading"],
                               PARAMS + ("trace_density",), [[[1.0, 0.0]]]), [], 2),
    "huge_cocycle": (_mutated(SHIPPED["skew_z4_inversion"], PARAMS + ("cocycle", 0),
                              2 ** 40), [], 0),
    "infinite_rank_cutoff": (SHIPPED["classical_4cycle"], ["--eps-rank", "inf"], 2),
    "rank_cutoff_above_identity": (SHIPPED["explicit_m2_grading"],
                                   ["--eps-rank", "10"], 3),
    "rank_cutoff_below_roundoff": (SHIPPED["skew_z4_inversion"],
                                   ["--eps-rank", "1e-300"], 3),
    # generate_algebra once kept noise rows here and the explicit parts
    # failed the automorphism check with exit 2
    **{f"explicit_parts_below_roundoff_{name}": (SHIPPED[name],
                                                 ["--eps-rank", "1e-300"], 3)
       for name in ("explicit_m2_grading", "full_subsystem_m2", "tensor_diag2_m2",
                    "finite_extension_m2")},
    "fixed_points_below_roundoff": (_mutated(SHIPPED["classical_4cycle"],
                                             PARAMS + ("sub_partition",), None),
                                    ["--eps-rank", "1e-17"], 3),
    # Ad(u) must map A onto itself and keep the trace; both once ended in exit 3
    "unitary_not_normalising": (_mutated(DIAGONAL_M2, PARAMS + ("dynamics_unitary",),
                                         ROTATION_45), [], 2),
    "unitary_moves_trace": (_mutated(
        _mutated(DIAGONAL_M2, PARAMS + ("trace_density",),
                 _complex([[0.3, 0], [0, 0.7]])),
        PARAMS + ("dynamics_unitary",), _complex([[0, 1], [1, 0]])), [], 2),
    # A's trace passes this cutoff (Gram minimum 0.5) but the lifted trace on
    # <A, e> does not (0.25): a failed cross-check, not bad input
    "lifted_trace_below_cutoff": (SHIPPED["full_subsystem_m2"],
                                  ["--eps-rank", "0.3"], 3),
    # below the machine epsilon every analysis is refused; at 1e-16 this one
    # once passed, and below it its own default partition was refused as input
    "rank_cutoff_below_machine_epsilon": (SHIPPED["classical_4cycle"],
                                          ["--eps-rank", "1e-16"], 3),
    # the joining's scaled Gram has eigenvalues below these cutoffs, which
    # the factor drops, so the joining loses rank
    **{f"joining_eigenvalue_below_cutoff_{name}_{eps}": (SHIPPED[name],
                                                         ["--eps-rank", eps], 3)
       for name, eps in (("finite_extension_m2", "1e-2"), ("skew_z4_inversion", "3e-2"),
                         ("skew_z4_inversion", "1e-2"))},
}
# misspelled keys were once ignored: this analysed F = C with exit 0
TYPO_KEYS = copy.deepcopy(SHIPPED["classical_4cycle"])
TYPO_KEYS["parameters"]["partiton"] = TYPO_KEYS["parameters"].pop("sub_partition")
TYPO_KEYS["tolerence"] = {"eps_rank": 1e-12}
PINNED["misspelled_keys"] = (TYPO_KEYS, [], 2)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_input_exit_code(case, tmp_path):
    doc, flags, expected = PINNED[case]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(["analyze", str(path), *flags])
    assert code == expected, err


def test_misspelled_key_is_named(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(TYPO_KEYS))
    code, _, err = _run(["analyze", str(path)])
    assert code == 2 and "partiton" in err, err


@pytest.mark.parametrize("case", ["ragged_group_table", "nan_weight",
                                  "rank_cutoff_below_roundoff",
                                  "unitary_not_normalising"])
def test_pinned_input_has_no_traceback(case, tmp_path):
    doc, flags, expected = PINNED[case]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "vnspec", "analyze", str(path),
                           "--quiet", *flags],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == expected
    assert "Traceback" not in proc.stderr


def test_joining_that_loses_rank_is_a_breakdown_not_a_negative_state(tmp_path):
    """Every eigenvalue of the scaled Gram is nonnegative here; the cutoff
    drops some of them, and the message says so."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(SHIPPED["finite_extension_m2"]))
    code, _, err = _run(["analyze", str(path), "--eps-rank", "1e-2"])
    assert code == 3
    assert "rank cutoff 0.01 loses rank in the joining: it drops a part 6.79e-03 of the " \
           "scaled Gram at rank 88" in err, err
    assert "negative part" not in err


def test_cutoff_below_machine_epsilon_is_named(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(SHIPPED["skew_z4_inversion"]))
    code, _, err = _run(["analyze", str(path), "--eps-rank", "1e-300"])
    assert code == 3
    assert "rank cutoff 1e-300 lies below roundoff (machine epsilon 2.22e-16)" in err


@pytest.mark.parametrize("name", ["explicit_m2_grading", "finite_extension_m2",
                                  "full_subsystem_m2"])
def test_central_blocks_below_roundoff_name_the_cutoff(name, tmp_path):
    """This cutoff lies below the machine epsilon, so the analysis is
    refused before F's blocks are sought, and the message names it."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(SHIPPED[name]))
    proc = subprocess.run([sys.executable, "-m", "vnspec", "analyze", str(path),
                           "--quiet", "--eps-rank", "1e-20"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert "rank cutoff 1e-20" in proc.stderr
    assert "Traceback" not in proc.stderr
