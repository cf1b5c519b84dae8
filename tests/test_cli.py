import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from vnspec import cli
from vnspec.report import emit_report
from vnspec.errors import VerdictMismatch
from conftest import at_tolerance


def _system_path(name):
    return str(next(p for p in cli.shipped_system_paths()
                    if p.name == f"{name}.json"))


def test_analyze_text(capsys):
    code = cli.main(["analyze", _system_path("explicit_m2_grading")])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out
    assert "rwm = False" in out


def test_analyze_json(capsys):
    code = cli.main(["analyze", _system_path("classical_4cycle"),
                     "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert names == set(__import__("vnspec.pipeline",
                                   fromlist=["CHECK_NAMES"]).CHECK_NAMES)


def test_report_json_mentions_modules(capsys):
    code = cli.main(["report", _system_path("skew_z4_inversion"),
                     "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    traces = sorted(round(m["lifted_trace"], 6)
                    for m in doc["spectrum"]["modules"])
    assert traces == [1.0, 2.0]


def test_rwm_exit_codes(capsys):
    # mixing fails relative to a strict subsystem, certified exit 1
    assert cli.main(["rwm", _system_path("explicit_m2_grading")]) == 1
    capsys.readouterr()
    # relative to the full subsystem the verdict is positive
    assert cli.main(["rwm", _system_path("full_subsystem_m2")]) == 0


def test_rwm_element_listing(capsys):
    code = cli.main(["rwm", _system_path("explicit_m2_grading"),
                     "--element", "k0", "--N", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert "cesaro averages for k0" in out


def test_rwm_horizon_needs_element(capsys):
    code = cli.main(["rwm", _system_path("explicit_m2_grading"), "--N", "4"])
    assert code == 2
    assert "--N needs --element" in capsys.readouterr().err


def test_rwm_unknown_element(capsys):
    code = cli.main(["rwm", _system_path("explicit_m2_grading"),
                     "--element", "zz"])
    assert code == 2


def test_certify_rds(capsys):
    assert cli.main(["certify-rds", _system_path("finite_extension_m2")]) == 0
    out = capsys.readouterr().out
    assert "relative discrete spectrum: True" in out


def test_joining_command(capsys):
    assert cli.main(["joining", _system_path("tensor_diag2_m2")]) == 0
    out = capsys.readouterr().out
    assert "equivalence isometry" in out


def test_missing_file_is_invalid(capsys):
    assert cli.main(["analyze", "/nonexistent/system.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_file_is_invalid(kind, tmp_path, capsys):
    path = tmp_path
    if kind == "not_utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xe9"}')
    assert cli.main(["analyze", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_document_is_invalid(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{\"format_version\": 1, \"kind\": \"mystery\"}")
    assert cli.main(["analyze", str(p)]) == 2


def test_breakdown_maps_to_exit_three(monkeypatch, capsys):
    monkeypatch.setattr(cli, "analyze_description",
                        lambda *a, **k: (_ for _ in ()).throw(
                            VerdictMismatch("routes disagree")))
    assert cli.main(["analyze", _system_path("classical_4cycle")]) == 3


def test_selftest_runs_all(capsys):
    assert cli.main(["selftest", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert len(doc["reports"]) >= 6


def test_selftest_takes_tolerance_flags(capsys):
    assert cli.main(["selftest", "--quiet", "--eps-assert", "1e-6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {c["threshold"] for rep in doc["reports"] for c in rep["checks"]} == {1e-6}


def test_reports_validate_against_shipped_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from vnspec.report import report_schema
    schema = report_schema()
    assert cli.main(["selftest", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for rep in doc["reports"]:
        jsonschema.validate(rep, schema)


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("VNSPEC_SEED", "42")
    parser = cli.build_parser()
    args = parser.parse_args(["selftest"])
    # the VNSPEC_SEED default is read at parser build time; rebuild to pick up the env
    args = cli.build_parser().parse_args(["selftest"])
    assert args.seed == 42


@pytest.mark.parametrize("value", ["abc", "-4"])
def test_bad_seed_env_is_a_usage_error(monkeypatch, capsys, value):
    """A VNSPEC_SEED that --seed would refuse is refused, not replaced by 0."""
    monkeypatch.setenv("VNSPEC_SEED", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", _system_path("classical_4cycle"), "--quiet"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "vnspec", "analyze",
                           _system_path("group_z4_inversion"), "--quiet"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("flags", [["--element", "k0", "--N", "0"],
                                   ["--N", "-3"], ["--eps-rank", "-1"],
                                   ["--eps-assert", "nan"]])
def test_nonpositive_flags_are_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rwm", _system_path("explicit_m2_grading"), *flags])
    assert exc.value.code == 2


def test_negative_file_tolerance_is_invalid(tmp_path, capsys):
    doc = json.loads(Path(_system_path("classical_4cycle")).read_text())
    doc["tolerances"] = {"eps_rank": -1}
    p = tmp_path / "negative_tol.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(p)]) == 2
    assert "tolerances.eps_rank" in capsys.readouterr().err


def test_singular_partition_scale_is_breakdown(monkeypatch, capsys):
    # an eps_rank above every singular value of the blocks of e leaves no
    # partition; the partition reads the cutoff of the construction's
    # system, here a copy that holds 2 (no build passes there)
    from vnspec import pipeline
    from vnspec.algebra import ToleranceConfig
    from vnspec.basic import default_partition
    monkeypatch.setattr(pipeline, "default_partition",
                        lambda bc: default_partition(
                            at_tolerance(bc, ToleranceConfig(eps_rank=2.0))))
    assert cli.main(["analyze", _system_path("classical_4cycle")]) == 3
    assert "drops e from a block of <A, e>" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text", [(float, "abc"), (int, "1.5")])
def test_positive_type_refuses_a_non_number(kind, text):
    with pytest.raises(argparse.ArgumentTypeError,
                       match=f"^invalid {kind.__name__}: '{text}'$"):
        cli._positive(kind)(text)


def test_report_refuses_an_unknown_format(analyses):
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        emit_report(analyses["classical_4cycle"], "xml")
