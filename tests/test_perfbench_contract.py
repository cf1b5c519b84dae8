"""The benchmark's case runner against this checkout, traced and untraced.

``perfbench/case.py`` reads the package through names that a refactor can
break without failing any other test: the traced run binds
``linalg.nullspace(mat, ...)`` and ``linalg.extend_orthonormal(existing,
candidates, ...)`` by argument name and reads the shape and length of
``cesaro_sequence``'s result, and ``check_analyze`` reads
``an.basic.algebra.dim``, ``an.joining.rank`` and the modules' lifted traces.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "src" / "vnspec" / "systems"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CASES = {"skew_z4_inversion": {"task": "analyze"},
         "finite_extension_m2": {"task": "cesaro", "horizon": 64}}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_case_runner_accepts_the_package(name, trace):
    spec = {"id": name, "seed": 0, "description": (SYSTEMS / f"{name}.json").read_text(),
            "trace": trace, "setup_only": False, **CASES[name]}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "case.py")],
                          input=json.dumps(spec), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "error" not in out, out.get("error")
    assert out["problems"] == []
    if trace:
        names = {span[0] for span in out["spans"]}
        assert {"bench.case", "pipeline.analyze_description" if CASES[name]["task"]
                == "analyze" else "spectrum.cesaro_sequence"} <= names
