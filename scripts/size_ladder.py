#!/usr/bin/env python3
"""Size ladder: wall time and peak memory of one end-to-end analysis per size.

    python scripts/size_ladder.py            # the smallest case: print its row
    python scripts/size_ladder.py --full --label change
    python scripts/size_ladder.py --full --label parent --src ../other/src

Each run is a child process with one BLAS thread and an address-space cap
(RLIMIT_AS, set in the child only) that imports vnspec from ``--src``
(default: this checkout), parses one system description and times
``analyze_description`` on it, then times the Cesaro stage at the shape of
the benchmark's ``cesaro_long`` workload on a freshly built copy of the
system: the admissible elements and, for every one of them, N = 2048
Cesaro steps without early exit.  The analysis is also timed stage by
stage: the child wraps the stage functions that ``vnspec.pipeline`` calls
(``STAGES``: build, GNS, basic construction, joining, equivalence,
spectrum with the orbit modules and the Cesaro averages, and the partition
checks) and records each stage's time and ``ru_maxrss`` when it returns;
what is left of the wall time is the check ledger.  A row holds the median
wall time of the analysis over three runs, the median time of each stage
(``stage_s``), the median time of the Cesaro stage (``cesaro_s``), the
largest of the analyses' peak resident set sizes (``ru_maxrss`` before the
Cesaro stage, which includes the interpreter and numpy, about 40 MB) and
the largest ``ru_maxrss`` after each stage (``stage_rss_mb``).  A run that
fails, such as by ``MemoryError`` under the cap, is recorded with its error.

The cases are Z_4 skew products over a d/4-cycle with the inversion
automorphism and cocycle [1, 0, ...], so that dim F = d/4 and
dim <A, e> = 4 d, from d = 12 to d = 160; the shipped finite extension; and
tensor products of a k-cycle with the shipped M_2 factor of
``tensor_diag2_m2``.  ``--full`` runs every case and replaces the rows of its
label in ``BENCH_ladder.json`` at the root of the checkout; without it only
the smallest case runs, its row is printed and nothing is written.  The
file gates nothing.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_ladder.json"
SYSTEMS = ROOT / "src" / "vnspec" / "systems"
ADDRESS_SPACE_CAP = 4 << 30  # bytes; the parent's d = 160 run peaks near 1.7 GB
RUNS = 3
CESARO_HORIZON = 2048  # the steps of each sequence in the benchmark's cesaro_long
SKEW_SIZES = (12, 16, 24, 32, 48, 64, 96, 128, 160)
TENSOR_CYCLES = (2, 4, 8)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = {  # stage: the functions of vnspec.pipeline that make it up
    "build": ["build_from_description"],
    "gns": ["build_gns"],
    "basic": ["build_basic_construction"],
    "joining": ["relative_joining"],
    "equivalence": ["joining_equivalence"],
    "spectrum": ["skew_orbit_modules", "build_spectrum_report"],
    "partition": ["default_partition", "lifted_trace_via_partition",
                  "tensor_partition_isometries"],
}
CHILD = textwrap.dedent("""
    import json, resource, sys, time
    cap, horizon = int(sys.argv[2]), int(sys.argv[3])
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, sys.argv[1])
    from vnspec import pipeline
    from vnspec.descriptions import build_from_description, parse_system
    from vnspec.spectrum import admissible_elements, cesaro_sequence

    def rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stages = json.loads(sys.argv[4])
    stage_s, stage_rss = dict.fromkeys(stages, 0.0), dict.fromkeys(stages, 0.0)

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stage_s[stage] += time.perf_counter() - start
                stage_rss[stage] = rss_mb()
        return wrapper

    for stage, names in stages.items():
        for name in names:
            setattr(pipeline, name, timed(stage, getattr(pipeline, name)))
    desc = parse_system(sys.stdin.read())
    tol = desc.tolerance_config()
    start = time.perf_counter()
    an = pipeline.analyze_description(desc, tol)
    wall = time.perf_counter() - start
    row = {"wall_s": wall, "passed": an.passed, "dim_basic": an.basic.algebra.dim,
           "rss_mb": rss_mb(), "stage_s": stage_s, "stage_rss_mb": stage_rss}
    del an
    built = build_from_description(desc, tol)
    start = time.perf_counter()
    for _, a in admissible_elements(built.system, built.sub, tol):
        cesaro_sequence(built.system, built.sub, a, n_max=horizon, tol=tol,
                        early_exit=False)
    row["cesaro_s"] = time.perf_counter() - start
    print(json.dumps(row))
""")


def skew_case(d: int) -> dict:
    n_x = d // 4
    return {"format_version": 1, "name": f"skew_d{d}", "kind": "skew_product",
            "parameters": {"weights": [1.0 / n_x] * n_x,
                           "permutation": [(x + 1) % n_x for x in range(n_x)],
                           "group_table": [[(i + j) % 4 for j in range(4)]
                                           for i in range(4)],
                           "group_automorphism": [0, 3, 2, 1],
                           "cocycle": [1] + [0] * (n_x - 1)}}


def tensor_case(k: int) -> dict:
    shipped = json.loads((SYSTEMS / "tensor_diag2_m2.json").read_text())
    cycle = {"kind": "classical",
             "parameters": {"weights": [1.0 / k] * k,
                            "permutation": [(x + 1) % k for x in range(k)]}}
    return {"format_version": 1, "name": f"tensor_cycle{k}_m2", "kind": "tensor",
            "parameters": {"b_factor": cycle,
                           "c_factor": shipped["parameters"]["c_factor"]}}


def cases() -> list[dict]:
    return ([skew_case(d) for d in SKEW_SIZES]
            + [json.loads((SYSTEMS / "finite_extension_m2.json").read_text())]
            + [tensor_case(k) for k in TENSOR_CYCLES])


def run_once(desc: dict, src: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src),
                           str(ADDRESS_SPACE_CAP), str(CESARO_HORIZON),
                           json.dumps(STAGES)],
                          input=json.dumps(desc),
                          capture_output=True, text=True, env=env, timeout=900)
    if proc.returncode:
        lines = proc.stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(desc: dict, src: Path, label: str) -> dict:
    runs = [run_once(desc, src) for _ in range(RUNS)]
    row = {"label": label, "case": desc["name"]}
    errors = [r["error"] for r in runs if "error" in r]
    if errors:
        return {**row, "error": errors[0]}
    return {**row, "dim_basic": runs[0]["dim_basic"],
            "passed": all(r["passed"] for r in runs),
            "wall_s": round(statistics.median(r["wall_s"] for r in runs), 4),
            "stage_s": {stage: round(statistics.median(r["stage_s"][stage]
                                                       for r in runs), 5)
                        for stage in STAGES},
            "cesaro_s": round(statistics.median(r["cesaro_s"] for r in runs), 5),
            "peak_rss_mb": round(max(r["rss_mb"] for r in runs), 1),
            "stage_rss_mb": {stage: round(max(r["stage_rss_mb"][stage] for r in runs), 1)
                             for stage in STAGES}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="run every case and write its rows to BENCH_ladder.json")
    parser.add_argument("--label", default="current", help="label of the rows")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the vnspec package to measure")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "vnspec" / "__init__.py").is_file():
        parser.error(f"no vnspec package under {src}")
    rows = []
    for desc in cases() if args.full else cases()[:1]:
        rows.append(measure(desc, src, args.label))
        print(json.dumps(rows[-1]), flush=True)
    if args.full:
        doc = json.loads(OUT.read_text()) if OUT.is_file() else {"rows": []}
        doc.update({"host": f"{platform.machine()}, {os.cpu_count()} cores, "
                            f"Python {platform.python_version()}, "
                            f"numpy {importlib.metadata.version('numpy')}",
                    "runs_per_row": RUNS, "address_space_cap_bytes": ADDRESS_SPACE_CAP,
                    "blas_threads": 1})
        doc["rows"] = [r for r in doc["rows"] if r["label"] != args.label] + rows
        OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
