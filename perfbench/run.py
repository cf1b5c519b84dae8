"""Closed-loop benchmark of the vnspec pipeline.

    python3 perfbench/run.py --workload selftest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table each

Run from the root of a checkout.  A single client runs one case at a time,
each in a process of its own (``case.py``) with one BLAS and OpenMP thread
and a capped address space, so an oversized case is a counted failure.  A
run repeats the workload's cases in passes for ``--seconds`` (at least one
pass; no pass that would, at the last pass's length, end later).  A
case's set-up time is the fastest of its samples in the run, and its wall
time is taken in units of a reference kernel timed beside it; README.md
says why.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics and writes every
span to ``.perfbench_out/``.  Stdout ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md beside this
file explains the workloads and which layer metric should move which
end-to-end metric.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# the shipped descriptions that `vnspec selftest` analyses
SHIPPED = ("classical_4cycle", "explicit_m2_grading", "finite_extension_m2",
           "full_subsystem_m2", "group_z4_inversion", "skew_z4_inversion",
           "tensor_diag2_m2")
SKEW_ATOMS = (3, 4, 6)   # d = 12, 16, 24; d = 32 exceeds memory today
Z4_TABLE = [[(i + j) % 4 for j in range(4)] for i in range(4)]
Z4_INVERSION = [0, 3, 2, 1]
CESARO_HORIZON = 2048
SETUP_ROUNDS = 2         # set-up-only rounds of all cases before, and after,
                         # the passes
DEADLINE_S = 160.0       # a run must end within 180 s; later cases fail
MAX_GLUE_SHARE = 0.02    # of the traced wall, outside every wrapped function
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("slowest_case_ref", "ref"),
              ("peak_rss_mb", "MiB"))


def _shipped(name: str) -> str:
    return (SRC / "vnspec" / "systems" / f"{name}.json").read_text()


def selftest_cases(seed: int) -> list[dict]:
    return [{"id": name, "task": "analyze", "seed": seed,
             "description": _shipped(name)} for name in SHIPPED]


def skew_ladder_cases(seed: int) -> list[dict]:
    """Skew products over Z_4 with the inversion automorphism.

    Each base is a single cycle of equally weighted atoms; the seed picks the
    order in which the cycle visits the atoms and the cocycle.  The cocycle's
    sum is kept odd, so the extension around the cycle is the inversion: its
    parity decides the block structure, and the even class costs half as
    much, which would make runs with different seeds incomparable.
    """
    rng = random.Random(seed)
    cases = []
    for n_x in SKEW_ATOMS:
        order = rng.sample(range(n_x), n_x)
        perm = [0] * n_x
        for i, x in enumerate(order):
            perm[x] = order[(i + 1) % n_x]
        cocycle = [rng.randrange(4) for _ in range(n_x)]
        if sum(cocycle) % 2 == 0:
            cocycle[-1] = (cocycle[-1] + 1) % 4
        desc = {"format_version": 1, "name": f"skew_ladder_x{n_x}",
                "kind": "skew_product",
                "parameters": {"weights": [1.0 / n_x] * n_x, "permutation": perm,
                               "group_table": Z4_TABLE,
                               "group_automorphism": Z4_INVERSION,
                               "cocycle": cocycle}}
        cases.append({"id": f"skew_d{4 * n_x}", "task": "analyze", "seed": seed,
                      "description": json.dumps(desc),
                      "expect": {"dim_basic": 16 * n_x}})
    return cases


def cesaro_long_cases(seed: int) -> list[dict]:
    return [{"id": name, "task": "cesaro", "seed": seed,
             "horizon": CESARO_HORIZON, "description": _shipped(name)}
            for name in SHIPPED]


WORKLOADS = {"selftest": selftest_cases, "skew_ladder": skew_ladder_cases,
             "cesaro_long": cesaro_long_cases}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_case(spec: dict, deadline: float, trace: bool = False,
             setup_only: bool = False) -> dict:
    """Run one case process; ``failure`` is None when the case is correct."""
    start = time.monotonic()
    res = {"id": spec["id"], "failure": None, "rss_mib": 0.0, "spans": None}
    if start >= deadline:
        res.update(failure="run deadline passed", wall_s=0.0)
        return res
    payload = json.dumps({**spec, "trace": trace, "setup_only": setup_only})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "case.py")],
                              input=payload, capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT,
                              timeout=deadline - start)
    except subprocess.TimeoutExpired:
        res.update(failure="timed out", wall_s=time.monotonic() - start)
        return res
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    problems = out.get("problems", [])
    if len(problems) > 3:
        problems = problems[:3] + [f"{len(problems) - 3} more"]
    res["failure"] = out.get("error") or "; ".join(problems) or None
    res["rss_mib"] = out.get("rss_mib", 0.0)
    res["spans"] = out.get("spans")
    if "t_ready" in out:
        res["setup_s"] = out["t_ready"] - start
    res["wall_s"] = (out["t_done"] - out["t_start"] if "t_done" in out
                     else time.monotonic() - start)
    if "ref_s" in out:
        res["ref_s"] = out["ref_s"]
    return res


def _pass_wall(results: list[dict]) -> float:
    return sum(r["wall_s"] for r in results)


def _fastest(runs: list[dict], key: str) -> dict[str, float]:
    """The smallest ``key`` sample of each case over ``runs``."""
    best: dict[str, float] = {}
    for r in runs:
        if key in r:
            best[r["id"]] = min(best.get(r["id"], r[key]), r[key])
    return best


def _relative_walls(runs: list[dict]) -> dict[str, float]:
    """Each case's median wall time in units of the reference kernel's time.

    The kernel is timed in the case's own process just before and just after
    the case, so a slow spell of the shared host slows both alike.
    """
    ratios: dict[str, list[float]] = {}
    for r in runs:
        ratios.setdefault(r["id"], []).append(
            r["wall_s"] / statistics.fmean(r["ref_s"]))
    return {case: statistics.median(v) for case, v in ratios.items()}


def _trace_problems(profile: dict) -> list[str]:
    """The layer modules' self times must account for the traced wall.

    What is left is the runner's own glue between the wrapped calls
    (``bench.self_s``); a larger share means that work ran outside every
    wrapped function, so the per-layer metrics would miss it.
    """
    glue = profile["mod_self"][tracing.BENCH_MODULE]
    if glue <= MAX_GLUE_SHARE * profile["root_s"]:
        return []
    return [f"{glue:.3f} s of {profile['root_s']:.3f} s traced ran outside "
            f"the layer modules (at most {MAX_GLUE_SHARE:.0%} allowed)"]


def _write_trace(workload: str, seed: int, passes: list[list[dict]]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload}_seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "passes": [
        [{"case": r["id"], "spans": [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent,
             "computed": attrs}
            for i, (name, start, end, parent, attrs) in enumerate(r["spans"] or [])]}
         for r in results]
        for results in passes]}
    path.write_text(json.dumps(doc))
    return path


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    cases = WORKLOADS[name](seed)
    deadline = time.monotonic() + DEADLINE_S

    def probe_rounds() -> list[dict]:
        return [] if trace else [run_case(c, deadline, setup_only=True)
                                 for _ in range(SETUP_ROUNDS) for c in cases]

    probes = probe_rounds()
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        untraced.append([run_case(c, deadline) for c in cases])
        if trace:
            traced.append([run_case(c, deadline, trace=True) for c in cases])
        now = time.monotonic()
        # another pass only if, taking as long as this one, it ends in time
        if 2 * now - begun - start > seconds or now >= deadline:
            break
    probes += probe_rounds()
    runs = probes + [r for p in untraced + traced for r in p]
    failures = [f"{r['id']}: {r['failure']}" for r in runs if r["failure"]]
    walls = [_pass_wall(p) for p in untraced]
    out = {"passes": len(untraced), "pass_walls": walls,
           "pass_slowest": [max(r["wall_s"] for r in p) for p in untraced],
           "attempted": len(runs),
           "failed": len(failures), "failures": failures}
    if not trace:
        timed = [r for p in untraced for r in p if not r["failure"]]
        case_walls = _fastest(timed, "wall_s")
        case_refs = _relative_walls(timed)
        out["metrics"] = {
            "setup_s": sum(_fastest(probes + timed, "setup_s").values()),
            "wall_ref": sum(case_refs.values()),
            "slowest_case_ref": max(case_refs.values(), default=0.0),
            "peak_rss_mb": max(r["rss_mib"] for r in runs)}
        out["seconds"] = {"wall_s": sum(case_walls.values()),
                          "slowest_case_s": max(case_walls.values(), default=0.0)}
        out["units"] = dict(END_TO_END)
        return out
    profiles = [tracing.pass_profile([r["spans"] or [] for r in p])
                for p in traced]
    for profile in profiles:
        out["failures"] += _trace_problems(profile)
    traced_walls = [_pass_wall(p) for p in traced]
    fastest = traced_walls.index(min(traced_walls))
    out["metrics"] = tracing.layer_metrics(profiles[fastest])
    out["metrics"]["trace_overhead_s"] = traced_walls[fastest] - min(walls)
    out["units"] = {n: u for n, u, _ in tracing.PER_LAYER}
    out["units"]["trace_overhead_s"] = "s"
    out["trace_file"] = str(_write_trace(name, seed, traced).relative_to(ROOT))
    return out


def _print_summary(name: str, seed: int, res: dict) -> None:
    share = res["failed"] / res["attempted"]
    print(f"{name} (seed {seed}): {res['passes']} passes, "
          f"{res['attempted']} case processes, {res['failed']} failed; "
          f"untraced pass walls (s): "
          + ", ".join(f"{w:.3f}" for w in res["pass_walls"])
          + "; slowest cases (s): "
          + ", ".join(f"{w:.3f}" for w in res["pass_slowest"]))
    for key, value in res["metrics"].items():
        print(f"  {key:48s} {value:14.6f} {res['units'][key]}")
    for key, value in res.get("seconds", {}).items():
        print(f"  {key:48s} {value:14.6f} s (fastest pass of each case)")
    print(f"  {'failed_share':48s} {share:14.6f} ({res['failed']} of "
          f"{res['attempted']})")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    if "trace_file" in res:
        print(f"  spans written to {res['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "vnspec" / "__init__.py").is_file():
        print(f"vnspec sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running case process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    metrics = {}
    for name, res in results.items():
        _print_summary(name, args.seed, res)
        prefix = "" if args.workload != "all" else f"{name}."
        metrics.update({prefix + key: {"value": value, "unit": res["units"][key]}
                        for key, value in res["metrics"].items()})
    failed = sum(r["failed"] for r in results.values())
    failures = sum(len(r["failures"]) for r in results.values())
    print(json.dumps({"correct": failures == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
