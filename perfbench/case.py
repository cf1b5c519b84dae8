"""One benchmark case, run in a process of its own.

Reads a case spec (one JSON object) on stdin and prints one JSON line:

* ``t_ready``: clock reading once vnspec is imported, the input is parsed
  and a fixed tiny warm-up analysis has run (the end of set-up);
* ``t_start`` and ``t_done``: clock readings around the timed work;
* ``ref_s``: the reference kernel's time just before and just after it;
* ``rss_mib``: the process's peak resident set size;
* ``problems``: outputs that failed a ledger check or missed a closed-form
  expectation (empty when the case is correct), or ``error`` if it raised;
* ``spans``: the recorded spans when the spec asks for tracing.

Both clock readings use ``time.monotonic``, the system-wide monotonic clock,
so that the parent can subtract its own reading taken before the spawn.

Spec keys: ``task`` ("analyze" or "cesaro"), ``description`` (the JSON text
of a system description), ``seed``, ``horizon`` (Cesaro steps, "cesaro"
only), ``expect`` (optional closed-form values), ``trace`` and
``setup_only``.  The process caps its address space before any case
work, so a case too large for the cap fails with ``MemoryError`` instead of
drawing the kernel's out-of-memory killer.
"""
from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import vnspec
from vnspec import descriptions, pipeline, report, spectrum

ADDRESS_SPACE_CAP = 4 << 30  # bytes; the largest case needs about 1.6 GB
SRC = Path(__file__).resolve().parent.parent / "src"
WARM_UP = json.dumps({
    "format_version": 1, "name": "warm_up", "kind": "classical",
    "parameters": {"weights": [0.5, 0.5], "permutation": [1, 0],
                   "sub_partition": [[0, 1]]}})
RANK_TOL = 1e-9      # singular-value cutoff of the closed-form rank counts
WITNESS_TOL = 1e-6   # Cesaro floor that separates weak mixing from not
MATCH_TOL = 1e-8     # agreement required of recomputed values


def _cap_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY \
        else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


REF_SAMPLES = 5     # reference-kernel timings on each side of the case
_REF_RNG = np.random.default_rng(0)
REF_SMALL = _REF_RNG.standard_normal((24, 24))
REF_TALL = _REF_RNG.standard_normal((500, 120)) + 1j * _REF_RNG.standard_normal(
    (500, 120))


def reference_kernel() -> float:
    """Median seconds of a fixed mix of the pipeline's kinds of work.

    Small-matrix numpy calls and a Python loop, as in the Cesaro steps and
    the ledger, take about 40 % of the time; the SVD of a tall complex
    matrix, as in module search, takes the rest.  It tells how fast this
    CPU runs right now.
    """
    times = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        x = REF_SMALL
        for _ in range(450):
            x = REF_SMALL @ x
            x = x / np.abs(x).max()
        acc = 0
        for i in range(45000):
            acc += i * i
        np.linalg.svd(REF_TALL, full_matrices=False)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _untraced(name: str):
    return contextlib.nullcontext()


# --- closed-form expectations (numpy only, independent of vnspec) ----------

def _rank(stack) -> int:
    rows = stack.reshape(len(stack), -1)
    return int(np.sum(np.linalg.svd(rows, compute_uv=False) > RANK_TOL))


def bratteli_dimension(a_basis, f_basis) -> int:
    """Dimension of the commutant of F acting on L2(A) from the right.

    Over the minimal central projections p_k of F, with F p_k the n_k x n_k
    matrices and m_k = dim(A p_k) / n_k, this is sum_k m_k^2: the dimension
    of <A, e> and the rank of the relatively independent joining.
    """
    m = len(f_basis)
    comm = np.stack([f_basis[j] @ f_basis - f_basis @ f_basis[j]
                     for j in range(m)])
    _, s, vh = np.linalg.svd(comm.transpose(0, 2, 3, 1).reshape(-1, m))
    central = vh[int(np.sum(s > RANK_TOL)):].conj()  # coefficient rows
    rng = np.random.default_rng(0)
    weights = rng.standard_normal(len(central)) + 1j * rng.standard_normal(
        len(central))
    z = np.tensordot(weights @ central, f_basis, axes=(0, 0))
    vals, vecs = np.linalg.eigh(z + z.conj().T)
    gaps = np.diff(vals) > 1e-6 * max(1.0, float(vals[-1] - vals[0]))
    total = 0
    for group in np.split(np.arange(len(vals)), np.nonzero(gaps)[0] + 1):
        p = vecs[:, group] @ vecs[:, group].conj().T
        n_k = round(_rank(f_basis @ p) ** 0.5)
        dim_ap = _rank(a_basis @ p)
        if dim_ap % n_k:
            raise ValueError(f"dim(A p) = {dim_ap} is not a multiple of n = {n_k}")
        total += (dim_ap // n_k) ** 2
    return total


def orbit_sizes(params: dict) -> list[int]:
    """Sizes of the orbits of the group automorphism off the identity."""
    table = params["group_table"]
    auto = params["group_automorphism"]
    seen = {table.index(list(range(len(table))))}
    sizes = []
    for g in range(len(table)):
        size = 0
        while g not in seen:
            seen.add(g)
            size += 1
            g = auto[g]
        if size:
            sizes.append(size)
    return sorted(sizes, reverse=True)


def cesaro_term(system, sub, a, n: int) -> float:
    """lambda(|E_F(a* alpha^n(a))|^2), recomputed from the system's data."""
    basis, rho, f = system.algebra.basis, system.trace.density, sub.algebra.basis
    coords = np.tensordot(basis.conj(), a, axes=([1, 2], [0, 1]))
    moved = np.linalg.matrix_power(system.dynamics.matrix, n) @ coords
    x = a.conj().T @ np.tensordot(moved, basis, axes=(0, 0))
    fh = f.conj().transpose(0, 2, 1)
    gram = np.einsum("ab,kbc,lca->kl", rho, fh, f)
    rhs = np.einsum("ab,kbc,ca->k", rho, fh, x)
    e = np.tensordot(np.linalg.solve(gram, rhs), f, axes=(0, 0))
    return float(np.trace(rho @ e.conj().T @ e).real)


# --- tasks -----------------------------------------------------------------

def run_analyze(desc, spec):
    an = pipeline.analyze_description(desc, desc.tolerance_config(), spec["seed"])
    return an, report.analysis_to_dict(an)


def check_analyze(desc, spec, result) -> list[str]:
    an, doc = result
    sp = an.spectrum
    problems = [f"ledger check {c.name} failed (residual {c.residual:.2e})"
                for c in an.checks if c.applicable and not c.passed]
    if doc["pass"] != an.passed:
        problems.append("report pass flag differs from the ledger")
    dim_a = an.built.system.algebra.dim
    dim_f = an.built.sub.algebra.dim
    bratteli = bratteli_dimension(an.built.system.algebra.basis,
                                  an.built.sub.algebra.basis)
    expected = spec.get("expect", {}).get("dim_basic", bratteli)
    if not an.basic.algebra.dim == an.joining.rank == bratteli == expected:
        problems.append(
            f"dim <A, e> {an.basic.algebra.dim}, joining rank {an.joining.rank}, "
            f"Bratteli count {bratteli}, expected {expected}")
    if desc.kind == "skew_product":
        traces = sorted((m.lifted_trace for m in sp.modules), reverse=True)
        sizes = orbit_sizes(desc.parameters)
        if len(traces) != len(sizes) or any(
                abs(t - s) > MATCH_TOL for t, s in zip(traces, sizes)):
            problems.append(f"orbit-module traces {traces}, orbit sizes {sizes}")
    if not sp.rds:
        problems.append("relative discrete spectrum not certified")
    if sp.dim_complement != dim_a - dim_f:
        problems.append(f"complement dim {sp.dim_complement}, "
                        f"expected {dim_a - dim_f}")
    if sp.rwm != (sp.dim_complement == 0):
        problems.append(f"rwm {sp.rwm} with complement dim {sp.dim_complement}")
    floor = max((s.minimum for s in sp.cesaro), default=0.0)
    if (floor > WITNESS_TOL) != (not sp.rwm):
        problems.append(f"Cesaro witness floor {floor:.3e} with rwm {sp.rwm}")
    return problems


def run_cesaro(desc, spec):
    tol = desc.tolerance_config()
    built = descriptions.build_from_description(desc, tol)
    elements = spectrum.admissible_elements(built.system, built.sub, tol,
                                            spec["seed"])
    seqs = [spectrum.cesaro_sequence(built.system, built.sub, mat,
                                     n_max=spec["horizon"], tol=tol,
                                     early_exit=False)
            for _, mat in elements]
    return built, elements, seqs


def check_cesaro(desc, spec, result) -> list[str]:
    built, elements, seqs = result
    horizon = spec["horizon"]
    dim_a = built.system.algebra.dim
    dim_f = built.sub.algebra.dim
    problems = []
    if len(elements) != dim_a - dim_f:
        problems.append(f"{len(elements)} admissible elements, "
                        f"expected dim A - dim F = {dim_a - dim_f}")
    for (label, mat), seq in zip(elements, seqs):
        if len(seq) != horizon or not np.all(np.isfinite(seq)) \
                or seq.min() < -MATCH_TOL:
            problems.append(f"{label}: averages are not {horizon} finite "
                            f"nonnegative numbers")
            continue
        for n in (1, 2, horizon):
            got = n * seq[n - 1] - (n - 1) * (seq[n - 2] if n > 1 else 0.0)
            want = cesaro_term(built.system, built.sub, mat, n)
            if abs(got - want) > MATCH_TOL * max(1.0, abs(want)):
                problems.append(f"{label}: term {n} is {got:.12g}, "
                                f"recomputed {want:.12g}")
    floor = max((float(s.min()) for s in seqs), default=0.0)
    if (floor > WITNESS_TOL) != (dim_a > dim_f):
        problems.append(f"Cesaro witness floor {floor:.3e} with "
                        f"dim A = {dim_a}, dim F = {dim_f}")
    return problems


TASKS = {"analyze": (run_analyze, check_analyze),
         "cesaro": (run_cesaro, check_cesaro)}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    _cap_address_space()
    out: dict = {}
    try:
        if Path(vnspec.__file__).resolve().parent != SRC / "vnspec":
            raise ImportError(f"vnspec imported from {vnspec.__file__}, "
                              f"not from {SRC}")
        tracer = None
        span = _untraced
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            span = tracer.span
        run, check = TASKS[spec["task"]]
        with span("bench.setup"):
            desc = descriptions.parse_system(spec["description"])
            warm = descriptions.parse_system(WARM_UP)
            report.analysis_to_dict(pipeline.analyze_description(warm))
        out["t_ready"] = time.monotonic()
        if not spec["setup_only"]:
            ref_before = reference_kernel()
            out["t_start"] = time.monotonic()
            with span("bench.case"):
                result = run(desc, spec)
            out["t_done"] = time.monotonic()
            out["ref_s"] = [ref_before, reference_kernel()]
            out["problems"] = check(desc, spec, result)
        if tracer is not None:
            out["spans"] = tracer.spans
    except Exception as exc:  # the case fails; the benchmark run goes on
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
