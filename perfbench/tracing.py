"""Span tracing of vnspec from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each name wherever a ``vnspec`` module holds it, so calls made
between modules are recorded too.  No source under ``src/`` changes.  Spans
are kept in memory and only recorded inside a root span opened with
``Tracer.span``; a few functions also record counters computed from the
shapes of their arguments and results (``HOOKS``).

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics.  It needs neither numpy nor vnspec, so the benchmark's parent
process can call it.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import resource
import sys
import time
import types
from collections import defaultdict

LAYER_MODULES = ("descriptions", "constructors", "gns", "basic", "joining",
                 "spectrum", "pipeline", "report", "algebra", "linalg")
BENCH_MODULE = "bench"  # root spans: the case runner's own glue
MIB = float(1 << 20)
COMPLEX_BYTES = 16


# Counters computed from argument and result shapes.  Keys starting with
# "max_" aggregate by maximum, all others by sum.

def _commutant(args, result):
    alg = args["alg"]
    n = alg.ambient_dim
    return {"stack_mib": alg.dim * n ** 4 * COMPLEX_BYTES / MIB}


def _nullspace(args, result):
    m, n = args["mat"].shape
    rows = max(m, n)  # nullspace pads short matrices to square
    return {"max_rows": rows, "max_cols": n,
            "svd_mib": rows * n * COMPLEX_BYTES / MIB}


def _extend_orthonormal(args, result):
    cand = args["candidates"]
    offered = cand.shape[0] if cand.ndim == 2 else int(cand.size > 0)
    return {"offered": offered,
            "kept": result.shape[0] - args["existing"].shape[0]}


def _cesaro(args, result):
    return {"steps": len(result)}


def _rss(args, result):
    return {"max_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


HOOKS = {
    "algebra.commutant": _commutant,
    "linalg.nullspace": _nullspace,
    "linalg.extend_orthonormal": _extend_orthonormal,
    "spectrum.cesaro_sequence": _cesaro,
    "basic.build_basic_construction": _rss,
    "spectrum.find_minimal_modules": _rss,
}


class Tracer:
    """Records spans ``[name, start, end, parent, counters]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self.spans.append([name, time.monotonic(), None, parent, None])
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span; wrapped functions record spans only inside one."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                self.spans[idx][4] = hook(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the layer modules and rebind them."""
        wrapped = {}
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"vnspec.{layer}")
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrapped[val] = self._wrap(f"{layer}.{attr}", val)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "vnspec" and not mod_name.startswith("vnspec."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    setattr(mod, attr, wrapped[val])


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def pass_profile(cases: list[list[list]]) -> dict:
    """Sum one traced pass (the span lists of its case processes) by name.

    Returns inclusive seconds and counts per function, self seconds and
    counts per module, summed counters and the total root time.
    """
    func_s: dict[str, float] = defaultdict(float)
    func_calls: dict[str, int] = defaultdict(int)
    mod_self: dict[str, float] = defaultdict(float)
    mod_calls: dict[str, int] = defaultdict(int)
    counters: dict[str, float] = defaultdict(float)
    root_s = 0.0
    for spans in cases:
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent, attrs = span
            mod = _module(name)
            mod_self[mod] += own
            mod_calls[mod] += 1
            func_calls[name] += 1
            func_s[name] += end - start
            if parent is None:
                root_s += end - start
            for key, val in (attrs or {}).items():
                full = f"{name}.{key}"
                if key.startswith("max_"):
                    counters[full] = max(counters[full], val)
                else:
                    counters[full] += val
    return {"func_s": func_s, "func_calls": func_calls, "mod_self": mod_self,
            "mod_calls": mod_calls, "counters": counters, "root_s": root_s}


def _get(table: str, key: str):
    return lambda p: p[table][key]


def _ratio(num, den):
    return lambda p: num(p) / den(p) if den(p) else 0.0


_TIMED = ("linalg.nullspace", "algebra.commutant", "spectrum.find_minimal_modules",
          "algebra.generate_algebra", "linalg.extend_orthonormal",
          "basic.build_basic_construction", "algebra.validate_automorphism",
          "gns.build_gns", "basic.lifted_trace_coefficients",
          "basic.lifted_trace_via_partition", "joining.relative_joining",
          "joining.joining_equivalence", "joining.relative_ergodicity_check",
          "spectrum.cesaro_sequence", "descriptions.parse_system",
          "report.analysis_to_dict")

# (name, unit, value from a pass profile); "_computed", "kept_ratio",
# "steps" and "rss_mb" metrics are counters computed from shapes (HOOKS)
PER_LAYER = [
    ("traced_s", "s", lambda p: p["root_s"]),
    *[(f"{m}.self_s", "s", _get("mod_self", m))
      for m in (*LAYER_MODULES, BENCH_MODULE)],
    *[(f"{m}.calls", "count", _get("mod_calls", m))
      for m in (*LAYER_MODULES, BENCH_MODULE)],
    *[(f"{f}.s", "s", _get("func_s", f)) for f in _TIMED],
    ("algebra.generate_algebra.calls", "count",
     _get("func_calls", "algebra.generate_algebra")),
    ("linalg.nullspace.calls", "count",
     _get("func_calls", "linalg.nullspace")),
    ("algebra.commutant.stack_mb_computed", "MiB",
     _get("counters", "algebra.commutant.stack_mib")),
    ("linalg.nullspace.svd_mb_computed", "MiB",
     _get("counters", "linalg.nullspace.svd_mib")),
    ("linalg.nullspace.svd_max_rows_computed", "count",
     _get("counters", "linalg.nullspace.max_rows")),
    ("linalg.nullspace.svd_max_cols_computed", "count",
     _get("counters", "linalg.nullspace.max_cols")),
    ("linalg.extend_orthonormal.offered_rows_computed", "count",
     _get("counters", "linalg.extend_orthonormal.offered")),
    ("linalg.extend_orthonormal.kept_ratio", "ratio",
     _ratio(_get("counters", "linalg.extend_orthonormal.kept"),
            _get("counters", "linalg.extend_orthonormal.offered"))),
    ("spectrum.cesaro_sequence.steps", "count",
     _get("counters", "spectrum.cesaro_sequence.steps")),
    ("spectrum.cesaro_sequence.us_per_step", "us",
     lambda p: 1e6 * _ratio(_get("func_s", "spectrum.cesaro_sequence"),
                            _get("counters", "spectrum.cesaro_sequence.steps"))(p)),
    ("basic.build_basic_construction.rss_mb", "MiB",
     _get("counters", "basic.build_basic_construction.max_rss_mib")),
    ("spectrum.find_minimal_modules.rss_mb", "MiB",
     _get("counters", "spectrum.find_minimal_modules.max_rss_mib")),
]


def layer_metrics(profile: dict) -> dict[str, float]:
    return {name: float(get(profile)) for name, _, get in PER_LAYER}
