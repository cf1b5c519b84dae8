"""Machine-readable and plain-text reports for a completed analysis."""
from __future__ import annotations

import json
from importlib import resources

from .pipeline import SystemAnalysis

REPORT_VERSION = 1


def report_schema() -> dict:
    """The shipped JSON schema that every emitted report conforms to."""
    path = resources.files("vnspec").joinpath("schemas/report.schema.json")
    return json.loads(path.read_text())


def analysis_to_dict(an: SystemAnalysis) -> dict:
    sys = an.built.system
    sub = an.built.sub
    bc = an.basic
    modules = [{"dim": m.dim,
                "lifted_trace": float(m.lifted_trace),
                "is_right_module": bool(m.is_right_module),
                "is_u_invariant": bool(m.is_u_invariant)}
               for m in an.spectrum.modules]
    blocks = [{"dim": m.dim, "lifted_trace": float(m.lifted_trace)}
              for m in an.spectrum.block_modules]
    cesaro = [{"label": s.label, "count": int(s.values.size),
               "min": float(s.minimum),
               "last": float(s.values[-1]) if s.values.size else 0.0}
              for s in an.spectrum.cesaro]
    fibers = [{"fiber_dims": list(f.fiber_dims),
               "atom_weights": [float(w) for w in f.atom_weights],
               "weighted_sum": f.weighted_sum, "plain_sum": f.plain_sum,
               "measured": f.measured, "matching_formula": f.matching_formula,
               "rank_bound": f.rank_bound}
              for f in an.spectrum.fibers]
    out = {
        "report_version": REPORT_VERSION,
        "name": an.name,
        "kind": an.kind,
        "system": {
            "ambient_dim": sys.algebra.ambient_dim,
            "dim_algebra": sys.algebra.dim,
            "dim_subalgebra": sub.algebra.dim,
            "dim_gns": an.gns.dim,
            "trace_of_identity": float(sys.trace.value(sys.algebra.identity()).real),
        },
        "basic_construction": {
            "dim_algebra": bc.algebra.dim,
            "lifted_trace_of_identity":
                float(bc.lifted_value(bc.algebra.identity_coords()).real),
            "lifted_trace_of_e": float(bc.lifted_value(bc.e_coords).real),
            "lifted_trace_of_complement":
                float(bc.lifted_value(bc.complement_coords).real),
            "dim_bar_gns": len(bc.u_bar),
            "commutant_residual": bc.commutant_residual,
            "extension_residual": bc.extension_residual,
            "default_partition_residual": an.default_partition_residual,
            "tensor_partition_residual": an.tensor_partition_residual,
        },
        "joining": {
            "rank": an.joining.rank,
            "two_formula_residual": an.joining.two_formula_residual,
            "marginal_residual": an.joining.marginal_residual,
            "invariance_residual": an.joining.invariance_residual,
            "f_subspace_span_residual": an.joining.h_lambda_alt_residual,
        },
        "spectrum": {
            "dim_complement": an.spectrum.dim_complement,
            "dim_module_span": an.spectrum.dim_module_span,
            "modules": modules,
            "block_modules": blocks,
            "rds": bool(an.spectrum.rds),
            "rwm": bool(an.spectrum.rwm),
            "cesaro": cesaro,
            "fibers": fibers,
        },
        "checks": [{"name": c.name, "residual": c.residual,
                    "threshold": c.threshold, "pass": bool(c.passed),
                    "applicable": bool(c.applicable), "note": c.note}
                   for c in an.checks],
        "pass": bool(an.passed),
    }
    return out


def emit_report(an: SystemAnalysis, fmt: str = "text") -> str:
    doc = analysis_to_dict(an)
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    push = lines.append
    push(f"system {doc['name']} ({doc['kind']})")
    s = doc["system"]
    push(f"  ambient dim {s['ambient_dim']}, dim A = {s['dim_algebra']}, "
         f"dim F = {s['dim_subalgebra']}, dim H = {s['dim_gns']}")
    b = doc["basic_construction"]
    push(f"  basic construction: dim = {b['dim_algebra']}, "
         f"trace(1) = {b['lifted_trace_of_identity']:.9g}, "
         f"trace(e) = {b['lifted_trace_of_e']:.9g}, "
         f"trace(1-e) = {b['lifted_trace_of_complement']:.9g}")
    j = doc["joining"]
    push(f"  joining: rank {j['rank']}, state residual "
         f"{j['two_formula_residual']:.3e}, marginals {j['marginal_residual']:.3e}")
    sp = doc["spectrum"]
    push(f"  spectrum: complement dim {sp['dim_complement']}, "
         f"rds = {sp['rds']}, rwm = {sp['rwm']}")
    for m in sp["modules"]:
        push(f"    module dim {m['dim']:3d}  lifted trace {m['lifted_trace']:.9g}")
    if sp["cesaro"]:
        floor = max(c["min"] for c in sp["cesaro"])
        push(f"  cesaro: {len(sp['cesaro'])} admissible elements, "
             f"best witness floor {floor:.3e}")
    push("  checks:")
    for c in doc["checks"]:
        if not c["applicable"]:
            status = "  n/a"
        else:
            status = " pass" if c["pass"] else " FAIL"
        push(f"   {status}  {c['name']:28s} residual {c['residual']:.3e}"
             + (f"  ({c['note']})" if c["note"] else ""))
    push(f"  overall: {'pass' if doc['pass'] else 'FAIL'}")
    return "\n".join(lines)
