"""System-description documents.

A description is a JSON object with ``format_version``, ``name``, ``kind`` and
``parameters``; complex numbers are serialized as [re, im] pairs and matrices
as row-major nested arrays.  Parsing normalizes to plain Python containers so
that parse-emit-parse is idempotent.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, ToleranceConfig, WStarSystem
from .constructors import (ConstructedSystem, FiniteExtensionSpec, SkewProductSpec,
                           build_classical_system, build_explicit_system,
                           build_finite_extension, build_group_vn_system,
                           build_skew_product, build_tensor_system,
                           classical_sub_partition, explicit_system,
                           group_sub_system, subsystem, trivial_subalgebra)
from .errors import InputError, ParseError, ValidationError

FORMAT_VERSION = 1
KINDS = ("explicit", "classical", "group_vn", "tensor", "skew_product",
         "finite_extension")
FACTOR_KINDS = ("explicit", "classical", "group_vn")
TOP_KEYS = ("format_version", "name", "kind", "parameters", "tolerances")
FACTOR_KEYS = ("kind", "parameters")
PARAMETER_KEYS = {
    "explicit": ("ambient_dim", "algebra_generators", "trace_density",
                 "dynamics_unitary", "subalgebra_generators"),
    "classical": ("weights", "permutation", "sub_partition"),
    "group_vn": ("group_table", "automorphism", "subgroup"),
    "tensor": ("b_factor", "c_factor"),
    "skew_product": ("weights", "permutation", "group_table",
                     "group_automorphism", "cocycle"),
    "finite_extension": ("b1_factor", "b2_factor", "s", "v1", "v2", "v3", "v4"),
}
SUBSYSTEM_KEYS = ("subalgebra_generators", "sub_partition", "subgroup")  # not in factors


@dataclass(frozen=True)
class SystemDescription:
    name: str
    kind: str
    parameters: dict
    tolerances: dict = field(default_factory=dict)

    def tolerance_config(self, base: ToleranceConfig = DEFAULT_TOL) -> ToleranceConfig:
        return ToleranceConfig(
            eps_rank=float(self.tolerances.get("eps_rank", base.eps_rank)),
            eps_assert=float(self.tolerances.get("eps_assert", base.eps_assert)),
            cesaro_n_max=int(self.tolerances.get("cesaro_n_max", base.cesaro_n_max)))


def _expect(cond: bool, fld: str, msg: str) -> None:
    if not cond:
        raise ValidationError(fld, msg)


def _expect_known_keys(obj: dict, known, fld: str) -> None:
    for key in obj:
        _expect(key in known, f"{fld}.{key}" if fld else str(key), "unknown key")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_matrix(obj, fld: str) -> list:
    _expect(isinstance(obj, list) and obj, fld, "expected a nonempty matrix")
    width = None
    out = []
    for r, row in enumerate(obj):
        _expect(isinstance(row, list) and row, f"{fld}[{r}]", "expected a matrix row")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"{fld}[{r}]", "ragged matrix rows")
        new_row = []
        for c, entry in enumerate(row):
            _expect(isinstance(entry, list) and len(entry) == 2
                    and all(_is_number(x) for x in entry),
                    f"{fld}[{r}][{c}]", "entries must be [re, im] pairs")
            _expect(all(np.isfinite(float(x)) for x in entry),
                    f"{fld}[{r}][{c}]", "entries must be finite")
            new_row.append([float(entry[0]), float(entry[1])])
        out.append(new_row)
    return out


def matrix_to_array(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return (a[..., 0] + 1j * a[..., 1]).astype(np.complex128)


def array_to_matrix(mat: np.ndarray) -> list:
    m = np.asarray(mat, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _parse_int_list(obj, fld: str) -> list[int]:
    _expect(isinstance(obj, list), fld, "expected a list of integers")
    _expect(all(_is_int(x) for x in obj), fld, "entries must be integers")
    return [int(x) for x in obj]


def _parse_float_list(obj, fld: str) -> list[float]:
    _expect(isinstance(obj, list), fld, "expected a list of numbers")
    _expect(all(_is_number(x) for x in obj), fld, "entries must be numbers")
    _expect(all(np.isfinite(float(x)) for x in obj), fld, "entries must be finite")
    return [float(x) for x in obj]


def _parse_factor(obj, fld: str) -> dict:
    _expect(isinstance(obj, dict), fld, "expected a factor object")
    _expect_known_keys(obj, FACTOR_KEYS, fld)
    kind = obj.get("kind")
    _expect(kind in FACTOR_KINDS, f"{fld}.kind",
            f"factor kind must be one of {FACTOR_KINDS}")
    params = obj.get("parameters")
    _expect(isinstance(params, dict), f"{fld}.parameters", "expected an object")
    return {"kind": kind,
            "parameters": _parse_params(kind, params, f"{fld}.parameters",
                                        factor=True)}


def _parse_params(kind: str, p: dict, fld: str, factor: bool = False) -> dict:
    _expect_known_keys(p, [k for k in PARAMETER_KEYS.get(kind, ())
                           if not (factor and k in SUBSYSTEM_KEYS)], fld)
    out = {}
    if kind == "explicit":
        _expect(_is_int(p.get("ambient_dim")) and p["ambient_dim"] > 0,
                f"{fld}.ambient_dim", "expected a positive integer")
        out["ambient_dim"] = p["ambient_dim"]
        gens = p.get("algebra_generators", [])
        _expect(isinstance(gens, list), f"{fld}.algebra_generators",
                "expected a list of matrices")
        out["algebra_generators"] = [
            _parse_matrix(g, f"{fld}.algebra_generators[{i}]")
            for i, g in enumerate(gens)]
        out["trace_density"] = _parse_matrix(p.get("trace_density"),
                                             f"{fld}.trace_density")
        out["dynamics_unitary"] = _parse_matrix(p.get("dynamics_unitary"),
                                                f"{fld}.dynamics_unitary")
        if not factor:
            subs = p.get("subalgebra_generators", [])
            _expect(isinstance(subs, list), f"{fld}.subalgebra_generators",
                    "expected a list of matrices")
            out["subalgebra_generators"] = [
                _parse_matrix(g, f"{fld}.subalgebra_generators[{i}]")
                for i, g in enumerate(subs)]
    elif kind == "classical":
        out["weights"] = _parse_float_list(p.get("weights"), f"{fld}.weights")
        out["permutation"] = _parse_int_list(p.get("permutation"),
                                             f"{fld}.permutation")
        if not factor:
            blocks = p.get("sub_partition")
            if blocks is None:
                blocks = [list(range(len(out["weights"])))]
            _expect(isinstance(blocks, list) and blocks, f"{fld}.sub_partition",
                    "expected a list of atom blocks")
            out["sub_partition"] = [
                _parse_int_list(b, f"{fld}.sub_partition[{i}]")
                for i, b in enumerate(blocks)]
    elif kind == "group_vn":
        table = p.get("group_table")
        _expect(isinstance(table, list) and table, f"{fld}.group_table",
                "expected a multiplication table")
        out["group_table"] = [
            _parse_int_list(row, f"{fld}.group_table[{i}]")
            for i, row in enumerate(table)]
        out["automorphism"] = _parse_int_list(p.get("automorphism"),
                                              f"{fld}.automorphism")
        if not factor:
            sub = p.get("subgroup")
            out["subgroup"] = (_parse_int_list(sub, f"{fld}.subgroup")
                               if sub is not None else None)
    elif kind == "tensor":
        out["b_factor"] = _parse_factor(p.get("b_factor"), f"{fld}.b_factor")
        out["c_factor"] = _parse_factor(p.get("c_factor"), f"{fld}.c_factor")
    elif kind == "skew_product":
        out["weights"] = _parse_float_list(p.get("weights"), f"{fld}.weights")
        out["permutation"] = _parse_int_list(p.get("permutation"),
                                             f"{fld}.permutation")
        table = p.get("group_table")
        _expect(isinstance(table, list) and table, f"{fld}.group_table",
                "expected a multiplication table")
        out["group_table"] = [
            _parse_int_list(row, f"{fld}.group_table[{i}]")
            for i, row in enumerate(table)]
        out["group_automorphism"] = _parse_int_list(
            p.get("group_automorphism"), f"{fld}.group_automorphism")
        out["cocycle"] = _parse_int_list(p.get("cocycle"), f"{fld}.cocycle")
    elif kind == "finite_extension":
        out["b1_factor"] = _parse_factor(p.get("b1_factor"), f"{fld}.b1_factor")
        b2 = p.get("b2_factor")  # only a missing key or null means no summand
        out["b2_factor"] = (_parse_factor(b2, f"{fld}.b2_factor")
                            if b2 is not None else None)
        s = p.get("s", 0.5)
        _expect(_is_number(s) and np.isfinite(float(s)), f"{fld}.s",
                "expected a finite number")
        out["s"] = float(s)
        for key in ("v1", "v4"):
            out[key] = _parse_matrix(p.get(key), f"{fld}.{key}")
        for key in ("v2", "v3"):
            out[key] = (_parse_matrix(p.get(key), f"{fld}.{key}")
                        if out["b2_factor"] is not None else None)
    return out


def parse_system(source) -> SystemDescription:
    """Parse a description from a dict or a JSON string."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
    _expect(isinstance(doc, dict), "$", "document must be an object")
    version = doc.get("format_version")
    _expect(_is_int(version) and version == FORMAT_VERSION, "format_version",
            f"expected format version {FORMAT_VERSION}")
    name = doc.get("name", "unnamed")
    _expect(isinstance(name, str), "name", "expected a string")
    kind = doc.get("kind")
    _expect(kind in KINDS, "kind", f"kind must be one of {KINDS}")
    params = doc.get("parameters")
    _expect(isinstance(params, dict), "parameters", "expected an object")
    tols = doc.get("tolerances", {})
    _expect(isinstance(tols, dict), "tolerances", "expected an object")
    for key, value in tols.items():
        fld = f"tolerances.{key}"
        _expect(key in ("eps_rank", "eps_assert", "cesaro_n_max"), fld,
                "unknown tolerance")
        if key == "cesaro_n_max":
            _expect(_is_int(value) and value >= 1, fld, "expected a positive integer")
        else:
            _expect(_is_number(value) and np.isfinite(value) and value > 0, fld,
                    "expected a positive finite number")
    desc = SystemDescription(name, kind, _parse_params(kind, params, "parameters"),
                             dict(tols))
    _expect_known_keys(doc, TOP_KEYS, "")
    return desc


def emit_description(desc: SystemDescription) -> dict:
    out = {"format_version": FORMAT_VERSION, "name": desc.name, "kind": desc.kind,
           "parameters": desc.parameters}
    if desc.tolerances:
        out["tolerances"] = desc.tolerances
    return out


def _build_factor(factor: dict, tol: ToleranceConfig) -> WStarSystem:
    """The system of a factor description; a product system has its own
    subsystem B (x) 1, so none is built for the factor."""
    kind, p = factor["kind"], factor["parameters"]
    if kind == "explicit":
        return explicit_system(
            p["ambient_dim"], [matrix_to_array(g) for g in p["algebra_generators"]],
            matrix_to_array(p["trace_density"]),
            dynamics_unitary=matrix_to_array(p["dynamics_unitary"]), tol=tol)
    if kind == "classical":
        return build_classical_system(p["weights"], p["permutation"], tol)
    if kind == "group_vn":
        return build_group_vn_system(p["group_table"], p["automorphism"], tol).system
    raise ValidationError("kind", f"unsupported factor kind {kind!r}")


def build_from_description(desc: SystemDescription,
                           tol: ToleranceConfig | None = None) -> ConstructedSystem:
    """Instantiate the constructor matching the description."""
    tol = desc.tolerance_config() if tol is None else tol
    p = desc.parameters
    try:
        if desc.kind == "explicit":
            return build_explicit_system(
                p["ambient_dim"],
                [matrix_to_array(g) for g in p["algebra_generators"]],
                matrix_to_array(p["trace_density"]),
                dynamics_unitary=matrix_to_array(p["dynamics_unitary"]),
                sub_generators=[matrix_to_array(g)
                                for g in p["subalgebra_generators"]],
                tol=tol)
        if desc.kind == "classical":
            sys = build_classical_system(p["weights"], p["permutation"], tol)
            sub = classical_sub_partition(sys, p["sub_partition"])
            return ConstructedSystem(sys, sub)
        if desc.kind == "group_vn":
            gs = build_group_vn_system(p["group_table"], p["automorphism"], tol)
            if p.get("subgroup") is None:
                sub = subsystem(gs.system,
                                trivial_subalgebra(gs.system.algebra.ambient_dim))
            else:
                sub = group_sub_system(gs, p["subgroup"])
            return ConstructedSystem(gs.system, sub)
        if desc.kind == "tensor":
            return build_tensor_system(_build_factor(p["b_factor"], tol),
                                       _build_factor(p["c_factor"], tol), tol)
        if desc.kind == "skew_product":
            spec = SkewProductSpec(
                weights=tuple(p["weights"]), permutation=tuple(p["permutation"]),
                group_table=tuple(map(tuple, p["group_table"])),
                group_automorphism=tuple(p["group_automorphism"]),
                cocycle=tuple(p["cocycle"]))
            return build_skew_product(spec, tol)
        if desc.kind == "finite_extension":
            b1 = _build_factor(p["b1_factor"], tol)
            b2 = (_build_factor(p["b2_factor"], tol)
                  if p["b2_factor"] is not None else None)
            spec = FiniteExtensionSpec(
                b1=b1, b2=b2, s=p["s"],
                v1=matrix_to_array(p["v1"]), v4=matrix_to_array(p["v4"]),
                v2=matrix_to_array(p["v2"]) if p["v2"] is not None else None,
                v3=matrix_to_array(p["v3"]) if p["v3"] is not None else None)
            return build_finite_extension(spec, tol)
    except ValidationError:
        raise
    except InputError as exc:
        raise ValidationError(f"parameters ({desc.kind})", str(exc)) from exc
    raise ValidationError("kind", f"unknown kind {desc.kind!r}")
