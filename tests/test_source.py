"""Static checks on the package source, run without a linter."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vnspec"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def stray_tolerances(source: str) -> list[str]:
    """Float literals in (0, 1e-3) other than a ToleranceConfig default or the
    value of a module-level *_TOL constant."""
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ToleranceConfig":
            allowed |= {id(s.value) for s in node.body if isinstance(s, ast.AnnAssign)}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if all(isinstance(t, ast.Name) and t.id.endswith("_TOL") for t in targets):
                allowed.add(id(node.value))
    found = [n for n in ast.walk(tree) if isinstance(n, ast.Constant)
             and isinstance(n.value, float) and 0 < n.value < 1e-3 and id(n) not in allowed]
    return [f"line {n.lineno}: {n.value!r}" for n in sorted(found, key=lambda n: n.lineno)]


def seed_constants(source: str) -> dict[str, object]:
    """Values of the module-level *_SEED constants."""
    return {t.id: node.value.value for node in ast.parse(source).body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for t in node.targets if isinstance(t, ast.Name) and t.id.endswith("_SEED")}


def unnamed_seeds(source: str, constants) -> list[str]:
    """default_rng calls seeded by anything but one of the *_SEED constants
    or a parameter named seed of the enclosing function."""
    found = []

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = params | {a.arg for a in ast.walk(node.args)
                               if isinstance(a, ast.arg)}
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) \
                == "default_rng":
            args = node.args + [k.value for k in node.keywords]
            name = args[0].id if len(args) == 1 and isinstance(args[0], ast.Name) \
                else None
            if not (name in constants or (name == "seed" and "seed" in params)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, params)
    visit(ast.parse(source), frozenset())
    return found


def shared_seeds(constants: dict[str, object]) -> list[list[str]]:
    """Groups of *_SEED constants with one value."""
    groups: dict[object, list[str]] = {}
    for name, value in sorted(constants.items()):
        groups.setdefault(value, []).append(name)
    return [names for names in groups.values() if len(names) > 1]


def function_level_imports(source: str) -> list[str]:
    """Import statements inside a function body, nested functions included."""
    tree = ast.parse(source)
    found = {n for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))}
    return [f"line {n.lineno}: {ast.unparse(n)}"
            for n in sorted(found, key=lambda n: n.lineno)]


def matrix_rank_calls(source: str) -> list[str]:
    """Calls of matrix_rank, as an attribute or as a bare name."""
    found = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)
             and (getattr(n.func, "attr", None) or getattr(n.func, "id", None))
             == "matrix_rank"]
    return [f"line {n.lineno}: {ast.unparse(n)}"
            for n in sorted(found, key=lambda n: n.lineno)]


def tol_parameters(source: str) -> list[str]:
    """Public module-level functions with a parameter named tol."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not node.name.startswith("_"):
            args = node.args
            if any(a.arg == "tol" for a in args.posonlyargs + args.args + args.kwonlyargs):
                found.append(node.name)
    return found


# The public functions that take a tol: those that make a system, those on
# bare algebras or matrices, and the two calls the benchmark makes with a
# tolerance, which take only the system's own.  Every other stage reads the
# tolerance its system holds.
KEEPS_TOL = {
    "algebra": {"generate_algebra", "matrix_units", "bratteli_blocks", "validate_trace",
                "eigenmodes", "system"},
    "constructors": {"explicit_system", "build_explicit_system", "build_classical_system",
                     "build_group_vn_system", "build_tensor_system", "build_skew_product",
                     "build_finite_extension"},
    "descriptions": {"build_from_description"},
    "joining": {"factor_gram"},
    "pipeline": {"analyze_description"},
    "spectrum": {"cesaro_sequence", "admissible_elements"},
}


def _from_package(node) -> bool:
    """A from-import out of the package: relative, or from vnspec."""
    return isinstance(node, ast.ImportFrom) and bool(
        node.level or node.module == "vnspec" or (node.module or "").startswith("vnspec."))


def package_imports(source: str) -> dict[str, int]:
    """Package modules that a module imports, relative or absolute, with the
    line of the first such import: from .x, from . import x, vnspec.x."""
    found: dict[str, int] = {}
    for node in ast.walk(ast.parse(source)):
        if _from_package(node):
            parts = node.module.split(".") if node.module else []
            names = parts[0 if node.level else 1:][:1] or [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names
                     if a.name.startswith("vnspec.")]
        else:
            continue
        for name in names:
            found.setdefault(name, node.lineno)
    return found


def private_reaches(source: str) -> list[str]:
    """Private names (a leading underscore) taken from another package
    module: imported from it, or read as an attribute of it."""
    tree = ast.parse(source)
    modules = set(package_imports(source))
    found = []
    for node in ast.walk(tree):
        if _from_package(node):
            found += [(node.lineno, f"{'.' * node.level}{node.module or ''} "
                                    f"import {a.name}")
                      for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


MUTATORS = frozenset({"append", "extend", "insert", "update", "setdefault", "pop",
                      "popitem", "clear", "add", "discard", "remove"})


def module_state_writes(source: str) -> list[str]:
    """Statements in a function that write module-level state: a global
    declaration; an assignment, augmented assignment or deletion of an item
    or attribute of a name the module binds and no enclosing function binds;
    or a call of a mutating container method (``MUTATORS``) on a name the
    module binds by assignment."""
    tree = ast.parse(source)
    bound, assigned = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        else:
            assigned |= {n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bound |= assigned
    found = set()

    def root(node):
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = (local or set()) | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} \
                | {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                   and isinstance(n.ctx, ast.Store)}
        elif local is not None:
            if isinstance(node, ast.Global):
                found.add((node.lineno, f"global {', '.join(node.names)}"))
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target] if isinstance(node, (ast.AugAssign,
                                                               ast.AnnAssign, ast.For))
                       else [])
            prefix = "del " if isinstance(node, ast.Delete) else ""
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, (ast.Attribute, ast.Subscript)) \
                            and isinstance(t.ctx, (ast.Store, ast.Del)) \
                            and root(t) in bound - local:
                        found.add((node.lineno, prefix + ast.unparse(t)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS and root(node.func) in assigned - local:
                found.add((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, local)
    visit(tree, None)
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_unused_import_check_finds_an_unused_name():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n") \
        == ["line 1: os", "line 3: b"]


def test_package_modules_have_no_unused_imports():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in paths}
    assert {name: u for name, u in found.items() if u} == {}


def test_function_level_import_check_finds_nested_imports():
    source = ("import os\n"
              "def f():\n    from .spectrum import module_candidate\n"
              "    def g():\n        import sys\n"
              "class C:\n    import json\n"
              "    async def h(self):\n        from a import b as c\n")
    assert function_level_imports(source) == [
        "line 3: from .spectrum import module_candidate", "line 5: import sys",
        "line 9: from a import b as c"]


def test_package_modules_import_only_at_module_level():
    """Layering: a module that needs another imports it at the top, so an
    import cycle shows at import time instead of hiding in a function."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = {p.name: function_level_imports(p.read_text()) for p in paths}
    assert {name: f for name, f in found.items() if f} == {}


def test_tolerance_check_finds_a_stray_literal():
    source = ("X_TOL = 1e-6\n"
              "class ToleranceConfig:\n    eps_rank: float = 1e-10\n"
              "def f(x, tol=1e-9):\n    return x < -2e-7 or x > 0.5 or x == 0.0\n"
              "class Other:\n    eps: float = 1e-4\n"
              "def g():\n    Y_TOL = 3e-5\n")
    assert stray_tolerances(source) == ["line 4: 1e-09", "line 5: 2e-07",
                                        "line 7: 0.0001", "line 9: 3e-05"]


def test_package_tolerances_live_in_tolerance_config():
    """Aim: no tolerance hard-coded outside ToleranceConfig and named *_TOL
    constants."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = {p.name: stray_tolerances(p.read_text()) for p in paths}
    assert {name: s for name, s in found.items() if s} == {}


def test_seed_check_finds_unnamed_and_shared_seeds():
    source = ("import numpy as np\nA_SEED = 3\nB_SEED = 3\nC_SEED = 5\n"
              "def f(seed, n):\n    np.random.default_rng(seed)\n"
              "    np.random.default_rng(n)\n    np.random.default_rng(A_SEED)\n"
              "def g():\n    np.random.default_rng(seed)\n"
              "    np.random.default_rng()\n    np.random.default_rng(7)\n")
    constants = seed_constants(source)
    assert constants == {"A_SEED": 3, "B_SEED": 3, "C_SEED": 5}
    assert unnamed_seeds(source, constants) == [
        "line 7: np.random.default_rng(n)", "line 10: np.random.default_rng(seed)",
        "line 11: np.random.default_rng()", "line 12: np.random.default_rng(7)"]
    assert shared_seeds(constants) == [["A_SEED", "B_SEED"]]


def test_package_routes_draw_from_their_own_seeds():
    """Independent routes draw from different seeds: every generator in the
    package is seeded by a distinct *_SEED constant or a seed parameter."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    constants = {}
    for source in sources.values():
        constants.update(seed_constants(source))
    assert len(constants) >= 5
    found = {name: unnamed_seeds(s, constants) for name, s in sources.items()}
    assert {name: u for name, u in found.items() if u} == {}
    assert shared_seeds(constants) == []


def test_matrix_rank_check_finds_calls():
    source = ("import numpy as np\nfrom numpy.linalg import matrix_rank\n"
              "r = np.linalg.matrix_rank(a, tol=1)\n"
              "def f(a):\n    return matrix_rank(a) + rank(a)\n")
    assert matrix_rank_calls(source) == ["line 3: np.linalg.matrix_rank(a, tol=1)",
                                         "line 5: matrix_rank(a)"]


def test_rank_decisions_go_through_linalg():
    """One rank rule: every rank of a matrix is counted by linalg.rank,
    never by np.linalg.matrix_rank and its absolute cutoff."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = {p.name: matrix_rank_calls(p.read_text()) for p in paths}
    assert {name: f for name, f in found.items() if f} == {}


def test_package_import_check_finds_every_form():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from .constructors import GroupSystem\nfrom . import descriptions, linalg\n"
              "import vnspec.pipeline\nfrom vnspec.report import analysis_to_dict\n"
              "from vnspec import cli\nfrom numpy.linalg import svd\n"
              "from .linalg import rank\n")
    assert package_imports(source) == {"constructors": 3, "descriptions": 4,
                                       "linalg": 4, "pipeline": 5, "report": 6,
                                       "cli": 7}


def test_certificate_stages_do_not_import_the_families():
    """The GNS, basic-construction, joining and spectrum stages read what the
    built system and their producers hand over, never a constructor or a
    description."""
    found = {name: sorted({"constructors", "descriptions"}
                          & set(package_imports((SRC / f"{name}.py").read_text())))
             for name in ("gns", "basic", "joining", "spectrum")}
    assert {name: f for name, f in found.items() if f} == {}


def test_private_reach_check_finds_imports_and_attributes():
    source = ("from .basic import BasicConstruction, _span_candidates\n"
              "from . import _private, linalg\n"
              "from vnspec.joining import _tensor_grams as grams\n"
              "from numpy import _core\nimport numpy as np\n"
              "x = linalg._kept(s) + linalg.rank(s) + np._pytesttester + self._y\n")
    assert private_reaches(source) == ["line 1: .basic import _span_candidates",
                                       "line 2: . import _private",
                                       "line 3: vnspec.joining import _tensor_grams",
                                       "line 6: linalg._kept"]


def test_package_modules_keep_to_public_names_of_each_other():
    """A module's private names are its own: another module that needs one
    reads it from the object that owns it instead."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = {p.name: private_reaches(p.read_text()) for p in paths}
    assert {name: f for name, f in found.items() if f} == {}


def test_module_state_check_finds_every_form():
    source = ("import numpy as np\nCACHE = {}\nSEEN = []\nSEEN.append(0)\n"
              "class C:\n    def f(self, x):\n        self.y = x\n"
              "        CACHE[id(x)] = x\n"
              "def g(x):\n    global SEEN\n    SEEN = [x]\n    np.cumprod = len\n"
              "def h(CACHE):\n    CACHE[0] = 1\n    out = {}\n    out['a'] = 1\n"
              "    del SEEN[0]\n    SEEN[-1] += 1\n    np.add(1, 2)\n"
              "    def k(y):\n        out['b'] = y\n        C.z: int = 3\n"
              "        SEEN.setdefault(y, out).x = 1\n        return [n for n in y]\n")
    assert module_state_writes(source) == [
        "line 8: CACHE[id(x)]", "line 10: global SEEN", "line 12: np.cumprod",
        "line 17: del SEEN[0]", "line 18: SEEN[-1]", "line 22: C.z",
        "line 23: SEEN.setdefault(y, out)"]


def test_package_functions_write_no_module_state():
    """State derived from a system is held on the object it derives from
    (a cached property), never in a module-level table: a table keyed by
    id() reads a freed object's entry for a new object given the same id,
    and keeps every keyed object alive."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = {p.name: module_state_writes(p.read_text()) for p in paths}
    assert {name: f for name, f in found.items() if f} == {}


def test_tol_parameter_check_finds_public_functions():
    source = ("def f(x, tol=None):\n    pass\n"
              "def _g(x, tol):\n    pass\n"
              "async def h(*, tol):\n    pass\n"
              "class C:\n    def m(self, tol):\n        pass\n"
              "def k(x, eps_tol, toll=lambda tol: tol):\n"
              "    def inner(tol):\n        pass\n"
              "def p(x, /, tol):\n    pass\n")
    assert tol_parameters(source) == ["f", "h", "p"]


def test_analysis_stages_read_the_tolerance_of_their_system():
    """One tolerance per system: no public function of gns, basic, joining,
    spectrum or pipeline takes a tol, nor do subsystem and the constructor
    helpers that receive a built system, apart from ``KEEPS_TOL``."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = {p.stem: set(tol_parameters(p.read_text())) for p in paths}
    assert {name: f for name, f in found.items() if f} == KEEPS_TOL
