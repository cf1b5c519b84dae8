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


def test_unused_import_check_finds_an_unused_name():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n") \
        == ["line 1: os", "line 3: b"]


def test_package_modules_have_no_unused_imports():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in paths}
    assert {name: u for name, u in found.items() if u} == {}


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
