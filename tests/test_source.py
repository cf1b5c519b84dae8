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


def test_unused_import_check_finds_an_unused_name():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n") \
        == ["line 1: os", "line 3: b"]


def test_package_modules_have_no_unused_imports():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in paths}
    assert {name: u for name, u in found.items() if u} == {}
