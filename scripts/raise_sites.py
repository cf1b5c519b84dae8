#!/usr/bin/env python3
"""List the ``raise`` statements of src/vnspec that a test run never executes.

    python scripts/raise_sites.py                  # trace tests/test_algebra.py
    python scripts/raise_sites.py tests            # trace the whole suite
    python scripts/raise_sites.py tests/test_algebra.py -k units

Runs pytest in this process, with the given arguments (default: the small
``tests/test_algebra.py``), under a ``sys.settrace`` line tracer that records
the lines executed in src/vnspec, then prints every ``raise`` statement
whose first line never ran, one ``file:line: statement`` a line, and the
count.  Subprocesses, such as the CLI runs of the exit-code tests, are not
traced, so a site reached only there is listed as unreached.  Tracing slows
the run several times over.  The script gates nothing: it exits 0 whatever
the tests do.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vnspec"
DEFAULT_ARGS = ["tests/test_algebra.py"]


def raise_sites() -> dict[tuple[str, int], str]:
    """(file, first line) of every raise statement in the package, with its
    source on one line."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise):
                text = " ".join(ast.get_source_segment(source, node).split())
                sites[(str(path), node.lineno)] = text
    return sites


def traced_lines(pytest_args: list[str]) -> set[tuple[str, int]]:
    """Lines of the package executed while pytest runs in this process."""
    import pytest

    seen: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or DEFAULT_ARGS
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sites = raise_sites()
    seen = traced_lines(args)
    unreached = sorted(site for site in sites if site not in seen)
    for path, line in unreached:
        print(f"{os.path.relpath(path, ROOT)}:{line}: {sites[(path, line)]}")
    print(f"{len(unreached)} of {len(sites)} raise sites unreached "
          f"(pytest {' '.join(args)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
