"""The package's threads and LAPACK factorisations live in solver.py alone.

The local basis build and factor_solve share one stencil solve,
solver.bordered_solve, and the build's threads come from solver.on_workers.
A module that imports threading, ctypes or LAPACK directly would start a
second route beside them. The modules are read as source, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spherelag"

CONFINED = {"threading", "concurrent.futures", "ctypes", "scipy.linalg.lapack"}


def imported_modules(path):
    """Every module a source file imports, with `from a import b` counted as a and a.b."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_only_solver_imports_threads_ctypes_or_lapack():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    importers = {path.name: sorted(imported_modules(path) & CONFINED) for path in modules}
    assert {name for name, found in importers.items() if found} == {"solver.py"}, importers
