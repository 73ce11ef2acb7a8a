"""The package's threads and LAPACK factorisations live in solver.py alone,
its kernel tiles in kernel.py alone, and its integer and real checks in
geom.py alone.

The local basis build and factor_solve share one stencil solve,
solver.bordered_solve, and the build's threads come from solver.on_workers.
A module that imports threading, ctypes or LAPACK directly would start a
second route beside them. Likewise every symmetric kernel product is one loop
of KernelMatvec over one tile format; a module that names a tile helper could
split that loop again. The modules are read as source, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spherelag"

CONFINED = {"threading", "concurrent.futures", "ctypes", "scipy.linalg.lapack"}

# Helpers that form or apply kernel tiles, and the names of the two that were
# folded into KernelMatvec.
TILE_HELPERS = {"_tile", "_upper_tiles", "_kernel_inplace", "kernel_tiles", "apply_tiles"}


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


def named_identifiers(path):
    """Every name, attribute and imported name a source file mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.name.rpartition(".")[2]}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_kernel_names_the_tile_helpers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    users = {path.name: sorted(named_identifiers(path) & TILE_HELPERS) for path in modules}
    assert {name for name, found in users.items() if found} == {"kernel.py"}, users


# What counts as an integer argument is decided by geom.checked_int alone.
INTEGER_CHECKS = {"is_integer", "_checked_centre"}


def integer_check_sites(path):
    """Mentions of np.integer or numbers.Integral, and the old local integer checks defined."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ("integer", "Integral"):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numbers"):
            found |= {a.name for a in node.names} & {"integer", "Integral"}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in INTEGER_CHECKS:
            found.add(node.name)
    return found


def test_only_geom_decides_what_an_integer_is():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    sites = {path.name: sorted(integer_check_sites(path)) for path in modules}
    assert {name for name, found in sites.items() if found} == {"geom.py"}, sites


def test_only_geom_may_import_numbers():
    # what counts as a real argument is decided by geom.checked_real alone
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    importers = {path.name for path in modules if "numbers" in imported_modules(path)}
    assert importers <= {"geom.py"}, importers
