"""The package names, and keyword options, that the benchmark scripts in perfbench/ use.

The tier-1 suite never runs perfbench/, so a renamed or deleted function
would break the benchmark without any other test failing. The scripts are
read as source and never imported or changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Attributes of spherelag.locallag that perfbench/tracing.py swaps for traced
# wrappers by name, through getattr and setattr.
SWAPPED = ["build_index", "knn_all", "ball", "knn", "ensure_stats", "spmv"]


def benchmark_scripts():
    scripts = sorted(PERFBENCH.glob("*.py"))
    assert scripts, f"no benchmark scripts under {PERFBENCH}"
    return scripts


def package_uses(path):
    """(module, name, keyword names) for each package name a script uses.

    A name counts when it is imported with `from spherelag... import name`
    or read as an attribute of a module alias bound by `import spherelag... as
    alias`; the keywords are those of the calls made through the alias.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spherelag" and alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spherelag":
            uses += [(node.module, alias.name, ()) for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in aliases:
                keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
                uses.append((aliases[func.value.id], func.attr, keywords))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            uses.append((aliases[node.value.id], node.attr, ()))
    return uses


@pytest.mark.parametrize("path", benchmark_scripts(), ids=lambda p: p.name)
def test_every_package_name_a_benchmark_script_uses_exists(path):
    for module, name, keywords in package_uses(path):
        target = importlib.import_module(module)
        assert hasattr(target, name), f"{path.name} uses {module}.{name}, which does not exist"
        if keywords:
            params = inspect.signature(getattr(target, name)).parameters
            takes_any = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
            missing = [k for k in keywords if k not in params and not takes_any]
            assert not missing, f"{path.name} calls {module}.{name} with unknown keywords {missing}"


def test_the_scripts_use_the_package():
    used = {name for path in benchmark_scripts() for _, name, _ in package_uses(path)}
    assert {"build_local_basis", "gmres", "assemble_saddle", "factor_solve"} <= used


def test_the_functions_the_tracer_swaps_exist():
    locallag = importlib.import_module("spherelag.locallag")
    for name in SWAPPED:
        assert callable(getattr(locallag, name, None)), f"spherelag.locallag.{name} is missing"
