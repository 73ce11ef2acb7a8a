"""Every name a package module imports is used in that module.

An import that nothing reads keeps a dependency alive after its last use.
The package's __init__.py imports only to export, so it is left out. The
modules are read as source, not imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spherelag"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names an import binds in source that no expression of it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_sees_an_unused_import():
    assert MODULES, f"no modules under {PACKAGE}"
    source = "import numpy as np\nimport scipy.sparse\nfrom .a import b, c as d\nnp.f(scipy, d)\n"
    assert unused_imports(source) == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
