"""Every module of the package uses every name it imports (stdlib ast only;
__init__.py imports in order to re-export)."""

import ast
from pathlib import Path

import pytest

import qcss

MODULES = sorted(p for p in Path(qcss.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of source that no expression
    reads; __future__ imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom x import y, z\nos.sep\nz()\n"
    assert unused_imports(source) == ["np", "y"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
