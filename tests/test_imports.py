"""Every module of the package uses every name it imports (stdlib ast only;
__init__.py imports in order to re-export), every private top-level name
the package defines is read somewhere in it, and the test oracle for
edited pools imports nothing of the package."""

import ast
from pathlib import Path

import pytest

import qcss

SOURCES = sorted(Path(qcss.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unread_private_names(sources: list[str]) -> list[str]:
    """Private top-level names (a def, a class or an assigned name, not a
    dunder) defined in sources that no expression of sources reads, as a
    name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = (t for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
                defined.update(t.id for t in names if isinstance(t.ctx, ast.Store))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined - read if name.startswith("_") and not name.startswith("__"))


def test_checker_finds_unread_private_names():
    first = "__all__ = []\n_A, _B = 1, 2\n_C: int = 3\nclass _D: pass\ndef _e(): return _A\nasync def _f(): pass\n"
    second = "import first\nfirst._f()\n_B = 4\n"
    assert unread_private_names([first, second]) == ["_B", "_C", "_D", "_e"]


def test_every_private_name_is_read():
    assert unread_private_names([path.read_text(encoding="utf-8") for path in SOURCES]) == []


def imported_modules(source: str) -> list[str]:
    """The top-level name of every module that source imports, at any depth."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.partition(".")[0])
    return sorted(modules)


def test_checker_finds_imported_modules():
    source = "import numpy as np\nimport os.path\nfrom qcss.codebook import x\ndef f():\n    import math\n"
    assert imported_modules(source) == ["math", "numpy", "os", "qcss"]


def test_edit_oracle_is_independent_of_the_package():
    # The oracle is what the package's engines are held to, so it shares none of their code.
    oracle = Path(__file__).with_name("edit_oracle.py").read_text(encoding="utf-8")
    assert "qcss" not in imported_modules(oracle)
