"""The public surface: qcss.__all__ names exactly what the package exports."""

import ast
import types
from pathlib import Path

import qcss

REMOVED = ("DigitVector", "to_digits", "from_digits", "asymptote_check", "verify_interset_exact")


def test_all_has_no_duplicates():
    assert len(qcss.__all__) == len(set(qcss.__all__))


def test_every_entry_resolves():
    assert [name for name in qcss.__all__ if not hasattr(qcss, name)] == []


def test_every_public_binding_is_listed():
    bound = {
        name
        for name, value in vars(qcss).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound - set(qcss.__all__) == set()


def test_all_is_what_the_package_imports_bind():
    # Read off the source: a stray helper, or a __future__ import, that the
    # computed __all__ took up would show here.
    tree = ast.parse(Path(qcss.__file__).read_text(encoding="utf-8"))
    bound = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert sorted(qcss.__all__) == sorted(["__version__", *bound])


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(qcss, name) or name in qcss.__all__] == []


def test_dispatch_exported():
    assert "verify" in qcss.__all__ and qcss.verify is qcss.correlation.verify
