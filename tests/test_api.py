"""The public surface: qcss.__all__ names exactly what the package exports."""

import types

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


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(qcss, name) or name in qcss.__all__] == []


def test_dispatch_exported():
    assert "verify" in qcss.__all__ and qcss.verify is qcss.correlation.verify
