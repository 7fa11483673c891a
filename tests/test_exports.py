"""``codescent.__all__`` and the names ``codescent/__init__.py`` imports
agree, so no removal leaves a dangling import or ``__all__`` entry."""

import inspect

import codescent


def test_all_lists_every_public_import_sorted():
    # equality with the sorted set: every entry resolves, none repeats, none is missing
    public = {
        name
        for name, value in vars(codescent).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert codescent.__all__ == sorted(public)
