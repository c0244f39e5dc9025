"""The public names: every exported name resolves, and the package re-exports
each module's public names, so an export left stale by a rename or a
removal fails here instead of at a user's import."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import tracerecon

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(tracerecon.__path__)
    if hasattr(importlib.import_module(f"tracerecon.{name}"), "__all__")
)

# module exports kept out of the package namespace
INTERNAL = {
    "harness": {"KINDS", "FIELDS"},
    "lower_bound": {"atomic_tables"},
    "strings": {"search_index", "SearchIndex"},
}


def test_package_names_resolve():
    assert [n for n in tracerecon.__all__ if not hasattr(tracerecon, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve(name):
    module = importlib.import_module(f"tracerecon.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_module_names(name):
    module = importlib.import_module(f"tracerecon.{name}")
    internal = INTERNAL.get(name, set())
    assert internal <= set(module.__all__)
    public = [n for n in module.__all__ if n not in internal]
    assert [n for n in public if n not in tracerecon.__all__] == []
    assert [n for n in public if getattr(tracerecon, n) is not getattr(module, n)] == []
