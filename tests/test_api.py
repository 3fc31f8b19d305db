"""The public names: every ``__all__`` entry resolves to an attribute."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import kawasaki_dpp

# __main__ runs the CLI on import.
MODULES = ["kawasaki_dpp"] + [f"kawasaki_dpp.{m.name}"
                              for m in pkgutil.iter_modules(kawasaki_dpp.__path__)
                              if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_every_module_but_errors_declares_all():
    # The benchmark's tracer finds its targets through __all__.
    assert [m for m in MODULES if not hasattr(importlib.import_module(m), "__all__")] == [
        "kawasaki_dpp.errors"]
