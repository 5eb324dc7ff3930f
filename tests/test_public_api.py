"""Every name a fracsource module exports must exist."""

import importlib
import pkgutil

import pytest

import fracsource

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracsource.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"fracsource.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
