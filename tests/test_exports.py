"""Every lexibound module's ``__all__`` names only what the module defines,
so deleting a function without its export fails here, not at a user's import."""

import importlib
import pkgutil

import pytest

import lexibound

MODULES = sorted(info.name for info in pkgutil.iter_modules(lexibound.__path__))


def test_every_module_is_listed():
    assert {"bounds", "checks", "cli", "core", "diversity", "engine", "popgen", "simulate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    module = importlib.import_module(f"lexibound.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
    exec(f"from lexibound.{name} import *", {})
