"""Every lexibound module's ``__all__`` names only what the module defines,
and the README's library sketch runs, so deleting a public name without its
export or its documentation fails here, not at a user's import."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import lexibound
from lexibound import cli

MODULES = sorted(info.name for info in pkgutil.iter_modules(lexibound.__path__))


def test_every_module_is_listed():
    assert {"bounds", "checks", "cli", "core", "diversity", "engine", "popgen", "simulate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    module = importlib.import_module(f"lexibound.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
    exec(f"from lexibound.{name} import *", {})


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    """The README's library sketch runs on a generated population, so a
    public name it uses cannot be deleted or renamed without failing here."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert cli.main(["genpop", "--kind", "two_cluster", "--n", "20", "--c", "40", "--out", "pop.csv"]) == 0
    namespace = {}
    exec(sketch, namespace)
    assert namespace["ok"], namespace["detail"]
