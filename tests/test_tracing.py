"""The benchmark tracer still wraps and observes every layer of the package.

``perfbench/tracing.py`` replaces module attributes by name to time each
layer, so a refactor that drops one, or changes what an observer reads,
would only show as a crash of a traced benchmark run. Loading the tracer by
path here catches it in the suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lexibound import cli

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracing):
    assert tracing.WRAPPED
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.WRAPPED
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert missing == []


def test_traced_commands_record_every_layer(tracing, tmp_path, capsys):
    # engine.lexicase_select and diversity.similarity_bruteforce are not
    # called by these commands: the runner and the set-form oracle replace them
    pop = str(tmp_path / "pop.csv")
    commands = [
        ["genpop", "--kind", "clustered", "--n", "60", "--c", "30", "--clusters", "3",
         "--spread", "0.05", "--seed", "2", "--out", pop],
        ["analyze", pop],
        ["simulate", pop, "--trials", "500", "--check-bound", "--epsilon", "0.15"],
        ["verify", "--level", "fast"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    layers = tracer.summary()
    expected = [
        "cli.main", "core.read_matrix_csv", "core.deduplicate", "diversity.pairwise_distance_matrix",
        "diversity.graph_from_distances", "diversity.clique_number", "bounds.sweep",
        "simulate.estimate_runtime", "simulate.selection_distribution", "simulate.oracle_distribution",
    ]
    assert [layer for layer in expected if not layers[layer].calls] == []
