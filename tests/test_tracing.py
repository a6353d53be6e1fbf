"""Every name the benchmark tracer wraps still exists in the package.

``perfbench/tracing.py`` replaces module attributes by name to time each
layer, so a refactor that drops one would only show as a crash of a traced
benchmark run. Loading the tracer by path here catches it in the suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.WRAPPED
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert missing == []
