"""Per-layer spans recorded from outside the package.

The tracer replaces the module attributes through which callers reach each
layer (for example ``lexibound.bounds.clique_number``, the name ``sweep``
looks up) with timing wrappers, and restores them afterwards. Spans are not
stored one by one: each is folded into a per-(layer, parent) aggregate, so
the 140k ``lexicase_select`` calls of ``verify --level fast`` cost a dict
update each. Self time is span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module path, attribute, layer name). A layer is wrapped under every name a
# caller binds, so calls are attributed whichever module makes them.
WRAPPED = (
    ("lexibound.cli", "main", "cli.main"),
    ("lexibound.cli", "read_matrix_csv", "core.read_matrix_csv"),
    ("lexibound.cli", "deduplicate", "core.deduplicate"),
    ("lexibound.bounds", "pairwise_distance_matrix", "diversity.pairwise_distance_matrix"),
    ("lexibound.diversity", "pairwise_distance_matrix", "diversity.pairwise_distance_matrix"),
    ("lexibound.bounds", "graph_from_distances", "diversity.graph_from_distances"),
    ("lexibound.diversity", "graph_from_distances", "diversity.graph_from_distances"),
    ("lexibound.bounds", "clique_number", "diversity.clique_number"),
    ("lexibound.diversity", "clique_number", "diversity.clique_number"),
    ("lexibound.cli", "similarity_bruteforce", "diversity.similarity_bruteforce"),
    ("lexibound.bounds", "sweep", "bounds.sweep"),
    ("lexibound.simulate", "lexicase_select", "engine.lexicase_select"),
    ("lexibound.simulate", "estimate_runtime", "simulate.estimate_runtime"),
    ("lexibound.simulate", "selection_distribution", "simulate.selection_distribution"),
    ("lexibound.simulate", "oracle_distribution", "simulate.oracle_distribution"),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    max_call_s: float = 0.0
    counters: dict = field(default_factory=lambda: defaultdict(float))


@dataclass
class CliqueCall:
    parent: str
    vertices: int
    search_nodes: int
    exact: bool


class Tracer:
    """Aggregates spans per (layer, parent layer) while installed."""

    def __init__(self):
        self.layers: dict[tuple[str, str], LayerStats] = defaultdict(LayerStats)
        self.clique_calls: list[CliqueCall] = []
        self._stack: list[list] = []  # [layer name, child seconds] per open span
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_path, attr, layer in WRAPPED:
            module = importlib.import_module(module_path)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, layer: str):
        stack = self._stack
        layers = self.layers
        observe = _OBSERVERS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats = layers[(layer, parent)]
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if elapsed > stats.max_call_s:
                    stats.max_call_s = elapsed
            if observe is not None:
                observe(self, stats, parent, _first_argument(args, kwargs), result)
            if stack:
                # The parent's children include this span and the observer.
                stack[-1][1] += clock() - start
            return result

        return wrapper

    def summary(self) -> dict[str, LayerStats]:
        """Aggregates per layer, summed over parents."""
        out: dict[str, LayerStats] = defaultdict(LayerStats)
        for (layer, _), stats in self.layers.items():
            merged = out[layer]
            merged.calls += stats.calls
            merged.self_s += stats.self_s
            merged.max_call_s = max(merged.max_call_s, stats.max_call_s)
            for key, value in stats.counters.items():
                merged.counters[key] += value
        return out


def _first_argument(args: tuple, kwargs: dict):
    return args[0] if args else next(iter(kwargs.values()), None)


def _observe_read(tracer, stats, parent, path, matrix):
    stats.counters["cells"] += matrix.n_individuals * matrix.n_cases


def _observe_dedup(tracer, stats, parent, matrix, profile):
    stats.counters["unique"] += profile.n_unique
    stats.counters["original"] += profile.n_original


def _observe_distances(tracer, stats, parent, matrix, distances):
    n = distances.shape[0]
    stats.counters["compares"] += n * n * matrix.n_cases


def _observe_graph(tracer, stats, parent, distances, graph):
    n = graph.n_vertices
    stats.counters["pairs"] += n * (n - 1) // 2
    stats.counters["edges"] += graph.n_edges


def _observe_clique(tracer, stats, parent, graph, result):
    stats.counters["search_nodes"] += result.search_nodes
    stats.counters["exact"] += result.exact
    stats.counters["bracket"] += result.alpha_upper - result.alpha_lower
    if parent == "bounds.sweep":
        stats.counters["sweep_points"] += 1
        stats.counters["sweep_inexact"] += not result.exact
    tracer.clique_calls.append(
        CliqueCall(parent, graph.n_vertices, result.search_nodes, result.exact)
    )


def _observe_select(tracer, stats, parent, profile, trace):
    stats.counters["evaluations"] += trace.evaluations


_OBSERVERS = {
    "core.read_matrix_csv": _observe_read,
    "core.deduplicate": _observe_dedup,
    "diversity.pairwise_distance_matrix": _observe_distances,
    "diversity.graph_from_distances": _observe_graph,
    "diversity.clique_number": _observe_clique,
    "engine.lexicase_select": _observe_select,
}
