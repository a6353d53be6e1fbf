"""Both exact forms of k against an independent exact oracle: clique_number
on 20-150-vertex graphs, beyond the reach of the subset oracle, and the
subset oracle's table of least subset diameters on up to 12 unique rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexibound.core import deduplicate
from lexibound.diversity import (
    SimilarityGraph,
    clique_number,
    graph_from_distances,
    k_from_diameters,
    least_subset_diameters,
    pairwise_distance_matrix,
)

from conftest import dmatrix

nx = pytest.importorskip("networkx")


def oracle_alpha(adjacency: np.ndarray) -> int:
    clique, _ = nx.max_weight_clique(nx.from_numpy_array(adjacency.astype(np.uint8)), weight=None)
    return max(len(clique), 1)


@st.composite
def mid_graphs(draw):
    """G(n, p), or planted clusters: several components, each with some
    vertices adjacent to their whole component and the rest joined with
    probability q. Densities stay where the oracle answers in well under a
    second."""
    n = draw(st.integers(20, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["gnp", "planted"])) == "gnp":
        upper = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.4, 0.5])), 1)
        return upper | upper.T
    label = rng.integers(0, draw(st.integers(2, 5)), n)
    upper = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.5, 0.7, 0.85])), 1)
    universal = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    adjacency = (upper | upper.T | universal[:, None] | universal[None, :]) & np.equal.outer(label, label)
    np.fill_diagonal(adjacency, False)
    return adjacency


@settings(max_examples=60, deadline=None)
@given(mid_graphs(), st.integers(1, 50))
def test_clique_number_matches_networkx(adjacency, small_budget):
    graph = SimilarityGraph(adjacency.shape[0], adjacency)
    truth = oracle_alpha(adjacency)
    full = clique_number(graph, node_budget=100_000)
    assert full.exact and full.alpha_lower == full.alpha_upper == truth
    small = clique_number(graph, node_budget=small_budget)
    assert small.alpha_lower <= truth <= small.alpha_upper
    assert not small.exact or small.alpha_lower == small.alpha_upper


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 10), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_subset_diameters_match_networkx(n, c, levels, seed):
    prof = deduplicate(dmatrix(np.random.default_rng(seed).integers(0, levels, (n, c))))
    least = least_subset_diameters(prof)
    distances = pairwise_distance_matrix(prof.unique)
    # thresholds 1..C give every graph an epsilon can; C + 1 joins every pair
    for threshold in range(1, c + 2):
        graph = graph_from_distances(distances, threshold)
        assert k_from_diameters(least, threshold) == 1 + oracle_alpha(graph.adjacency), threshold
