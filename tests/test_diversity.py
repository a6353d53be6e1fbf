import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexibound.core import RngStream, deduplicate, identity_profile
from lexibound.diversity import (
    SimilarityGraph,
    build_similarity_graph,
    clique_number,
    covariance_mean,
    epsilon_cluster_similarity,
    far_distance_threshold,
    graph_from_distances,
    pairwise_distance_matrix,
    phenotypic_distance,
    similarity_bruteforce,
)
from lexibound import bounds
from lexibound.bounds import default_epsilon_grid
from conftest import dmatrix, profile, random_rows, rmatrix


def brute_force_alpha(adjacency) -> int:
    n = adjacency.shape[0]
    best = 1
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if len(members) <= best:
            continue
        if all(adjacency[a][b] for a, b in itertools.combinations(members, 2)):
            best = len(members)
    return best


class TestPhenotypicDistance:
    def test_identical_rows(self):
        m = dmatrix([[1, 2, 3], [1, 2, 3]])
        assert phenotypic_distance(m, 0, 1) == 0

    def test_direct_count(self):
        m = dmatrix([[0, 1, 0], [1, 0, 0]])
        assert phenotypic_distance(m, 0, 1) == 2

    def test_real_delta(self):
        m = rmatrix([[1.0, 2.0], [1.05, 3.0]])
        assert phenotypic_distance(m, 0, 1, delta=0.1) == 1

    def test_rejects_same_index(self):
        with pytest.raises(ValueError):
            phenotypic_distance(dmatrix([[0], [1]]), 1, 1)

    def test_rejects_nonzero_delta_for_discrete(self):
        with pytest.raises(ValueError):
            phenotypic_distance(dmatrix([[0], [1]]), 0, 1, delta=0.5)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.5])
    def test_rejects_non_finite_or_negative_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            phenotypic_distance(rmatrix([[1.0], [2.0]]), 0, 1, delta=delta)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
            min_size=2,
            max_size=8,
        )
    )
    def test_symmetry_and_zero_iff_duplicate(self, rows):
        m = dmatrix(rows)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                d_ij = phenotypic_distance(m, i, j)
                assert d_ij == phenotypic_distance(m, j, i)
                assert (d_ij == 0) == (rows[i] == rows[j])


class TestFarThreshold:
    def test_exact_rational_comparison(self):
        # float(0.05) * 20 > 1, but the exact decimal gives threshold 1
        assert far_distance_threshold(0.05, 20) == 1
        assert far_distance_threshold(0.5, 10) == 5
        assert far_distance_threshold(0.25, 10) == 3  # ceil(2.5)
        assert far_distance_threshold(1, 7) == 7

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            far_distance_threshold(0, 5)
        with pytest.raises(ValueError):
            far_distance_threshold(1.2, 5)


class TestSimilarityGraph:
    def test_all_pairs_maximally_distant(self):
        # every pair differs on every case: no edges at any grid epsilon
        m = dmatrix([[i] * 4 for i in range(5)])
        prof = deduplicate(m)
        for eps in default_epsilon_grid():
            g = build_similarity_graph(prof, eps)
            assert g.n_edges == 0

    def test_two_triangles(self, two_triangles):
        g = build_similarity_graph(two_triangles, 0.5)
        # brute-force distance table oracle
        losses = two_triangles.unique.losses
        for a in range(6):
            for b in range(6):
                if a == b:
                    assert not g.adjacency[a][b]
                    continue
                d = int((losses[a] != losses[b]).sum())
                assert g.adjacency[a][b] == (d < 5)
        comp_a = {0, 1, 2}
        for a in range(6):
            for b in range(6):
                if a != b and (a in comp_a) == (b in comp_a):
                    assert g.adjacency[a][b]
                elif a != b:
                    assert not g.adjacency[a][b]

    def test_epsilon_near_zero_empty_on_deduped(self):
        prof = profile(random_rows(2, 7, 5, 2))
        eps = Fraction(1, 2 * prof.n_cases)
        g = build_similarity_graph(prof, eps)
        assert g.n_edges == 0  # no duplicates, so all distances >= 1

    def test_rejects_asymmetric(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            SimilarityGraph(2, adj, 0.5, 0.0)


class TestCliqueNumber:
    def test_empty_graph(self):
        g = SimilarityGraph(5, np.zeros((5, 5), bool), 0.5, 0.0)
        res = clique_number(g)
        assert res.alpha_lower == res.alpha_upper == 1
        assert res.k_lower == res.k_upper == 2
        assert res.exact and not res.budget_exhausted

    def test_complete_graph(self):
        g = SimilarityGraph(5, ~np.eye(5, dtype=bool), 0.5, 0.0)
        res = clique_number(g)
        assert res.alpha_lower == 5
        assert res.k_upper == 6

    def test_random_graphs_match_subset_oracle(self):
        src = RngStream(100).source()
        for _ in range(20):
            n = 12
            adj = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    if src.random() < 0.5:
                        adj[i][j] = adj[j][i] = True
            res = clique_number(SimilarityGraph(n, adj, 0.5, 0.0))
            assert res.exact
            assert res.alpha_lower == brute_force_alpha(adj)

    def test_budget_bracket_sound(self):
        src = RngStream(200).source()
        for _ in range(15):
            n = 13
            adj = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    if src.random() < 0.6:
                        adj[i][j] = adj[j][i] = True
            truth = brute_force_alpha(adj)
            res = clique_number(SimilarityGraph(n, adj, 0.5, 0.0), node_budget=2)
            assert res.alpha_lower <= truth <= res.alpha_upper
            if res.exact:
                assert not res.budget_exhausted

    def test_rejects_bad_budget(self):
        g = SimilarityGraph(2, np.zeros((2, 2), bool), 0.5, 0.0)
        with pytest.raises(ValueError):
            clique_number(g, node_budget=0)


def _graph(adjacency) -> SimilarityGraph:
    return SimilarityGraph(adjacency.shape[0], adjacency, 0.5, 0.0)


def _union_of_cliques(labels) -> np.ndarray:
    adjacency = np.equal.outer(labels, labels)
    np.fill_diagonal(adjacency, False)
    return adjacency


@st.composite
def small_graphs(draw, max_n=14):
    """Random, union-of-cliques, complete and empty graphs, 0 vertices included."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["random", "cliques", "complete", "empty"]))
    if kind == "cliques":
        return _union_of_cliques(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    if kind == "complete":
        return ~np.eye(n, dtype=bool)
    adjacency = np.zeros((n, n), dtype=bool)
    if kind == "random":
        pairs = n * (n - 1) // 2
        adjacency[np.triu_indices(n, 1)] = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
        adjacency |= adjacency.T
    return adjacency


class TestCliqueSearchProperties:
    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_exact_and_equal_to_subset_oracle(self, adjacency):
        res = clique_number(_graph(adjacency))
        assert res.exact and not res.budget_exhausted
        assert res.alpha_lower == res.alpha_upper == brute_force_alpha(adjacency)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=40))
    def test_union_of_cliques_needs_no_search(self, labels):
        res = clique_number(_graph(_union_of_cliques(labels)), node_budget=1)
        assert res.exact and res.search_nodes == 0
        assert res.alpha_lower == max([labels.count(x) for x in labels], default=1)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.integers(1, 40), st.data())
    def test_lower_bound_never_widens_bracket(self, adjacency, budget, data):
        graph = _graph(adjacency)
        truth = brute_force_alpha(adjacency)
        cold = clique_number(graph, node_budget=budget)
        warm = clique_number(graph, node_budget=budget, lower_bound=data.draw(st.integers(1, truth)))
        assert cold.alpha_lower <= warm.alpha_lower <= truth <= warm.alpha_upper <= cold.alpha_upper
        assert warm.search_nodes <= cold.search_nodes
        assert warm.exact or not cold.exact

    def test_rejects_bad_lower_bound(self):
        g = _graph(np.zeros((3, 3), bool))
        for bad in (0, 4):
            with pytest.raises(ValueError, match="lower_bound"):
                clique_number(g, lower_bound=bad)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 2), min_size=6, max_size=6), min_size=1, max_size=14),
        st.lists(st.sampled_from(default_epsilon_grid()), min_size=1, max_size=12),
    )
    def test_sweep_equals_independent_calls(self, rows, grid):
        prof = profile(rows)
        for epsilons in (sorted(grid), sorted(grid, reverse=True)):
            for report, eps in zip(bounds.sweep(prof, epsilons), epsilons):
                res = clique_number(build_similarity_graph(prof, eps))
                assert (report.k, report.exact_k) == (res.k, res.exact)

    def test_sweep_warm_starts_each_call(self, monkeypatch):
        # one call per epsilon, graph first, lower bound from the previous
        # call only while epsilon does not fall
        calls = []

        def recording(graph, node_budget, *, lower_bound):
            result = clique_number(graph, node_budget, lower_bound=lower_bound)
            calls.append((graph, lower_bound, result.alpha_lower))
            return result

        monkeypatch.setattr(bounds, "clique_number", recording)
        grid = [Fraction(1, 10), Fraction(3, 10), Fraction(6, 10), Fraction(2, 10)]
        bounds.sweep(profile(random_rows(81, 12, 8, 2)), grid)
        assert len(calls) == len(grid) and all(isinstance(g, SimilarityGraph) for g, _, _ in calls)
        assert [lb for _, lb, _ in calls] == [1, calls[0][2], calls[1][2], 1]


class TestEpsilonClusterSimilarity:
    def test_two_cluster_paper_value(self, two_triangles):
        # half the population plus one, even at epsilon 0.9
        res = epsilon_cluster_similarity(two_triangles, 0.9)
        assert res.exact
        assert res.k == 6 // 2 + 1

    def test_max_distant_population(self):
        prof = deduplicate(dmatrix([[i] * 4 for i in range(5)]))
        for eps in default_epsilon_grid():
            assert epsilon_cluster_similarity(prof, eps).k == 2

    def test_matches_bruteforce_across_grid(self):
        for trial in range(12):
            prof = profile(random_rows(400 + trial, 8, 6, 2))
            for eps in default_epsilon_grid():
                k_graph = epsilon_cluster_similarity(prof, eps).k
                k_set = similarity_bruteforce(prof, eps)
                assert k_graph == k_set, (trial, eps)

    def test_monotone_in_epsilon(self, two_triangles):
        grid = default_epsilon_grid()
        ks = [epsilon_cluster_similarity(two_triangles, e).k for e in grid]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_k_bounds(self):
        prof = profile(random_rows(7, 5, 4, 2))
        for eps in default_epsilon_grid():
            k = epsilon_cluster_similarity(prof, eps).k
            assert 2 <= k <= prof.n_unique + 1

    def test_real_kind_requires_explicit_delta(self):
        prof = identity_profile(rmatrix([[0.5, 1.5], [1.0, 0.25]]))
        with pytest.raises(ValueError, match="delta"):
            epsilon_cluster_similarity(prof, 0.5)

    def test_real_kind_with_delta_matches_discrete(self):
        from lexibound.popgen import with_real_jitter

        discrete = dmatrix(random_rows(55, 7, 8, 3))
        prof_d = deduplicate(discrete)
        delta = 0.25
        real = with_real_jitter(discrete, delta, RngStream(56))
        prof_r = identity_profile(real)
        for eps in (0.1, 0.3, 0.5):
            assert (
                epsilon_cluster_similarity(prof_r, eps, delta=delta).k
                == epsilon_cluster_similarity(prof_d, eps).k
            )


class TestSimilarityBruteforce:
    def test_single_row_vacuous(self):
        assert similarity_bruteforce(profile([[0, 1]]), 0.5) == 2

    def test_two_triangles(self, two_triangles):
        assert similarity_bruteforce(two_triangles, 0.5) == 4

    def test_complete_similarity(self):
        # all pairwise distances 1 < eps*C: no far pair anywhere
        from lexibound.popgen import gen_adversarial_single_case

        prof = deduplicate(gen_adversarial_single_case(6, 10))
        assert similarity_bruteforce(prof, 0.2) == 7  # n + 1

    def test_rejects_large_population(self):
        prof = profile([[i] for i in range(21)])
        with pytest.raises(ValueError):
            similarity_bruteforce(prof, 0.5)


class TestCovarianceMean:
    def test_constant_rows(self):
        assert covariance_mean(dmatrix([[2, 2, 2], [5, 5, 5]])) == 0.0

    def test_hand_computed_pair(self):
        m = dmatrix([[0, 1], [1, 0]])
        cov = np.cov(m.losses)
        assert cov.tolist() == [[0.5, -0.5], [-0.5, 0.5]]
        assert covariance_mean(m) == 0.0

    def test_matches_naive_double_loop(self):
        src = RngStream(60).source()
        values = [[src.random() * 3 for _ in range(5)] for _ in range(4)]
        m = rmatrix(values)
        n, c = 4, 5
        total = 0.0
        for i in range(n):
            for j in range(n):
                mi = sum(values[i]) / c
                mj = sum(values[j]) / c
                total += sum((values[i][t] - mi) * (values[j][t] - mj) for t in range(c)) / (c - 1)
        naive = total / (n * n)
        assert covariance_mean(m) == pytest.approx(naive, rel=1e-12)

    def test_rejects_single_case(self):
        with pytest.raises(ValueError):
            covariance_mean(dmatrix([[0], [1]]))

    def test_single_individual(self):
        # 1x1 covariance matrix holding the row's variance
        assert covariance_mean(dmatrix([[0, 1, 2]])) == pytest.approx(1.0)


class TestSharedDistanceConstruction:
    def test_graph_from_distances_equals_direct(self):
        prof = profile(random_rows(70, 9, 7, 3))
        distances = pairwise_distance_matrix(prof.unique)
        for eps in default_epsilon_grid():
            shared = graph_from_distances(distances, prof.n_cases, eps)
            direct = build_similarity_graph(prof, eps)
            assert np.array_equal(shared.adjacency, direct.adjacency)
