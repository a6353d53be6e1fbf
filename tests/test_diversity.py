import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexibound.core import RngStream, deduplicate, identity_profile
from lexibound.diversity import (
    SimilarityGraph,
    clique_number,
    covariance_mean,
    far_distance_threshold,
    graph_from_distances,
    pairwise_distance_matrix,
    similarity_bruteforce,
)
from lexibound import bounds, diversity
from lexibound.bounds import default_epsilon_grid, sweep
from lexibound.popgen import gen_clustered
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
    """Distances as the pairwise table gives them."""

    def test_identical_rows(self):
        m = dmatrix([[1, 2, 3], [1, 2, 3]])
        assert pairwise_distance_matrix(m).tolist() == [[0, 0], [0, 0]]

    def test_direct_count(self):
        m = dmatrix([[0, 1, 0], [1, 0, 0]])
        assert pairwise_distance_matrix(m)[0, 1] == 2

    def test_real_delta(self):
        m = rmatrix([[1.0, 2.0], [1.05, 3.0]])
        assert pairwise_distance_matrix(m, delta=0.1)[0, 1] == 1

    def test_rejects_nonzero_delta_for_discrete(self):
        with pytest.raises(ValueError, match="delta must be 0 for discrete losses"):
            pairwise_distance_matrix(dmatrix([[0], [1]]), delta=0.5)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.5])
    def test_rejects_non_finite_or_negative_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            pairwise_distance_matrix(rmatrix([[1.0], [2.0]]), delta=delta)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
            min_size=2,
            max_size=8,
        )
    )
    def test_symmetry_and_zero_iff_duplicate(self, rows):
        d = pairwise_distance_matrix(dmatrix(rows))
        assert (d == d.T).all()
        for i in range(len(rows)):
            for j in range(len(rows)):
                assert (d[i, j] == 0) == (rows[i] == rows[j])


class TestOneHotDistances:
    """The one-hot distance path equals the row loop it replaces."""

    @staticmethod
    def _route(monkeypatch):
        calls = []
        onehot = diversity._onehot_distances
        monkeypatch.setattr(diversity, "_onehot_distances", lambda *a: calls.append(1) or onehot(*a))
        return calls

    @pytest.mark.parametrize(
        "levels, n, onehot",
        [
            (1, 20, True),
            (2, 40, True),
            (16, 40, True),
            (diversity._ONEHOT_MAX_LEVELS, 60, True),
            (diversity._ONEHOT_MAX_LEVELS + 1, 60, False),
            (3, 8, True),
            (3, 7, True),
            (3, 4, True),
            (3, 2, True),
            (2, 1, True),
        ],
    )
    def test_equals_row_loop(self, levels, n, onehot, monkeypatch):
        calls = self._route(monkeypatch)
        rng = np.random.default_rng(levels * 1000 + n)
        for c in (1, 7, 150):
            losses = rng.permutation(np.arange(n * c) % levels).reshape(n, c) * 3 - 5  # exactly `levels` values
            m = dmatrix(losses)
            d = pairwise_distance_matrix(m)
            assert d.dtype == np.int32
            assert np.array_equal(d, diversity._row_loop_distances(m.losses, 0.0))
            assert bool(calls) == onehot
            calls.clear()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 20), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_random_matrices(self, n, c, levels, seed):
        m = dmatrix(np.random.default_rng(seed).integers(0, levels, size=(n, c)))
        assert np.array_equal(pairwise_distance_matrix(m), diversity._row_loop_distances(m.losses, 0.0))

    def test_real_losses_with_zero_delta(self, monkeypatch):
        calls = self._route(monkeypatch)
        values = np.array([0.5, 1.25, -3.0, 1e-300, 2.0**60])
        m = rmatrix(np.random.default_rng(5).choice(values, size=(30, 40)))
        assert np.array_equal(pairwise_distance_matrix(m, delta=0), diversity._row_loop_distances(m.losses, 0.0))
        assert calls

    def test_large_c_counts_exactly_in_float32(self):
        # agreement counts near C = 2**21 need 21 significant bits: exact in
        # float32 (24 bits), not in float16 (11); 2**24 columns would take
        # gigabytes of temporaries
        c = 2**21 - 1
        codes = np.zeros((3, c), dtype=np.int8)
        codes[1, :5] = 1
        codes[2, ::2] = 2
        d = diversity._onehot_distances(codes, 3)
        assert d.tolist() == [[int((a != b).sum()) for b in codes] for a in codes]
        assert d[1, 2] == 2**20 + 2

    def test_float32_limit_keeps_row_loop(self, monkeypatch):
        calls = self._route(monkeypatch)
        monkeypatch.setattr(diversity, "_FLOAT32_EXACT", 10)
        m = dmatrix(np.arange(200).reshape(20, 10) % 3)
        assert np.array_equal(pairwise_distance_matrix(m), diversity._row_loop_distances(m.losses, 0.0))
        assert not calls


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
            g = _similarity_graph(prof, eps)
            assert g.n_edges == 0

    def test_two_triangles(self, two_triangles):
        g = _similarity_graph(two_triangles, 0.5)
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
        g = _similarity_graph(prof, eps)
        assert g.n_edges == 0  # no duplicates, so all distances >= 1

    def test_rejects_asymmetric(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            SimilarityGraph(2, adj)


class TestCliqueNumber:
    def test_empty_graph(self):
        g = SimilarityGraph(5, np.zeros((5, 5), bool))
        res = clique_number(g)
        assert res.alpha_lower == res.alpha_upper == 1
        assert res.alpha_lower + 1 == res.k == 2
        assert res.exact

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_or_one_vertex_needs_no_search(self, n):
        res = clique_number(SimilarityGraph(n, np.zeros((n, n), bool)), node_budget=1)
        assert (res.alpha_lower, res.alpha_upper, res.exact, res.search_nodes) == (1, 1, True, 0)

    def test_complete_graph(self):
        g = SimilarityGraph(5, ~np.eye(5, dtype=bool))
        res = clique_number(g)
        assert res.alpha_lower == 5
        assert res.k == 6

    def test_random_graphs_match_subset_oracle(self):
        src = RngStream(100).source()
        for _ in range(20):
            n = 12
            adj = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    if src.random() < 0.5:
                        adj[i][j] = adj[j][i] = True
            res = clique_number(SimilarityGraph(n, adj))
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
            res = clique_number(SimilarityGraph(n, adj), node_budget=2)
            assert res.alpha_lower <= truth <= res.alpha_upper
            if res.exact:
                assert res.alpha_lower == res.alpha_upper == truth

    def test_degree_order_solves_clustered_population_in_budget(self):
        # 4 clusters of 150 with many whole-cluster neighbours: starting from
        # the highest-degree vertices proves alpha 134 in 134 nodes, where a
        # degeneracy order expanded 5,462
        prof = deduplicate(gen_clustered(600, 240, 4, 0.05, RngStream(1)))
        res = clique_number(_similarity_graph(prof, "0.1"), node_budget=1000)
        assert res.exact and res.alpha_lower == 134

    def test_rejects_bad_budget(self):
        g = SimilarityGraph(2, np.zeros((2, 2), bool))
        with pytest.raises(ValueError):
            clique_number(g, node_budget=0)

    def test_union_of_40_unequal_cliques_needs_no_search(self):
        # the size of a converged sweep graph: 300 vertices in cliques of 3..12,
        # interleaved in index order
        sizes = 3 + np.arange(40) % 10
        labels = np.random.default_rng(15).permutation(np.repeat(np.arange(40), sizes))
        res = clique_number(_graph(_union_of_cliques(labels)), node_budget=1)
        assert (res.alpha_lower, res.alpha_upper, res.exact, res.search_nodes) == (12, 12, True, 0)


def _similarity_graph(prof, eps) -> SimilarityGraph:
    return graph_from_distances(pairwise_distance_matrix(prof.unique), far_distance_threshold(eps, prof.n_cases))


def _graph(adjacency) -> SimilarityGraph:
    return SimilarityGraph(adjacency.shape[0], adjacency)


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


@st.composite
def planted_graphs(draw, max_n=40):
    """Planted clusters: each pair inside a cluster joined with probability
    p, plus some vertices adjacent to their whole cluster."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = rng.integers(0, draw(st.integers(1, 5)), n)
    upper = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.3, 0.5, 0.7, 0.85, 1.0])), 1)
    universal = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    adjacency = (upper | upper.T | universal[:, None] | universal[None, :]) & np.equal.outer(label, label)
    np.fill_diagonal(adjacency, False)
    return adjacency


def greedy_clique(adjacency) -> int:
    """Size of a clique grown by taking the highest-degree candidate, ties
    to the lower index."""
    degree = adjacency.sum(axis=1)
    candidates = set(range(adjacency.shape[0]))
    size = 0
    while candidates:
        v = min(candidates, key=lambda u: (-degree[u], u))
        candidates &= set(np.flatnonzero(adjacency[v]).tolist())
        size += 1
    return size


class TestCliqueSearchProperties:
    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_exact_and_equal_to_subset_oracle(self, adjacency):
        res = clique_number(_graph(adjacency))
        assert res.exact
        assert res.alpha_lower == res.alpha_upper == brute_force_alpha(adjacency)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=40))
    def test_union_of_cliques_needs_no_search(self, labels):
        res = clique_number(_graph(_union_of_cliques(labels)), node_budget=1)
        assert res.exact and res.search_nodes == 0
        assert res.alpha_lower == max([labels.count(x) for x in labels], default=1)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_graphs(), planted_graphs()))
    def test_start_is_at_least_the_greedy_clique(self, adjacency):
        assert clique_number(_graph(adjacency), node_budget=1).alpha_lower >= greedy_clique(adjacency)

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

    def test_rejects_lower_bound_above_the_coloring_bound(self):
        # a triangle plus an isolated vertex: no clique of 4 fits in 3 colors
        adjacency = np.zeros((4, 4), bool)
        adjacency[:3, :3] = ~np.eye(3, dtype=bool)
        with pytest.raises(ValueError, match="lower_bound 4 exceeds the coloring bound 3"):
            clique_number(_graph(adjacency), lower_bound=4)
        result = clique_number(_graph(adjacency), lower_bound=3)
        assert (result.alpha_lower, result.alpha_upper, result.exact) == (3, 3, True)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 2), min_size=6, max_size=6), min_size=1, max_size=14),
        st.lists(st.sampled_from(default_epsilon_grid()), min_size=1, max_size=12),
    )
    def test_sweep_equals_independent_calls(self, rows, grid):
        prof = profile(rows)
        for epsilons in (sorted(grid), sorted(grid, reverse=True)):
            for report, eps in zip(bounds.sweep(prof, epsilons), epsilons):
                res = clique_number(_similarity_graph(prof, eps))
                assert (report.k, report.exact_k) == (res.k, res.exact)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 2), min_size=6, max_size=6), min_size=1, max_size=14),
        st.lists(st.sampled_from(default_epsilon_grid()), min_size=1, max_size=12),
        st.integers(1, 3),
    )
    @example(  # searched per epsilon, 11/20 is exact after 1/2 but inexact after 3/10's smaller clique
        rows=[[0, 1, 1, 2, 0, 1], [1, 1, 0, 2, 0, 0], [1, 0, 0, 2, 1, 0], [1, 2, 1, 1, 0, 1], [1, 0, 0, 2, 0, 2]],
        grid=[Fraction(1, 2), Fraction(11, 20), Fraction(3, 10), Fraction(11, 20)],
        budget=2,
    )
    def test_grid_points_sharing_a_threshold_agree(self, rows, grid, budget):
        # even when the budget leaves k inexact: each threshold is searched once
        prof = profile(rows)
        seen = {}
        for report, eps in zip(bounds.sweep(prof, grid, node_budget=budget), grid):
            first = seen.setdefault(far_distance_threshold(eps, prof.n_cases), (report.k, report.exact_k))
            assert (report.k, report.exact_k) == first

    def test_sweep_warm_starts_each_call(self, monkeypatch):
        # one call per distinct graph, in ascending t = ceil(eps * C) (here
        # each threshold's graph differs), each warm-started from the clique
        # the call before it found
        calls = []

        def recording(graph, node_budget, *, lower_bound):
            result = clique_number(graph, node_budget, lower_bound=lower_bound)
            calls.append((graph, lower_bound, result.alpha_lower))
            return result

        monkeypatch.setattr(bounds, "clique_number", recording)
        prof = profile(random_rows(81, 12, 8, 2))
        # C = 8: t is 1, 3, 5, 2, 5 and 1, so 0.55 shares t with 0.6 and 0.05 with 0.1
        grid = [Fraction(1, 10), Fraction(3, 10), Fraction(6, 10), Fraction(2, 10), Fraction(11, 20), Fraction(1, 20)]
        bounds.sweep(prof, grid)
        distances = pairwise_distance_matrix(prof.unique)
        expected = [graph_from_distances(distances, t).adjacency for t in (1, 2, 3, 5)]
        assert len({adjacency.tobytes() for adjacency in expected}) == len(calls) == len(expected)
        assert all(np.array_equal(g.adjacency, adjacency) for (g, _, _), adjacency in zip(calls, expected))
        assert [lb for _, lb, _ in calls] == [1] + [alpha for _, _, alpha in calls[:-1]]
        assert max(lb for _, lb, _ in calls) > 1


class TestEpsilonClusterSimilarity:
    def test_two_cluster_paper_value(self, two_triangles):
        # half the population plus one, even at epsilon 0.9
        res = sweep(two_triangles, [0.9])[0]
        assert res.exact_k
        assert res.k == 6 // 2 + 1

    def test_max_distant_population(self):
        prof = deduplicate(dmatrix([[i] * 4 for i in range(5)]))
        for eps in default_epsilon_grid():
            assert sweep(prof, [eps])[0].k == 2

    def test_matches_bruteforce_across_grid(self):
        for trial in range(12):
            prof = profile(random_rows(400 + trial, 8, 6, 2))
            for eps in default_epsilon_grid():
                k_graph = sweep(prof, [eps])[0].k
                k_set = similarity_bruteforce(prof, eps)
                assert k_graph == k_set, (trial, eps)

    def test_monotone_in_epsilon(self, two_triangles):
        grid = default_epsilon_grid()
        ks = [sweep(two_triangles, [e])[0].k for e in grid]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_k_bounds(self):
        prof = profile(random_rows(7, 5, 4, 2))
        for eps in default_epsilon_grid():
            k = sweep(prof, [eps])[0].k
            assert 2 <= k <= prof.n_unique + 1

    def test_real_kind_requires_explicit_delta(self):
        prof = identity_profile(rmatrix([[0.5, 1.5], [1.0, 0.25]]))
        with pytest.raises(ValueError, match="delta"):
            sweep(prof, [0.5])

    def test_real_kind_with_delta_matches_discrete(self):
        from lexibound.popgen import with_real_jitter

        discrete = dmatrix(random_rows(55, 7, 8, 3))
        prof_d = deduplicate(discrete)
        delta = 0.25
        real = with_real_jitter(discrete, delta, RngStream(56))
        prof_r = identity_profile(real)
        for eps in (0.1, 0.3, 0.5):
            assert (
                sweep(prof_r, [eps], delta)[0].k
                == sweep(prof_d, [eps])[0].k
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

    def test_real_losses_need_a_delta(self):
        prof = identity_profile(rmatrix([[0.5, 1.5], [1.0, 0.25]]))
        with pytest.raises(ValueError, match="delta must be supplied"):
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
