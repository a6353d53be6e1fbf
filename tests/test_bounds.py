import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexibound import bounds, checks
from lexibound.bounds import (
    BoundReport,
    best_epsilon,
    default_epsilon_grid,
    parse_epsilon_grid,
    sweep,
)
from lexibound.cli import render
from lexibound.core import RngStream, deduplicate, identity_profile
from lexibound.diversity import (
    DEFAULT_NODE_BUDGET,
    clique_number,
    far_distance_threshold,
    graph_from_distances,
    pairwise_distance_matrix,
    similarity_bruteforce,
)
from lexibound.popgen import gen_adversarial_single_case, gen_clustered, gen_random_uniform

from conftest import profile, rmatrix


class TestTheoremBound:
    """The bound 4N/eps + 2kC as a sweep reports it."""

    def test_formula_examples(self):
        # 4 rows that differ on all 4 cases: no pair is near at eps 1, so k = 2
        (report,) = sweep(profile([[i] * 4 for i in range(4)]), [1])
        assert (report.k, report.term_pool, report.term_cases) == (2, 16.0, 16.0)
        assert (report.total, report.worst_case, report.ratio) == (32.0, 16.0, 2.0)

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, 1.1):
            with pytest.raises(ValueError, match="epsilon must be in"):
                sweep(profile([[0], [1]]), [eps])

    def test_exact_decimal_epsilon(self):
        # 4 * 3 / 0.05 must be exactly 240, not a float-noise neighbour
        (report,) = sweep(profile([[0], [1], [2]]), [0.05])
        assert (report.k, report.term_pool, report.total) == (2, 240.0, 244.0)


class TestGrid:
    def test_default_grid(self):
        grid = default_epsilon_grid()
        assert len(grid) == 12
        assert grid[0] == Fraction(1, 20)
        assert grid[-1] == Fraction(3, 5)
        assert all(b - a == Fraction(1, 20) for a, b in zip(grid, grid[1:]))

    def test_parse_inclusive_endpoints(self):
        grid = parse_epsilon_grid("0.05:0.60:0.05")
        assert grid == default_epsilon_grid()
        assert parse_epsilon_grid("0.25:0.25:0.05") == (Fraction(1, 4),)

    def test_parse_counts_points_exactly(self):
        assert len(parse_epsilon_grid("0.1:0.3:0.1")) == 3
        assert parse_epsilon_grid("0.1:0.35:0.1")[-1] == Fraction(3, 10)

    def test_parse_rejects_oversized_grid_before_building_it(self):
        # 10^7 points; building them would take tens of seconds
        with pytest.raises(ValueError, match="10000000 points"):
            parse_epsilon_grid("1e-7:1:1e-7")
        assert len(parse_epsilon_grid("1e-4:1:1e-4")) == 10_000

    def test_parse_prints_counts_beyond_20_digits_short(self):
        with pytest.raises(ValueError, match="has 40000000000000000001 points"):
            parse_epsilon_grid("0.1:0.5:1e-20")
        with pytest.raises(ValueError, match=r"has 4\.0e\+20 points"):
            parse_epsilon_grid("0.1:0.5:1e-21")
        # beyond float range, and a 10**5-digit count that a decimal conversion would spend 0.2 s on
        with pytest.raises(ValueError, match=r"has 4\.0e\+399 points"):
            parse_epsilon_grid("0.1:0.5:1e-400")
        with pytest.raises(ValueError, match=r"has 4\.0e\+99999 points"):
            parse_epsilon_grid("0.1:0.5:1e-100000")

    def test_parse_rejects_malformed(self):
        for bad in ("0.1:0.5", "a:b:c", "0:0.5:0.1", "0.5:0.1:0.1", "0.1:1.5:0.1", "0.1:0.5:0"):
            with pytest.raises(ValueError):
                parse_epsilon_grid(bad)


class TestSweep:
    def test_two_triangle_ks_match_oracle(self, two_triangles):
        reports = sweep(two_triangles)
        grid = default_epsilon_grid()
        for report, eps in zip(reports, grid):
            assert report.k == similarity_bruteforce(two_triangles, eps)
            assert report.exact_k
        by_eps = {report.epsilon: report.k for report in reports}
        assert by_eps[0.05] == 2
        assert by_eps[0.5] == 4

    def test_term_shapes(self, two_triangles):
        reports = sweep(two_triangles)
        for a, b in zip(reports, reports[1:]):
            assert b.term_pool < a.term_pool
            assert b.term_cases >= a.term_cases
        for report in reports:
            assert report.total == report.term_pool + report.term_cases
            assert report.worst_case == two_triangles.n_unique * two_triangles.n_cases
            assert report.ratio == report.total / report.worst_case

    def test_singleton_profile(self):
        prof = profile([[1, 2, 3, 4]])
        for report in sweep(prof):
            assert report.k == 2
            eps = Fraction(str(report.epsilon))
            assert report.total == float(Fraction(4) / eps) + 4 * prof.n_cases

    def test_rejects_empty_grid(self, two_triangles):
        with pytest.raises(ValueError):
            sweep(two_triangles, epsilons=())


def searched_at_every_threshold(prof, grid, delta, budget):
    """(k, exact_k) per grid epsilon from one warm-started clique search at
    every distinct threshold in ascending order, shared graphs included, each
    upper end then capped at the least one found at a larger threshold."""
    distances = pairwise_distance_matrix(prof.unique, delta)
    thresholds = [far_distance_threshold(eps, prof.n_cases) for eps in grid]
    results, lower = {}, 1
    for t in sorted(set(thresholds)):
        results[t] = clique_number(graph_from_distances(distances, t), budget, lower_bound=lower)
        lower = results[t].alpha_lower
    rows, cap = {}, math.inf
    for t in sorted(results, reverse=True):
        cap = min(cap, results[t].alpha_upper)
        rows[t] = (cap + 1, results[t].exact or cap == results[t].alpha_lower)
    return [rows[t] for t in thresholds]


def counting_clique_calls(monkeypatch):
    """Route the sweep's clique searches through a recorder of their graphs."""
    graphs = []

    def counted(graph, node_budget, *, lower_bound):
        graphs.append(graph.adjacency.tobytes())
        return clique_number(graph, node_budget, lower_bound=lower_bound)

    monkeypatch.setattr(bounds, "clique_number", counted)
    return graphs


def profile_of_graph(adjacency) -> tuple[list[list[int]], int]:
    """Rows whose pairwise distance is 2D - 2 on an edge and 2D off one, D the
    largest degree: each edge is a case both ends mark, and each vertex marks
    private cases until it has marked D."""
    n = len(adjacency)
    degree = adjacency.sum(axis=1)
    marks = [(i, j) for i in range(n) for j in range(i + 1, n) if adjacency[i, j]]
    marks += [(v,) for v in range(n) for _ in range(degree.max() - degree[v])]
    return [[int(v in case) for case in marks] for v in range(n)], int(degree.max())


class TestGroupedSweep:
    """One clique search per distinct graph: thresholds t share a graph when
    no distance d lies in t_prev <= d < t, and only an exact result is reused."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.data(),
        st.sampled_from(["discrete", "real"]),
        st.lists(st.integers(1, 20), min_size=1, max_size=12),
        st.sampled_from([1, 2, 5, DEFAULT_NODE_BUDGET]),
    )
    def test_equals_a_search_at_every_threshold(self, data, kind, twentieths, budget):
        n = data.draw(st.integers(1, 12))
        c = data.draw(st.integers(1, 8))
        if kind == "discrete":
            cells, delta = st.integers(0, 2), None
        else:
            cells, delta = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), data.draw(st.sampled_from([0.0, 0.1, 0.3]))
        rows = data.draw(st.lists(st.lists(cells, min_size=c, max_size=c), min_size=n, max_size=n))
        prof = profile(rows) if kind == "discrete" else identity_profile(rmatrix(rows))
        grid = [Fraction(i, 20) for i in twentieths]
        reports = sweep(prof, grid, delta, budget)
        assert [(r.k, r.exact_k) for r in reports] == searched_at_every_threshold(prof, grid, delta, budget)

    def test_threshold_on_a_present_distance_excludes_it(self, monkeypatch):
        # distances {0, 3, 7, 10} on C = 10: t = 2 and t = 3 = d share the
        # edgeless graph; t = 4 = d + 1 is the first to join the pair at 3
        prof = profile([[0] * 10, [1] * 3 + [0] * 7, [1] * 10])
        graphs = counting_clique_calls(monkeypatch)
        grid = [Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)]
        ks = [report.k for report in sweep(prof, grid)]
        assert ks == [similarity_bruteforce(prof, eps) for eps in grid] == [2, 2, 3]
        assert len(graphs) == 2

    def test_one_search_per_distinct_graph(self, monkeypatch):
        prof = deduplicate(gen_clustered(40, 30, 3, 0.1, RngStream(5)))
        grid = default_epsilon_grid()
        distances = pairwise_distance_matrix(prof.unique)
        thresholds = sorted({far_distance_threshold(eps, prof.n_cases) for eps in grid})
        distinct = [graph_from_distances(distances, t).adjacency.tobytes() for t in thresholds]
        graphs = counting_clique_calls(monkeypatch)
        assert all(report.exact_k for report in sweep(prof, grid))
        # consecutive thresholds that share a graph share one search
        assert graphs == [g for i, g in enumerate(distinct) if i == 0 or g != distinct[i - 1]]
        assert len(set(graphs)) == len(graphs) < len(thresholds)

    def test_inexact_result_on_a_shared_graph_is_searched_again(self, monkeypatch):
        # a 14-vertex graph whose first 10-node search stops at [5, 6]; on the
        # same graph the next threshold starts from 5, prunes more, and proves 6
        src = RngStream(122).source()
        adjacency = np.zeros((14, 14), dtype=bool)
        for i in range(14):
            for j in range(i + 1, 14):
                adjacency[i, j] = adjacency[j, i] = src.randbelow(100) < 70
        rows, top = profile_of_graph(adjacency)
        prof = profile(rows)
        grid = [Fraction(2 * top - 1, prof.n_cases), Fraction(2 * top, prof.n_cases)]
        graphs = counting_clique_calls(monkeypatch)
        reports = sweep(prof, grid, node_budget=10)
        assert [(r.k, r.exact_k) for r in reports] == [(7, False), (7, True)]
        assert len(graphs) == 2 and graphs[0] == graphs[1]


    def test_k_never_falls_after_an_inexact_search(self):
        # budget 10 stops the search at t = 2D - 1 with k = 11; the same graph's
        # warm-started search at t = 2D proves alpha 7, which caps the first row
        rng = np.random.default_rng(0)
        n, p = rng.integers(14, 30), rng.uniform(0.5, 0.85)
        adjacency = np.triu(rng.random((n, n)) < p, 1)
        rows, top = profile_of_graph(adjacency | adjacency.T)
        prof = profile(rows)
        assert (n, top, prof.n_cases) == (27, 19, 303)
        reports = sweep(prof, [Fraction(2 * top - 1, prof.n_cases), Fraction(2 * top, prof.n_cases)], node_budget=10)
        assert [(r.k, r.exact_k) for r in reports] == [(8, True), (8, True)]
        assert checks.bound_monotonicity([("repro", reports)])[0]


class TestBestEpsilon:
    def test_single_entry(self, two_triangles):
        reports = sweep(two_triangles, epsilons=(Fraction(1, 4),))
        assert best_epsilon(reports) is reports[0]

    def test_grid_minimum(self, two_triangles):
        reports = sweep(two_triangles)
        best = best_epsilon(reports)
        assert best.total == min(r.total for r in reports)

    def test_tie_goes_to_smaller_epsilon(self):
        a = BoundReport(0.1, 0.0, 2, True, 40.0, 20.0, 60.0, 100.0, 0.6)
        b = BoundReport(0.2, 0.0, 2, True, 20.0, 40.0, 60.0, 100.0, 0.6)
        assert best_epsilon([b, a]).epsilon == 0.1

    def test_all_distinct_population_moves_best_to_largest(self):
        # k stays 2 everywhere, so the total 4N/eps + 4C is decreasing in eps
        prof = profile([[i] * 4 for i in range(6)])
        reports = sweep(prof)
        assert all(r.k == 2 for r in reports)
        assert best_epsilon(reports).epsilon == 0.6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            best_epsilon([])


class TestSerialization:
    def test_csv_schema(self, two_triangles):
        text = render([asdict(r) for r in sweep(two_triangles, epsilons=(Fraction(1, 2),))], "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "epsilon,delta,k,exact_k,term_pool,term_cases,total,worst_case,ratio"
        cells = lines[1].split(",")
        assert cells[0] == "0.5"
        assert cells[2] == "4"
        assert cells[3] == "true"

    def test_json_round_trip(self, two_triangles):
        reports = sweep(two_triangles)
        parsed = json.loads(render([asdict(r) for r in reports], "json"))
        assert len(parsed) == len(reports)
        for obj, report in zip(parsed, reports):
            assert obj["epsilon"] == report.epsilon
            assert obj["k"] == report.k
            assert obj["total"] == report.total  # exact float round-trip


class TestRatioSanity:
    def test_adversarial_never_cheap_when_cases_dominate(self):
        # all pairwise distances are 1, so every grid epsilon sees one big cluster
        prof = deduplicate(gen_adversarial_single_case(50, 100))
        for report in sweep(prof):
            assert report.ratio >= 0.45

    def test_diverse_population_beats_worst_case(self):
        matrix = gen_random_uniform(100, 100, 4, RngStream(21))
        reports = sweep(deduplicate(matrix))
        assert all(r.exact_k for r in reports)
        assert best_epsilon(reports).ratio < 0.5
