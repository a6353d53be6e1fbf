import json
from dataclasses import asdict
from fractions import Fraction

import pytest

from lexibound.bounds import (
    BoundReport,
    best_epsilon,
    default_epsilon_grid,
    parse_epsilon_grid,
    sweep,
)
from lexibound.cli import render
from lexibound.core import RngStream, deduplicate
from lexibound.diversity import similarity_bruteforce
from lexibound.popgen import gen_adversarial_single_case, gen_random_uniform

from conftest import profile


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
