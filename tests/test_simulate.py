import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from lexibound.cli import render
from lexibound.core import RngStream, deduplicate
from lexibound.diversity import epsilon_cluster_similarity
from lexibound.popgen import (
    gen_adversarial_single_case,
    gen_clustered,
    gen_log_binary,
)
from lexibound.simulate import (
    drift_check,
    estimate_runtime,
    oracle_distribution,
    selection_distribution,
)

from conftest import dmatrix, profile, random_rows


def tv_distance(a, b) -> float:
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def log_binary_expected_evaluations(n: int, c: int) -> Fraction:
    """Exact E[M] for the log-binary population.

    The pool holds 2^(b-j) patterns after j of the b discriminating cases
    have appeared; position counts of discriminating cases among the first t
    draws are hypergeometric.
    """
    b = n.bit_length() - 1
    total = Fraction(0)
    for t in range(c):
        for j in range(min(b, t) + 1):
            if j == b:
                continue  # pool already collapsed; loop has stopped
            weight = Fraction(math.comb(b, j) * math.comb(c - b, t - j), math.comb(c, t))
            total += weight * (1 << (b - j))
    return total


class TestEstimateRuntime:
    def test_singleton(self):
        stats = estimate_runtime(profile([[1, 2]]), 100, RngStream(0))
        assert stats.mean_evaluations == 0.0
        assert stats.std_error == 0.0
        assert stats.min_evaluations == stats.max_evaluations == 0
        assert stats.pool_size_profile == (1.0,)

    def test_adversarial_exact_expectation(self):
        prof = deduplicate(gen_adversarial_single_case(4, 5))
        stats = estimate_runtime(prof, 30_000, RngStream(1))
        assert abs(stats.mean_evaluations - 12.0) <= 3 * stats.std_error
        assert stats.min_evaluations == 4  # case 0 drawn first
        assert stats.max_evaluations == 20  # case 0 drawn last

    def test_log_binary_exact_dp(self):
        n, c = 8, 64
        exact = float(log_binary_expected_evaluations(n, c))
        prof = deduplicate(gen_log_binary(n, c))
        stats = estimate_runtime(prof, 20_000, RngStream(2))
        assert abs(stats.mean_evaluations - exact) <= 3 * stats.std_error

    def test_log_binary_first_shrink_position(self):
        # first pool shrink happens when the first of the b discriminating
        # cases appears: mean position (c+1)/(b+1)
        n, c = 8, 64
        prof = deduplicate(gen_log_binary(n, c))
        positions = []
        from lexibound.engine import run_trials

        # trial i is lexicase_select(prof, RngStream(3).substream(i)); rows are
        # padded with pool size 1 past a trace's end, after its first shrink
        for block in run_trials(prof, 20_000, RngStream(3)):
            for sizes in block.pool_sizes.tolist():
                first = next(t for t in range(1, len(sizes)) if sizes[t] < sizes[0])
                positions.append(first)
        mean = sum(positions) / len(positions)
        se = np.std(positions, ddof=1) / math.sqrt(len(positions))
        assert abs(mean - (c + 1) / (3 + 1)) <= 3 * se

    def test_mean_within_min_max(self):
        prof = profile(random_rows(5, 9, 6, 2))
        stats = estimate_runtime(prof, 500, RngStream(4))
        assert stats.min_evaluations <= stats.mean_evaluations <= stats.max_evaluations

    def test_pool_profile_starts_at_n_unique(self):
        prof = profile(random_rows(6, 9, 6, 2))
        stats = estimate_runtime(prof, 200, RngStream(5))
        assert stats.pool_size_profile[0] == prof.n_unique
        assert all(a >= b for a, b in zip(stats.pool_size_profile, stats.pool_size_profile[1:]))

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            estimate_runtime(profile([[1]]), 0, RngStream(0))


class TestSelectionDistribution:
    def test_sums_to_one(self):
        prof = profile(random_rows(7, 6, 5, 3))
        freq = selection_distribution(prof, 2_000, RngStream(6))
        assert freq.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dominated_row_frequency_one(self, dominated_profile):
        freq = selection_distribution(dominated_profile, 5_000, RngStream(7))
        assert freq.tolist() == [0.0, 0.0, 1.0]

    def test_clone_tie_split(self):
        # two exact clones of the sole winner -> each near 0.5
        prof = deduplicate(dmatrix([[0, 0], [0, 0], [1, 1]]))
        freq = selection_distribution(prof, 40_000, RngStream(8))
        assert freq[2] == 0.0
        assert freq[0] == pytest.approx(0.5, abs=0.02)
        assert freq[1] == pytest.approx(0.5, abs=0.02)

    def test_symmetric_pair(self):
        prof = profile([[0, 1], [1, 0]])
        freq = selection_distribution(prof, 40_000, RngStream(9))
        assert freq[0] == pytest.approx(0.5, abs=0.02)


class TestOracleDistribution:
    def test_single_case_strict_elite(self):
        prof = profile([[0], [1]])
        assert oracle_distribution(prof).tolist() == [1.0, 0.0]

    def test_symmetric_pair(self):
        prof = profile([[0, 1], [1, 0]])
        assert oracle_distribution(prof).tolist() == [0.5, 0.5]

    def test_dominated(self, dominated_profile):
        assert oracle_distribution(dominated_profile).tolist() == [0.0, 0.0, 1.0]

    def test_clones_split_uniformly(self):
        prof = deduplicate(dmatrix([[0, 0], [0, 0], [1, 1]]))
        assert oracle_distribution(prof).tolist() == [0.5, 0.5, 0.0]

    def test_random_profile_against_sampling(self):
        prof = profile(random_rows(10, 5, 4, 2))
        exact = oracle_distribution(prof)
        assert exact.sum() == pytest.approx(1.0, abs=1e-9)
        sampled = selection_distribution(prof, 30_000, RngStream(11))
        assert tv_distance(exact, sampled) <= 0.03

    def test_rejects_oversize_instances(self):
        with pytest.raises(ValueError):
            oracle_distribution(profile([[0] * 9 ] + [[1] * 9]))
        wide = profile([[i, i] for i in range(13)])
        with pytest.raises(ValueError):
            oracle_distribution(wide)


class TestDriftCheck:
    def test_all_distinct_population(self):
        # every pair differs on every case: one draw always collapses the pool
        prof = profile([[i] * 6 for i in range(8)])
        table = drift_check(prof, 0.5, 2, 2_000, RngStream(12))
        assert len(table) == 1
        entry = table[0]
        assert entry.pool_size == 8
        assert entry.mean_next == 1.0
        assert not entry.flagged

    def test_two_triangles_vacuous(self, two_triangles):
        # k = 4 at eps 0.5, so only x >= 8 rows qualify; N is 6
        table = drift_check(two_triangles, 0.5, 4, 1_000, RngStream(13))
        assert table == []

    def test_clustered_zero_flags(self):
        prof = deduplicate(gen_clustered(24, 40, 3, 0.05, RngStream(0, 800)))
        eps = 0.2
        result = epsilon_cluster_similarity(prof, eps)
        assert result.exact and result.k == 9
        table = drift_check(prof, eps, result.k, 3_000, RngStream(14))
        assert table  # pool sizes >= 18 do occur (X_0 = 24)
        assert not any(entry.flagged for entry in table)

    def test_rejects_low_trials_and_bad_k(self, two_triangles):
        with pytest.raises(ValueError):
            drift_check(two_triangles, 0.5, 4, 999, RngStream(0))
        with pytest.raises(ValueError):
            drift_check(two_triangles, 0.5, 1, 1_000, RngStream(0))


class TestSerialization:
    def test_run_stats_json(self):
        stats = estimate_runtime(profile([[0, 1], [1, 0]]), 100, RngStream(15))
        payload = json.loads(render(asdict(stats), "json"))
        assert payload["trials"] == 100
        assert payload["mean_evaluations"] == stats.mean_evaluations
        assert payload["pool_size_profile"][0] == 2.0

    def test_run_stats_csv(self):
        stats = estimate_runtime(profile([[0, 1], [1, 0]]), 100, RngStream(15))
        summary = {k: v for k, v in asdict(stats).items() if k != "pool_size_profile"}
        lines = render([summary], "csv").strip().split("\n")
        assert lines[0].startswith("trials,mean_evaluations")
        assert lines[1].split(",")[0] == "100"

    def test_drift_table_serializers(self):
        prof = profile([[i] * 6 for i in range(8)])
        table = drift_check(prof, 0.5, 2, 1_000, RngStream(16))
        parsed = json.loads(render([asdict(e) for e in table], "json"))
        assert parsed[0]["pool_size"] == 8
        csv_text = render([asdict(e) for e in table], "csv")
        assert csv_text.splitlines()[0] == "pool_size,transitions,mean_next,std_error,bound,flagged"
        assert csv_text.splitlines()[1].startswith("8,")
