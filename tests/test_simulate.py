import itertools
import json
import math
import re
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexibound import engine, simulate
from lexibound.bounds import sweep
from lexibound.cli import render
from lexibound.core import RngStream, deduplicate
from lexibound.popgen import (
    gen_adversarial_single_case,
    gen_clustered,
    gen_log_binary,
)
from lexibound.simulate import (
    estimate_runtime,
    oracle_distribution,
    pool_shrinkage,
    selection_distribution,
)

from conftest import dmatrix, profile, random_rows


def tv_distance(a, b) -> float:
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def permutation_replay(rows) -> list[float]:
    """Winner probability per row: the filter chain replayed on the original
    rows for every case order, the winner uniform over the clones left."""
    orders = list(itertools.permutations(range(len(rows[0]))))
    out = [0.0] * len(rows)
    for order in orders:
        pool = list(range(len(rows)))
        for case in order:
            best = min(rows[i][case] for i in pool)
            pool = [i for i in pool if rows[i][case] == best]
        for i in pool:
            out[i] += 1.0 / (len(orders) * len(pool))
    return out


@st.composite
def populations_with_clones(draw, unique=(1, 6), max_cases=5):
    """Between ``unique[0]`` and ``unique[1]`` distinct rows over at most
    ``max_cases`` cases and 2-3 loss levels, with clones up to ``unique[1]`` rows."""
    lo, hi = unique
    levels = draw(st.integers(min_value=2, max_value=3))
    fewest = next(c for c in itertools.count(1) if levels**c >= lo)  # enough distinct rows exist
    c = draw(st.integers(min_value=fewest, max_value=max_cases))
    row = st.lists(st.integers(min_value=0, max_value=levels - 1), min_size=c, max_size=c)
    rows = draw(st.lists(row, min_size=lo, max_size=min(hi, levels**c), unique_by=tuple))
    rows += draw(st.lists(st.sampled_from(rows), max_size=hi - len(rows)))
    return draw(st.permutations(rows))


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


def runtime_from_traces(prof, trials, rng) -> simulate.RunStats:
    """RunStats from every trial's built trace, trials shorter than the
    longest padded with pool size 1."""
    traces = [trace for block in engine.run_trials(prof, trials, rng) for trace in block.traces()]
    m = [trace.evaluations for trace in traces]
    width = max(len(trace.pool_sizes) for trace in traces)
    sums = [sum(t.pool_sizes[i] if i < len(t.pool_sizes) else 1 for t in traces) for i in range(width)]
    mean = sum(m) / trials
    variance = (sum(x * x for x in m) - trials * mean * mean) / (trials - 1)
    return simulate.RunStats(
        trials=trials,
        mean_evaluations=mean,
        std_error=math.sqrt(max(variance, 0.0)) / math.sqrt(trials),
        min_evaluations=min(m),
        max_evaluations=max(m),
        mean_iterations=sum(len(trace.case_order) for trace in traces) / trials,
        pool_size_profile=tuple(x / trials for x in sums),
    )


def forbid_traces(monkeypatch):
    """Make the runner's case-order and pool-size builder fail."""

    def built(*args):
        raise AssertionError("case orders or pool sizes were built")

    monkeypatch.setattr(engine, "_traces", built)


class TestLazyTraces:
    """Monte Carlo readers build no case order or pool-size table."""

    def test_selection_distribution_builds_no_trace(self, monkeypatch):
        prof = profile(random_rows(8, 9, 6, 2))
        expected = selection_distribution(prof, 3000, RngStream(6))
        forbid_traces(monkeypatch)
        assert np.array_equal(selection_distribution(prof, 3000, RngStream(6)), expected)

    def test_estimate_runtime_equals_the_eager_path(self, monkeypatch):
        # the simulate-blocks golden's profile and run: 400 unique rows,
        # 3,000 trials over several blocks
        prof = deduplicate(gen_clustered(400, 100, 8, 0.05, RngStream(3)))
        assert prof.n_unique == 400
        expected = runtime_from_traces(prof, 3000, RngStream(5))
        forbid_traces(monkeypatch)
        assert estimate_runtime(prof, 3000, RngStream(5)) == expected


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

    def test_oracle_beyond_eight_cases(self):
        # row i loses only on case i: every row wins by symmetry
        prof = profile([[int(case == i) for case in range(12)] for i in range(12)])
        assert oracle_distribution(prof).tolist() == [1 / 12] * 12

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(populations_with_clones(), populations_with_clones(unique=(13, 16), max_cases=4)))
    def test_matches_permutation_replay(self, rows):
        exact = oracle_distribution(profile(rows))
        assert np.abs(exact - permutation_replay(rows)).max() <= 1e-12

    def test_pool_budget_stops_both_readers(self, monkeypatch, dominated_profile):
        # the dominated triple reaches 4 pools: itself, (0, 2), (1, 2) and (2,)
        monkeypatch.setattr(simulate, "_POOL_BUDGET", 3)
        message = "more than 3 reachable pools of 1 or more rows (the pool budget)"
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_distribution(dominated_profile)
        with pytest.raises(ValueError, match=re.escape(message)):
            list(pool_shrinkage(dominated_profile, 1))
        monkeypatch.setattr(simulate, "_POOL_BUDGET", 4)
        assert len(list(pool_shrinkage(dominated_profile, 1))) == 4


def reachable_pools(rows) -> set[tuple[int, ...]]:
    """Every pool some sequence of distinct cases filters the rows down to."""
    c = len(rows[0])
    pools = set()
    for r in range(c + 1):
        for order in itertools.permutations(range(c), r):
            pool = list(range(len(rows)))
            for case in order:
                best = min(rows[i][case] for i in pool)
                pool = [i for i in pool if rows[i][case] == best]
            pools.add(tuple(pool))
    return pools


class TestPoolShrinkage:
    def test_all_distinct_population(self):
        # every pair differs on every case: each case leaves one row
        prof = profile([[i] * 6 for i in range(8)])
        assert list(pool_shrinkage(prof, 4)) == [(tuple(range(8)), 6)]

    def test_floor_above_n_yields_nothing(self, two_triangles):
        # k = 4 at eps 0.5, so only pools of 8 or more qualify; N is 6
        assert list(pool_shrinkage(two_triangles, 8)) == []

    def test_clustered_pools_satisfy_the_inequality(self):
        prof = deduplicate(gen_clustered(24, 40, 3, 0.05, RngStream(0, 800)))
        result = sweep(prof, [0.2])[0]
        assert result.exact_k and result.k == 9
        pools = list(pool_shrinkage(prof, 2 * result.k))
        assert pools  # the whole pool of 24 is one
        assert all(Fraction(total, prof.n_cases * len(pool)) <= Fraction(19, 20) for pool, total in pools)

    @settings(max_examples=150, deadline=None)
    @given(populations_with_clones(), st.integers(1, 7))
    def test_yields_each_reachable_pool_once(self, rows, floor):
        prof = profile(rows)
        unique = prof.unique.losses.tolist()
        yielded = list(pool_shrinkage(prof, floor))
        pools = [pool for pool, _ in yielded]
        assert len(set(pools)) == len(pools)
        assert set(pools) == {pool for pool in reachable_pools(unique) if len(pool) >= floor}
        for pool, total in yielded:
            elites = [sum(unique[i][case] == min(unique[j][case] for j in pool) for i in pool) for case in range(prof.n_cases)]
            assert total == sum(elites)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 10), st.integers(2, 11), st.integers(0, 2**32 - 1))
    def test_inequality_holds_on_every_subset(self, levels, c, n, seed):
        # not only on reachable pools: at each eps in 1/20..1, the mean elite
        # size over all C cases of any set of 2k or more distinct rows is at
        # most |S|(1 - eps/4)
        prof = profile(random_rows(seed, n, c, levels))
        losses = prof.unique.losses
        worst = {}  # subset size -> the largest fraction one draw keeps
        for size in range(2, prof.n_unique + 1):
            for subset in itertools.combinations(range(prof.n_unique), size):
                sub = losses[list(subset)]
                kept = Fraction(int((sub == sub.min(axis=0)).sum()), c * size)
                worst[size] = max(worst.get(size, kept), kept)
        grid = [Fraction(i, 20) for i in range(1, 21)]
        for eps, report in zip(grid, sweep(prof, grid)):
            assert report.exact_k
            assert all(worst[size] <= 1 - eps / 4 for size in worst if size >= 2 * report.k)


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
