"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is seeded and deterministic.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lexibound import checks, cli
from lexibound.bounds import best_epsilon, sweep
from lexibound.core import RngStream, deduplicate, write_matrix_csv
from lexibound.diversity import covariance_mean, pairwise_distance_matrix
from lexibound.popgen import (
    gen_adversarial_single_case,
    gen_clustered,
    gen_log_binary,
    gen_random_uniform,
    gen_two_cluster,
)
from lexibound.simulate import estimate_runtime

from conftest import profile, random_rows


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance] criterion {number:2d} ({label}): PASS [{elapsed:.1f}s]")


# Shared Monte Carlo runs over the five generator families (criteria 3, 4, 6).
TRIALS = 10_000


@pytest.fixture(scope="module")
def family_runs():
    populations = {
        "adversarial_single_case": gen_adversarial_single_case(100, 100),
        "log_binary": gen_log_binary(64, 128),
        "two_cluster": gen_two_cluster(40, 80),
        "random_uniform": gen_random_uniform(100, 100, 4, RngStream(1001)),
        "clustered": gen_clustered(60, 120, 4, 0.05, RngStream(1002)),
    }
    runs = {}
    for i, (name, matrix) in enumerate(populations.items()):
        prof = deduplicate(matrix)
        stats = estimate_runtime(prof, TRIALS, RngStream(2000, i))
        reports = sweep(prof)
        runs[name] = (prof, stats, reports)
    return runs


def test_criterion_1_oracle_equivalence():
    with criterion(1, "lexicase winner distribution matches the exact pool-recursion oracle"):
        started = time.perf_counter()
        profiles = [
            ("dominated-triple", [[0, 1], [1, 0], [0, 0]]),
            ("symmetric-pair", [[0, 1], [1, 0]]),
            ("clone-pair", [[0, 1], [0, 1], [1, 0]]),
            ("all-clones", [[2, 2], [2, 2], [2, 2]]),
            ("binary-square", [[0, 0], [0, 1], [1, 0], [1, 1]]),
            ("adversarial-4x5", gen_adversarial_single_case(4, 5).losses.tolist()),
            ("log-binary-4x3", gen_log_binary(4, 3).losses.tolist()),
        ]
        for i in range(15):
            n = 3 + i % 4
            c = 2 + i % 5
            levels = 2 + i % 2
            rows = random_rows(3100 + i, n, c, levels)
            if i % 3 == 0:
                rows.append(list(rows[0]))  # inject a behavioral clone
            profiles.append((f"random-{i}", rows))
        assert len(profiles) >= 20

        fixtures = []
        for i, (name, rows) in enumerate(profiles):
            prof = profile(rows)
            assert prof.n_unique <= 6 and prof.n_cases <= 6
            fixtures.append((name, prof, prof, RngStream(4000, i)))
        ok, detail = checks.oracle_equivalence(fixtures, 100_000, 0.02)
        assert ok, detail
        elapsed = time.perf_counter() - started
        print(f"  {len(profiles)} profiles, {detail}, {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_2_definition_equivalence():
    with criterion(2, "clique-form similarity equals set-form oracle"):
        started = time.perf_counter()
        fixtures = []
        for i in range(100):
            n = 4 + i % 9
            c = 4 + (i * 5) % 9
            levels = 2 + i % 3
            prof = deduplicate(gen_random_uniform(n, c, levels, RngStream(5000, i)))
            assert prof.n_unique <= 12 and prof.n_cases <= 12
            fixtures.append((f"random profile {i}", prof))
        ok, detail = checks.definition_equivalence(fixtures)
        assert ok, detail
        assert detail == "1200 (profile, epsilon) points agree"  # 100 profiles x 12 epsilons
        elapsed = time.perf_counter() - started
        print(f"  100 profiles x 12 epsilons: {detail}, {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_3_bound_holds_empirically(family_runs):
    with criterion(3, "mean + 3SE <= 4N/eps + 2kC on all five families"):
        started = time.perf_counter()
        ok, detail = checks.bound_validity(
            (name, stats, reports) for name, (prof, stats, reports) in family_runs.items()
        )
        assert ok, detail
        # the default budget resolves every family exactly
        assert detail == f"{5 * 12} exact-k grid points satisfied"
        elapsed = time.perf_counter() - started
        print(f"  {detail}, zero violations, {elapsed:.1f}s (incl. fixture)")
        assert elapsed < 300.0


def test_criterion_4_adversarial_lower_bound(family_runs):
    with criterion(4, "single-case adversary forces ~N*C/2 evaluations"):
        prof, stats, _ = family_runs["adversarial_single_case"]
        n, c = 100, 100
        # pool size stays n until case 0 appears at position p, so M = n * p
        exact = sum(n * p for p in range(1, c + 1)) / c
        assert exact == n * (c + 1) / 2
        assert stats.mean_evaluations >= 0.4 * n * c
        assert abs(stats.mean_evaluations - exact) <= 3.0 * stats.std_error
        print(
            f"  mean {stats.mean_evaluations:.1f} vs exact {exact:.1f} "
            f"(3SE = {3 * stats.std_error:.1f})"
        )


def test_criterion_5_two_cluster_counterexample():
    with criterion(5, "two clusters: large avg distance yet Omega(N*C) runtime"):
        n, c = 20, 40
        matrix = gen_two_cluster(n, c)
        prof = deduplicate(matrix)

        distances = pairwise_distance_matrix(matrix)
        pairs = distances[np.triu_indices(n, k=1)]
        average = float(pairs.mean())
        assert average >= 0.4 * c, f"average distance {average}"

        result = sweep(prof, [0.9])[0]
        assert result.exact_k
        assert result.k == 11 == n // 2 + 1

        stats = estimate_runtime(prof, TRIALS, RngStream(6000))
        assert stats.mean_evaluations >= 0.1 * n * c
        print(
            f"  avg distance {average:.1f} (>= {0.4 * c}), k(0.9) = {result.k}, "
            f"mean evals {stats.mean_evaluations:.1f} (>= {0.1 * n * c})"
        )


def test_criterion_6_monotonicity_and_term_shape(family_runs):
    with criterion(6, "k non-decreasing, pool term falling, case term rising"):
        ok, detail = checks.bound_monotonicity(
            (name, reports) for name, (prof, stats, reports) in family_runs.items()
        )
        assert ok, detail
        for name, (prof, stats, reports) in family_runs.items():
            best = best_epsilon(reports)
            assert best in reports
            assert best.total == min(r.total for r in reports)
        print(f"  exact shape checks over {len(family_runs)} families x 12 epsilons")


def test_criterion_7_drift_inequality():
    with criterion(7, "pool drift respects E[X'|x] <= x(1 - eps/4) for x >= 2k"):
        fixtures = [
            (gen_clustered(60, 120, 4, 0.05, RngStream(1002)), 0.15, 16),
            (gen_clustered(24, 40, 3, 0.05, RngStream(7001)), 0.2, 9),
        ]
        runs = []
        for i, (matrix, eps, expected_k) in enumerate(fixtures):
            prof = deduplicate(matrix)
            result = sweep(prof, [eps])[0]
            assert result.exact_k and result.k == expected_k
            runs.append((f"clustered fixture {i}", prof, result))
        # every fixture must reach a pool of 2k or more, and no such pool breaks the inequality
        ok, detail = checks.drift_inequality(runs)
        assert ok, detail
        print(f"  {len(fixtures)} clustered fixtures: {detail}")


def test_criterion_8_covariance_baseline():
    with criterion(8, "covariance mean: oracle agreement and decoupling from k"):
        # naive double-loop oracle on 50 random matrices
        src = RngStream(8000).source()
        for trial in range(50):
            n = 2 + src.randbelow(8)
            c = 2 + src.randbelow(8)
            values = [[src.random() * 4 - 2 for _ in range(c)] for _ in range(n)]
            from conftest import rmatrix

            m = rmatrix(values)
            means = [sum(row) / c for row in values]
            total = 0.0
            for i in range(n):
                for j in range(n):
                    total += (
                        sum((values[i][t] - means[i]) * (values[j][t] - means[j]) for t in range(c))
                        / (c - 1)
                    )
            naive = total / (n * n)
            fast = covariance_mean(m)
            scale = max(abs(naive), abs(fast), 1e-300)
            assert abs(naive - fast) / scale <= 1e-12

        # Decoupling on the constructed two-cluster instance. Note: its base
        # rows are constant apart from single-case bumps, so the covariance
        # mean is provably near zero, NOT large; the measures decouple by
        # pointing in opposite directions (k sees minimal diversity, the
        # covariance suggests none of the co-movement a "similar" population
        # would show, and ranks a maximally diverse random population as far
        # more correlated).
        n, c = 20, 40
        two_cluster = gen_two_cluster(n, c)
        k_tc = sweep(deduplicate(two_cluster), [0.9])[0].k
        assert k_tc == n // 2 + 1
        cov_tc = covariance_mean(two_cluster)
        assert abs(cov_tc) < 0.01

        random_matrix = gen_random_uniform(n, c, 4, RngStream(8001))
        k_rand = sweep(deduplicate(random_matrix), [0.5])[0].k
        assert k_rand == 2  # maximal diversity by the cluster measure
        cov_rand = covariance_mean(random_matrix)
        assert cov_rand > 5 * abs(cov_tc)  # covariance ranks them the other way
        print(
            f"  oracle agreement on 50 matrices; two-cluster k(0.9)={k_tc} with "
            f"cov_mean={cov_tc:.5f} vs random k(0.5)={k_rand} with cov_mean={cov_rand:.5f}"
        )


def test_criterion_9_substitute_pipeline(tmp_path):
    with criterion(9, "paper-scale results substituted by synthetic pipeline"):
        # The paper-scale numbers (24.7% mean bound ratio, best-eps average
        # 0.29, per-problem figures) come from 100 PushGP runs per benchmark
        # problem in an external GP system and are not reproducible here;
        # criteria 1-8 plus this end-to-end sweep over synthetic generation
        # directories stand in for them.
        matrices = [
            gen_two_cluster(12, 24),
            gen_clustered(12, 24, 3, 0.05, RngStream(9001)),
            gen_random_uniform(12, 24, 4, RngStream(9002)),
        ]
        for index, matrix in enumerate(matrices):
            write_matrix_csv(matrix, tmp_path / f"gen_{index}.csv")
        out = tmp_path / "per_generation.json"
        assert cli.main(["sweep-run", str(tmp_path), "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [row["generation"] for row in rows] == [0, 1, 2]
        for row, matrix in zip(rows, matrices):
            best = best_epsilon(sweep(deduplicate(matrix)))
            assert row["ratio"] == best.ratio
            assert row["k"] == best.k
            assert row["total"] == best.total
        ratios = [row["ratio"] for row in rows]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        print(f"  sweep-run ratios over 3 synthetic generations: {[round(r, 3) for r in ratios]}")


def test_criterion_10_performance_envelope(tmp_path):
    with criterion(10, "1000x200 matrix: analyze < 30s exact, simulate < 30s"):
        matrix_path = tmp_path / "big.csv"
        code = cli.main(
            ["genpop", "--kind", "random_uniform", "--n", "1000", "--c", "200",
             "--levels", "4", "--seed", "10001", "--out", str(matrix_path)]
        )
        assert code == 0

        out = tmp_path / "reports.json"
        started = time.perf_counter()
        code = cli.main(["analyze", str(matrix_path), "--format", "json", "--out", str(out)])
        analyze_elapsed = time.perf_counter() - started
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 12
        assert all(r["exact_k"] for r in reports)
        assert analyze_elapsed < 30.0

        sim_out = tmp_path / "stats.json"
        started = time.perf_counter()
        code = cli.main(
            ["simulate", str(matrix_path), "--trials", "1000", "--seed", "7", "--out", str(sim_out)]
        )
        simulate_elapsed = time.perf_counter() - started
        assert code == 0
        stats = json.loads(sim_out.read_text())
        assert stats["trials"] == 1000
        assert simulate_elapsed < 30.0
        print(f"  analyze {analyze_elapsed:.1f}s, simulate {simulate_elapsed:.1f}s")
