"""The paper's properties as checks, computed here and nowhere else.

``verify``, ``simulate --check-bound`` and the acceptance suite run them on
their own fixtures, sizes and tolerances. A fixture is a tuple whose first
entry names it. A check returns ``(ok, detail)``: ok when the property
holds on every fixture, else a detail that names the first failure.
The drift check is exact. The bound check uses a one-sided
3-standard-error margin: a seeded failure reproduces, and false failures
occur about 0.1% of the time.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import bounds, simulate
from .core import exact_fraction
from .diversity import far_distance_threshold, k_from_diameters, least_subset_diameters


def oracle_equivalence(fixtures, trials: int, tolerance: float) -> tuple[bool, str]:
    """Winner frequencies of ``trials`` selections are within total variation
    ``tolerance`` of the exact pool-recursion oracle. Fixtures are ``(name,
    profile, sampled, rng)``: selections run on ``sampled``, which is
    ``profile`` unless a fault is injected."""
    results = []
    for name, profile, sampled, rng in fixtures:
        exact = simulate.oracle_distribution(profile)
        tv = 0.5 * float(np.abs(exact - simulate.selection_distribution(sampled, trials, rng)).sum())
        results.append((tv, name))
    # max keeps the first fixture to reach the largest TV, even when every TV is 0.
    worst, worst_name = max(results, key=lambda result: result[0], default=(0.0, ""))
    detail = f"worst TV {worst:.4f} on {worst_name} (tolerance {tolerance}, {trials} trials)"
    return worst <= tolerance, detail


def definition_equivalence(fixtures) -> tuple[bool, str]:
    """The clique form of ``k`` that ``bounds.sweep`` finds, exactly and
    warm-started, equals its set form at every default grid epsilon.
    Fixtures are ``(name, profile)``. The set form depends on epsilon only
    through ``far_distance_threshold``; every threshold's is read from one
    table of least subset diameters per profile."""
    checked = 0
    grid = bounds.default_epsilon_grid()
    for name, profile in fixtures:
        least = least_subset_diameters(profile)
        for eps, report in zip(grid, bounds.sweep(profile, grid)):
            direct = k_from_diameters(least, far_distance_threshold(eps, profile.n_cases))
            if report.k != direct or not report.exact_k:
                detail = f"set-form k={direct} vs clique-form k={report.k} (exact: {report.exact_k})"
                return False, f"{detail} at eps={eps} on {name}"
            checked += 1
    return True, f"{checked} (profile, epsilon) points agree"


def bound_monotonicity(fixtures) -> tuple[bool, str]:
    """Along a sweep ``k`` never falls, ``4N/eps`` falls strictly and ``2kC``
    never falls. Fixtures are ``(name, reports)`` over the default grid."""
    count = 0
    for count, (name, reports) in enumerate(fixtures, 1):
        for a, b in zip(reports, reports[1:]):
            if b.k < a.k or b.term_pool >= a.term_pool or b.term_cases < a.term_cases:
                return False, f"k, 4N/eps or 2kC breaks from eps={a.epsilon} to {b.epsilon} on {name}"
    return True, f"{count} fixtures over the default grid"


def drift_inequality(fixtures) -> tuple[bool, str]:
    """``E[X'|P] <= |P|(1 - eps/4)``, checked exactly on every reachable pool
    ``P`` with ``|P| >= 2k``, and there is one. Fixtures are ``(name,
    profile, report)``, with the profile's BoundReport at eps. A pool's mean
    elite size over all C cases bounds ``E[X'|P]`` under any history of
    draws (``simulate.pool_shrinkage``); the check stops at the first pool
    that breaks the inequality."""
    parts = []
    for name, profile, report in fixtures:
        if not report.exact_k:
            return False, f"clique budget exhausted on {name}"
        k = report.k
        limit = 1 - exact_fraction(report.epsilon) / 4
        pools, worst = 0, Fraction(0)
        for pools, (pool, elite_total) in enumerate(simulate.pool_shrinkage(profile, 2 * k), 1):
            ratio = Fraction(elite_total, profile.n_cases * len(pool))
            if ratio > limit:
                return False, f"k={k}: a pool of {len(pool)} keeps {ratio} > 1 - eps/4 = {limit} on {name}"
            worst = max(worst, ratio)
        if not pools:
            return False, f"k={k}: no reachable pool of {2 * k} or more on {name}"
        parts.append(f"k={k}, {pools} pools >= {2 * k}, worst ratio {float(worst):.3f} <= {float(limit):.4f}")
    return True, "; ".join(parts)


def bound_rows(stats, reports) -> list[dict]:
    """Per report, the bound against ``mean + 3*SE`` of ``stats``;
    ``satisfied`` is None where ``k`` is inexact."""
    margin = stats.mean_evaluations + 3.0 * stats.std_error
    return [
        {
            "epsilon": report.epsilon,
            "k": report.k,
            "exact_k": report.exact_k,
            "bound": report.total,
            "mean_plus_3se": margin,
            "satisfied": bool(margin <= report.total) if report.exact_k else None,
        }
        for report in reports
    ]


def bound_validity(runs) -> tuple[bool, str]:
    """``mean + 3*SE <= 4N/eps + 2kC`` at every exact-``k`` report. Runs are
    ``(name, stats, reports)``: one profile's RunStats and sweep."""
    points = 0
    for name, stats, reports in runs:
        for row in bound_rows(stats, reports):
            points += row["satisfied"] is not None
            if row["satisfied"] is False:
                detail = f"mean + 3*SE = {row['mean_plus_3se']:.1f} exceeds bound {row['bound']:.1f}"
                return False, f"{detail} at eps={row['epsilon']} on {name}"
    return True, f"{points} exact-k grid points satisfied"
