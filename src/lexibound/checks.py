"""The paper's properties as checks, computed here and nowhere else.

``verify``, ``simulate --check-bound`` and the acceptance suite run them on
their own fixtures, sizes and tolerances. A fixture is a tuple whose first
entry names it. A check returns ``(ok, detail)``: ok when the property
holds on every fixture, else a detail that names the first failure.
The drift and bound checks use a one-sided 3-standard-error margin: a
seeded failure reproduces, and false failures occur about 0.1% of the time.
"""

from __future__ import annotations

import numpy as np

from . import bounds, simulate
from .diversity import epsilon_cluster_similarity, similarity_bruteforce


def oracle_equivalence(fixtures, trials: int, tolerance: float) -> tuple[bool, str]:
    """Winner frequencies of ``trials`` selections are within total variation
    ``tolerance`` of the permutation oracle. Fixtures are ``(name, profile,
    sampled, rng)``: selections run on ``sampled``, which is ``profile``
    unless a fault is injected."""
    worst, worst_name = 0.0, ""
    for name, profile, sampled, rng in fixtures:
        exact = simulate.oracle_distribution(profile)
        tv = 0.5 * float(np.abs(exact - simulate.selection_distribution(sampled, trials, rng)).sum())
        if tv > worst:
            worst, worst_name = tv, name
    detail = f"worst TV {worst:.4f} on {worst_name} (tolerance {tolerance}, {trials} trials)"
    return worst <= tolerance, detail


def definition_equivalence(fixtures) -> tuple[bool, str]:
    """The clique form of ``k``, found exactly, equals its set form at every
    default grid epsilon. Fixtures are ``(name, profile)``."""
    checked = 0
    for name, profile in fixtures:
        for eps in bounds.default_epsilon_grid():
            direct = similarity_bruteforce(profile, eps)
            result = epsilon_cluster_similarity(profile, eps)
            if result.k != direct or not result.exact:
                detail = f"set-form k={direct} vs clique-form k={result.k} (exact: {result.exact})"
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


def drift_inequality(fixtures, trials: int) -> tuple[bool, str]:
    """``E[X'|x] <= x(1 - eps/4)`` at every pool size ``x >= 2k`` that
    ``trials`` selections reach, and they reach one. Fixtures are ``(name,
    profile, similarity, rng)``, with the exact SimilarityResult at eps."""
    parts = []
    for name, profile, similarity, rng in fixtures:
        if not similarity.exact:
            return False, f"clique budget exhausted on {name}"
        k = similarity.k
        table = simulate.drift_check(profile, similarity.epsilon, k, trials, rng)
        flagged = [entry.pool_size for entry in table if entry.flagged]
        parts.append(f"k={k}, {len(table)} pool sizes >= {2 * k} checked, flagged: {flagged or 'none'}")
        if flagged or not table:
            return False, f"{parts[-1]} on {name}"
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
