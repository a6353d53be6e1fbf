"""Monte Carlo runtime estimation and exact recursions over selection pools.

Estimates live alongside two exact routes that share one step, the elites
of the cases that split a pool: the winner distribution on small instances,
and the reachable pools of at least a given size with the elite sizes that
bound their one-step shrinkage E[X_{t+1} | X_t = x] <= x (1 - eps/4) for
x >= 2k behind the runtime bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DedupProfile, RngStream
from .engine import lexicase_select  # noqa: F401  (the scalar reference stays reachable here)
from .engine import run_trials

__all__ = [
    "RunStats",
    "estimate_runtime",
    "selection_distribution",
    "oracle_distribution",
    "pool_shrinkage",
]

# Bounds the oracle's pools to 2^12 and its recursion depth to 12.
_ORACLE_MAX_UNIQUE = 12


@dataclass(frozen=True)
class RunStats:
    """Aggregate of repeated selection events on one profile.

    ``pool_size_profile[t]`` is the mean pool size before draw t+1, averaged
    over all trials with trajectories shorter than t treated as absorbed at
    pool size 1.
    """

    trials: int
    mean_evaluations: float
    std_error: float
    min_evaluations: int
    max_evaluations: int
    mean_iterations: float
    pool_size_profile: tuple[float, ...]


def estimate_runtime(profile: DedupProfile, trials: int, rng: RngStream) -> RunStats:
    """Run ``trials`` independent selections (substreams 0..trials-1) and
    aggregate evaluation counts and the pool-size trajectory."""
    total = 0
    total_sq = 0
    lo = None
    hi = None
    iterations = 0
    columns: list[tuple[np.ndarray, int]] = []  # per block: pool-size column sums, trials
    for block in run_trials(profile, trials, rng):
        m = block.evaluations
        total += int(m.sum())
        total_sq += sum((m * m).tolist())  # exact: m <= N * C, so m * m fits int64
        lo = int(m.min()) if lo is None else min(lo, int(m.min()))
        hi = int(m.max()) if hi is None else max(hi, int(m.max()))
        iterations += int(block.steps.sum())
        columns.append((block.pool_sizes.sum(axis=0), len(m)))

    mean = total / trials
    std_error = 0.0
    if trials >= 2:
        variance = (total_sq - trials * mean * mean) / (trials - 1)
        std_error = math.sqrt(max(variance, 0.0)) / math.sqrt(trials)
    # Trials of a block with fewer columns are absorbed at pool size 1.
    width = max(len(sums) for sums, _ in columns)
    profile_sums = sum(np.pad(sums, (0, width - len(sums)), constant_values=n) for sums, n in columns)
    return RunStats(
        trials=trials,
        mean_evaluations=mean,
        std_error=std_error,
        min_evaluations=lo,
        max_evaluations=hi,
        mean_iterations=iterations / trials,
        pool_size_profile=tuple(x / trials for x in profile_sums.tolist()),
    )


def selection_distribution(profile: DedupProfile, trials: int, rng: RngStream) -> np.ndarray:
    """Empirical winner frequency per original individual (sums to 1)."""
    counts = np.zeros(profile.n_original, dtype=np.int64)
    for block in run_trials(profile, trials, rng):
        counts += np.bincount(block.winner_original, minlength=profile.n_original)
    return counts / trials


def _splits(columns: list[list], pool: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The elite of each case that splits ``pool``, from per-case loss
    ``columns``; every other case ties the whole pool."""
    elites = []
    for column in columns:
        best = min(column[i] for i in pool)
        elite = tuple(i for i in pool if column[i] == best)
        if len(elite) < len(pool):
            elites.append(elite)
    return elites


def oracle_distribution(profile: DedupProfile) -> np.ndarray:
    """Exact winner probability per original individual.

    A drawn case either ties the whole pool, leaving it as it is, or splits
    it; so the next case to split a pool is uniform over the cases that split
    it, and a pool's winner distribution is the mean, over those cases, of
    the distribution of the case's elites (the recursion of La Cava et al.,
    2019). Pools are memoised and masses summed as exact fractions; each
    behavior's mass is then split uniformly over its clones. N_unique <= 12.
    """
    n_unique = profile.n_unique
    if n_unique > _ORACLE_MAX_UNIQUE:
        raise ValueError(f"oracle limited to {_ORACLE_MAX_UNIQUE} unique rows, got {n_unique}")
    columns = profile.unique.losses.T.tolist()

    @functools.cache
    def wins(pool: tuple[int, ...]) -> dict[int, Fraction]:
        elites = _splits(columns, pool)
        if not elites:  # one row, or rows that tie on every case
            return {i: Fraction(1, len(pool)) for i in pool}
        mass: dict[int, Fraction] = {}
        for elite in elites:  # per splitting case: two cases may leave one sub-pool
            for i, p in wins(elite).items():
                mass[i] = mass.get(i, 0) + p
        return {i: p / len(elites) for i, p in mass.items()}

    prob_unique = wins(tuple(range(n_unique)))
    prob = np.array([float(prob_unique.get(u, 0)) for u in range(n_unique)])
    return (prob / np.bincount(profile.unique_index))[profile.unique_index]


def pool_shrinkage(profile: DedupProfile, floor: int):
    """Yield ``(pool, elite_total)`` once for each pool of at least ``floor``
    unique rows that selection can reach, depth first.

    ``elite_total`` sums the pool's elite size over all C cases, so
    ``elite_total / (C |P|)`` is the fraction of the pool one draw keeps on
    average. A case already drawn ties the whole pool, the largest elite any
    case leaves, so that fraction bounds E[X'|P] / |P| whatever cases were
    drawn before. Pools below ``floor`` are neither yielded nor entered.
    """
    columns = profile.unique.losses.T.tolist()
    c = profile.n_cases
    stack = [tuple(range(profile.n_unique))] if profile.n_unique >= floor else []
    seen = set(stack)
    while stack:
        pool = stack.pop()
        elites = _splits(columns, pool)
        yield pool, (c - len(elites)) * len(pool) + sum(map(len, elites))
        for elite in elites:
            if len(elite) >= floor and elite not in seen:
                seen.add(elite)
                stack.append(elite)
