"""Monte Carlo runtime estimation and exact small-instance oracles.

Estimates live alongside two ground-truth routes: an exact recursion over
selection pools for winner distributions on small instances, and the per-step
drift table that checks the pool-shrinkage inequality
E[X_{t+1} | X_t = x] <= x (1 - eps/4) for x >= 2k behind the runtime bound.
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
    "DriftEntry",
    "estimate_runtime",
    "selection_distribution",
    "oracle_distribution",
    "drift_check",
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


def _mean_and_se(count: int, total: int, total_sq: int) -> tuple[float, float]:
    """Mean and its standard error from exact integer sums of ``count`` samples."""
    mean = total / count
    if count < 2:
        return mean, 0.0
    variance = (total_sq - count * mean * mean) / (count - 1)
    return mean, math.sqrt(max(variance, 0.0)) / math.sqrt(count)


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

    mean, std_error = _mean_and_se(trials, total, total_sq)
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
        elites = []
        for column in columns:
            best = min(column[i] for i in pool)
            elite = tuple(i for i in pool if column[i] == best)
            if len(elite) < len(pool):
                elites.append(elite)
        if not elites:  # one row, or rows that tie on every case
            return {i: Fraction(1, len(pool)) for i in pool}
        mass: dict[int, Fraction] = {}
        for elite in elites:  # per splitting case: two cases may leave one sub-pool
            for i, p in wins(elite).items():
                mass[i] = mass.get(i, 0) + p
        return {i: p / len(elites) for i, p in mass.items()}

    prob_unique = wins(tuple(range(n_unique)))
    out = np.zeros(profile.n_original, dtype=np.float64)
    for u, group in enumerate(profile.groups):
        out[list(group)] = float(prob_unique.get(u, 0)) / len(group)
    return out


@dataclass(frozen=True)
class DriftEntry:
    """Empirical one-step pool shrinkage at a single pool size x >= 2k."""

    pool_size: int
    transitions: int
    mean_next: float
    std_error: float
    bound: float  # x * (1 - eps/4)
    flagged: bool  # mean_next - 3 SE exceeds the bound


def drift_check(
    profile: DedupProfile,
    epsilon: float,
    k: int,
    trials: int,
    rng: RngStream,
) -> list[DriftEntry]:
    """Check E[X_{t+1} | X_t = x] <= x (1 - eps/4) for every observed x >= 2k.

    Buckets transitions by exact pool size (the inequality is per-x), pooled
    across steps and trials. An entry is flagged when its empirical mean
    minus 3 standard errors still exceeds the bound. Requires trials >= 1000
    so the per-x means are meaningful.
    """
    if trials < 1000:
        raise ValueError(f"drift_check needs trials >= 1000, got {trials}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    eps = float(epsilon)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    floor = 2 * k
    n = profile.n_unique
    counts = np.zeros(n + 1, dtype=np.int64)
    totals = np.zeros(n + 1, dtype=np.int64)
    totals_sq = np.zeros(n + 1, dtype=np.int64)
    for block in run_trials(profile, trials, rng):
        # Past the end of a trace pool sizes read 1 < floor, so every
        # transition counted here is one that the selection made.
        x = block.pool_sizes[:, :-1]
        counted = x >= floor
        x = x[counted]
        y = block.pool_sizes[:, 1:][counted].astype(np.int64)
        counts += np.bincount(x, minlength=n + 1)
        np.add.at(totals, x, y)
        np.add.at(totals_sq, x, y * y)

    factor = 1.0 - eps / 4.0
    table = []
    for x in np.flatnonzero(counts).tolist():
        count, total, total_sq = int(counts[x]), int(totals[x]), int(totals_sq[x])
        mean, se = _mean_and_se(count, total, total_sq)
        bound = x * factor
        table.append(
            DriftEntry(
                pool_size=x,
                transitions=count,
                mean_next=mean,
                std_error=se,
                bound=bound,
                flagged=mean - 3.0 * se > bound,
            )
        )
    return table
