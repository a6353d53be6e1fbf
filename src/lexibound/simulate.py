"""Monte Carlo runtime estimation and one exact walk over selection pools.

Estimates live alongside ``_reachable_pools``, which meets each pool that
selection can reach once, with the elites of the cases that split it. Two
exact readers share that walk: the winner distribution, and the elite sizes
that bound each pool's one-step shrinkage E[X_{t+1} | X_t = x] <= x (1 - eps/4)
for x >= 2k behind the runtime bound.
"""

from __future__ import annotations

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

# A walk holds every pool it reaches, and the oracle one exact distribution
# per pool. verify's fixtures reach at most 1,049 pools; criterion 3's
# random_uniform 100x100 (4 levels) reaches 62,589, which the oracle solves in
# under 30 s with a 142 MB peak (2 vCPU). 100,000 admits both with room to spare.
_POOL_BUDGET = 100_000


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
    total = total_sq = iterations = width = profile_sums = 0
    lo, hi = math.inf, 0
    for block in run_trials(profile, trials, rng):
        m = block.evaluations
        total += int(m.sum())
        total_sq += sum((m * m).tolist())  # exact: m <= N * C, so m * m fits int64
        lo, hi = min(lo, int(m.min())), max(hi, int(m.max()))
        iterations += int(block.steps.sum())
        # Pool sizes per step, each trial absorbed at 1 past its end.
        width = max(width, int(block.steps.max()) + 1)
        profile_sums += block.pool_size_sums()

    mean = total / trials
    std_error = 0.0
    if trials >= 2:
        variance = (total_sq - trials * mean * mean) / (trials - 1)
        std_error = math.sqrt(max(variance, 0.0)) / math.sqrt(trials)
    return RunStats(
        trials=trials,
        mean_evaluations=mean,
        std_error=std_error,
        min_evaluations=lo,
        max_evaluations=hi,
        mean_iterations=iterations / trials,
        pool_size_profile=tuple(x / trials for x in profile_sums[:width].tolist()),
    )


def selection_distribution(profile: DedupProfile, trials: int, rng: RngStream) -> np.ndarray:
    """Empirical winner frequency per original individual (sums to 1)."""
    counts = np.zeros(profile.n_original, dtype=np.int64)
    for block in run_trials(profile, trials, rng):
        counts += np.bincount(block.winner_original, minlength=profile.n_original)
    return counts / trials


def _reachable_pools(profile: DedupProfile, floor: int):
    """Yield ``(pool, elites)`` once for each pool of at least ``floor`` unique
    rows that selection can reach, depth first. ``elites`` holds the elite of
    each case that splits the pool; every other case ties the whole pool.
    Pools below ``floor`` are neither yielded nor entered. Raises ValueError
    once more than ``_POOL_BUDGET`` pools are reached."""
    columns = profile.unique.losses.T.tolist()
    stack = [tuple(range(profile.n_unique))] if profile.n_unique >= floor else []
    seen = {pool: pool for pool in stack}  # one tuple per pool, shared by every elites list
    while stack:
        pool = stack.pop()
        elites = []
        for column in columns:
            best = min(column[i] for i in pool)
            elite = tuple(i for i in pool if column[i] == best)
            if len(elite) < len(pool):
                if len(elite) >= floor and elite not in seen:
                    seen[elite] = elite
                    stack.append(elite)
                elites.append(seen.get(elite, elite))
        if len(seen) > _POOL_BUDGET:
            raise ValueError(f"more than {_POOL_BUDGET} reachable pools of {floor} or more rows (the pool budget)")
        yield pool, elites


def oracle_distribution(profile: DedupProfile) -> np.ndarray:
    """Exact winner probability per original individual.

    A drawn case either ties the whole pool or splits it, and the next case
    to split a pool is uniform over the cases that do; so a pool's winner
    distribution is the mean, over those cases, of the distribution of the
    case's elite (the recursion of La Cava et al., 2019). An elite is smaller
    than its pool, so the reachable pools are solved smallest first, as exact
    fractions; each behavior's mass is then split uniformly over its clones.
    """
    wins: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for pool, elites in sorted(_reachable_pools(profile, 1), key=lambda item: len(item[0])):
        if not elites:  # one row, or rows that tie on every case
            wins[pool] = {i: Fraction(1, len(pool)) for i in pool}
            continue
        mass: dict[int, Fraction] = {}
        for elite in elites:  # per splitting case: two cases may leave one sub-pool
            for i, p in wins[elite].items():
                mass[i] = mass.get(i, 0) + p
        wins[pool] = {i: p / len(elites) for i, p in mass.items()}
    prob_unique = wins[tuple(range(profile.n_unique))]
    prob = np.array([float(prob_unique.get(u, 0)) for u in range(profile.n_unique)])
    return (prob / np.bincount(profile.unique_index))[profile.unique_index]


def pool_shrinkage(profile: DedupProfile, floor: int):
    """Yield ``(pool, elite_total)`` for each pool of ``_reachable_pools``.
    ``elite_total`` sums the pool's elite size over all C cases, so
    ``elite_total / (C |P|)`` is the fraction of the pool one draw keeps on
    average. A case already drawn ties the whole pool, the largest elite any
    case leaves, so that fraction bounds E[X'|P] / |P| whatever cases were
    drawn before.
    """
    c = profile.n_cases
    for pool, elites in _reachable_pools(profile, floor):
        yield pool, (c - len(elites)) * len(pool) + sum(map(len, elites))
