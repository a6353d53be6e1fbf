"""Lexicase parent selection with exact evaluation counting.

Selection operates on a deduplicated profile: cases are drawn uniformly at
random without replacement, the candidate pool is filtered to the per-case
elites (minimum loss within the current pool), and the loop ends when a
single behavior remains. The winner is then drawn uniformly from that
behavior's clone group. One evaluation is counted per (pool member, drawn
case) pair, including the iteration that reduces the pool to one.

:func:`run_trials` runs many such selections in lockstep blocks with numpy,
each bit-identical to :func:`lexicase_select` on its own substream; the
scalar function stays the reference it is checked against.

Also houses the static-epsilon binarization and case down-sampling variants.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DedupProfile, ErrorMatrix, LossKind, RngStream, randbelow_array

__all__ = [
    "SelectionTrace",
    "TrialBlock",
    "lexicase_select",
    "run_trials",
    "select_parents",
    "static_epsilon_binarize",
    "mad_thresholds",
    "downsample_cases",
]

# run_trials works in blocks of at most this many trials, and of at most this
# many trial x (unique row + case) cells, which bounds its working set
# whatever the number of trials.
_BLOCK_TRIALS = 2048
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class SelectionTrace:
    """Full record of one selection event.

    ``pool_sizes`` is the pool-size trajectory X_0, X_1, ..., X_T (X_0 = number
    of unique behaviors, final entry 1 unless the singleton started there);
    ``case_order`` is the consumed prefix of a case permutation;
    ``evaluations`` = sum of pool_sizes excluding the final entry.
    """

    winner_unique_index: int
    winner_original_index: int
    case_order: tuple[int, ...]
    pool_sizes: tuple[int, ...]
    evaluations: int


def lexicase_select(profile: DedupProfile, rng: RngStream) -> SelectionTrace:
    """Select one parent; returns the trace including the evaluation count M.

    Requires a DISCRETE profile. Its unique rows differ pairwise on some
    case, whose elite filter separates them, so the pool always ends at one.
    """
    profile.unique.require_kind(LossKind.DISCRETE, "lexicase_select")
    rows = profile._rows
    n_cases = profile.n_cases
    src = rng.source()

    pool = list(range(len(rows)))
    pool_sizes = [len(pool)]
    case_order: list[int] = []
    remaining = list(range(n_cases))
    evaluations = 0

    while len(pool) > 1:
        j = src.randbelow(len(remaining))
        case = remaining[j]
        remaining[j] = remaining[-1]
        remaining.pop()
        case_order.append(case)

        best = min(rows[i][case] for i in pool)
        evaluations += len(pool)
        pool = [i for i in pool if rows[i][case] == best]
        pool_sizes.append(len(pool))

    winner_unique = pool[0]
    group = profile.groups[winner_unique]
    winner_original = group[0] if len(group) == 1 else group[src.randbelow(len(group))]

    return SelectionTrace(
        winner_unique_index=winner_unique,
        winner_original_index=winner_original,
        case_order=tuple(case_order),
        pool_sizes=tuple(pool_sizes),
        evaluations=evaluations,
    )


class TrialBlock(NamedTuple):
    """Outcomes of consecutive trials of one run, one row per trial.

    Row b's trace is ``case_order[b, :s]`` and ``pool_sizes[b, :s + 1]``
    with ``s = steps[b]``; past the end of a trace, ``case_order`` holds -1
    and ``pool_sizes`` holds 1, the pool size of a finished selection.
    """

    winner_unique: np.ndarray
    winner_original: np.ndarray
    evaluations: np.ndarray
    steps: np.ndarray
    case_order: np.ndarray
    pool_sizes: np.ndarray

    def traces(self) -> list[SelectionTrace]:
        return [
            SelectionTrace(
                winner_unique_index=int(self.winner_unique[b]),
                winner_original_index=int(self.winner_original[b]),
                case_order=tuple(self.case_order[b, :s].tolist()),
                pool_sizes=tuple(self.pool_sizes[b, : s + 1].tolist()),
                evaluations=int(self.evaluations[b]),
            )
            for b, s in enumerate(self.steps.tolist())
        ]


def run_trials(profile: DedupProfile, trials: int, rng: RngStream) -> Iterator[TrialBlock]:
    """Run ``trials`` selections, trial i on ``rng.substream(i)``, in blocks.

    Trial i is bit for bit ``lexicase_select(profile, rng.substream(i))``:
    all trials of a block draw their cases in lockstep, from vectorised
    copies of their own splitmix64 streams, so the block size never changes
    a result. Blocks hold consecutive trials and are yielded in order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    profile.unique.require_kind(LossKind.DISCRETE, "lexicase_select")
    by_case, absent = _narrow_losses(profile.unique.losses.T)
    group_sizes = np.array([len(g) for g in profile.groups])
    group_starts = np.cumsum(group_sizes) - group_sizes
    members = np.concatenate(profile.groups)
    block = max(1, min(_BLOCK_TRIALS, _BLOCK_CELLS // (profile.n_unique + profile.n_cases)))

    def blocks() -> Iterator[TrialBlock]:
        for start in range(0, trials, block):
            states = rng.substream_states(start, min(trials, start + block))
            winner, evaluations, steps, case_order, pool_sizes = _select_block(by_case, absent, states)
            # Clone-group tie breaks draw last, as in lexicase_select.
            size = group_sizes[winner]
            winner_original = members[group_starts[winner]]
            tied = np.flatnonzero(size > 1)
            pick = randbelow_array(states[tied], size[tied])
            winner_original[tied] = members[group_starts[winner[tied]] + pick]
            yield TrialBlock(winner, winner_original, evaluations, steps, case_order, pool_sizes)

    return blocks()


def _narrow_losses(losses: np.ndarray):
    """``losses`` as the narrowest integer type that holds every loss below
    the type's maximum, which then marks pool non-members.

    Discrete losses are exact integers below 2^53, so int64 always fits and
    comparisons are exactly those of the float64 losses.
    """
    lo, hi = losses.min(), losses.max()
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi < info.max:
            return np.ascontiguousarray(losses, dtype=dtype), info.max
    return np.ascontiguousarray(losses, dtype=np.int64), np.iinfo(np.int64).max


def _select_block(by_case: np.ndarray, absent, states: np.ndarray):
    """Filter one block of pools down to their winners, in lockstep.

    ``by_case`` is the unique loss matrix transposed (C x N), and ``absent``
    exceeds every loss. ``states`` holds the trials' stream states and is
    advanced past every draw made. Working arrays hold only the trials
    still running: their rows in the block, states, undrawn cases
    (swap-removed as in lexicase_select) and masks of the rows filtered out
    of their pools.
    """
    n_cases, n_unique = by_case.shape
    count = len(states)
    winner = np.zeros(count, dtype=np.intp)
    evaluations = np.zeros(count, dtype=np.int64)
    steps = np.zeros(count, dtype=np.intp)
    case_order = np.full((count, n_cases), -1, dtype=np.int32)
    pool_sizes = np.ones((count, n_cases + 1), dtype=np.int32)
    pool_sizes[:, 0] = n_unique

    live = np.arange(count if n_unique > 1 else 0)
    rows = np.arange(live.size)
    live_states = states[live]
    remaining = np.tile(np.arange(n_cases, dtype=np.int32), (live.size, 1))
    out = np.zeros((live.size, n_unique), dtype=bool)
    size = np.full(live.size, n_unique, dtype=np.int32)
    t = 0
    while live.size:
        left = n_cases - t
        j = randbelow_array(live_states, left)
        case = remaining[rows, j]
        remaining[rows, j] = remaining[:, left - 1]
        values = by_case[case]
        np.copyto(values, absent, where=out)
        out = values > values.min(axis=1)[:, None]
        evaluations[live] += size
        size = n_unique - np.count_nonzero(out, axis=1).astype(np.int32)
        case_order[live, t] = case
        pool_sizes[live, t + 1] = size
        t += 1

        done = size == 1
        if done.any():
            winner[live[done]] = out[done].argmin(axis=1)
            states[live[done]] = live_states[done]
            steps[live[done]] = t
            going = ~done
            live, live_states, size, out = live[going], live_states[going], size[going], out[going]
            remaining = remaining[going, : left - 1]
            rows = np.arange(live.size)
        else:
            remaining = remaining[:, : left - 1]

    return winner, evaluations, steps, case_order[:, :t], pool_sizes[:, : t + 1]


def select_parents(profile: DedupProfile, count: int, rng: RngStream) -> list[SelectionTrace]:
    """Run ``count`` independent selection events on substreams 0..count-1.

    Deduplication is not repeated; the profile is shared across all events.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [trace for block in run_trials(profile, count, rng) for trace in block.traces()]


def static_epsilon_binarize(matrix: ErrorMatrix, thresholds) -> ErrorMatrix:
    """Binarize real losses against per-case elite thresholds.

    Output entry is 0 when the loss is within ``thresholds[c]`` of the
    population-wide minimum on case c, else 1; the result is DISCRETE and
    ready for deduplication and selection.
    """
    matrix.require_kind(LossKind.REAL, "static_epsilon_binarize")
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.shape != (matrix.n_cases,):
        raise ValueError(f"expected {matrix.n_cases} thresholds, got shape {thr.shape}")
    if (thr < 0).any():
        raise ValueError("thresholds must be non-negative")
    col_min = matrix.losses.min(axis=0)
    binary = np.where(matrix.losses <= col_min + thr, 0.0, 1.0)
    return ErrorMatrix(
        binary,
        kind=LossKind.DISCRETE,
        individual_labels=matrix.individual_labels,
        case_labels=matrix.case_labels,
    )


def mad_thresholds(matrix: ErrorMatrix) -> np.ndarray:
    """Per-case median absolute deviation, the usual static-epsilon threshold."""
    matrix.require_kind(LossKind.REAL, "mad_thresholds")
    med = np.median(matrix.losses, axis=0)
    return np.median(np.abs(matrix.losses - med), axis=0)


def downsample_cases(matrix: ErrorMatrix, fraction: float, rng: RngStream) -> ErrorMatrix:
    """Restrict the matrix to ceil(fraction * C) uniformly chosen cases.

    The subset keeps the original case order (and labels); fraction 1.0
    returns the matrix unchanged. Note the result may contain duplicate rows
    even if the input did not; re-deduplicate before selection.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    c = matrix.n_cases
    size = math.ceil(fraction * c)
    if size >= c:
        return matrix
    src = rng.source()
    # Partial Fisher-Yates: the first `size` slots are a uniform subset.
    indices = list(range(c))
    for i in range(size):
        j = i + src.randbelow(c - i)
        indices[i], indices[j] = indices[j], indices[i]
    chosen = sorted(indices[:size])
    case_labels = None
    if matrix.case_labels is not None:
        case_labels = tuple(matrix.case_labels[j] for j in chosen)
    return ErrorMatrix(
        matrix.losses[:, chosen],
        kind=matrix.kind,
        individual_labels=matrix.individual_labels,
        case_labels=case_labels,
    )
