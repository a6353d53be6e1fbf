"""Lexicase parent selection with exact evaluation counting.

Selection operates on a deduplicated profile: cases are drawn uniformly at
random without replacement, the candidate pool is filtered to the per-case
elites (minimum loss within the current pool), and the loop ends when a
single behavior remains. The winner is drawn uniformly from that behavior's
clones, the individuals ``unique_index`` maps to it. One evaluation is counted
per (pool member, drawn case) pair, including the final filter to one.

:func:`run_trials` runs many such selections in lockstep blocks with numpy,
each bit-identical to :func:`lexicase_select` on its own substream; the
scalar function stays the reference it is checked against. It filters on
loss ranks, masking a pool's non-members by OR-ing in an all-ones value.
While a block's trials share few distinct pools, it filters each distinct
(pool, case) pair once and hands the result to every trial that drew it;
either way each trial's pool is the same, so this never changes a result.
A finished trial's winner is read from its pool's mask, and its working row
then writes to a sink row of the outputs until half the rows have finished
and the working arrays are compacted.

Also houses the static-epsilon binarization variant.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DedupProfile, ErrorMatrix, LossKind, RngStream, randbelow_array, rank_codes

__all__ = [
    "SelectionTrace",
    "TrialBlock",
    "lexicase_select",
    "run_trials",
    "static_epsilon_binarize",
    "mad_thresholds",
]

# run_trials works in blocks of at most this many trials and trial x (unique row
# + case) cells; the cells bound its working set (int32 per case, 1-8 byte codes
# and masks per row). 3,000 trials on perfbench's simulate_converged profile,
# 400 unique rows x 100 cases (2 vCPU, best of 10): 21 ms at 2^19 cells, 25 at
# 2^18, 38-46 at 2^17, 19 at 2^20. verify's 7 oracle profiles x 20,000 trials
# (best of 30): 28 ms at 2,048 trials, 22 at 4,096, 21 at 8,192; the process's
# peak RSS grows by 1.4 MB at 2,048, 1.5 at 4,096 and 2.8 at 8,192.
_BLOCK_TRIALS = 4096
_BLOCK_CELLS = 1 << 19


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
    rows = profile.unique.losses.tolist()
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
    clones = np.flatnonzero(profile.unique_index == winner_unique).tolist()
    winner_original = clones[0] if len(clones) == 1 else clones[src.randbelow(len(clones))]

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
    by_case = _narrow_losses(profile.unique.losses.T)
    members = np.argsort(profile.unique_index, kind="stable")
    sizes = np.bincount(profile.unique_index)
    starts = np.cumsum(sizes) - sizes
    block = max(1, min(_BLOCK_TRIALS, _BLOCK_CELLS // (profile.n_unique + profile.n_cases)))

    def blocks() -> Iterator[TrialBlock]:
        for start in range(0, trials, block):
            states = rng.substream_states(start, min(trials, start + block))
            winner, evaluations, steps, case_order, pool_sizes = _select_block(by_case, states)
            # Clone tie breaks draw last, as in lexicase_select.
            size = sizes[winner]
            winner_original = members[starts[winner]]
            tied = np.flatnonzero(size > 1)
            pick = randbelow_array(states[tied], size[tied])
            winner_original[tied] = members[starts[winner[tied]] + pick]
            yield TrialBlock(winner, winner_original, evaluations, steps, case_order, pool_sizes)

    return blocks()


def _narrow_losses(losses: np.ndarray) -> np.ndarray:
    """``losses`` as ranks 0..L-1 among their L distinct values, which keep every
    ``<`` and ``==`` of the elite filter and so every trace, in the narrowest
    unsigned type whose all-ones value is no rank: it marks pool non-members.
    The ranks come from ``core.rank_codes``, as in the distance table."""
    levels, codes = rank_codes(losses)
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if len(levels) <= np.iinfo(t).max)
    return np.ascontiguousarray(codes, dtype=dtype)


def _select_block(by_case: np.ndarray, states: np.ndarray):
    """Filter one block of pools down to their winners, in lockstep.

    ``by_case`` is the unique loss matrix transposed (C x N) as rank codes
    (see ``_narrow_losses``). ``states`` holds the trials' stream states; each
    is left at its state after its trial's last case draw. Working arrays hold
    one row per trial not yet compacted away: its row in the block, state,
    undrawn cases (swap-removed as in lexicase_select) and pool id. A pool id
    is a row of ``masks``, which marks the rows filtered out of that pool.
    While the (pool id, case) pairs are no more than the working rows, each
    distinct pair is filtered once and its trials share the result; after
    that, ``pid`` is None and ``masks`` holds one row per working row.

    When a trial's pool reaches one row, its winner is the pool's only zero
    in ``masks`` (found once per distinct pool while pool ids are shared) and
    its state is saved; its working row then points at ``sink``, one extra
    trial row of the outputs, so the draws and filters it still takes part
    in write nowhere. Once half the working rows have finished, the working
    arrays are compacted to the running ones. Outputs are stored step-major
    (one contiguous row per step) and returned transposed; steps and
    evaluations are read from the pool sizes at the end, since a trace's
    sizes exceed 1 until its last entry, which is 1.
    """
    n_cases, n_unique = by_case.shape
    count = len(states)
    sink = count
    winner = np.zeros(count, dtype=np.intp)
    case_order = np.full((n_cases, count + 1), -1, dtype=np.int32)
    pool_sizes = np.ones((n_cases + 1, count + 1), dtype=np.int32)
    pool_sizes[0] = n_unique

    live = np.arange(count if n_unique > 1 else 0)
    live_states = states[live]
    remaining = np.tile(np.arange(n_cases, dtype=np.int32), (live.size, 1))
    base = np.arange(0, live.size * n_cases, n_cases)
    masks = np.zeros((1, n_unique), dtype=by_case.dtype)
    pid = np.zeros(live.size, dtype=np.intp)
    finished = 0
    t = 0
    while live.size:
        left = n_cases - t
        cell = base + randbelow_array(live_states, left)  # flat index into remaining
        flat = remaining.reshape(-1)
        case = flat[cell]
        flat[cell] = remaining[:, left - 1]
        if pid is not None and len(masks) * n_cases <= live.size:
            pair_pid, pair_case, pid = _distinct_pairs(pid, case, n_cases)
            masks, pair_size = _elite_filter(by_case, masks[pair_pid], pair_case)
            size = pair_size[pid]
        else:
            masks, size = _elite_filter(by_case, masks if pid is None else masks[pid], case)
            pid = None
        case_order[t, live] = case
        pool_sizes[t + 1, live] = size
        t += 1

        done = np.flatnonzero(size == 1)  # a finished row's pool stays at one
        if done.size > finished:
            done = done[live[done] != sink]
            trial = live[done]
            if pid is None:
                winner[trial] = (masks[done] == 0).argmax(axis=1)
            else:
                winner[trial] = (masks == 0).argmax(axis=1)[pid[done]]
            states[trial] = live_states[done]
            live[done] = sink
            finished += done.size
            if 2 * finished >= live.size:
                keep = np.flatnonzero(live != sink)
                live, live_states, remaining = live[keep], live_states[keep], remaining[keep]
                if pid is None:
                    masks = masks[keep]
                else:
                    pid = pid[keep]
                base = base[: keep.size]
                finished = 0

    pool_sizes = pool_sizes[: t + 1, :count]
    steps = np.count_nonzero(pool_sizes > 1, axis=0)
    evaluations = pool_sizes.sum(axis=0, dtype=np.int64) - (t + 1 - steps)
    return winner, evaluations, steps, case_order[:t, :count].T, pool_sizes.T


def _distinct_pairs(pid: np.ndarray, case: np.ndarray, n_cases: int):
    """The distinct (pool id, case) pairs of the trials, in key order, and
    each trial's index among them."""
    key = pid * n_cases + case
    seen = np.bincount(key).astype(bool)
    pairs = np.flatnonzero(seen)
    return pairs // n_cases, pairs % n_cases, (np.cumsum(seen) - 1)[key]


def _elite_filter(by_case: np.ndarray, pools: np.ndarray, case: np.ndarray):
    """Filter each pool (a mask row, see ``_select_block``) to its elites on
    its case; returns the filtered pools' masks and sizes."""
    values = by_case[case]
    values |= pools  # a non-member reads all-ones, above every code
    n_unique = by_case.shape[1]
    beaten = (values > values.min(axis=1)[:, None]).view(np.uint8)
    size = np.subtract(n_unique, np.add.reduce(beaten, axis=1, dtype=_count_dtype(n_unique)), dtype=np.int32)
    return np.negative(beaten, dtype=by_case.dtype), size


def _count_dtype(n_unique: int) -> type:
    """The type ``_elite_filter`` counts a pool's beaten rows in. At most
    N - 1 rows are beaten, so uint16 is exact while N <= 65,536; it sums
    1,048 x 400 rows in 78 against int32's 130 us (2 vCPU, numpy 2.4)."""
    return np.uint16 if n_unique <= 1 << 16 else np.int32


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
    return ErrorMatrix(binary, kind=LossKind.DISCRETE)


def mad_thresholds(matrix: ErrorMatrix) -> np.ndarray:
    """Per-case median absolute deviation, the usual static-epsilon threshold."""
    matrix.require_kind(LossKind.REAL, "mad_thresholds")
    med = np.median(matrix.losses, axis=0)
    return np.median(np.abs(matrix.losses - med), axis=0)

