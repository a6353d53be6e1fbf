"""Lexicase parent selection with exact evaluation counting.

Selection operates on a deduplicated profile: cases are drawn uniformly at
random without replacement, the candidate pool is filtered to the per-case
elites (minimum loss within the current pool), and the loop ends when a
single behavior remains. The winner is drawn uniformly from that behavior's
clones, the individuals ``unique_index`` maps to it. One evaluation is counted
per (pool member, drawn case) pair, including the final filter to one.

:func:`run_trials` runs many such selections in lockstep with numpy, each
bit-identical to :func:`lexicase_select` on its own substream; the scalar
function stays the reference it is checked against. ``_lockstep``'s
docstring describes how.

Also houses the static-epsilon binarization variant.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DedupProfile, ErrorMatrix, LossKind, RandomSource, RngStream, randbelow_array
from .core import _narrow_ranks as _narrow_losses  # noqa: F401  (ErrorMatrix.ranks of any array)

__all__ = [
    "SelectionTrace",
    "TrialBlock",
    "lexicase_select",
    "run_trials",
    "static_epsilon_binarize",
    "mad_thresholds",
]

# run_trials steps at most this many working rows, and at most this many row x
# (unique row + case) cells: they bound its working set, 1-8 byte masks and
# filter values per unique row, and 1-2 byte case and pool-size slots per case
# for _RING_BLOCKS blocks of rows. A block of trials is that many rows. CPU time
# per call, best of 10 in each of 3 processes (2 vCPU, shared, numpy 2.4):
# 3,000 trials on perfbench's simulate_converged profile (400 unique rows x 100
# cases) took 20-30 ms at 2^19 cells (1,048 rows), 19-33 at 2^18 (157 steps
# against 105), 24-39 at 2^17 and 23-37 at 2^20; verify's 7 oracle profiles x
# 20,000 trials took 51-53 ms at 2,048 rows, 28-43 at 4,096 and 26-39 at 8,192,
# where the process's peak RSS is 1.3 MB higher than at 4,096. A trial may
# start up to _RING_BLOCKS blocks past the oldest one not yet yielded, so a
# straggler stops admission only once the rows have run the blocks after it;
# each block of ring holds C case and pool-size entries, a winner and an
# 8-byte state per slot. Lockstep steps and median CPU ms (7 runs, 2 vCPU)
# at 1 / 2 / 3 / 4 blocks / the whole run: simulate_converged's
# profile (seed 1), 3,000 trials (3 blocks): 220/148/105/105/105 steps,
# 45/37/31/31/31 ms; 10,000 trials (10 blocks): 719/379/254/221/147 steps,
# 111/85/78/77/71 ms (seed 1001: 120/94/83/78/72 ms); verify's 7 runs of
# 20,000 trials (5 blocks each): 110/91/87/87 steps at 1/2/3/whole, 53/49/47/48
# ms. The gain is not confined to runs of 3 blocks or fewer; past 3 blocks,
# each block adds its memory for a smaller saving.
_BLOCK_TRIALS = 4096
_BLOCK_CELLS = 1 << 19
_RING_BLOCKS = 3
# Once every trial has started, at most this many working rows finish in
# scalar steps (see _lockstep). A lockstep step costs about 40 us of numpy
# calls however few rows it holds; a scalar step of one row, 5-10 us. Median
# runner time in-process, against the runner without the scalar finish and
# the leaner lockstep step, at 0 (no scalar finish) / 4 / 8 / 16 / 32 rows
# (2 vCPU, shared, numpy 2.4): simulate_converged's profile, 3,000 trials,
# seed 1, 60 runs: 0.97/0.93/0.92/0.92/0.98; seed 1001, 40 runs:
# 0.98/0.99/0.96/0.99/1.02; 10,000 trials, seed 1, 20 runs:
# 0.96/0.94/0.95/0.98/1.00; verify --level fast, 20 runs: 0.97/0.97/0.95/0.94/0.96.
_TAIL_ROWS = 8


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


class TrialBlock:
    """Outcomes of consecutive trials of one run, one column per trial.

    Holds the winners and a copy of the trials' case and pool-size slots,
    step-major (see ``_lockstep``): column b's first ``steps[b]`` entries
    are trial b's case order and pool sizes after each case, 0 past them.
    ``traces`` builds each trial's ``SelectionTrace`` from these slots.
    """

    def __init__(self, winner_unique, winner_original, cases, sizes, n_unique):
        self.winner_unique, self.winner_original = winner_unique, winner_original
        self._cases, self._sizes, self._n_unique = cases, sizes, n_unique

    @cached_property
    def steps(self) -> np.ndarray:
        return np.count_nonzero(self._sizes, axis=0)  # sizes are 0 past a trace

    @cached_property
    def evaluations(self) -> np.ndarray:
        # M is X_0 plus every later size but the final 1.
        return self._sizes.sum(axis=0, dtype=np.int64) + (self._n_unique - 1)

    def pool_size_sums(self) -> np.ndarray:
        """Column sums of the trials' pool-size trajectories padded with 1 to
        all C + 1 steps: N per trial, then each step's sizes or 1."""
        sums = np.maximum(self._sizes, 1).sum(axis=1, dtype=np.int64)
        return np.concatenate(([self._n_unique * self._sizes.shape[1]], sums))

    def traces(self) -> list[SelectionTrace]:
        width = int(self.steps.max())
        cases, sizes = self._cases[:width].T.tolist(), self._sizes[:width].T.tolist()
        return [
            SelectionTrace(
                winner_unique_index=int(self.winner_unique[b]),
                winner_original_index=int(self.winner_original[b]),
                case_order=tuple(cases[b][:s]),
                pool_sizes=(self._n_unique, *sizes[b][:s]),
                evaluations=int(self.evaluations[b]),
            )
            for b, s in enumerate(self.steps.tolist())
        ]


def run_trials(profile: DedupProfile, trials: int, rng: RngStream) -> Iterator[TrialBlock]:
    """Run ``trials`` selections, trial i on ``rng.substream(i)``, in blocks.

    Trial i is bit for bit ``lexicase_select(profile, rng.substream(i))``:
    the trials draw their cases in lockstep, from vectorised copies of their
    own splitmix64 streams, so neither the number of working rows nor the
    step at which a trial starts changes a result. Blocks hold consecutive
    trials and are yielded in order, each once all its trials have finished.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    profile.unique.require_kind(LossKind.DISCRETE, "lexicase_select")
    by_case = np.ascontiguousarray(profile.unique.ranks.T)
    members = np.argsort(profile.unique_index, kind="stable")
    sizes = np.bincount(profile.unique_index)
    starts = np.cumsum(sizes) - sizes
    rows = max(1, min(_BLOCK_TRIALS, _BLOCK_CELLS // (profile.n_unique + profile.n_cases)))

    def blocks() -> Iterator[TrialBlock]:
        for winner, states, cases, slot_sizes in _lockstep(by_case, trials, rows, rng):
            # Clone tie breaks draw last, as in lexicase_select.
            size = sizes[winner]
            winner_original = members[starts[winner]]
            tied = np.flatnonzero(size > 1)
            pick = randbelow_array(states[tied], size[tied])
            winner_original[tied] = members[starts[winner[tied]] + pick]
            yield TrialBlock(winner, winner_original, cases, slot_sizes, profile.n_unique)

    return blocks()


def _lockstep(by_case: np.ndarray, trials: int, rows: int, rng: RngStream):
    """Filter the pools of trials 0..trials-1 down to their winners in
    lockstep over at most ``rows`` working rows. Yields each block of
    ``rows`` consecutive trials once all have finished: their winning unique
    rows, stream states after the last case draw, and copies of their case
    and pool-size slots, step-major (row j is step j), which ``TrialBlock``
    builds its traces from.

    ``by_case`` is the unique loss matrix transposed (C x N) as rank codes
    (``ErrorMatrix.ranks``). Trial i owns slot i mod ``window``: column
    i mod ``window`` of ``remaining`` and ``sizes``, C entries each. A
    working row holds one running trial: its slot, stream state, undrawn
    case count ``left``, pool, and ``top``, the flat index of the slot's
    last undrawn case, ``(left - 1) * window + slot``, lowered by
    ``window`` each step. A draw swaps the drawn case with that one, as
    lexicase_select swap-removes it, so the slot's end holds the case
    order backwards, and ``sizes`` the pool size after each step at the
    same places (0 elsewhere). ``sizes`` has the type the filters return
    sizes in, so no step converts them.
    When a trial's pool reaches one row, its working row takes the next
    trial at once, with its own stream state, the full pool and every case
    undrawn; so while trials remain no row is idle, and a run waits for one
    straggler, not one per block.

    A trial starts only once its slot is free: less than ``window`` =
    ``_RING_BLOCKS`` x ``rows`` trials past the start of the oldest block
    not yet yielded. So the outputs held, C one- or two-byte case and
    pool-size entries per slot, stay a fixed multiple of the block size.
    Every slot is set once at the start: every case undrawn, and the start
    states of trials 0..window-1. A yielded block's slots are then reset
    and seeded for the trials ``window`` later; a block never wraps, as
    ``window`` is a multiple of ``rows`` or holds every trial.
    While the oldest block waits for a straggler, rows that no trial may
    take leave the working arrays, and rejoin once it is yielded.

    ``pool`` holds each row's pool id (see ``_Pools``) while rows share
    pools, until a step would filter more new moves than a quarter of the
    working rows, about the cost of filtering every row, or could add more
    pools than rows; from then on it holds each row's own mask row. In both
    forms zeros are the full pool, so rows join and leave alike.

    Once every trial has started and at most ``_TAIL_ROWS`` rows remain,
    each runs to its end alone, in ``lexicase_select``'s own steps: a
    ``core.RandomSource`` started at the row's stream state draws each
    case, so the rejection rule is the reference's; the case is
    swap-removed at ``top``, the filtered pool's size written there, and
    the winner and final state stored, as in lockstep. Its draws, slots
    and outputs are those the lockstep would make, so no trace changes;
    only the fixed cost of a lockstep step, whatever its rows, is saved on
    the stragglers. Both paths count finished trials and yield blocks in
    one loop.
    """
    n_cases, n_unique = by_case.shape
    if n_unique == 1:  # every pool starts at one row: no trial draws a case
        for start in range(0, trials, rows):
            count = min(trials, start + rows) - start
            slots = np.zeros((0, count), dtype=np.uint8)
            yield np.zeros(count, dtype=np.intp), rng.substream_states(start, start + count), slots, slots
        return
    window = min(trials, _RING_BLOCKS * rows)
    # Entry k of slot i is column i of row k: a block's slots are a column range.
    cases = np.arange(n_cases, dtype=np.min_scalar_type(n_cases - 1))[:, None]
    remaining = np.repeat(cases, window, axis=1)
    sizes = np.zeros((n_cases, window), dtype=np.min_scalar_type(n_unique))
    winners = np.zeros(window, dtype=np.min_scalar_type(n_unique - 1))
    ring_states = rng.substream_states(0, window)  # start states, then final ones
    finished = np.zeros(_RING_BLOCKS, dtype=np.intp)  # per block of slots
    flat_remaining, flat_sizes = remaining.reshape(-1), sizes.reshape(-1)
    slot = top = pool = np.zeros(0, dtype=np.intp)
    left = states = np.zeros(0, dtype=np.uint64)
    pools = _Pools(by_case)
    start = admitted = 0  # first trial of the oldest block not yet yielded, and not started
    free = slot  # working rows whose trial has finished
    while True:
        count = min(free.size + rows - slot.size, min(trials, start + window) - admitted)
        if count:
            new = np.arange(admitted, admitted + count) % window
            taken = free[:count]
            slot, states = _refill(slot, taken, new), _refill(states, taken, ring_states[new])
            left = _refill(left, taken, np.full(count, n_cases, dtype=np.uint64))
            top = _refill(top, taken, new + (n_cases - 1) * window)
            pool = _refill(pool, taken, np.zeros((count, *pool.shape[1:]), pool.dtype))
            admitted += count
        if free.size > count:  # no trial may take these rows yet
            keep = np.ones(slot.size, dtype=bool)
            keep[free[count:]] = False
            slot, states, left, top, pool = slot[keep], states[keep], left[keep], top[keep], pool[keep]
        if not slot.size:
            return

        if admitted == trials and slot.size <= _TAIL_ROWS:
            masks = pools.masks[pool] if pool.ndim == 1 else pool
            for row, (s, state, n, t) in enumerate(zip(slot.tolist(), states.tolist(), left.tolist(), top.tolist())):
                src, members = RandomSource(state), np.flatnonzero(masks[row] == 0)
                while len(members) > 1:  # lexicase_select's steps, on the slot
                    cell = src.randbelow(n) * window + s
                    case = flat_remaining[cell]
                    flat_remaining[cell] = flat_remaining[t]
                    flat_remaining[t] = case
                    values = by_case[case, members]
                    members = members[values == values.min()]
                    flat_sizes[t] = len(members)
                    n, t = n - 1, t - window
                winners[s], ring_states[s] = members[0], src._state
            free, done = np.arange(slot.size), slot
        else:
            cell = randbelow_array(states, left)
            cell *= window
            cell += slot
            case = flat_remaining[cell]
            flat_remaining[cell] = flat_remaining[top]
            flat_remaining[top] = case
            moved = pools.move(pool, case, min(slot.size // 4, rows - len(pools.masks))) if pool.ndim == 1 else None
            if moved is None:
                pool, size = _elite_filter(by_case, pools.masks[pool] if pool.ndim == 1 else pool, case)
            else:
                pool, size = moved, pools.sizes[moved]
            flat_sizes[top] = size
            left -= 1
            top -= window

            free = np.flatnonzero(size == 1)
            if not free.size:
                continue
            done = slot[free]
            winners[done] = pools.winners[pool[free]] if pool.ndim == 1 else (pool[free] == 0).argmax(axis=1)
            ring_states[done] = states[free]
        finished += np.bincount(done // rows, minlength=_RING_BLOCKS)
        while start < trials and finished[start // rows % _RING_BLOCKS] == min(rows, trials - start):
            finished[start // rows % _RING_BLOCKS] = 0
            ring = slice(start % window, start % window + min(rows, trials - start))
            yield winners[ring].astype(np.intp), ring_states[ring].copy(), remaining[::-1, ring].copy(), sizes[::-1, ring].copy()
            remaining[:, ring] = cases  # the slots pass to the trials a window later
            sizes[:, ring] = 0
            later = rng.substream_states(start + window, min(trials, start + window + rows))
            ring_states[ring][: len(later)] = later
            start += rows


def _refill(column: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``column`` with ``values`` written to ``rows`` and the rest appended."""
    column[rows] = values[: len(rows)]
    return np.concatenate((column, values[len(rows) :])) if len(values) > len(rows) else column


class _Pools:
    """The distinct pools that trials reach while they share pool ids, and
    the moves between them: ``moves[p * C + c]`` is the id of pool p
    filtered on case c, or -1 until a trial makes that move. A pool's id is
    its row in ``masks`` and ``sizes`` (as ``_elite_filter`` returns them)
    and ``winners`` (its first member, the winner once the pool is one row);
    equal pools share one id, found by their packed mask bits, and id 0 is
    the full pool."""

    def __init__(self, by_case: np.ndarray):
        self.by_case = by_case
        self.n_cases, n_unique = by_case.shape
        self.masks = np.zeros((1, n_unique), dtype=by_case.dtype)
        self.sizes = np.array([n_unique], dtype=np.min_scalar_type(n_unique))
        self.winners = np.zeros(1, dtype=np.intp)
        self.moves = np.full(self.n_cases, -1, dtype=np.intp)
        self.ids = {np.packbits(self.masks[0] != 0).tobytes(): 0}

    def move(self, pid: np.ndarray, case: np.ndarray, most: int):
        """Each trial's pool id after filtering its pool on its case, or None
        if more than ``most`` of these moves are new. Each new move runs one
        elite filter; each new pool is added."""
        key = pid * self.n_cases + case
        pid = self.moves[key]
        unseen = np.flatnonzero(pid < 0)
        if not unseen.size:
            return pid
        seen = np.zeros(len(self.moves), dtype=bool)
        seen[key[unseen]] = True
        new = np.flatnonzero(seen)  # np.unique would import numpy.ma, 0.5 MB
        if new.size > most:
            return None
        masks, sizes = _elite_filter(self.by_case, self.masks[new // self.n_cases], new % self.n_cases)
        fresh = []  # rows of ``masks`` that are new pools, in id order
        for row, bits in enumerate(np.packbits(masks != 0, axis=1)):
            self.moves[new[row]] = self.ids.setdefault(bits.tobytes(), len(self.ids))
            if len(self.ids) > len(self.masks) + len(fresh):
                fresh.append(row)
        if fresh:
            self.masks = np.concatenate((self.masks, masks[fresh]))
            self.sizes = np.concatenate((self.sizes, sizes[fresh]))
            self.winners = np.concatenate((self.winners, (masks[fresh] == 0).argmax(axis=1)))
            self.moves = np.concatenate((self.moves, np.full(len(fresh) * self.n_cases, -1, dtype=np.intp)))
        return self.moves[key]


def _elite_filter(by_case: np.ndarray, pools: np.ndarray, case: np.ndarray):
    """Filter each pool (a mask row, see ``_lockstep``) to its elites on its
    case; returns the filtered pools' masks and sizes, in the narrowest type
    that holds N, that of the runner's size slots."""
    values = by_case[case]
    values |= pools  # a non-member reads all-ones, above every code
    n_unique = by_case.shape[1]
    beaten = (values > values.min(axis=1)[:, None]).view(np.uint8)
    beaten_rows = np.add.reduce(beaten, axis=1, dtype=_count_dtype(n_unique))
    size = np.subtract(n_unique, beaten_rows, dtype=np.min_scalar_type(n_unique), casting="unsafe")
    return np.negative(beaten, dtype=by_case.dtype), size


def _count_dtype(n_unique: int) -> type:
    """The type ``_elite_filter`` counts a pool's beaten rows in. At most
    N - 1 rows are beaten, so uint16 is exact while N <= 65,536; it sums
    1,048 x 400 rows in 78 against int32's 130 us (2 vCPU, numpy 2.4)."""
    return np.uint16 if n_unique <= 1 << 16 else np.int32


def static_epsilon_binarize(matrix: ErrorMatrix) -> ErrorMatrix:
    """Binarize real losses by the static-epsilon rule.

    Output entry is 0 when the loss is within case c's median absolute
    deviation (:func:`mad_thresholds`) of the population-wide minimum on
    case c, else 1; the result is DISCRETE and ready for deduplication and
    selection.
    """
    matrix.require_kind(LossKind.REAL, "static_epsilon_binarize")
    binary = np.where(matrix.losses <= matrix.losses.min(axis=0) + mad_thresholds(matrix), 0.0, 1.0)
    return ErrorMatrix(binary, kind=LossKind.DISCRETE)


def mad_thresholds(matrix: ErrorMatrix) -> np.ndarray:
    """Per-case median absolute deviation, the usual static-epsilon threshold."""
    matrix.require_kind(LossKind.REAL, "mad_thresholds")
    med = np.median(matrix.losses, axis=0)
    return np.median(np.abs(matrix.losses - med), axis=0)

