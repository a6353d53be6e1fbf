import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexibound import engine
from lexibound.core import KindMismatchError, LossKind, RngStream, deduplicate
from lexibound.engine import (
    lexicase_select,
    mad_thresholds,
    run_trials,
    static_epsilon_binarize,
)
from lexibound.popgen import gen_adversarial_single_case

from conftest import dmatrix, profile, random_rows, rmatrix


class TestLexicaseSelect:
    def test_singleton_pool(self):
        prof = profile([[5, 5, 5]])
        trace = lexicase_select(prof, RngStream(0))
        assert trace.evaluations == 0
        assert trace.case_order == ()
        assert trace.pool_sizes == (1,)
        assert trace.winner_unique_index == 0

    def test_dominated_row_always_wins(self, dominated_profile):
        for seed in range(200):
            trace = lexicase_select(dominated_profile, RngStream(seed))
            assert trace.winner_unique_index == 2

    def test_rejects_real_kind(self):
        from lexibound.core import identity_profile

        prof = identity_profile(rmatrix([[0.5], [1.5]]))
        with pytest.raises(KindMismatchError):
            lexicase_select(prof, RngStream(0))

    def test_adversarial_expected_evaluations(self):
        # pool stays at n until case 0 is drawn at position p, so M = n * p;
        # enumerating p gives E[M] = n (c+1)/2 = 12 for n=4, c=5
        n, c = 4, 5
        exact = sum(n * p for p in range(1, c + 1)) / c
        assert exact == 12.0
        prof = deduplicate(gen_adversarial_single_case(n, c))
        total = 0
        trials = 20_000
        rng = RngStream(77)
        for i in range(trials):
            total += lexicase_select(prof, rng.substream(i)).evaluations
        mean = total / trials
        assert abs(mean - exact) < 0.25  # > 3 SE margin for this scale

    def test_evaluations_match_pool_sizes(self):
        prof = profile(random_rows(3, 8, 5, 3))
        for seed in range(50):
            trace = lexicase_select(prof, RngStream(seed))
            assert trace.evaluations == sum(trace.pool_sizes[:-1])
            assert trace.pool_sizes[-1] == 1

    def test_replay_consistency(self):
        prof = profile(random_rows(11, 9, 6, 2))
        rows = prof.unique.losses.tolist()
        for seed in range(120):
            trace = lexicase_select(prof, RngStream(seed))
            pool = list(range(prof.n_unique))
            sizes = [len(pool)]
            for case in trace.case_order:
                best = min(rows[i][case] for i in pool)
                assert rows[trace.winner_unique_index][case] == best
                pool = [i for i in pool if rows[i][case] == best]
                sizes.append(len(pool))
            assert tuple(sizes) == trace.pool_sizes
            assert pool == [trace.winner_unique_index]

    def test_case_order_is_prefix_of_permutation(self):
        prof = profile(random_rows(5, 7, 6, 2))
        trace = lexicase_select(prof, RngStream(1))
        assert len(set(trace.case_order)) == len(trace.case_order)
        assert len(trace.case_order) <= prof.n_cases

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4),
            min_size=1,
            max_size=10,
        ),
    )
    def test_worst_case_evaluation_bound(self, seed, rows):
        prof = deduplicate(dmatrix(rows))
        trace = lexicase_select(prof, RngStream(seed))
        assert trace.evaluations <= prof.n_unique * prof.n_cases
        sizes = trace.pool_sizes
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_winner_original_within_clone_group(self):
        prof = deduplicate(dmatrix([[0, 0], [0, 0], [0, 0], [1, 1]]))
        seen = set()
        for seed in range(300):
            trace = lexicase_select(prof, RngStream(seed))
            assert trace.winner_unique_index == 0
            seen.add(trace.winner_original_index)
        assert seen == {0, 1, 2}


def runner_traces(prof, trials, rng, block_trials=None):
    """Every trial of run_trials as a SelectionTrace, with the block size set
    for the call."""
    saved = engine._BLOCK_TRIALS
    if block_trials is not None:
        engine._BLOCK_TRIALS = block_trials
    try:
        blocks = list(run_trials(prof, trials, rng))
    finally:
        engine._BLOCK_TRIALS = saved
    assert sum(len(b.steps) for b in blocks) == trials
    return [trace for block in blocks for trace in block.traces()]


def scalar_traces(prof, trials, rng):
    return [lexicase_select(prof, rng.substream(i)) for i in range(trials)]


@contextlib.contextmanager
def counted_filters():
    """Count the runner's steps by kind: ``shared`` steps move pool ids,
    filtering only the (pool, case) moves no trial made before (``filters``
    counts those filters and all others); ``per_trial`` steps filter every
    trial's pool. ``capped`` counts switches to per-trial filtering made
    because the pool table could not grow, fewer new moves being allowed
    than a quarter of the trials; ``pools`` is the largest pool table."""
    counts = {"filters": 0, "shared": 0, "per_trial": 0, "capped": 0, "pools": 0}
    elite_filter, move = engine._elite_filter, engine._Pools.move
    moving = []

    def counted_filter(*args):
        counts["filters"] += 1
        counts["per_trial"] += not moving
        return elite_filter(*args)

    def counted_move(pools, pid, case, most):
        moving.append(True)
        try:
            moved = move(pools, pid, case, most)
        finally:
            moving.pop()
        counts["shared"] += moved is not None
        counts["capped"] += moved is None and most < len(pid) // 4
        counts["pools"] = max(counts["pools"], len(pools.masks))
        return moved

    engine._elite_filter, engine._Pools.move = counted_filter, counted_move
    try:
        yield counts
    finally:
        engine._elite_filter, engine._Pools.move = elite_filter, move


@st.composite
def few_row_profiles(draw):
    """Profiles of 1-6 unique rows over 1-6 cases, so that a block of
    hundreds of trials holds few distinct pools."""
    n_cases = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 3), min_size=n_cases, max_size=n_cases)
    return profile(draw(st.lists(row, min_size=1, max_size=6)))


@st.composite
def profiles_with_clones(draw):
    """Discrete profiles whose rows repeat, over narrow or wide loss ranges."""
    n_cases = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([1, 3, 200, 70_000, 2**40]))
    # losses next to the limits of the integer types the runner narrows to
    edges = st.sampled_from([-129, -128, 0, 125, 126, 127, 32766, 32767, 2**31 - 2, 2**53])
    cell = st.integers(-bound, bound) | edges
    row = st.lists(cell, min_size=n_cases, max_size=n_cases)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    copies = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    order = draw(st.permutations(range(sum(copies))))
    expanded = [r for r, k in zip(rows, copies) for _ in range(k)]
    return deduplicate(dmatrix([expanded[i] for i in order]))


def fast_and_slow_profile():
    """17 individuals, 12 unique rows over 12 cases. Case 0 and specialist
    cases 1-6 each leave one row; cases 7-10 leave a pair that most cases
    split; case 11 leaves four rows that cases 1 and 2 thin out and only
    case 0 brings down to one."""
    rows = [[i, 2 + (i == 3), 2 + (i == 2)] + [2] * 4 + [1] * 4 + [0] for i in range(4)]
    rows += [[0 if case == j else 3 for case in range(12)] for j in range(1, 7)]
    rows += [[v] * 7 + [0] * 4 + [v] for v in (1, 2)]
    copies = [3, 1, 2, 1, 1, 2, 1, 1, 1, 1, 2, 1]
    expanded = [row for row, k in zip(rows, copies) for _ in range(k)]
    order = np.random.default_rng(5).permutation(len(expanded))
    return profile([expanded[i] for i in order])


MANY_POOLS_ROWS = [
    [0, 13, 11, 2, 0], [10, 10, 11, 0, 3], [10, 10, 11, 3, 2], [10, 11, 10, 0, 1], [10, 11, 10, 0, 3],
    [10, 11, 11, 2, 3], [10, 11, 11, 3, 1], [10, 12, 10, 3, 0], [10, 13, 10, 0, 1], [10, 13, 13, 0, 2],
    [11, 10, 10, 0, 1], [11, 10, 12, 3, 0], [11, 10, 13, 1, 2], [11, 10, 13, 3, 2], [11, 11, 12, 1, 3],
    [11, 11, 12, 2, 1], [12, 0, 13, 3, 3], [12, 10, 10, 2, 1], [12, 10, 13, 0, 1], [12, 10, 13, 2, 2],
    [12, 10, 13, 3, 0], [12, 12, 0, 0, 2], [12, 12, 12, 1, 0], [12, 13, 10, 2, 0], [12, 13, 12, 3, 0],
    [13, 11, 10, 2, 2],
]


class TestRunTrials:
    @settings(max_examples=150, deadline=None)
    @given(
        prof=profiles_with_clones(),
        trials=st.integers(1, 40),
        block_trials=st.integers(1, 7),
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**64 - 1),
    )
    def test_matches_lexicase_select_per_trial(self, prof, trials, block_trials, seed, stream):
        rng = RngStream(seed, stream)
        expected = scalar_traces(prof, trials, rng)
        assert runner_traces(prof, trials, rng, block_trials) == expected
        # unique rows always separate, so every selection ends at one behavior
        assert all(trace.pool_sizes[-1] == 1 for trace in expected)

    @settings(max_examples=25, deadline=None)
    @given(
        prof=few_row_profiles(),
        trials=st.integers(200, 3000),
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**64 - 1),
    )
    def test_shared_filters_match_lexicase_select(self, prof, trials, seed, stream):
        rng = RngStream(seed, stream)
        with counted_filters() as counts:
            traces = runner_traces(prof, trials, rng)
        assert traces == scalar_traces(prof, trials, rng)
        if prof.n_unique > 1:
            # one pool times at most 6 cases: step 0 always filters per pair
            assert counts["shared"] >= 1

    def test_block_switches_from_shared_to_per_trial_filters(self):
        # 40 rows over 8 cases: step 0 moves one pool on at most 8 cases; the
        # next step makes more new moves than a quarter of the 200 rows
        prof = profile(random_rows(21, 40, 8, 8))
        assert prof.n_unique == 40
        with counted_filters() as counts:
            traces = runner_traces(prof, 200, RngStream(5))
        assert traces == scalar_traces(prof, 200, RngStream(5))
        assert counts["shared"] >= 1 and counts["per_trial"] >= 1

    def test_equal_pools_share_one_id(self):
        # 12 unique rows: every trial of 2,000 moves among the few pools they
        # reach, so rows keep sharing pool ids past step 6, and each move is
        # filtered once in the run, not once per step
        prof = fast_and_slow_profile()
        with counted_filters() as counts:
            traces = runner_traces(prof, 2000, RngStream(3), block_trials=500)
        assert traces == scalar_traces(prof, 2000, RngStream(3))
        assert counts["shared"] > 6 and counts["per_trial"] == 0
        assert counts["filters"] < counts["shared"]

    def test_switches_when_the_pool_table_is_full(self):
        # 26 unique rows over 5 cases, cases 0-2 won by one row each: most
        # trials end within two steps, so each step makes few new moves, but
        # together the trials reach 23 distinct pools, more than the 20 rows
        prof = profile(MANY_POOLS_ROWS)
        with counted_filters() as counts:
            traces = runner_traces(prof, 1200, RngStream(1098), block_trials=20)
        assert traces == scalar_traces(prof, 1200, RngStream(1098))
        assert counts["capped"] == 1 and counts["per_trial"] >= 1
        assert counts["shared"] > 1 and counts["pools"] <= 20

    def test_single_unique_row(self):
        prof = profile([[3, 1], [3, 1], [3, 1]])
        traces = runner_traces(prof, 25, RngStream(4), block_trials=4)
        assert traces == scalar_traces(prof, 25, RngStream(4))
        assert {t.winner_original_index for t in traces} == {0, 1, 2}
        assert all(t.pool_sizes == (1,) and t.evaluations == 0 for t in traces)

    def test_single_unique_row_blocks_have_empty_traces(self):
        prof = profile([[5, 5, 5]] * 3)
        (block,) = run_trials(prof, 7, RngStream(4))
        traces = block.traces()
        assert [(t.case_order, t.pool_sizes) for t in traces] == [((), (1,))] * 7
        assert block.steps.tolist() == block.evaluations.tolist() == [0] * 7
        assert block.pool_size_sums().tolist() == [7]
        assert traces == scalar_traces(prof, 7, RngStream(4))

    @pytest.mark.parametrize("block_trials", [7, 64, 4096])
    def test_pool_size_sums_read_from_the_slots(self, block_trials):
        prof = fast_and_slow_profile()
        saved, engine._BLOCK_TRIALS = engine._BLOCK_TRIALS, block_trials
        try:
            blocks = list(run_trials(prof, 300, RngStream(9)))
        finally:
            engine._BLOCK_TRIALS = saved
        for block in blocks:
            # the traces' pool sizes summed per step, each padded with 1 to all C + 1 steps
            padded = [t.pool_sizes + (1,) * (prof.n_cases + 1 - len(t.pool_sizes)) for t in block.traces()]
            assert block.pool_size_sums().tolist() == [sum(step) for step in zip(*padded)]

    def test_single_case(self):
        prof = profile([[2], [0], [1], [0]])
        traces = runner_traces(prof, 30, RngStream(8), block_trials=7)
        assert traces == scalar_traces(prof, 30, RngStream(8))

    def test_losses_at_the_narrow_type_limit(self):
        # after case 0 drops row 2, case 1 ties rows 0 and 1 at 127, the
        # int8 maximum; row 2 must stay out of the pool
        prof = profile([[0, 127, 5], [0, 127, 6], [1, 0, 0]])
        traces = runner_traces(prof, 60, RngStream(2))
        assert traces == scalar_traces(prof, 60, RngStream(2))

    @pytest.mark.parametrize("trials", [1, 2, 63, 64, 65, 130])
    def test_trial_counts_around_the_block_size(self, trials):
        prof = profile(random_rows(11, 9, 5, 3))
        expected = scalar_traces(prof, trials, RngStream(6, 2))
        assert runner_traces(prof, trials, RngStream(6, 2), block_trials=64) == expected

    def test_block_size_never_changes_results(self):
        prof = profile(random_rows(12, 12, 6, 2))
        baseline = runner_traces(prof, 300, RngStream(1))
        for block_trials in (1, 17, 299, 300, 301):
            assert runner_traces(prof, 300, RngStream(1), block_trials=block_trials) == baseline

    @pytest.mark.parametrize("block_trials", [10, 500])
    def test_trials_of_one_block_finish_far_apart(self, block_trials):
        # Most trials finish at step 1 or 2 and a few run to step 8 or later,
        # so working rows take new trials at almost every step; with 10 rows,
        # the oldest block's straggler keeps trials of the fourth block from
        # starting, and the rows it frees rejoin once that block is yielded.
        # Rows join and leave per-trial masks with 10 rows, shared ids with 500.
        prof = fast_and_slow_profile()
        rng = RngStream(3)
        trials = 4 * block_trials
        expected = scalar_traces(prof, trials, rng)
        with counted_filters() as counts:
            assert runner_traces(prof, trials, rng, block_trials) == expected
        if block_trials == 10:
            assert counts["shared"] == 0 and counts["per_trial"] > 0
        else:
            assert counts["per_trial"] == 0 and counts["shared"] > 0
        steps = [len(trace.case_order) for trace in expected]
        assert min(steps) == 1 and 2 * (steps.count(1) + steps.count(2)) > trials and max(steps) >= 8
        # each trial's state after its case draws, which the clone tie-break reads
        by_case = engine._narrow_losses(prof.unique.losses.T)
        blocks = list(engine._lockstep(by_case, trials, block_trials, rng))
        assert [len(block[1]) for block in blocks] == [block_trials] * 4
        states = np.concatenate([block[1] for block in blocks])
        for i, (state, trace) in enumerate(zip(states.tolist(), expected)):
            src = rng.substream(i).source()
            for step in range(len(trace.case_order)):
                src.randbelow(prof.n_cases - step)
            assert state == src._state

    def test_pools_that_beat_more_than_255_rows(self):
        # 400 unique rows over 30 binary cases, each row elite on a case with
        # probability 0.1: a first filter beats about 360 rows, more than a
        # uint8 count holds
        losses = (np.random.default_rng(7).random((400, 30)) >= 0.1).astype(np.float64)
        prof = deduplicate(dmatrix(losses))
        assert prof.n_unique >= 300
        expected = scalar_traces(prof, 80, RngStream(13))
        assert runner_traces(prof, 80, RngStream(13)) == expected
        assert min(trace.pool_sizes[1] for trace in expected) < prof.n_unique - 255

    @pytest.mark.parametrize("n_unique, dtype", [(65_536, np.uint16), (65_537, np.int32)])
    def test_beaten_counts_at_the_uint16_limit(self, n_unique, dtype):
        # at most N - 1 rows are beaten: 65,535 fit a uint16, 65,536 do not
        assert engine._count_dtype(n_unique) is dtype
        by_case = np.ones((1, n_unique), dtype=np.uint8)
        by_case[0, 0] = 0
        _, size = engine._elite_filter(by_case, np.zeros((1, n_unique), dtype=np.uint8), np.array([0]))
        assert size.tolist() == [1]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_trials(profile([[0, 1]]), 0, RngStream(0))
        from lexibound.core import identity_profile

        with pytest.raises(KindMismatchError):
            run_trials(identity_profile(rmatrix([[0.5], [1.5]])), 1, RngStream(0))


def levels_profile(n_levels, n_rows, n_cases, seed):
    """A profile with exactly ``n_levels`` distinct losses. The first rows
    hold the levels between 0 and the top loss, each once; the other cells
    are 0 or the top loss at random, so that small pools often tie at the
    top on the drawn case while rows outside them read lower."""
    losses = np.random.default_rng(seed).choice(np.array([0, n_levels - 1]), size=(n_rows, n_cases))
    losses.flat[: n_levels - 2] = np.arange(1, n_levels - 1)
    prof = deduplicate(dmatrix(losses))
    assert len(np.unique(prof.unique.losses)) == n_levels
    return prof


class TestRankCodes:
    """run_trials filters pools on the rank codes of ``_narrow_losses``."""

    def test_codes_keep_order_and_equality(self):
        top = 2.0**53 - 1
        losses = np.array([[-top, -3.0, -0.0, 0.0, 2.0], [5.0, top, -3.0, 7.0, -1.0], [0.0, -1.0, top, -top, 2.0]])
        codes = engine._narrow_losses(losses)
        assert codes.shape == losses.shape and codes.dtype == np.uint8
        assert codes.max() == len(np.unique(losses)) - 1 < np.iinfo(codes.dtype).max
        a, r = losses.ravel(), codes.ravel().astype(np.int64)
        assert ((a[:, None] < a[None, :]) == (r[:, None] < r[None, :])).all()
        assert ((a[:, None] == a[None, :]) == (r[:, None] == r[None, :])).all()
        # run_trials passes the transposed (cases x rows) view
        assert (engine._narrow_losses(losses.T) == codes.T).all()

    @pytest.mark.parametrize(
        "n_levels, dtype, shape, trials",
        [
            (254, np.uint8, (40, 24), 200),
            (255, np.uint8, (40, 24), 200),
            (256, np.uint16, (40, 24), 200),
            (65534, np.uint16, (256, 512), 20),
            (65535, np.uint16, (256, 512), 20),
            (65536, np.uint32, (256, 512), 20),
        ],
    )
    def test_traces_where_the_code_type_widens(self, n_levels, dtype, shape, trials):
        prof = levels_profile(n_levels, *shape, seed=n_levels)
        assert engine._narrow_losses(prof.unique.losses).dtype == dtype
        assert runner_traces(prof, trials, RngStream(n_levels)) == scalar_traces(prof, trials, RngStream(n_levels))


class TestBinarize:
    def test_definition_example(self):
        m = rmatrix([[1.0], [1.05], [2.0]])  # median 1.05, MAD 0.05
        out = static_epsilon_binarize(m)
        assert out.losses.tolist() == [[0], [0], [1]]
        assert out.kind is LossKind.DISCRETE

    def test_zero_thresholds_mark_minimizers(self):
        m = rmatrix([[1.0, 4.0], [2.0, 4.0], [1.0, 5.0]])
        assert mad_thresholds(m).tolist() == [0.0, 0.0]
        out = static_epsilon_binarize(m)
        indicator = (m.losses != m.losses.min(axis=0)).astype(float)
        assert np.array_equal(out.losses, indicator)

    def test_random_matrix_against_column_scan(self):
        src = RngStream(31).source()
        values = [[src.random() * 10 for _ in range(4)] for _ in range(5)]
        out = static_epsilon_binarize(rmatrix(values))
        near = 0
        for c in range(4):
            column = [row[c] for row in values]
            median = sorted(column)[2]  # 5 rows: the middle one, exactly
            mad = sorted(abs(v - median) for v in column)[2]
            for i in range(5):
                expected = 0.0 if values[i][c] <= min(column) + mad else 1.0
                assert out.losses[i, c] == expected
                near += expected == 0.0 and values[i][c] != min(column)
        assert near  # the MAD admits some non-minimizer

    def test_rejects_discrete_input(self):
        with pytest.raises(KindMismatchError):
            static_epsilon_binarize(dmatrix([[0, 1]]))

    def test_binarized_selection_equals_indicator_selection(self):
        src = RngStream(44).source()
        values = [[float(src.randbelow(4)) for _ in range(5)] for _ in range(6)]
        m = rmatrix(values)
        binarized = static_epsilon_binarize(m)
        losses = np.array(values)
        indicator = dmatrix((losses > losses.min(axis=0) + mad_thresholds(m)).astype(float))
        assert binarized == indicator  # identical matrices, so identical selection
        a = lexicase_select(deduplicate(binarized), RngStream(2))
        b = lexicase_select(deduplicate(indicator), RngStream(2))
        assert a == b


class TestMadThresholds:
    def test_constant_column(self):
        assert mad_thresholds(rmatrix([[3.0], [3.0], [3.0]])).tolist() == [0.0]

    def test_hand_computed(self):
        # column (1..5): median 3, |deviations| (2,1,0,1,2), MAD 1
        m = rmatrix([[1.0], [2.0], [3.0], [4.0], [5.0]])
        assert mad_thresholds(m).tolist() == [1.0]

    def test_outlier_column(self):
        m = rmatrix([[0.0], [0.0], [0.0], [10.0]])
        assert mad_thresholds(m).tolist() == [0.0]

    def test_sort_based_oracle(self):
        def mad(col):
            ordered = sorted(col)
            n = len(ordered)
            med = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
            dev = sorted(abs(v - med) for v in col)
            return (dev[(n - 1) // 2] + dev[n // 2]) / 2

        src = RngStream(8).source()
        values = [[src.random() * 5 for _ in range(6)] for _ in range(9)]
        m = rmatrix(values)
        out = mad_thresholds(m)
        for c in range(6):
            assert out[c] == pytest.approx(mad([row[c] for row in values]), abs=1e-12)

    def test_rejects_discrete(self):
        with pytest.raises(KindMismatchError):
            mad_thresholds(dmatrix([[1, 2]]))

