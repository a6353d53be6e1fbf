import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexibound import engine
from lexibound.core import KindMismatchError, LossKind, RngStream, deduplicate
from lexibound.engine import (
    downsample_cases,
    lexicase_select,
    mad_thresholds,
    run_trials,
    select_parents,
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

    def test_single_unique_row(self):
        prof = profile([[3, 1], [3, 1], [3, 1]])
        traces = runner_traces(prof, 25, RngStream(4), block_trials=4)
        assert traces == scalar_traces(prof, 25, RngStream(4))
        assert {t.winner_original_index for t in traces} == {0, 1, 2}
        assert all(t.pool_sizes == (1,) and t.evaluations == 0 for t in traces)

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

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_trials(profile([[0, 1]]), 0, RngStream(0))
        from lexibound.core import identity_profile

        with pytest.raises(KindMismatchError):
            run_trials(identity_profile(rmatrix([[0.5], [1.5]])), 1, RngStream(0))


class TestSelectParents:
    def test_reproducible_bit_for_bit(self, dominated_profile):
        a = select_parents(dominated_profile, 2, RngStream(5))
        b = select_parents(dominated_profile, 2, RngStream(5))
        assert a == b

    def test_matches_per_substream_selection(self, dominated_profile):
        rng = RngStream(5)
        batch = select_parents(dominated_profile, 4, rng)
        singles = [lexicase_select(dominated_profile, rng.substream(i)) for i in range(4)]
        assert batch == singles

    def test_singleton_many(self):
        prof = profile([[1, 2, 3]])
        traces = select_parents(prof, 1000, RngStream(0))
        assert all(t.evaluations == 0 for t in traces)

    def test_dominated_many(self, dominated_profile):
        traces = select_parents(dominated_profile, 10_000, RngStream(9))
        assert all(t.winner_unique_index == 2 for t in traces)

    def test_rejects_bad_count(self, dominated_profile):
        with pytest.raises(ValueError):
            select_parents(dominated_profile, 0, RngStream(0))


class TestBinarize:
    def test_definition_example(self):
        m = rmatrix([[1.0], [1.05], [2.0]])
        out = static_epsilon_binarize(m, [0.1])
        assert out.losses.tolist() == [[0], [0], [1]]
        assert out.kind is LossKind.DISCRETE

    def test_zero_thresholds_mark_minimizers(self):
        m = rmatrix([[1.0, 4.0], [2.0, 4.0], [1.0, 5.0]])
        out = static_epsilon_binarize(m, [0.0, 0.0])
        indicator = (m.losses != m.losses.min(axis=0)).astype(float)
        assert np.array_equal(out.losses, indicator)

    def test_random_matrix_against_column_scan(self):
        src = RngStream(31).source()
        values = [[src.random() * 10 for _ in range(4)] for _ in range(5)]
        m = rmatrix(values)
        thresholds = [0.5, 1.0, 0.0, 2.0]
        out = static_epsilon_binarize(m, thresholds)
        for c in range(4):
            col_min = min(row[c] for row in values)
            for i in range(5):
                expected = 0.0 if values[i][c] <= col_min + thresholds[c] else 1.0
                assert out.losses[i, c] == expected

    def test_rejects_discrete_input(self):
        with pytest.raises(KindMismatchError):
            static_epsilon_binarize(dmatrix([[0, 1]]), [0.0, 0.0])

    def test_rejects_negative_thresholds(self):
        with pytest.raises(ValueError):
            static_epsilon_binarize(rmatrix([[0.5, 1.0]]), [0.1, -0.1])

    def test_rejects_wrong_threshold_count(self):
        with pytest.raises(ValueError):
            static_epsilon_binarize(rmatrix([[0.5, 1.0]]), [0.1])

    def test_binarized_selection_equals_indicator_selection(self):
        src = RngStream(44).source()
        values = [[float(src.randbelow(4)) for _ in range(5)] for _ in range(6)]
        m = rmatrix(values)
        binarized = static_epsilon_binarize(m, [0.0] * 5)
        indicator = dmatrix((np.array(values) != np.array(values).min(axis=0)).astype(float))
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


class TestDownsample:
    def test_full_fraction_is_identity(self):
        m = dmatrix([[0, 1, 2], [3, 4, 5]])
        assert downsample_cases(m, 1.0, RngStream(0)) == m

    def test_half_of_ten(self):
        m = dmatrix([list(range(10)), list(range(10, 20))])
        out = downsample_cases(m, 0.5, RngStream(1))
        assert out.n_cases == 5
        assert len(set(out.losses[0].tolist())) == 5  # distinct columns

    def test_deterministic(self):
        m = dmatrix([list(range(10))] )
        a = downsample_cases(m, 0.3, RngStream(4))
        b = downsample_cases(m, 0.3, RngStream(4))
        assert a == b

    def test_labels_preserved(self):
        import numpy as np
        from lexibound.core import ErrorMatrix

        m = ErrorMatrix(
            np.array([[0, 1, 2, 3]], dtype=float),
            case_labels=("a", "b", "c", "d"),
        )
        out = downsample_cases(m, 0.5, RngStream(2))
        picked = [int(v) for v in out.losses[0]]
        assert out.case_labels == tuple("abcd"[j] for j in picked)

    def test_rejects_bad_fraction(self):
        m = dmatrix([[0, 1]])
        with pytest.raises(ValueError):
            downsample_cases(m, 0.0, RngStream(0))
        with pytest.raises(ValueError):
            downsample_cases(m, 1.5, RngStream(0))
