import math

import numpy as np
import pytest

from lexibound.bounds import sweep
from lexibound.core import RngStream, deduplicate, identity_profile
from lexibound.diversity import pairwise_distance_matrix, similarity_bruteforce
from lexibound.popgen import (
    GenKind,
    GenSpec,
    GenerationError,
    gen_adversarial_single_case,
    gen_clustered,
    gen_log_binary,
    gen_random_uniform,
    gen_two_cluster,
    generate,
    with_real_jitter,
)


def pairwise(matrix):
    return pairwise_distance_matrix(matrix)


class TestAdversarialSingleCase:
    def test_exact_construction(self):
        m = gen_adversarial_single_case(3, 2)
        assert m.losses.tolist() == [[0, 0], [1, 0], [2, 0]]

    def test_all_pairwise_distances_one(self):
        m = gen_adversarial_single_case(7, 9)
        d = pairwise(m)
        off_diag = d[~np.eye(7, dtype=bool)]
        assert set(off_diag.tolist()) == {1}

    def test_whole_population_one_cluster(self):
        prof = deduplicate(gen_adversarial_single_case(6, 10))
        assert similarity_bruteforce(prof, 0.2) == 7  # n + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_adversarial_single_case(1, 5)
        with pytest.raises(ValueError):
            gen_adversarial_single_case(3, 0)


class TestLogBinary:
    def test_exact_construction(self):
        m = gen_log_binary(4, 3)
        assert m.losses.tolist() == [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]

    def test_distances_bounded_by_bits(self):
        m = gen_log_binary(16, 20)
        d = pairwise(m)
        assert d.max() <= 4
        assert deduplicate(m).n_unique == 16

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            gen_log_binary(6, 10)
        with pytest.raises(ValueError):
            gen_log_binary(8, 2)  # c < log2(n)


class TestTwoCluster:
    def test_distance_structure(self):
        m = gen_two_cluster(6, 10)
        d = pairwise(m)
        for a in range(6):
            for b in range(a + 1, 6):
                if (a < 3) == (b < 3):
                    assert d[a][b] == 2
                else:
                    assert d[a][b] >= 8

    def test_paper_k_value(self):
        prof = deduplicate(gen_two_cluster(6, 10))
        assert sweep(prof, [0.9])[0].k == 4  # n/2 + 1

    def test_average_distance_large(self):
        m = gen_two_cluster(6, 10)
        d = pairwise(m)
        total = sum(d[a][b] for a in range(6) for b in range(a + 1, 6))
        average = total / 15
        assert average >= 0.4 * 10

    def test_rejects_odd_or_narrow(self):
        with pytest.raises(ValueError):
            gen_two_cluster(5, 10)
        with pytest.raises(ValueError):
            gen_two_cluster(10, 4)


class TestRandomUniform:
    def test_smallest_duplicate_free_instance(self):
        m = gen_random_uniform(2, 1, 2, RngStream(0))
        assert sorted(m.losses.flatten().tolist()) == [0, 1]

    def test_expected_pairwise_distance(self):
        n, c, levels = 100, 100, 4
        m = gen_random_uniform(n, c, levels, RngStream(42))
        d = pairwise(m)
        pairs = d[np.triu_indices(n, k=1)]
        mean = pairs.mean()
        # per-pair distance ~ Binomial(c, 3/4); SE of the mean over ~n^2/2
        # dependent pairs is below the single-pair sigma
        sigma = math.sqrt(c * 0.75 * 0.25)
        assert abs(mean - 0.75 * c) < 3 * sigma / math.sqrt(n / 2)

    def test_small_k_with_high_probability(self):
        matrix = gen_random_uniform(12, 30, 4, RngStream(7))
        prof = deduplicate(matrix)
        assert similarity_bruteforce(prof, 0.5) <= 4

    def test_deterministic(self):
        a = gen_random_uniform(20, 10, 3, RngStream(5))
        b = gen_random_uniform(20, 10, 3, RngStream(5))
        assert a == b

    def test_retry_exhaustion(self):
        with pytest.raises(GenerationError):
            gen_random_uniform(5, 2, 2, RngStream(1))  # only 4 distinct rows exist

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            gen_random_uniform(2, 2, 1, RngStream(0))


    @pytest.mark.parametrize("n, c", [(0, 3), (3, 0)], ids=["n=0", "c=0"])
    def test_rejects_empty_shape(self, n, c):
        with pytest.raises(ValueError, match="must be >= 1"):
            gen_random_uniform(n, c, 2, RngStream(0))

class TestClustered:
    def test_single_cluster_no_spread(self):
        m = gen_clustered(6, 12, 1, 0.0, RngStream(3))
        d = pairwise(m)
        off = d[~np.eye(6, dtype=bool)]
        assert set(off.tolist()) == {2}  # designated bumps only

    def test_three_clusters_k(self):
        m = gen_clustered(9, 20, 3, 0.1, RngStream(4))
        prof = deduplicate(m)
        assert prof.n_unique == 9
        d = pairwise(m)
        within_max = 0
        between_min = 10**9
        for a in range(9):
            for b in range(a + 1, 9):
                if a // 3 == b // 3:
                    within_max = max(within_max, d[a][b])
                else:
                    between_min = min(between_min, d[a][b])
        assert within_max < between_min
        # epsilon between the within spread and the between separation
        eps = (within_max + 1) / 20
        assert similarity_bruteforce(prof, eps) == 4  # n/clusters + 1

    def test_k_transitions_across_grid(self):
        m = gen_clustered(9, 20, 3, 0.1, RngStream(4))
        prof = deduplicate(m)
        ks = [similarity_bruteforce(prof, e / 100) for e in range(5, 65, 5)]
        assert ks[0] == 2  # below the within-cluster spread everyone is far
        assert 4 in ks  # n/clusters + 1 once clusters become similar
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_clustered(6, 12, 0, 0.0, RngStream(0))
        with pytest.raises(ValueError):
            gen_clustered(6, 12, 2, 0.4, RngStream(0))  # spread budget too large
        with pytest.raises(ValueError):
            gen_clustered(30, 12, 2, 0.0, RngStream(0))  # c < max cluster size

    def test_rejects_a_spread_beyond_the_non_designated_cases(self):
        # one cluster of 6 takes 6 designated cases of 8; spread 0.5 perturbs 4
        with pytest.raises(ValueError, match="not enough non-designated cases"):
            gen_clustered(6, 8, 1, 0.5, RngStream(0))


class TestGeneratorContracts:
    @pytest.mark.parametrize(
        "matrix",
        [
            gen_adversarial_single_case(8, 6),
            gen_log_binary(8, 6),
            gen_two_cluster(8, 6),
            gen_random_uniform(8, 6, 3, RngStream(1)),
            gen_clustered(8, 12, 2, 0.05, RngStream(1)),
        ],
        ids=["adversarial", "log_binary", "two_cluster", "random_uniform", "clustered"],
    )
    def test_duplicate_free(self, matrix):
        assert deduplicate(matrix).n_unique == matrix.n_individuals

    def test_genspec_round_trip_and_determinism(self):
        spec = GenSpec(kind=GenKind.RANDOM_UNIFORM, n=10, c=8, seed=77, params={"levels": 3})
        text = '{"kind": "random_uniform", "n": 10, "c": 8, "seed": 77, "params": {"levels": 3}}'
        again = GenSpec.from_json(text)
        assert again == spec
        assert generate(spec) == generate(again)

    def test_genspec_rejects_malformed(self):
        with pytest.raises(ValueError):
            GenSpec.from_json('{"kind": "nope", "n": 3, "c": 3}')
        with pytest.raises(ValueError):
            GenSpec.from_json('{"n": 3, "c": 3}')
        with pytest.raises(ValueError):
            GenSpec.from_json("[1, 2]")

    def test_generate_rejects_params_the_kind_does_not_read(self):
        with pytest.raises(ValueError, match="two_cluster reads no param 'levels' \\(params: none\\)"):
            generate(GenSpec(GenKind.TWO_CLUSTER, 4, 5, params={"levels": 3}))
        with pytest.raises(ValueError, match="clustered reads no param 'level'"):
            generate(GenSpec(GenKind.CLUSTERED, 4, 8, params={"clusters": 2, "level": 3}))

    def test_generate_converts_param_types(self):
        as_text = GenSpec(GenKind.CLUSTERED, 4, 8, seed=1, params={"clusters": "2", "spread": "0"})
        typed = GenSpec(GenKind.CLUSTERED, 4, 8, seed=1, params={"clusters": 2, "spread": 0.0})
        assert generate(as_text) == generate(typed)
        with pytest.raises(ValueError, match="invalid GenSpec param 'spread'"):
            generate(GenSpec(GenKind.CLUSTERED, 4, 8, params={"spread": [0.1]}))

    def test_generate_dispatches_all_kinds(self):
        specs = [
            GenSpec(GenKind.ADVERSARIAL_SINGLE_CASE, 4, 5),
            GenSpec(GenKind.LOG_BINARY, 4, 5),
            GenSpec(GenKind.TWO_CLUSTER, 4, 5),
            GenSpec(GenKind.RANDOM_UNIFORM, 4, 5, seed=1, params={"levels": 3}),
            GenSpec(GenKind.CLUSTERED, 4, 8, seed=1, params={"clusters": 2, "spread": 0.0}),
        ]
        for spec in specs:
            matrix = generate(spec)
            assert matrix.n_individuals == 4

    @pytest.mark.parametrize(
        "kind, n, c, seed",
        [("random_uniform", 4, 5, None), ("two_cluster", 4, 5, None), ("clustered", 4, 8, 1)],
    )
    def test_generate_reads_a_string_kind_as_its_enum(self, kind, n, c, seed):
        assert generate(GenSpec(kind, n, c, seed=seed)) == generate(GenSpec(GenKind(kind), n, c, seed=seed))

    def test_generate_rejects_an_unknown_string_kind(self):
        with pytest.raises(ValueError, match="nope"):
            generate(GenSpec("nope", 4, 5))

    def test_generate_rejects_a_seed_on_a_string_kind_that_reads_none(self):
        with pytest.raises(ValueError, match="two_cluster reads no seed"):
            generate(GenSpec("two_cluster", 4, 5, seed=1))


class TestRealJitter:
    def test_delta_distances_match_discrete(self):
        discrete = gen_random_uniform(10, 8, 3, RngStream(9))
        delta = 0.5
        real = with_real_jitter(discrete, delta, RngStream(10))
        d_discrete = pairwise_distance_matrix(discrete)
        d_real = pairwise_distance_matrix(real, delta=delta)
        assert np.array_equal(d_discrete, d_real)

    def test_similarity_matches_across_grid(self):
        discrete = gen_two_cluster(6, 10)
        delta = 0.2
        real = with_real_jitter(discrete, delta, RngStream(11))
        prof_d = deduplicate(discrete)
        prof_r = identity_profile(real)
        for eps in (0.05, 0.3, 0.5, 0.9):
            assert (
                sweep(prof_r, [eps], delta)[0].k
                == sweep(prof_d, [eps])[0].k
            )

    def test_rejects_bad_input(self):
        discrete = gen_two_cluster(4, 4)
        with pytest.raises(ValueError):
            with_real_jitter(discrete, 0.0, RngStream(0))
        real = with_real_jitter(discrete, 0.5, RngStream(0))
        from lexibound.core import KindMismatchError

        with pytest.raises(KindMismatchError):
            with_real_jitter(real, 0.5, RngStream(0))
