"""Each property check fails, naming the fixture, on a bad input built by hand.

The passing paths run in ``verify`` and the acceptance suite; these tests show
that every check can also say FAIL, and where.
"""

from dataclasses import replace

import pytest

from lexibound import checks
from lexibound.bounds import sweep
from lexibound.core import RngStream
from lexibound.diversity import SimilarityResult, epsilon_cluster_similarity, similarity_bruteforce
from lexibound.popgen import gen_adversarial_single_case
from lexibound.simulate import estimate_runtime

from conftest import profile


class TestOracleEquivalence:
    def test_sampling_another_profile_fails(self, dominated_profile):
        # row 2 always wins the dominated triple, and never wins here
        swapped = profile([[0, 1], [1, 0], [1, 1]])
        fixtures = [
            ("symmetric-pair", profile([[0, 1], [1, 0]]), profile([[0, 1], [1, 0]]), RngStream(1)),
            ("dominated-vs-swapped", dominated_profile, swapped, RngStream(2)),
        ]
        ok, detail = checks.oracle_equivalence(fixtures, 2000, 0.05)
        assert not ok
        assert detail.startswith("worst TV 1.0000 on dominated-vs-swapped")

    def test_true_profiles_pass(self, dominated_profile):
        fixtures = [("dominated-triple", dominated_profile, dominated_profile, RngStream(3))]
        ok, detail = checks.oracle_equivalence(fixtures, 2000, 0.05)
        assert ok, detail


class TestDefinitionEquivalence:
    def test_disagreeing_set_form_fails(self, two_triangles, monkeypatch):
        off_by_one = lambda prof, eps: similarity_bruteforce(prof, eps) + 1  # noqa: E731
        monkeypatch.setattr(checks, "similarity_bruteforce", off_by_one)
        ok, detail = checks.definition_equivalence([("two-triangles", two_triangles)])
        assert not ok
        assert detail.endswith("at eps=1/20 on two-triangles")

    def test_inexact_clique_search_fails(self, two_triangles, monkeypatch):
        inexact = lambda prof, eps: replace(epsilon_cluster_similarity(prof, eps), exact=False)  # noqa: E731
        monkeypatch.setattr(checks, "epsilon_cluster_similarity", inexact)
        ok, detail = checks.definition_equivalence([("two-triangles", two_triangles)])
        assert not ok
        assert "(exact: False)" in detail and detail.endswith("on two-triangles")


class TestBoundMonotonicity:
    @pytest.mark.parametrize("field, change", [("k", -1), ("term_pool", 0.0), ("term_cases", -1e-9)])
    def test_broken_sweep_fails(self, two_triangles, field, change):
        reports = sweep(two_triangles)
        reports[6] = replace(reports[6], **{field: getattr(reports[5], field) + change})
        ok, detail = checks.bound_monotonicity([("clean", sweep(two_triangles)), ("edited", reports)])
        assert not ok
        assert detail == f"k, 4N/eps or 2kC breaks from eps={reports[5].epsilon} to 0.35 on edited"


class TestDriftInequality:
    ADVERSARIAL = profile(gen_adversarial_single_case(30, 30).losses.tolist())

    def similarity(self, k, exact=True):
        """A hand-made result: k at eps 0.6, whatever the fixture's true k."""
        return SimilarityResult(
            epsilon=0.6, delta=0.0, alpha_lower=k - 1, alpha_upper=k - 1,
            exact=exact, search_nodes=0, budget_exhausted=not exact,
        )

    def test_too_small_k_flags(self):
        # the pool stays at 30 until case 0 is drawn: E[X'|30] ~ 28.2 > 30 * (1 - 0.6/4)
        fixtures = [("adversarial-30x30", self.ADVERSARIAL, self.similarity(2), RngStream(4))]
        ok, detail = checks.drift_inequality(fixtures, 1000)
        assert not ok
        assert "flagged: [" in detail and detail.endswith("on adversarial-30x30")

    def test_no_pool_size_reached_fails(self):
        result = epsilon_cluster_similarity(self.ADVERSARIAL, 0.2)
        assert result.exact and 2 * result.k > 30
        fixtures = [("adversarial-30x30", self.ADVERSARIAL, result, RngStream(5))]
        ok, detail = checks.drift_inequality(fixtures, 1000)
        assert not ok
        assert detail.startswith(f"k={result.k}, 0 pool sizes") and detail.endswith("on adversarial-30x30")

    def test_inexact_k_fails(self):
        fixtures = [("adversarial-30x30", self.ADVERSARIAL, self.similarity(2, exact=False), RngStream(6))]
        assert checks.drift_inequality(fixtures, 1000) == (False, "clique budget exhausted on adversarial-30x30")


class TestBoundValidity:
    def test_margin_above_an_exact_bound_fails(self, two_triangles):
        stats = estimate_runtime(two_triangles, 200, RngStream(7))
        reports = sweep(two_triangles)
        slow = replace(stats, mean_evaluations=reports[0].total + 1.0)
        ok, detail = checks.bound_validity([("measured", stats, reports), ("inflated", slow, reports)])
        assert not ok
        assert detail.startswith("mean + 3*SE =") and detail.endswith("at eps=0.05 on inflated")

    def test_inexact_reports_are_not_judged(self, two_triangles):
        stats = estimate_runtime(two_triangles, 200, RngStream(8))
        reports = [replace(r, exact_k=False) for r in sweep(two_triangles)]
        slow = replace(stats, mean_evaluations=1e9)
        assert all(row["satisfied"] is None for row in checks.bound_rows(slow, reports))
        assert checks.bound_validity([("inexact", slow, reports)]) == (True, "0 exact-k grid points satisfied")
