"""Each property check fails, naming the fixture, on a bad input built by hand.

The passing paths run in ``verify`` and the acceptance suite; these tests show
that every check can also say FAIL, and where.
"""

from dataclasses import replace

import pytest

from lexibound import bounds, checks
from lexibound.bounds import sweep
from lexibound.core import RngStream, deduplicate
from lexibound.diversity import clique_number, k_from_diameters, least_subset_diameters
from lexibound.popgen import gen_adversarial_single_case, gen_clustered
from lexibound.simulate import estimate_runtime, pool_shrinkage

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

    def test_all_zero_tv_names_the_first_fixture(self, dominated_profile):
        # one behaviour always wins each fixture, so every TV is exactly 0
        fixtures = [
            ("dominated-triple", dominated_profile, dominated_profile, RngStream(3)),
            ("single-case-pair", profile([[0], [1]]), profile([[0], [1]]), RngStream(4)),
        ]
        assert checks.oracle_equivalence(fixtures, 2000, 0.03) == (
            True, "worst TV 0.0000 on dominated-triple (tolerance 0.03, 2000 trials)"
        )


class TestDefinitionEquivalence:
    def test_set_form_table_built_once_per_profile(self, two_triangles, monkeypatch):
        # C = 10, so the 12 grid epsilons 0.05..0.60 map to t = 1, 1, 2, 2, ..., 6, 6
        built, read = [], []

        def counted_table(prof):
            built.append(prof)
            return least_subset_diameters(prof)

        def counted_reader(least, threshold):
            read.append(threshold)
            return k_from_diameters(least, threshold)

        monkeypatch.setattr(checks, "least_subset_diameters", counted_table)
        monkeypatch.setattr(checks, "k_from_diameters", counted_reader)
        fixtures = [("two-triangles", two_triangles), ("pair", profile([[0, 1], [1, 0]]))]
        assert checks.definition_equivalence(fixtures) == (True, "24 (profile, epsilon) points agree")
        assert [id(prof) for prof in built] == [id(two_triangles), id(fixtures[1][1])]
        assert read[:12] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]

    def test_disagreeing_set_form_fails(self, two_triangles, monkeypatch):
        off_by_one = lambda least, threshold: k_from_diameters(least, threshold) + 1  # noqa: E731
        monkeypatch.setattr(checks, "k_from_diameters", off_by_one)
        ok, detail = checks.definition_equivalence([("two-triangles", two_triangles)])
        assert not ok
        assert detail.endswith("at eps=1/20 on two-triangles")

    def test_inexact_clique_search_fails(self, two_triangles, monkeypatch):
        def inexact(graph, node_budget, *, lower_bound):
            return replace(clique_number(graph, node_budget, lower_bound=lower_bound), exact=False)

        monkeypatch.setattr(bounds, "clique_number", inexact)
        ok, detail = checks.definition_equivalence([("two-triangles", two_triangles)])
        assert not ok
        assert "(exact: False)" in detail and detail.endswith("on two-triangles")

    def test_wrong_warm_started_search_fails(self, monkeypatch):
        # the check must run the sweep's warm-started searches, not cold ones.
        # Distances 2, 5 and 5 on C = 10 give three graphs: edgeless up to
        # t = 2, one edge for t = 3..5 (alpha 2), a triangle from t = 6. So
        # t = 6 (eps 0.55) is a warm call with lower_bound 2.
        rising_triangle = profile([[0] * 10, [1, 1] + [0] * 8, [1, 0, 1, 1, 1, 1, 0, 0, 0, 0]])

        def wrong_when_warm(graph, node_budget, *, lower_bound):
            result = clique_number(graph, node_budget, lower_bound=lower_bound)
            if lower_bound > 1:
                result = replace(result, alpha_lower=result.alpha_lower + 1, alpha_upper=result.alpha_upper + 1)
            return result

        monkeypatch.setattr(bounds, "clique_number", wrong_when_warm)
        ok, detail = checks.definition_equivalence([("rising-triangle", rising_triangle)])
        assert not ok
        assert detail == "set-form k=4 vs clique-form k=5 (exact: True) at eps=11/20 on rising-triangle"


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

    def report(self, k, exact=True):
        """The fixture's report at eps 0.6 with a hand-set k, whatever its true k."""
        return replace(sweep(self.ADVERSARIAL, ["0.6"])[0], k=k, exact_k=exact)

    def test_too_small_k_flags(self):
        # only case 0 splits the pool of 30, down to 1: 29 * 30 + 1 rows kept of 900
        fixtures = [("adversarial-30x30", self.ADVERSARIAL, self.report(2))]
        detail = "k=2: a pool of 30 keeps 871/900 > 1 - eps/4 = 17/20 on adversarial-30x30"
        assert checks.drift_inequality(fixtures) == (False, detail)

    def test_no_pool_size_reached_fails(self):
        result = sweep(self.ADVERSARIAL, [0.2])[0]
        assert (result.exact_k, result.k) == (True, 31)
        fixtures = [("adversarial-30x30", self.ADVERSARIAL, result)]
        detail = "k=31: no reachable pool of 62 or more on adversarial-30x30"
        assert checks.drift_inequality(fixtures) == (False, detail)

    def test_inexact_k_fails(self):
        fixtures = [("adversarial-30x30", self.ADVERSARIAL, self.report(2, exact=False))]
        assert checks.drift_inequality(fixtures) == (False, "clique budget exhausted on adversarial-30x30")

    @pytest.mark.parametrize(
        "name, matrix, eps, detail",
        [
            (
                "clustered-24x40",  # verify's fixture at seed 0
                gen_clustered(24, 40, 3, 0.05, RngStream(0, 800)),
                "0.2",
                "k=1: a pool of 3 keeps 23/24 > 1 - eps/4 = 19/20 on clustered-24x40",
            ),
            (
                "clustered-60x120",  # criterion 7's fixtures
                gen_clustered(60, 120, 4, 0.05, RngStream(1002)),
                "0.15",
                "k=1: a pool of 3 keeps 29/30 > 1 - eps/4 = 77/80 on clustered-60x120",
            ),
            (
                "clustered-24x40b",
                gen_clustered(24, 40, 3, 0.05, RngStream(7001)),
                "0.2",
                "k=1: a pool of 5 keeps 191/200 > 1 - eps/4 = 19/20 on clustered-24x40b",
            ),
        ],
    )
    def test_k_of_one_fails_at_an_early_pool(self, monkeypatch, name, matrix, eps, detail):
        # with k = 1 the 60x120 fixture has 137,492 pools of 2 or more; the
        # check stops at the first that breaks the inequality
        prof = deduplicate(matrix)
        report = sweep(prof, [eps])[0]
        assert report.exact_k and report.k > 1
        yielded = []

        def counted(profile, floor):
            for item in pool_shrinkage(profile, floor):
                yielded.append(item)
                yield item

        monkeypatch.setattr(checks.simulate, "pool_shrinkage", counted)
        assert checks.drift_inequality([(name, prof, replace(report, k=1))]) == (False, detail)
        assert len(yielded) < 100


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
