"""Output checks: independent structure checks and committed references.

Every run is checked two ways. Structure checks hold for any seed: they
recompute each bound from its inputs, and bracket each reported clique
number between a greedy clique found here and the largest degree + 1, or
pin it exactly where the similarity graph is a disjoint union of cliques
(empty graphs, separated clusters, complete graphs). Reference checks
compare with outputs committed under ``reference/`` for the recorded seeds.
Each function returns a list of (operation, problem) pairs; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from workloads import Population

REPORT_HEADER = "epsilon,delta,k,exact_k,term_pool,term_cases,total,worst_case,ratio"
VERIFY_CHECKS = (
    "oracle-equivalence",
    "definition-equivalence",
    "bound-monotonicity",
)


class Graphs:
    """Similarity graphs of a population, built here from one-hot agreement counts."""

    def __init__(self, population: Population):
        unique = population.unique.astype(np.int64)
        agree = np.zeros((len(unique),) * 2, dtype=np.float32)
        for level in np.unique(unique):
            hot = (unique == level).astype(np.float32)
            agree += hot @ hot.T
        self.distances = population.n_cases - agree.astype(np.int64)
        self.n_cases = population.n_cases
        self._alpha: dict[str, tuple[int, int, int | None]] = {}

    def alpha_bounds(self, epsilon: str) -> tuple[int, int, int | None]:
        """(greedy lower bound, max degree + 1, exact value or None) at epsilon."""
        if epsilon not in self._alpha:
            threshold = math.ceil(Fraction(epsilon) * self.n_cases)
            adjacency = self.distances < threshold
            np.fill_diagonal(adjacency, False)
            self._alpha[epsilon] = _alpha_bounds(adjacency)
        return self._alpha[epsilon]


def _alpha_bounds(adjacency: np.ndarray) -> tuple[int, int, int | None]:
    degree = adjacency.sum(axis=1)
    upper = int(degree.max()) + 1
    if upper == 1:
        return 1, 1, 1
    candidates = np.ones(len(adjacency), dtype=bool)
    lower = 0
    while candidates.any():
        v = int(np.argmax(np.where(candidates, degree, -1)))
        lower += 1
        candidates &= adjacency[v]
    # A disjoint union of cliques is exactly a graph whose closed
    # neighbourhood relation is transitive; its clique number is then known.
    closed = (adjacency | np.eye(len(adjacency), dtype=bool)).astype(np.float32)
    transitive = ((closed @ closed > 0) == (closed > 0)).all()
    return lower, upper, upper if transitive or lower == upper else None


def _bound_problems(n: int, c: int, eps: str, k: int, exact: bool, graphs: Graphs) -> list[str]:
    lower, upper, known = graphs.alpha_bounds(eps)
    alpha = k - 1
    problems = []
    if alpha < lower:
        problems.append(f"k={k} below greedy clique {lower} + 1")
    if exact and alpha > upper:
        problems.append(f"exact k={k} above max degree + 2 = {upper + 1}")
    if known is not None and (alpha < known or (exact and alpha != known)):
        problems.append(f"k={k} ({'exact' if exact else 'inexact'}), known value {known + 1}")
    return problems


def check_analyze(stdout: str, stderr: str, population: Population, graphs: Graphs) -> list[tuple[str, str]]:
    """One operation per grid row of an ``analyze --format csv`` report."""
    lines = stdout.splitlines()
    n, c = population.n_unique, population.n_cases
    if not lines or lines[0] != REPORT_HEADER:
        return [("report", "missing or wrong CSV header")]
    summary = f"n_original={population.n_original} n_unique={n} cases={c}"
    problems = []
    if summary not in stderr:
        problems.append(("report", f"stderr lacks {summary!r}"))
    for line in lines[1:]:
        cells = line.split(",")
        eps = cells[0]
        try:
            k = int(cells[2])
            exact = {"true": True, "false": False}[cells[3]]
            term_pool = float(Fraction(4 * n) / Fraction(eps))
            term_cases = float(2 * k * c)
            total = term_pool + term_cases
            worst = float(n * c)
            expected = [eps, "0.0", str(k), cells[3], *map(repr, (term_pool, term_cases, total, worst, total / worst))]
        except (IndexError, KeyError, ValueError, ZeroDivisionError):
            problems.append((f"eps={eps}", f"unparsable row {line!r}"))
            continue
        if cells != expected:
            problems.append((f"eps={eps}", f"row {line!r}, expected {','.join(expected)!r}"))
        problems.extend((f"eps={eps}", p) for p in _bound_problems(n, c, eps, k, exact, graphs))
    return problems


def check_simulate(stdout: str, population: Population, graphs: Graphs, trials: int) -> list[tuple[str, str]]:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [("simulate", f"stdout is not JSON: {exc}")]
    n, c = population.n_unique, population.n_cases
    problems = []
    expected = {"n_original": population.n_original, "n_unique": n, "cases": c, "trials": trials}
    for key, value in expected.items():
        if payload.get(key) != value:
            problems.append(f"{key}={payload.get(key)!r}, expected {value}")
    mean = payload["mean_evaluations"]
    if not payload["min_evaluations"] <= mean <= payload["max_evaluations"]:
        problems.append("mean evaluations outside [min, max]")
    margin = mean + 3.0 * payload["std_error"]
    for entry in payload.get("bound_checks", []):
        eps, k, exact = repr(entry["epsilon"]), entry["k"], entry["exact_k"]
        bound = float(Fraction(4 * n) / Fraction(eps)) + float(2 * k * c)
        if entry["bound"] != bound or entry["mean_plus_3se"] != margin:
            problems.append(f"eps={eps}: bound {entry['bound']!r}, expected {bound!r}")
        if entry["satisfied"] is not (margin <= bound if exact else None):
            problems.append(f"eps={eps}: satisfied={entry['satisfied']!r}")
        problems.extend(f"eps={eps}: {p}" for p in _bound_problems(n, c, eps, k, exact, graphs))
    return [("simulate", p) for p in problems]


def check_verify(stdout: str) -> list[tuple[str, str]]:
    """One operation per self-check line; each must read PASS."""
    lines = stdout.splitlines()
    problems = []
    for i, name in enumerate(VERIFY_CHECKS):
        prefix = f"verify {name}: PASS ("
        if i >= len(lines) or not lines[i].startswith(prefix):
            problems.append((name, f"line {lines[i] if i < len(lines) else None!r}"))
    if len(lines) != len(VERIFY_CHECKS):
        problems.append(("verify", f"{len(lines)} lines, expected {len(VERIFY_CHECKS)}"))
    return problems


def _rows(report: str) -> dict[str, list[str]]:
    return {line.split(",")[0]: line.split(",") for line in report.splitlines()[1:]}


def compare_report(run: str, reference: str) -> list[tuple[str, str]]:
    """Grid rows exact on both sides must match byte for byte. An inexact k
    may not fall below an exact reference k, and an exact k may not exceed
    an inexact reference k (the reference's conservative upper end)."""
    run_rows, ref_rows = _rows(run), _rows(reference)
    if run_rows.keys() != ref_rows.keys():
        return [("report", f"grid {sorted(run_rows)} differs from reference {sorted(ref_rows)}")]
    problems = []
    for eps, ref in ref_rows.items():
        row = run_rows[eps]
        k, ref_k = int(row[2]), int(ref[2])
        if row[3] == ref[3] == "true" and row != ref:
            problems.append((f"eps={eps}", f"{','.join(row)!r} != reference {','.join(ref)!r}"))
        elif row[3] == "false" and ref[3] == "true" and k < ref_k:
            problems.append((f"eps={eps}", f"inexact k={k} below exact reference k={ref_k}"))
        elif row[3] == "true" and ref[3] == "false" and k > ref_k:
            problems.append((f"eps={eps}", f"exact k={k} above inexact reference k={ref_k}"))
    return problems
