"""Runtime bound evaluation: 4N/eps + 2kC per epsilon, swept over a grid.

N is the number of unique behaviors (the bound assumes a duplicate-free
pool), C the number of cases, and k the epsilon-cluster similarity. The
worst-case baseline is N * C, constants neglected. Grid epsilons are carried
as exact decimals so thresholds and the 4N/eps term never accumulate float
error across the sweep.

k depends on eps only through t = ceil(eps * C), and thresholds with no
present pairwise distance between them share one similarity graph. So the
sweep runs one clique search per distinct graph, not per threshold (``sweep``
gives the reuse rule): 5 searches for the 12 default thresholds on the
benchmark's converged sweep_converged populations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .core import DedupProfile, ExponentError, exact_fraction
from .diversity import (
    DEFAULT_NODE_BUDGET,
    _resolve_delta,
    clique_number,
    far_distance_threshold,
    graph_from_distances,
    pairwise_distance_matrix,
)

__all__ = [
    "DEFAULT_GRID",
    "BoundReport",
    "default_epsilon_grid",
    "parse_epsilon_grid",
    "sweep",
    "best_epsilon",
]

DEFAULT_GRID = "0.05:0.60:0.05"  # start:stop:step, inclusive
# Largest epsilon grid parse_epsilon_grid builds; each point may cost a clique search.
_GRID_MAX_POINTS = 10_000

@dataclass(frozen=True)
class BoundReport:
    """Bound evaluation at one epsilon; k is the conservative upper value
    whenever the clique search was inexact (exact_k False)."""

    epsilon: float
    delta: float
    k: int
    exact_k: bool
    term_pool: float  # 4 N / eps
    term_cases: float  # 2 k C
    total: float
    worst_case: float  # N * C
    ratio: float


@functools.cache
def default_epsilon_grid() -> tuple[Fraction, ...]:
    """DEFAULT_GRID as exact fractions, parsed once."""
    return parse_epsilon_grid(DEFAULT_GRID)


def parse_epsilon_grid(spec: str) -> tuple[Fraction, ...]:
    """Parse 'start:stop:step' into an inclusive exact-decimal grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    fields = []
    for part in parts:
        try:
            fields.append(exact_fraction(part))
        except ExponentError as exc:
            raise ValueError(f"invalid grid {spec!r}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            problem = "divides by zero" if isinstance(exc, ZeroDivisionError) else "is not a number"
            raise ValueError(f"invalid grid {spec!r}: {part!r} {problem}") from exc
    start, stop, step = fields
    if step <= 0 or start <= 0 or stop < start or stop > 1:
        raise ValueError(f"grid {spec!r} must satisfy 0 < start <= stop <= 1, step > 0")
    count = (stop - start) // step + 1
    if count > _GRID_MAX_POINTS:
        log = math.log10(count)  # not Decimal(count): seconds for a 10**6-digit count
        mantissa, shift = f"{10 ** (log % 1):.1e}".split("e")
        shown = count if count < 10**20 else f"{mantissa}e+{math.floor(log) + int(shift)}"
        raise ValueError(f"grid {spec!r} has {shown} points; at most {_GRID_MAX_POINTS} are allowed")
    return tuple(start + i * step for i in range(count))


def sweep(
    profile: DedupProfile,
    epsilons=None,
    delta=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[BoundReport]:
    """One BoundReport per grid epsilon.

    k depends on eps only through t = ceil(eps * C). Each epsilon is checked
    and mapped to t before the O(N^2 C) distance table is computed. The
    distinct t are then walked in ascending order, and a graph is built and
    searched only where it changes, that is where some present distance d
    has t_prev <= d < t. Every other t reuses the previous result when it is
    exact; an inexact one is searched again, warm-started from its lower
    end, since a fresh budget can narrow the bracket. Last, each upper end is
    capped at the least one found at a larger t, so k never falls as eps grows.
    """
    grid = tuple(exact_fraction(e) for e in (epsilons if epsilons is not None else default_epsilon_grid()))
    if not grid:
        raise ValueError("epsilon grid is empty")
    n = profile.n_unique
    c = profile.n_cases
    delta = _resolve_delta(profile.unique.kind, delta)
    points = []
    for eps in grid:
        try:
            # Correctly rounded, as float(Fraction(4 * n) / eps), but with no Fraction built.
            points.append((eps, far_distance_threshold(eps, c), 4 * n * eps.denominator / eps.numerator))
        except OverflowError:
            small = Decimal(eps.numerator) / eps.denominator
            raise ValueError(f"epsilon {small:g} is too small: 4N/eps overflows a float") from None
    distances = pairwise_distance_matrix(profile.unique, delta)
    thresholds = sorted({t for _, t, _ in points})
    # Thresholds with as many present distances below them share one graph.
    present = np.flatnonzero(np.bincount(distances.ravel(), minlength=c + 1))
    keys = np.searchsorted(present, thresholds).tolist()
    # Edges only join as t grows, so the clique found at one t warm-starts the
    # next; only an inexact result on an unchanged graph is searched again.
    results, lower, result, last = {}, 1, None, None
    for threshold, key in zip(thresholds, keys):
        if key != last or not result.exact:
            result = clique_number(graph_from_distances(distances, threshold), node_budget, lower_bound=lower)
            lower, last = result.alpha_lower, key
        results[threshold] = result
    # Alpha never falls as t grows, so the least upper end found at a larger t
    # caps every smaller t; a row whose cap meets its lower end is exact.
    cap = math.inf
    for threshold in reversed(thresholds):
        result = results[threshold]
        if result.alpha_upper > cap:
            results[threshold] = replace(result, alpha_upper=cap, exact=cap == result.alpha_lower)
        cap = min(cap, result.alpha_upper)
    worst_case = float(n * c)
    reports = []
    for eps, threshold, term_pool in points:
        result = results[threshold]
        term_cases = float(2 * result.k * c)
        total = term_pool + term_cases
        reports.append(
            BoundReport(
                epsilon=float(eps),
                delta=delta,
                k=result.k,
                exact_k=result.exact,
                term_pool=term_pool,
                term_cases=term_cases,
                total=total,
                worst_case=worst_case,
                ratio=total / worst_case,
            )
        )
    return reports


def best_epsilon(reports: list[BoundReport]) -> BoundReport:
    """Report with the minimal total bound; ties go to the smaller epsilon."""
    if not reports:
        raise ValueError("no reports to choose from")
    return min(reports, key=lambda r: (r.total, r.epsilon))
