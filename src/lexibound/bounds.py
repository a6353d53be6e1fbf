"""Runtime bound evaluation: 4N/eps + 2kC per epsilon, swept over a grid.

N is the number of unique behaviors (the bound assumes a duplicate-free
pool), C the number of cases, and k the epsilon-cluster similarity. The
worst-case baseline is N * C, constants neglected. Grid epsilons are carried
as exact decimals so thresholds and the 4N/eps term never accumulate float
error across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DedupProfile, exact_fraction
from .diversity import (
    DEFAULT_NODE_BUDGET,
    _resolve_delta,
    clique_number,
    graph_from_distances,
    pairwise_distance_matrix,
)

__all__ = [
    "BoundReport",
    "theorem_bound",
    "default_epsilon_grid",
    "parse_epsilon_grid",
    "sweep",
    "best_epsilon",
]

# Largest epsilon grid parse_epsilon_grid builds; each point costs a clique search.
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


def theorem_bound(n_unique: int, n_cases: int, epsilon, k: int) -> float:
    """Expected-evaluation bound 4 n / eps + 2 k C."""
    if n_unique < 1 or n_cases < 1:
        raise ValueError("population and case counts must be >= 1")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    eps = exact_fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    return float(Fraction(4 * n_unique) / eps) + float(2 * k * n_cases)


def default_epsilon_grid() -> tuple[Fraction, ...]:
    """0.05 .. 0.60 in increments of 0.05, as exact fractions."""
    return tuple(Fraction(i, 20) for i in range(1, 13))


def parse_epsilon_grid(spec: str) -> tuple[Fraction, ...]:
    """Parse 'start:stop:step' into an inclusive exact-decimal grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid grid {spec!r}: {exc}") from exc
    if step <= 0 or start <= 0 or stop < start or stop > 1:
        raise ValueError(f"grid {spec!r} must satisfy 0 < start <= stop <= 1, step > 0")
    count = (stop - start) // step + 1
    if count > _GRID_MAX_POINTS:
        raise ValueError(f"grid {spec!r} has {count} points; at most {_GRID_MAX_POINTS} are allowed")
    return tuple(start + i * step for i in range(count))


def sweep(
    profile: DedupProfile,
    epsilons=None,
    delta=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[BoundReport]:
    """One BoundReport per grid epsilon.

    The pairwise distance table is computed once and shared across the grid;
    thresholding it per epsilon equals independent graph construction.
    """
    grid = tuple(exact_fraction(e) for e in (epsilons if epsilons is not None else default_epsilon_grid()))
    if not grid:
        raise ValueError("epsilon grid is empty")
    n = profile.n_unique
    c = profile.n_cases
    delta = _resolve_delta(profile.unique.kind, delta)
    distances = pairwise_distance_matrix(profile.unique, delta)
    worst_case = float(n * c)
    reports = []
    # Edges only join as eps grows: a clique found at a smaller eps stays one.
    lower, previous = 1, grid[0]
    for eps in grid:
        graph = graph_from_distances(distances, c, eps, delta)
        result = clique_number(graph, node_budget, lower_bound=lower if eps >= previous else 1)
        lower, previous = result.alpha_lower, eps
        k = result.k_upper
        term_pool = float(Fraction(4 * n) / eps)
        term_cases = float(2 * k * c)
        total = term_pool + term_cases
        reports.append(
            BoundReport(
                epsilon=float(eps),
                delta=delta,
                k=k,
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
