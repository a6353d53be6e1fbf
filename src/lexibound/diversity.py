"""Phenotypical distance and the epsilon-cluster similarity measure.

The similarity of a population at level epsilon is k = alpha + 1, where
alpha is the clique number of the graph joining pairs of behaviors that
agree (within delta) on more than (1 - epsilon) * C cases. Equivalently, k
is the smallest set size that always contains a pair at distance >= eps * C.
Small k means high diversity.

Thresholds are compared exactly: an integer distance d is "far" iff
d >= eps * C as rationals, so the set and graph formulations coincide for
every epsilon, including non-integer eps * C.

This module holds the layers: the distance table, its thresholded graph and
the clique search. ``bounds.sweep`` is the one path from a profile to k.
``similarity_bruteforce`` evaluates the set form directly, as a test oracle.

The distance table of discrete losses with few distinct values is a sum of
one-hot matrix products (BLAS); the row loop stays for the other cases and
as the reference the products are tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DedupProfile, ErrorMatrix, LossKind, exact_fraction

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "SimilarityGraph",
    "SimilarityResult",
    "pairwise_distance_matrix",
    "far_distance_threshold",
    "graph_from_distances",
    "clique_number",
    "similarity_bruteforce",
    "covariance_mean",
]

# Exact results on sparse 1000-vertex similarity graphs take well under this
# many expansions; dense pathological instances hit the cap and fall back to
# the [best clique found, coloring bound] bracket.
DEFAULT_NODE_BUDGET = 10_000_000

_BRUTEFORCE_LIMIT = 20

# Cut-offs of the one-hot distance path (2 vCPU, one BLAS thread, numpy 2.4).
# Its cost grows with the number of distinct loss values and the row loop's
# does not: at 300-616 rows x 100-150 cases it took 0.55-0.71 of the row
# loop's time at 32 levels, 0.78-0.95 at 48 and 1.03-1.19 at 64. On 5-150
# cases with 3 levels it took 1.07-1.21 of the loop's time at 4 rows, np.unique
# included, and 0.62-0.85 at 8 rows. The level cut-off is provisional: no
# perfbench workload has more than 32 levels, so only these in-process
# timings measure the row-loop side of it.
_ONEHOT_MAX_LEVELS = 32
_ONEHOT_MIN_ROWS = 8
# Agreement counts up to C are exact integers in float32 while C < 2**24.
_FLOAT32_EXACT = 2**24


def _check_epsilon(epsilon: Fraction) -> None:
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")


def _resolve_delta(kind: LossKind, delta) -> float:
    """Delta defaults to 0 for discrete losses; real losses need an explicit
    value (there is no sensible silent default for a tolerance)."""
    if delta is None:
        if kind is LossKind.REAL:
            raise ValueError("delta must be supplied for real-valued losses")
        return 0.0
    delta = float(delta)
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if kind is LossKind.DISCRETE and delta != 0:
        raise ValueError("delta must be 0 for discrete losses")
    return delta


def pairwise_distance_matrix(matrix: ErrorMatrix, delta=None) -> np.ndarray:
    """Symmetric N x N table of pairwise phenotypic distances (int32).

    With ``delta == 0`` and few distinct loss values, the table is counted
    by one-hot matrix products; otherwise, and on tiny matrices, by the row
    loop, which is also the reference the product is tested against.
    """
    delta = _resolve_delta(matrix.kind, delta)
    losses = matrix.losses
    n, c = losses.shape
    if (
        delta == 0.0
        and n >= _ONEHOT_MIN_ROWS
        and c < _FLOAT32_EXACT
        # one row's distinct values bound the level count from below: a first
        # row with too many levels skips the sort of the whole matrix (a set,
        # as np.unique without return_inverse imports numpy.ma, ~1.4 MB)
        and len(set(losses[0].tolist())) <= _ONEHOT_MAX_LEVELS
    ):
        values, codes = np.unique(losses, return_inverse=True)
        if len(values) <= _ONEHOT_MAX_LEVELS:
            return _onehot_distances(codes.reshape(n, c), len(values))
    return _row_loop_distances(losses, delta)


def _onehot_distances(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """Distances from level codes: C minus the cases each pair agrees on,
    summed level by level so the float32 one-hot temporary stays N x C.
    Every partial sum is an integer <= C < 2**24, so float32 is exact."""
    n, c = codes.shape
    agree = np.zeros((n, n), dtype=np.float32)
    for level in range(n_levels):
        onehot = (codes == level).astype(np.float32)
        agree += onehot @ onehot.T
    return (c - agree).astype(np.int32)


def _row_loop_distances(losses: np.ndarray, delta: float) -> np.ndarray:
    n = losses.shape[0]
    out = np.zeros((n, n), dtype=np.int32)
    if delta == 0.0:
        for i in range(n):
            out[i] = np.count_nonzero(losses != losses[i], axis=1)
    else:
        for i in range(n):
            out[i] = np.count_nonzero(np.abs(losses - losses[i]) > delta, axis=1)
    return out


def far_distance_threshold(epsilon, n_cases: int) -> int:
    """Smallest integer distance counting as 'far': min {d : d >= eps * C}.

    Computed with exact rational arithmetic, so eps = 0.05 on C = 20 cases
    yields exactly 1 (not 2, as naive float rounding of 0.05 * 20 would give).
    """
    eps = exact_fraction(epsilon)
    _check_epsilon(eps)
    return math.ceil(eps * n_cases)


@dataclass(frozen=True)
class SimilarityGraph:
    """Graph over unique behaviors; edge = pair at distance < eps * C."""

    n_vertices: int
    adjacency: np.ndarray  # symmetric bool, no self-loops

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n_vertices, self.n_vertices):
            raise ValueError(f"adjacency shape {adj.shape} for {self.n_vertices} vertices")
        if adj.diagonal().any():
            raise ValueError("similarity graph must not contain self-loops")
        if not (adj == adj.T).all():
            raise ValueError("adjacency must be symmetric")
        adj = adj.copy()
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2


@dataclass(frozen=True)
class SimilarityResult:
    """Clique number bracket and the similarity value k = alpha + 1."""

    alpha_lower: int
    alpha_upper: int
    exact: bool
    search_nodes: int

    @property
    def k(self) -> int:
        """The similarity value; the conservative upper end when inexact."""
        return self.alpha_upper + 1


def graph_from_distances(distances: np.ndarray, n_cases: int, epsilon) -> SimilarityGraph:
    """Threshold a distance table into the similarity graph at epsilon; the
    sweep computes the O(N^2 C) table once and thresholds it per epsilon."""
    adjacency = distances < far_distance_threshold(epsilon, n_cases)
    np.fill_diagonal(adjacency, False)
    return SimilarityGraph(n_vertices=distances.shape[0], adjacency=adjacency)


# ---------------------------------------------------------------------------
# Exact maximum clique: branch and bound on bitsets with greedy-coloring
# pruning and degeneracy preordering, started from a known clique.
# ---------------------------------------------------------------------------


def _union_of_cliques_alpha(adjacency: np.ndarray) -> int | None:
    """Largest clique size if the graph is a disjoint union of cliques, else None
    (1 for no vertices). It is one iff u, v are adjacent or equal exactly when
    their closed neighbourhoods have the same lowest vertex."""
    n = adjacency.shape[0]
    if n == 0:
        return 1
    closed = adjacency | np.eye(n, dtype=bool)
    label = closed.argmax(axis=1)
    if not (closed == (label[:, None] == label[None, :])).all():
        return None
    return int(np.bincount(label).max())


def _greedy_clique(adjacency: np.ndarray) -> int:
    """Size of a clique grown by repeatedly taking the highest-degree candidate."""
    degree = adjacency.sum(axis=1)
    candidates = np.ones(adjacency.shape[0], dtype=bool)
    size = 0
    while candidates.any():
        candidates &= adjacency[np.argmax(np.where(candidates, degree, -1))]
        size += 1
    return size


def _degeneracy_order(adjacency: np.ndarray) -> list[int]:
    """Vertex order by repeatedly removing a minimum-degree vertex (bucket queue);
    neighbours are visited in ascending index, which fixes what ``pop`` returns."""
    neighbours = [np.flatnonzero(row).tolist() for row in adjacency]
    degree = [len(nbrs) for nbrs in neighbours]
    n = len(degree)
    max_deg = max(degree, default=0)
    buckets: list[set[int]] = [set() for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[degree[v]].add(v)
    removed = [False] * n
    order = []
    d = 0
    for _ in range(n):
        while d <= max_deg and not buckets[d]:
            d += 1
        v = buckets[d].pop()
        removed[v] = True
        order.append(v)
        for u in neighbours[v]:
            if not removed[u]:
                buckets[degree[u]].discard(u)
                degree[u] -= 1
                buckets[degree[u]].add(u)
                if degree[u] < d:
                    d = degree[u]
    return order


def _bitsets(adjacency: np.ndarray) -> list[int]:
    """Each row as an int whose bit j is set iff the row's column j is."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(packed))]


def _color_sort(candidates: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; returns vertices ordered by
    nondecreasing color and their color numbers (an upper bound on the
    largest clique inside the set that contains each vertex)."""
    order: list[int] = []
    colors: list[int] = []
    color = 0
    work = candidates
    while work:
        color += 1
        layer = work
        while layer:
            low = layer & -layer
            v = low.bit_length() - 1
            order.append(v)
            colors.append(color)
            work ^= low
            layer ^= low
            layer &= ~adj[v]
    return order, colors


def _search(
    adj: list[int], order: list[int], colors: list[int], best: int, budget: int
) -> tuple[int, int, bool]:
    """Depth-first branch and bound from the root's color-sorted vertices and a
    known clique of size ``best``, on an explicit stack of frames that try
    vertices from the highest color down; returns (best, nodes, exhausted)."""
    stack = []
    size, idx, live = 0, len(order), (1 << len(order)) - 1
    nodes = 0
    while True:
        if idx == 0 or size + colors[idx - 1] <= best:
            if not stack:
                return best, nodes, False
            size, order, colors, idx, live = stack.pop()
            continue
        idx -= 1
        v = order[idx]
        nodes += 1
        if nodes > budget:
            return best, nodes, True
        rest = live & adj[v]
        live ^= 1 << v
        if rest:
            stack.append((size, order, colors, idx, live))
            order, colors = _color_sort(rest, adj)
            size, idx, live = size + 1, len(order), rest
        elif size + 1 > best:
            best = size + 1


def clique_number(
    graph: SimilarityGraph, node_budget: int = DEFAULT_NODE_BUDGET, *, lower_bound: int = 1
) -> SimilarityResult:
    """Exact clique number by branch and bound, or a sound bracket on budget.

    A disjoint union of cliques is answered directly, with no search.
    Otherwise vertices are preordered by degeneracy and each node is pruned
    with a greedy coloring bound. The search starts from the larger of a
    greedy clique and ``lower_bound``, the size of a clique known to be in
    the graph (the sweep passes the one found at the previous, smaller
    epsilon). A larger start only prunes, so it never widens the bracket or
    adds nodes. When the budget runs out the result brackets the true value:
    the best clique found below, the root coloring bound above.
    """
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    n = graph.n_vertices
    if not 1 <= lower_bound <= max(n, 1):
        raise ValueError(f"lower_bound must be in [1, {max(n, 1)}], got {lower_bound}")
    alpha = _union_of_cliques_alpha(graph.adjacency)
    nodes, exhausted = 0, False
    if alpha is not None:
        lower = upper = alpha
    else:
        order = _degeneracy_order(graph.adjacency)
        adj = _bitsets(graph.adjacency[np.ix_(order, order)])
        root_order, root_colors = _color_sort((1 << n) - 1, adj)
        upper = max(root_colors)
        lower = max(lower_bound, _greedy_clique(graph.adjacency))
        if lower < upper:
            lower, nodes, exhausted = _search(adj, root_order, root_colors, lower, node_budget)
        if not exhausted:
            upper = lower
    return SimilarityResult(
        alpha_lower=lower,
        alpha_upper=upper,
        exact=not exhausted,
        search_nodes=nodes,
    )


def similarity_bruteforce(profile: DedupProfile, epsilon, delta=None) -> int:
    """Direct set-form evaluation: smallest k >= 2 such that every k-subset
    contains a pair at distance >= eps * C; N_unique + 1 when none exists.

    Exponential subset scan, independent of the clique solver; test oracle
    only (rejects N_unique > 20).
    """
    n = profile.n_unique
    if n > _BRUTEFORCE_LIMIT:
        raise ValueError(f"bruteforce oracle limited to {_BRUTEFORCE_LIMIT} rows, got {n}")
    delta = _resolve_delta(profile.unique.kind, delta)
    distances = pairwise_distance_matrix(profile.unique, delta)
    threshold = far_distance_threshold(epsilon, profile.n_cases)
    far = (distances >= threshold).tolist()
    for k in range(2, n + 1):
        satisfied = True
        for subset in itertools.combinations(range(n), k):
            if not any(far[a][b] for a, b in itertools.combinations(subset, 2)):
                satisfied = False
                break
        if satisfied:
            return k
    return n + 1


def covariance_mean(matrix: ErrorMatrix) -> float:
    """Mean of the N x N covariance matrix of the individuals' error vectors.

    Entry (i, j) is the sample covariance (divisor C - 1) of rows i and j
    across cases; the mean runs over all N^2 entries including variances.
    """
    if matrix.n_cases < 2:
        raise ValueError("covariance_mean requires at least 2 cases")
    cov = np.atleast_2d(np.cov(matrix.losses))
    return float(cov.mean())
