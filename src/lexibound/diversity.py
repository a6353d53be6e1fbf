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
The search closes a branch in one step when the colouring of its candidates
gives each vertex its own colour: the candidates are then a clique, whose
dive would expand one node per vertex and prune every sibling on the way
back, so the node counts and every result stay those of the full dive.
The set form is the test oracle: ``least_subset_diameters`` tabulates, per
subset size s, the least largest distance inside any s-row subset, by one
pass over all 2^N subsets in O(2^N * N); k at threshold t is then one more
than the largest s whose entry is below t (``k_from_diameters``), so one
table answers every epsilon. ``similarity_bruteforce`` reads it for one.

The distance table of discrete losses with few distinct values is C minus
a one-hot product (BLAS), one column per (case, value) pair present in the
matrix's rank codes (``ErrorMatrix.ranks``); the row loop stays for the
other cases and as the reference the product is tested against.

The sweep's graphs come from a symmetric distance table, so
``graph_from_distances`` freezes their adjacency without the symmetry check
and copy of the public ``SimilarityGraph`` constructor, and ``clique_number``
reorders rows and columns as two row gathers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import DedupProfile, ErrorMatrix, LossKind, _row_keys, _trusted, exact_fraction

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "SimilarityGraph",
    "SimilarityResult",
    "pairwise_distance_matrix",
    "far_distance_threshold",
    "graph_from_distances",
    "clique_number",
    "least_subset_diameters",
    "k_from_diameters",
    "similarity_bruteforce",
    "covariance_mean",
]

# Exact results on sparse 1000-vertex similarity graphs take well under this
# many expansions; dense pathological instances hit the cap and fall back to
# the [best clique found, coloring bound] bracket.
DEFAULT_NODE_BUDGET = 10_000_000

_BRUTEFORCE_LIMIT = 20

# Cut-off of the one-hot distance path (2 vCPU, one BLAS thread, numpy 2.4).
# Its cost grows with the (case, level) pairs present and the row loop's
# does not: with every pair present, at 300-616 rows x 100-150 cases it took
# 0.54-0.78 of the row loop's time at 32 levels, 0.77-1.07 at 48 and
# 1.01-1.49 at 64. The cut-off is provisional: no perfbench workload has more
# than 32 levels, so only these in-process timings measure the row loop's side.
_ONEHOT_MAX_LEVELS = 32
# One-hot cells per distance product (16 MB of float32): wide inputs take
# blocks of cases; 300 x 150 x 8 levels and 5000 x 200 x 4 take one block.
_ONEHOT_CELLS = 2**22
# Agreement counts up to C are exact integers in float32 while C < 2**24.
_FLOAT32_EXACT = 2**24


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
    by one one-hot matrix product over ``matrix.ranks``, the rank codes the
    selection runner reads too; otherwise by the row loop, which is also
    the reference the product is tested against.
    """
    delta = _resolve_delta(matrix.kind, delta)
    losses = matrix.losses
    if delta == 0.0 and losses.shape[1] < _FLOAT32_EXACT:
        n_levels = int(matrix.ranks.max()) + 1
        if n_levels <= _ONEHOT_MAX_LEVELS:
            return _onehot_distances(matrix.ranks, n_levels)
    return _row_loop_distances(losses, delta)


def _onehot_distances(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """Distances from level codes: C minus the cases each pair agrees on,
    counted by one product per block of cases over a float32 one-hot column
    per (case, level) pair present. Counts are integers <= C < 2**24: exact."""
    n, c = codes.shape
    step = max(1, _ONEHOT_CELLS // (n * n_levels))  # cases per block
    agree = None
    for start in range(0, c, step):
        block = codes[:, start : start + step]
        cells = block + np.arange(0, block.shape[1] * n_levels, n_levels, dtype=np.intp)  # (case, level) ids
        present = np.zeros(block.shape[1] * n_levels, dtype=bool)
        present[cells] = True
        p = present.size
        if not present.all():  # with every pair present, a pair's column is its id
            column = np.cumsum(present, dtype=np.intp) - 1  # each present pair's column
            p = int(column[-1]) + 1
            np.take(column, cells, out=cells)
        cells += np.arange(0, n * p, p)[:, None]  # flat offsets into the table
        onehot = np.zeros((n, p), dtype=np.float32)
        onehot.reshape(-1)[cells] = 1.0
        part = onehot @ onehot.T
        agree = part if agree is None else np.add(agree, part, out=agree)
    return np.subtract(c, agree, out=agree).astype(np.int32)


def _row_loop_distances(losses: np.ndarray, delta: float) -> np.ndarray:
    """Each row against the rows after it; the transpose fills the lower half."""
    n = losses.shape[0]
    out = np.zeros((n, n), dtype=np.int32)
    for i in range(n - 1):
        rest = losses[i + 1 :]
        far = rest != losses[i] if delta == 0.0 else np.abs(rest - losses[i]) > delta
        out[i, i + 1 :] = np.count_nonzero(far, axis=1)
    return out + out.T


def far_distance_threshold(epsilon, n_cases: int) -> int:
    """Smallest integer distance counting as 'far': min {d : d >= eps * C}.

    Computed with exact rational arithmetic, so eps = 0.05 on C = 20 cases
    yields exactly 1 (not 2, as naive float rounding of 0.05 * 20 would give).
    """
    eps = exact_fraction(epsilon)
    if not 0 < eps.numerator <= eps.denominator:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    return -(-eps.numerator * n_cases // eps.denominator)  # ceil, in integers: no Fraction built


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


def graph_from_distances(distances: np.ndarray, threshold: int) -> SimilarityGraph:
    """The similarity graph joining the pairs at distance below ``threshold``,
    the ``far_distance_threshold`` of an epsilon; every epsilon that maps to
    the same threshold has this graph.

    ``distances`` must be a symmetric square table, as
    ``pairwise_distance_matrix`` gives: the adjacency is then symmetric, and
    is frozen with no check or copy.
    """
    adjacency = distances < threshold
    np.fill_diagonal(adjacency, False)
    return _trusted(SimilarityGraph, n_vertices=distances.shape[0], adjacency=adjacency)


# ---------------------------------------------------------------------------
# Exact maximum clique: branch and bound on bitsets with greedy-coloring
# pruning from the highest-degree vertex down, started from a known clique.
# When the greedy clique meets the root coloring bound, as on a disjoint
# union of cliques, the answer is exact with no search. A candidate set
# whose coloring uses one color per vertex is a clique of m vertices and is
# closed in one step: its dive would expand exactly m nodes, each with one
# candidate fewer, end at size + 1 + m and then prune every sibling, since
# no remaining color can beat that. That clique always beats the best one:
# the vertex v just taken has color c because it has a neighbor in each of
# colors 1..c-1, all still candidates, so m >= c - 1 and size + 1 + m >=
# size + c, which exceeds the best clique or v would have been pruned. So
# the step adds m nodes and raises the best clique to size + 1 + m, or
# stops where the dive would have run out of budget; node counts and
# brackets are those of the full dive, at every budget.
# ---------------------------------------------------------------------------


def _bitsets(adjacency: np.ndarray) -> list[int]:
    """Each row as an int whose bit j is set iff the row's column j is."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return list(map(int.from_bytes, _row_keys(packed), repeat("little")))


def _greedy_clique(adj: list[int]) -> int:
    """Size of a clique grown by repeatedly taking the lowest candidate bit,
    which in degree order is the highest-degree candidate."""
    candidates = (1 << len(adj)) - 1
    size = 0
    while candidates:
        candidates &= adj[(candidates & -candidates).bit_length() - 1]
        size += 1
    return size


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
    vertices from the highest color down; returns (best, nodes, exhausted).

    A branch whose candidates take one color each is closed in one step (see
    the comment above): its m candidates form a clique that beats ``best``,
    so the dive into them would count m nodes, end at ``size + 1 + m`` and
    prune all its siblings. The step counts those m nodes, and when they
    overrun the budget it returns ``(best, budget + 1, True)``, where the
    dive stops, so node counts and results are unchanged.
    """
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
        m = 0
        if rest:
            sub_order, sub_colors = _color_sort(rest, adj)
            m = len(sub_order)
            if sub_colors[-1] < m:
                stack.append((size, order, colors, idx, live))
                order, colors, size, idx, live = sub_order, sub_colors, size + 1, m, rest
                continue
        # rest is a clique of m vertices, larger than best: close the branch.
        nodes += m
        if nodes > budget:
            return best, budget + 1, True
        best = size + 1 + m


def clique_number(
    graph: SimilarityGraph, node_budget: int = DEFAULT_NODE_BUDGET, *, lower_bound: int = 1
) -> SimilarityResult:
    """Exact clique number by branch and bound, or a sound bracket on budget.

    Vertices are preordered by degree, highest first (ties to the lower
    index), and each node is pruned with a greedy coloring bound. The search
    starts from the larger of a greedy clique and ``lower_bound``, the size
    of a clique known to be in the graph (the sweep passes the one found at
    the previous, smaller threshold). A larger start only prunes, so it never
    widens the bracket or adds nodes. A start above the root coloring bound
    raises ValueError, since no clique is that large; one at or below that
    bound is taken on trust. When the start meets the root coloring
    bound, as on a disjoint union of cliques, the search ends at its root:
    exact, with 0 nodes. When the budget runs out the result brackets the true
    value: the best clique found below, the root coloring bound above.
    """
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    n = graph.n_vertices
    if not 1 <= lower_bound <= max(n, 1):
        raise ValueError(f"lower_bound must be in [1, {max(n, 1)}], got {lower_bound}")
    if n == 0:
        return SimilarityResult(alpha_lower=1, alpha_upper=1, exact=True, search_nodes=0)
    degree = np.add.reduce(graph.adjacency.view(np.uint8), axis=1, dtype=np.int32)
    order = np.argsort(-degree, kind="stable")
    # Rows, then rows of the transpose, which are the columns: the adjacency
    # is symmetric, and a row gather is the cheaper one.
    adj = _bitsets(graph.adjacency[order].T[order])
    root_order, root_colors = _color_sort((1 << n) - 1, adj)
    upper = max(root_colors)
    if lower_bound > upper:
        raise ValueError(f"lower_bound {lower_bound} exceeds the coloring bound {upper}: no clique is that large")
    lower, nodes, exhausted = _search(adj, root_order, root_colors, max(lower_bound, _greedy_clique(adj)), node_budget)
    return SimilarityResult(
        alpha_lower=lower,
        alpha_upper=upper if exhausted else lower,
        exact=not exhausted,
        search_nodes=nodes,
    )


def least_subset_diameters(profile: DedupProfile) -> np.ndarray:
    """Entry s is the least diameter, the largest distance inside, over all
    s-row subsets of the unique rows (0 for s <= 1), for s = 0..N_unique.

    Exhaustive set-form oracle, independent of the clique solver and of the
    distance kernels, as it compares the rows directly: one numpy pass
    builds the diameter of each of the 2^N subsets from the subset without
    its highest row, and one more takes the least per size, in O(2^N * N)
    (about 8 ms at N = 20, 2 vCPU). Rejects N_unique > 20, and real losses,
    which need a delta.
    """
    n = profile.n_unique
    if n > _BRUTEFORCE_LIMIT:
        raise ValueError(f"bruteforce oracle limited to {_BRUTEFORCE_LIMIT} rows, got {n}")
    _resolve_delta(profile.unique.kind, None)
    losses = profile.unique.losses
    distances = (losses[:, None] != losses).sum(axis=2, dtype=np.int32)
    diameter = np.zeros(1 << n, dtype=distances.dtype)
    size = np.zeros(1 << n, dtype=np.int8)
    for v in range(n):
        low = 1 << v
        # reach[r]: largest distance from row v to a row of subset r < 2^v
        reach = np.zeros(low, dtype=distances.dtype)
        for u in range(v):
            np.maximum(reach[: 1 << u], distances[v, u], out=reach[1 << u : 2 << u])
        np.maximum(diameter[:low], reach, out=diameter[low : 2 * low])
        np.add(size[:low], 1, out=size[low : 2 * low])
    least = np.full(n + 1, np.iinfo(diameter.dtype).max, dtype=diameter.dtype)
    np.minimum.at(least, size, diameter)
    return least


def k_from_diameters(least: np.ndarray, threshold: int) -> int:
    """Set-form k at a ``far_distance_threshold``: one more than the largest s
    with an s-row subset whose pairs all lie below ``threshold``."""
    return 1 + int(np.flatnonzero(least < threshold)[-1])


def similarity_bruteforce(profile: DedupProfile, epsilon) -> int:
    """Direct set-form evaluation: smallest k >= 2 such that every k-subset
    contains a pair at distance >= eps * C; N_unique + 1 when none exists.

    Read from ``least_subset_diameters``; test oracle only.
    """
    threshold = far_distance_threshold(epsilon, profile.n_cases)
    return k_from_diameters(least_subset_diameters(profile), threshold)


def covariance_mean(matrix: ErrorMatrix) -> float:
    """Mean of the N x N covariance matrix of the individuals' error vectors.

    Entry (i, j) is the sample covariance (divisor C - 1) of rows i and j
    across cases; the mean runs over all N^2 entries including variances.
    """
    if matrix.n_cases < 2:
        raise ValueError("covariance_mean requires at least 2 cases")
    cov = np.atleast_2d(np.cov(matrix.losses))
    return float(cov.mean())
