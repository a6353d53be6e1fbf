"""Synthetic population generators with exactly assertable distance structure.

Five constructions: the single-discriminating-case adversarial population,
its binary log-width variant, the two-opposite-clusters counterexample
(large average distance, minimal cluster diversity), i.i.d. uniform random
populations, and a parametrized multi-cluster family. All emit duplicate-free
DISCRETE matrices and are deterministic functions of their GenSpec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import ErrorMatrix, LossKind, RngStream

__all__ = [
    "GenKind",
    "GenSpec",
    "GenerationError",
    "gen_adversarial_single_case",
    "gen_log_binary",
    "gen_two_cluster",
    "gen_random_uniform",
    "gen_clustered",
    "with_real_jitter",
    "generate",
]

_MAX_RETRY_ROUNDS = 1000
_CENTER_LEVELS = 4
_SPEC_KEYS = ("kind", "n", "c", "seed", "params")


class GenerationError(RuntimeError):
    """Generator could not satisfy its constraints (parameters too tight)."""


class GenKind(str, Enum):
    ADVERSARIAL_SINGLE_CASE = "adversarial_single_case"
    LOG_BINARY = "log_binary"
    TWO_CLUSTER = "two_cluster"
    RANDOM_UNIFORM = "random_uniform"
    CLUSTERED = "clustered"


# The params each kind reads, as name: (type, default).
_KIND_PARAMS = {
    GenKind.RANDOM_UNIFORM: {"levels": (int, 4)},
    GenKind.CLUSTERED: {"clusters": (int, 2), "spread": (float, 0.05)},
}


def _as_int(value, key: str) -> int:
    """``int(value)``, refusing a bool and a float ``int`` would change:
    6.7 is not silently 6, nor ``true`` 1 (the text "6" still reads as 6)."""
    number = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return number


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of a generated population.

    ``params`` holds the kind-specific knobs: ``levels`` for random_uniform,
    ``clusters``/``spread`` for clustered. Serializes to/from JSON.
    """

    kind: GenKind
    n: int
    c: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_json(text: str) -> "GenSpec":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("GenSpec JSON must be an object")
        unknown = [key for key in raw if key not in _SPEC_KEYS]
        if unknown:
            raise ValueError(f"invalid GenSpec: unknown key {unknown[0]!r} (keys: {', '.join(_SPEC_KEYS)})")
        try:
            kind = GenKind(raw["kind"])
            n = _as_int(raw["n"], "n")
            c = _as_int(raw["c"], "c")
            seed = _as_int(raw.get("seed", 0), "seed")
            if not 0 <= seed < 2**64:  # RngStream reads seeds modulo 2**64
                raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid GenSpec: {exc}") from exc
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("GenSpec params must be an object")
        return GenSpec(kind=kind, n=n, c=c, seed=seed, params=dict(params))


def gen_adversarial_single_case(n: int, c: int) -> ErrorMatrix:
    """Rows identical everywhere except case 0, where all losses differ.

    The selection pool cannot shrink before case 0 is drawn, so expected
    evaluations are n * (c + 1) / 2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    losses = np.zeros((n, c), dtype=np.float64)
    losses[:, 0] = np.arange(n)
    return ErrorMatrix(losses, kind=LossKind.DISCRETE)


def gen_log_binary(n: int, c: int) -> ErrorMatrix:
    """All n binary patterns on the first log2(n) cases, zeros elsewhere.

    Duplicate-free with pairwise distances <= log2(n); the pool only shrinks
    once one of those log2(n) cases is drawn.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    bits = n.bit_length() - 1
    if c < bits:
        raise ValueError(f"c must be >= log2(n) = {bits}, got {c}")
    losses = np.zeros((n, c), dtype=np.float64)
    for i in range(n):
        for b in range(bits):  # case 0 carries the most significant bit
            losses[i, b] = (i >> (bits - 1 - b)) & 1
    return ErrorMatrix(losses, kind=LossKind.DISCRETE)


def gen_two_cluster(n: int, c: int) -> ErrorMatrix:
    """Two clusters in opposite corners of phenotype space.

    Cluster A sits on the all-0 base row, cluster B on all-1; member j of
    each cluster bumps its own designated case j (A to 2, B to 0), which
    keeps the matrix duplicate-free with within-cluster distances exactly 2
    and between-cluster distances c or c-1. Average pairwise distance is
    large while every epsilon-cluster at eps <= (c-1)/c spans half the
    population.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    half = n // 2
    if c < half:
        raise ValueError(f"c must be >= n/2 = {half}, got {c}")
    losses = np.zeros((n, c), dtype=np.float64)
    for j in range(half):
        losses[j, j] = 2.0
    losses[half:] = 1.0
    for j in range(half):
        losses[half + j, j] = 0.0
    return ErrorMatrix(losses, kind=LossKind.DISCRETE)


def gen_random_uniform(n: int, c: int, levels: int, rng: RngStream) -> ErrorMatrix:
    """i.i.d. uniform losses on {0..levels-1}, redrawn until duplicate-free."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    src = rng.source()
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(n):
        rows.append(tuple(src.randbelow(levels) for _ in range(c)))
    for _ in range(_MAX_RETRY_ROUNDS):
        seen.clear()
        collisions = []
        for i, row in enumerate(rows):
            if row in seen:
                collisions.append(i)
            else:
                seen.add(row)
        if not collisions:
            return ErrorMatrix(np.array(rows, dtype=np.float64), kind=LossKind.DISCRETE)
        for i in collisions:
            rows[i] = tuple(src.randbelow(levels) for _ in range(c))
    raise GenerationError(
        f"could not reach {n} distinct rows with c={c}, levels={levels} "
        f"after {_MAX_RETRY_ROUNDS} retry rounds"
    )


def gen_clustered(
    n: int, c: int, clusters: int, spread: float, rng: RngStream
) -> ErrorMatrix:
    """Cluster centers at pairwise distance >= ceil(c/2); members perturb
    their center on at most floor(spread * c) non-designated cases.

    Designated cases (one per member, shared index range across clusters)
    carry an out-of-alphabet bump, which guarantees duplicate-freeness and
    within-cluster distances in [2, 2 (floor(spread c) + 1)]. Requires the
    perturbation budget to stay below half the center separation so clusters
    remain distinguishable.
    """
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    if n < clusters:
        raise ValueError(f"n must be >= clusters, got n={n}, clusters={clusters}")
    if not 0 <= spread < 1:
        # floor(spread * c) perturbations never fit in c cases once spread >= 1.
        raise ValueError(f"spread must be finite and in [0, 1), got {spread}")
    base, remainder = divmod(n, clusters)
    sizes = [base + 1 if g < remainder else base for g in range(clusters)]
    max_size = sizes[0]
    separation = math.ceil(c / 2)
    budget = math.floor(spread * c)
    if c < max_size:
        raise ValueError(f"c must be >= max cluster size {max_size}, got {c}")
    if clusters > 1 and 2 * (budget + 1) >= separation:
        raise ValueError(
            f"spread budget {budget} too large: need 2*(budget+1) < ceil(c/2) = {separation}"
        )
    if c - max_size < budget:
        raise ValueError(
            f"not enough non-designated cases for perturbation: c - {max_size} < {budget}"
        )

    src = rng.source()
    centers = None
    for _ in range(_MAX_RETRY_ROUNDS):
        candidate = [
            [src.randbelow(_CENTER_LEVELS) for _ in range(c)] for _ in range(clusters)
        ]
        if all(
            sum(1 for x, y in zip(candidate[a], candidate[b]) if x != y) >= separation
            for a in range(clusters)
            for b in range(a + 1, clusters)
        ):
            centers = candidate
            break
    if centers is None:
        raise GenerationError(
            f"could not place {clusters} centers at separation {separation} on {c} cases"
        )

    losses = np.zeros((n, c), dtype=np.float64)
    row = 0
    free_cases = list(range(max_size, c))
    for g in range(clusters):
        for member in range(sizes[g]):
            values = list(centers[g])
            count = src.randbelow(budget + 1) if budget else 0
            # partial Fisher-Yates over the non-designated cases
            for i in range(count):
                j = i + src.randbelow(len(free_cases) - i)
                free_cases[i], free_cases[j] = free_cases[j], free_cases[i]
            for case in free_cases[:count]:
                values[case] = (values[case] + 1 + src.randbelow(_CENTER_LEVELS - 1)) % _CENTER_LEVELS
            values[member] = centers[g][member] + _CENTER_LEVELS  # designated bump
            losses[row] = values
            row += 1
    return ErrorMatrix(losses, kind=LossKind.DISCRETE)


def with_real_jitter(matrix: ErrorMatrix, delta: float, rng: RngStream) -> ErrorMatrix:
    """Real-valued copy whose delta-distances equal the discrete distances.

    Discrete values are scaled by 2*delta and jittered by U[0, delta/4):
    equal cells land within delta/4 of each other, different cells at least
    1.5*delta apart, so counting |difference| > delta reproduces the exact
    discrete disagreement count.
    """
    matrix.require_kind(LossKind.DISCRETE, "with_real_jitter")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    src = rng.source()
    jitter = np.array(
        [[src.random() * delta / 4 for _ in range(matrix.n_cases)] for _ in range(matrix.n_individuals)]
    )
    jittered = matrix.losses * (2.0 * delta) + jitter
    return ErrorMatrix(jittered, kind=LossKind.REAL)


def generate(spec: GenSpec) -> ErrorMatrix:
    """Build the population described by a GenSpec (deterministic in seed).

    Params are converted to the types their kind reads, with defaults for
    absent ones; a param the kind does not read is an error, not ignored.
    """
    known = _KIND_PARAMS.get(spec.kind, {})
    unknown = [key for key in spec.params if key not in known]
    if unknown:
        reads = ", ".join(known) or "none"
        raise ValueError(f"invalid GenSpec: {spec.kind.value} reads no param {unknown[0]!r} (params: {reads})")
    params = {}
    for key, (kind, default) in known.items():
        value = spec.params.get(key, default)
        try:
            params[key] = _as_int(value, key) if kind is int else kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid GenSpec param {key!r}: {exc}") from None
    if spec.kind is GenKind.ADVERSARIAL_SINGLE_CASE:
        return gen_adversarial_single_case(spec.n, spec.c)
    if spec.kind is GenKind.LOG_BINARY:
        return gen_log_binary(spec.n, spec.c)
    if spec.kind is GenKind.TWO_CLUSTER:
        return gen_two_cluster(spec.n, spec.c)
    if spec.kind is GenKind.RANDOM_UNIFORM:
        return gen_random_uniform(spec.n, spec.c, params["levels"], RngStream(spec.seed))
    if spec.kind is GenKind.CLUSTERED:
        return gen_clustered(spec.n, spec.c, params["clusters"], params["spread"], RngStream(spec.seed))
    raise ValueError(f"unknown generator kind: {spec.kind}")
