"""Seeded inputs for the three benchmark workloads.

Inputs are generated here with numpy's legacy ``RandomState`` (whose streams
numpy keeps frozen across releases), never with lexibound's own generators,
so a change to the program cannot change what it is measured on. Every
generator returns the matrix the CLI will read and its unique rows, which
the output checks need.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Cluster centers use values 0..3 and each member's designated case is bumped
# by 4, so every cell is a single decimal digit (see ``csv_bytes``).
CENTER_LEVELS = 4


@dataclass(frozen=True)
class Population:
    """One generated error matrix as the CLI sees it."""

    rows: np.ndarray  # all individuals, clones included, in file order
    unique: np.ndarray  # one row per behaviour

    @property
    def n_original(self) -> int:
        return self.rows.shape[0]

    @property
    def n_unique(self) -> int:
        return self.unique.shape[0]

    @property
    def n_cases(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "analyze", "simulate" or "verify"
    generations: int  # populations per pass (0 for verify)
    spec: dict  # generator parameters
    extra_argv: tuple[str, ...] = ()


# Why each workload exists, and what it should stress, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_converged",
            "analyze",
            generations=4,
            spec={"kind": "clustered", "n": 300, "c": 150, "clusters": 4, "spread": 0.1, "clones": 3},
            extra_argv=("--budget", "120"),
        ),
        Workload(
            "simulate_converged",
            "simulate",
            generations=1,
            spec={"kind": "clustered", "n": 400, "c": 100, "clusters": 8, "spread": 0.05, "clones": 3},
            extra_argv=("--trials", "3000", "--check-bound", "--epsilon", "0.15"),
        ),
        Workload(
            "verify_fast",
            "verify",
            generations=0,
            spec={},
            extra_argv=("--level", "fast"),
        ),
    )
}


def _random_state(seed: int, workload: str, generation: int) -> np.random.RandomState:
    digest = hashlib.sha256(f"{workload}/{seed}/{generation}".encode()).digest()
    return np.random.RandomState(np.frombuffer(digest, dtype=np.uint32))


def _clustered(
    rs: np.random.RandomState, n: int, c: int, clusters: int, spread: float, clones: int
) -> Population:
    """Clusters as in lexibound's ``clustered`` generator, then behavioural clones.

    Centers differ on at least ceil(c/2) cases. Each member changes up to
    floor(spread * c) of the non-designated cases of its center and bumps its
    own designated case, so members are distinct and within-cluster
    distances lie in [2, 2 (floor(spread c) + 1)]. Each unique row is then
    repeated 1..clones times and the rows are shuffled.
    """
    sizes = [n // clusters + (1 if g < n % clusters else 0) for g in range(clusters)]
    separation = math.ceil(c / 2)
    budget = math.floor(spread * c)
    free = np.arange(sizes[0], c)
    if 2 * (budget + 1) >= separation or len(free) < budget:
        raise ValueError("spread too large for the number of cases")
    while True:
        centers = rs.randint(0, CENTER_LEVELS, size=(clusters, c))
        if all(
            np.count_nonzero(centers[a] != centers[b]) >= separation
            for a in range(clusters)
            for b in range(a + 1, clusters)
        ):
            break
    unique = np.empty((n, c), dtype=np.int8)
    row = 0
    for g, size in enumerate(sizes):
        for member in range(size):
            values = centers[g].copy()
            count = rs.randint(0, budget + 1)
            cases = rs.choice(free, size=count, replace=False)
            values[cases] = (values[cases] + 1 + rs.randint(0, CENTER_LEVELS - 1, size=count)) % CENTER_LEVELS
            values[member] += CENTER_LEVELS
            unique[row] = values
            row += 1
    repeats = rs.randint(1, clones + 1, size=n)
    order = rs.permutation(np.repeat(np.arange(n), repeats))
    return Population(rows=unique[order], unique=unique)


def generate(workload: Workload, seed: int, generation: int) -> Population:
    spec = dict(workload.spec)
    kind = spec.pop("kind")
    rs = _random_state(seed, workload.name, generation)
    if kind == "clustered":
        return _clustered(rs, **spec)
    raise ValueError(f"unknown generator {kind!r}")


def csv_bytes(rows: np.ndarray) -> bytes:
    """The CSV interchange format (header plus one line per row), built in
    numpy: every cell is one digit, so each line is digits joined by commas."""
    n, c = rows.shape
    if rows.min() < 0 or rows.max() > 9:
        raise ValueError("csv_bytes writes single-digit cells only")
    body = np.full((n, 2 * c), ord(","), dtype=np.uint8)
    body[:, 0::2] = rows.astype(np.uint8) + ord("0")
    body[:, -1] = ord("\n")
    header = ",".join(f"case_{j}" for j in range(c)) + "\n"
    return header.encode() + body.tobytes()
