"""Shared domain types: loss matrices, behavioral deduplication, seeded RNG streams.

All other modules build on the types here. Matrices are immutable after
construction and safe to share across concurrent tasks; every stochastic
operation takes an explicit :class:`RngStream`, so there is no global RNG
state anywhere in the package.

:func:`read_matrix_csv` reads all-integer files with numpy's C parser and
every other file, and every error, with the per-cell reference reader.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np

__all__ = [
    "LossKind",
    "MatrixError",
    "KindMismatchError",
    "ExponentError",
    "ErrorMatrix",
    "DedupProfile",
    "RandomSource",
    "RngStream",
    "randbelow_array",
    "deduplicate",
    "identity_profile",
    "exact_fraction",
    "read_matrix_csv",
    "write_matrix_csv",
]

# Largest integer magnitude exactly representable in a float64 cell.
_MAX_EXACT_INT = float(2**53)


class LossKind(Enum):
    """How loss values compare: exact equality vs. a tolerance at use sites."""

    DISCRETE = "discrete"
    REAL = "real"


class MatrixError(ValueError):
    """Malformed loss matrix: bad shape, non-finite cells, or parse failure."""


class KindMismatchError(MatrixError):
    """An operation received the wrong LossKind (e.g. real losses where
    discrete ones are required; binarize real losses first)."""


# Fraction expands a decimal exponent e into 10**e: 7 ms at e = 10**5, over
# 100 s at 10**7 (2 vCPU, Python 3.11). An epsilon that far from 1 is out of
# range anyway; beyond this cut-off it is rejected before parsing.
_MAX_DECIMAL_EXPONENT = 100_000
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


class ExponentError(ValueError):
    """A decimal literal whose exponent is too large to expand exactly."""


def exact_fraction(value) -> Fraction:
    """Read a threshold/grid parameter as an exact rational.

    Floats go through their shortest round-trip decimal (``str``), so 0.05
    means exactly 1/20 rather than the nearest binary float. Strings and
    Fractions pass through unchanged in value. A decimal exponent beyond
    ±100000 raises ExponentError at once.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    text = str(value)
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > 6 or int(digits or 0) > _MAX_DECIMAL_EXPONENT:
            raise ExponentError(f"{text!r} has a decimal exponent beyond ±{_MAX_DECIMAL_EXPONENT}")
    return Fraction(text)


@dataclass(frozen=True, eq=False)
class ErrorMatrix:
    """N x C table of per-case losses for a population.

    Entries are stored as float64 regardless of kind; DISCRETE matrices must
    contain exactly representable integers (validated on construction). The
    array is frozen (read-only) after construction.
    """

    losses: np.ndarray
    kind: LossKind = LossKind.DISCRETE

    def __post_init__(self):
        arr = np.asarray(self.losses, dtype=np.float64)
        if arr.ndim != 2:
            raise MatrixError(f"losses must be 2-dimensional, got shape {arr.shape}")
        n, c = arr.shape
        if n < 1 or c < 1:
            raise MatrixError(f"matrix must be at least 1x1, got {n}x{c}")
        if not np.isfinite(arr).all():
            raise MatrixError("losses contain NaN or infinite entries")
        if self.kind is LossKind.DISCRETE:
            if not (arr == np.trunc(arr)).all():
                raise MatrixError("discrete matrix contains non-integer entries")
            if np.abs(arr).max() > _MAX_EXACT_INT:
                raise MatrixError("discrete entries exceed exact float64 integer range")
        # Copy, canonicalise -0.0 to 0.0 (keeps row byte-signatures unique),
        # and freeze.
        arr = arr + 0.0
        arr.flags.writeable = False
        object.__setattr__(self, "losses", arr)

    @property
    def n_individuals(self) -> int:
        return self.losses.shape[0]

    @property
    def n_cases(self) -> int:
        return self.losses.shape[1]

    def row_bytes(self, i: int) -> bytes:
        """Canonical byte signature of row i (valid dedup key for DISCRETE)."""
        return self.losses[i].tobytes()

    def require_kind(self, kind: LossKind, operation: str) -> None:
        if self.kind is not kind:
            hint = " (binarize real-valued losses first)" if kind is LossKind.DISCRETE else ""
            raise KindMismatchError(
                f"{operation} requires {kind.value} losses, got {self.kind.value}{hint}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErrorMatrix):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.losses.shape == other.losses.shape
            and self.losses.tobytes() == other.losses.tobytes()
        )

    def __repr__(self) -> str:
        return f"ErrorMatrix({self.n_individuals}x{self.n_cases}, {self.kind.value})"


@dataclass(frozen=True, eq=False)
class DedupProfile:
    """Unique behavioral rows plus the clone groups behind each row.

    ``groups[u]`` lists the original individual indices (ascending) whose loss
    vector equals row ``u`` of ``unique``. Groups partition the original
    population.
    """

    unique: ErrorMatrix
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.groups) != self.unique.n_individuals:
            raise MatrixError(
                f"{len(self.groups)} groups for {self.unique.n_individuals} unique rows"
            )
        groups = tuple(tuple(g) for g in self.groups)
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise MatrixError("empty clone group")
            if list(g) != sorted(g):
                raise MatrixError("clone group indices must be ascending")
            if seen.intersection(g):
                raise MatrixError("clone groups overlap")
            seen.update(g)
        if seen != set(range(len(seen))):
            raise MatrixError("clone groups do not partition 0..N-1")
        if self.unique.kind is LossKind.DISCRETE:
            signatures = {self.unique.row_bytes(i) for i in range(self.unique.n_individuals)}
            if len(signatures) != self.unique.n_individuals:
                raise MatrixError("unique matrix contains duplicate rows")
        object.__setattr__(self, "groups", groups)

    @property
    def n_unique(self) -> int:
        return self.unique.n_individuals

    @property
    def n_original(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def n_cases(self) -> int:
        return self.unique.n_cases

    def expand_rows(self) -> np.ndarray:
        """Reconstruct the original N x C loss table from unique rows + groups."""
        out = np.empty((self.n_original, self.n_cases), dtype=np.float64)
        for u, group in enumerate(self.groups):
            for i in group:
                out[i] = self.unique.losses[u]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DedupProfile):
            return NotImplemented
        return self.unique == other.unique and self.groups == other.groups


def deduplicate(matrix: ErrorMatrix) -> DedupProfile:
    """Collapse behavioral clones: one row per distinct loss vector.

    Unique rows keep first-occurrence order; each group lists the original
    indices sharing that behavior, ascending. Rejects REAL matrices: tolerance
    equality is not transitive, so real losses must be binarized first.
    """
    matrix.require_kind(LossKind.DISCRETE, "deduplicate")
    index_of: dict[bytes, int] = {}
    order: list[int] = []
    groups: list[list[int]] = []
    for i in range(matrix.n_individuals):
        key = matrix.row_bytes(i)
        u = index_of.get(key)
        if u is None:
            index_of[key] = len(order)
            order.append(i)
            groups.append([i])
        else:
            groups[u].append(i)
    unique = ErrorMatrix(matrix.losses[order], kind=matrix.kind)
    return DedupProfile(unique=unique, groups=tuple(tuple(g) for g in groups))


def identity_profile(matrix: ErrorMatrix) -> DedupProfile:
    """Wrap a matrix as a profile where every row is its own behavior.

    Intended for REAL matrices (where exact dedup is undefined) and for
    duplicate-free DISCRETE ones; a DISCRETE matrix with duplicate rows is
    rejected, since that would break the profile's uniqueness invariant.
    """
    groups = tuple((i,) for i in range(matrix.n_individuals))
    return DedupProfile(unique=matrix, groups=groups)


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# The same finalizer over uint64 arrays, whose multiplication wraps mod 2^64.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MAX_U64 = np.uint64(_MASK64)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def randbelow_array(states: np.ndarray, bound) -> np.ndarray:
    """:meth:`RandomSource.randbelow` for many sources at once.

    ``states`` holds one splitmix64 state per source and advances in place;
    ``bound`` is one int in [1, 2^63) for every source or an int array
    aligned with ``states``. Each source draws exactly the values its scalar
    :class:`RandomSource` would, rejections included.
    """
    bound = np.asarray(bound, dtype=np.uint64)
    # Largest accepted draw: 2^64 - (2^64 mod n) - 1, without leaving uint64.
    top = _MAX_U64 - (_MAX_U64 % bound + np.uint64(1)) % bound
    states += _GOLDEN_U64
    draws = _mix64_array(states)
    redo = np.flatnonzero(draws > top)
    while redo.size:
        states[redo] += _GOLDEN_U64
        draws[redo] = _mix64_array(states[redo])
        redo = redo[draws[redo] > (top if top.ndim == 0 else top[redo])]
    draws %= bound
    return draws.astype(np.intp)


class RandomSource:
    """Mutable splitmix64 generator; one instance per selection event/trial.

    Pure 64-bit integer arithmetic, so sequences are bit-identical across
    platforms and Python versions. Construction is O(1), which matters when
    millions of independent trial streams are spawned.
    """

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n); unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randbelow bound must be positive, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class RngStream:
    """Addressable deterministic random stream.

    The same ``(master_seed, stream_index)`` pair yields an identical value
    sequence on every run and in any number of concurrent tasks. Substreams
    derived from distinct indices of the same parent are guaranteed distinct
    (the index map is injective per parent).
    """

    master_seed: int
    stream_index: int = 0

    def source(self) -> RandomSource:
        state = _mix64(_mix64(self.master_seed & _MASK64) ^ (self.stream_index & _MASK64))
        return RandomSource(state)

    def substream(self, index: int) -> "RngStream":
        child = _mix64(_mix64(self.stream_index & _MASK64) ^ (index & _MASK64))
        return RngStream(self.master_seed, child)

    def substream_states(self, start: int, stop: int) -> np.ndarray:
        """Initial states of ``substream(i).source()`` for i in [start, stop),
        as a uint64 array (see :func:`randbelow_array`)."""
        index = np.arange(start, stop, dtype=np.uint64)
        child = _mix64_array(index ^ np.uint64(_mix64(self.stream_index & _MASK64)))
        return _mix64_array(child ^ np.uint64(_mix64(self.master_seed & _MASK64)))


# ---------------------------------------------------------------------------
# CSV interchange format
# ---------------------------------------------------------------------------
#
# One matrix per file: an optional first header row (case_0,case_1,...), then
# one row of decimal numbers per individual. The first row is a header only
# when none of its cells is a number, so a typo in a data row is an error; a
# header is checked for width and skipped, and its cells are not kept. A
# sidecar descriptor at <file>.json may declare {"kind": "discrete"|"real"};
# without it, the kind defaults to discrete when every cell is an integer literal.


def _is_int_literal(cell: str) -> bool:
    try:
        int(cell)
        return True
    except ValueError:
        return False


def _is_float_literal(cell: str) -> bool:
    if "_" in cell:  # float() reads Python's digit separators: "1_0" is 10.0
        return False
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _sidecar_kind(path: Path) -> LossKind | None:
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        return None
    try:
        descriptor = json.loads(sidecar.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MatrixError(f"{sidecar}: invalid JSON descriptor: {exc}") from exc
    if not isinstance(descriptor, dict):
        raise MatrixError(f"{sidecar}: descriptor must be a JSON object, got {type(descriptor).__name__}")
    kind = descriptor.get("kind")
    if kind not in ("discrete", "real"):
        raise MatrixError(f"{sidecar}: descriptor kind must be 'discrete' or 'real', got {kind!r}")
    return LossKind(kind)


def _is_header(row: list[str]) -> bool:
    """Whether the first row is a header: none of its stripped cells is a number."""
    return not any(_is_float_literal(cell.strip()) for cell in row)


def _read_lines(path: Path) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()  # trailing blank lines end the file; blank lines inside it are errors
    return lines


def read_matrix_csv(path: str | Path) -> ErrorMatrix:
    """Parse a loss matrix from CSV (with optional sidecar kind descriptor).

    Raises :class:`MatrixError` naming the offending 1-based line on ragged
    or non-numeric rows.

    A file of plain integer cells is read by numpy's C parser. That path
    accepts only a subset of what the per-cell reference reader accepts, and
    reads it to the same values; anything else, every error included, goes
    through the reference reader, which writes all error messages.
    """
    path = Path(path)
    lines = _read_lines(path)
    losses = _read_int_body(lines)
    if losses is None:
        return _read_matrix_reference(path, lines)
    return ErrorMatrix(losses, kind=_sidecar_kind(path) or LossKind.DISCRETE)


def _read_int_body(lines: list[str]) -> np.ndarray | None:
    """The int64 body of an all-integer file, or None.

    None means the reference reader must decide: a cell that is not a plain
    int64 literal, a blank line inside the body (``loadtxt`` would skip it), a
    ragged row, a header of the wrong width, or a cell beyond 2**53.
    """
    if not lines:
        return None
    try:
        # strict: a quote left open on the first line would continue onto the
        # next lines in the reference reader's first row.
        first = next(csv.reader(lines[:1], strict=True))
    except csv.Error:
        return None
    header = _is_header(first)
    body = lines[1:] if header else lines
    if not body:
        return None
    try:
        with warnings.catch_warnings():
            # numpy releases that still carry the 1.23 deprecation of "parsing
            # an integer via a float" read "0.5" as 0 and "5.0" as 5, warning
            # only; as an error, such a cell sends the file to the reference.
            warnings.simplefilter("error", DeprecationWarning)
            losses = np.loadtxt(body, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    if losses.shape[0] != len(body) or (header and len(first) != losses.shape[1]):
        return None
    # Compared as ints: abs() overflows at the int64 minimum, and a float
    # bound would round 2**53 + 1 down to 2**53.
    if (losses > 2**53).any() or (losses < -(2**53)).any():
        return None
    return losses


def _read_matrix_reference(path: Path, lines: list[str]) -> ErrorMatrix:
    """The per-cell reader: every file the fast path declines, and the
    reference it is tested against."""
    reader = csv.reader(lines)
    try:
        rows = list(reader)
    except csv.Error as exc:  # such as a cell beyond the csv module's field size limit
        raise MatrixError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise MatrixError(f"{path}: empty file")

    header = rows[0] if _is_header(rows[0]) else None
    start_line = 1
    if header is not None:
        start_line = 2
        rows = rows[1:]
        if not rows:
            raise MatrixError(f"{path}: header but no data rows")

    width = len(rows[0])
    data: list[list[float]] = []
    all_int = True
    for offset, row in enumerate(rows):
        lineno = start_line + offset
        cells = [cell.strip() for cell in row]
        if len(cells) != width:
            raise MatrixError(f"{path}: line {lineno}: expected {width} cells, got {len(cells)}")
        parsed: list[float] = []
        for col, cell in enumerate(cells):
            if not _is_float_literal(cell):
                raise MatrixError(f"{path}: line {lineno}: cell {col + 1} is not a number: {cell!r}")
            if all_int and not _is_int_literal(cell):
                all_int = False
            parsed.append(float(cell))
        data.append(parsed)
    if header is not None and len(header) != width:
        raise MatrixError(f"{path}: header has {len(header)} labels for {width} columns")
    losses = np.array(data, dtype=np.float64)
    for row, col in np.argwhere(np.abs(losses) >= _MAX_EXACT_INT).tolist():
        cell = rows[row][col].strip()
        if _is_int_literal(cell) and abs(int(cell)) > _MAX_EXACT_INT:
            raise MatrixError(
                f"{path}: line {start_line + row}: cell {col + 1} is an integer beyond 2**53, "
                f"which float64 cannot hold exactly: {cell!r}"
            )

    kind = _sidecar_kind(path)
    if kind is None:
        kind = LossKind.DISCRETE if all_int else LossKind.REAL
    try:
        return ErrorMatrix(losses, kind=kind)
    except MatrixError as exc:
        raise MatrixError(f"{path}: {exc}") from exc


def write_matrix_csv(matrix: ErrorMatrix, path: str | Path) -> None:
    """Write a matrix in the CSV interchange format (byte-stable output).

    A header ``case_0,...,case_{C-1}``, then one line per row: discrete
    entries as bare integers, real ones via repr (exact round-trip).
    """
    lines = [",".join(f"case_{c}" for c in range(matrix.n_cases))]
    discrete = matrix.kind is LossKind.DISCRETE
    for row in matrix.losses:
        if discrete:
            lines.append(",".join(str(int(v)) for v in row))
        else:
            lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
