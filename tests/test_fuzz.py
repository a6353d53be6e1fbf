"""Fuzz the input boundary: any small file is a matrix or a clean input error.

``read_matrix_csv`` either returns a matrix or raises ``MatrixError``, and the
CLI answers every file with exit 0 or 2, never with an uncaught exception.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lexibound import cli
from lexibound.core import ErrorMatrix, MatrixError, read_matrix_csv

# Raw bytes exercise decoding, text over the CSV alphabet the row and cell
# rules, and rectangular rows of mostly valid cells the commands behind them.
CELLS = st.sampled_from(["0", "1", "2", "-3", "0.5", "1e3", " 7 "] * 10 + ["nan", "", "x", "9007199254740993"])
FILES = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789-+.,eE_ \t\r\n\"xnaif", max_size=200).map(str.encode),
    st.integers(1, 6)
    .flatmap(lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), min_size=1, max_size=10))
    .map(lambda rows: "\n".join(",".join(row) for row in rows).encode()[:200]),
)


def _in_file(data: bytes, run):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(data)
        return run(str(path))


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read(path: str):
    try:
        return read_matrix_csv(path)
    except MatrixError:
        return None


@settings(max_examples=150, deadline=None)
@given(FILES)
def test_read_matrix_csv_returns_matrix_or_raises_matrix_error(data):
    matrix = _in_file(data, _read)
    assert matrix is None or isinstance(matrix, ErrorMatrix)


@settings(max_examples=60, deadline=None)
@given(FILES, st.sampled_from([[], ["--delta", "0"]]))
def test_analyze_exits_0_or_2(data, extra):
    assert _in_file(data, lambda path: _main(["analyze", path, "--budget", "200"] + extra)) in (0, 2)


@settings(max_examples=60, deadline=None)
@given(FILES, st.sampled_from([[], ["--binarize-mad"]]))
def test_simulate_exits_0_or_2(data, extra):
    assert _in_file(data, lambda path: _main(["simulate", path, "--trials", "20"] + extra)) in (0, 2)
