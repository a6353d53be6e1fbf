import csv
import json
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexibound import core
from lexibound.core import (
    DedupProfile,
    ErrorMatrix,
    ExponentError,
    KindMismatchError,
    LossKind,
    MatrixError,
    RngStream,
    deduplicate,
    exact_fraction,
    identity_profile,
    randbelow_array,
    read_matrix_csv,
    write_matrix_csv,
)
from lexibound.popgen import gen_random_uniform

from conftest import dmatrix, rmatrix
from test_fuzz import FILES


class TestErrorMatrix:
    def test_shape_and_counts(self):
        m = dmatrix([[0, 1, 2], [3, 4, 5]])
        assert m.n_individuals == 2
        assert m.n_cases == 3

    def test_rejects_empty(self):
        with pytest.raises(MatrixError):
            ErrorMatrix(np.zeros((0, 3)))
        with pytest.raises(MatrixError):
            ErrorMatrix(np.zeros((3, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixError):
            rmatrix([[0.0, float("nan")]])
        with pytest.raises(MatrixError):
            rmatrix([[0.0, float("inf")]])

    def test_rejects_three_dimensions(self):
        with pytest.raises(MatrixError, match="2-dimensional"):
            ErrorMatrix(np.zeros((2, 2, 2)))

    def test_rejects_discrete_entries_beyond_exact_integers(self):
        ErrorMatrix(np.array([[2.0**53]]))  # the largest exact magnitude is fine
        with pytest.raises(MatrixError, match="exceed exact float64 integer range"):
            ErrorMatrix(np.array([[0.0, 2.0**53 + 2]]))

    @pytest.mark.parametrize("value", [2**53 + 1, -(2**53) - 1, np.iinfo(np.int64).min])
    def test_rejects_integer_entries_beyond_exact_floats(self, value):
        # checked as integers: the float copy would round 2**53 + 1 to 2**53
        with pytest.raises(MatrixError, match="exceed exact float64 integer range"):
            ErrorMatrix(np.array([[value, 0]]))

    def test_integer_entries_at_the_exact_limits(self):
        m = ErrorMatrix(np.array([[2**53, -(2**53)]]))
        assert m.losses.dtype == np.float64
        assert m.losses.tolist() == [[2.0**53, -(2.0**53)]]

    def test_discrete_requires_integers(self):
        with pytest.raises(MatrixError):
            dmatrix([[0.5, 1.0]])
        rmatrix([[0.5, 1.0]])  # fine as real

    def test_immutable_after_construction(self):
        m = dmatrix([[0, 1]])
        with pytest.raises(ValueError):
            m.losses[0, 0] = 5

    def test_negative_zero_canonicalised(self):
        a = ErrorMatrix(np.array([[-0.0, 1.0]]), kind=LossKind.REAL)
        b = ErrorMatrix(np.array([[0.0, 1.0]]), kind=LossKind.REAL)
        assert a == b

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.int64])
    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("transpose", [False, True])
    def test_integer_input_converted_once(self, dtype, kind, transpose):
        # integer input takes one float copy: equal to the float input's
        # matrix, frozen, and sharing no memory with the caller's array
        raw = np.array([[0, 1, 2, 1], [2, 0, 1, 1], [1, 1, 0, 2]]).astype(dtype)
        if np.dtype(dtype).kind == "i":
            raw -= 1  # negative entries too
        raw = raw.T if transpose else raw
        m = ErrorMatrix(raw, kind=kind)
        assert m == ErrorMatrix(raw.astype(np.float64), kind=kind)
        assert m.losses.dtype == np.float64 and not m.losses.flags.writeable
        assert not np.shares_memory(m.losses, raw)


class TestDeduplicate:
    def test_exact_duplicate_collapse(self):
        prof = deduplicate(dmatrix([[0, 1], [0, 1], [1, 0]]))
        assert prof.unique.losses.tolist() == [[0, 1], [1, 0]]
        assert prof.unique_index.tolist() == [0, 0, 1]

    def test_singleton(self):
        prof = deduplicate(dmatrix([[3, 4]]))
        assert prof.n_unique == 1
        assert prof.unique_index.tolist() == [0]

    def test_all_distinct_large(self):
        # oracle: pairwise all-pairs equality scan
        matrix = gen_random_uniform(1000, 12, 4, RngStream(17))
        rows = [tuple(r) for r in matrix.losses.tolist()]
        distinct = all(rows[i] != rows[j] for i in range(50) for j in range(i + 1, 50))
        assert distinct  # spot-check the scan itself on a prefix
        assert len(set(rows)) == 1000
        prof = deduplicate(matrix)
        assert prof.n_unique == 1000
        assert prof.unique_index.tolist() == list(range(1000))

    def test_rejects_real_kind(self):
        with pytest.raises(KindMismatchError, match="binarize"):
            deduplicate(rmatrix([[0.5, 1.0]]))

    def test_first_occurrence_order(self):
        prof = deduplicate(dmatrix([[2, 2], [1, 1], [2, 2], [0, 0]]))
        assert prof.unique.losses.tolist() == [[2, 2], [1, 1], [0, 0]]
        assert prof.unique_index.tolist() == [0, 1, 0, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
            min_size=1,
            max_size=12,
        )
    )
    def test_idempotent_and_round_trip(self, rows):
        prof = deduplicate(dmatrix(rows))
        again = deduplicate(prof.unique)
        assert again.unique == prof.unique
        assert again.unique_index.tolist() == list(range(prof.n_unique))
        # expanding reproduces the original rows, in place
        expanded = prof.unique.losses[prof.unique_index]
        assert expanded.tolist() == [[float(v) for v in r] for r in rows]
        for i, u in enumerate(prof.unique_index):
            assert (expanded[i] == prof.unique.losses[u]).all()

    @pytest.mark.parametrize(
        "rows, unique_index",
        [
            ([[0, 1], [1, 0]], [0, -1]),
            ([[0, 1], [1, 0]], [0, 1, 2]),
            ([[0, 1], [1, 0]], [0.0, 1.0]),
            ([[0, 1], [1, 0]], np.array([], dtype=np.intp)),
            ([[0, 1], [1, 0]], [1, 1]),
            ([[0, 1], [0, 1]], [0, 1]),
            ([[0, -0.0], [0, 0]], [0, 1]),
        ],
        ids=["negative", "beyond-n-unique", "non-integer", "empty", "unused-row", "duplicate-rows", "signed-zero-rows"],
    )
    def test_constructor_rejects(self, rows, unique_index):
        with pytest.raises(MatrixError):
            DedupProfile(dmatrix(rows), np.array(unique_index))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**53]), min_size=3, max_size=3),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),
    )
    def test_equals_per_row_bytes_reference(self, rows, transpose):
        losses = np.array(rows)
        matrix = ErrorMatrix(np.asfortranarray(losses) if transpose else losses)
        canonical = losses + 0.0
        first_of = {}
        for i, row in enumerate(canonical):
            first_of.setdefault(row.tobytes(), i)
        order = list(first_of.values())
        prof = deduplicate(matrix)
        assert prof.unique.losses.tobytes() == canonical[order].tobytes()
        assert prof.unique_index.tolist() == [order.index(first_of[row.tobytes()]) for row in canonical]
        assert prof.unique_index.dtype == np.intp
        assert not prof.unique_index.flags.writeable and not prof.unique.losses.flags.writeable

    def test_respelled_lines_are_one_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n+1,-0\n1,0\n0,+1\n-0,1\n")
        prof = deduplicate(read_matrix_csv(path))
        assert prof.unique.losses.tolist() == [[1, 0], [0, 1]]
        assert prof.unique_index.tolist() == [0, 0, 0, 1, 1]
        assert not prof.unique_index.flags.writeable

    def test_identity_profile_real(self):
        prof = identity_profile(rmatrix([[0.5, 1.0], [0.5, 1.0]]))
        assert prof.n_unique == 2  # real rows are never merged

    def test_identity_profile_rejects_discrete_duplicates(self):
        with pytest.raises(MatrixError):
            identity_profile(dmatrix([[0, 1], [0, 1]]))


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(1234, 7).source()
        b = RngStream(1234, 7).source()
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_indices_differ(self):
        a = RngStream(1234, 0).source()
        b = RngStream(1234, 1).source()
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_substreams_distinct_per_parent(self):
        parent = RngStream(9)
        children = {parent.substream(i).stream_index for i in range(1000)}
        assert len(children) == 1000

    def test_golden_values(self):
        # frozen so an accidental algorithm change cannot slip by unnoticed
        src = RngStream(0, 0).source()
        assert [src.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_randbelow_range_and_determinism(self):
        src = RngStream(5).source()
        draws = [src.randbelow(7) for _ in range(2000)]
        assert set(draws) <= set(range(7))
        assert min(draws) == 0 and max(draws) == 6
        src2 = RngStream(5).source()
        assert draws[:50] == [src2.randbelow(7) for _ in range(50)]

    def test_randbelow_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RngStream(1).source().randbelow(0)

    def test_random_unit_interval(self):
        src = RngStream(3).source()
        values = [src.random() for _ in range(500)]
        assert all(0.0 <= v < 1.0 for v in values)


def scalar_draws(rng, count, bounds):
    """``RandomSource.randbelow`` draw by draw: source i of substream i draws
    once per row of ``bounds`` (bound ``bounds[r][i]``); returns the draws
    and each source's final state."""
    sources = [rng.substream(i).source() for i in range(count)]
    draws = [[src.randbelow(int(row[i])) for i, src in enumerate(sources)] for row in bounds]
    return draws, [src._state for src in sources]


class TestRandbelowArray:
    """``randbelow_array`` against ``RandomSource.randbelow``, draw for draw."""

    def array_draws(self, rng, count, bounds):
        states = rng.substream_states(0, count)
        draws = [randbelow_array(states, bound).tolist() for bound in bounds]
        return draws, states.tolist()

    def test_scalar_bound(self):
        rng = RngStream(21, 3)
        bounds = [7, 1, 2, 100, 2**31 - 1, 2**40 + 5]
        array = self.array_draws(rng, 300, bounds)
        assert array == scalar_draws(rng, 300, [[b] * 300 for b in bounds])

    @pytest.mark.parametrize("dtype", [np.uint64, np.intp])
    def test_per_element_bounds(self, dtype):
        rng = RngStream(8)
        gen = np.random.default_rng(4)
        bounds = [gen.integers(1, 120, size=500).astype(dtype) for _ in range(6)]
        bounds.append(np.full(500, 2**40 + 7, dtype=dtype))
        array = self.array_draws(rng, 500, bounds)
        assert array == scalar_draws(rng, 500, bounds)
        assert all(min(row) >= 0 for row in array[0])

    @pytest.mark.parametrize("per_element", [False, True])
    def test_bounds_where_a_quarter_of_draws_are_rejected(self, per_element):
        # 2^64 mod (2^62 + 1) = 2^62 - 3: draws at or above 3 (2^62 + 1)
        # are rejected, about a quarter of them, so sources redraw
        # different numbers of times and the per-element loop runs
        bound = 2**62 + 1
        rng = RngStream(2, 9)
        bounds = [np.full(400, bound, dtype=np.uint64) if per_element else bound] * 3
        if per_element:
            bounds[1] = np.where(np.arange(400) % 2 == 0, bound, 5).astype(np.uint64)
        states = rng.substream_states(0, 400)
        before = states.copy()
        array = [randbelow_array(states, b).tolist() for b in bounds]
        assert (array, states.tolist()) == scalar_draws(rng, 400, [np.broadcast_to(b, 400) for b in bounds])
        # count each source's state steps: some redrew, others did not
        steps, state = np.zeros(400, dtype=int), before
        for _ in range(60):
            moving = state != states
            state = state + moving * np.uint64(0x9E3779B97F4A7C15)
            steps += moving
        assert (state == states).all() and steps.min() == 3 < steps.max()

    def test_empty(self):
        states = np.zeros(0, dtype=np.uint64)
        assert randbelow_array(states, np.zeros(0, dtype=np.uint64)).tolist() == []
        assert randbelow_array(states, 5).tolist() == []


class TestExactFraction:
    def test_shortest_decimal_reading(self):
        assert exact_fraction(0.05) == Fraction(1, 20)
        assert exact_fraction(0.25) == Fraction(1, 4)
        assert exact_fraction("0.6") == Fraction(3, 5)
        assert exact_fraction(1) == Fraction(1)
        assert exact_fraction(Fraction(7, 3)) == Fraction(7, 3)

    def test_exponent_cut_off(self):
        assert exact_fraction("1e-100000") == Fraction(1, 10**100000)
        assert exact_fraction("25E-0000000000000000002") == Fraction(1, 4)
        for huge in ("1e-100001", "1e+100001", "1E1_000_000", "0.5e-99999999999 "):
            with pytest.raises(ExponentError, match="decimal exponent beyond"):
                exact_fraction(huge)


class TestCsv:
    def test_round_trip_discrete(self, tmp_path):
        m = dmatrix([[0, 1, 2], [3, 4, 5]])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert back.kind is LossKind.DISCRETE
        assert np.array_equal(back.losses, m.losses)
        assert path.read_text().startswith("case_0,case_1,case_2\n")

    def test_round_trip_real_with_descriptor(self, tmp_path):
        m = rmatrix([[0.5, 1.25], [2.0, 3.75]])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        (tmp_path / "m.csv.json").write_text('{"kind": "real"}\n')
        back = read_matrix_csv(path)
        assert back.kind is LossKind.REAL
        assert np.array_equal(back.losses, m.losses)

    def test_kind_inference(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        assert read_matrix_csv(path).kind is LossKind.DISCRETE
        path.write_text("1.5,2\n3,4\n")
        assert read_matrix_csv(path).kind is LossKind.REAL

    def test_sidecar_overrides_inference(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        (tmp_path / "m.csv.json").write_text('{"kind": "real"}')
        assert read_matrix_csv(path).kind is LossKind.REAL

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        assert read_matrix_csv(path).losses.tolist() == [[0, 1], [1, 0]]

    def test_malformed_cell_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("case_0,case_1\n0,1\n0,oops\n")
        with pytest.raises(MatrixError, match="line 3"):
            read_matrix_csv(path)

    def test_first_row_with_a_number_is_data(self, tmp_path):
        # a typo in a headerless file's first row must not turn it into a header
        path = tmp_path / "m.csv"
        path.write_text("0,oops\n1,0\n2,2\n")
        with pytest.raises(MatrixError, match="line 1: cell 2 is not a number: 'oops'"):
            read_matrix_csv(path)
        path.write_text("case_0,7\n0,1\n")
        with pytest.raises(MatrixError, match="line 1: cell 1 is not a number: 'case_0'"):
            read_matrix_csv(path)

    def test_integer_beyond_2_53_rejected(self, tmp_path):
        # float64 rounds 2**53 + 1 to 2**53, which would merge distinct rows
        path = tmp_path / "m.csv"
        path.write_text("9007199254740993,1\n9007199254740992,1\n1,1\n")
        with pytest.raises(MatrixError, match="line 1: cell 1 is an integer beyond 2\\*\\*53"):
            read_matrix_csv(path)
        path.write_text("1,1\n1,-9007199254740993\n")
        with pytest.raises(MatrixError, match="line 2: cell 2"):
            read_matrix_csv(path)
        path.write_text("9007199254740992,1\n-9007199254740992,1\n1,1\n")
        assert deduplicate(read_matrix_csv(path)).n_unique == 3

    def test_cell_beyond_the_csv_field_limit_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1," + "1" * 140_000 + "\n")
        with pytest.raises(MatrixError, match=r"m\.csv: line 2: field larger than field limit"):
            read_matrix_csv(path)

    def test_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xff0,1\n1,0\n")
        with pytest.raises(MatrixError, match=r"cannot read .*m\.csv: 'utf-8' codec"):
            read_matrix_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n0,1,2\n")
        with pytest.raises(MatrixError, match="line 2"):
            read_matrix_csv(path)

    def test_sidecar_not_an_object(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        (tmp_path / "m.csv.json").write_text("[1]")
        with pytest.raises(MatrixError, match=r"m\.csv\.json: descriptor must be a JSON object"):
            read_matrix_csv(path)

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"case_0,case_1\n0,1\n1,0\n\n")
        assert read_matrix_csv(path).losses.tolist() == [[0, 1], [1, 0]]
        path.write_bytes(b"0,1\n1,0\n\n  \n")
        assert read_matrix_csv(path).losses.tolist() == [[0, 1], [1, 0]]

    def test_trailing_blank_lines_ignored_crlf(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"case_0,case_1\r\n0,1\r\n1,0\r\n\r\n")
        assert read_matrix_csv(path).losses.tolist() == [[0, 1], [1, 0]]

    def test_inner_blank_line_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0,1\n\n1,0\n")
        with pytest.raises(MatrixError, match="line 2: expected 2 cells, got 0"):
            read_matrix_csv(path)
        path.write_bytes(b"0,1\r\n\r\n1,0\r\n\r\n")
        with pytest.raises(MatrixError, match="line 2: expected 2 cells, got 0"):
            read_matrix_csv(path)
        path.write_bytes(b"0,1\n0,1\n\n0,1\n")  # between repeated lines
        with pytest.raises(MatrixError, match="line 3: expected 2 cells, got 0"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("header", [b"", b"case_0,case_1\n"])
    def test_byte_order_mark_skipped(self, header, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(header + b"1,2\n2,1\n")
        marked.write_bytes(b"\xef\xbb\xbf" + header + b"1,2\n2,1\n")
        assert read_matrix_csv(marked) == read_matrix_csv(plain)
        assert _reference(marked) == _reference(plain)

    def test_sidecar_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n2,1\n")
        (tmp_path / "m.csv.json").write_bytes(b'\xef\xbb\xbf{"kind": "real"}')
        assert read_matrix_csv(path).kind is LossKind.REAL

    def test_underscore_numeral_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("case_0,case_1\n0,1\n1_0,0\n")
        with pytest.raises(MatrixError, match="line 3: cell 1 is not a number: '1_0'"):
            read_matrix_csv(path)
        path.write_text("0,1\n2,1_000.5\n")
        with pytest.raises(MatrixError, match="line 2: cell 2 is not a number"):
            read_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(MatrixError):
            read_matrix_csv(path)

    def test_byte_stable_output(self, tmp_path):
        m = dmatrix([[0, 1], [2, 3]])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(m, p1)
        write_matrix_csv(m, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _outcome(read, path):
    """What a reader makes of a file: the losses bytes and kind of its
    matrix, or the message of its MatrixError."""
    try:
        m = read(path)
    except MatrixError as exc:
        return "error", str(exc)
    return m.losses.shape, m.losses.tobytes(), m.kind


def _reference(path):
    return core._read_matrix_reference(path, core._read_lines(path))


def _read_both(data: bytes, sidecar=None):
    """read_matrix_csv's and the reference's outcome on a file, and whether
    the fast path took it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(data)
        if sidecar is not None:
            Path(tmp, "m.csv.json").write_text(json.dumps({"kind": sidecar}))
        try:
            fast = core._read_int_body(core._read_lines(path)) is not None
        except MatrixError:
            fast = False
        return _outcome(read_matrix_csv, path), _outcome(_reference, path), fast


# Plain integers, mixed with cells at the fast path's edges: signs, padding,
# the 2**53 and int64 limits, digits that int() reads but numpy does not,
# comment and quote characters.
EDGE_CELLS = [
    "+5", "-0", "00005", " 7 ", "\t5", "5\u3000", "\xa05", "５", "٣", "5#x", '"5"', "nan", "1_0", "1e3", "5.0",
    "", "x", str(2**53), str(-(2**53)), str(2**53 + 1), str(-(2**53) - 1), str(2**63 - 1), str(-(2**63)), str(2**63),
]
INT_CELLS = st.sampled_from([str(i) for i in range(-9, 10)] * 3 + EDGE_CELLS)


@st.composite
def int_bodies(draw):
    """Rows of one width, now and then a blank line among them, as
    (width, lines); and the line break and ending of their file."""
    width = draw(st.integers(1, 4))
    lines = [",".join(row) for row in draw(st.lists(st.lists(INT_CELLS, min_size=width, max_size=width), max_size=6))]
    if lines and draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    breaks = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028"]))
    return width, lines, breaks, draw(st.sampled_from(["", breaks, breaks * 2]))


@st.composite
def int_files(draw):
    _, lines, breaks, ending = draw(int_bodies())
    header = draw(st.sampled_from([None, "a,b", "case_0", "a,b,c,d", '"a,b",c', '"open']))
    if header is not None:
        lines.insert(0, header)
    return (breaks.join(lines) + ending).encode()


# Spellings of one value that both readers read: the fast path parses each
# distinct line once, so equal rows can reach it as different lines.
SPELLINGS = {v: [str(v), f"+{v}", f" {v}", f"0{v}"] for v in range(3)}


@st.composite
def repeated_int_files(draw):
    """Files of a few rows, each written one or two ways, whose lines repeat;
    now and then a header or a blank line among them."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=width, max_size=width), min_size=1, max_size=3))
    texts = [",".join(draw(st.sampled_from(SPELLINGS[v])) for v in row) for row in rows for _ in range(draw(st.integers(1, 2)))]
    lines = draw(st.lists(st.sampled_from(texts), min_size=1, max_size=10))
    if len(lines) > 1 and draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(1, len(lines) - 1)), "")
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"case_{c}" for c in range(width)))
    return ("\n".join(lines) + "\n").encode()


class TestFastReader:
    """read_matrix_csv's numpy path reads a subset of what the per-cell
    reference reads, to the same matrix; everything else is the reference's."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(FILES, int_files()), st.sampled_from([None, "discrete", "real"]))
    def test_matches_reference(self, data, sidecar):
        got, want, _ = _read_both(data, sidecar)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(repeated_int_files())
    def test_repeated_and_respelled_lines(self, data):
        got, want, fast = _read_both(data)
        assert got == want
        assert fast == (b"\n\n" not in data)
        assume(fast)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(data)
            a, b = deduplicate(read_matrix_csv(path)), deduplicate(_reference(path))
        assert a.unique == b.unique
        assert a.unique_index.tolist() == b.unique_index.tolist()

    @settings(max_examples=200, deadline=None)
    @given(int_bodies(), st.sampled_from([None, "discrete", "real"]))
    def test_header_row_changes_no_loss_and_no_kind(self, body, sidecar):
        # only the line numbers in error messages move
        width, lines, breaks, ending = body
        assume(not lines or not core._is_header(next(csv.reader(lines[:1]))))
        header = ",".join(f"case_{c}" for c in range(width))

        def outcomes(rows):
            both = _read_both((breaks.join(rows) + ending).encode(), sidecar)[:2]
            return ["error" if outcome[0] == "error" else outcome for outcome in both]

        assert outcomes([header, *lines]) == outcomes(lines)

    @pytest.mark.parametrize(
        "data, sidecar, fast",
        [
            pytest.param(b"0,1\n\n1,0\n", None, False, id="blank-line-in-body"),
            pytest.param(b"0,1\n \n1,0\n", None, False, id="whitespace-line-in-body"),
            pytest.param(b"0,5#x\n1,0\n", None, False, id="comment-character"),
            pytest.param("５,1\n1,0\n".encode(), None, False, id="full-width-digit"),
            pytest.param(b"+5,1\n1,0\n", None, True, id="plus-sign"),
            pytest.param(b"-0,1\n1,0\n", None, True, id="minus-zero"),
            pytest.param(b"9007199254740992,1\n-9007199254740992,1\n", None, True, id="2**53"),
            pytest.param(b"9007199254740993,1\n1,1\n", None, False, id="2**53+1"),
            pytest.param(b"1,1\n1,-9007199254740993\n", None, False, id="-2**53-1"),
            pytest.param(b"9223372036854775808,1\n1,1\n", None, False, id="2**63"),
            pytest.param(b"-9223372036854775808,1\n1,1\n", None, False, id="int64-min"),
            pytest.param(b'"5",1\n1,0\n', None, False, id="quoted-cell"),
            pytest.param(b"0\n1\n2\n", None, True, id="one-column"),
            pytest.param(b"a,b\r\n0,1\r\n1,0\r\n", None, True, id="crlf"),
            pytest.param(b"0,1\x0c1,0\n", None, True, id="form-feed-line-break"),
            pytest.param(b"a,b,c\n0,1\n1,0\n", None, False, id="header-wrong-width"),
            pytest.param(b'a,"b\n0,1\n1,0\n', None, False, id="header-open-quote"),
            pytest.param(b"a,b\n", None, False, id="header-only"),
            pytest.param(b"", None, False, id="empty"),
            pytest.param(b"0,1\n1,0\n", "real", True, id="sidecar-real"),
            pytest.param(b"0.5,1\n1,0\n", "discrete", False, id="sidecar-discrete-on-float"),
        ],
    )
    def test_named_cases(self, data, sidecar, fast):
        got, want, took_fast_path = _read_both(data, sidecar)
        assert got == want
        assert took_fast_path == fast

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("deprecated_loadtxt", [False, True])
    @pytest.mark.parametrize("text, value", [("0.5,1.25\n1,0\n", 0.5), ("5.0,1\n1,0\n", 5.0), ("1e3,1\n1,0\n", 1000.0)])
    def test_float_cells_read_real_with_warnings_ignored(self, text, value, deprecated_loadtxt, tmp_path, monkeypatch):
        if deprecated_loadtxt:
            # numpy releases that still carry the 1.23 deprecation parse an
            # int64 cell via float, truncating it, and only warn; so does this
            def loadtxt(lines, dtype, **kwargs):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                return np.array([[int(float(cell)) for cell in line.split(",")] for line in lines], dtype=dtype)

            monkeypatch.setattr(core.np, "loadtxt", loadtxt)
        path = tmp_path / "m.csv"
        path.write_text(text)
        m = read_matrix_csv(path)
        assert m.kind is LossKind.REAL and m.losses[0, 0] == value

    @pytest.mark.parametrize(
        "lines, rows, index",
        [
            (["0,1", "1,0", "2,2"], [[0, 1], [1, 0], [2, 2]], None),
            (["0,1", "1,0", "0,1"], [[0, 1], [1, 0]], [0, 1, 0]),
            (["a,b", "1,1", "1,1"], [[1, 1]], [0, 0]),
        ],
    )
    def test_rows_of_distinct_lines(self, lines, rows, index):
        # a file whose lines are all distinct needs no copy by index
        got_rows, got_index = core._read_int_body(lines)
        assert got_rows.tolist() == rows and got_index == index

    def test_integer_file_never_enters_the_reference(self, tmp_path, monkeypatch):
        def no_reference(*args):
            raise AssertionError("the reference reader ran on a plain integer file")

        monkeypatch.setattr(core, "_read_matrix_reference", no_reference)
        m = gen_random_uniform(30, 12, 5, RngStream(1))
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert back.losses.tobytes() == m.losses.tobytes()
        path.write_text("0,1\n-2,+3\n\n")
        assert read_matrix_csv(path).losses.tolist() == [[0, 1], [-2, 3]]


def _unique_codes(values):
    levels, inverse = np.unique(values, return_inverse=True)
    return levels, inverse.reshape(values.shape)


@st.composite
def rank_inputs(draw):
    """Float arrays of integers from a base, whose span falls on either side
    of their size, mixed with non-integers and the float64 integer limits;
    half of them transposed views, as the selection runner passes."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    base = draw(st.sampled_from([0.0, -40.0, 1e15, 2.0**53 - 8, -(2.0**53)]))
    offset = st.integers(0, draw(st.integers(0, rows * cols + 1))).map(lambda k: base + k)
    special = st.sampled_from([2.0**53, -(2.0**53), 0.5, -1.5, -0.0, 1e-30, 1e300])
    cell = offset | special if draw(st.booleans()) else offset
    values = np.array(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    return values.T if draw(st.booleans()) else values


class TestRankCodes:
    @settings(max_examples=300, deadline=None)
    @given(rank_inputs())
    def test_equals_unique_with_inverse(self, values):
        levels, codes = core.rank_codes(values)
        expected_levels, expected_codes = _unique_codes(values)
        assert levels.dtype == expected_levels.dtype and np.array_equal(levels, expected_levels)
        assert codes.shape == values.shape and np.array_equal(codes, expected_codes)

    @pytest.mark.parametrize(
        "values, sorts",
        [
            ([0, 1, 2, 3, 4, 0], 0),  # span 5, one less than the size
            ([0, 1, 2, 3, 4, 5], 1),  # span 6, the size
            ([-3, -1, -3, -2, 0, 0], 0),
            ([2.0**53, 2.0**53 - 1, 2.0**53, 2.0**53 - 2], 0),
            ([-(2.0**53), -(2.0**53) + 2, -(2.0**53) + 1, -(2.0**53)], 0),
            ([0.5, 1.5, 0.5, 1.5], 1),
            # 1e-30 + 1 rounds to 1: only the values themselves show it is no integer
            ([-1.0, 1e-30, 0.0, -1.0, 0.0], 1),
            ([7.0], 1),
        ],
    )
    def test_small_integer_spans_are_ranked_without_a_sort(self, values, sorts, monkeypatch):
        values = np.array(values, dtype=np.float64)
        expected = _unique_codes(values)
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        levels, codes = core.rank_codes(values)
        assert len(calls) == sorts
        assert np.array_equal(levels, expected[0]) and np.array_equal(codes, expected[1])
