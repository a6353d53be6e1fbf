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
    ErrorMatrix,
    ExponentError,
    KindMismatchError,
    LossKind,
    MatrixError,
    RngStream,
    deduplicate,
    exact_fraction,
    identity_profile,
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


class TestDeduplicate:
    def test_exact_duplicate_collapse(self):
        prof = deduplicate(dmatrix([[0, 1], [0, 1], [1, 0]]))
        assert prof.unique.losses.tolist() == [[0, 1], [1, 0]]
        assert prof.groups == ((0, 1), (2,))

    def test_singleton(self):
        prof = deduplicate(dmatrix([[3, 4]]))
        assert prof.n_unique == 1
        assert prof.groups == ((0,),)

    def test_all_distinct_large(self):
        # oracle: pairwise all-pairs equality scan
        matrix = gen_random_uniform(1000, 12, 4, RngStream(17))
        rows = [tuple(r) for r in matrix.losses.tolist()]
        distinct = all(rows[i] != rows[j] for i in range(50) for j in range(i + 1, 50))
        assert distinct  # spot-check the scan itself on a prefix
        assert len(set(rows)) == 1000
        prof = deduplicate(matrix)
        assert prof.n_unique == 1000
        assert all(len(g) == 1 for g in prof.groups)

    def test_rejects_real_kind(self):
        with pytest.raises(KindMismatchError, match="binarize"):
            deduplicate(rmatrix([[0.5, 1.0]]))

    def test_first_occurrence_order(self):
        prof = deduplicate(dmatrix([[2, 2], [1, 1], [2, 2], [0, 0]]))
        assert prof.unique.losses.tolist() == [[2, 2], [1, 1], [0, 0]]
        assert prof.groups == ((0, 2), (1,), (3,))

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
        assert all(len(g) == 1 for g in again.groups)
        # expanding groups reproduces the original row multiset, in place
        assert prof.expand_rows().tolist() == [[float(v) for v in r] for r in rows]

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


class TestFastReader:
    """read_matrix_csv's numpy path reads a subset of what the per-cell
    reference reads, to the same matrix; everything else is the reference's."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(FILES, int_files()), st.sampled_from([None, "discrete", "real"]))
    def test_matches_reference(self, data, sidecar):
        got, want, _ = _read_both(data, sidecar)
        assert got == want

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
