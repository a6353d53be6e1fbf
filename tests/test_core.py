from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexibound.core import (
    ErrorMatrix,
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

    def test_label_length_validation(self):
        with pytest.raises(MatrixError):
            ErrorMatrix(np.zeros((2, 2)), case_labels=("a", "b", "c"))

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


class TestCsv:
    def test_round_trip_discrete(self, tmp_path):
        m = dmatrix([[0, 1, 2], [3, 4, 5]])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert back.kind is LossKind.DISCRETE
        assert np.array_equal(back.losses, m.losses)
        assert back.case_labels == ("case_0", "case_1", "case_2")

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
        back = read_matrix_csv(path)
        assert back.case_labels is None
        assert back.losses.tolist() == [[0, 1], [1, 0]]

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
        back = read_matrix_csv(path)
        assert back.case_labels == ("case_0", "case_1")
        assert back.losses.tolist() == [[0, 1], [1, 0]]

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
