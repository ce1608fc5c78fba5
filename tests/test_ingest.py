import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genecluster import ingest
from genecluster.errors import (
    DataError,
    DegenerateLabelsError,
    GeneClusterError,
    ParseError,
    ValidationError,
)
from genecluster.ingest import (
    ClassLabels,
    ExpressionMatrix,
    parse_labels,
    parse_matrix,
    write_matrix,
)


# characters str.splitlines breaks at besides \n and \r
STR_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def matrix_text(rows, header=("gene_id", "s1", "s2"), delim="\t"):
    lines = [delim.join(header)]
    lines.extend(delim.join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestParseMatrix:
    def test_tab_delimited_with_corner(self):
        m = parse_matrix(io.StringIO(matrix_text([("g1", 1.5, -2.0), ("g2", 0, 3e2)])))
        assert m.gene_ids == ("g1", "g2")
        assert m.sample_ids == ("s1", "s2")
        assert m.values.tolist() == [[1.5, -2.0], [0.0, 300.0]]

    def test_comma_delimited_auto_detected(self):
        text = "gene_id,s1,s2\ng1,1,2\n"
        m = parse_matrix(io.StringIO(text))
        assert m.sample_ids == ("s1", "s2")
        assert m.values.tolist() == [[1.0, 2.0]]

    def test_header_without_corner_cell(self):
        text = "s1\ts2\ng1\t1\t2\ng2\t3\t4\n"
        m = parse_matrix(io.StringIO(text))
        assert m.sample_ids == ("s1", "s2")
        assert m.n_genes == 2

    def test_crlf_line_endings(self):
        text = "gene_id\ts1\r\ng1\t7\r\n"
        m = parse_matrix(io.StringIO(text))
        assert m.values.tolist() == [[7.0]]

    def test_header_only_file(self):
        m = parse_matrix(io.StringIO("gene_id\ts1\ts2\ts3\n"))
        assert m.n_genes == 0
        assert m.n_samples == 3
        assert m.values.shape == (0, 3)

    def test_no_rows_dropped_or_reordered(self):
        rows = [(f"g{i}", i, -i) for i in range(20)]
        m = parse_matrix(io.StringIO(matrix_text(rows)))
        assert m.n_genes == 20
        assert m.gene_ids == tuple(f"g{i}" for i in range(20))
        assert m.values[:, 0].tolist() == [float(i) for i in range(20)]

    def test_scientific_notation(self):
        m = parse_matrix(io.StringIO(matrix_text([("g1", "1e-3", "-2.5E+2")])))
        assert m.values.tolist() == [[0.001, -250.0]]

    def test_ragged_row_names_row_number(self):
        text = "gene_id\ts1\ts2\ng1\t1\t2\ng2\t3\n"
        with pytest.raises(ParseError) as err:
            parse_matrix(io.StringIO(text))
        assert err.value.row == 2
        assert "row 2" in str(err.value)

    def test_non_numeric_cell_names_row_and_column(self):
        text = matrix_text([("g1", 1, 2), ("g2", "abc", 4), ("g3", 5, 6)])
        with pytest.raises(DataError) as err:
            parse_matrix(io.StringIO(text))
        assert (err.value.row, err.value.column) == (2, 1)
        assert "row 2" in str(err.value) and "column 1" in str(err.value)

    def test_missing_cell_rejected(self):
        text = "gene_id,s1,s2\ng1,1,\n"
        with pytest.raises(DataError) as err:
            parse_matrix(io.StringIO(text))
        assert (err.value.row, err.value.column) == (1, 2)

    def test_nan_cell_rejected(self):
        with pytest.raises(DataError):
            parse_matrix(io.StringIO(matrix_text([("g1", "nan", 1)])))

    def test_duplicate_gene_id(self):
        with pytest.raises(ValidationError, match="g1"):
            parse_matrix(io.StringIO(matrix_text([("g1", 1, 2), ("g1", 3, 4)])))

    def test_duplicate_sample_id(self):
        with pytest.raises(ValidationError, match="s1"):
            parse_matrix(io.StringIO(matrix_text([("g1", 1, 2)], header=("gene_id", "s1", "s1"))))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_matrix(io.StringIO(""))

    def test_parse_from_path(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(matrix_text([("g1", 1, 2)]), encoding="utf-8")
        m = parse_matrix(path)
        assert m.n_genes == 1

    def test_dataset_scale_parse(self):
        # leukemia-shaped file: 7129 gene rows, 34 sample columns
        rng = np.random.default_rng(0)
        n, m = 7129, 34
        lines = ["\t".join(["gene_id"] + [f"s{j}" for j in range(m)])]
        for i, row in enumerate(rng.normal(size=(n, m))):
            lines.append("\t".join([f"g{i}"] + [repr(float(v)) for v in row]))
        parsed = parse_matrix(io.StringIO("\n".join(lines) + "\n"))
        assert (parsed.n_genes, parsed.n_samples) == (n, m)


class TestExpressionMatrixInvariants:
    def test_values_frozen(self):
        m = ExpressionMatrix(("g1",), ("s1",), [[1.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ExpressionMatrix(("g1", "g2"), ("s1",), [[1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ExpressionMatrix(("g1",), ("s1",), [[np.inf]])


class TestByteOrderMark:
    def test_bom_before_header_without_corner_cell(self, tmp_path):
        matrix_path = tmp_path / "bom.tsv"
        matrix_path.write_bytes(b"\xef\xbb\xbfs0\ts1\ng1\t1\t2\ng2\t3\t4\n")
        labels_path = tmp_path / "bom-labels.tsv"
        labels_path.write_bytes(b"\xef\xbb\xbfs0\tALL\r\ns1\tAML\r\n")
        m = parse_matrix(matrix_path)
        assert m.sample_ids == ("s0", "s1")
        labels = parse_labels(labels_path, m)
        assert labels.labels == {"s0": "ALL", "s1": "AML"}

    @pytest.mark.parametrize("header", ["s0\ts1", '"s0"\ts1'], ids=["plain", "quoted"])
    def test_bom_at_the_start_of_a_text_stream(self, header):
        m = parse_matrix(io.StringIO(f"\ufeff{header}\ng1\t1\t2\n"))
        assert m.sample_ids == ("s0", "s1")
        labels = parse_labels(io.StringIO("\ufeffs0\tALL\ns1\tAML\n"), m)
        assert labels.labels == {"s0": "ALL", "s1": "AML"}

    def test_only_one_bom_is_dropped_from_a_text_stream(self):
        m = parse_matrix(io.StringIO("\ufeff\ufeffs0\ts1\ng1\t1\t2\n"))
        assert m.sample_ids == ("\ufeffs0", "s1")


class TestNotUtf8:
    """Text that is not UTF-8 is a ParseError naming the line of its first bad byte."""

    @pytest.mark.parametrize("data, message", [
        (b"\xff\xfegene_id\ts1\ts2\ng1\t1\t2\n", "byte 0xff on line 1"),
        # a byte-order mark is not counted; lines end at LF, CRLF or CR
        (b"\xef\xbb\xbfgene_id\ts1\ts2\r\ng1\t1\t2\rg\xe92\t3\t4\n", "byte 0xe9 on line 3"),
    ], ids=["first-line", "after-bom-and-cr"])
    def test_matrix(self, tmp_path, data, message):
        path = tmp_path / "matrix.tsv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^not UTF-8 text: {message}$"):
            parse_matrix(path)

    def test_labels(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_bytes("s1\tALL\ns2\tAMLé\n".encode("latin-1"))
        with pytest.raises(ParseError, match="^not UTF-8 text: byte 0xe9 on line 2$"):
            parse_labels(path, two_class_matrix())


class TestRoundTrip:
    def test_simple_round_trip(self):
        m = parse_matrix(io.StringIO(matrix_text([("g1", 0.1, -2.5), ("g2", 1e-17, 3)])))
        buf = io.StringIO()
        write_matrix(m, buf)
        again = parse_matrix(io.StringIO(buf.getvalue()))
        assert again.gene_ids == m.gene_ids
        assert again.sample_ids == m.sample_ids
        assert np.array_equal(again.values, m.values)

    def test_failed_write_leaves_no_file(self, tmp_path):
        m = ExpressionMatrix(("g1", "bad\ud800"), ("s1",), [[1.0], [2.0]])
        with pytest.raises(UnicodeEncodeError):
            write_matrix(m, tmp_path / "m.tsv")
        assert list(tmp_path.iterdir()) == []

    def test_plain_array_rejected(self):
        with pytest.raises(ValidationError, match=r"^write_matrix: expected an ExpressionMatrix or MembershipMatrix, got ndarray$"):
            write_matrix(np.ones((2, 2)), io.StringIO())

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_round_trip_is_bit_exact(self, n, m, data):
        values = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.floats(allow_nan=False, allow_infinity=False, width=64),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        matrix = ExpressionMatrix(
            tuple(f"g{i}" for i in range(n)), tuple(f"s{j}" for j in range(m)), values
        )
        buf = io.StringIO()
        write_matrix(matrix, buf)
        again = parse_matrix(io.StringIO(buf.getvalue()))
        assert again.gene_ids == matrix.gene_ids
        assert again.sample_ids == matrix.sample_ids
        assert np.array_equal(again.values, matrix.values)


class TestQuotedIds:
    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_ids_with_delimiter_or_quote_round_trip(self, delimiter):
        matrix = ExpressionMatrix(
            ("HLA-DRB1,3", 'a"b', "g3"), ('s"1', "s,2"), [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]]
        )
        buf = io.StringIO()
        write_matrix(matrix, buf, delimiter=delimiter)
        again = parse_matrix(io.StringIO(buf.getvalue()))
        assert again.gene_ids == matrix.gene_ids
        assert again.sample_ids == matrix.sample_ids
        assert np.array_equal(again.values, matrix.values)

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_ids_with_line_breaks_round_trip(self, delimiter):
        matrix = ExpressionMatrix(
            ("a\nb", "c\r\nd", "g3"), ("s\n1", "s2"), [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]]
        )
        buf = io.StringIO()
        write_matrix(matrix, buf, delimiter=delimiter)
        again = parse_matrix(io.StringIO(buf.getvalue()))
        assert again.gene_ids == matrix.gene_ids
        assert again.sample_ids == matrix.sample_ids
        assert np.array_equal(again.values, matrix.values)

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    @pytest.mark.parametrize("char", STR_LINE_BREAKS)
    def test_ids_with_other_str_line_breaks_round_trip(self, char, delimiter):
        # the csv module writes these unquoted; only \n, \r\n and \r end a line
        matrix = ExpressionMatrix((f"a{char}b", "g2"), (f"s{char}1",), [[1.0], [2.0]])
        buf = io.StringIO()
        write_matrix(matrix, buf, delimiter=delimiter)
        again = parse_matrix(io.StringIO(buf.getvalue()))
        assert again.gene_ids == matrix.gene_ids
        assert again.sample_ids == matrix.sample_ids
        assert np.array_equal(again.values, matrix.values)

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    @pytest.mark.parametrize("char", STR_LINE_BREAKS)
    def test_other_str_line_breaks_beside_a_quoted_id(self, char, delimiter):
        matrix = ExpressionMatrix((f"a{char}b", 'q"d'), ("s1",), [[1.0], [2.0]])
        buf = io.StringIO()
        write_matrix(matrix, buf, delimiter=delimiter)
        again = parse_matrix(io.StringIO(buf.getvalue()))
        assert again.gene_ids == matrix.gene_ids
        assert np.array_equal(again.values, matrix.values)

    def test_unclosed_quote_is_a_parse_error(self):
        # the open quote takes in every later line, past the csv field size limit
        rows = "".join(f"g{i}\t{i}.5\n" for i in range(1, 20000))
        with pytest.raises(ParseError):
            parse_matrix(io.StringIO('gene_id\ts1\n"g0\t1\n' + rows))

    @pytest.mark.parametrize("text, line", [
        ('gene_id\ts1\n"g1\t1.0\ng2\t2.0\n', 2),
        ('gene_id\ts1\ng1\t"1.0\ng2\t2.0\n', 2),
        ('gene_id\t"s1\ng1\t1.0\n', 1),
        ('gene_id\ts1\ng1\t1.0\n"g2\t2.0', 3),
    ])
    def test_unclosed_quote_names_the_line_it_opens(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: unclosed double quote"):
            parse_matrix(io.StringIO(text))

    @pytest.mark.parametrize("char", STR_LINE_BREAKS)
    def test_unclosed_quote_line_counts_only_line_ends(self, char):
        with pytest.raises(ParseError, match="^line 2: unclosed double quote"):
            parse_matrix(io.StringIO(f'gene_id\ts1\n"g1{char}\t1.0\ng2\t2.0\n'))

    def test_quote_past_the_field_size_limit_names_its_line(self):
        rows = "".join(f"g{i}\t{i}.5\n" for i in range(2, 20000))
        with pytest.raises(ParseError, match="^line 3: malformed quoted field"):
            parse_matrix(io.StringIO('gene_id\ts1\ng0\t1\n"g1\t1\n' + rows))

    def test_unclosed_quote_in_label_file(self):
        m = ExpressionMatrix(("g1",), ("s1", "s2"), [[1.0, 2.0]])
        with pytest.raises(ParseError, match="^line 2: unclosed double quote"):
            parse_labels(io.StringIO('s1\tALL\n"s2\tAML\n'), m)

    def test_quoted_last_record_without_line_end(self):
        matrix = parse_matrix(io.StringIO('gene_id\ts1\n"g\n1"\t1.0'))
        assert matrix.gene_ids == ("g\n1",)
        assert matrix.values.tolist() == [[1.0]]

    def test_blank_line_in_quoted_text_is_one_empty_field(self):
        with pytest.raises(ParseError, match="row 2: expected 2 fields, found 1"):
            parse_matrix(io.StringIO('gene_id\ts1\n"a"\t1\n\ng2\t3\n'))
        assert parse_matrix(io.StringIO('\n\n"x"\n')).gene_ids == ("", "x")

    def test_quoted_row_keeps_row_and_column_errors(self):
        text = 'gene_id,s1,s2\n"a,b",1,x\n'
        with pytest.raises(DataError) as err:
            parse_matrix(io.StringIO(text))
        assert (err.value.row, err.value.column) == (1, 2)

    def test_quoted_text_needs_a_one_character_delimiter(self):
        with pytest.raises(ParseError, match="delimiter '::': quoted fields need a one-character"):
            parse_matrix(io.StringIO('"g"::s1\nx::1\n'), delimiter="::")


def outcome(read, source):
    """What reading ``source`` gives: ids and value bits, or the error's type and text."""
    try:
        m = read(source)
    except GeneClusterError as exc:
        return type(exc), str(exc)
    if m is None:
        return None
    return m.gene_ids, m.sample_ids, m.values.shape, m.values.tobytes()


def by_cell(source):
    return ingest._matrix_by_cell(*ingest._read_lines(source, None))


def in_bulk(source):
    lines, delim, quoted = ingest._read_lines(source, None)
    assert not quoted
    return ingest._matrix_in_bulk(lines, delim)


# cells the bulk pass must read as the per-cell loop does, or leave to it
ODD_CELLS = [
    "1_0", "١", "nan", "-inf", "1e999", "", "#", "  2.5 ", "\x1f3\x1f",
    "\x0b-4\x0c", "\xa01e-3 ", "-0.0", "4.9e-324", "0x10", "1e", "+.5",
]


class TestBulkReadEqualsCellLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=3),
        delim=st.sampled_from(["\t", ","]),
        corner=st.booleans(),
        line_end=st.sampled_from(["\n", "\r\n"]),
        data=st.data(),
    )
    def test_same_matrix_or_same_error(self, n, m, delim, corner, line_end, data):
        number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        cells = data.draw(
            st.lists(st.lists(number, min_size=m, max_size=m), min_size=n, max_size=n)
        )
        # replace a few cells with odd ones, so both clean and odd matrices occur
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            j = data.draw(st.integers(min_value=0, max_value=m - 1))
            cells[i][j] = data.draw(st.sampled_from(ODD_CELLS))
        ids = data.draw(
            st.lists(st.sampled_from(["g1", "g#2", " g3 ", "g4", "g\x1f5"]), min_size=n, max_size=n)
        )
        header = (["gene_id"] if corner else []) + [f"s{j}" for j in range(m)]
        rows = [delim.join(header)] + [delim.join([g, *row]) for g, row in zip(ids, cells)]
        text = line_end.join(rows) + line_end

        expected = outcome(by_cell, io.StringIO(text))
        assert outcome(parse_matrix, io.StringIO(text)) == expected
        assert outcome(in_bulk, io.StringIO(text)) in (None, expected)

    @pytest.mark.parametrize("text, error", [
        # an extra trailing field, which usecols would drop
        ("gene_id\ts1\ts2\ng1\t1\t2\ng2\t3\t4\t5\n",
         (ParseError, "row 2: expected 3 fields, found 4")),
        ("gene_id,s1\ng1,1\ng2,2,\n", (ParseError, "row 2: expected 2 fields, found 3")),
        # a blank line mid-body, which loadtxt would skip
        ("gene_id\ts1\ng1\t1\n\ng2\t2\n", (ParseError, "row 2: expected 2 fields, found 1")),
        ("gene_id\ts1\ng1\t1\n \ng2\t2\n", (ParseError, "row 2: expected 2 fields, found 1")),
        # missing values
        ("gene_id,s1,s2\ng1,1,\n", (DataError, "row 1, column 2: missing value")),
        ("gene_id,s1,s2\ng1,1,2\ng2, ,3\n", (DataError, "row 2, column 1: missing value")),
        # header widths the body does not fit
        ("gene_id\ts1\ts2\ts3\ng1\t1\n",
         (ParseError, "header has 4 fields but body rows carry 1 data columns")),
        ("gene_id\ng1,1,2\n", (ParseError, "header has 1 fields but body rows carry 2 data columns")),
        # values the loop rejects
        ("gene_id\ts1\ng1\tinf\n", (DataError, "row 1, column 1: non-finite value 'inf'")),
        ("gene_id\ts1\ng1\t1e999\n", (DataError, "row 1, column 1: non-finite value '1e999'")),
        ("gene_id\ts1\ng1\t1\ng2\tx\n", (DataError, "row 2, column 1: non-numeric value 'x'")),
        ("gene_id\ts1\ng1\t1#2\n", (DataError, "row 1, column 1: non-numeric value '1#2'")),
    ])
    def test_doubtful_input_gives_the_loop_error(self, text, error):
        assert outcome(in_bulk, io.StringIO(text)) is None
        assert outcome(parse_matrix, io.StringIO(text)) == error
        assert outcome(by_cell, io.StringIO(text)) == error

    @pytest.mark.parametrize("text, expected", [
        # with and without the corner cell
        ("gene_id\ts1\ts2\ng1\t1\t2\ng2\t3\t4\n", (("g1", "g2"), ("s1", "s2"), [[1, 2], [3, 4]])),
        ("s1\ts2\ng1\t1\t2\ng2\t3\t4\n", (("g1", "g2"), ("s1", "s2"), [[1, 2], [3, 4]])),
        # an id holding "#", which loadtxt's default comments would cut
        ("gene_id,s1\ng#1,1.5\ng2 # x,-2\n", (("g#1", "g2 # x"), ("s1",), [[1.5], [-2.0]])),
        # padding the loop strips; line ends other than \n
        ("gene_id,s1\n g1 ,\x1f7\x0c\r\ng2, 8\r", (("g1", "g2"), ("s1",), [[7.0], [8.0]])),
    ])
    def test_clean_input_is_read_in_bulk(self, text, expected):
        bulk = in_bulk(io.StringIO(text))
        assert bulk is not None
        gene_ids, sample_ids, values = expected
        for matrix in (bulk, parse_matrix(io.StringIO(text)), by_cell(io.StringIO(text))):
            assert (matrix.gene_ids, matrix.sample_ids) == (gene_ids, sample_ids)
            assert matrix.values.tolist() == values

    @pytest.mark.parametrize("delim", [";", "::", " "])
    def test_other_delimiters_are_read_by_cell(self, delim):
        text = f"gene_id{delim}s1{delim}s2\ng1{delim}1{delim}2.5\n"
        lines = ingest._read_lines(io.StringIO(text), delim)[0]
        assert ingest._matrix_in_bulk(lines, delim) is None
        matrix = parse_matrix(io.StringIO(text), delimiter=delim)
        assert matrix.sample_ids == ("s1", "s2")
        assert matrix.values.tolist() == [[1.0, 2.5]]

    def test_crlf_with_bom_from_a_path(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbfgene_id\ts1\ts2\r\ng1\t1\t2\r\ng2\t3\t-4.5\r\n")
        assert in_bulk(path) is not None
        assert outcome(parse_matrix, path) == outcome(by_cell, path)
        matrix = parse_matrix(path)
        assert matrix.sample_ids == ("s1", "s2")
        assert matrix.values.tolist() == [[1.0, 2.0], [3.0, -4.5]]

    def test_dataset_scale_bulk_read_is_bit_exact(self):
        rng = np.random.default_rng(1)
        values = rng.normal(scale=1e3, size=(500, 34)) * 10.0 ** rng.integers(-300, 300, (500, 34))
        matrix = ExpressionMatrix(
            tuple(f"g{i}" for i in range(500)), tuple(f"s{j}" for j in range(34)), values
        )
        buf = io.StringIO()
        write_matrix(matrix, buf)
        assert in_bulk(io.StringIO(buf.getvalue())) is not None
        assert np.array_equal(parse_matrix(io.StringIO(buf.getvalue())).values, values)

    @pytest.mark.parametrize("text, error", [
        ("gene_id\ts1\ts2\ng1\t1\tnan\n", (DataError, "row 1, column 2: non-finite value 'nan'")),
        ("gene_id,s1\ng1,1\ng2,-inf\n", (DataError, "row 2, column 1: non-finite value '-inf'")),
        ("gene_id\ts1\ng1\t1\ng1\t2\n", (ValidationError, "duplicate gene id 'g1'")),
        ("s1,s1\ng1,1,2\n", (ValidationError, "duplicate sample id 's1'")),
    ])
    def test_values_or_ids_the_matrix_refuses_fall_to_the_loop(self, text, error):
        assert outcome(in_bulk, io.StringIO(text)) is None
        assert outcome(parse_matrix, io.StringIO(text)) == error

    def test_bulk_read_checks_finiteness_once(self, monkeypatch):
        calls = []

        def isfinite(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        original = np.isfinite
        monkeypatch.setattr(np, "isfinite", isfinite)
        matrix = parse_matrix(io.StringIO("gene_id\ts1\ts2\ng1\t1\t2\ng2\t3\t4\n"))
        assert matrix.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert len(calls) == 1


def two_class_matrix():
    return parse_matrix(
        io.StringIO(matrix_text([("g1", 1, 2), ("g2", 3, 4)], header=("gene_id", "s1", "s2")))
    )


class TestParseLabels:
    def test_matrix_without_ids_rejected(self):
        matrix = ExpressionMatrix(("g0",), ("s0", "s1"), [[1.0, 2.0]])
        with pytest.raises(ValidationError, match=r"^parse_labels: expected an ExpressionMatrix "
                                                  r"or MembershipMatrix, got ndarray$"):
            parse_labels(io.StringIO("s0\tA\ns1\tB\n"), matrix.values)

    def test_valid_labels(self):
        m = two_class_matrix()
        labels = parse_labels(io.StringIO("s1\tALL\ns2\tAML\n"), m)
        assert labels.classes == ("ALL", "AML")
        assert labels.labels == {"s1": "ALL", "s2": "AML"}
        assert labels.class_indices().tolist() == [0, 1]

    def test_unknown_sample_id(self):
        with pytest.raises(ValidationError, match="s9"):
            parse_labels(io.StringIO("s1\tALL\ns9\tAML\n"), two_class_matrix())

    def test_sample_without_label(self):
        with pytest.raises(ValidationError, match="s2"):
            parse_labels(io.StringIO("s1\tALL\n"), two_class_matrix())

    def test_single_class_is_degenerate(self):
        with pytest.raises(DegenerateLabelsError):
            parse_labels(io.StringIO("s1\tALL\ns2\tALL\n"), two_class_matrix())

    def test_duplicate_label_row(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_labels(io.StringIO("s1\tALL\ns1\tAML\ns2\tAML\n"), two_class_matrix())

    def test_wrong_column_count(self):
        with pytest.raises(ParseError):
            parse_labels(io.StringIO("s1\tALL\textra\ns2\tAML\n"), two_class_matrix())

    def test_comma_delimited(self):
        labels = parse_labels(io.StringIO("s1,ALL\ns2,AML\n"), two_class_matrix())
        assert labels.classes == ("ALL", "AML")

    def test_quoted_sample_id_with_delimiter(self):
        m = ExpressionMatrix(("g1",), ("s,1", 's"2'), [[1.0, 2.0]])
        labels = parse_labels(io.StringIO('"s,1",ALL\n"s""2",AML\n'), m)
        assert labels.labels == {"s,1": "ALL", 's"2': "AML"}

    def test_quoted_sample_id_with_line_break(self):
        m = ExpressionMatrix(("g1",), ("s\n1", "s2"), [[1.0, 2.0]])
        labels = parse_labels(io.StringIO('"s\n1",ALL\ns2,AML\n'), m)
        assert labels.labels == {"s\n1": "ALL", "s2": "AML"}

    def test_empty_class_tag(self):
        with pytest.raises(DataError, match=r"^row 1: empty class tag$") as err:
            parse_labels(io.StringIO("s1\t\ns2\tAML\n"), two_class_matrix())
        assert (err.value.row, err.value.column) == (1, 2)

    def test_empty_label_file(self):
        with pytest.raises(ParseError, match=r"^empty label file$"):
            parse_labels(io.StringIO("\n\n"), two_class_matrix())

    def test_quoted_text_needs_a_one_character_delimiter(self):
        m = ExpressionMatrix(("g1",), ("s1", "s2"), [[1.0, 2.0]])
        with pytest.raises(ParseError, match="delimiter '::': quoted fields need a one-character"):
            parse_labels(io.StringIO('"s1"::ALL\ns2::AML\n'), m, delimiter="::")


class TestClassLabelsType:
    def test_coverage_enforced(self):
        with pytest.raises(ValidationError):
            ClassLabels({"s1": "A"}, ("s1", "s2"))

    def test_extra_labels_rejected(self):
        with pytest.raises(ValidationError):
            ClassLabels({"s1": "A", "s2": "B", "s3": "B"}, ("s1", "s2"))

    def test_classes_sorted_distinct(self):
        labels = ClassLabels({"s1": "B", "s2": "A", "s3": "B"}, ("s1", "s2", "s3"))
        assert labels.classes == ("A", "B")
        assert labels.class_indices().tolist() == [1, 0, 1]
