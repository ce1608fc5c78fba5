import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genecluster.errors import (
    DataError,
    DegenerateLabelsError,
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
        path.write_text(matrix_text([("g1", 1, 2)]))
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


def two_class_matrix():
    return parse_matrix(
        io.StringIO(matrix_text([("g1", 1, 2), ("g2", 3, 4)], header=("gene_id", "s1", "s2")))
    )


class TestParseLabels:
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
