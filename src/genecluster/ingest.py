"""Reading, validating, and writing expression matrices and sample class labels.

Expression files are delimited text (tab or comma, auto-detected from the
header row), laid out genes-as-rows:

    [corner]  sample_1  sample_2  ...  sample_m
    gene_1    w_11      w_12      ...  w_1m
    ...
    gene_n    w_n1      w_n2      ...  w_nm

The corner cell is optional; its presence is inferred from the width of the
body rows. An id holding the delimiter, a double quote or a line break is
quoted CSV-style (``"HLA-DRB1,3"``, ``"a""b"``), as :func:`write_matrix`
writes it. Label files are two columns per record, ``sample_id <delim>
class``, quoted the same way.
Both UTF-8 (with or without a byte-order mark, which an open text stream may
begin with too) with LF or CRLF line endings are accepted; lines end at LF,
CRLF or CR only. Text that is not UTF-8 is a ParseError naming the line of
its first bad byte. Missing or non-numeric cells are rejected rather than
imputed, since every downstream computation assumes complete data.

A matrix file holding no double quote is read in one numpy pass
(``np.loadtxt``). Any input that pass has a doubt about (a ragged or blank
line, a value only ``float()`` accepts, a missing or non-finite value) is
read cell by cell instead, and gives the same matrix or the same error as
it would without the pass.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateLabelsError, ParseError, ShapeError, ValidationError

__all__ = [
    "ExpressionMatrix",
    "ClassLabels",
    "parse_matrix",
    "parse_labels",
    "write_matrix",
]


# Row-blocked kernels (gene ranking, distances, similarities) take about this
# many matrix cells at a time, so their temporaries stay between a few hundred
# kB and 2 MB whatever the number of rows.
_BLOCK_CELLS = 1 << 15


def _block_rows(width: int) -> int:
    """Rows per block of a matrix ``width`` cells wide: about _BLOCK_CELLS cells."""
    return max(1, _BLOCK_CELLS // max(1, width))


def _tiles(X, Z) -> Iterator[tuple]:
    """The row-block loop of the per-centroid kernels: (h, rows, block, tile, scratch).

    For each row z of Z (index h), X is walked in row blocks ``X[rows]``.
    ``tile`` is z copied to the block's shape, so elementwise steps run over
    two contiguous blocks instead of broadcasting z row by row, and
    ``scratch`` is a free buffer of that shape. Both are reused for every
    block and every h, and take X's dtype: z is rounded to it.
    """
    n, m = X.shape
    step = _block_rows(m)
    tiles, scratches = np.empty((2, min(step, n), m), dtype=X.dtype)
    for h, z in enumerate(Z):
        tiles[...] = z
        for start in range(0, n, step):
            rows = slice(start, min(start + step, n))
            r = rows.stop - start
            yield h, rows, X[rows], tiles[:r], scratches[:r]


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def _decode(data: bytes) -> str:
    """UTF-8 text, a leading byte-order mark dropped; a ParseError names the first bad byte."""
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[: exc.start + 1].splitlines())  # bytes break lines at LF, CRLF, CR only
        raise ParseError(f"not UTF-8 text: byte {data[exc.start]:#04x} on line {line}") from None


def _read_lines(source, delimiter: str | None) -> tuple[list[str], str, bool]:
    """The lines of a path or an open text stream, their delimiter, and whether they hold a quote.

    Either source loses one leading byte-order mark, as :func:`_decode` drops it.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, as ``io.StringIO(text,
    newline="")`` splits them; ``str.splitlines`` would also break at
    characters such as ``\\x0c`` or ``\\u2028``, which the ``csv`` module
    writes unquoted. Lines of text holding a double quote keep their line
    ends, for the ``csv`` module; other lines lose them. Trailing blank lines
    are dropped. The delimiter is ``delimiter`` or, when that is None,
    sniffed from the first line.
    """
    if hasattr(source, "read"):
        text = source.read().removeprefix("\ufeff")
    else:
        with open(source, "rb") as fh:
            text = _decode(fh.read())
    quoted = '"' in text
    if quoted:
        # the csv module needs the line ends to keep a line break inside a field
        lines = io.StringIO(text, newline="").readlines()
    else:
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    delim = delimiter or _sniff_delimiter(lines[0] if lines else "")
    return lines, delim, quoted


def _records(lines: list[str], delim: str, quoted: bool) -> Iterator[list[str]]:
    """The records of lines read by :func:`_read_lines`, each a list of fields.

    No record is shorter than a line, so the line count bounds the record
    count. Quoted text is split by the ``csv`` module, so a quoted field may
    hold the delimiter, a double quote or a line break; a quote left open is
    a ParseError naming the line it opens on, and a delimiter longer than
    one character, which the ``csv`` module cannot split on, is a ParseError
    too. Other lines are split on the delimiter.
    """
    if quoted:
        if len(delim) != 1:
            raise ParseError(f"delimiter {delim!r}: quoted fields need a one-character delimiter")
        return _csv_records(lines, delim)
    return (line.split(delim) for line in lines)


def _csv_records(lines, delim: str) -> Iterator[list[str]]:
    # One line end past the input: a quoted field still open at the end takes
    # it in, while after a closed record it is read as one empty record.
    reader = csv.reader(itertools.chain(lines, ["\n"]), delimiter=delim)
    start = 1
    try:
        for record in reader:
            if reader.line_num > len(lines):
                if record:
                    # the open field runs from its quote to the end, the extra line end included
                    spanned = io.StringIO(record[-1][:-1], newline="").readlines()
                    opened = len(lines) + 1 - max(1, len(spanned))
                    raise ParseError(
                        f"line {opened}: unclosed double quote runs to the end of the input"
                    )
                return
            # a blank line is one empty field, as str.split reads it
            yield record or [""]
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. an unclosed quote running past the field size limit
        raise ParseError(f"line {start}: malformed quoted field: {exc}") from None


def _check_unique(ids, what: str):
    seen = set()
    for ident in ids:
        if ident in seen:
            raise ValidationError(f"duplicate {what} id {ident!r}")
        seen.add(ident)


@dataclass(frozen=True, eq=False)
class LabelledMatrix:
    """An n-genes by m-samples value array with unique gene and sample ids.

    The value array is frozen after construction, so a matrix can be shared
    between any number of concurrent readers. Subclasses state which values
    they accept in ``_check_values``.
    """

    gene_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        gene_ids = tuple(str(g) for g in self.gene_ids)
        sample_ids = tuple(str(s) for s in self.sample_ids)
        values = np.array(self.values, dtype=float)
        if values.size == 0:
            values = values.reshape(len(gene_ids), len(sample_ids))
        if values.ndim != 2 or values.shape != (len(gene_ids), len(sample_ids)):
            raise ValidationError(
                f"value array of shape {values.shape} does not match "
                f"{len(gene_ids)} gene ids x {len(sample_ids)} sample ids"
            )
        _check_unique(gene_ids, "gene")
        _check_unique(sample_ids, "sample")
        self._check_values(values)
        values.flags.writeable = False
        object.__setattr__(self, "gene_ids", gene_ids)
        object.__setattr__(self, "sample_ids", sample_ids)
        object.__setattr__(self, "values", values)

    def _check_values(self, values):
        """Raise ValidationError for values this kind of matrix may not hold."""

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)


def _as_array(data) -> np.ndarray:
    """Any array argument as floats; a labelled matrix gives its values bit for bit."""
    return np.asarray(getattr(data, "values", data), dtype=float)


def _as_matrix(data) -> np.ndarray:
    """Any array argument as 2-D floats through ``_as_array``; 1-D input is one column."""
    X = _as_array(data)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D data matrix, got shape {X.shape}")
    return X


def _labelled(matrix, caller: str) -> LabelledMatrix:
    """``matrix`` for an argument that needs gene and sample ids, or ValidationError."""
    if not isinstance(matrix, LabelledMatrix):
        raise ValidationError(f"{caller}: expected an ExpressionMatrix or MembershipMatrix, "
                              f"got {type(matrix).__name__}")
    return matrix


@dataclass(frozen=True, eq=False)
class ExpressionMatrix(LabelledMatrix):
    """An n-genes by m-samples matrix of real expression levels.

    Rows are genes, columns are samples; values may be negative and use
    arbitrary units but must be finite.
    """

    def _check_values(self, values):
        if not np.isfinite(values).all():
            raise ValidationError("expression values must all be finite")


@dataclass(frozen=True, eq=False)
class ClassLabels:
    """Per-sample class tags tied to a companion matrix's sample order.

    ``labels`` maps every companion sample id to exactly one class tag;
    ``classes`` is the sorted tuple of distinct tags.
    """

    labels: dict[str, str]
    sample_ids: tuple[str, ...]
    classes: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        labels = {str(k): str(v) for k, v in dict(self.labels).items()}
        sample_ids = tuple(str(s) for s in self.sample_ids)
        missing = [s for s in sample_ids if s not in labels]
        if missing:
            raise ValidationError(f"samples without a label: {missing[:5]}")
        extra = sorted(set(labels) - set(sample_ids))
        if extra:
            raise ValidationError(f"labels for unknown samples: {extra[:5]}")
        classes = tuple(sorted(set(labels.values())))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sample_ids", sample_ids)
        object.__setattr__(self, "classes", classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_indices(self) -> np.ndarray:
        """Class tags encoded as integers, aligned with the companion sample order."""
        index = {c: i for i, c in enumerate(self.classes)}
        return np.array([index[self.labels[s]] for s in self.sample_ids], dtype=np.int64)


def parse_matrix(source, delimiter: str | None = None) -> ExpressionMatrix:
    """Parse a delimited expression file into an :class:`ExpressionMatrix`.

    ``source`` is a path or an open text stream. The delimiter is tab or
    comma, auto-detected from the header row unless given. Row and column
    numbers in errors are 1-based over body rows and data columns.
    """
    lines, delim, quoted = _read_lines(source, delimiter)
    matrix = None if quoted else _matrix_in_bulk(lines, delim)
    return matrix if matrix is not None else _matrix_by_cell(lines, delim, quoted)


def _matrix_in_bulk(lines: list[str], delim: str) -> ExpressionMatrix | None:
    """The matrix of unquoted ``lines`` read in one numpy pass, or None on any doubt.

    None means :func:`_matrix_by_cell` must read the lines, and gives the
    same matrix or raises the error it always raised. The pass only takes
    input that loop reads without error: a tab or comma delimiter, at least
    one body row and one data column, a header of m or m + 1 fields, exactly
    m delimiters on every body line (``usecols`` would drop extra fields, and
    ``loadtxt`` skips blank lines), and values that ``ExpressionMatrix``
    accepts: finite ones, checked there once. Each cell is
    parsed as the loop parses it: ``loadtxt`` strips the whitespace
    ``str.strip`` strips and hands the ASCII rest to
    ``PyOS_string_to_double``, the routine ``float()`` ends in. A cell that
    ``float()`` alone reads (an underscore, a non-ASCII digit) makes
    ``loadtxt`` raise, and falls to the loop.
    """
    if len(lines) < 2 or delim not in ("\t", ","):
        return None
    header, body = lines[0].split(delim), lines[1:]
    m = body[0].count(delim)
    if m == 0 or len(header) not in (m, m + 1):
        return None
    if any(line.count(delim) != m for line in body):
        return None
    try:
        # comments=None: the default "#" would cut an id such as g#1
        values = np.loadtxt(
            body, delimiter=delim, usecols=range(1, m + 1), comments=None,
            quotechar=None, ndmin=2, dtype=float,
        )
    except ValueError:
        return None
    gene_ids = tuple(line.split(delim, 1)[0].strip() for line in body)
    sample_ids = tuple(f.strip() for f in header[len(header) - m:])
    try:
        return ExpressionMatrix(gene_ids, sample_ids, values)
    except ValidationError:  # the loop raises it too, naming a non-finite value's row and column
        return None


def _matrix_by_cell(lines: list[str], delim: str, quoted: bool) -> ExpressionMatrix:
    """The matrix of lines read by :func:`_read_lines`, parsed one cell at a time.

    A fault raises an error naming its row, and its column for a cell.
    """
    records = _records(lines, delim, quoted)
    header = next(records, None)
    if header is None:
        raise ParseError("empty input: expected a header row of sample ids")
    header = [f.strip() for f in header]

    first = next(records, None)
    if first is None:
        m = len(header) - 1
    else:
        m = len(first) - 1
        if len(header) not in (m, m + 1):
            raise ParseError(
                f"header has {len(header)} fields but body rows carry {m} data columns",
                row=1,
            )
        records = itertools.chain([first], records)
    sample_ids = tuple(header[len(header) - m:]) if m > 0 else ()

    gene_ids = []
    values = np.empty((len(lines) - 1, m), dtype=float)
    for r, fields in enumerate(records, start=1):
        if len(fields) != m + 1:
            raise ParseError(
                f"row {r}: expected {m + 1} fields, found {len(fields)}", row=r
            )
        gene_ids.append(fields[0].strip())
        for c, cell in enumerate(fields[1:], start=1):
            cell = cell.strip()
            if not cell:
                raise DataError(f"row {r}, column {c}: missing value", row=r, column=c)
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"row {r}, column {c}: non-numeric value {cell!r}",
                    row=r,
                    column=c,
                ) from None
            if not math.isfinite(v):
                raise DataError(
                    f"row {r}, column {c}: non-finite value {cell!r}", row=r, column=c
                )
            values[r - 1, c - 1] = v

    return ExpressionMatrix(tuple(gene_ids), sample_ids, values[: len(gene_ids)])


def parse_labels(source, matrix: ExpressionMatrix, delimiter: str | None = None) -> ClassLabels:
    """Parse a two-column sample/class file against a companion matrix.

    Every matrix sample must receive exactly one label, no label may name an
    unknown sample, and at least two distinct classes must be present.
    """
    known = set(_labelled(matrix, "parse_labels").sample_ids)
    mapping: dict[str, str] = {}
    for r, record in enumerate(_records(*_read_lines(source, delimiter)), start=1):
        fields = [f.strip() for f in record]
        if len(fields) != 2:
            raise ParseError(
                f"row {r}: expected 2 fields (sample id, class), found {len(fields)}",
                row=r,
            )
        sid, tag = fields
        if sid not in known:
            raise ValidationError(f"row {r}: unknown sample id {sid!r}")
        if sid in mapping:
            raise ValidationError(f"row {r}: duplicate label for sample {sid!r}")
        if not tag:
            raise DataError(f"row {r}: empty class tag", row=r, column=2)
        mapping[sid] = tag
    if not mapping:
        raise ParseError("empty label file")

    labels = ClassLabels(mapping, matrix.sample_ids)
    if labels.n_classes < 2:
        raise DegenerateLabelsError(
            f"need at least 2 distinct classes, found {list(labels.classes)}"
        )
    return labels


def _atomic_write(path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) through a unique temp file beside it.

    A concurrent writer to the same path never shares the temp file, and a
    failed write removes it and leaves ``path`` untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        # mkstemp creates the file 0600; give it the mode open() would have
        umask = os.umask(0o022)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(dest, header, rows, delimiter: str = ",") -> None:
    """Write a header and rows of cells as delimited text: LF line ends, minimal quoting.

    A cell holding the delimiter, a double quote or a line break is quoted,
    so every row keeps its field count. ``rows`` may be any iterable. ``dest``
    is an open text stream or a path; a path is replaced atomically.
    """
    if hasattr(dest, "write"):
        writer = csv.writer(dest, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    buf = io.StringIO()
    _write_csv(buf, header, rows, delimiter)
    _atomic_write(dest, buf.getvalue())


def write_matrix(matrix, dest, delimiter: str = "\t") -> None:
    """Write a matrix in the same delimited layout :func:`parse_matrix` reads.

    Values are formatted with shortest round-trip ``repr``, so a written file
    parses back bit-identically. ``matrix`` is an ExpressionMatrix or a
    MembershipMatrix; anything else raises ValidationError. An id holding
    the delimiter, a double quote or a line break is written quoted and read
    back as it was.
    """
    _labelled(matrix, "write_matrix")
    rows = (
        (gid, *(repr(float(v)) for v in row)) for gid, row in zip(matrix.gene_ids, matrix.values)
    )
    _write_csv(dest, ("gene_id", *matrix.sample_ids), rows, delimiter)
