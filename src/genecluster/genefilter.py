"""Entropy-based gene scoring and top-N selection.

Genes are ranked by the information gain between their discretized expression
profile and the sample class variable, IG = H(X) + H(Y) - H(X, Y), with all
entropies in bits. Continuous expression rows are discretized per gene with
equal-width bins over the observed [min, max]; the default bin count follows
the Sturges rule, ceil(log2(m)) + 1. All genes are scored by one batched
kernel. Ties are exact: each score sums its count table's integer
prime-exponent key in ascending prime order, so genes whose IG is the same
rational value get bit-equal scores. Primes run up to the sample count N;
their columns over the counts 0..N hold pi(N) * (N + 1) ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabelsError,
    InvalidDistributionError,
    ParameterError,
    ShapeError,
    ValidationError,
    _check_integer,
)
from .ingest import ClassLabels, ExpressionMatrix, _as_array, _block_rows, _labelled, _write_csv

__all__ = [
    "DiscretizationSpec",
    "GeneRanking",
    "entropy",
    "bin_indices",
    "discrete_information_gain",
    "information_gain",
    "rank_and_select",
    "write_ranking",
]

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DiscretizationSpec:
    """Equal-width binning of a gene row over its observed [min, max]."""

    bin_count: int

    def __post_init__(self):
        _check_integer("bin_count", self.bin_count, 1)

    @classmethod
    def sturges(cls, sample_count: int) -> "DiscretizationSpec":
        _check_integer("sample_count", sample_count, 1)
        return cls(int(math.ceil(math.log2(sample_count))) + 1)


@dataclass(frozen=True, eq=False)
class GeneRanking:
    """Per-gene information-gain scores plus the descending-score gene order.

    Ties in score are broken by original gene index, ascending, so the
    ranking is deterministic. Ties are exact: genes whose information gain
    is the same rational value get bit-equal scores.
    """

    scores: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        order = np.asarray(self.order, dtype=np.int64)
        n = scores.shape[0]
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValidationError("order must be a permutation of 0..n-1")
        if n and (not np.isfinite(scores).all() or scores.min() < 0):
            raise ValidationError("scores must be finite and non-negative")
        ranked = scores[order]
        if n > 1 and np.any(np.diff(ranked) > 0):
            raise ValidationError("scores along order must be non-increasing")
        scores.flags.writeable = False
        order.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "order", order)


def entropy(distribution) -> float:
    """Shannon entropy in bits of a probability vector, with 0*log2(0) == 0.

    Entries must be non-negative and sum to 1 within 1e-9.
    """
    p = _as_array(distribution)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("expected a non-empty 1-D probability vector")
    if np.any(p < 0):
        raise InvalidDistributionError("negative probability mass")
    total = float(p.sum())
    if abs(total - 1.0) > _SUM_TOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
    nz = p[p > 0]
    return max(0.0, float(-np.sum(nz * np.log2(nz))))


def _bin_codes(values, bin_count: int) -> np.ndarray:
    """Row-wise equal-width bin codes of a 2-D array with at least one column.

    Each row is binned over its own [min, max]; the arithmetic runs in place
    on one float copy of ``values``.
    """
    lo = values.min(axis=1, keepdims=True)
    span = values.max(axis=1, keepdims=True) - lo
    span[span == 0] = 1.0  # a constant row is all zeros once lo is subtracted
    codes = values - lo
    codes *= bin_count
    codes /= span
    np.floor(codes, out=codes)
    np.minimum(codes, bin_count - 1, out=codes)
    return codes.astype(np.int64)


def bin_indices(values, bin_count: int) -> np.ndarray:
    """Equal-width bin codes for a 1-D vector over its own [min, max].

    The bin of x is min(B-1, floor((x - lo) * B / (hi - lo))); a constant
    vector lands entirely in bin 0.
    """
    v = _as_array(values)
    if v.ndim != 1:
        raise ShapeError("bin_indices expects a 1-D vector")
    spec = DiscretizationSpec(bin_count)
    if v.size == 0:
        return np.zeros(0, dtype=np.int64)
    return _bin_codes(v[None, :], spec.bin_count)[0]


def _joint_counts(codes, classes, n_bins: int, n_classes: int) -> np.ndarray:
    """(n, n_bins, n_classes) counts of each row's codes against ``classes``.

    ``codes`` is an (n, m) int64 array of codes in [0, n_bins); it is
    overwritten with flat (row, code, class) cell indices for one bincount.
    """
    n = codes.shape[0]
    cells = n * n_bins * n_classes
    codes *= n_classes
    codes += classes
    codes += np.arange(0, cells, n_bins * n_classes)[:, None]
    return np.bincount(codes.ravel(), minlength=cells).reshape(n, n_bins, n_classes)


def _prime_columns(top: int) -> list:
    """(log2 p, v * exponent of p in v for v = 0..top) for every prime p <= top.

    Primes come in ascending order, the order in which scores are summed.
    Counts over ``top`` samples lie in 0..top, so indexing a column by them
    factorises them without a sort. The columns hold pi(top) * (top + 1)
    ints: 11 x 35 at 34 samples, 95 x 501 (380 kB) at 500.
    """
    columns = []
    for p in range(2, top + 1):
        if any(column[p] for _, column in columns):
            continue  # a smaller prime divides p
        column = np.zeros(top + 1, dtype=np.int64)
        power = p
        while power <= top:
            column[power::power] += np.arange(power, top + 1, power)  # v once per factor p
            power *= p
        columns.append((math.log2(p), column))
    return columns


def _information_gain(joint, columns) -> np.ndarray:
    """Information gain in bits of each table in an (n, B, C) stack of counts.

    With N the table total, IG = log2(R) / N for the rational

        R = prod n_ij^n_ij * N^N / (prod n_i^n_i * prod n_j^n_j),

    so two tables with the same N have equal IG exactly when their R are
    equal. Each table's key is the integer exponent vector of R over the
    primes up to N, one gather of ``_prime_columns(N)`` (pi(N) * (N + 1)
    ints) per prime, and its score is summed from that key in ascending prime
    order: equal keys give bit-equal scores, and a prime that divides no
    count adds +0.0.
    """
    n, b, c = joint.shape
    # every count in R, one row per table, with the sign of its exponent
    cells = np.empty((n, b * c + b + c + 1), dtype=np.int64)
    cells[:, : b * c] = joint.reshape(n, b * c)
    joint.sum(axis=2, out=cells[:, b * c : b * c + b])
    joint.sum(axis=1, out=cells[:, b * c + b : -1])
    cells[:, -1] = cells[:, b * c + b : -1].sum(axis=1)
    totals = cells[:, -1].astype(float)
    sign = np.ones(cells.shape[1], dtype=np.int64)
    sign[b * c : -1] = -1
    gain = np.zeros(n)
    for log2_p, column in columns:
        gain += (column[cells] @ sign) * log2_p
    gain /= totals
    return np.maximum(gain, 0.0, out=gain)


def discrete_information_gain(x, y) -> float:
    """Information gain in bits between two aligned discrete sequences."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise ShapeError(
            f"aligned non-empty 1-D sequences required, got {x.shape} and {y.shape}"
        )
    x_values, xi = np.unique(x, return_inverse=True)
    y_values, yi = np.unique(y, return_inverse=True)
    joint = _joint_counts(xi[None, :], yi, len(x_values), len(y_values))
    return float(_information_gain(joint, _prime_columns(x.size))[0])


def _class_vector(labels) -> np.ndarray:
    """Per-sample class codes 0..C-1 from ClassLabels or a sequence of tags."""
    if isinstance(labels, ClassLabels):
        y = labels.class_indices()
    else:
        y = np.unique(np.asarray(labels), return_inverse=True)[1]
    if y.size == 0 or y.max() < 1:
        raise DegenerateLabelsError("information gain needs at least 2 classes")
    return y


def information_gain(gene_row, labels, spec: DiscretizationSpec) -> float:
    """Information gain in bits between a gene row and the class variable.

    ``labels`` is a :class:`ClassLabels` aligned with the row via its
    companion sample order, or any per-sample sequence of class tags.
    """
    row = _as_array(gene_row)
    y = _class_vector(labels)
    if row.ndim != 1 or row.shape != y.shape:
        raise ShapeError(f"gene row of length {row.shape} vs {y.shape} labels")
    return discrete_information_gain(bin_indices(row, spec.bin_count), y)


def rank_and_select(
    matrix: ExpressionMatrix,
    labels: ClassLabels,
    spec: DiscretizationSpec,
    top_n: int,
) -> tuple[GeneRanking, ExpressionMatrix]:
    """Rank all genes by information gain and keep the ``top_n`` best.

    The returned sub-matrix holds exactly the top_n genes by descending IG
    (exact ties by original index), in their original relative order; the
    sample axis is untouched. ClassLabels made for other samples or in
    another sample order, and a matrix without ids, raise ValidationError.
    """
    n = _labelled(matrix, "rank_and_select").n_genes
    _check_integer("top_n", top_n, 1)
    if top_n > n:
        raise ParameterError(f"top_n must be <= {n} genes, got {top_n}")
    y = _class_vector(labels)
    aligned = not isinstance(labels, ClassLabels) or labels.sample_ids == matrix.sample_ids
    if y.shape != (matrix.n_samples,) or not aligned:
        raise ValidationError("labels do not cover the matrix's samples")

    bins, n_classes = spec.bin_count, int(y.max()) + 1
    scores = np.empty(n)
    columns = _prime_columns(matrix.n_samples)
    rows = _block_rows(matrix.n_samples)
    for start in range(0, n, rows):
        codes = _bin_codes(matrix.values[start : start + rows], bins)
        scores[start : start + rows] = _information_gain(
            _joint_counts(codes, y, bins, n_classes), columns
        )
    order = np.argsort(-scores, kind="stable")
    ranking = GeneRanking(scores, order)
    keep = np.sort(order[:top_n])
    selected = ExpressionMatrix(
        tuple(matrix.gene_ids[i] for i in keep),
        matrix.sample_ids,
        matrix.values[keep],
    )
    return ranking, selected


def write_ranking(ranking: GeneRanking, gene_ids, dest) -> None:
    """Dump a ranking as CSV rows of gene_id, ig_bits, rank (1-based): one id per gene."""
    if len(gene_ids) != len(ranking.scores):
        raise ShapeError(f"{len(gene_ids)} gene ids for a ranking of {len(ranking.scores)} genes")
    scores = ranking.scores.tolist()
    rows = (
        (gene_ids[idx], repr(scores[idx]), rank)
        for rank, idx in enumerate(ranking.order.tolist(), start=1)
    )
    _write_csv(dest, ("gene_id", "ig_bits", "rank"), rows)
