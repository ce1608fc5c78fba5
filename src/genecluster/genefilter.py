"""Entropy-based gene scoring and top-N selection.

Genes are ranked by the information gain between their discretized expression
profile and the sample class variable, IG = H(X) + H(Y) - H(X, Y), with all
entropies in bits. Continuous expression rows are discretized per gene with
equal-width bins over the observed [min, max]; the default bin count follows
the Sturges rule, ceil(log2(m)) + 1. All genes are scored by one batched
kernel, and genes whose IG is exactly equal get bit-equal scores.
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
from .ingest import ClassLabels, ExpressionMatrix, _block_rows, _labelled, _write_csv

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
        if order.shape != (n,) or sorted(order.tolist()) != list(range(n)):
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
    p = np.asarray(distribution, dtype=float)
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
    v = np.asarray(values, dtype=float)
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


def _prime_exponents(values):
    """(p, exponent of p in each entry) for every prime dividing some entry.

    Primes come in ascending order; entries 0 and 1 have no prime factors.
    Only the given entries are factorised, by trial division up to the
    square root of the largest, so no table sized by the largest is built.
    """
    rest = np.maximum(values, 1)
    found = []
    p = 2
    while p * p <= rest.max():
        exponent = np.zeros_like(rest)
        while True:
            hit = rest % p == 0
            if not hit.any():
                break
            exponent += hit
            rest[hit] //= p
        if exponent.any():
            found.append((p, exponent))
        p += 1  # composites never divide: their prime factors are already gone
    # what is left is 1 or a prime larger than every p tried above
    for q in sorted(set(rest[rest > 1].tolist())):
        found.append((q, (rest == q).astype(rest.dtype)))
    return found


def _information_gain(joint) -> np.ndarray:
    """Information gain in bits of each table in an (n, B, C) stack of counts.

    With N the table total, IG = log2(R) / N for the rational

        R = prod n_ij^n_ij * N^N / (prod n_i^n_i * prod n_j^n_j),

    so two tables with the same N have equal IG exactly when their R are
    equal. Each table's key is the integer exponent vector of R over the
    primes dividing any count, built one prime at a time, and its score is
    accumulated from that key in ascending prime order: equal keys give
    bit-equal scores. Only the distinct count values present are factorised.
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
    values, at = np.unique(cells, return_inverse=True)
    at = at.reshape(cells.shape)
    gain = np.zeros(n)
    for p, exponent in _prime_exponents(values):
        gain += ((values * exponent)[at] @ sign) * math.log2(p)
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
    return float(_information_gain(joint)[0])


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
    row = np.asarray(gene_row, dtype=float)
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
    rows = _block_rows(matrix.n_samples)
    for start in range(0, n, rows):
        codes = _bin_codes(matrix.values[start : start + rows], bins)
        scores[start : start + rows] = _information_gain(
            _joint_counts(codes, y, bins, n_classes)
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
    """Dump a ranking as CSV rows of gene_id, ig_bits, rank (1-based)."""
    scores = ranking.scores.tolist()
    rows = (
        (gene_ids[idx], repr(scores[idx]), rank)
        for rank, idx in enumerate(ranking.order.tolist(), start=1)
    )
    _write_csv(dest, ("gene_id", "ig_bits", "rank"), rows)
