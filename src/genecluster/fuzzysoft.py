"""Fuzzification with S/Z-shaped membership splines and soft-set similarity.

A matrix is fuzzified one sample column at a time: the column minimum and
maximum become the spline knots a and b, so every column is mapped onto the
full [0, 1] membership range. Similarity between membership vectors is

    sim(x, z) = 1 - sum_j |x_j - z_j| / sum_j (x_j + z_j)

with the all-zero pair defined as perfectly similar (both vectors identical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, ValidationError
from .ingest import LabelledMatrix, _as_matrix, _labelled, _tiles

__all__ = [
    "MembershipShape",
    "MembershipMatrix",
    "membership",
    "fuzzify",
    "similarity",
    "similarity_profile",
]

KINDS = ("s", "z")


def _check_kind(name, kind):
    if kind not in KINDS:
        raise ParameterError(f"{name} must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True)
class MembershipShape:
    """A rising (s) or falling (z) piecewise-quadratic spline between knots a < b.

    Degenerate knots (a == b, from a constant column) make the function the
    constant 1 for either kind.
    """

    kind: str
    a: float
    b: float

    def __post_init__(self):
        _check_kind("kind", self.kind)
        if not self.a <= self.b:
            raise ParameterError(f"knots must satisfy a <= b, got a={self.a}, b={self.b}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True, eq=False)
class MembershipMatrix(LabelledMatrix):
    """A fuzzified matrix: same identifiers as its source, every entry in [0, 1]."""

    def _check_values(self, values):
        if not ((values >= 0.0) & (values <= 1.0)).all():
            raise ValidationError("membership degrees must lie in [0, 1]")


def _spline(x, a, b, kind: str) -> np.ndarray:
    """S or Z membership of every entry of x, knots a and b broadcast against x.

    NaN maps to NaN and a == b maps everything to 1. Every branch is computed
    for every entry, so overflow in a branch not taken is silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        span = b - a
        safe = np.where(span > 0, span, 1.0)
        mid = (a + b) / 2.0
        rising = 2.0 * ((x - a) / safe) ** 2
        falling = 1.0 - 2.0 * ((x - b) / safe) ** 2
        s = np.select(
            [x <= a, x < mid, x < b, x >= b], [0.0, rising, falling, 1.0], default=np.nan
        )
    out = s if kind == "s" else 1.0 - s
    return np.where(span > 0, out, 1.0)


def membership(x: float, shape: MembershipShape) -> float:
    """Membership degree of x under the given spline; total on all reals."""
    return float(_spline(np.array([float(x)]), shape.a, shape.b, shape.kind)[0])


def fuzzify(matrix, kind: str = "s") -> MembershipMatrix:
    """Fuzzify a matrix column-wise, knots at each sample column's min and max.

    An s-shaped run maps each column's minimum to 0 and maximum to 1; a
    z-shaped run mirrors that. Constant columns map to all-ones.
    """
    _check_kind("kind", kind)
    vals = _labelled(matrix, "fuzzify").values
    if vals.size == 0:
        return MembershipMatrix(matrix.gene_ids, matrix.sample_ids, vals.copy())
    out = _spline(vals, vals.min(axis=0), vals.max(axis=0), kind)
    return MembershipMatrix(matrix.gene_ids, matrix.sample_ids, out)


def _similarities(X, Z) -> np.ndarray:
    """Similarity of every row of X to every row of Z, as an (n, k) array.

    Taken over ``ingest._tiles``: a block's |x - z| to one row of Z, then its
    x + z, go into the scratch buffer, summed per row by ``np.add.reduce`` as
    an unblocked ``.sum(axis=1)`` sums them, so every similarity keeps its
    bits.
    """
    S = np.empty((X.shape[0], len(Z)))
    for h, rows, block, tile, tmp in _tiles(X, Z):
        num = np.add.reduce(np.abs(np.subtract(block, tile, out=tmp), out=tmp), axis=1)
        den = np.add.reduce(np.add(block, tile, out=tmp), axis=1)
        S[rows, h] = np.where(den != 0, 1.0 - num / np.where(den != 0, den, 1.0), 1.0)
    return S


def _as_row(vector) -> np.ndarray:
    """A vector argument (1-D, one row or one column) as a (1, m) row."""
    x = _as_matrix(vector)
    if 1 not in x.shape:
        raise ShapeError(f"expected one row or one column, got shape {x.shape}")
    return x.reshape(1, -1)


def similarity(x, z) -> float:
    """Soft-set similarity of two equal-length membership vectors."""
    return float(similarity_profile(x, _as_row(z))[0])


def similarity_profile(gene, centroids) -> np.ndarray:
    """Similarity of one membership vector against each of k centroid rows."""
    x, Z = _as_row(gene), _as_matrix(centroids)
    if Z.shape[1] != x.shape[1]:
        raise ShapeError(f"centroid rows of length {x.shape[1]} required, got {Z.shape}")
    return _similarities(x, Z)[0]
