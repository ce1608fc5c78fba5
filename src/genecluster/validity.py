"""Cluster validity scoring: DB index, Xie-Beni index, SSE, crispification.

Both indices are the standard crisp forms; lower is better for each.

    DB  = (1/k) * sum_h max_{g != h} (sigma_h + sigma_g) / d(Z_h, Z_g)
          with sigma_h the mean Euclidean distance of cluster h's members
          to its centroid.
    XB  = sum_h sum_{i in h} ||X_i - Z_h||^2 / (n * min_{h != g} ||Z_h - Z_g||^2)

The three engines share one loop and differ only in their assignment rule;
kmeans yields a crisp assignment, rough and fsrk yield rough clusterings,
which are resolved to crisp ones first: lower-approximation members keep
their cluster, boundary genes go to the nearest (distance rule) or most
similar (similarity rule) of their upper-approximation clusters, scored with
the engines' own kernels against the final centroids, ties to the lowest
index.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .clustering import (
    RoughClustering,
    _as_finite_pair,
    _residuals,
    _sq_distances,
    _to_masks,
    sum_squared_error,
)
from .errors import DegenerateClusteringError, ParameterError, ShapeError, ValidityError
from .fuzzysoft import _similarities

__all__ = [
    "ValidityReport",
    "db_index",
    "xb_index",
    "crispify",
    "sum_squared_error",
]


@dataclass(eq=True)
class ValidityReport:
    """One scored clustering run: the row shape of a comparison table."""

    dataset: str
    algorithm: str
    db_index: float
    xb_index: float
    sse: float
    iterations: int
    converged: bool = True
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _scorable(data, assignment, centroids):
    """What both indices take from a clustering they are defined on: the
    assignment, the squared residuals of ``clustering._residuals``, and the
    pairwise squared centroid distances with +inf on the diagonal."""
    a, Z, D = _residuals(data, assignment, centroids)
    k = Z.shape[0]
    if k < 2:
        raise ValidityError(f"validity indices need k >= 2 clusters, got {k}")
    counts = np.bincount(a, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValidityError(f"cluster {int(empty[0])} is empty")
    gaps = _sq_distances(Z, Z)
    np.fill_diagonal(gaps, np.inf)
    if float(gaps.min()) == 0.0:
        raise DegenerateClusteringError("coincident centroids")
    return a, D, gaps


def db_index(data, assignment, centroids) -> float:
    """Davies-Bouldin score of a crisp clustering; lower is better."""
    a, D, gaps = _scorable(data, assignment, centroids)
    norms = np.sqrt(D.sum(axis=1))  # sigma_h is their mean over cluster h, in gene order
    sigma = np.array([np.compress(a == h, norms).mean() for h in range(len(gaps))])
    ratios = (sigma[:, None] + sigma[None, :]) / np.sqrt(gaps)
    return float(ratios.max(axis=1).mean())


def xb_index(data, assignment, centroids) -> float:
    """Xie-Beni score of a crisp clustering; lower is better."""
    _, D, gaps = _scorable(data, assignment, centroids)
    return float(D.sum()) / (D.shape[0] * float(gaps.min()))


def crispify(rough: RoughClustering, data, metric: str = "distance") -> np.ndarray:
    """Resolve a rough clustering to one cluster per gene.

    Lower-approximation members keep their cluster. A boundary gene goes to
    the max-proximity cluster among its upper approximations: minimum
    Euclidean distance for ``metric="distance"``, maximum soft-set similarity
    for ``metric="similarity"``; ties to the lowest cluster index. Proximity
    is measured to ``rough.centroids`` with the kernel the engines use.
    Centroid, lower-set and upper-set counts that differ raise ShapeError.
    """
    if metric not in ("distance", "similarity"):
        raise ParameterError(f"metric must be 'distance' or 'similarity', got {metric!r}")
    X, Z = _as_finite_pair(data, rough.centroids)
    if len(Z) != len(rough.upper):
        raise ShapeError(f"{len(Z)} centroids vs {len(rough.upper)} clusters")
    assignment, upper = _to_masks(rough.lower, rough.upper, X.shape[0])
    boundary = np.flatnonzero(assignment < 0)
    candidates = upper[boundary]
    if not candidates.any(axis=1).all():
        raise ValidityError("a gene is in no lower and no upper approximation")
    if metric == "distance":
        cost = _sq_distances(X[boundary], Z)
    else:
        cost = -_similarities(X[boundary], Z)
    pick = np.where(candidates, cost, np.inf).argmin(axis=1)
    # a candidate whose cost overflowed to inf ties with the masked-out clusters
    stray = ~candidates[np.arange(boundary.size), pick]
    pick[stray] = candidates[stray].argmax(axis=1)
    assignment[boundary] = pick
    return assignment
