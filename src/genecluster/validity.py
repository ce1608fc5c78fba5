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

from dataclasses import dataclass, field

import numpy as np

from .clustering import RoughClustering, _as_matrix, _as_pair, _sq_distances, _to_masks
from .errors import (
    DegenerateClusteringError,
    ParameterError,
    ShapeError,
    ValidityError,
)
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
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "db_index": self.db_index,
            "xb_index": self.xb_index,
            "sse": self.sse,
            "iterations": self.iterations,
            "converged": self.converged,
            "params": dict(self.params),
        }


def _check_scorable(data, assignment, centroids):
    X, Z = _as_pair(data, centroids)
    a = np.asarray(assignment, dtype=np.int64)
    k = Z.shape[0]
    if a.shape != (X.shape[0],):
        raise ShapeError(f"assignment of length {a.shape} vs {X.shape[0]} rows")
    if k < 2:
        raise ValidityError(f"validity indices need k >= 2 clusters, got {k}")
    if a.size and (a.min() < 0 or a.max() >= k):
        raise ShapeError(f"assignment values must lie in 0..{k - 1}")
    counts = np.bincount(a, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValidityError(f"cluster {int(empty[0])} is empty")
    return X, a, Z


def _centroid_gaps_squared(Z) -> np.ndarray:
    """Pairwise squared centroid distances with +inf on the diagonal."""
    gaps = _sq_distances(Z, Z)
    np.fill_diagonal(gaps, np.inf)
    if float(gaps.min()) == 0.0:
        raise DegenerateClusteringError("coincident centroids")
    return gaps


def db_index(data, assignment, centroids) -> float:
    """Davies-Bouldin score of a crisp clustering; lower is better."""
    X, a, Z = _check_scorable(data, assignment, centroids)
    k = Z.shape[0]
    sigma = np.empty(k)
    for h in range(k):
        members = X[a == h]
        sigma[h] = float(np.sqrt(((members - Z[h]) ** 2).sum(axis=1)).mean())
    gaps = np.sqrt(_centroid_gaps_squared(Z))
    ratios = (sigma[:, None] + sigma[None, :]) / gaps
    return float(ratios.max(axis=1).mean())


def xb_index(data, assignment, centroids) -> float:
    """Xie-Beni score of a crisp clustering; lower is better."""
    X, a, Z = _check_scorable(data, assignment, centroids)
    within = sum_squared_error(X, a, Z)
    separation = float(_centroid_gaps_squared(Z).min())
    return within / (X.shape[0] * separation)


def sum_squared_error(data, assignment, centroids) -> float:
    """Total squared Euclidean distance of each row to its assigned centroid."""
    X, Z = _as_pair(data, centroids)
    a = np.asarray(assignment, dtype=np.int64)
    return float(((X - Z[a]) ** 2).sum())


def crispify(rough: RoughClustering, data, metric: str = "distance") -> np.ndarray:
    """Resolve a rough clustering to one cluster per gene.

    Lower-approximation members keep their cluster. A boundary gene goes to
    the max-proximity cluster among its upper approximations: minimum
    Euclidean distance for ``metric="distance"``, maximum soft-set similarity
    for ``metric="similarity"``; ties to the lowest cluster index. Proximity
    is measured to ``rough.centroids`` with the kernel the engines use.
    """
    if metric not in ("distance", "similarity"):
        raise ParameterError(f"metric must be 'distance' or 'similarity', got {metric!r}")
    X = _as_matrix(data)
    assignment, upper = _to_masks(rough.lower, rough.upper, X.shape[0])
    boundary = np.flatnonzero(assignment < 0)
    candidates = upper[boundary]
    if not candidates.any(axis=1).all():
        raise ValidityError("a gene is in no lower and no upper approximation")
    if metric == "distance":
        cost = _sq_distances(X[boundary], rough.centroids)
    else:
        cost = -_similarities(X[boundary], rough.centroids)
    pick = np.where(candidates, cost, np.inf).argmin(axis=1)
    # a candidate whose cost overflowed to inf ties with the masked-out clusters
    stray = ~candidates[np.arange(boundary.size), pick]
    pick[stray] = candidates[stray].argmax(axis=1)
    assignment[boundary] = pick
    return assignment
