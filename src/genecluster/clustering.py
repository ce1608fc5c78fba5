"""Partitional clustering engines over gene rows.

One engine runs all three algorithms: k distinct rows as initial centroids,
then an assignment rule and the weighted centroid update in turn until no
centroid coordinate moves by more than tol, or max_iter passes. Inside the
loop a clustering is a per-gene lower index (-1 for a boundary gene) and an
(n, k) boolean upper mask; the rule is what differs:

* ``kmeans``        - the distance rule at epsilon = 1: every gene is crisp
                      in its nearest cluster (Lloyd iteration).
* ``rough_kmeans``  - the distance rule: d_h / d_best <= epsilon (>= 1) puts
                      a gene in the boundary; centroids blend lower and
                      boundary means with weights w_lower and w_upper.
* ``fsrk_kmeans``   - the similarity rule over membership rows:
                      S_h / S_best >= epsilon (in (0, 1]), same centroids.

Membership bookkeeping obeys the rough-set axioms: lower[h] is a subset of
upper[h]; a gene is in at most one lower approximation; a gene in a lower
approximation is in no other upper approximation; a gene in no lower
approximation is in at least two upper approximations; the upper sets cover
all genes. Exact distance/similarity ties go to the lowest cluster index
before the ratio test, so a tied competitor never widens the boundary; with
epsilon at its crisp setting every gene therefore lands in exactly one lower
approximation. Results, hooks and public helpers see frozensets.

A run whose centroids return bit for bit to those of an earlier pass is
periodic from there on and can no longer converge. The engine then stops and
returns the state that pass max_iter would end on (iterations = max_iter,
converged false), equal bit for bit to running every pass. With a hook or an
observer every pass still runs, so the hook sees each one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ShapeError
from .fuzzysoft import _similarities
from .ingest import _block_rows

__all__ = [
    "RoughParams",
    "CrispClustering",
    "RoughClustering",
    "DEFAULT_ROUGH_EPSILON",
    "DEFAULT_FSRK_EPSILON",
    "init_centroids",
    "kmeans",
    "rough_assign",
    "rough_centroids",
    "rough_kmeans",
    "fsrk_assign",
    "fsrk_kmeans",
]

DEFAULT_ROUGH_EPSILON = 1.2
DEFAULT_FSRK_EPSILON = 0.95

_WEIGHT_TOL = 1e-9


def _check_weights(w_lower: float, w_upper: float):
    for name, w in (("w_lower", w_lower), ("w_upper", w_upper)):
        if not 0.0 <= w <= 1.0:
            raise ParameterError(f"{name} must be in [0, 1], got {w}")
    if abs(w_lower + w_upper - 1.0) > _WEIGHT_TOL:
        raise ParameterError(f"w_lower + w_upper must equal 1, got {w_lower + w_upper}")


def _distance_epsilon(epsilon: float) -> float:
    if not epsilon >= 1.0:
        raise ParameterError(f"distance-ratio epsilon must be >= 1, got {epsilon}")
    return epsilon


def _similarity_epsilon(epsilon: float) -> float:
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError(f"similarity-ratio epsilon must be in (0, 1], got {epsilon}")
    return epsilon


@dataclass(frozen=True)
class RoughParams:
    """Shared run parameters for all three engines.

    ``epsilon`` is the ratio threshold: >= 1 for the distance rule
    (rough_kmeans), in (0, 1] for the similarity rule (fsrk_kmeans), ignored
    by plain kmeans. Leave it None to take the engine's default.
    """

    k: int
    w_lower: float = 0.7
    w_upper: float = 0.3
    epsilon: float | None = None
    max_iter: int = 100
    tol: float = 1e-6
    seed: int | None = None

    def __post_init__(self):
        if not self.k >= 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        _check_weights(self.w_lower, self.w_upper)
        if not self.max_iter >= 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol >= 0:
            raise ParameterError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True, eq=False)
class CrispClustering:
    """A crisp partition: per-gene cluster, centroids, and the SSE trace."""

    assignment: np.ndarray
    centroids: np.ndarray
    iterations: int
    converged: bool
    sse: float
    sse_history: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class RoughClustering:
    """Lower/upper approximation sets per cluster plus centroids."""

    lower: tuple[frozenset[int], ...]
    upper: tuple[frozenset[int], ...]
    centroids: np.ndarray
    iterations: int
    converged: bool
    had_empty_cluster: bool = False

    @property
    def n_clusters(self) -> int:
        return len(self.lower)

    def boundary(self, h: int) -> frozenset[int]:
        return self.upper[h] - self.lower[h]


def _as_matrix(data) -> np.ndarray:
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D data matrix, got shape {X.shape}")
    return X


def _as_pair(data, centroids) -> tuple[np.ndarray, np.ndarray]:
    X = _as_matrix(data)
    Z = _as_matrix(centroids)
    if Z.shape[1] != X.shape[1]:
        raise ShapeError(f"centroid width {Z.shape[1]} != data width {X.shape[1]}")
    return X, Z


def _check_k(k: int, n: int):
    if k > n:
        raise ParameterError(f"k={k} exceeds the number of rows n={n}")


def _check_unit_interval(A, what: str):
    if A.size and (A.min() < 0.0 or A.max() > 1.0):
        raise DomainError(f"{what}: every entry must lie in [0, 1]")


def init_centroids(data, k: int, seed=None) -> np.ndarray:
    """k distinct data rows drawn uniformly without replacement, seeded."""
    X = _as_matrix(data)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    _check_k(k, X.shape[0])
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.shape[0], size=k, replace=False)
    return X[idx].copy()


def _check_initial(initial, k, width) -> np.ndarray:
    Z = _as_matrix(initial)
    if Z.shape != (k, width):
        raise ShapeError(f"initial centroids must be {k}x{width}, got {Z.shape}")
    return Z.copy()


def _sq_distances(X, centroids) -> np.ndarray:
    """Squared Euclidean distance of every row of X to every centroid, (n, k).

    X is taken in row blocks: a block's differences to one centroid go into
    one reused buffer, summed per row by the einsum that the unblocked
    (n, k, m) form used, so every distance keeps its bits.
    """
    n, m = X.shape
    out = np.empty((n, len(centroids)))
    rows = _block_rows(m)
    buf = np.empty((min(rows, n), m))
    for start in range(0, n, rows):
        block = X[start : start + rows]
        diff = buf[: block.shape[0]]
        for h, z in enumerate(centroids):
            np.subtract(block, z, out=diff)
            np.einsum("nm,nm->n", diff, diff, out=out[start : start + rows, h])
    return out


def _ratio_masks(best, within) -> tuple[np.ndarray, np.ndarray]:
    """Lower index and upper mask from the best cluster and the clusters that
    pass the ratio test against it; a gene with one candidate is crisp there.
    """
    lower = np.where(within.any(axis=1), -1, best)
    within[np.arange(best.shape[0]), best] = True
    return lower, within


def _distance_rule(X, Z, epsilon):
    """(squared distances, lower, upper) under d_h / d_best <= epsilon."""
    d2 = _sq_distances(X, Z)
    best = d2.argmin(axis=1)
    d = np.sqrt(d2)
    d_best = d[np.arange(X.shape[0]), best][:, None]
    return (d2, *_ratio_masks(best, (d <= epsilon * d_best) & (d > d_best)))


def _similarity_rule(M, Z, epsilon):
    """(similarities, lower, upper) under S_h / S_best >= epsilon."""
    S = _similarities(M, Z)
    best = S.argmax(axis=1)
    s_best = S[np.arange(M.shape[0]), best][:, None]
    return (S, *_ratio_masks(best, (S >= epsilon * s_best) & (S < s_best)))


def _to_sets(lower, upper) -> tuple[tuple, tuple]:
    """Lower and upper approximations as tuples of frozensets of gene indices."""
    k = upper.shape[1]
    return (
        tuple(frozenset(np.flatnonzero(lower == h).tolist()) for h in range(k)),
        tuple(frozenset(np.flatnonzero(upper[:, h]).tolist()) for h in range(k)),
    )


def _to_masks(lower_sets, upper_sets, n) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_to_sets` for n genes."""
    lower = np.full(n, -1, dtype=np.int64)
    upper = np.zeros((n, len(upper_sets)), dtype=bool)
    for h, (low, up) in enumerate(zip(lower_sets, upper_sets)):
        lower[list(low)] = h
        upper[list(up), h] = True
    return lower, upper


def _update_centroids(X, lower, upper, w_lower, w_upper, previous) -> np.ndarray:
    out = np.empty((upper.shape[1], X.shape[1]), dtype=float)
    for h in range(upper.shape[1]):
        members = upper[:, h]
        crisp = lower == h
        boundary = members & ~crisp
        if not members.any():
            if previous is None:
                raise ParameterError(
                    f"cluster {h} is empty and no previous centroids were given"
                )
            out[h] = np.asarray(previous, dtype=float)[h]
        elif crisp.any() and boundary.any():
            out[h] = w_lower * X[crisp].mean(axis=0) + w_upper * X[boundary].mean(axis=0)
        else:
            out[h] = X[members].mean(axis=0)
    return out


def _engine(X, params, rule, epsilon, initial_centroids, observe):
    """The assign/update loop of all three engines; ``rule(X, Z, epsilon)``
    gives (scores, lower, upper), and ``observe`` sees them every pass.

    A pass maps centroids to centroids through X and the fixed parameters
    only. So once pass t ends on the centroids of an earlier pass s (pass 0
    being the initial centroids), passes s+1..t repeat with period t - s and
    none of them converges. Without ``observe`` the loop then stops and
    returns the state pass ``max_iter`` would end on.
    """
    if X.size and not np.isfinite(X).all():
        raise DomainError("clustering input must be finite")
    _check_k(params.k, X.shape[0])
    if initial_centroids is None:
        centroids = init_centroids(X, params.k, params.seed)
    else:
        centroids = _check_initial(initial_centroids, params.k, X.shape[1])

    converged = False
    had_empty = False
    history = [centroids]  # history[p]: the centroids pass p ended on
    seen = {centroids.tobytes(): 0}
    for iterations in range(1, params.max_iter + 1):
        scores, lower, upper = rule(X, centroids, epsilon)
        if observe is not None:
            observe(iterations, scores, lower, upper, centroids)
        had_empty = had_empty or not upper.any(axis=0).all()
        new = _update_centroids(X, lower, upper, params.w_lower, params.w_upper, centroids)
        shift = float(np.abs(new - centroids).max())
        centroids = new
        if shift <= params.tol:
            converged = True
            break
        if observe is None:
            s = seen.setdefault(centroids.tobytes(), iterations)
            if s < iterations:
                last = s + 1 + (params.max_iter - s - 1) % (iterations - s)
                if last < iterations:
                    _, lower, upper = rule(X, history[last - 1], epsilon)
                    centroids = history[last]
                return lower, upper, centroids, params.max_iter, False, had_empty
            history.append(centroids)
    return lower, upper, centroids, iterations, converged, had_empty


def kmeans(data, params: RoughParams, initial_centroids=None) -> CrispClustering:
    """Lloyd iteration: nearest-centroid assignment, mean update, until stable.

    Distance ties go to the lowest cluster index. The recorded SSE history
    (one entry per assignment pass) is non-increasing.
    """
    X = _as_matrix(data)
    history: list[float] = []

    def observe(it, d2, lower, upper, Z):
        history.append(float(d2[np.arange(X.shape[0]), lower].sum()))

    assignment, _, centroids, iterations, converged, _ = _engine(
        X, params, _distance_rule, 1.0, initial_centroids, observe
    )
    return CrispClustering(
        assignment=assignment,
        centroids=centroids,
        iterations=iterations,
        converged=converged,
        sse=float(((X - centroids[assignment]) ** 2).sum()),
        sse_history=tuple(history),
    )


def _rough_engine(X, params, rule, epsilon, initial_centroids, on_iteration):
    observe = None
    if on_iteration is not None:
        def observe(it, scores, lower, upper, Z):
            on_iteration(it, *_to_sets(lower, upper), Z)
    lower, upper, centroids, iterations, converged, had_empty = _engine(
        X, params, rule, epsilon, initial_centroids, observe
    )
    return RoughClustering(*_to_sets(lower, upper), centroids, iterations, converged, had_empty)


def rough_assign(data, centroids, epsilon: float) -> tuple[tuple, tuple]:
    """Distance-ratio assignment into lower/upper approximations.

    For each gene, the clusters with d(X_i, Z_h) / d_best <= epsilon beyond
    the unique best one form the candidate set; a lone candidate is a crisp
    (lower) assignment, several candidates all receive the gene in their
    upper sets. A gene sitting exactly on a centroid is crisp there.
    """
    _distance_epsilon(epsilon)
    _, lower, upper = _distance_rule(*_as_pair(data, centroids), epsilon)
    return _to_sets(lower, upper)


def rough_centroids(data, lower, upper, w_lower: float, w_upper: float,
                    previous_centroids=None) -> np.ndarray:
    """Weighted centroid update from lower and boundary means.

    With both a lower approximation and a non-empty boundary, the centroid is
    w_lower * mean(lower) + w_upper * mean(boundary); with either side empty
    it is the plain mean of the upper approximation. A cluster whose upper
    approximation is empty keeps its previous centroid, which the caller must
    supply in that case.
    """
    _check_weights(w_lower, w_upper)
    X = _as_matrix(data)
    if len(upper) != len(lower):
        raise ShapeError(f"{len(lower)} lower sets vs {len(upper)} upper sets")
    lower_idx, upper_mask = _to_masks(lower, upper, X.shape[0])
    return _update_centroids(X, lower_idx, upper_mask, w_lower, w_upper, previous_centroids)


def rough_kmeans(data, params: RoughParams, initial_centroids=None,
                 on_iteration=None) -> RoughClustering:
    """Rough-set k-means: ratio-threshold assignment plus weighted centroids.

    ``on_iteration(iteration, lower, upper, centroids)``, when given, is
    called after every assignment pass with the centroids it used.
    """
    epsilon = _distance_epsilon(
        DEFAULT_ROUGH_EPSILON if params.epsilon is None else params.epsilon)
    return _rough_engine(_as_matrix(data), params, _distance_rule, epsilon,
                         initial_centroids, on_iteration)


def fsrk_assign(memberships, centroids, epsilon: float) -> tuple[tuple, tuple]:
    """Similarity-ratio assignment into lower/upper approximations.

    Mirrors the distance rule in similarity space: candidates are clusters
    with S_h / S_best >= epsilon beyond the unique best-similarity one.
    """
    _similarity_epsilon(epsilon)
    M, Z = _as_pair(memberships, centroids)
    _check_unit_interval(Z, "fsrk centroids")
    _, lower, upper = _similarity_rule(M, Z, epsilon)
    return _to_sets(lower, upper)


def fsrk_kmeans(memberships, params: RoughParams, initial_centroids=None,
                on_iteration=None) -> RoughClustering:
    """Soft-similarity rough k-means over fuzzified (membership) rows.

    Input rows must already be memberships in [0, 1]; centroids then stay in
    [0, 1] automatically, being convex combinations of memberships.
    """
    M = _as_matrix(getattr(memberships, "values", memberships))
    _check_unit_interval(M, "fsrk input must be fuzzified")
    if initial_centroids is not None:
        _check_unit_interval(np.asarray(initial_centroids, dtype=float), "fsrk centroids")
    epsilon = _similarity_epsilon(
        DEFAULT_FSRK_EPSILON if params.epsilon is None else params.epsilon)
    return _rough_engine(M, params, _similarity_rule, epsilon, initial_centroids, on_iteration)
