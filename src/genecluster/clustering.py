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

From n * k = 4096 on, a run carries bounds from pass to pass (after Elkan,
"Using the triangle inequality to accelerate k-means", ICML 2003): per gene
and cluster a lower bound on the gene's distance to that centroid, and per
gene an upper bound on its distance to its own one, each moved by the
centroids' shifts. A gene crisp in b whose bounds prove every other cluster
fails the ratio test stays crisp in b without being scored; every other gene
goes through the scoring kernel. The bounds are kept loose by a slack
(1e-9 and up) far above the rounding of the kernels and of the bounds
themselves, so a gene is certified only where the plain rule computes the
same masks; ``_BoundedRule`` gives the argument. Masks, centroids, cycles
and SSE histories are the plain rule's bit for bit, and the size gate is
set from measured break-even, not by the caller. The cycle shortcut's
replay of one pass uses the plain rule.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, _check_integer
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

# An engine run carries bounds between passes once n * k reaches this. Below
# it the per-pass bookkeeping costs about what the skipped gene-centroid
# pairs save, or more. All three engines together, on row subsets of a
# 7129 x 34 matrix, ran 26% slower at n * k = 1124 (k = 2), even at 2376,
# 36% slower to 10% faster at 3000, and 4-22% faster from 4096 up.
_BOUND_CELLS = 4096
# Relative slack of the bounds, far above the kernels' rounding (_BoundedRule).
_SLACK = 1e-9
# Absolute slack of the distance bounds, far above what an underflow loses.
_TINY = 1e-150


def _check_weights(w_lower: float, w_upper: float):
    for name, w in (("w_lower", w_lower), ("w_upper", w_upper)):
        if not 0.0 <= w <= 1.0:
            raise ParameterError(f"{name} must be in [0, 1], got {w}")
    if abs(w_lower + w_upper - 1.0) > _WEIGHT_TOL:
        raise ParameterError(f"w_lower + w_upper must equal 1, got {w_lower + w_upper}")


def _check_seed(seed):
    if isinstance(seed, numbers.Real):
        _check_integer("seed", seed, 0)


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
        _check_integer("k", self.k, 1)
        _check_weights(self.w_lower, self.w_upper)
        _check_integer("max_iter", self.max_iter, 1)
        if not self.tol >= 0:
            raise ParameterError(f"tol must be >= 0, got {self.tol}")
        _check_seed(self.seed)


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


def _check_finite(A, what: str):
    if A.size and not np.isfinite(A).all():
        raise DomainError(f"{what} must be finite")


def _as_finite_pair(data, centroids) -> tuple[np.ndarray, np.ndarray]:
    """Data and centroids for a rule that picks clusters: NaN or inf would pick one silently."""
    X, Z = _as_pair(data, centroids)
    _check_finite(X, "data")
    _check_finite(Z, "centroids")
    return X, Z


def _as_assignment(assignment, n, k) -> np.ndarray:
    """One cluster index in 0..k-1 per row of an n-row matrix, as int64."""
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (n,):
        raise ShapeError(f"assignment of length {a.shape} vs {n} rows")
    if a.size and (a.min() < 0 or a.max() >= k):
        raise ShapeError(f"assignment values must lie in 0..{k - 1}")
    return a


def sum_squared_error(data, assignment, centroids) -> float:
    """Total squared Euclidean distance of each row to its assigned centroid."""
    X, Z = _as_pair(data, centroids)
    a = _as_assignment(assignment, X.shape[0], Z.shape[0])
    return float(((X - Z[a]) ** 2).sum())


def _check_k(k: int, n: int):
    if k > n:
        raise ParameterError(f"k={k} exceeds the number of rows n={n}")


def _check_unit_interval(A, what: str):
    if A.size and (A.min() < 0.0 or A.max() > 1.0):
        raise DomainError(f"{what}: every entry must lie in [0, 1]")


def init_centroids(data, k: int, seed=None) -> np.ndarray:
    """k distinct data rows drawn uniformly without replacement, seeded."""
    X = _as_matrix(data)
    _check_integer("k", k, 1)
    _check_k(k, X.shape[0])
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.shape[0], size=k, replace=False)
    return X[idx].copy()


def _check_initial(initial, k, width) -> np.ndarray:
    Z = _as_matrix(initial)
    if Z.shape != (k, width):
        raise ShapeError(f"initial centroids must be {k}x{width}, got {Z.shape}")
    _check_finite(Z, "initial centroids")
    return Z.copy()


def _sq_distances(X, centroids) -> np.ndarray:
    """Squared Euclidean distance of every row of X to every centroid, (n, k).

    X is taken in row blocks: a block's differences to one centroid go into
    one reused buffer, summed per row by the einsum that the unblocked
    (n, k, m) form used, so every distance keeps its bits. Each centroid is
    copied once into a block-sized tile, so the subtraction runs over two
    contiguous blocks instead of broadcasting the centroid row by row.
    """
    n, m = X.shape
    out = np.empty((n, len(centroids)))
    rows = _block_rows(m)
    diff, tile = np.empty((2, min(rows, n), m))
    for h, z in enumerate(centroids):
        tile[...] = z
        for start in range(0, n, rows):
            block = X[start : start + rows]
            r = block.shape[0]
            np.subtract(block, tile[:r], out=diff[:r])
            np.einsum("nm,nm->n", diff[:r], diff[:r], out=out[start : start + rows, h])
    return out


def _ratio_masks(best, within) -> tuple[np.ndarray, np.ndarray]:
    """Lower index and upper mask from the best cluster and the clusters that
    pass the ratio test against it; a gene with one candidate is crisp there.
    """
    lower = np.where(within.any(axis=1), -1, best)
    within[np.arange(best.shape[0]), best] = True
    return lower, within


class _BoundedRule:
    """An assignment rule that carries per-(gene, cluster) bounds across passes.

    ``plain(X, Z, epsilon)`` scores every gene against every centroid and
    gives (each gene's score against its best cluster, lower, upper). An
    instance, called the same way pass after pass of one engine run, gives
    the same lower and upper but sends to the kernel only the genes its
    bounds cannot prove crisp. A gene crisp in b on the last pass keeps
    ``far[h, i]``, a lower bound on its distance to each centroid h != b
    (+inf at b), and ``near[i]``, an upper bound on its distance to b
    (+inf for a boundary gene). When centroid h moves by delta_h, the
    triangle inequality keeps them bounds after ``far -= delta`` and
    ``near += delta[b]``. If they then prove that every h != b fails the
    ratio test against b, the gene is crisp in b again, with upper row {b},
    and is not scored: it is certified. Its best score reads NaN, unless
    ``scores_certified`` asks for its score against b. Every other gene is
    scored by the kernel on ``X[rows]`` and its bounds restart from those
    scores. The kernels give each row the bits it gets in the whole matrix,
    so every mask, and with it every centroid, equals the plain rule's.

    Soundness, with u = 2**-53 and m columns. A computed score is within a
    relative (m + 4) u of the exact one (a distance: m rounded squares
    summed, then a square root), or within an absolute (2m + 4) u (a
    similarity on [0, 1]: a sum of m terms over a sum of m terms). The
    slack s = 1e-9 + (m + 4) 2**-49 is at least 8 times either. Each bound
    is written loose by s: a restart widens the exact score by s, a shift
    is scaled by (1 + s), and the result of each ``far -= delta`` or
    ``near += delta`` is scaled by (1 - s) or (1 + s), which outweighs that
    operation's own rounding, at most u of its result. So the stored floats
    stay true bounds however many passes lie between two restarts, and the
    test leaves a further margin s for the rounding of the scores the plain
    rule would compute: where it certifies, the plain rule's computed ratio
    test fails for every h != b, and b is its unique best. A square that
    underflows moves a distance by under 1e-150 (for any m below 10**20):
    the 1e-150 added to each distance shift and taken from each distance
    restart covers it where the values are small, the relative slack where
    they are large. An infinite score or shift makes its bound infinite the
    safe way round, and a NaN bound never passes the test.
    """

    scores_certified = False

    def __init__(self, X):
        n, m = X.shape
        self.slack = _SLACK + (m + 4) * 2.0**-49
        self.lower = np.full(n, -1)  # each gene's lower index on the last pass
        self.near = np.full(n, np.inf)
        self.far = self.Z = None  # Z: the centroids the bounds hold for

    @classmethod
    def plain(cls, X, Z, epsilon):
        return cls.masks(cls.kernel(X, Z), epsilon)

    def __call__(self, X, Z, epsilon):
        n, k = len(X), len(Z)
        s = self.slack
        sure = np.zeros(n, dtype=bool)
        if self.Z is None:
            self.far = np.empty((k, n))
        else:
            shift = self.shifts(Z - self.Z) * (1 + s) + _TINY
            self.far -= shift[:, None]
            self.far *= 1 - s
            self.near += shift[self.lower]
            self.near *= 1 + s
            sure = self.certified(epsilon)
        self.Z = Z
        rows = np.flatnonzero(~sure) if sure.any() else slice(None)
        scores = self.kernel(X[rows], Z)
        best_r, lower_r, upper_r = self.masks(scores, epsilon)
        far = self.restart(rows, scores)
        crisp = np.flatnonzero(lower_r >= 0)
        far[crisp, lower_r[crisp]] = np.inf
        self.far[:, rows] = far.T
        self.near[rows] = np.where(lower_r >= 0, self.widen(rows, best_r, lower_r), np.inf)

        certified = np.flatnonzero(sure)
        own = self.lower[certified]
        self.lower[rows] = lower_r
        best = np.full(n, np.nan)
        best[rows] = best_r
        upper = np.zeros((n, k), dtype=bool)
        upper[rows] = upper_r
        upper[certified, own] = True
        if self.scores_certified:
            for h in range(k):
                genes = certified[own == h]
                best[genes] = self.kernel(X[genes], Z[h : h + 1])[:, 0]
            self.near[certified] = self.widen(certified, best[certified], own)
        return best, self.lower.copy(), upper


class _DistanceRule(_BoundedRule):
    """Squared distances; a gene is in the boundary when d_h / d_best <= epsilon."""

    @staticmethod
    def kernel(X, Z):
        return _sq_distances(X, Z)

    @staticmethod
    def masks(d2, epsilon):
        rows = np.arange(d2.shape[0])
        best = d2.argmin(axis=1)
        d = np.sqrt(d2)
        d_best = d[rows, best][:, None]
        return (d2[rows, best], *_ratio_masks(best, (d <= epsilon * d_best) & (d > d_best)))

    @staticmethod
    def shifts(dZ):
        return np.sqrt(np.einsum("km,km->k", dZ, dZ))

    def restart(self, rows, d2):
        d = np.sqrt(d2)
        return np.where(d < np.inf, d * (1 - self.slack) - _TINY, -np.inf)

    def widen(self, rows, best, lower):
        return np.sqrt(best) * (1 + self.slack) + _TINY

    def certified(self, epsilon):
        return self.far.min(axis=0) > epsilon * (1 + self.slack) * self.near


class _NearestRule(_DistanceRule):
    """The distance rule as kmeans runs it, at epsilon 1: certified genes are
    scored against their own cluster too, for the SSE history."""

    scores_certified = True


class _SimilarityRule(_BoundedRule):
    """Soft-set similarities; a gene is in the boundary when S_h / S_best >= epsilon.

    The bounds are on the numerator N = sum |x - z|, an L1 distance, so each
    centroid's shift is its L1 norm. The denominator D = sum x + sum z is
    recomputed each pass from the row sums, and a gene is certified when
    every 1 - far / D falls below epsilon (1 - near / D_b) by the slack.
    Where D is 0 (an all-zero gene against an all-zero centroid) the
    similarity is 1; no gene that meets such a pair is certified.
    """

    def __init__(self, X):
        super().__init__(X)
        self.x_sums = np.add.reduce(X, axis=1)

    def __call__(self, X, Z, epsilon):
        self.z_sums = np.add.reduce(Z, axis=1)
        return super().__call__(X, Z, epsilon)

    @staticmethod
    def kernel(X, Z):
        return _similarities(X, Z)

    @staticmethod
    def masks(S, epsilon):
        rows = np.arange(S.shape[0])
        best = S.argmax(axis=1)
        s_best = S[rows, best][:, None]
        return (S[rows, best], *_ratio_masks(best, (S >= epsilon * s_best) & (S < s_best)))

    @staticmethod
    def shifts(dZ):
        return np.add.reduce(np.abs(dZ), axis=1)

    def restart(self, rows, S):
        return (1 - S - self.slack) * (self.x_sums[rows, None] + self.z_sums)

    def widen(self, rows, best, lower):
        return (1 - best + self.slack) * (self.x_sums[rows] + self.z_sums[lower])

    def certified(self, epsilon):
        D = self.x_sums + self.z_sums[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            above = (1 - self.far / D).max(axis=0)
            below = 1 - self.near / (self.x_sums + self.z_sums[self.lower])
        nonzero = (self.x_sums > 0) | (self.z_sums > 0).all()
        return (above < epsilon * below - self.slack) & nonzero


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
    for h, sets in enumerate(zip(lower_sets, upper_sets)):
        low, up = (np.fromiter(genes, dtype=np.int64) for genes in sets)
        if any(i.size and (i.min() < 0 or i.max() >= n) for i in (low, up)):
            raise ShapeError(f"cluster {h}: gene indices must lie in 0..{n - 1}")
        lower[low] = h
        upper[up, h] = True
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
    """The assign/update loop of all three engines; ``rule.plain(X, Z, epsilon)``
    gives (best scores, lower, upper), and ``observe`` sees them every pass.

    From n * k = _BOUND_CELLS on, the passes go through one bounded
    ``rule(X)`` instead, which gives the same triples from fewer scores.
    A pass maps centroids to centroids through X and the fixed parameters
    only. So once pass t ends on the centroids of an earlier pass s (pass 0
    being the initial centroids), passes s+1..t repeat with period t - s and
    none of them converges. Without ``observe`` the loop then stops and
    returns the state pass ``max_iter`` would end on.
    """
    _check_finite(X, "clustering input")
    _check_k(params.k, X.shape[0])
    if initial_centroids is None:
        centroids = init_centroids(X, params.k, params.seed)
    else:
        centroids = _check_initial(initial_centroids, params.k, X.shape[1])

    assign = rule(X) if X.shape[0] * params.k >= _BOUND_CELLS else rule.plain
    converged = False
    had_empty = False
    history = [centroids]  # history[p]: the centroids pass p ended on
    seen = {centroids.tobytes(): 0}
    for iterations in range(1, params.max_iter + 1):
        best, lower, upper = assign(X, centroids, epsilon)
        if observe is not None:
            observe(iterations, best, lower, upper, centroids)
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
                    _, lower, upper = rule.plain(X, history[last - 1], epsilon)
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

    def observe(it, d2_best, lower, upper, Z):
        history.append(float(d2_best.sum()))

    assignment, _, centroids, iterations, converged, _ = _engine(
        X, params, _NearestRule, 1.0, initial_centroids, observe
    )
    return CrispClustering(
        assignment=assignment,
        centroids=centroids,
        iterations=iterations,
        converged=converged,
        sse=sum_squared_error(X, assignment, centroids),
        sse_history=tuple(history),
    )


def _rough_engine(X, params, rule, epsilon, initial_centroids, on_iteration):
    observe = None
    if on_iteration is not None:
        def observe(it, best, lower, upper, Z):
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
    _, lower, upper = _DistanceRule.plain(*_as_finite_pair(data, centroids), epsilon)
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
    return _rough_engine(_as_matrix(data), params, _DistanceRule, epsilon,
                         initial_centroids, on_iteration)


def fsrk_assign(memberships, centroids, epsilon: float) -> tuple[tuple, tuple]:
    """Similarity-ratio assignment into lower/upper approximations.

    Mirrors the distance rule in similarity space: candidates are clusters
    with S_h / S_best >= epsilon beyond the unique best-similarity one.
    """
    _similarity_epsilon(epsilon)
    M, Z = _as_finite_pair(memberships, centroids)
    _check_unit_interval(Z, "fsrk centroids")
    _, lower, upper = _SimilarityRule.plain(M, Z, epsilon)
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
    return _rough_engine(M, params, _SimilarityRule, epsilon, initial_centroids, on_iteration)
