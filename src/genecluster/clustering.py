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
approximation. Results, hooks and public helpers see frozensets; an
engine's result builds them from its masks when first read, and
``crispify`` reads those masks directly. Sets that a caller builds
(``rough_centroids``, ``validity.crispify``) must obey the first three
axioms, or ValidationError is raised. The last two are not
checked there, so a single cluster's sets, or a boundary gene in one upper
set, are accepted; ``crispify`` alone refuses a gene in no set.

A run whose centroids return bit for bit to those of an earlier pass is
periodic from there on and can no longer converge. The engine then stops and
returns the state that pass max_iter would end on (iterations = max_iter,
converged false), equal bit for bit to running every pass. With a hook every
pass still runs, so the hook sees each one. An array argument may be a
labelled matrix (``ExpressionMatrix``, ``MembershipMatrix``).

Each pass first settles what it can from an estimate: every gene-centroid
score is built approximately in a few batched BLAS calls (a squared distance
as ||x||^2 + ||z||^2 - 2 x.z; a similarity as 2 M / D, with M = min(x, z) . 1
the sum of elementwise minima, taken in float32, and D = sum x + sum z from
row sums, which is 1 - |x - z| . 1 / D because memberships are nonnegative),
with a bound on how far it can lie from the kernel's score. A gene whose
best cluster is unique and whose every ratio test passes or fails by more
than that bound plus a slack takes its masks from the estimate, crisp or in
the boundary; every other gene goes through the scoring kernel. Nothing is
carried from pass to pass. Masks, centroids and cycles are the plain rule's
bit for bit (``_FilteredRule`` gives the argument).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, ValidationError, _check_integer
from .fuzzysoft import _similarities
from .ingest import _as_matrix, _tiles

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

# Slack of the estimates' intervals, far above the rounding of the ratio test
# (_FilteredRule): relative for distances, absolute for similarities.
_SLACK = 1e-9
# Absolute slack of the squared-distance bound, far above what underflow loses.
_TINY = 1e-300


def _check_weights(w_lower: float, w_upper: float):
    for name, w in (("w_lower", w_lower), ("w_upper", w_upper)):
        if not 0.0 <= w <= 1.0:
            raise ParameterError(f"{name} must be in [0, 1], got {w}")
    if abs(w_lower + w_upper - 1.0) > _WEIGHT_TOL:
        raise ParameterError(f"w_lower + w_upper must equal 1, got {w_lower + w_upper}")


def _check_seed(seed):
    if isinstance(seed, numbers.Real):
        _check_integer("seed", seed, 0)


def _distance_epsilon(epsilon: float | None) -> float:
    epsilon = DEFAULT_ROUGH_EPSILON if epsilon is None else epsilon
    if not epsilon >= 1.0:
        raise ParameterError(f"distance-ratio epsilon must be >= 1, got {epsilon}")
    return epsilon


def _similarity_epsilon(epsilon: float | None) -> float:
    epsilon = DEFAULT_FSRK_EPSILON if epsilon is None else epsilon
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
    """A crisp partition: per-gene cluster, centroids, and its SSE.

    ``kmeans`` sums the SSE over the data it ran on when ``sse`` is first
    read, so that data must not change in between.
    """

    assignment: np.ndarray
    centroids: np.ndarray
    iterations: int
    converged: bool
    sse: float


@dataclass(frozen=True, eq=False)
class RoughClustering:
    """Lower/upper approximation sets per cluster plus centroids.

    An engine's result keeps the engine's masks and builds each tuple of sets
    when it is first read.
    """

    lower: tuple[frozenset[int], ...]
    upper: tuple[frozenset[int], ...]
    centroids: np.ndarray
    iterations: int
    converged: bool
    had_empty_cluster: bool = False


def _result(cls, **attributes):
    """An instance of a frozen result class with its attributes set directly.

    The subclasses below derive some fields when first read; built through
    their dataclass ``__init__`` (as ``dataclasses.replace`` does), they hold
    every field as given instead.
    """
    result = object.__new__(cls)
    result.__dict__.update(attributes)
    return result


class _KMeansResult(CrispClustering):
    """``kmeans``' result: it holds the data it ran on and sums ``sse`` when first read."""

    @cached_property
    def sse(self) -> float:
        return sum_squared_error(self._data, self.assignment, self.centroids)


class _RoughResult(RoughClustering):
    """A rough engine's result, holding its lower index and (n, k) upper mask."""

    @cached_property
    def lower(self) -> tuple[frozenset[int], ...]:
        return _lower_sets(self._masks[0], self._masks[1].shape[1])

    @cached_property
    def upper(self) -> tuple[frozenset[int], ...]:
        return _upper_sets(self._masks[1])


def _check_finite(A, what: str):
    if A.size and not np.isfinite(A).all():
        raise DomainError(f"{what} must be finite")


def _as_finite_pair(data, centroids) -> tuple[np.ndarray, np.ndarray]:
    """Data and centroids for a rule or a score: NaN or inf would skew either silently."""
    X, Z = _as_matrix(data), _as_matrix(centroids)
    if Z.shape[1] != X.shape[1]:
        raise ShapeError(f"centroid width {Z.shape[1]} != data width {X.shape[1]}")
    _check_finite(X, "data")
    _check_finite(Z, "centroids")
    return X, Z


def _residuals(data, assignment, centroids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The assignment a (int64), the centroids Z and the squared residuals
    (X - Z[a])**2 that every score sums; a holds one index in 0..k-1 per row."""
    X, Z = _as_finite_pair(data, centroids)
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (X.shape[0],):
        raise ShapeError(f"assignment of length {a.shape} vs {X.shape[0]} rows")
    if a.size and (a.min() < 0 or a.max() >= len(Z)):
        raise ShapeError(f"assignment values must lie in 0..{len(Z) - 1}")
    return a, Z, (X - Z[a]) ** 2


def sum_squared_error(data, assignment, centroids) -> float:
    """Total squared Euclidean distance of each row to its assigned centroid."""
    return float(_residuals(data, assignment, centroids)[2].sum())


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


def _check_centroids(centroids, k, width, what="initial centroids") -> np.ndarray:
    Z = _as_matrix(centroids)
    if Z.shape != (k, width):
        raise ShapeError(f"{what} must be {k}x{width}, got {Z.shape}")
    _check_finite(Z, what)
    return Z.copy()


def _sq_distances(X, centroids) -> np.ndarray:
    """Squared Euclidean distance of every row of X to every centroid, (n, k).

    Taken over ``ingest._tiles``: a block's differences to one centroid are
    summed per row by the einsum that the unblocked (n, k, m) form used, so
    every distance keeps its bits.
    """
    out = np.empty((X.shape[0], len(centroids)))
    for h, rows, block, tile, diff in _tiles(X, centroids):
        np.subtract(block, tile, out=diff)
        np.einsum("nm,nm->n", diff, diff, out=out[rows, h])
    return out


def _ratio_masks(best, within) -> tuple[np.ndarray, np.ndarray]:
    """Lower index and upper mask from the best cluster and the clusters that
    pass the ratio test against it; a gene with one candidate is crisp there.
    """
    lower = np.where(within.any(axis=1), -1, best)
    within[np.arange(best.shape[0]), best] = True
    return lower, within


def _ratio_test(near, best, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """The plain ratio test on (n, k) scores, larger meaning nearer: cluster h
    joins a gene's boundary when near_h >= epsilon * near_best and near_h <
    near_best. An epsilon * near_best that overflows passes every finite score."""
    near_best = near[np.arange(near.shape[0]), best][:, None]
    with np.errstate(over="ignore"):
        threshold = epsilon * near_best
    return _ratio_masks(best, (near >= threshold) & (near < near_best))


def _settle(lo, hi, threshold) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best cluster, the (n, k) clusters that pass the ratio test, and which genes are sure.

    Each (cluster, gene) score lies in [lo, hi], (k, n) arrays with larger
    meaning nearer, and the ratio test puts h in the boundary when score_h >=
    threshold * score_best. A gene is decided when one cluster b beats every
    other for sure and every other h passes or fails the test for sure. NaN
    decides nothing, and a gene with an infinite or NaN interval, which makes
    the sum of its lo and hi non-finite, is not decided. Clusters run along
    the first axis, so every reduction over them is elementwise over
    contiguous rows: the best cluster is the first to reach the largest lo,
    found as the largest rank k - 1 - h among the clusters h that reach it
    (a strided argmax costs several times as much).
    """
    k, n = lo.shape
    lo_b = np.maximum.reduce(lo, axis=0)
    rank = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k))[:, None]
    best = k - 1 - np.maximum.reduce(rank * (lo == lo_b), axis=0).astype(np.intp)
    flat = best * n + np.arange(n)  # each gene's (best, gene) entry, C order
    within = lo >= threshold * np.take(hi, flat)
    sure = within | (hi < threshold * lo_b)
    sure &= hi < lo_b
    within.reshape(-1)[flat] = False  # both fresh, so C-ordered: reshape gives views,
    sure.reshape(-1)[flat] = True     # set through in a third of np.put's time
    finite = np.isfinite(np.add.reduce(lo, axis=0) + np.add.reduce(hi, axis=0))
    return best, within.T, sure.all(axis=0) & finite


class _FilteredRule:
    """An assignment rule that settles most genes from a bounded estimate.

    ``plain(X, Z, epsilon)`` scores every gene against every centroid with the
    kernel and gives (lower, upper). An instance, made for one run's X and
    called once per pass, gives the same lower and upper from fewer kernel
    scores, and keeps nothing from one pass to the next. ``estimate`` builds
    every score approximately in a few batched BLAS calls, with a bound on
    how far it can lie from the kernel's score; ``interval`` widens the two
    into a (lo, hi) pair, larger meaning nearer, that holds the kernel's
    score with a slack to spare. A gene that ``_settle`` decides takes its
    best cluster and ratio tests from those intervals, whether it is crisp or
    in the boundary. Every other gene (ties, genes on the threshold, D = 0,
    overflow, heavy cancellation) is scored by the kernel on ``X[rows]``. The
    kernels give each row the bits it gets in the whole matrix, so every
    mask, and with it every centroid, equals the plain rule's.

    Soundness, with u = 2**-53, m columns, any summation order, with or
    without FMA. Distances: ||x||^2 + ||z||^2 - 2 x.z as computed, and the
    kernel's sum of rounded squared differences, each lie within about
    (m + 3) u (||x|| + ||z||)^2 of the exact d^2, so the bound
    (2m + 8) u (||x|| + ||z||)^2 covers their gap, and the 1e-300 added to it
    covers what underflow loses. The interval is then widened by the relative
    slack s = 1e-9, which outweighs the rounding of the square roots and of
    epsilon * d_best that the plain test takes: a ratio that clears epsilon
    by the interval clears it in the plain rule, and a best cluster whose
    interval lies strictly above all others is the plain rule's unique best,
    with every other computed distance strictly larger.

    Similarities: with memberships x, z >= 0, |x_j - z_j| = x_j + z_j -
    2 min(x_j, z_j), so the numerator N = D - 2M with M = sum_j min(x_j, z_j)
    <= D / 2, and S = 1 - N / D = 2M / D <= 1. The kernel's N and D are sums
    of m rounded nonnegative terms, each within a relative (m + 1) u, so its
    1 - N / D, with N <= D, lies within about (2m + 4) u of S. The estimate
    sums M in float32, with v = 2**-24 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 4.2, for the sums). x and z
    are rounded to float32 and, rounding being monotone, min(fl(x_j),
    fl(z_j)) = fl(min(x_j, z_j)): one rounding per term. In float32's normal
    range, from 2**-126 up, that rounding is within a relative v. Below it
    the error is absolute: at most 2**-150 between subnormals, and a term
    under 2**-150 rounds to 0. So each term lies within v of its minimum
    relative plus 2**-126 absolute, which also covers a machine that flushes
    subnormal inputs or results to 0. A float32 sum of m nonnegative terms,
    in any order, lies within (m - 1) v relative to first order of the
    terms' sum, plus 2**-126 for each of its m - 1 additions whose result is
    flushed. The computed M is thus within about m v relative plus 2m 2**-126
    absolute of the exact M. 2M is exact in float64, D comes from float64 row
    sums within m u, and the division adds u, so 2M / D lies within about
    m v + (m + 1) u of S, absolute since S <= 1, plus 4m 2**-126 / D. The
    stated bound (m + 2) v + 8m 2**-126 / D covers that, the kernel's
    (2m + 4) u and the second-order terms for any m below 2**20. Without the
    1 / D term, memberships of 1e-60 (all flushed to 0 in float32, so
    M = 0 while S is near 1) would break it. The slack, 1e-9 absolute,
    covers the rounding of the ratio test. A score whose estimate overflows
    (distances) or whose D is 0 (similarities) reads infinite or NaN and
    leaves its gene to the kernel.
    """

    @classmethod
    def plain(cls, X, Z, epsilon):
        return cls.masks(cls.kernel(X, Z), epsilon)

    def __call__(self, X, Z, epsilon):
        threshold = self.threshold(epsilon)
        if not np.isfinite(threshold):  # epsilon**2 overflows: no interval can stand in
            return self.plain(X, Z, epsilon)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            best, within, decided = _settle(*self.interval(*self.estimate(X, Z)), threshold)
        lower, upper = _ratio_masks(best, within)
        rows = np.flatnonzero(~decided)
        if rows.size:
            lower[rows], upper[rows] = self.plain(X[rows], Z, epsilon)
        return lower, upper


class _DistanceRule(_FilteredRule):
    """Squared distances; a gene is in the boundary when d_h / d_best <= epsilon.

    The estimate is ||x||^2 + ||z||^2 - 2 x.z, one GEMM a pass, with ||x||^2
    taken once per run. Its interval is on -d^2, so the ratio test reads
    -d_h^2 >= epsilon^2 * -d_best^2; the plain one on -d, which keeps every
    bit of d_h <= epsilon * d_best, as epsilon * -d = -(epsilon * d).
    """

    def __init__(self, X):
        with np.errstate(over="ignore"):
            self.x_squares = np.einsum("nm,nm->n", X, X)
        self.x_norms = np.sqrt(self.x_squares)
        self.error = (2 * X.shape[1] + 8) * 2.0**-53

    @staticmethod
    def kernel(X, Z):
        return _sq_distances(X, Z)

    @staticmethod
    def masks(d2, epsilon):
        return _ratio_test(-np.sqrt(d2), d2.argmin(axis=1), epsilon)

    @staticmethod
    def threshold(epsilon):
        return epsilon * epsilon

    def estimate(self, X, Z):
        z_squares = np.einsum("km,km->k", Z, Z)
        d2 = Z @ X.T
        d2 *= -2.0
        d2 += z_squares[:, None]
        d2 += self.x_squares
        bound = np.sqrt(z_squares)[:, None] + self.x_norms
        bound *= bound
        bound *= self.error
        bound += _TINY
        return d2, bound

    @staticmethod
    def interval(d2, bound):
        lo = d2 + bound
        lo *= -(1 + _SLACK)
        hi = np.subtract(bound, d2, out=bound)
        hi *= 1 - _SLACK
        return lo, hi


class _SimilarityRule(_FilteredRule):
    """Soft-set similarities; a gene is in the boundary when S_h / S_best >= epsilon.

    The estimate is 2M / D, which is 1 - N / D for memberships (see
    ``_FilteredRule``): M = min(x, z) . 1 takes one ``np.minimum`` and one
    GEMV per block of ``ingest._tiles``, in place of a subtraction, an
    absolute value and a GEMV for N = |x - z| . 1, and runs in float32 over
    a copy of X made once per run and the centroids rounded each pass.
    D = sum x + sum z comes from float64 row sums, those of X taken once per
    run, and the bound, (m + 2) 2**-24 + 8m 2**-126 / D, is one per pair.
    Where D is 0 (an all-zero gene against an all-zero centroid) the
    similarity is 1 and the estimate NaN, so the kernel scores every gene
    that meets such a pair.
    """

    def __init__(self, X):
        m = X.shape[1]
        self.x_sums = np.add.reduce(X, axis=1)
        self.x32 = X.astype(np.float32)
        self.ones = np.ones(m, dtype=np.float32)
        self.error = (m + 2) * 2.0**-24
        self.floor = 8 * m * 2.0**-126

    @staticmethod
    def kernel(X, Z):
        return _similarities(X, Z)

    @staticmethod
    def masks(S, epsilon):
        return _ratio_test(S, S.argmax(axis=1), epsilon)

    @staticmethod
    def threshold(epsilon):
        return epsilon

    def estimate(self, X, Z):
        M = np.empty((len(Z), X.shape[0]), dtype=np.float32)
        for h, rows, block, tile, scratch in _tiles(self.x32, Z.astype(np.float32)):
            np.dot(np.minimum(block, tile, out=scratch), self.ones, out=M[h, rows])
        D = np.add.reduce(Z, axis=1)[:, None] + self.x_sums
        with np.errstate(divide="ignore", invalid="ignore"):  # D = 0: S and bound non-finite
            S = np.divide(M, D)  # in float64; doubling it below is exact
            bound = np.divide(self.floor, D)
        S *= 2.0
        bound += self.error
        return S, bound

    @staticmethod
    def interval(S, bound):
        bound += _SLACK
        return S - bound, S + bound


def _lower_sets(lower, k) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(np.flatnonzero(lower == h).tolist()) for h in range(k))


def _upper_sets(upper) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(np.flatnonzero(upper[:, h]).tolist()) for h in range(upper.shape[1]))


def _to_sets(lower, upper) -> tuple[tuple, tuple]:
    """Lower and upper approximations as tuples of frozensets of gene indices."""
    return _lower_sets(lower, upper.shape[1]), _upper_sets(upper)


def _to_masks(lower_sets, upper_sets, n) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_to_sets` for n genes. A gene in two lower
    approximations, in a lower approximation and not its upper one, or in a
    lower approximation and another cluster's upper one raises
    ValidationError; unequal numbers of lower and upper sets raise ShapeError."""
    if len(upper_sets) != len(lower_sets):
        raise ShapeError(f"{len(lower_sets)} lower sets vs {len(upper_sets)} upper sets")
    lower = np.full(n, -1, dtype=np.int64)
    upper = np.zeros((n, len(upper_sets)), dtype=bool)
    for h, sets in enumerate(zip(lower_sets, upper_sets)):
        low, up = (np.fromiter(genes, dtype=np.int64) for genes in sets)
        if any(i.size and (i.min() < 0 or i.max() >= n) for i in (low, up)):
            raise ShapeError(f"cluster {h}: gene indices must lie in 0..{n - 1}")
        upper[up, h] = True
        bad = low[(lower[low] >= 0) | ~upper[low, h]]
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"gene {i} is in the lower approximations of clusters {lower[i]} and {h}"
                if lower[i] >= 0 else
                f"gene {i} is in the lower approximation of cluster {h} but not its upper one")
        lower[low] = h
    bad = np.flatnonzero((lower >= 0) & (np.count_nonzero(upper, axis=1) > 1))
    if bad.size:
        i = bad[0]
        other = np.flatnonzero(upper[i])
        raise ValidationError(
            f"gene {i} is in the lower approximation of cluster {lower[i]} and the upper "
            f"approximation of cluster {other[other != lower[i]][0]}")
    return lower, upper


def _rough_masks(rough, n, k) -> tuple[np.ndarray, np.ndarray]:
    """Lower index and (n, k) upper mask of a RoughClustering of n genes, as
    arrays the caller may change. An engine's result gives copies of its own
    masks, or raises ShapeError when it clustered other than n genes. Any
    other has its sets checked: a number of clusters other than the k
    centroids raises ShapeError, and so does whatever ``_to_masks`` refuses."""
    masks = getattr(rough, "_masks", None)
    if masks is not None:
        if len(masks[0]) != n:
            raise ShapeError(f"{len(masks[0])} clustered genes vs {n} data rows")
        return masks[0].copy(), masks[1].copy()
    if len(rough.upper) != k:
        raise ShapeError(f"{k} centroids vs {len(rough.upper)} clusters")
    return _to_masks(rough.lower, rough.upper, n)


def _update_centroids(X, lower, upper, w_lower, w_upper, previous) -> np.ndarray:
    """Each cluster's w_lower * mean(lower) + w_upper * mean(boundary) when
    both are non-empty, else the mean of its upper set, else (that set empty)
    its previous centroid; each lower set lies in its upper set.

    Row h of one (2k, n) mask holds cluster h's lower set, row k + h its
    boundary (the upper set outside the lower one). Each mean sums the rows
    ``np.compress`` gathers in gene order, laid out as ``X[mask]`` is, so it
    keeps the bits of ``.mean``: ``np.add.reduce(·, axis=0)`` adds them row
    by row from +0.0, and so does ``np.einsum("ij->j", ·)`` at less cost,
    but not on a single column, where it sums in another order.
    """
    n, k = upper.shape
    members = np.empty((2 * k, n), dtype=bool)
    np.equal(lower, np.arange(k)[:, None], out=members[:k])
    np.greater(upper.T, members[:k], out=members[k:])
    counts = np.count_nonzero(members, axis=1)
    if X.shape[1] > 1:
        sums = [np.einsum("ij->j", X.compress(genes, axis=0)) for genes in members]
    else:
        sums = [np.add.reduce(X.compress(genes, axis=0), axis=0) for genes in members]
    means = np.array(sums).reshape(2 * k, X.shape[1]) / np.maximum(counts, 1)[:, None]
    crisp, boundary = counts[:k, None] > 0, counts[k:, None] > 0
    out = np.where(crisp & boundary, w_lower * means[:k] + w_upper * means[k:],
                   np.where(boundary, means[k:], means[:k]))
    for h in np.flatnonzero(~(crisp | boundary)):
        if previous is None:
            raise ParameterError(f"cluster {h} is empty and no previous centroids were given")
        out[h] = np.asarray(previous, dtype=float)[h]
    return out


def _engine(data, params, rule, epsilon, initial_centroids, on_iteration):
    """The assign/update loop of all three engines; ``rule(X)``, made once per
    run, gives (lower, upper) for ``(X, Z, epsilon)`` each pass, and
    ``on_iteration(iteration, lower, upper, Z)``, when given, sees them every
    pass as tuples of frozensets.

    A pass maps centroids to centroids through X and the fixed parameters
    only. So once pass t ends on the centroids of an earlier pass s (pass 0
    being the initial centroids), passes s+1..t repeat with period t - s and
    none of them converges. Without ``on_iteration`` the loop then stops and
    returns the state pass ``max_iter`` would end on.
    """
    X = _as_matrix(data)
    _check_finite(X, "clustering input")
    _check_k(params.k, X.shape[0])
    if initial_centroids is None:
        centroids = init_centroids(X, params.k, params.seed)
    else:
        centroids = _check_centroids(initial_centroids, params.k, X.shape[1])

    assign = rule(X)
    converged = False
    had_empty = False
    history = [centroids]  # history[p]: the centroids pass p ended on
    seen = {centroids.tobytes(): 0}
    for iterations in range(1, params.max_iter + 1):
        lower, upper = assign(X, centroids, epsilon)
        if on_iteration is not None:
            on_iteration(iterations, *_to_sets(lower, upper), centroids)
        had_empty = had_empty or not upper.any(axis=0).all()
        new = _update_centroids(X, lower, upper, params.w_lower, params.w_upper, centroids)
        shift = float(np.abs(new - centroids).max())
        centroids = new
        if shift <= params.tol:
            converged = True
            break
        if on_iteration is None:
            s = seen.setdefault(centroids.tobytes(), iterations)
            if s < iterations:
                last = s + 1 + (params.max_iter - s - 1) % (iterations - s)
                if last < iterations:
                    lower, upper = assign(X, history[last - 1], epsilon)
                    centroids = history[last]
                return lower, upper, centroids, params.max_iter, False, had_empty
            history.append(centroids)
    return lower, upper, centroids, iterations, converged, had_empty


def kmeans(data, params: RoughParams, initial_centroids=None) -> CrispClustering:
    """Lloyd iteration: nearest-centroid assignment, mean update, until stable.

    Distance ties go to the lowest cluster index. This is ``rough_kmeans`` at
    epsilon 1, bit for bit, so its passes can be watched through that
    engine's ``on_iteration`` hook.
    """
    assignment, _, centroids, iterations, converged, _ = _engine(
        data, params, _DistanceRule, 1.0, initial_centroids, None
    )
    return _result(_KMeansResult, assignment=assignment, centroids=centroids,
                   iterations=iterations, converged=converged, _data=data)


def rough_assign(data, centroids, epsilon: float | None) -> tuple[tuple, tuple]:
    """Distance-ratio assignment into lower/upper approximations.

    For each gene, the clusters with d(X_i, Z_h) / d_best <= epsilon beyond
    the unique best one form the candidate set; a lone candidate is a crisp
    (lower) assignment, several candidates all receive the gene in their
    upper sets. A gene on a centroid is crisp there. None takes DEFAULT_ROUGH_EPSILON.
    """
    epsilon = _distance_epsilon(epsilon)
    return _to_sets(*_DistanceRule.plain(*_as_finite_pair(data, centroids), epsilon))


def rough_centroids(data, lower, upper, w_lower: float, w_upper: float,
                    previous_centroids=None) -> np.ndarray:
    """Weighted centroid update from lower and boundary means.

    With both a lower approximation and a non-empty boundary, the centroid is
    w_lower * mean(lower) + w_upper * mean(boundary); with either side empty
    it is the plain mean of the upper approximation. A cluster whose upper
    approximation is empty keeps its previous centroid, which the caller must
    supply in that case. Previous centroids that are not k x m raise
    ShapeError, and non-finite ones DomainError. A gene in two lower
    approximations, a lower approximation outside its upper one, or a crisp
    gene in another cluster's upper approximation raises ValidationError.
    """
    _check_weights(w_lower, w_upper)
    X = _as_matrix(data)
    lower_idx, upper_mask = _to_masks(lower, upper, X.shape[0])
    if previous_centroids is not None:
        previous_centroids = _check_centroids(previous_centroids, upper_mask.shape[1], X.shape[1],
                                              "previous centroids")
    return _update_centroids(X, lower_idx, upper_mask, w_lower, w_upper, previous_centroids)


def _rough_result(run) -> RoughClustering:
    lower, upper, centroids, iterations, converged, had_empty = run
    return _result(_RoughResult, _masks=(lower, upper), centroids=centroids,
                   iterations=iterations, converged=converged, had_empty_cluster=had_empty)


def rough_kmeans(data, params: RoughParams, initial_centroids=None,
                 on_iteration=None) -> RoughClustering:
    """Rough-set k-means: ratio-threshold assignment plus weighted centroids.

    ``on_iteration(iteration, lower, upper, centroids)``, when given, is
    called after every assignment pass with the centroids it used.
    """
    epsilon = _distance_epsilon(params.epsilon)
    return _rough_result(_engine(data, params, _DistanceRule, epsilon,
                                 initial_centroids, on_iteration))


def fsrk_assign(memberships, centroids, epsilon: float | None) -> tuple[tuple, tuple]:
    """Similarity-ratio assignment into lower/upper approximations.

    Mirrors the distance rule in similarity space: candidates are clusters
    with S_h / S_best >= epsilon beyond the unique best one. None takes DEFAULT_FSRK_EPSILON.
    """
    epsilon = _similarity_epsilon(epsilon)
    M, Z = _as_finite_pair(memberships, centroids)
    _check_unit_interval(Z, "fsrk centroids")
    return _to_sets(*_SimilarityRule.plain(M, Z, epsilon))


def fsrk_kmeans(memberships, params: RoughParams, initial_centroids=None,
                on_iteration=None) -> RoughClustering:
    """Soft-similarity rough k-means over fuzzified (membership) rows.

    Input rows must already be memberships in [0, 1]; centroids then stay in
    [0, 1] automatically, being convex combinations of memberships.
    """
    M = _as_matrix(memberships)
    _check_unit_interval(M, "fsrk input must be fuzzified")
    if initial_centroids is not None:
        _check_unit_interval(_as_matrix(initial_centroids), "fsrk centroids")
    epsilon = _similarity_epsilon(params.epsilon)
    return _rough_result(_engine(M, params, _SimilarityRule, epsilon,
                                 initial_centroids, on_iteration))
