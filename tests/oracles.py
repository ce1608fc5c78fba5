"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately pure Python (math module, dicts, explicit
loops) so it shares no code path with the package under test, except the
numpy formulas at the end: the row-blocked scoring kernels, the one-gather
centroid update and the interval settle must reproduce those bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from genecluster.errors import ParameterError


def shannon_entropy(counts):
    """Entropy in bits of a list of event counts."""
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return max(0.0, h)


def info_gain_pairs(xs, ys):
    """IG in bits between two aligned discrete sequences, via dict histograms."""
    joint = {}
    for x, y in zip(xs, ys):
        joint[(x, y)] = joint.get((x, y), 0) + 1
    margin_x = {}
    margin_y = {}
    for (x, y), c in joint.items():
        margin_x[x] = margin_x.get(x, 0) + c
        margin_y[y] = margin_y.get(y, 0) + c
    hx = shannon_entropy(list(margin_x.values()))
    hy = shannon_entropy(list(margin_y.values()))
    hxy = shannon_entropy(list(joint.values()))
    return max(0.0, hx + hy - hxy)


def equal_width_codes(values, bins):
    """Equal-width bin codes over [min, max]; the shared discretization contract."""
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0] * len(values)
    return [min(bins - 1, int(math.floor((v - lo) * bins / (hi - lo)))) for v in values]


def info_gain_binned(row, classes, bins):
    return info_gain_pairs(equal_width_codes(row, bins), classes)


def exact_gain_ratio(row, classes, bins):
    """The Fraction prod n_ij^n_ij / prod n_i^n_i over the binned joint counts.

    With the class sizes fixed, IG = H(class) + log2(ratio) / N, so two genes
    have equal IG exactly when their ratios are equal, and a larger ratio
    means a larger IG.
    """
    joint = {}
    margin = {}
    for x, y in zip(equal_width_codes(row, bins), classes):
        joint[(x, y)] = joint.get((x, y), 0) + 1
        margin[x] = margin.get(x, 0) + 1
    num = 1
    for c in joint.values():
        num *= c ** c
    den = 1
    for c in margin.values():
        den *= c ** c
    return Fraction(num, den)


def exact_ig_order(rows, classes, bins):
    """Gene indices by descending exact IG, equal values by ascending index."""
    ratios = [exact_gain_ratio(row, classes, bins) for row in rows]
    return sorted(range(len(rows)), key=lambda i: (-ratios[i], i))


def _mean_rows(rows):
    width = len(rows[0])
    return [sum(r[c] for r in rows) / len(rows) for c in range(width)]


def _sq_dist(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def best_two_cluster_sse(points):
    """Exhaustive minimum SSE over every 2-partition of the given rows."""
    n = len(points)
    best = math.inf
    for mask in range(1, 2 ** n - 1):
        groups = ([], [])
        for i in range(n):
            groups[(mask >> i) & 1].append(points[i])
        sse = 0.0
        for g in groups:
            center = _mean_rows(g)
            sse += sum(_sq_dist(p, center) for p in g)
        best = min(best, sse)
    return best


def db_reference(data, labels, centroids):
    """Davies-Bouldin by direct double loops over the definition."""
    k = len(centroids)
    sigma = []
    for h in range(k):
        members = [data[i] for i in range(len(data)) if labels[i] == h]
        sigma.append(sum(math.sqrt(_sq_dist(p, centroids[h])) for p in members) / len(members))
    total = 0.0
    for h in range(k):
        worst = -math.inf
        for g in range(k):
            if g == h:
                continue
            gap = math.sqrt(_sq_dist(centroids[h], centroids[g]))
            worst = max(worst, (sigma[h] + sigma[g]) / gap)
        total += worst
    return total / k


def xb_reference(data, labels, centroids):
    """Xie-Beni by direct double loops over the definition."""
    k = len(centroids)
    within = 0.0
    for i in range(len(data)):
        within += _sq_dist(data[i], centroids[labels[i]])
    separation = math.inf
    for h in range(k):
        for g in range(h + 1, k):
            separation = min(separation, _sq_dist(centroids[h], centroids[g]))
    return within / (len(data) * separation)


def sim_reference(x, z):
    """Soft-set similarity with sequential pure-Python sums."""
    num = sum(abs(a - b) for a, b in zip(x, z))
    den = sum(a + b for a, b in zip(x, z))
    if den == 0:
        return 1.0
    return 1.0 - num / den


def fsrk_replay(memberships, initial_centroids, epsilon, w_lower, w_upper,
                tol=1e-6, max_iter=100):
    """Literal step-by-step execution of the similarity-ratio clustering loop.

    Returns (lower sets, upper sets, centroids, iterations) built from
    explicit per-gene decisions: best = highest-similarity cluster (lowest
    index on exact ties), candidates = best plus every strictly-less-similar
    cluster with S_h >= epsilon * S_best; one candidate is crisp, several all
    take the gene into their upper sets. Centroids update with the weighted
    lower/boundary blend, falling back to the plain upper mean when either
    side is empty.
    """
    k = len(initial_centroids)
    centroids = [list(c) for c in initial_centroids]
    lower = upper = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        lower = [set() for _ in range(k)]
        upper = [set() for _ in range(k)]
        for i, gene in enumerate(memberships):
            sims = [sim_reference(gene, c) for c in centroids]
            best = 0
            for h in range(1, k):
                if sims[h] > sims[best]:
                    best = h
            candidates = [best]
            for h in range(k):
                if sims[h] < sims[best] and sims[h] >= epsilon * sims[best]:
                    candidates.append(h)
            if len(candidates) == 1:
                lower[best].add(i)
                upper[best].add(i)
            else:
                for h in candidates:
                    upper[h].add(i)
        new_centroids = []
        for h in range(k):
            low = sorted(lower[h])
            up = sorted(upper[h])
            bnd = sorted(upper[h] - lower[h])
            if not up:
                new_centroids.append(list(centroids[h]))
            elif low and bnd:
                low_mean = _mean_rows([memberships[i] for i in low])
                bnd_mean = _mean_rows([memberships[i] for i in bnd])
                new_centroids.append(
                    [w_lower * a + w_upper * b for a, b in zip(low_mean, bnd_mean)]
                )
            else:
                new_centroids.append(_mean_rows([memberships[i] for i in up]))
        shift = max(
            abs(a - b) for row_new, row_old in zip(new_centroids, centroids)
            for a, b in zip(row_new, row_old)
        )
        centroids = new_centroids
        if shift <= tol:
            break
    return (
        [frozenset(s) for s in lower],
        [frozenset(s) for s in upper],
        centroids,
        iterations,
    )


def sq_distances_broadcast(X, centroids):
    """Squared distances through one (n, k, m) difference array."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("nkm,nkm->nk", diff, diff)


def similarities_per_centroid(X, Z):
    """Soft-set similarities through whole-matrix temporaries, one centroid at a time."""
    S = np.empty((X.shape[0], Z.shape[0]), dtype=float)
    for h in range(Z.shape[0]):
        num = np.abs(X - Z[h]).sum(axis=1)
        den = (X + Z[h]).sum(axis=1)
        S[:, h] = np.where(den != 0, 1.0 - num / np.where(den != 0, den, 1.0), 1.0)
    return S


def update_centroids_per_cluster(X, lower, upper, w_lower, w_upper, previous):
    """The weighted centroid update through boolean masks, one cluster at a time."""
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


def settle_argmax(lo, hi, threshold):
    """The interval settle of the filtered rules through a strided argmax.

    (k, n) intervals [lo, hi], larger meaning nearer. Gives each gene's first
    cluster of largest lo, the (n, k) clusters that pass the ratio test
    against it for sure, and the genes that are decided: one cluster beats
    every other for sure, every other passes or fails for sure, and every lo
    and hi of the gene is finite.
    """
    genes = np.arange(lo.shape[1])
    best = lo.argmax(axis=0)
    lo_b, hi_b = lo[best, genes], hi[best, genes]
    within = lo >= threshold * hi_b
    sure = within | (hi < threshold * lo_b)
    sure &= hi < lo_b
    within[best, genes] = False
    sure[best, genes] = True
    finite = np.isfinite(lo).all(axis=0) & np.isfinite(hi).all(axis=0)
    return best, within.T, sure.all(axis=0) & finite
