"""The row-blocked scoring kernels against their unblocked numpy forms.

Every decision the engines and ``crispify`` take (argmin, argmax, ratio
test) reads these scores, so they must match bit for bit, not within a
tolerance; and the blocks must keep memory near the size of the output.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from genecluster.clustering import _sq_distances
from genecluster.fuzzysoft import _similarities
from genecluster.ingest import _block_rows

M = 34
ROWS = _block_rows(M)

# (n, k, m); the first spans three blocks and a ragged tail
SHAPES = [
    (3 * ROWS + 17, 10, M),
    (ROWS, 3, M),
    (ROWS + 1, 2, M),
    (0, 4, M),
    (50, 1, M),
    (2 * _block_rows(1) + 5, 3, 1),
    (40, 3, 0),
    (7, 2, 96),
]


def raw_scale(rng, n, k, m):
    """Rows like the unlogged expression levels the engines read, and k centroids."""
    X = np.round(2.0 ** rng.normal(7.0, 1.5, size=(n, m)) + rng.normal(0, 60, size=(n, m)))
    Z = 2.0 ** rng.normal(7.0, 1.5, size=(k, m))
    return X, Z


@pytest.mark.parametrize("n,k,m", SHAPES)
def test_sq_distances_bit_equal_to_broadcast(n, k, m):
    rng = np.random.default_rng(n * 31 + k * 7 + m)
    X, Z = raw_scale(rng, n, k, m)
    assert np.array_equal(_sq_distances(X, Z), oracles.sq_distances_broadcast(X, Z))


@pytest.mark.parametrize("n,k,m", SHAPES)
def test_similarities_bit_equal_to_per_centroid(n, k, m):
    rng = np.random.default_rng(n * 31 + k * 7 + m)
    X = rng.random((n, m))
    Z = rng.random((k, m))
    assert np.array_equal(_similarities(X, Z), oracles.similarities_per_centroid(X, Z))


def test_similarities_zero_denominator_and_nan_rows():
    rng = np.random.default_rng(5)
    n = 2 * ROWS + 9
    X = rng.random((n, M))
    Z = rng.random((3, M))
    Z[1] = 0.0
    X[[0, ROWS, n - 1]] = 0.0  # den == 0 against Z[1]: similarity 1
    X[[3, ROWS + 4], 5] = np.nan
    got = _similarities(X, Z)
    assert got[0, 1] == got[ROWS, 1] == got[n - 1, 1] == 1.0
    assert np.isnan(got[[3, ROWS + 4]]).all()
    assert np.array_equal(got, oracles.similarities_per_centroid(X, Z), equal_nan=True)


@pytest.mark.parametrize("kernel", [_sq_distances, _similarities])
def test_peak_memory_stays_near_the_output(kernel):
    rng = np.random.default_rng(0)
    X = rng.random((20000, M))
    Z = rng.random((10, M))
    tracemalloc.start()
    try:
        out = kernel(X, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (n, k, m) temporary would be 34 times the output
    assert peak <= 2 * out.nbytes
