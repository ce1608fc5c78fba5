import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from genecluster import cli, clustering
from genecluster.clustering import (
    CrispClustering,
    RoughParams,
    fsrk_assign,
    fsrk_kmeans,
    init_centroids,
    kmeans,
    rough_assign,
    rough_centroids,
    rough_kmeans,
    sum_squared_error,
)
from genecluster.errors import DomainError, ParameterError, ShapeError, ValidationError
from genecluster.fuzzysoft import fuzzify, similarity
from genecluster.ingest import ExpressionMatrix, _block_rows
from genecluster.validity import crispify, db_index, xb_index


def assert_rough_axioms(lower, upper, n):
    """All four membership axioms plus coverage of every gene."""
    k = len(lower)
    for h in range(k):
        assert lower[h] <= upper[h]
    lower_count = {}
    for h in range(k):
        for i in lower[h]:
            lower_count[i] = lower_count.get(i, 0) + 1
    assert all(c == 1 for c in lower_count.values())
    covered = set()
    for i in range(n):
        uppers = [h for h in range(k) if i in upper[h]]
        covered.update([i] if uppers else [])
        if i in lower_count:
            home = next(h for h in range(k) if i in lower[h])
            assert uppers == [home]
        else:
            assert len(uppers) >= 2
    assert covered == set(range(n))


def lower_index(lower, n):
    """Each gene's lower approximation, -1 for a gene in none."""
    index = np.full(n, -1)
    for h, genes in enumerate(lower):
        index[list(genes)] = h
    return index


def sse_per_pass(data, params):
    """kmeans' result and each pass's SSE, read from the run it equals bit for
    bit: rough_kmeans at epsilon 1, whose hook sees each pass's lower sets and
    the centroids that pass assigned against."""
    X = np.asarray(data, dtype=float)
    history = []

    def hook(it, lower, upper, Z):
        history.append(sum_squared_error(X, lower_index(lower, len(X)), Z))

    rough = rough_kmeans(X, replace(params, epsilon=1.0), on_iteration=hook)
    result = kmeans(X, params)
    assert rough.centroids.tobytes() == result.centroids.tobytes()
    return result, history


class TestInitCentroids:
    def test_deterministic_for_seed(self):
        data = np.arange(20.0).reshape(10, 2)
        a = init_centroids(data, 3, seed=42)
        b = init_centroids(data, 3, seed=42)
        assert np.array_equal(a, b)

    def test_rows_come_from_data(self):
        data = np.random.default_rng(0).normal(size=(6, 3))
        picked = init_centroids(data, 2, seed=5)
        for row in picked:
            assert any(np.array_equal(row, d) for d in data)

    def test_k_equals_n_is_a_permutation(self):
        data = np.arange(8.0).reshape(4, 2)
        picked = init_centroids(data, 4, seed=1)
        assert sorted(picked[:, 0].tolist()) == data[:, 0].tolist()

    def test_k_larger_than_n(self):
        with pytest.raises(ParameterError):
            init_centroids(np.zeros((3, 2)), 4, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match=r"^seed must be >= 0, got -1$"):
            init_centroids(np.zeros((4, 2)), 2, seed=-1)

    def test_non_integral_seed_rejected(self):
        with pytest.raises(ParameterError, match=r"^seed must be an integer, got 1.5$"):
            init_centroids(np.zeros((4, 2)), 2, seed=1.5)

    def test_one_dimensional_data_is_one_column(self):
        picked = init_centroids([0.0, 1.0, 2.0, 3.0], 2, seed=0)
        assert picked.shape == (2, 1)
        assert np.array_equal(picked, init_centroids([[0.0], [1.0], [2.0], [3.0]], 2, seed=0))

    def test_three_dimensional_data_rejected(self):
        with pytest.raises(ShapeError, match=r"^expected a 2-D data matrix, got shape \(2, 2, 2\)$"):
            init_centroids(np.zeros((2, 2, 2)), 2, seed=0)


class TestKMeans:
    def test_two_separated_pairs(self):
        data = np.array([[0.0], [1.0], [9.0], [10.0]])
        for seed in range(10):
            result = kmeans(data, RoughParams(k=2, seed=seed))
            assert result.sse == pytest.approx(1.0, abs=1e-9)
            assert sorted(result.centroids.ravel().tolist()) == [0.5, 9.5]
            groups = [set(np.flatnonzero(result.assignment == h).tolist()) for h in range(2)]
            assert {frozenset(g) for g in groups} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_single_cluster_centroid_is_mean(self):
        data = np.random.default_rng(2).normal(size=(7, 3))
        result = kmeans(data, RoughParams(k=1, seed=0))
        assert np.allclose(result.centroids[0], data.mean(axis=0), atol=1e-12)
        assert result.converged
        assert np.all(result.assignment == 0)

    def test_n_equals_k_zero_sse(self):
        data = np.array([[0.0, 0.0], [1.0, 5.0], [4.0, 2.0]])
        result = kmeans(data, RoughParams(k=3, seed=3))
        assert result.sse == 0.0

    def test_sse_per_pass_non_increasing(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            data = rng.normal(size=(int(rng.integers(5, 30)), int(rng.integers(1, 4))))
            k = int(rng.integers(1, min(5, len(data)) + 1))
            result, hist = sse_per_pass(data, RoughParams(k=k, seed=int(rng.integers(1000))))
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
            assert result.sse <= hist[-1] + 1e-9

    def test_sse_is_recomputable(self):
        data = np.random.default_rng(5).normal(size=(12, 2))
        result = kmeans(data, RoughParams(k=3, seed=1))
        recomputed = ((data - result.centroids[result.assignment]) ** 2).sum()
        assert result.sse == pytest.approx(recomputed, abs=0)

    def test_deterministic(self):
        data = np.random.default_rng(6).normal(size=(15, 3))
        params = RoughParams(k=3, seed=9)
        a = kmeans(data, params)
        b = kmeans(data, params)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.sse == b.sse

    def test_k_exceeds_n(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((2, 1)), RoughParams(k=3, seed=0))


class TestRoughAssign:
    def test_midpoint_lands_in_both_uppers(self):
        # distances 5 and 4; 5/4 = 1.25 <= 1.3
        lower, upper = rough_assign([[5.0]], [[0.0], [9.0]], epsilon=1.3)
        assert lower == (frozenset(), frozenset())
        assert upper == (frozenset({0}), frozenset({0}))

    def test_ratio_above_threshold_is_crisp(self):
        lower, upper = rough_assign([[5.0]], [[0.0], [9.0]], epsilon=1.2)
        assert lower == (frozenset(), frozenset({0}))
        assert upper == (frozenset(), frozenset({0}))

    def test_epsilon_one_degenerates_to_nearest(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(40, 2))
        centroids = rng.normal(size=(3, 2))
        lower, upper = rough_assign(data, centroids, epsilon=1.0)
        nearest = np.argmin(
            np.sqrt(((data[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)), axis=1
        )
        for h in range(3):
            assert lower[h] == upper[h] == frozenset(np.flatnonzero(nearest == h).tolist())
        assert_rough_axioms(lower, upper, len(data))

    def test_gene_on_centroid_is_crisp_there(self):
        lower, upper = rough_assign([[9.0]], [[0.0], [9.0]], epsilon=5.0)
        assert lower == (frozenset(), frozenset({0}))
        assert upper == (frozenset(), frozenset({0}))

    def test_exact_tie_goes_to_lowest_index(self):
        # equidistant gene: the tied competitor is dropped before the ratio test
        lower, upper = rough_assign([[4.5]], [[0.0], [9.0]], epsilon=1.0)
        assert lower == (frozenset({0}), frozenset())
        lower13, upper13 = rough_assign([[4.5]], [[0.0], [9.0]], epsilon=1.3)
        assert lower13 == (frozenset({0}), frozenset())
        assert upper13 == (frozenset({0}), frozenset())

    def test_epsilon_below_one_rejected(self):
        with pytest.raises(ParameterError):
            rough_assign([[1.0]], [[0.0]], epsilon=0.9)


class TestRoughCentroids:
    def test_weighted_blend_worked_example(self):
        data = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        out = rough_centroids(data, [frozenset({0, 1})], [frozenset({0, 1, 2})], 0.7, 0.3)
        assert out[0, 0] == 3.7
        assert out[0, 1] == 0.0

    def test_empty_boundary_plain_mean(self):
        data = np.array([[1.0, 1.0], [3.0, 3.0]])
        out = rough_centroids(data, [frozenset({0, 1})], [frozenset({0, 1})], 0.7, 0.3)
        assert out[0].tolist() == [2.0, 2.0]

    def test_full_lower_weight_ignores_boundary(self):
        data = np.array([[0.0], [2.0], [50.0]])
        out = rough_centroids(data, [frozenset({0, 1})], [frozenset({0, 1, 2})], 1.0, 0.0)
        assert out[0, 0] == 1.0

    def test_empty_lower_uses_boundary_mean(self):
        data = np.array([[2.0], [4.0]])
        out = rough_centroids(data, [frozenset()], [frozenset({0, 1})], 0.7, 0.3)
        assert out[0, 0] == 3.0

    def test_empty_cluster_keeps_previous(self):
        data = np.array([[1.0], [2.0]])
        out = rough_centroids(
            data, [frozenset({0, 1}), frozenset()], [frozenset({0, 1}), frozenset()],
            0.7, 0.3, previous_centroids=[[1.5], [40.0]],
        )
        assert out[1, 0] == 40.0

    @pytest.mark.parametrize("previous", [np.ones((1, 3)), [[7.0], [7.0]]],
                             ids=["too-few-rows", "too-narrow"])
    def test_previous_centroids_of_the_wrong_shape_rejected(self, previous):
        data = np.arange(6.0).reshape(2, 3)
        lower, upper = [frozenset({0, 1}), frozenset()], [frozenset({0, 1}), frozenset()]
        with pytest.raises(ShapeError, match=r"previous centroids must be 2x3"):
            rough_centroids(data, lower, upper, 0.7, 0.3, previous_centroids=previous)

    def test_non_finite_previous_centroids_rejected(self):
        with pytest.raises(DomainError, match="previous centroids must be finite"):
            rough_centroids([[1.0], [2.0]], [frozenset({0, 1}), frozenset()],
                            [frozenset({0, 1}), frozenset()], 0.7, 0.3, [[1.5], [np.nan]])

    def test_empty_cluster_without_previous(self):
        with pytest.raises(ParameterError):
            rough_centroids(np.array([[1.0]]), [frozenset()], [frozenset()], 0.7, 0.3)

    def test_bad_weights(self):
        with pytest.raises(ParameterError):
            rough_centroids(np.array([[1.0]]), [frozenset({0})], [frozenset({0})], 0.8, 0.3)

    @pytest.mark.parametrize("gene", [2, -1])
    def test_gene_index_outside_the_data_rejected(self, gene):
        with pytest.raises(ShapeError):
            rough_centroids(np.array([[1.0], [2.0]]), [frozenset({gene})],
                            [frozenset({0, gene})], 0.7, 0.3)


    @staticmethod
    def random_masks(rng, n, k):
        """Axiom-consistent masks: cluster 0 empty, 1 all crisp, 2 all boundary."""
        lower = rng.integers(-1, k, size=n)
        lower[lower == 0] = 1
        lower[lower == 2] = -1
        upper = np.zeros((n, k), dtype=bool)
        crisp = np.flatnonzero(lower >= 0)
        upper[crisp, lower[crisp]] = True
        for i in np.flatnonzero(lower < 0):
            clusters = rng.choice(np.arange(2, k), size=rng.integers(2, k - 1), replace=False)
            upper[i, clusters] = True
        return lower, upper

    @pytest.mark.parametrize("m", [1, 2, 34])
    @pytest.mark.parametrize("n", [5, 300, 1000])
    def test_update_bit_equal_to_per_cluster_masks(self, n, m):
        rng = np.random.default_rng(n + m)
        X = 2.0 ** rng.normal(7.0, 1.5, size=(n, m)) + rng.normal(0, 60, size=(n, m))
        lower, upper = self.random_masks(rng, n, 5)
        # a one-row segment (cluster 3's lower set is gene 0 alone) and a segment
        # whose rows are all -0.0 (cluster 1's lower set, which holds gene 1)
        lower[(lower == 3) | (np.arange(n) == 1)] = 1
        lower[0] = 3
        upper[:2] = False
        upper[[0, 1], [3, 1]] = True
        upper[lower == 1, 3] = False
        upper[lower == 1, 1] = True
        X[lower == 1] = -0.0
        previous = rng.normal(size=(5, m))
        assert not upper[:, 0].any() and (lower != 2).all() and upper[:, 2].any()
        assert np.count_nonzero(lower == 3) == 1 and upper[0].sum() == 1
        assert (upper[:, 1] == (lower == 1)).all() and np.signbit(X[lower == 1]).all()
        for weights in ((0.7, 0.3), (1.0, 0.0), (0.6, 0.4000000001)):
            got = clustering._update_centroids(X, lower, upper, *weights, previous)
            want = oracles.update_centroids_per_cluster(X, lower, upper, *weights, previous)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lower, upper", [
        # gene 1 in cluster 0's lower set but not its upper one
        ([frozenset({0, 1}), frozenset({2})], [frozenset({0, 3}), frozenset({2, 3})]),
        # gene 2 in two lower sets
        ([frozenset({0, 2}), frozenset({1, 2})], [frozenset({0, 2, 3}), frozenset({1, 2, 3})]),
        # gene 0, crisp in cluster 0, also in cluster 1's upper set
        ([frozenset({0, 1}), frozenset({2})], [frozenset({0, 1}), frozenset({0, 2, 3})]),
    ], ids=["lower-outside-upper", "two-lowers", "crisp-in-another-upper"])
    def test_sets_that_break_the_rough_set_axioms_rejected(self, lower, upper):
        with pytest.raises(ValidationError, match="lower approximation"):
            rough_centroids([[1.0], [2.0], [4.0], [8.0]], lower, upper, 0.7, 0.3)

    def test_update_without_previous_names_the_first_empty_cluster(self):
        lower = np.array([1, 1, -1])
        upper = np.array([[0, 1, 0, 0], [0, 1, 0, 0], [0, 1, 0, 1]], dtype=bool)
        X = np.arange(3.0)[:, None]
        with pytest.raises(ParameterError) as want:
            oracles.update_centroids_per_cluster(X, lower, upper, 0.7, 0.3, None)
        with pytest.raises(ParameterError, match="cluster 0 is empty") as got:
            clustering._update_centroids(X, lower, upper, 0.7, 0.3, None)
        assert str(got.value) == str(want.value)


class TestRoughKMeans:
    def test_epsilon_one_matches_kmeans_partition(self):
        data = np.array([[0.0], [1.0], [9.0], [10.0]])
        params = RoughParams(k=2, seed=0, epsilon=1.0, w_lower=1.0, w_upper=0.0)
        rough = rough_kmeans(data, params)
        crisp = kmeans(data, RoughParams(k=2, seed=0))
        for h in range(2):
            assert rough.lower[h] == frozenset(np.flatnonzero(crisp.assignment == h).tolist())
            assert rough.upper[h] == rough.lower[h]

    @pytest.mark.parametrize("whole", [False, True], ids=["modules", "whole-numbers"])
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_epsilon_one_is_kmeans_bit_for_bit(self, seed, k, whole):
        X, _ = modules(np.random.default_rng(seed), 150, 6, 4)
        if whole:
            X = np.round(2 * X)  # duplicate rows and exact distance ties
        params = RoughParams(k=k, seed=seed)
        crisp = kmeans(X, params)
        rough = rough_kmeans(X, replace(params, epsilon=1.0))
        assert rough.upper == rough.lower  # no boundary gene
        assert np.array_equal(lower_index(rough.lower, len(X)), crisp.assignment)
        assert rough.centroids.tobytes() == crisp.centroids.tobytes()
        assert (rough.iterations, rough.converged) == (crisp.iterations, crisp.converged)

    def test_single_cluster(self):
        data = np.random.default_rng(10).normal(size=(9, 2))
        result = rough_kmeans(data, RoughParams(k=1, seed=0))
        assert result.lower[0] == frozenset(range(9))
        assert np.allclose(result.centroids[0], data.mean(axis=0), atol=1e-12)

    def test_hand_iterated_midpoint_example(self):
        # two hand iterations of assign/update with a midpoint gene at 5
        data = np.array([[0.0], [1.0], [9.0], [10.0], [5.0]])
        params = RoughParams(k=2, epsilon=1.3, w_lower=0.7, w_upper=0.3, seed=0)
        result = rough_kmeans(data, params, initial_centroids=[[0.0], [9.0]])
        assert result.lower == (frozenset({0, 1}), frozenset({2, 3}))
        assert result.upper == (frozenset({0, 1, 4}), frozenset({2, 3, 4}))
        assert result.centroids[0, 0] == 0.7 * 0.5 + 0.3 * 5.0
        assert result.centroids[1, 0] == 0.7 * 9.5 + 0.3 * 5.0
        assert result.converged

    def test_axioms_hold_every_iteration(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(6, 40))
            data = rng.normal(size=(n, int(rng.integers(1, 4))))
            k = int(rng.integers(2, 5))
            eps = float(rng.uniform(1.0, 1.6))
            params = RoughParams(k=k, epsilon=eps, seed=int(rng.integers(1000)))
            rough_kmeans(
                data, params,
                on_iteration=lambda it, lo, up, c: assert_rough_axioms(lo, up, n),
            )

    def test_deterministic(self):
        data = np.random.default_rng(12).normal(size=(25, 2))
        params = RoughParams(k=3, epsilon=1.25, seed=7)
        a = rough_kmeans(data, params)
        b = rough_kmeans(data, params)
        assert a.lower == b.lower
        assert a.upper == b.upper
        assert np.array_equal(a.centroids, b.centroids)

    def test_epsilon_below_one_rejected(self):
        with pytest.raises(ParameterError):
            rough_kmeans(np.zeros((4, 1)), RoughParams(k=2, epsilon=0.5, seed=0))

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ParameterError):
            rough_kmeans(np.zeros((4, 1)), RoughParams(k=2, epsilon=np.nan, seed=0))
        with pytest.raises(ParameterError):
            rough_assign([[1.0]], [[0.0]], epsilon=np.nan)


class TestFsrkAssign:
    def test_two_candidates_within_ratio(self):
        gene = [0.8, 0.8]
        centroids = np.array([[0.8, 0.8], [0.8, 0.6], [0.1, 0.1]])
        # similarities 1.0, ~0.933, ~0.222
        lower, upper = fsrk_assign([gene], centroids, epsilon=0.9)
        assert lower == (frozenset(), frozenset(), frozenset())
        assert upper == (frozenset({0}), frozenset({0}), frozenset())

    def test_epsilon_one_with_unique_max_is_crisp(self):
        rng = np.random.default_rng(13)
        genes = rng.uniform(size=(30, 3))
        centroids = rng.uniform(size=(3, 3))
        lower, upper = fsrk_assign(genes, centroids, epsilon=1.0)
        for i, gene in enumerate(genes):
            sims = [similarity(gene, c) for c in centroids]
            best = int(np.argmax(sims))
            assert i in lower[best]
            assert all(i not in upper[h] for h in range(3) if h != best)

    def test_gene_identical_to_centroid(self):
        centroids = np.array([[0.1, 0.2], [0.9, 0.8], [0.4, 0.5]])
        lower, upper = fsrk_assign([[0.4, 0.5]], centroids, epsilon=0.95)
        assert lower[2] == frozenset({0})
        assert upper == (frozenset(), frozenset(), frozenset({0}))

    def test_matches_per_gene_rule(self):
        rng = np.random.default_rng(14)
        genes = rng.uniform(size=(50, 4))
        centroids = rng.uniform(size=(4, 4))
        eps = 0.97
        lower, upper = fsrk_assign(genes, centroids, eps)
        for i, gene in enumerate(genes):
            sims = [oracles.sim_reference(gene.tolist(), c.tolist()) for c in centroids]
            best = max(range(4), key=lambda h: (sims[h], -h))
            cands = {best} | {
                h for h in range(4) if sims[h] < sims[best] and sims[h] >= eps * sims[best]
            }
            if len(cands) == 1:
                assert i in lower[best]
            else:
                assert all(i in upper[h] for h in cands)
                assert all(i not in lower[h] for h in range(4))
        assert_rough_axioms(lower, upper, len(genes))

    def test_epsilon_out_of_range(self):
        with pytest.raises(ParameterError):
            fsrk_assign([[0.5]], [[0.5]], epsilon=1.5)
        with pytest.raises(ParameterError):
            fsrk_assign([[0.5]], [[0.5]], epsilon=0.0)

    def test_centroids_outside_unit_interval(self):
        with pytest.raises(DomainError):
            fsrk_assign([[0.5]], [[1.5]], epsilon=0.9)


class TestFsrkKMeans:
    def test_unfuzzified_input_rejected(self):
        with pytest.raises(DomainError):
            fsrk_kmeans(np.array([[0.2], [1.7]]), RoughParams(k=1, seed=0))

    def test_single_cluster(self):
        rng = np.random.default_rng(15)
        memberships = rng.uniform(size=(8, 3))
        result = fsrk_kmeans(memberships, RoughParams(k=1, seed=0))
        assert result.lower[0] == frozenset(range(8))
        assert np.allclose(result.centroids[0], memberships.mean(axis=0), atol=1e-12)

    def test_fixed_point_converges_in_one_assignment_pass(self):
        memberships = np.array([
            [0.1, 0.1], [0.2, 0.2], [0.3, 0.3],
            [0.7, 0.7], [0.8, 0.8], [0.9, 0.9],
        ])
        params = RoughParams(k=2, epsilon=1.0, seed=0)
        result = fsrk_kmeans(
            memberships, params, initial_centroids=[[0.2, 0.2], [0.8, 0.8]]
        )
        assert result.iterations == 1
        assert result.converged
        assert result.lower == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
        assert result.upper == result.lower

    def test_centroids_stay_in_unit_interval_every_iteration(self):
        rng = np.random.default_rng(16)

        def check(iteration, lower, upper, centroids):
            assert_rough_axioms(lower, upper, 20)
            assert centroids.min() >= 0.0
            assert centroids.max() <= 1.0

        for _ in range(10):
            memberships = rng.uniform(size=(20, 3))
            params = RoughParams(
                k=int(rng.integers(2, 5)),
                epsilon=float(rng.uniform(0.85, 1.0)),
                seed=int(rng.integers(1000)),
            )
            result = fsrk_kmeans(memberships, params, on_iteration=check)
            assert result.centroids.min() >= 0.0
            assert result.centroids.max() <= 1.0

    def test_accepts_membership_matrix_object(self):
        from genecluster.fuzzysoft import MembershipMatrix

        mm = MembershipMatrix(("g0", "g1"), ("s0",), [[0.1], [0.9]])
        result = fsrk_kmeans(mm, RoughParams(k=2, seed=0, epsilon=1.0))
        assert result.lower[0] | result.lower[1] == frozenset({0, 1})

    def test_deterministic(self):
        memberships = np.random.default_rng(17).uniform(size=(30, 2))
        params = RoughParams(k=3, epsilon=0.96, seed=21)
        a = fsrk_kmeans(memberships, params)
        b = fsrk_kmeans(memberships, params)
        assert a.lower == b.lower and a.upper == b.upper
        assert np.array_equal(a.centroids, b.centroids)


# fsrk runs whose centroids come back bit for bit to an earlier pass's:
# (data seed, k, run seed, s, t) where pass t ends on the centroids of pass s,
# pass 0 being the initial centroids.
CYCLING_FSRK_RUNS = [(24, 2, 2, 3, 5), (26, 3, 1, 14, 17)]


class TestCycleShortcut:
    @pytest.mark.parametrize("data_seed, k, seed, s, t", CYCLING_FSRK_RUNS)
    def test_equals_the_full_loop_at_every_max_iter(self, data_seed, k, seed, s, t):
        memberships = np.random.default_rng(data_seed).random((30, 6))
        for max_iter in range(1, t + 3 * (t - s) + 1):
            params = RoughParams(k=k, seed=seed, max_iter=max_iter)
            fast = fsrk_kmeans(memberships, params)
            seen = []  # a hook turns the shortcut off: every pass runs
            full = fsrk_kmeans(memberships, params,
                               on_iteration=lambda it, lo, up, Z: seen.append(Z.tobytes()))
            assert len(seen) == full.iterations == max_iter and not full.converged
            if max_iter > t:
                assert seen[t] == seen[s] and len(set(seen[:t])) == t
            assert (fast.lower, fast.upper) == (full.lower, full.upper)
            assert fast.centroids.tobytes() == full.centroids.tobytes()
            assert (fast.iterations, fast.converged, fast.had_empty_cluster) == (
                full.iterations, full.converged, full.had_empty_cluster)

    @pytest.mark.parametrize("data_seed, k, seed, s, t", CYCLING_FSRK_RUNS)
    def test_rule_stops_running_after_the_repeat(self, monkeypatch, data_seed, k, seed, s, t):
        calls = []
        similarities = clustering._similarities

        def counting(M, Z):
            calls.append(1)
            return similarities(M, Z)

        monkeypatch.setattr(clustering, "_similarities", counting)
        memberships = np.random.default_rng(data_seed).random((30, 6))
        result = fsrk_kmeans(memberships, RoughParams(k=k, seed=seed, max_iter=100))
        assert result.iterations == 100 and not result.converged
        assert len(calls) <= t + 1


def modules(rng, n, m, k):
    """Rows drawn around k module profiles, like co-expressed genes, plus the
    same rows mapped column-wise onto [0, 1] as memberships."""
    profiles = rng.normal(0.0, 3.0, size=(k, m))
    X = profiles[rng.integers(0, k, size=n)] * rng.uniform(0.5, 1.5, size=(n, 1))
    X += rng.normal(0.0, 0.8, size=(n, m))
    span = X.max(axis=0) - X.min(axis=0)
    return X, (X - X.min(axis=0)) / span


def recorded(engine, data, params, hooked, **kw):
    """The engine's result and, with a hook, every pass's (lower, upper, centroid bytes)."""
    passes = []
    if hooked:
        kw["on_iteration"] = lambda it, lo, up, Z: passes.append((lo, up, Z.tobytes()))
    return engine(data, params, **kw), passes


def assert_same_result(a, b):
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    if isinstance(a, CrispClustering):
        assert np.array_equal(a.assignment, b.assignment)
        assert a.sse == b.sse
    else:
        assert (a.lower, a.upper, a.had_empty_cluster) == (b.lower, b.upper, b.had_empty_cluster)


class TestBoundedRule:
    """Every engine pass settles the genes a bounded estimate decides and scores
    the rest with the kernel. Its results must be bit for bit those of a run
    whose every pass scores every gene with ``rule.plain``."""

    @staticmethod
    def both(monkeypatch, engine, data, params, hooked=False, **kw):
        filtered, seen_filtered = recorded(engine, data, params, hooked, **kw)
        with monkeypatch.context() as patch:  # the engines' rules, each made plain
            for name in ("_DistanceRule", "_SimilarityRule"):
                rule = getattr(clustering, name)
                patch.setattr(clustering, name, lambda X, rule=rule: rule.plain)
            plain, seen_plain = recorded(engine, data, params, hooked, **kw)
        assert_same_result(filtered, plain)
        assert seen_filtered == seen_plain
        return plain, seen_plain

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kmeans_equals_plain(self, monkeypatch, k, seed):
        X, _ = modules(np.random.default_rng(seed), 150, 6, 4)
        self.both(monkeypatch, kmeans, X, RoughParams(k=k, seed=seed))

    @pytest.mark.parametrize("hooked", [False, True])
    @pytest.mark.parametrize("epsilon", [None, 1.0])
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rough_and_fsrk_equal_plain(self, monkeypatch, seed, k, epsilon, hooked):
        X, M = modules(np.random.default_rng(seed), 150, 6, 4)
        params = RoughParams(k=k, seed=seed, epsilon=epsilon)
        self.both(monkeypatch, rough_kmeans, X, params, hooked)
        self.both(monkeypatch, fsrk_kmeans, M, params, hooked)

    @pytest.mark.parametrize("hooked", [False, True])
    @pytest.mark.parametrize("data_seed, k, seed, s, t", CYCLING_FSRK_RUNS)
    def test_cycling_fsrk_runs_equal_plain(self, monkeypatch, data_seed, k, seed, s, t, hooked):
        memberships = np.random.default_rng(data_seed).random((30, 6))
        for max_iter in (t, t + 1, 100):
            params = RoughParams(k=k, seed=seed, max_iter=max_iter)
            self.both(monkeypatch, fsrk_kmeans, memberships, params, hooked)

    def test_zero_denominator(self, monkeypatch):
        # all-zero genes against an all-zero centroid: D = 0 and S = 1 every pass
        rng = np.random.default_rng(7)
        memberships = rng.random((40, 5))
        memberships[[3, 17, 31]] = 0.0
        start = np.vstack([np.zeros(5), memberships[[0, 1]]])
        for epsilon in (0.9, 1.0):
            result, _ = self.both(monkeypatch, fsrk_kmeans, memberships,
                                  RoughParams(k=3, epsilon=epsilon),
                                  initial_centroids=start)
            assert {3, 17, 31} <= result.lower[0]
            assert not result.centroids[0].any()

    def test_duplicate_rows_and_tied_centroids(self, monkeypatch):
        rng = np.random.default_rng(8)
        X, M = modules(rng, 20, 4, 3)
        X, M = np.repeat(X, 3, axis=0), np.repeat(M, 3, axis=0)
        for engine, data, epsilon in ((kmeans, X, None), (rough_kmeans, X, 1.3),
                                      (fsrk_kmeans, M, 0.9)):
            start = data[[0, 1, 2, 30]]  # rows 0-2 are one row: exact ties
            params = RoughParams(k=4, epsilon=epsilon)
            self.both(monkeypatch, engine, data, params, initial_centroids=start)

    def test_gene_exactly_on_the_ratio_threshold(self, monkeypatch):
        # Gene 5 sits on centroid 0 in pass 1. Centroid 0 then moves straight away
        # from it and centroid 1 stays, so in pass 2 d_1 = 1.5 * d_0 exactly: it
        # sits on the ratio threshold and joins the boundary.
        data = np.array([[-12.0], [-7.0], [-5.0], [4.0], [16.0], [20.0], [23.0]])
        params = RoughParams(k=2, epsilon=1.5, w_lower=1.0, w_upper=0.0)
        _, passes = self.both(monkeypatch, rough_kmeans, data, params, hooked=True,
                              initial_centroids=[[20.0], [23.0]])
        (lower1, _, _), (_, upper2, Z2) = passes[:2]
        d = np.abs(20.0 - np.frombuffer(Z2))
        assert 5 in lower1[0] and 5 in upper2[0] & upper2[1]
        assert d[1] == 1.5 * d[0]

    @pytest.mark.parametrize("scale", [1e-42, 1e-60])
    def test_tiny_memberships(self, monkeypatch, scale):
        # memberships in float32's subnormal range (1e-42) and below it (1e-60)
        rng = np.random.default_rng(12)
        M, _ = TestEstimateBound.memberships(rng, 300, 34)
        M *= scale
        for k, seed in ((2, 0), (4, 1), (10, 2)):
            self.both(monkeypatch, fsrk_kmeans, M, RoughParams(k=k, seed=seed))
        self.both(monkeypatch, fsrk_kmeans, M, RoughParams(k=3, epsilon=0.8),
                  initial_centroids=M[[3, 0, 150]])

    @pytest.mark.parametrize("engine, memberships", [(kmeans, False), (rough_kmeans, False),
                                                     (fsrk_kmeans, True)])
    def test_engines_equal_plain_across_row_blocks(self, monkeypatch, engine, memberships):
        m, k = 34, 5
        n = 3 * _block_rows(m) + 11  # three row blocks and a ragged tail
        X, M = modules(np.random.default_rng(9), n, m, k)
        self.both(monkeypatch, engine, M if memberships else X, RoughParams(k=k, seed=3))


def kernel_pairs(monkeypatch):
    """Count the gene-centroid pairs the exact kernels score, and the passes run."""
    pairs, passes = [], []

    def counted(function, log, size):
        def wrapper(*args):
            log.append(size(*args))
            return function(*args)
        return wrapper

    for name in ("_sq_distances", "_similarities"):
        monkeypatch.setattr(clustering, name, counted(
            getattr(clustering, name), pairs, lambda A, Z: len(A) * len(Z)))
    monkeypatch.setattr(clustering, "_update_centroids", counted(
        clustering._update_centroids, passes, lambda *args: 1))
    return pairs, passes


class TestFilteredRule:
    """Each pass at every size settles the genes a bounded estimate decides
    and scores only the others with the exact kernel."""

    both = staticmethod(TestBoundedRule.both)

    @pytest.mark.parametrize("n, m, profiles, k", [(3 * _block_rows(34) + 11, 34, 5, 5),
                                                   (150, 6, 4, 2)], ids=["blocks3-k5", "n150-k2"])
    @pytest.mark.parametrize("engine, memberships", [(kmeans, False), (rough_kmeans, False),
                                                     (fsrk_kmeans, True)])
    def test_decided_genes_skip_the_kernel(self, monkeypatch, engine, memberships,
                                           n, m, profiles, k):
        X, M = modules(np.random.default_rng(9), n, m, profiles)
        pairs, passes = kernel_pairs(monkeypatch)
        engine(M if memberships else X, RoughParams(k=k, seed=3))
        assert len(passes) >= 3
        assert sum(pairs) < 0.2 * n * k * len(passes)

    @staticmethod
    def shift_estimates(monkeypatch, shift):
        """Move every estimate by shift(E, nearer) * 0.999 of its stated bound;
        nearer is +1 where a larger score is nearer (similarity), else -1."""
        for rule, nearer in ((clustering._DistanceRule, -1), (clustering._SimilarityRule, 1)):
            def estimate(self, X, Z, original=rule.estimate, nearer=nearer):
                E, bound = original(self, X, Z)
                return E + 0.999 * shift(E, nearer) * bound, bound
            monkeypatch.setattr(rule, "estimate", estimate)

    @pytest.mark.parametrize("worst", [False, True])
    @pytest.mark.parametrize("epsilon", [None, 1.0, "tight"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimates_anywhere_inside_their_bound(self, monkeypatch, seed, epsilon, worst):
        rng = np.random.default_rng(seed)
        X, M = modules(rng, 150, 6, 4)
        for engine, data, threshold in ((kmeans, X, lambda e: 1.0),
                                        (rough_kmeans, X, lambda e: e * e),
                                        (fsrk_kmeans, M, lambda e: e)):
            eps = {"tight": 1.0001 if engine is rough_kmeans else 0.9999}.get(epsilon, epsilon)
            params = RoughParams(k=3 + seed, seed=seed, epsilon=eps)
            t = threshold(params.epsilon or (clustering.DEFAULT_ROUGH_EPSILON
                                             if engine is not fsrk_kmeans
                                             else clustering.DEFAULT_FSRK_EPSILON))

            def toward(E, nearer):
                # the best score toward the others, each other one toward t * best
                q = nearer * E  # (k, n): one row per cluster
                genes, best = np.arange(q.shape[1]), q.argmax(axis=0)
                signs = -np.sign(q - t * q[best, genes])
                signs[best, genes] = -1.0
                return nearer * signs

            signs = np.random.default_rng(seed + 10)
            self.shift_estimates(monkeypatch, toward if worst else
                                 lambda E, nearer: signs.choice([-1.0, 1.0], size=E.shape))
            self.both(monkeypatch, engine, data, params)

    @pytest.mark.parametrize("rule", [clustering._DistanceRule, clustering._SimilarityRule])
    def test_genes_at_and_near_the_ratio_threshold(self, rule):
        # epsilon at, and a few ulps or parts in 1e12..1e8 off, each of ten
        # genes' computed ratio of runner-up to best, so those genes sit on
        # the boundary's edge
        rng = np.random.default_rng(11)
        X = rng.random((300, 6))
        Z = X[:4].copy()
        scores = rule.kernel(X, Z)
        distance = rule is clustering._DistanceRule
        order = np.sort(np.sqrt(scores) if distance else -scores, axis=1)
        instance = rule(X)
        for i in range(4, 14):
            ratio = order[i, 1] / order[i, 0]
            for eps in [ratio * (1 + f) for f in (-1e-8, -1e-10, -1e-12, 1e-12, 1e-10, 1e-8)] + [
                    np.nextafter(ratio, ratio + d) for d in (-1, 1)] + [ratio]:
                if not (eps >= 1 if distance else 0 < eps <= 1):
                    continue
                got, want = instance(X, Z, eps), rule.plain(X, Z, eps)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("engine", [kmeans, rough_kmeans])
    @pytest.mark.parametrize("offset, scale", [(1e6, 1.0), (1e154, 1e150)])
    def test_cancellation_and_overflow_fall_back_to_the_kernel(self, monkeypatch, engine,
                                                               offset, scale):
        # 1e6 + rows of spread about 3: the estimate loses most digits to cancellation;
        # about 1e154: ||x||^2 overflows while every squared distance is finite
        X, _ = modules(np.random.default_rng(4), 150, 34, 4)
        X = offset + scale * X
        params = RoughParams(k=4, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.both(monkeypatch, engine, X, params)
            pairs, passes = kernel_pairs(monkeypatch)
            engine(X, params)
        assert sum(pairs) > 0 and passes


class TestEstimateBound:
    """Each rule's estimate lies within its stated bound of the kernel's score
    wherever it is finite, and a gene whose estimate is not is left undecided."""

    @staticmethod
    def memberships(rng, n, m):
        """Fractional memberships with exact 0s and 1s, duplicate rows, and an
        all-zero gene 3, plus centroids: an all-zero one, a duplicate row, blends."""
        M = rng.random((n, m))
        M[rng.random((n, m)) < 0.2] = 0.0
        M[rng.random((n, m)) < 0.1] = 1.0
        M[n // 2:n // 2 + 20] = M[:20]
        M[3] = 0.0
        Z = np.vstack([np.zeros(m), M[[0, n // 2, 7]],
                       0.7 * M[8:10] + 0.3 * M[10:12], np.ones(m)])
        return M, Z

    @pytest.mark.parametrize("m", [1, 34, 96])
    def test_estimates_within_their_bound_of_the_kernel(self, m):
        rng = np.random.default_rng(m)
        n = 2 * _block_rows(m) + 13  # two row blocks and a ragged tail
        M, Z = self.memberships(rng, n, m)
        X = 1e3 * rng.normal(size=(n, m)) + 5e3 * M
        # memberships scaled into float32's subnormal range (1e-42) and below it
        # (1e-60), against centroids among those rows; centroid 0 is the all-zero gene 3
        tiny = [(clustering._SimilarityRule, scale * M, scale * M[[3, 0, n // 2, 7, 8]], 0.95)
                for scale in (1e-42, 1e-60)]
        for rule, data, centroids, threshold in [
                (clustering._SimilarityRule, M, Z, 0.95),
                (clustering._DistanceRule, M, Z, 1.44),
                (clustering._DistanceRule, X, X[[0, n // 2, 5, 6]], 1.44)] + tiny:
            with np.errstate(invalid="ignore"):
                E, bound = rule(data).estimate(data, centroids)
            kernel = rule.kernel(data, centroids).T
            finite = np.isfinite(E)
            assert np.all(np.abs(E - kernel)[finite] <= np.broadcast_to(bound, E.shape)[finite])
            with np.errstate(invalid="ignore"):
                _, _, decided = clustering._settle(*rule.interval(E, bound), threshold)
            assert not decided[~finite.all(axis=0)].any()
            if rule is clustering._SimilarityRule:
                # an all-zero gene against the all-zero centroid: D = 0, S = 1
                zero = centroids.sum(axis=1)[:, None] + data.sum(axis=1) == 0
                assert np.array_equal(~finite, zero) and zero[0, 3]
                assert (kernel[zero] == 1.0).all() and not decided[3]

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 300])
    @pytest.mark.parametrize("threshold", [0.5, 0.9, 1.0])
    def test_settle_equals_the_argmax_oracle_on_ties(self, k, threshold):
        # scores on a coarse grid tie often; widths of 0 give exact intervals
        rng = np.random.default_rng(k)
        lo = rng.integers(0, 6, size=(k, 2000)) / 4.0
        hi = lo + rng.choice([0.0, 0.0, 1e-3, 0.5], size=lo.shape)
        got, want = clustering._settle(lo, hi, threshold), oracles.settle_argmax(lo, hi, threshold)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[2], want[2])
        decided = got[2]
        assert np.array_equal(got[1][decided], want[1][decided])
        if k > 1:  # tied maxima, and with few clusters genes of either kind
            assert (lo == lo.max(axis=0)).sum(axis=0).max() > 1
            assert k > 10 or decided.any() and not decided.all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_settle_never_decides_a_non_finite_interval(self, bad):
        rng = np.random.default_rng(5)
        lo = rng.random((4, 500))
        hi = lo + 1e-9
        hit = rng.random(lo.shape) < 0.05
        for where in ("lo", "hi", "both"):
            l, h = lo.copy(), hi.copy()
            if where != "hi":
                l[hit] = bad
            if where != "lo":
                h[hit] = bad
            with np.errstate(invalid="ignore"):
                best, within, decided = clustering._settle(l, h, 0.9)
                _, want_within, want = oracles.settle_argmax(l, h, 0.9)
            assert not decided[hit.any(axis=0)].any()
            assert np.array_equal(decided, want) and decided.sum() > 300
            assert np.array_equal(within[decided], want_within[decided])
            assert ((best >= 0) & (best < 4)).all()


class TestRoughParams:
    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            RoughParams(k=2, w_lower=0.5, w_upper=0.6)
        with pytest.raises(ParameterError):
            RoughParams(k=2, w_lower=-0.1, w_upper=1.1)

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            RoughParams(k=0)

    def test_iteration_settings(self):
        with pytest.raises(ParameterError):
            RoughParams(k=1, max_iter=0)
        with pytest.raises(ParameterError):
            RoughParams(k=1, tol=-1.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ParameterError):
            RoughParams(k=2, tol=np.nan)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            RoughParams(k=2, seed=-1)

    @pytest.mark.parametrize("settings", [
        dict(k=2.5), dict(k=2, max_iter=2.5), dict(k=2, seed=1.5), dict(k=2, seed=np.nan),
    ])
    def test_non_integral_counts_rejected(self, settings):
        with pytest.raises(ParameterError, match="must be an integer"):
            RoughParams(**settings)

    def test_numpy_integers_and_no_seed_accepted(self):
        params = RoughParams(k=np.int64(2), max_iter=np.int32(5), seed=np.int64(3))
        assert (params.k, params.max_iter, params.seed) == (2, 5, 3)
        assert RoughParams(k=2).seed is None


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("engine", [kmeans, rough_kmeans, fsrk_kmeans])
    def test_engines_reject_non_finite_rows(self, engine, bad):
        data = np.array([[0.1, 0.2], [0.3, bad], [0.5, 0.6]])
        with pytest.raises(DomainError):
            engine(data, RoughParams(k=2, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("engine", [kmeans, rough_kmeans, fsrk_kmeans])
    def test_engines_reject_non_finite_initial_centroids(self, engine, bad):
        data = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        with pytest.raises(DomainError):
            engine(data, RoughParams(k=2), initial_centroids=[[bad, 0.2], [0.5, 0.6]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("assign, epsilon", [(rough_assign, 1.2), (fsrk_assign, 0.95)])
    def test_assign_rejects_non_finite_data_or_centroids(self, assign, epsilon, bad):
        with pytest.raises(DomainError):
            assign([[bad]], [[0.0], [1.0]], epsilon)
        with pytest.raises(DomainError):
            assign([[0.5]], [[bad], [1.0]], epsilon)


class TestEpsilonOverflow:
    """A distance-ratio epsilon so large that epsilon**2, or epsilon * d_best,
    overflows. Gene 0 lies 1e-5 from centroid 0 and 1e150 from centroid 1,
    gene 1 on centroid 0, gene 2 on centroid 1 and gene 3 1e149 from it."""

    X = np.array([[1.0], [1.00001], [1e150], [0.9e150]])
    Z = np.array([[1.00001], [1e150]])

    @staticmethod
    def one_pass(X, Z, epsilon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sets = rough_assign(X, Z, epsilon)
            result = rough_kmeans(X, RoughParams(k=2, epsilon=epsilon, max_iter=1),
                                  initial_centroids=Z)
        assert (result.lower, result.upper) == sets
        return sets

    def test_squared_threshold_overflow_takes_the_plain_rule(self):
        # epsilon**2 is inf, so no estimate interval can stand in for the
        # ratio test; 5e154 * 1e-5 < 1e150 keeps gene 0 crisp in cluster 0
        lower, upper = self.one_pass(self.X, self.Z, 5e154)
        assert lower == (frozenset({0, 1}), frozenset({2}))
        assert upper == (frozenset({0, 1, 3}), frozenset({2, 3}))

    def test_overflowing_product_passes_every_finite_distance(self):
        # 1e160 * 1e149 is inf for gene 3, which every finite distance passes
        lower, upper = self.one_pass(self.X, self.Z, 1e160)
        assert lower == (frozenset({1}), frozenset({2}))
        assert upper == (frozenset({0, 1, 3}), frozenset({0, 2, 3}))


def bits(value):
    """A result as nested tuples of Python values and array bytes, for exact comparison."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__, bits([getattr(value, f) for f in value.__dataclass_fields__])
    return value


class TestLabelledMatrixInput:
    """Every public array entry point reads an ExpressionMatrix or a
    MembershipMatrix as its ``.values``, bit for bit."""

    @pytest.mark.parametrize("entry", [
        "init_centroids", "kmeans", "rough_kmeans", "fsrk_kmeans", "rough_assign",
        "fsrk_assign", "rough_centroids", "sum_squared_error", "db_index", "xb_index",
        "crispify", "crispify-similarity",
    ])
    def test_same_bits_as_the_values(self, entry):
        X, _ = modules(np.random.default_rng(5), 60, 5, 3)
        expression = ExpressionMatrix([f"g{i}" for i in range(60)], [f"s{j}" for j in range(5)], X)
        memberships = fuzzify(expression)
        params, Z, a = RoughParams(k=3, seed=1), X[[0, 1, 2]], np.arange(60) % 3
        rough = rough_kmeans(X, params)
        call = {
            "init_centroids": lambda D, M: init_centroids(D, 3, seed=1),
            "kmeans": lambda D, M: kmeans(D, params),
            "rough_kmeans": lambda D, M: rough_kmeans(D, params),
            "fsrk_kmeans": lambda D, M: fsrk_kmeans(M, params),
            "rough_assign": lambda D, M: rough_assign(D, Z, 1.2),
            "fsrk_assign": lambda D, M: fsrk_assign(M, Z.clip(0, 1), 0.95),
            "rough_centroids": lambda D, M: rough_centroids(D, rough.lower, rough.upper, 0.7, 0.3),
            "sum_squared_error": lambda D, M: sum_squared_error(D, a, Z),
            "db_index": lambda D, M: db_index(D, a, Z),
            "xb_index": lambda D, M: xb_index(D, a, Z),
            "crispify": lambda D, M: crispify(rough, D),
            "crispify-similarity": lambda D, M: crispify(
                replace(rough, centroids=rough.centroids.clip(0, 1)), M, metric="similarity"),
        }[entry]
        want = call(expression.values, memberships.values)
        assert bits(call(expression, memberships)) == bits(want)


class TestEngineResults:
    """An engine's result keeps its masks: crispify and the CLI's assignment
    rows read them, its sets are built when first read and its SSE summed
    when first read, with the same values a caller-built clustering gives."""

    @staticmethod
    def counted(monkeypatch, *names):
        calls = []
        for name in names:
            monkeypatch.setattr(clustering, name, lambda *args, f=getattr(clustering, name),
                                name=name: calls.append(name) or f(*args))
        return calls

    @pytest.mark.parametrize("k", [2, 10])
    @pytest.mark.parametrize("engine, metric", [(rough_kmeans, "distance"),
                                                (fsrk_kmeans, "similarity")])
    def test_masks_path_equals_sets_path(self, monkeypatch, engine, metric, k):
        n = 2 * _block_rows(34) + 7
        X, M = modules(np.random.default_rng(k), n, 34, 6)
        data = X if engine is rough_kmeans else M
        calls = self.counted(monkeypatch, "_lower_sets", "_upper_sets", "_to_masks")
        result = engine(data, RoughParams(k=k, seed=4))
        crisp = crispify(result, data, metric=metric)
        assert np.array_equal(crispify(result, data, metric=metric), crisp)
        rows = cli._assignment_rows(list(range(n)), *cli._memberships(result, n, k))
        assert calls == []
        lower = result.lower
        assert result.lower is lower and result.upper is result.upper
        assert calls == ["_lower_sets", "_upper_sets"]
        rebuilt = clustering.RoughClustering(lower, result.upper, result.centroids,
                                             result.iterations, result.converged)
        assert 0 < sum(map(len, lower)) < n  # crisp genes and boundary genes
        assert np.array_equal(crispify(rebuilt, data, metric=metric), crisp)
        assert cli._assignment_rows(list(range(n)), *cli._memberships(rebuilt, n, k)) == rows
        assert calls.count("_to_masks") == 2

    def test_replaced_sets_are_checked(self):
        X, _ = modules(np.random.default_rng(3), 60, 5, 3)
        result = rough_kmeans(X, RoughParams(k=3, seed=1))
        moved = replace(result, centroids=result.centroids + 0.0)
        assert moved.lower == result.lower and moved.upper == result.upper
        assert np.array_equal(crispify(moved, X), crispify(result, X))
        with pytest.raises(ShapeError, match="4 lower sets vs 3 upper sets"):
            crispify(replace(result, lower=result.lower + (frozenset(),)), X)
        with pytest.raises(ShapeError, match="3 centroids vs 2 clusters"):
            crispify(replace(result, lower=result.lower[:2], upper=result.upper[:2]), X)

    def test_sse_is_summed_when_first_read(self, monkeypatch):
        X, _ = modules(np.random.default_rng(6), 90, 5, 3)
        calls = self.counted(monkeypatch, "sum_squared_error")
        result = kmeans(X, RoughParams(k=3, seed=2))
        assert calls == []
        assert result.sse == sum_squared_error(X, result.assignment, result.centroids)
        assert result.sse == result.sse and calls == ["sum_squared_error"]
        assert replace(result, sse=1.5).sse == 1.5
