import numpy as np
import pytest

import oracles
from genecluster import clustering
from genecluster.clustering import (
    RoughParams,
    fsrk_assign,
    fsrk_kmeans,
    init_centroids,
    kmeans,
    rough_assign,
    rough_centroids,
    rough_kmeans,
)
from genecluster.errors import DomainError, ParameterError
from genecluster.fuzzysoft import similarity


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

    def test_sse_history_non_increasing(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            data = rng.normal(size=(int(rng.integers(5, 30)), int(rng.integers(1, 4))))
            k = int(rng.integers(1, min(5, len(data)) + 1))
            result = kmeans(data, RoughParams(k=k, seed=int(rng.integers(1000))))
            hist = result.sse_history
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

    def test_empty_cluster_without_previous(self):
        with pytest.raises(ParameterError):
            rough_centroids(np.array([[1.0]]), [frozenset()], [frozenset()], 0.7, 0.3)

    def test_bad_weights(self):
        with pytest.raises(ParameterError):
            rough_centroids(np.array([[1.0]]), [frozenset({0})], [frozenset({0})], 0.8, 0.3)


class TestRoughKMeans:
    def test_epsilon_one_matches_kmeans_partition(self):
        data = np.array([[0.0], [1.0], [9.0], [10.0]])
        params = RoughParams(k=2, seed=0, epsilon=1.0, w_lower=1.0, w_upper=0.0)
        rough = rough_kmeans(data, params)
        crisp = kmeans(data, RoughParams(k=2, seed=0))
        for h in range(2):
            assert rough.lower[h] == frozenset(np.flatnonzero(crisp.assignment == h).tolist())
            assert rough.upper[h] == rough.lower[h]

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


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("engine", [kmeans, rough_kmeans, fsrk_kmeans])
    def test_engines_reject_non_finite_rows(self, engine, bad):
        data = np.array([[0.1, 0.2], [0.3, bad], [0.5, 0.6]])
        with pytest.raises(DomainError):
            engine(data, RoughParams(k=2, seed=0))
