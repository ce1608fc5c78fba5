import numpy as np
import pytest

import oracles
from genecluster.clustering import RoughClustering, RoughParams, kmeans
from genecluster.errors import (
    DegenerateClusteringError,
    DomainError,
    ParameterError,
    ShapeError,
    ValidationError,
    ValidityError,
)
from genecluster.fuzzysoft import MembershipMatrix
from genecluster.ingest import ExpressionMatrix
from genecluster.validity import (
    ValidityReport,
    crispify,
    db_index,
    sum_squared_error,
    xb_index,
)


def pairs_instance():
    data = np.array([[0.0], [1.0], [9.0], [10.0]])
    assignment = np.array([0, 0, 1, 1])
    centroids = np.array([[0.5], [9.5]])
    return data, assignment, centroids


def random_instance(rng):
    n = int(rng.integers(4, 21))
    k = int(rng.integers(2, 5))
    dim = int(rng.integers(1, 4))
    data = rng.normal(size=(n, dim))
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assignment)
    centroids = np.array([data[assignment == h].mean(axis=0) for h in range(k)])
    return data, assignment, centroids


class TestDbIndex:
    def test_worked_example(self):
        data, a, z = pairs_instance()
        assert db_index(data, a, z) == pytest.approx(0.111111, abs=1e-6)
        assert db_index(data, a, z) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_singleton_clusters_score_zero(self):
        data = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert db_index(data, [0, 1], data) == 0.0

    def test_pure_function(self):
        data, a, z = pairs_instance()
        assert db_index(data, a, z) == db_index(data, a, z)

    def test_empty_cluster(self):
        data, _, z = pairs_instance()
        with pytest.raises(ValidityError):
            db_index(data, [0, 0, 0, 0], z)

    def test_coincident_centroids(self):
        data, a, _ = pairs_instance()
        with pytest.raises(DegenerateClusteringError):
            db_index(data, a, [[1.0], [1.0]])

    def test_single_cluster_rejected(self):
        data = np.array([[0.0], [1.0]])
        with pytest.raises(ValidityError):
            db_index(data, [0, 0], [[0.5]])


class TestXbIndex:
    def test_worked_example(self):
        data, a, z = pairs_instance()
        assert xb_index(data, a, z) == pytest.approx(0.003086, abs=1e-6)
        assert xb_index(data, a, z) == pytest.approx(1.0 / 324.0, abs=1e-12)

    def test_singletons_score_zero(self):
        data = np.array([[0.0], [4.0], [9.0]])
        assert xb_index(data, [0, 1, 2], data) == 0.0

    def test_scale_invariance(self):
        data, a, z = pairs_instance()
        base = xb_index(data, a, z)
        scaled = xb_index(data * 3.5, a, z * 3.5)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestOracleAgreement:
    def test_both_indices_match_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            data, a, z = random_instance(rng)
            rows = data.tolist()
            labels = a.tolist()
            cents = z.tolist()
            assert db_index(data, a, z) == pytest.approx(
                oracles.db_reference(rows, labels, cents), abs=1e-12
            )
            assert xb_index(data, a, z) == pytest.approx(
                oracles.xb_reference(rows, labels, cents), abs=1e-12
            )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            data, a, z = random_instance(rng)
            k = z.shape[0]
            perm = rng.permutation(k)
            relabeled = perm[a]
            permuted_centroids = np.empty_like(z)
            permuted_centroids[perm] = z
            assert db_index(data, relabeled, permuted_centroids) == pytest.approx(
                db_index(data, a, z), abs=1e-12
            )
            assert xb_index(data, relabeled, permuted_centroids) == pytest.approx(
                xb_index(data, a, z), abs=1e-12
            )

    def test_shrinking_toward_centroids_never_raises_indices(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            data, a, z = random_instance(rng)
            t = float(rng.uniform(0.1, 0.9))
            shrunk = z[a] + t * (data - z[a])
            assert db_index(shrunk, a, z) <= db_index(data, a, z) + 1e-12
            assert xb_index(shrunk, a, z) <= xb_index(data, a, z) + 1e-12


class TestSumSquaredError:
    def test_matches_direct_sum(self):
        data, a, z = pairs_instance()
        assert sum_squared_error(data, a, z) == 1.0


    def test_centroid_width_mismatch(self):
        with pytest.raises(ShapeError):
            sum_squared_error(np.zeros((3, 2)), [0, 0, 0], np.zeros((1, 3)))

    @pytest.mark.parametrize("assignment", [[0], [0, 0, 0, 0, -1], [0, 0, 0, 0, 2]])
    def test_malformed_assignment_rejected(self, assignment):
        data = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ShapeError):
            sum_squared_error(data, assignment, data[:2])


class TestScoreInput:
    @pytest.mark.parametrize("score", [db_index, xb_index, sum_squared_error])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["data", "centroids"])
    def test_non_finite_data_or_centroids_rejected(self, score, bad, where):
        data, a, z = pairs_instance()
        (data if where == "data" else z)[1, 0] = bad
        with pytest.raises(DomainError, match=f"^{where} must be finite$"):
            score(data, a, z)

    def test_every_input_form_gives_the_same_bits_and_the_oracles_value(self):
        values = np.random.default_rng(23).uniform(size=(40, 4))
        genes, samples = [f"g{i}" for i in range(40)], [f"s{j}" for j in range(4)]
        result = kmeans(values, RoughParams(k=3, seed=2))
        a, z = result.assignment, result.centroids
        data_forms = [values, ExpressionMatrix(genes, samples, values),
                      MembershipMatrix(genes, samples, values)]
        centroid_forms = [z, MembershipMatrix(("c0", "c1", "c2"), samples, z)]
        oracle = {db_index: oracles.db_reference, xb_index: oracles.xb_reference}
        for score in (db_index, xb_index, sum_squared_error):
            got = {score(X, a, Z).hex() for X in data_forms for Z in centroid_forms}
            assert len(got) == 1
            if score in oracle:
                want = oracle[score](values.tolist(), a.tolist(), z.tolist())
                assert float.fromhex(got.pop()) == pytest.approx(want, abs=1e-12)


class TestCrispify:
    def test_gene_in_no_approximation_rejected(self):
        rough = RoughClustering(
            lower=(frozenset({0}), frozenset({2})),
            upper=(frozenset({0}), frozenset({2})),
            centroids=np.array([[0.0], [9.0]]),
            iterations=1,
            converged=True,
        )
        with pytest.raises(ValidityError):
            crispify(rough, np.array([[0.0], [4.0], [9.0]]))

    def test_overflowed_distances_stay_among_candidates(self):
        rough = RoughClustering(
            lower=(frozenset({1}), frozenset(), frozenset()),
            upper=(frozenset({1}), frozenset({0}), frozenset({0})),
            centroids=np.array([[0.0], [-1e300], [1e300]]),
            iterations=1,
            converged=True,
        )
        assert crispify(rough, np.array([[0.0], [0.0]])).tolist() == [1, 0]

    def test_boundary_free_clustering_is_identity_on_lower(self):
        rough = RoughClustering(
            lower=(frozenset({0, 1}), frozenset({2})),
            upper=(frozenset({0, 1}), frozenset({2})),
            centroids=np.array([[0.5], [9.0]]),
            iterations=3,
            converged=True,
        )
        data = np.array([[0.0], [1.0], [9.0]])
        assert crispify(rough, data).tolist() == [0, 0, 1]

    def test_boundary_gene_goes_to_nearest(self):
        rough = RoughClustering(
            lower=(frozenset({0}), frozenset({2})),
            upper=(frozenset({0, 1}), frozenset({1, 2})),
            centroids=np.array([[0.0], [9.0]]),
            iterations=2,
            converged=True,
        )
        data = np.array([[0.0], [6.0], [9.0]])
        assert crispify(rough, data).tolist() == [0, 1, 1]

    def test_equidistant_tie_goes_to_lowest_index(self):
        rough = RoughClustering(
            lower=(frozenset(), frozenset()),
            upper=(frozenset({0}), frozenset({0})),
            centroids=np.array([[0.0], [9.0]]),
            iterations=1,
            converged=True,
        )
        assert crispify(rough, np.array([[4.5]])).tolist() == [0]

    def test_similarity_metric_prefers_most_similar(self):
        rough = RoughClustering(
            lower=(frozenset(), frozenset()),
            upper=(frozenset({0}), frozenset({0})),
            centroids=np.array([[0.1, 0.1], [0.6, 0.6]]),
            iterations=1,
            converged=True,
        )
        data = np.array([[0.5, 0.5]])
        assert crispify(rough, data, metric="similarity").tolist() == [1]
        # distance metric would agree here; make them disagree
        rough2 = RoughClustering(
            lower=(frozenset(), frozenset()),
            upper=(frozenset({0}), frozenset({0})),
            centroids=np.array([[0.1, 0.1], [0.75, 0.75]]),
            iterations=1,
            converged=True,
        )
        data2 = np.array([[0.4, 0.4]])
        assert crispify(rough2, data2, metric="distance").tolist() == [0]
        assert crispify(rough2, data2, metric="similarity").tolist() == [1]

    def test_data_narrower_than_centroids_rejected(self):
        rough = RoughClustering(
            lower=(frozenset(), frozenset()), upper=(frozenset({0}), frozenset({0})),
            centroids=np.zeros((2, 2)), iterations=1, converged=True,
        )
        with pytest.raises(ShapeError):
            crispify(rough, np.array([[0.0]]))

    @pytest.mark.parametrize("gene", [2, 5, -1])
    def test_gene_index_outside_the_data_rejected(self, gene):
        rough = RoughClustering(
            lower=(frozenset({0}), frozenset({gene})), upper=(frozenset({0}), frozenset({gene})),
            centroids=np.array([[0.0], [9.0]]), iterations=1, converged=True,
        )
        with pytest.raises(ShapeError):
            crispify(rough, np.array([[0.0], [9.0]]))

    @pytest.mark.parametrize("lower, upper", [
        # gene 1 in cluster 0's lower set but not its upper one
        ((frozenset({0, 1}), frozenset({2})), (frozenset({0, 3}), frozenset({2, 3}))),
        # gene 2 in two lower sets
        ((frozenset({0, 2}), frozenset({1, 2})), (frozenset({0, 2, 3}), frozenset({1, 2, 3}))),
        # gene 0, crisp in cluster 0, also in cluster 1's upper set
        ((frozenset({0, 1}), frozenset({2})), (frozenset({0, 1}), frozenset({0, 2, 3}))),
    ], ids=["lower-outside-upper", "two-lowers", "crisp-in-another-upper"])
    def test_sets_that_break_the_rough_set_axioms_rejected(self, lower, upper):
        rough = RoughClustering(lower=lower, upper=upper, centroids=np.array([[1.0], [8.0]]),
                                iterations=1, converged=True)
        with pytest.raises(ValidationError, match="lower approximation"):
            crispify(rough, np.array([[1.0], [2.0], [4.0], [8.0]]))

    def test_more_centroids_than_clusters_rejected(self):
        rough = RoughClustering(
            lower=(frozenset({0}), frozenset({3})),
            upper=(frozenset({0, 1, 2}), frozenset({1, 2, 3})),
            centroids=np.array([[1.0], [4.0], [8.0]]), iterations=1, converged=True,
        )
        with pytest.raises(ShapeError, match="3 centroids vs 2 clusters"):
            crispify(rough, np.array([[1.0], [2.0], [4.0], [8.0]]))

    def test_more_lower_sets_than_upper_sets_rejected(self):
        # the third lower set used to be dropped, so gene 2 was resolved as a boundary gene
        rough = RoughClustering(
            lower=(frozenset({0}), frozenset({3}), frozenset({2})),
            upper=(frozenset({0, 1, 2}), frozenset({1, 2, 3})),
            centroids=np.array([[1.0], [8.0]]), iterations=1, converged=True,
        )
        with pytest.raises(ShapeError, match="3 lower sets vs 2 upper sets"):
            crispify(rough, np.array([[1.0], [2.0], [4.0], [8.0]]))

    @pytest.mark.parametrize("metric", ["distance", "similarity"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_or_centroids_rejected(self, bad, metric):
        rough = RoughClustering(
            lower=(frozenset(), frozenset()), upper=(frozenset({0}), frozenset({0})),
            centroids=np.array([[bad], [1.0]]), iterations=1, converged=True,
        )
        with pytest.raises(DomainError):
            crispify(rough, np.array([[0.9]]), metric=metric)
        rough = RoughClustering(
            lower=(frozenset({0}), frozenset({1})), upper=(frozenset({0}), frozenset({1})),
            centroids=np.array([[0.0], [1.0]]), iterations=1, converged=True,
        )
        with pytest.raises(DomainError):
            crispify(rough, np.array([[0.0], [bad]]), metric=metric)

    def test_bad_metric(self):
        rough = RoughClustering(
            lower=(frozenset({0}),), upper=(frozenset({0}),),
            centroids=np.array([[0.0]]), iterations=1, converged=True,
        )
        with pytest.raises(ParameterError):
            crispify(rough, np.array([[0.0]]), metric="cosine")


def test_validity_report_round_trips_to_dict():
    report = ValidityReport(
        dataset="demo", algorithm="kmeans", db_index=0.1, xb_index=0.2,
        sse=3.5, iterations=4, converged=True, params={"k": 2},
    )
    d = report.as_dict()
    assert d["dataset"] == "demo"
    assert d["params"] == {"k": 2}
