"""Acceptance suite: one test per criterion, one printed line per pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import planted_dataset, write_dataset
from genecluster.clustering import (
    RoughParams,
    fsrk_kmeans,
    init_centroids,
    kmeans,
    rough_centroids,
    rough_kmeans,
)
from genecluster.cli import ExperimentConfig, run_experiment
from genecluster.errors import ValidityError
from genecluster.fuzzysoft import fuzzify, similarity
from genecluster.genefilter import DiscretizationSpec, entropy, information_gain, rank_and_select
from genecluster.ingest import ClassLabels, ExpressionMatrix
from genecluster.validity import crispify, db_index, xb_index
from test_clustering import assert_rough_axioms, sse_per_pass


def passed(number, label):
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def synthetic_matrix(n_genes, n_samples, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_genes, n_samples))
    matrix = ExpressionMatrix(
        tuple(f"g{i}" for i in range(n_genes)),
        tuple(f"s{j}" for j in range(n_samples)),
        values,
    )
    classes = ["A" if j % 2 == 0 else "B" for j in range(n_samples)]
    labels = ClassLabels(dict(zip(matrix.sample_ids, classes)), matrix.sample_ids)
    return matrix, labels


def test_criterion_01_filtering_dimensions():
    configurations = [
        (7129, 34, 562),
        (7129, 96, 568),
        (7457, 37, 594),
        (7500, 32, 570),
    ]
    for seed, (n, m, top) in enumerate(configurations):
        matrix, labels = synthetic_matrix(n, m, seed)
        spec = DiscretizationSpec.sturges(m)
        start = time.perf_counter()
        _, filtered = rank_and_select(matrix, labels, spec, top)
        elapsed = time.perf_counter() - start
        assert (filtered.n_genes, filtered.n_samples) == (top, m)
        assert elapsed < 10.0, f"filtering {n}x{m} took {elapsed:.2f}s"
    passed(1, "filtered dimensions 562/568/594/570, each under 10 s")


def test_criterion_02_entropy_and_ig_oracle():
    assert entropy((0.5, 0.5)) == 1.0
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 11))
        bins = int(rng.integers(1, 4))
        row = rng.normal(size=m)
        classes = rng.integers(0, 3, size=m)
        if len(np.unique(classes)) < 2:
            continue
        got = information_gain(row, classes, DiscretizationSpec(bins))
        want = oracles.info_gain_binned(row.tolist(), classes.tolist(), bins)
        assert got == pytest.approx(want, abs=1e-12)
        counts = np.bincount(rng.integers(0, 4, size=m), minlength=1)
        counts = counts[counts > 0]
        assert entropy(counts / counts.sum()) == pytest.approx(
            oracles.shannon_entropy(counts.tolist()), abs=1e-12
        )
        checked += 1
    passed(2, "entropy/IG match histogram oracle on 1000 instances at 1e-12")


def test_criterion_03_similarity_properties():
    rng = np.random.default_rng(102)
    for _ in range(10_000):
        length = int(rng.integers(1, 9))
        x = rng.uniform(size=length)
        z = rng.uniform(size=length)
        s = similarity(x, z)
        assert 0.0 <= s <= 1.0
        assert similarity(z, x) == s
        assert similarity(x, x) == 1.0
    worked = similarity([0.2, 0.4, 0.6], [0.4, 0.4, 0.8])
    assert worked == pytest.approx(0.857143, abs=1e-6)
    passed(3, "similarity bounded, symmetric, reflexive over 10000 pairs")


def test_criterion_04_kmeans_desk_scale_optimality():
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        points = rng.uniform(-10, 10, size=(n, 1))
        best_sse = None
        for seed in range(20):
            result, hist = sse_per_pass(points, RoughParams(k=2, seed=seed))
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
            if best_sse is None or result.sse < best_sse:
                best_sse = result.sse
        oracle = oracles.best_two_cluster_sse(points.tolist())
        assert abs(best_sse - oracle) <= 1e-9
    passed(4, "best-of-20 kmeans hits exhaustive-minimum SSE on 1-D instances")


def test_criterion_05_rough_degeneracy():
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(4, 51))
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        if k > n:
            continue
        data = rng.normal(size=(n, dim))
        seed = int(rng.integers(100_000))
        rough = rough_kmeans(
            data, RoughParams(k=k, epsilon=1.0, w_lower=1.0, w_upper=0.0, seed=seed)
        )
        crisp = kmeans(data, RoughParams(k=k, seed=seed))
        for h in range(k):
            members = frozenset(np.flatnonzero(crisp.assignment == h).tolist())
            assert rough.lower[h] == members
            assert rough.upper[h] == members
    passed(5, "epsilon=1, w_lower=1 rough runs equal kmeans partitions (100 instances)")


def test_criterion_06_rough_axioms_every_iteration():
    rng = np.random.default_rng(105)
    violations = []

    def watch(n):
        def hook(iteration, lower, upper, centroids):
            try:
                assert_rough_axioms(lower, upper, n)
            except AssertionError as exc:  # pragma: no cover - collected for the report
                violations.append(str(exc))
        return hook

    for _ in range(30):
        n = int(rng.integers(5, 40))
        data = rng.normal(size=(n, int(rng.integers(1, 4))))
        k = int(rng.integers(2, min(5, n + 1)))
        rough_kmeans(
            data,
            RoughParams(k=k, epsilon=float(rng.uniform(1.0, 1.5)), seed=int(rng.integers(1e6))),
            on_iteration=watch(n),
        )
    for _ in range(30):
        n = int(rng.integers(5, 40))
        memberships = rng.uniform(size=(n, int(rng.integers(1, 4))))
        k = int(rng.integers(2, min(5, n + 1)))
        fsrk_kmeans(
            memberships,
            RoughParams(k=k, epsilon=float(rng.uniform(0.85, 1.0)), seed=int(rng.integers(1e6))),
            on_iteration=watch(n),
        )
    assert violations == []
    passed(6, "membership axioms hold after every iteration, zero violations")


def test_criterion_07_weighted_centroid_exact():
    data = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
    out = rough_centroids(data, [frozenset({0, 1})], [frozenset({0, 1, 2})], 0.7, 0.3)
    assert out[0, 0] == 3.7
    assert out[0, 1] == 0.0
    passed(7, "weighted centroid of the worked example is exactly (3.7, 0)")


def test_criterion_08_validity_oracle():
    rng = np.random.default_rng(106)
    checked = 0
    while checked < 500:
        n = int(rng.integers(4, 21))
        k = int(rng.integers(2, 5))
        if k > n:
            continue
        data = rng.normal(size=(n, int(rng.integers(1, 4))))
        assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(assignment)
        centroids = np.array([data[assignment == h].mean(axis=0) for h in range(k)])
        try:
            got_db = db_index(data, assignment, centroids)
            got_xb = xb_index(data, assignment, centroids)
        except ValidityError:
            continue
        rows, labs, cents = data.tolist(), assignment.tolist(), centroids.tolist()
        assert got_db == pytest.approx(oracles.db_reference(rows, labs, cents), abs=1e-12)
        assert got_xb == pytest.approx(oracles.xb_reference(rows, labs, cents), abs=1e-12)
        checked += 1
    data = np.array([[0.0], [1.0], [9.0], [10.0]])
    assignment = np.array([0, 0, 1, 1])
    centroids = np.array([[0.5], [9.5]])
    assert db_index(data, assignment, centroids) == pytest.approx(0.111111, abs=1e-6)
    assert xb_index(data, assignment, centroids) == pytest.approx(0.003086, abs=1e-6)
    passed(8, "DB/XB match direct-definition oracles on 500 instances at 1e-12")


def test_criterion_09_fsrk_oracle_replay():
    memberships = np.array([
        [0.20, 0.30],
        [0.25, 0.25],
        [0.30, 0.20],
        [0.70, 0.80],
        [0.80, 0.70],
        [0.44, 0.44],
    ])
    seed, eps, wl, wu, tol = 1, 0.95, 0.7, 0.3, 1e-6
    initial = init_centroids(memberships, 2, seed=seed)
    result = fsrk_kmeans(
        memberships, RoughParams(k=2, w_lower=wl, w_upper=wu, epsilon=eps, seed=seed, tol=tol)
    )
    ref_lower, ref_upper, _, _ = oracles.fsrk_replay(
        memberships.tolist(), initial.tolist(), eps, wl, wu, tol=tol
    )
    assert list(result.lower) == ref_lower
    assert list(result.upper) == ref_upper
    # the fixture exercises a real boundary gene, not a crisp-only run
    assert any(result.upper[h] - result.lower[h] for h in range(2))
    passed(9, "fsrk run reproduces the scripted step-by-step replay")


def best_of_restarts(run_one, data, metric, restarts=5):
    """Best scorable run by DB index, the pipeline's own restart strategy."""
    best = None
    for seed in range(restarts):
        result = run_one(seed)
        if hasattr(result, "assignment"):
            crisp = result.assignment
        else:
            crisp = crispify(result, data, metric=metric)
        try:
            db = db_index(data, crisp, result.centroids)
        except ValidityError:
            continue
        if best is None or db < best[0]:
            best = (db, crisp)
    assert best is not None, "no scorable restart"
    return best


def test_criterion_10_separation_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    n, dim, gap, spread = 200, 4, 50.0, 1.0
    half = n // 2
    values = np.vstack([
        rng.normal(0.0, spread, size=(half, dim)),
        rng.normal(gap, spread, size=(n - half, dim)),
    ])
    planted = np.array([0] * half + [1] * (n - half))
    matrix = ExpressionMatrix(
        tuple(f"g{i}" for i in range(n)), tuple(f"s{j}" for j in range(dim)), values
    )
    memberships = fuzzify(matrix, "s").values

    def agrees(assignment):
        direct = np.mean(assignment == planted)
        return max(direct, 1.0 - direct) == 1.0

    runs = {
        "kmeans": (lambda seed: kmeans(values, RoughParams(k=2, seed=seed)), values, "distance"),
        "rough": (lambda seed: rough_kmeans(values, RoughParams(k=2, seed=seed)), values, "distance"),
        "fsrk": (
            lambda seed: fsrk_kmeans(memberships, RoughParams(k=2, seed=seed)),
            memberships,
            "similarity",
        ),
    }
    for name, (run_one, data, metric) in runs.items():
        db, crisp = best_of_restarts(run_one, data, metric)
        assert db < 0.2, f"{name} DB {db}"
        assert agrees(crisp), f"{name} missed the planted partition"

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"separation sanity took {elapsed:.2f}s"
    passed(10, "well-separated data: DB < 0.2 and planted partition recovered, under 5 s")


def test_criterion_11_determinism(tmp_path):
    values, _, classes = planted_dataset(n_genes=14, n_samples=6, seed=3)
    matrix_path, labels_path = write_dataset(tmp_path, values, classes, stem="det")
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        run_experiment(ExperimentConfig(
            matrix=matrix_path, labels=labels_path, out=out,
            top_genes=10, k=2, restarts=2, seed=2,
        ))
        outputs.append(out)
    names = [
        "report.csv", "report.json", "ranking.csv",
        "assignments-kmeans.csv", "assignments-rough.csv", "assignments-fsrk.csv",
    ]
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
    passed(11, "identical config and seed give byte-identical outputs")
