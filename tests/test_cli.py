import csv
import hashlib
import json
import logging
import os
import subprocess
import sys

from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import planted_dataset, write_dataset
from genecluster import cli
from genecluster.cli import ExperimentConfig, compare, main, run_experiment
from genecluster.clustering import (
    DEFAULT_FSRK_EPSILON,
    DEFAULT_ROUGH_EPSILON,
    RoughParams,
    fsrk_kmeans,
    kmeans,
    rough_kmeans,
)
from genecluster.fuzzysoft import fuzzify
from genecluster.genefilter import DiscretizationSpec, rank_and_select
from genecluster.errors import ParameterError, PipelineError, ValidityError
from genecluster.ingest import parse_labels, parse_matrix
from genecluster.validity import (
    ValidityReport,
    crispify,
    db_index,
    sum_squared_error,
    xb_index,
)


def make_config(matrix_path, labels_path, out, **overrides):
    settings = dict(
        matrix=matrix_path, labels=labels_path, out=out,
        top_genes=8, k=2, restarts=2, seed=0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestRunExperiment:
    def test_all_three_algorithms_report(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        reports = run_experiment(make_config(matrix_path, labels_path, out))
        assert [r.algorithm for r in reports] == ["kmeans", "rough", "fsrk"]
        for r in reports:
            assert r.dataset == "demo"
            assert r.db_index >= 0 and r.xb_index >= 0 and r.sse >= 0
            assert r.iterations >= 1
            assert r.params["k"] == 2
        for name in (
            "report.csv", "report.json", "ranking.csv",
            "assignments-kmeans.csv", "assignments-rough.csv", "assignments-fsrk.csv",
        ):
            assert (out / name).is_file(), name

    def test_report_csv_shape(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        run_experiment(make_config(matrix_path, labels_path, out))
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "dataset,algorithm,db_index,xb_index,sse,iterations"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            float(cells[2]), float(cells[3]), float(cells[4]), int(cells[5])

    def test_report_json_echoes_parameters(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        run_experiment(make_config(matrix_path, labels_path, out, restarts=3))
        rows = json.loads((out / "report.json").read_text())
        assert len(rows) == 3
        for row in rows:
            assert {"k", "w_lower", "w_upper", "epsilon", "seed", "restart",
                    "top_genes", "bins", "max_iter", "tol"} <= set(row["params"])

    def test_assignment_files_cover_all_selected_genes(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        run_experiment(make_config(matrix_path, labels_path, out))
        for name in ("assignments-kmeans.csv", "assignments-rough.csv", "assignments-fsrk.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "gene_id,cluster,membership_kind"
            genes = {line.split(",")[0] for line in lines[1:]}
            kinds = {line.split(",")[2] for line in lines[1:]}
            assert len(genes) == 8
            assert kinds <= {"lower", "boundary"}
        kmeans_kinds = {
            line.split(",")[2]
            for line in (out / "assignments-kmeans.csv").read_text().splitlines()[1:]
        }
        assert kmeans_kinds == {"lower"}

    def test_ranking_csv_lists_every_input_gene(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        run_experiment(make_config(matrix_path, labels_path, out))
        lines = (out / "ranking.csv").read_text().splitlines()
        assert lines[0] == "gene_id,ig_bits,rank"
        assert len(lines) == 13
        ranks = [int(line.split(",")[2]) for line in lines[1:]]
        assert ranks == list(range(1, 13))

    def test_byte_identical_reruns(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(make_config(matrix_path, labels_path, out_a))
        run_experiment(make_config(matrix_path, labels_path, out_b))
        for name in (
            "report.csv", "report.json", "ranking.csv",
            "assignments-kmeans.csv", "assignments-rough.csv", "assignments-fsrk.csv",
        ):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_missing_labels_file_is_startup_error(self, small_dataset, tmp_path):
        matrix_path, _, _ = small_dataset
        out = tmp_path / "out"
        missing = tmp_path / "nope.tsv"
        config = make_config(matrix_path, missing, out)
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "startup"
        assert "nope.tsv" in str(err.value)
        assert not out.exists()

    def test_stage_order_logged(self, small_dataset, tmp_path, caplog):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        with caplog.at_level(logging.INFO, logger="genecluster"):
            run_experiment(make_config(matrix_path, labels_path, out))
        stages = [
            rec.message.split(":")[0].removeprefix("stage ").strip()
            for rec in caplog.records
            if rec.message.startswith("stage ")
        ]
        assert stages[0] == "ingest"
        assert stages[1] == "filter"
        assert stages[2] == "fuzzify"
        assert stages[-1] == "report"
        assert stages.index("fuzzify") < stages.index("cluster")

    def test_fuzzify_stage_skipped_without_fsrk(self, small_dataset, tmp_path, caplog):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        config = make_config(matrix_path, labels_path, out, algorithms=("kmeans", "rough"))
        with caplog.at_level(logging.INFO, logger="genecluster"):
            reports = run_experiment(config)
        assert [r.algorithm for r in reports] == ["kmeans", "rough"]
        assert not any("stage fuzzify" in rec.message for rec in caplog.records)

    def test_ingest_errors_are_stage_tagged(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("gene_id\ts1\ts2\ng1\t1\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("s1\tA\ns2\tB\n")
        with pytest.raises(PipelineError) as err:
            run_experiment(make_config(bad, labels, tmp_path / "out"))
        assert err.value.stage == "ingest"

    def test_unknown_algorithm_rejected(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        config = make_config(matrix_path, labels_path, tmp_path / "out",
                             algorithms=("kmeans", "dbscan"))
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "startup"

    def test_epsilon_override_reaches_engine_params(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        config = make_config(matrix_path, labels_path, out,
                             algorithms=("rough",), epsilon=1.4)
        run_experiment(config)
        rows = json.loads((out / "report.json").read_text())
        assert rows[0]["params"]["epsilon"] == 1.4

    def test_report_params_are_the_engine_params(self, small_dataset, tmp_path, monkeypatch):
        calls = {}
        for name in ("kmeans", "rough_kmeans", "fsrk_kmeans"):
            def recording(data, params, _engine=getattr(cli, name), _name=name):
                calls.setdefault(_name, []).append(params)
                return _engine(data, params)
            monkeypatch.setattr(cli, name, recording)
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        run_experiment(make_config(matrix_path, labels_path, out, restarts=2, seed=5))
        rows = json.loads((out / "report.json").read_text())
        engines = {"kmeans": "kmeans", "rough": "rough_kmeans", "fsrk": "fsrk_kmeans"}
        assert {name: len(c) for name, c in calls.items()} == {e: 2 for e in engines.values()}
        bins = DiscretizationSpec.sturges(6).bin_count
        for row in rows:
            restart = row["params"]["restart"]
            ran = calls[engines[row["algorithm"]]][restart]
            assert row["params"] == {
                **asdict(ran), "restart": restart, "top_genes": 8, "bins": bins,
                "fuzzify": "s" if row["algorithm"] == "fsrk" else None,
            }

    def test_default_epsilon_is_echoed_per_engine(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        run_experiment(make_config(matrix_path, labels_path, out))
        rows = json.loads((out / "report.json").read_text())
        assert {r["algorithm"]: r["params"]["epsilon"] for r in rows} == {
            "kmeans": None, "rough": DEFAULT_ROUGH_EPSILON, "fsrk": DEFAULT_FSRK_EPSILON,
        }

    def test_configured_bins_are_echoed(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        run_experiment(make_config(matrix_path, labels_path, out, bins=3))
        rows = json.loads((out / "report.json").read_text())
        assert [r["params"]["bins"] for r in rows] == [3, 3, 3]

    def test_no_scorable_restart_is_a_validate_error(self, tmp_path, caplog):
        # all 40 planted genes, rough from seed 0: crispify leaves cluster 1 empty
        values, _, classes = planted_dataset(n_genes=40)
        matrix_path, labels_path = write_dataset(tmp_path, values, classes)
        config = make_config(matrix_path, labels_path, tmp_path / "out", top_genes=None,
                             algorithms=("rough",), restarts=1)
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert str(err.value) == "[validate] no scorable rough clustering in 1 restart(s)"
        assert "rough restart 0 not scorable: cluster 1 is empty" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_ids_with_delimiters_stay_one_field(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        text = matrix_path.read_text().replace("\ng0\t", '\nHLA-DRB1,3\t')
        text = text.replace("\ng1\t", '\nsay "g1"\t')
        odd = tmp_path / "odd.tsv"
        odd.write_text(text)
        out = tmp_path / "out"
        run_experiment(make_config(odd, labels_path, out, top_genes=12, dataset="demo,v2"))
        widths = {"ranking.csv": 3, "report.csv": 6, "assignments-kmeans.csv": 3,
                  "assignments-rough.csv": 3, "assignments-fsrk.csv": 3}
        for name, width in widths.items():
            with open(out / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert {len(r) for r in rows} == {width}, name
            if name == "report.csv":
                assert {r[0] for r in rows[1:]} == {"demo,v2"}
            else:
                assert {"HLA-DRB1,3", 'say "g1"'} <= {r[0] for r in rows[1:]}, name

    def test_temp_files_unique_and_cleaned_up(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        out.mkdir()
        stale = out / "ranking.csv.tmp"
        stale.write_text("stale\n")
        run_experiment(make_config(matrix_path, labels_path, out))
        run_experiment(make_config(matrix_path, labels_path, out))
        assert stale.read_text() == "stale\n"
        assert sorted(os.listdir(out)) == sorted([
            "assignments-fsrk.csv", "assignments-kmeans.csv", "assignments-rough.csv",
            "ranking.csv", "ranking.csv.tmp", "report.csv", "report.json",
        ])

    def test_epsilon_invalid_for_engine_is_stage_tagged(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        config = make_config(matrix_path, labels_path, tmp_path / "out",
                             algorithms=("rough",), epsilon=0.5)
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "cluster"

    def test_nan_epsilon_is_stage_tagged(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        config = make_config(matrix_path, labels_path, out,
                             algorithms=("rough",), epsilon=float("nan"))
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "cluster"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("k", 0), ("w_lower", 0.9), ("tol", -1.0), ("max_iter", 0), ("bins", -1), ("bins", 0),
        ("seed", -1), ("k", 2.5), ("max_iter", 2.5), ("restarts", 0), ("fuzzify", "x"),
        ("algorithms", ()), ("restarts", 2.5), ("bins", 2.5),
    ])
    def test_bad_parameters_fail_at_startup(self, small_dataset, tmp_path, caplog, key, value):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        config = make_config(matrix_path, labels_path, out, **{key: value})
        with caplog.at_level(logging.INFO, logger="genecluster"):
            with pytest.raises(PipelineError) as err:
                run_experiment(config)
        assert err.value.stage == "startup"
        assert not any(rec.message.startswith("stage ") for rec in caplog.records)
        assert not out.exists()

    def test_zero_top_genes_is_not_all_genes(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        config = make_config(matrix_path, labels_path, tmp_path / "out", top_genes=0)
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "filter"

    @pytest.mark.parametrize("key, stage", [
        ("restarts", "startup"), ("bins", "startup"), ("top_genes", "filter"),
    ])
    def test_non_integral_count_names_the_rule(self, small_dataset, tmp_path, key, stage):
        matrix_path, labels_path, _ = small_dataset
        config = make_config(matrix_path, labels_path, tmp_path / "out", **{key: 2.5})
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == stage
        assert str(err.value).endswith(" must be an integer, got 2.5")

    def test_dataset_scale_comparison_rows(self, tmp_path):
        # leukemia-shaped run: 7129x34 in, 562 genes kept, one row per algorithm
        rng = np.random.default_rng(1)
        n, m = 7129, 34
        values = np.vstack([
            rng.normal(0.0, 1.0, size=(n // 2, m)),
            rng.normal(8.0, 1.0, size=(n - n // 2, m)),
        ])
        lines = ["\t".join(["gene_id"] + [f"s{j}" for j in range(m)])]
        for i in range(n):
            lines.append("\t".join([f"g{i}"] + [repr(float(v)) for v in values[i]]))
        matrix_path = tmp_path / "big.tsv"
        matrix_path.write_text("\n".join(lines) + "\n")
        labels_path = tmp_path / "big-labels.tsv"
        labels_path.write_text(
            "\n".join(f"s{j}\t" + ("ALL" if j % 2 == 0 else "AML") for j in range(m)) + "\n"
        )
        out = tmp_path / "out"
        reports = run_experiment(make_config(
            matrix_path, labels_path, out, top_genes=562, restarts=3, seed=1,
        ))
        assert [r.algorithm for r in reports] == ["kmeans", "rough", "fsrk"]
        for r in reports:
            assert np.isfinite(r.db_index) and np.isfinite(r.xb_index)
            assert r.iterations >= 1
        lines = (out / "ranking.csv").read_text().splitlines()
        assert len(lines) == n + 1

    def test_every_traced_layer_called_through_cli(self, small_dataset, tmp_path, monkeypatch):
        # the benchmark's per-layer numbers come from wrappers swapped into the
        # cli namespace; a layer that cli stops calling there would read zero
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracing

        matrix_path, labels_path, _ = small_dataset
        config = make_config(matrix_path, labels_path, tmp_path / "out")
        trace = tracing.Trace()
        with tracing.traced(cli, trace):
            run_experiment(config)
        trace.check_complete(config.algorithms)

    def test_reports_equal_scoring_every_restart(self, tmp_path):
        # rough restarts whose seeds fall in one planted group leave the other
        # cluster without crisp genes and cannot be scored
        values, _, classes = planted_dataset(n_genes=40)
        matrix_path, labels_path = write_dataset(tmp_path, values, classes)
        config = make_config(matrix_path, labels_path, tmp_path / "out",
                             top_genes=None, restarts=8)
        expected, skipped = every_restart_scored(config)
        assert skipped["rough"] > 0 and skipped["rough"] < config.restarts
        reports = run_experiment(config)
        got = {r.algorithm: (r.db_index.hex(), r.xb_index.hex(), r.sse.hex(),
                             r.params["restart"], r.iterations) for r in reports}
        assert got == {a: row for a, (row, _) in expected.items()}
        for algorithm, (_, text) in expected.items():
            path = config.out / f"assignments-{algorithm}.csv"
            assert path.read_text(encoding="utf-8") == text


def every_restart_scored(config):
    """Each algorithm's report row (DB, XB and SSE as hex, restart, iterations)
    and assignment file text, taken from scoring every restart with all three
    and keeping the lowest DB, the earliest on ties; plus the unscorable
    restarts per algorithm."""
    matrix = parse_matrix(config.matrix)
    labels = parse_labels(config.labels, matrix)
    _, filtered = rank_and_select(matrix, labels, DiscretizationSpec.sturges(matrix.n_samples),
                                  matrix.n_genes)
    data = {"kmeans": filtered.values, "rough": filtered.values,
            "fsrk": fuzzify(filtered, config.fuzzify).values}
    engines = {"kmeans": kmeans, "rough": rough_kmeans, "fsrk": fsrk_kmeans}
    expected, skipped = {}, {}
    for algorithm in config.algorithms:
        X = data[algorithm]
        rows = []
        skipped[algorithm] = 0
        for restart in range(config.restarts):
            params = RoughParams(k=config.k, seed=config.seed + restart)
            result = engines[algorithm](X, params)
            if algorithm == "kmeans":
                crisp = result.assignment
                lower = upper = [set(np.flatnonzero(crisp == h)) for h in range(config.k)]
            else:
                crisp = crispify(result, X, "distance" if algorithm == "rough" else "similarity")
                lower, upper = result.lower, result.upper
            try:
                db = db_index(X, crisp, result.centroids)
                xb = xb_index(X, crisp, result.centroids)
            except ValidityError:
                skipped[algorithm] += 1
                continue
            sse = sum_squared_error(X, crisp, result.centroids)
            text = "gene_id,cluster,membership_kind\n" + "".join(
                f"{gene},{h},{'lower' if i in lower[h] else 'boundary'}\n"
                for i, gene in enumerate(filtered.gene_ids)
                for h in range(config.k) if i in upper[h])
            rows.append(((db, restart), (db.hex(), xb.hex(), sse.hex(), restart,
                                         result.iterations), text))
        _, row, text = min(rows, key=lambda r: r[0])
        expected[algorithm] = (row, text)
    return expected, skipped


# sha256 of the outputs of a seeded 300x20 run, all three engines at k=3 with
# 2 restarts. report.json is left out: its full-precision floats may differ in
# the last digit on another CPU, while these files round or hold no floats.
PINNED_SHA256 = {
    "report.csv": "50200c849e44b0e13036da670a1b6865ca96c835a3d8224e93ba5135a36bfcb8",
    "assignments-kmeans.csv": "50ef9883a8677419582d705264540d693d5274e40f386f1a5ab8a178cf41eb8b",
    "assignments-rough.csv": "956e4580b922cef2afd5c9c5fdb38149d49902fb52c7ce04de3eb0936b822dc8",
    "assignments-fsrk.csv": "616df162368f034589ed6d1d0232e2a05764ef0a7bbee805e1f145f2bdbdcf15",
}


def test_pinned_output_bytes(tmp_path):
    rng = np.random.default_rng(3)
    centers = rng.normal(0.0, 1.0, size=(3, 20))
    group = rng.integers(0, 3, size=300)
    values = centers[group] + rng.normal(0.0, 1.5, size=(300, 20))
    matrix_path, labels_path = write_dataset(
        tmp_path, values, ["A"] * 10 + ["B"] * 10, stem="pin"
    )
    out = tmp_path / "out"
    run_experiment(ExperimentConfig(
        matrix=matrix_path, labels=labels_path, out=out, k=3, restarts=2, seed=0,
    ))
    for algorithm in ("rough", "fsrk"):
        text = (out / f"assignments-{algorithm}.csv").read_text()
        assert ",boundary\n" in text, f"{algorithm} has no boundary gene"
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert got == PINNED_SHA256


# sha256 of the outputs of a seeded raw-scale 120x12 fsrk run at k=2 with 3
# restarts. Every restart's centroids return bit for bit to those of an
# earlier pass (period 2) and run on to max_iter; an odd max_iter ends the
# winning restart on the other state of its cycle than the pass that closed it.
CYCLING_SHA256 = {
    "report.csv": "afa1518e2247f6e5870f44e2dc8e2428b89843714549c72565bf717a14eeb552",
    "assignments-fsrk.csv": "ab19e28f2110e6de0942698d9f2b076316cca280fc8f7338b9d41f870d3efff3",
}


def test_pinned_output_bytes_cycling_fsrk(tmp_path):
    rng = np.random.default_rng(11)
    n, m = 120, 12
    centers = rng.normal(7.0, 1.5, size=(4, m))
    group = rng.integers(0, 4, size=n)
    level = centers[group] + rng.normal(0.0, 0.3, size=(n, m))
    values = np.round(2.0 ** level + rng.normal(0.0, 60.0, size=(n, m)))
    matrix_path, labels_path = write_dataset(
        tmp_path, values, ["A"] * 6 + ["B"] * 6, stem="cycle"
    )
    out = tmp_path / "out"
    run_experiment(ExperimentConfig(
        matrix=matrix_path, labels=labels_path, out=out, k=2, restarts=3, seed=0,
        max_iter=39, algorithms=("fsrk",),
    ))
    rows = json.loads((out / "report.json").read_text())
    assert [(r["algorithm"], r["iterations"], r["converged"]) for r in rows] == [
        ("fsrk", 39, False)
    ]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CYCLING_SHA256}
    assert got == CYCLING_SHA256


def report_row(dataset, algorithm, db, xb=0.5, sse=1.0, iterations=5):
    return ValidityReport(
        dataset=dataset, algorithm=algorithm, db_index=db, xb_index=xb,
        sse=sse, iterations=iterations,
    )


class TestCompare:
    def test_lowest_db_flagged(self):
        rows = [
            report_row("leukemia", "kmeans", 0.1656),
            report_row("leukemia", "rough", 0.0801),
            report_row("leukemia", "fsrk", 0.0673),
        ]
        text, csv_text = compare(rows)
        csv_lines = csv_text.splitlines()
        assert csv_lines[1].startswith("leukemia,fsrk") and csv_lines[1].endswith(",*")
        assert csv_lines[2].startswith("leukemia,rough") and csv_lines[2].endswith(",")
        assert csv_lines[3].startswith("leukemia,kmeans")
        assert "*" in text

    def test_single_row_flagged(self):
        text, csv_text = compare([report_row("d", "kmeans", 0.4)])
        assert csv_text.splitlines()[1].endswith(",*")

    def test_tie_uses_canonical_algorithm_order(self):
        rows = [
            report_row("d", "fsrk", 0.25),
            report_row("d", "kmeans", 0.25),
        ]
        _, csv_text = compare(rows)
        lines = csv_text.splitlines()
        assert lines[1].startswith("d,kmeans") and lines[1].endswith(",*")
        assert lines[2].startswith("d,fsrk") and not lines[2].endswith(",*")

    def test_sorted_by_dataset_then_db(self):
        rows = [
            report_row("z", "kmeans", 0.2),
            report_row("a", "rough", 0.9),
            report_row("a", "kmeans", 0.3),
        ]
        _, csv_text = compare(rows)
        lines = csv_text.splitlines()[1:]
        assert [l.split(",")[0] for l in lines] == ["a", "a", "z"]
        assert lines[0].split(",")[1] == "kmeans"

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            compare([])


class TestMain:
    def test_success_exit_code_and_table(self, small_dataset, tmp_path, capsys):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        code = main([
            "--matrix", str(matrix_path), "--labels", str(labels_path),
            "--out", str(out), "--top-genes", "8", "--k", "2",
            "--restarts", "2", "--seed", "0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "dataset" in captured.out and "fsrk" in captured.out
        assert (out / "report.csv").is_file()

    def test_failure_exit_code_names_stage(self, tmp_path, capsys):
        code = main([
            "--matrix", str(tmp_path / "missing.tsv"),
            "--labels", str(tmp_path / "missing2.tsv"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "[startup]" in captured.err
        assert "missing.tsv" in captured.err

    def test_config_file_with_flag_override(self, small_dataset, tmp_path, capsys):
        matrix_path, labels_path, _ = small_dataset
        config_path = tmp_path / "run.conf"
        config_path.write_text(
            "\n".join([
                f"matrix = {matrix_path}",
                f"labels = {labels_path}",
                f"out = {tmp_path / 'from-file'}",
                "top-genes = 8",
                "k = 2",
                "restarts = 2",
                "algorithm = kmeans, rough   # fsrk added via flag",
            ]) + "\n"
        )
        code = main([
            "--config", str(config_path),
            "--out", str(tmp_path / "from-flag"),
            "--algorithm", "kmeans",
        ])
        assert code == 0
        assert (tmp_path / "from-flag" / "report.csv").is_file()
        assert not (tmp_path / "from-file").exists()
        lines = (tmp_path / "from-flag" / "report.csv").read_text().splitlines()
        assert len(lines) == 2  # flag narrowed the algorithm list to kmeans

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "none.conf"
        assert main(["--config", str(missing)]) == 1
        assert capsys.readouterr().err == f"error: [startup] config file not found: {missing}\n"

    def test_config_line_without_equals_sign(self, tmp_path, capsys):
        config_path = tmp_path / "run.conf"
        config_path.write_text("# a comment\nk 2\n")
        assert main(["--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: [startup] {config_path}:2: expected key = value\n")

    def test_missing_required_keys(self, capsys):
        assert main([]) == 1
        assert "--matrix is required" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("k = x", "[startup] bad value for 'k'"),
        ("foo = 1", "[startup] bad configuration"),
        ("config = other", "[startup] bad configuration"),
    ])
    def test_config_file_errors(self, small_dataset, tmp_path, capsys, line, message):
        matrix_path, labels_path, _ = small_dataset
        config_path = tmp_path / "run.conf"
        config_path.write_text(f"matrix = {matrix_path}\nlabels = {labels_path}\n{line}\n")
        assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines", [
        ("algorithms = kmeans", "top_genes = 8"),
        ("algorithm = kmeans", "top-genes = 8"),
    ])
    def test_config_file_key_spellings(self, small_dataset, tmp_path, lines):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        config_path = tmp_path / "run.conf"
        config_path.write_text(
            "\n".join([f"matrix = {matrix_path}", f"labels = {labels_path}", *lines]) + "\n"
        )
        assert main(["--config", str(config_path), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())
        assert [(r["algorithm"], r["params"]["top_genes"]) for r in rows] == [("kmeans", 8)]

    def test_config_file_float_key_comment_and_blank_lines(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        config_path = tmp_path / "run.conf"
        config_path.write_text(
            "\n".join([
                "# rough only, at a wider boundary",
                f"matrix = {matrix_path}",
                "",
                f"labels = {labels_path}",
                "algorithm = rough",
                "top-genes = 8",
                "restarts = 2",
                "epsilon = 1.1",
            ]) + "\n"
        )
        assert main(["--config", str(config_path), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())
        assert [(r["algorithm"], r["params"]["epsilon"]) for r in rows] == [("rough", 1.1)]

    def test_config_file_with_bom_and_crlf_runs_as_plain_file(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        lines = [f"matrix = {matrix_path}", f"labels = {labels_path}",
                 "top-genes = 8", "restarts = 2"]
        reports = []
        for name, prefix, newline in (("plain", "", "\n"), ("bom", "\ufeff", "\r\n")):
            config_path = tmp_path / f"{name}.conf"
            config_path.write_bytes((prefix + newline.join(lines) + newline).encode("utf-8"))
            out = tmp_path / name
            assert main(["--config", str(config_path), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_every_flag_is_a_config_field(self):
        dests = set(vars(cli._build_parser().parse_args([]))) - {"config", "algorithm"}
        assert dests <= {f.name for f in fields(ExperimentConfig)}


class TestFlags:
    """Every flag as data, and a config-file value typed as its flag types it."""

    # option string, dest, type, choices, action class, help; each flag defaults to None
    FLAGS = [
        ("--matrix", "matrix", None, None, "_StoreAction",
         "expression matrix file (genes as rows)"),
        ("--labels", "labels", None, None, "_StoreAction",
         "two-column sample/class label file"),
        ("--config", "config", None, None, "_StoreAction",
         "flat key = value config file; flags override it"),
        ("--out", "out", None, None, "_StoreAction",
         "output directory (default: results)"),
        ("--dataset", "dataset", None, None, "_StoreAction",
         "dataset tag for reports (default: matrix stem)"),
        ("--top-genes", "top_genes", int, None, "_StoreAction",
         "keep the N most informative genes (default: all)"),
        ("--bins", "bins", int, None, "_StoreAction",
         "discretization bins for information gain (default: Sturges)"),
        ("--fuzzify", "fuzzify", None, ["s", "z"], "_StoreAction",
         "membership shape for the fsrk engine (default: s)"),
        ("--algorithm", "algorithm", None, ["kmeans", "rough", "fsrk"], "_AppendAction",
         "engine to run; repeatable (default: all three)"),
        ("--k", "k", int, None, "_StoreAction",
         "number of clusters (default: 2)"),
        ("--w-lower", "w_lower", float, None, "_StoreAction",
         "lower-approximation centroid weight (default: 0.7)"),
        ("--w-upper", "w_upper", float, None, "_StoreAction",
         "boundary centroid weight (default: 0.3)"),
        ("--epsilon", "epsilon", float, None, "_StoreAction",
         "ratio threshold; >= 1 for rough, in (0, 1] for fsrk (defaults: 1.2 and 0.95)"),
        ("--max-iter", "max_iter", int, None, "_StoreAction",
         "iteration cap per run (default: 100)"),
        ("--tol", "tol", float, None, "_StoreAction",
         "max centroid displacement to declare convergence (default: 1e-6)"),
        ("--seed", "seed", int, None, "_StoreAction",
         "base RNG seed (default: 0)"),
        ("--restarts", "restarts", int, None, "_StoreAction",
         "runs per algorithm; best DB index wins (default: 1)"),
    ]

    def test_flags_in_order(self):
        actions = cli._build_parser()._actions
        assert actions[0].option_strings == ["-h", "--help"]
        assert [
            (*a.option_strings, a.dest, a.type, a.choices, type(a).__name__, a.help)
            for a in actions[1:]
        ] == self.FLAGS
        assert all(a.default is None and a.nargs is None for a in actions[1:])

    @pytest.mark.parametrize("key, text, value", [
        ("out", "elsewhere", Path("elsewhere")),
        ("dataset", "tag", "tag"),
        ("top_genes", "8", 8),
        ("bins", "5", 5),
        ("fuzzify", "z", "z"),
        ("algorithm", "rough", ("rough",)),
        ("k", "3", 3),
        ("w_lower", "0.6", 0.6),
        ("w_upper", "0.4", 0.4),
        ("epsilon", "1.1", 1.1),
        ("max_iter", "50", 50),
        ("tol", "1e-4", 1e-4),
        ("seed", "7", 7),
        ("restarts", "2", 2),
    ])
    def test_config_file_value_is_typed_like_its_flag(self, tmp_path, key, text, value):
        def config(*args):
            return cli.build_config(cli._build_parser().parse_args(
                ["--matrix", "m.tsv", "--labels", "l.tsv", *args]))

        config_path = tmp_path / "run.conf"
        config_path.write_text(f"{key} = {text}\n")
        from_file = config("--config", str(config_path))
        from_flag = config("--" + key.replace("_", "-"), text)
        assert from_file == from_flag
        name = "algorithms" if key == "algorithm" else key
        for got in (getattr(from_file, name), getattr(from_flag, name)):
            assert got == value and type(got) is type(value)
        assert from_flag != config()  # each value differs from the default


class TestEntryPoint:
    """``python -m genecluster`` in a fresh interpreter, logging set up by ``main``."""

    @staticmethod
    def run(cwd, *args):
        src = str(Path(cli.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        return subprocess.run([sys.executable, "-m", "genecluster", *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)

    def test_run_writes_every_report_and_logs_its_stages(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        out = tmp_path / "out"
        done = self.run(tmp_path, "--matrix", str(matrix_path), "--labels", str(labels_path),
                        "--out", str(out), "--top-genes", "8", "--restarts", "2")
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in out.iterdir()) == [
            "assignments-fsrk.csv", "assignments-kmeans.csv", "assignments-rough.csv",
            "ranking.csv", "report.csv", "report.json"]
        stages = {line.split()[2].rstrip(":") for line in done.stderr.splitlines()
                  if line.startswith("INFO stage ")}
        assert stages == {"ingest", "filter", "fuzzify", "cluster", "validate", "report"}
        rows = [line.split()[:2] for line in done.stdout.splitlines()[1:]]
        assert sorted(rows) == [["demo", "fsrk"], ["demo", "kmeans"], ["demo", "rough"]]

    def test_bad_setting_exits_1_with_a_staged_error(self, small_dataset, tmp_path):
        matrix_path, labels_path, _ = small_dataset
        done = self.run(tmp_path, "--matrix", str(matrix_path), "--labels", str(labels_path),
                        "--out", str(tmp_path / "out"), "--k", "0")
        assert done.returncode == 1
        assert done.stderr == "error: [startup] k must be >= 1, got 0\n"
        assert done.stdout == "" and not (tmp_path / "out").exists()
