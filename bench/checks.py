"""Output check run on every benchmarked experiment.

The check reads only the files ``run_experiment`` wrote and the values the
benchmark generated. The information gain of a seeded sample of genes is
recomputed with the pure-Python oracle in ``tests/oracles.py``, which shares
no code with the package.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import oracles

ORACLE_SAMPLE = 16
ORACLE_TOL = 1e-12


def sturges_bins(n_samples: int) -> int:
    return math.ceil(math.log2(n_samples)) + 1


def _rows(text: str, header: str, errors: list[str], name: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != header:
        errors.append(f"{name}: bad header or missing final newline")
        return []
    return [line.split(",") for line in lines[1:-1]]


def _check_ranking(text, dataset, workload, seed, errors) -> set[str]:
    """Check ranking.csv; return the ids of the selected (top-ranked) genes."""
    rows = _rows(text, "gene_id,ig_bits,rank", errors, "ranking.csv")
    n = workload.n_genes
    if len(rows) != n or any(len(r) != 3 for r in rows):
        errors.append(f"ranking.csv: expected {n} rows of 3 fields")
        return set()
    ids = [r[0] for r in rows]
    scores = np.array([float(r[1]) for r in rows])
    if sorted(ids) != sorted(f"g{i}" for i in range(n)):
        errors.append("ranking.csv: gene ids are not the input genes")
        return set()
    if [r[2] for r in rows] != [str(i) for i in range(1, n + 1)]:
        errors.append("ranking.csv: ranks are not 1..n in order")
    if not np.isfinite(scores).all() or np.any(np.diff(scores) > 0):
        errors.append("ranking.csv: scores not finite and non-increasing")

    bins = sturges_bins(workload.n_samples)
    position = {gid: p for p, gid in enumerate(ids)}
    for i in np.random.default_rng(seed).choice(n, ORACLE_SAMPLE, replace=False):
        expected = oracles.info_gain_binned(dataset.values[i].tolist(), dataset.classes, bins)
        got = float(scores[position[f"g{i}"]])
        if abs(got - expected) > ORACLE_TOL:
            errors.append(f"ranking.csv: g{i} ig {got!r} vs oracle {expected!r}")
    top = workload.top_genes or n
    return set(ids[:top])


def _check_assignments(text, algorithm, selected, k, errors):
    name = f"assignments-{algorithm}.csv"
    per_gene: dict[str, list[tuple[int, str]]] = {}
    for row in _rows(text, "gene_id,cluster,membership_kind", errors, name):
        if len(row) != 3 or row[2] not in ("lower", "boundary") or not row[1].isdigit():
            errors.append(f"{name}: malformed row {row}")
            return
        per_gene.setdefault(row[0], []).append((int(row[1]), row[2]))
    if set(per_gene) != selected:
        errors.append(f"{name}: genes listed differ from the {len(selected)} selected")
    for gid, entries in per_gene.items():
        clusters = [h for h, _ in entries]
        kinds = {kind for _, kind in entries}
        if any(not 0 <= h < k for h in clusters) or len(set(clusters)) != len(clusters):
            errors.append(f"{name}: {gid} has bad clusters {clusters}")
        elif len(entries) == 1 and kinds != {"lower"}:
            errors.append(f"{name}: {gid} is a lone boundary row")
        elif len(entries) > 1 and (kinds != {"boundary"} or algorithm == "kmeans"):
            errors.append(f"{name}: {gid} listed {len(entries)} times as {sorted(kinds)}")


def _check_reports(csv_text, json_text, workload, errors):
    rows = _rows(csv_text, "dataset,algorithm,db_index,xb_index,sse,iterations",
                 errors, "report.csv")
    if [r[1] for r in rows if len(r) == 6] != list(workload.algorithms) \
            or len(rows) != len(workload.algorithms):
        errors.append("report.csv: expected one row per algorithm")
    elif not all(math.isfinite(float(x)) for r in rows for x in r[2:5]):
        errors.append("report.csv: non-finite value")
    top = workload.top_genes or workload.n_genes
    for entry in json.loads(json_text):
        values = [entry["db_index"], entry["xb_index"], entry["sse"]]
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            errors.append(f"report.json: non-finite value for {entry['algorithm']}")
        if entry["params"]["k"] != workload.k or entry["params"]["top_genes"] != top:
            errors.append("report.json: params do not echo k/top_genes")
        if not isinstance(entry["iterations"], int) or entry["iterations"] < 1:
            errors.append(f"report.json: bad iteration count for {entry['algorithm']}")


def check_outputs(out_dir, dataset, workload, seed) -> tuple[dict[str, str], list[str]]:
    """Return (sha256 per output file, list of failed checks) for one experiment."""
    errors: list[str] = []
    texts: dict[str, str] = {}
    hashes: dict[str, str] = {}
    names = ["ranking.csv", "report.csv", "report.json",
             *(f"assignments-{a}.csv" for a in workload.algorithms)]
    for name in names:
        try:
            raw = (out_dir / name).read_bytes()
        except FileNotFoundError:
            errors.append(f"{name}: missing")
            continue
        hashes[name] = hashlib.sha256(raw).hexdigest()
        texts[name] = raw.decode("utf-8")
    if errors:
        return hashes, errors
    try:
        selected = _check_ranking(texts["ranking.csv"], dataset, workload, seed, errors)
        for algorithm in workload.algorithms:
            _check_assignments(texts[f"assignments-{algorithm}.csv"], algorithm, selected,
                               workload.k, errors)
        _check_reports(texts["report.csv"], texts["report.json"], workload, errors)
    except (KeyError, ValueError, TypeError) as exc:
        errors.append(f"malformed output: {type(exc).__name__}: {exc}")
    return hashes, errors
