"""End-to-end pipeline runner and command-line front end.

Stage order is fixed: startup -> ingest -> filter -> fuzzify (only when the
fsrk engine is requested) -> cluster -> validate -> report. Startup checks
every setting that needs no input with the library's own checks (all but
top_genes, checked in the filter stage as an integer from 1 to the gene
count, and epsilon, checked against each engine's range in the cluster
stage) and builds the run's one ``RoughParams`` before any input is read.
kmeans and rough cluster the filtered raw-valued matrix; fsrk clusters the
fuzzified one. Each algorithm runs ``restarts`` times on that
``RoughParams`` with the engine's epsilon and seeds seed, seed+1, ... filled
in. Every restart gets a DB index; only the one with the lowest (the earliest
on ties) also gets its XB index, SSE and membership masks, and is reported.
report.json echoes the fields it ran with, plus restart, top_genes, bins and
fuzzify.
report.csv and ``compare`` write each row through one formatter. Outputs
(report.csv, report.json, assignments-<algorithm>.csv, ranking.csv) are
written atomically and contain no timestamps, so identical configs produce
byte-identical files. A config file holds the flags' keys, each value typed
as its flag's; flags override it, merged by name.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .clustering import (
    DEFAULT_FSRK_EPSILON,
    DEFAULT_ROUGH_EPSILON,
    CrispClustering,
    RoughParams,
    _rough_masks,
    fsrk_kmeans,
    kmeans,
    rough_kmeans,
)
from .errors import GeneClusterError, ParameterError, PipelineError, ValidityError, _check_integer
from .fuzzysoft import KINDS, _check_kind, fuzzify
from .genefilter import DiscretizationSpec, rank_and_select, write_ranking
from .ingest import _atomic_write, _write_csv, parse_labels, parse_matrix
from .validity import ValidityReport, crispify, db_index, sum_squared_error, xb_index

__all__ = ["ExperimentConfig", "run_experiment", "compare", "main"]

log = logging.getLogger("genecluster")

ALGORITHMS = ("kmeans", "rough", "fsrk")
_DEFAULT_EPSILON = {"rough": DEFAULT_ROUGH_EPSILON, "fsrk": DEFAULT_FSRK_EPSILON}


@dataclass
class ExperimentConfig:
    matrix: Path
    labels: Path
    out: Path = Path("results")
    dataset: str | None = None
    top_genes: int | None = None
    bins: int | None = None
    fuzzify: str = "s"
    algorithms: tuple[str, ...] = ALGORITHMS
    k: int = 2
    w_lower: float = RoughParams.w_lower
    w_upper: float = RoughParams.w_upper
    epsilon: float | None = None
    max_iter: int = RoughParams.max_iter
    tol: float = RoughParams.tol
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        self.matrix = Path(self.matrix)
        self.labels = Path(self.labels)
        self.out = Path(self.out)
        self.algorithms = tuple(self.algorithms)

    def validate(self) -> RoughParams:
        """Check the settings that need no input; return the run's engine parameters."""
        for name, path in (("matrix", self.matrix), ("labels", self.labels)):
            if not path.is_file():
                raise PipelineError("startup", f"{name} file not found: {path}")
        if not self.algorithms:
            raise PipelineError("startup", "no algorithms requested")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise PipelineError(
                "startup", f"unknown algorithm(s) {unknown}; choose from {list(ALGORITHMS)}"
            )
        _check_kind("fuzzify", self.fuzzify)
        _check_integer("restarts", self.restarts, 1)
        if self.bins is not None:
            DiscretizationSpec(self.bins)
        return RoughParams(**{f.name: getattr(self, f.name) for f in fields(RoughParams)})

    @property
    def dataset_tag(self) -> str:
        return self.dataset or self.matrix.stem


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except GeneClusterError as exc:
        raise PipelineError(name, str(exc)) from exc


def _run_algorithm(algorithm, filtered, fuzzy, params):
    """One clustering run: (crisp assignment, result, data scored)."""
    if algorithm == "kmeans":
        result = kmeans(filtered, params)
        return result.assignment, result, filtered
    if algorithm == "rough":
        result, scored, metric = rough_kmeans(filtered, params), filtered, "distance"
    else:
        result, scored, metric = fsrk_kmeans(fuzzy, params), fuzzy, "similarity"
    return crispify(result, scored, metric=metric), result, scored


def _memberships(result, n, k):
    """Lower index (-1 for a boundary gene) and (n, k) upper mask of an engine result."""
    if isinstance(result, CrispClustering):
        return result.assignment, np.eye(k, dtype=bool)[result.assignment]
    return _rough_masks(result, n, k)


def _assignment_rows(gene_ids, lower, upper):
    """CSV body rows of (gene_id, cluster, membership_kind), gene order first."""
    lower = lower.tolist()
    return [
        (gene_ids[i], h, "lower" if lower[i] == h else "boundary")
        for i, h in zip(*(index.tolist() for index in np.nonzero(upper)))
    ]


_REPORT_HEADER = ("dataset", "algorithm", "db_index", "xb_index", "sse", "iterations")


def _report_cells(r: ValidityReport) -> tuple[str, ...]:
    """One report row as text: scores to six decimals, as report.csv and compare write it."""
    return (
        r.dataset,
        r.algorithm,
        f"{r.db_index:.6f}",
        f"{r.xb_index:.6f}",
        f"{r.sse:.6f}",
        str(r.iterations),
    )


def run_experiment(config: ExperimentConfig) -> list[ValidityReport]:
    """Run the full pipeline once per (algorithm, restart) and write reports.

    Per algorithm, the restart with the lowest DB index wins (earliest
    restart on ties) and alone is scored by XB and SSE; restarts whose
    clustering cannot be scored are skipped with a warning.
    """
    params = _stage("startup", config.validate)
    dataset = config.dataset_tag

    log.info("stage ingest: %s + %s", config.matrix, config.labels)
    matrix = _stage("ingest", parse_matrix, config.matrix)
    labels = _stage("ingest", parse_labels, config.labels, matrix)

    spec = (DiscretizationSpec.sturges(matrix.n_samples) if config.bins is None
            else DiscretizationSpec(config.bins))
    top_n = matrix.n_genes if config.top_genes is None else config.top_genes
    log.info("stage filter: top %d of %d genes, %d bins", top_n, matrix.n_genes, spec.bin_count)
    ranking, filtered = _stage("filter", rank_and_select, matrix, labels, spec, top_n)

    fuzzy = None
    if "fsrk" in config.algorithms:
        log.info("stage fuzzify: %s-shaped, per sample column", config.fuzzify)
        fuzzy = _stage("fuzzify", fuzzify, filtered, config.fuzzify)

    reports: list[ValidityReport] = []
    assignment_files: dict[str, list[tuple]] = {}
    for algorithm in config.algorithms:
        log.info("stage cluster: %s, k=%d, %d restart(s)", algorithm, config.k, config.restarts)
        epsilon = None
        if algorithm in _DEFAULT_EPSILON:
            epsilon = _DEFAULT_EPSILON[algorithm] if config.epsilon is None else config.epsilon
        best = None
        for restart in range(config.restarts):
            run = replace(params, epsilon=epsilon, seed=config.seed + restart)
            crisp, result, scored = _stage(
                "cluster", _run_algorithm, algorithm, filtered, fuzzy, run
            )
            log.info("stage validate: %s restart %d", algorithm, restart)
            try:
                db = db_index(scored, crisp, result.centroids)
            except ValidityError as exc:
                log.warning("%s restart %d not scorable: %s", algorithm, restart, exc)
                continue
            if best is None or db < best[0]:
                best = (db, restart, run, crisp, result, scored)
        if best is None:
            raise PipelineError(
                "validate", f"no scorable {algorithm} clustering in {config.restarts} restart(s)"
            )
        # xb_index makes db_index's checks, so it cannot fail on the restart db_index scored
        db, restart, run, crisp, result, scored = best
        reports.append(ValidityReport(
            dataset=dataset,
            algorithm=algorithm,
            db_index=db,
            xb_index=xb_index(scored, crisp, result.centroids),
            sse=sum_squared_error(scored, crisp, result.centroids),
            iterations=result.iterations,
            converged=result.converged,
            params={
                **asdict(run),
                "restart": restart,
                "top_genes": top_n,
                "bins": spec.bin_count,
                "fuzzify": config.fuzzify if algorithm == "fsrk" else None,
            },
        ))
        assignment_files[algorithm] = _assignment_rows(
            filtered.gene_ids, *_memberships(result, len(crisp), config.k))

    log.info("stage report: writing to %s", config.out)
    config.out.mkdir(parents=True, exist_ok=True)
    write_ranking(ranking, matrix.gene_ids, config.out / "ranking.csv")
    for algorithm, rows in assignment_files.items():
        _write_csv(config.out / f"assignments-{algorithm}.csv",
                   ("gene_id", "cluster", "membership_kind"), rows)
    _write_csv(config.out / "report.csv", _REPORT_HEADER, map(_report_cells, reports))
    _atomic_write(
        config.out / "report.json",
        json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True) + "\n",
    )
    return reports


def compare(reports) -> tuple[str, str]:
    """Render report rows as a comparison table (fixed-width text, CSV text).

    Rows are sorted by dataset then DB index ascending; the DB-minimal
    algorithm per dataset is flagged, ties resolved by the canonical order
    kmeans, rough, fsrk.
    """
    reports = list(reports)
    if not reports:
        raise ParameterError("compare needs at least one report row")
    canon = {a: i for i, a in enumerate(ALGORITHMS)}
    ordered = sorted(
        reports,
        key=lambda r: (r.dataset, r.db_index, canon.get(r.algorithm, len(ALGORITHMS))),
    )
    header = (*_REPORT_HEADER, "best")
    table = [header]
    for i, r in enumerate(ordered):
        first = i == 0 or r.dataset != ordered[i - 1].dataset
        table.append((*_report_cells(r), "*" if first else ""))
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    text_lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    csv_text = io.StringIO()
    _write_csv(csv_text, header, table[1:])
    return "\n".join(text_lines), csv_text.getvalue()


# One row per flag, in --help order: its config key and its argparse keywords.
# A config-file value is typed by its key's row, as the flag's value is.
_FLAGS = {
    "matrix": dict(help="expression matrix file (genes as rows)"),
    "labels": dict(help="two-column sample/class label file"),
    "config": dict(help="flat key = value config file; flags override it"),
    "out": dict(help="output directory (default: results)"),
    "dataset": dict(help="dataset tag for reports (default: matrix stem)"),
    "top_genes": dict(type=int, help="keep the N most informative genes (default: all)"),
    "bins": dict(type=int, help="discretization bins for information gain (default: Sturges)"),
    "fuzzify": dict(choices=list(KINDS), help="membership shape for the fsrk engine (default: s)"),
    "algorithm": dict(action="append", choices=list(ALGORITHMS),
                      help="engine to run; repeatable (default: all three)"),
    "k": dict(type=int, help="number of clusters (default: 2)"),
    "w_lower": dict(type=float, help="lower-approximation centroid weight (default: 0.7)"),
    "w_upper": dict(type=float, help="boundary centroid weight (default: 0.3)"),
    "epsilon": dict(type=float, help="ratio threshold; >= 1 for rough, in (0, 1] for fsrk "
                                     "(defaults: 1.2 and 0.95)"),
    "max_iter": dict(type=int, help="iteration cap per run (default: 100)"),
    "tol": dict(type=float,
                help="max centroid displacement to declare convergence (default: 1e-6)"),
    "seed": dict(type=int, help="base RNG seed (default: 0)"),
    "restarts": dict(type=int, help="runs per algorithm; best DB index wins (default: 1)"),
}


def _load_config_file(path: Path) -> dict:
    """Flat key = value file mirroring the CLI flags; '#' starts a comment, a BOM is skipped."""
    if not path.is_file():
        raise PipelineError("startup", f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PipelineError("startup", f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        values["algorithms" if key == "algorithm" else key] = value.strip()
    return values


def _coerce(key, value):
    if key == "algorithms":
        return tuple(value.replace(",", " ").split())
    return _FLAGS.get(key, {}).get("type", str)(value)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file values and flags; flags win."""
    values: dict = {}
    if args.config:
        for key, raw in _load_config_file(Path(args.config)).items():
            try:
                values[key] = _coerce(key, raw)
            except ValueError:
                raise PipelineError("startup", f"bad value for {key!r}: {raw!r}") from None
    for key, flag in vars(args).items():
        if flag is not None and key not in ("config", "algorithm"):
            values[key] = flag
    if args.algorithm:
        values["algorithms"] = tuple(args.algorithm)
    for required in ("matrix", "labels"):
        if required not in values:
            raise PipelineError("startup", f"--{required} is required (flag or config file)")
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise PipelineError("startup", f"bad configuration: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genecluster",
        description="Filter, fuzzify, cluster, and score gene-expression matrices, "
                    "comparing kmeans, rough, and fsrk engines.",
    )
    for key, keywords in _FLAGS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, **keywords)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        config = build_config(args)
        reports = run_experiment(config)
        text, _ = compare(reports)
        print(text)
    except GeneClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
