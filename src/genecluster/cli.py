"""End-to-end pipeline runner and command-line front end.

Stage order is fixed: startup -> ingest -> filter -> fuzzify (only when the
fsrk engine is requested) -> cluster -> validate -> report. Startup checks
every setting that needs no input (all but top_genes, checked against the
gene count, and epsilon, checked against each engine's range) and builds the
run's one ``RoughParams`` before any input is read. kmeans and rough cluster
the filtered raw-valued matrix; fsrk clusters the fuzzified one. Each
algorithm runs ``restarts`` times with seeds seed, seed+1, ... and the
restart with the lowest DB index is reported. Outputs (report.csv, report.json,
assignments-<algorithm>.csv, ranking.csv) are written atomically and contain
no timestamps, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .clustering import (
    DEFAULT_FSRK_EPSILON,
    DEFAULT_ROUGH_EPSILON,
    RoughParams,
    _to_masks,
    fsrk_kmeans,
    kmeans,
    rough_kmeans,
)
from .errors import GeneClusterError, ParameterError, PipelineError, ValidityError
from .fuzzysoft import KINDS, fuzzify
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
    w_lower: float = 0.7
    w_upper: float = 0.3
    epsilon: float | None = None
    max_iter: int = 100
    tol: float = 1e-6
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
        if self.fuzzify not in KINDS:
            raise PipelineError("startup", f"fuzzify must be one of {KINDS}")
        if self.restarts < 1:
            raise PipelineError("startup", f"restarts must be >= 1, got {self.restarts}")
        if self.bins is not None:
            DiscretizationSpec(self.bins)
        return RoughParams(
            k=self.k, w_lower=self.w_lower, w_upper=self.w_upper, epsilon=self.epsilon,
            max_iter=self.max_iter, tol=self.tol, seed=self.seed,
        )

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


def _run_algorithm(algorithm, raw_values, fuzzy_values, params):
    """One clustering run: (crisp assignment, lower index, upper mask, result, data scored).

    The lower index is -1 for a boundary gene; the upper mask is (n, k).
    """
    if algorithm == "kmeans":
        result = kmeans(raw_values, params)
        a = result.assignment
        return a, a, np.eye(params.k, dtype=bool)[a], result, raw_values
    if algorithm == "rough":
        result, scored, metric = rough_kmeans(raw_values, params), raw_values, "distance"
    else:
        result, scored, metric = fsrk_kmeans(fuzzy_values, params), fuzzy_values, "similarity"
    lower, upper = _to_masks(result.lower, result.upper, scored.shape[0])
    return crispify(result, scored, metric=metric), lower, upper, result, scored


def _assignment_rows(gene_ids, lower, upper):
    """CSV body rows of (gene_id, cluster, membership_kind), gene order first."""
    lower = lower.tolist()
    return [
        (gene_ids[i], h, "lower" if lower[i] == h else "boundary")
        for i, h in zip(*(index.tolist() for index in np.nonzero(upper)))
    ]


def run_experiment(config: ExperimentConfig) -> list[ValidityReport]:
    """Run the full pipeline once per (algorithm, restart) and write reports.

    Per algorithm, the restart with the lowest DB index wins (earliest
    restart on ties); restarts whose clustering cannot be scored are skipped
    with a warning.
    """
    params = _stage("startup", config.validate)
    dataset = config.dataset_tag

    log.info("stage ingest: %s + %s", config.matrix, config.labels)
    matrix = _stage("ingest", parse_matrix, config.matrix)
    labels = _stage("ingest", parse_labels, config.labels, matrix)

    sturges = DiscretizationSpec.sturges(matrix.n_samples).bin_count
    bins = sturges if config.bins is None else config.bins
    top_n = matrix.n_genes if config.top_genes is None else config.top_genes
    log.info("stage filter: top %d of %d genes, %d bins", top_n, matrix.n_genes, bins)
    ranking, filtered = _stage(
        "filter", rank_and_select, matrix, labels, DiscretizationSpec(bins), top_n
    )

    fuzzy = None
    if "fsrk" in config.algorithms:
        log.info("stage fuzzify: %s-shaped, per sample column", config.fuzzify)
        fuzzy = _stage("fuzzify", fuzzify, filtered, config.fuzzify)

    reports: list[ValidityReport] = []
    assignment_files: dict[str, list[tuple]] = {}
    raw = filtered.values
    fuzzy_values = fuzzy.values if fuzzy is not None else None
    for algorithm in config.algorithms:
        log.info("stage cluster: %s, k=%d, %d restart(s)", algorithm, config.k, config.restarts)
        epsilon = None
        if algorithm in _DEFAULT_EPSILON:
            epsilon = _DEFAULT_EPSILON[algorithm] if config.epsilon is None else config.epsilon
        best = None
        for restart in range(config.restarts):
            crisp, lower, upper, result, scored = _stage(
                "cluster", _run_algorithm, algorithm, raw, fuzzy_values,
                replace(params, seed=config.seed + restart),
            )
            log.info("stage validate: %s restart %d", algorithm, restart)
            try:
                db = db_index(scored, crisp, result.centroids)
                xb = xb_index(scored, crisp, result.centroids)
            except ValidityError as exc:
                log.warning("%s restart %d not scorable: %s", algorithm, restart, exc)
                continue
            sse = sum_squared_error(scored, crisp, result.centroids)
            report = ValidityReport(
                dataset=dataset,
                algorithm=algorithm,
                db_index=db,
                xb_index=xb,
                sse=sse,
                iterations=result.iterations,
                converged=result.converged,
                params={
                    "k": config.k,
                    "w_lower": config.w_lower,
                    "w_upper": config.w_upper,
                    "epsilon": epsilon,
                    "max_iter": config.max_iter,
                    "tol": config.tol,
                    "seed": config.seed + restart,
                    "restart": restart,
                    "top_genes": top_n,
                    "bins": bins,
                    "fuzzify": config.fuzzify if algorithm == "fsrk" else None,
                },
            )
            if best is None or db < best[0].db_index:
                best = (report, _assignment_rows(filtered.gene_ids, lower, upper))
        if best is None:
            raise PipelineError(
                "validate", f"no scorable {algorithm} clustering in {config.restarts} restart(s)"
            )
        reports.append(best[0])
        assignment_files[algorithm] = best[1]

    log.info("stage report: writing to %s", config.out)
    config.out.mkdir(parents=True, exist_ok=True)
    write_ranking(ranking, matrix.gene_ids, config.out / "ranking.csv")
    for algorithm, rows in assignment_files.items():
        _write_csv(config.out / f"assignments-{algorithm}.csv",
                   ("gene_id", "cluster", "membership_kind"), rows)
    _write_csv(
        config.out / "report.csv",
        ("dataset", "algorithm", "db_index", "xb_index", "sse", "iterations"),
        (
            (r.dataset, r.algorithm, f"{r.db_index:.6f}", f"{r.xb_index:.6f}",
             f"{r.sse:.6f}", r.iterations)
            for r in reports
        ),
    )
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
    best = set()
    seen = set()
    for r in ordered:
        if r.dataset not in seen:
            seen.add(r.dataset)
            best.add(id(r))

    header = ("dataset", "algorithm", "db_index", "xb_index", "sse", "iterations", "best")
    table = [header]
    for r in ordered:
        flag = "*" if id(r) in best else ""
        cells = (
            r.dataset,
            r.algorithm,
            f"{r.db_index:.6f}",
            f"{r.xb_index:.6f}",
            f"{r.sse:.6f}",
            str(r.iterations),
            flag,
        )
        table.append(cells)
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    text_lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    csv_text = io.StringIO()
    _write_csv(csv_text, header, table[1:])
    return "\n".join(text_lines), csv_text.getvalue()


def _load_config_file(path: Path) -> dict:
    """Flat key = value file mirroring the CLI flags; '#' starts a comment."""
    if not path.is_file():
        raise PipelineError("startup", f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PipelineError("startup", f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_INT_KEYS = {"top_genes", "bins", "k", "max_iter", "seed", "restarts"}
_FLOAT_KEYS = {"w_lower", "w_upper", "epsilon", "tol"}


def _coerce(key, value):
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key == "algorithm" or key == "algorithms":
        return tuple(a for a in value.replace(",", " ").split() if a)
    return value


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file values and flags; flags win."""
    values: dict = {}
    if args.config:
        for key, raw in _load_config_file(Path(args.config)).items():
            try:
                coerced = _coerce(key, raw)
            except ValueError:
                raise PipelineError("startup", f"bad value for {key!r}: {raw!r}") from None
            if key in ("algorithm", "algorithms"):
                values["algorithms"] = coerced
            else:
                values[key] = coerced
    for key in (
        "matrix", "labels", "out", "dataset", "top_genes", "bins", "fuzzify",
        "k", "w_lower", "w_upper", "epsilon", "max_iter", "tol", "seed", "restarts",
    ):
        flag = getattr(args, key)
        if flag is not None:
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
    parser.add_argument("--matrix", help="expression matrix file (genes as rows)")
    parser.add_argument("--labels", help="two-column sample/class label file")
    parser.add_argument("--config", help="flat key = value config file; flags override it")
    parser.add_argument("--out", help="output directory (default: results)")
    parser.add_argument("--dataset", help="dataset tag for reports (default: matrix stem)")
    parser.add_argument("--top-genes", dest="top_genes", type=int,
                        help="keep the N most informative genes (default: all)")
    parser.add_argument("--bins", type=int,
                        help="discretization bins for information gain (default: Sturges)")
    parser.add_argument("--fuzzify", choices=list(KINDS),
                        help="membership shape for the fsrk engine (default: s)")
    parser.add_argument("--algorithm", action="append", choices=list(ALGORITHMS),
                        help="engine to run; repeatable (default: all three)")
    parser.add_argument("--k", type=int, help="number of clusters (default: 2)")
    parser.add_argument("--w-lower", dest="w_lower", type=float,
                        help="lower-approximation centroid weight (default: 0.7)")
    parser.add_argument("--w-upper", dest="w_upper", type=float,
                        help="boundary centroid weight (default: 0.3)")
    parser.add_argument("--epsilon", type=float,
                        help="ratio threshold; >= 1 for rough, in (0, 1] for fsrk "
                             "(defaults: 1.2 and 0.95)")
    parser.add_argument("--max-iter", dest="max_iter", type=int,
                        help="iteration cap per run (default: 100)")
    parser.add_argument("--tol", type=float,
                        help="max centroid displacement to declare convergence (default: 1e-6)")
    parser.add_argument("--seed", type=int, help="base RNG seed (default: 0)")
    parser.add_argument("--restarts", type=int,
                        help="runs per algorithm; best DB index wins (default: 1)")
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
