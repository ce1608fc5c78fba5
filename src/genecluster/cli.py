"""End-to-end pipeline runner and command-line front end.

``run_experiment`` runs its stages in a fixed order, each as one ``_stage``
block that logs its ``stage <name>: ...`` line and tags a library or OS
error raised in it ``[<name>]``. startup (no line) checks every setting that
needs no input, epsilon by each engine's own rule, and builds each
algorithm's ``RoughParams``; only top_genes (1 to the gene count, in filter)
and k <= rows (in cluster) wait for the matrix. ingest reads the matrix and
labels, a library error led by its file's path; filter keeps the top_genes
by information gain; fuzzify runs only when fsrk is requested. Then, per
algorithm, cluster runs ``restarts`` times on its ``RoughParams`` with seeds
seed, seed+1, ...: kmeans and rough on the filtered raw-valued matrix, fsrk
on the fuzzified one. Each restart's DB
index is a validate line. The lowest (the earliest on ties) wins, and
validate scores it alone by XB index and SSE. report writes report.csv,
report.json (each row's run fields plus restart, top_genes, bins and
fuzzify), assignments-<algorithm>.csv (the winner's membership masks) and
ranking.csv, atomically and without timestamps, so identical configs produce
byte-identical files; report.csv and ``compare`` share one row formatter.
A config file holds the flags' keys, each value typed as its flag's; flags
override it, merged by name.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .clustering import (
    CrispClustering,
    RoughParams,
    _distance_epsilon,
    _rough_masks,
    _similarity_epsilon,
    fsrk_kmeans,
    kmeans,
    rough_kmeans,
)
from .errors import (GeneClusterError, ParameterError, ParseError, PipelineError, ValidityError,
                     _check_integer)
from .fuzzysoft import KINDS, _check_kind, fuzzify
from .genefilter import DiscretizationSpec, rank_and_select, write_ranking
from .ingest import _atomic_write, _decode, _write_csv, parse_labels, parse_matrix
from .validity import ValidityReport, crispify, db_index, sum_squared_error, xb_index

__all__ = ["ExperimentConfig", "run_experiment", "compare", "main"]

log = logging.getLogger("genecluster")

ALGORITHMS = ("kmeans", "rough", "fsrk")
_EPSILON = {"kmeans": lambda _: None, "rough": _distance_epsilon, "fsrk": _similarity_epsilon}


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

    def validate(self) -> dict[str, RoughParams]:
        """Check the settings that need no input; return each algorithm's engine parameters."""
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
        if self.out.exists() and not self.out.is_dir():
            raise PipelineError("startup", f"out is not a directory: {self.out}")
        params = RoughParams(**{f.name: getattr(self, f.name) for f in fields(RoughParams)})
        return {a: replace(params, epsilon=_EPSILON[a](self.epsilon)) for a in self.algorithms}

    @property
    def dataset_tag(self) -> str:
        return self.dataset or self.matrix.stem


@contextmanager
def _stage(name, message=None, *args):
    """Log ``stage <name>: <message>`` if given; re-raise a GeneClusterError or
    OSError from inside as PipelineError(name, ...). A PipelineError passes through."""
    if message is not None:
        log.info("stage %s: " + message, name, *args)
    try:
        yield
    except PipelineError:
        raise
    except (GeneClusterError, OSError) as exc:
        raise PipelineError(name, str(exc)) from exc


def _best_restart(config, params, algorithm, data):
    """(db, restart, run params, crisp assignment, result) of the restart with
    the lowest DB index, the earliest on ties; unscorable restarts are skipped."""
    best = None
    for restart in range(config.restarts):
        run = replace(params, seed=config.seed + restart)
        if algorithm == "kmeans":
            result = kmeans(data, run)
            crisp = result.assignment
        else:
            rough = algorithm == "rough"
            result = (rough_kmeans if rough else fsrk_kmeans)(data, run)
            crisp = crispify(result, data, metric="distance" if rough else "similarity")
        with _stage("validate", "%s restart %d", algorithm, restart):
            try:
                db = db_index(data, crisp, result.centroids)
            except ValidityError as exc:
                log.warning("%s restart %d not scorable: %s", algorithm, restart, exc)
                continue
        if best is None or db < best[0]:
            best = (db, restart, run, crisp, result)
    if best is None:
        raise PipelineError(
            "validate", f"no scorable {algorithm} clustering in {config.restarts} restart(s)")
    return best


def _parse(parse, path, *args):
    """``parse(path, *args)``, an error from the library tagged ``[ingest] <path>:``."""
    try:
        return parse(path, *args)
    except GeneClusterError as exc:
        raise PipelineError("ingest", f"{path}: {exc}") from exc


def _assignment_rows(gene_ids, result, k):
    """CSV body rows (gene_id, cluster, membership_kind) of an engine result, gene order first."""
    if isinstance(result, CrispClustering):
        lower, upper = result.assignment, np.eye(k, dtype=bool)[result.assignment]
    else:
        lower, upper = _rough_masks(result, len(gene_ids), k)
    lower = lower.tolist()
    pairs = zip(*(index.tolist() for index in np.nonzero(upper)))
    return [(gene_ids[i], h, "lower" if lower[i] == h else "boundary") for i, h in pairs]


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
    with _stage("startup"):
        params = config.validate()
    with _stage("ingest", "%s + %s", config.matrix, config.labels):
        matrix = _parse(parse_matrix, config.matrix)
        labels = _parse(parse_labels, config.labels, matrix)

    spec = (DiscretizationSpec.sturges(matrix.n_samples) if config.bins is None
            else DiscretizationSpec(config.bins))
    top_n = matrix.n_genes if config.top_genes is None else config.top_genes
    with _stage("filter", "top %d of %d genes, %d bins", top_n, matrix.n_genes, spec.bin_count):
        ranking, filtered = rank_and_select(matrix, labels, spec, top_n)

    fuzzy = None
    if "fsrk" in config.algorithms:
        with _stage("fuzzify", "%s-shaped, per sample column", config.fuzzify):
            fuzzy = fuzzify(filtered, config.fuzzify)

    reports: list[ValidityReport] = []
    winners = {}
    for algorithm in config.algorithms:
        data = fuzzy if algorithm == "fsrk" else filtered
        with _stage("cluster", "%s, k=%d, %d restart(s)", algorithm, config.k, config.restarts):
            db, restart, run, crisp, result = _best_restart(
                config, params[algorithm], algorithm, data)
        # xb_index makes db_index's checks, so it cannot fail on the restart db_index scored
        with _stage("validate"):
            reports.append(ValidityReport(
                dataset=config.dataset_tag,
                algorithm=algorithm,
                db_index=db,
                xb_index=xb_index(data, crisp, result.centroids),
                sse=sum_squared_error(data, crisp, result.centroids),
                iterations=result.iterations,
                converged=result.converged,
                params={**asdict(run), "restart": restart, "top_genes": top_n,
                        "bins": spec.bin_count,
                        "fuzzify": config.fuzzify if algorithm == "fsrk" else None},
            ))
        winners[algorithm] = result

    with _stage("report", "writing to %s", config.out):
        config.out.mkdir(parents=True, exist_ok=True)
        write_ranking(ranking, matrix.gene_ids, config.out / "ranking.csv")
        for algorithm, result in winners.items():
            _write_csv(config.out / f"assignments-{algorithm}.csv",
                       ("gene_id", "cluster", "membership_kind"),
                       _assignment_rows(filtered.gene_ids, result, config.k))
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
    try:
        text = _decode(path.read_bytes())
    except (OSError, ParseError) as exc:
        raise PipelineError("startup", f"{path}: {exc}") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
