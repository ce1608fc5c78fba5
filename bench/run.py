"""Benchmark of the genecluster pipeline, end to end and per layer.

    python3 bench/run.py --workload paper-562 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

One process drives the public API in a closed loop with one client: it
generates the workload's seeded datasets under ``bench/_work``, runs one warm
``run_experiment`` at a time and checks every experiment's outputs. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced experiments and reports per-layer metrics
from spans recorded around the layer functions ``genecluster.cli`` calls.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See bench/README.md
for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[1:1] = [str(SRC), str(ROOT / "tests")]  # after bench/, before site-packages
try:
    import numpy as np

    import genecluster.cli as cli
    import checks
    import tracing
    from workloads import WORKLOADS, generate
except ImportError as exc:
    sys.exit(f"bench: cannot import the program from {SRC}: {exc}")
if Path(cli.__file__).resolve().parents[1] != SRC:
    sys.exit(f"bench: imported genecluster from {cli.__file__}, not from {SRC}")

SETUP_RUNS = 30  # timed fresh interpreters per run, after one untimed warm-up
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "scored_restart_ratio": "ratio",
}
LAYER_SECONDS = {
    "ingest": ("ingest.parse_matrix_s", "ingest.parse_labels_s"),
    "genefilter": ("genefilter.rank_and_select_s",),
    "fuzzysoft": ("fuzzysoft.fuzzify_s",),
    "clustering": tuple(f"clustering.{e}_s" for e in tracing.ENGINES),
    "validity": ("validity.crispify_s", "validity.score_s"),
    "cli": ("cli.self_s", "cli.write_ranking_s"),
}
PER_LAYER_UNITS = {
    **{name: "s" for names in LAYER_SECONDS.values() for name in names},
    "ingest.cells": "count",
    "ingest.mb_per_s": "MB/s",
    "genefilter.genes_per_s": "1/s",
    **{f"clustering.{e}.{field}": unit for e in tracing.ENGINES
       for field, unit in (("iterations", "count"), ("s_per_iter", "s"),
                           ("cell_iters_per_s", "1/s"))},
    "clustering.converged_ratio": "ratio",
    "clustering.boundary_frac": "ratio",
    "validity.unscorable": "count",
    "cli.bytes_written": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class WarningCounter(logging.Handler):
    """Counts WARNING-or-worse records on the ``genecluster`` logger."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Runner:
    """Runs and checks experiments over one workload's datasets."""

    def __init__(self, workload, seed, work: Path):
        self.workload = workload
        self.seed = seed
        self.datasets = [generate(workload, seed, d, work) for d in range(workload.datasets)]
        self.configs = [
            cli.ExperimentConfig(
                matrix=ds.matrix_path, labels=ds.labels_path, out=work / f"out-{d}",
                dataset=workload.name, top_genes=workload.top_genes, k=workload.k,
                restarts=workload.restarts, seed=seed + d, algorithms=workload.algorithms,
                max_iter=workload.max_iter,
            )
            for d, ds in enumerate(self.datasets)
        ]
        self.attempted = 0
        self.failed = 0
        self.restarts_attempted = 0
        self.errors: list[str] = []
        self.hashes: dict[int, dict[str, str]] = {}
        self.bytes_written: dict[int, int] = {}
        self.warnings = WarningCounter()
        logging.getLogger("genecluster").addHandler(self.warnings)

    def close(self):
        logging.getLogger("genecluster").removeHandler(self.warnings)

    def experiment(self, d: int, trace: tracing.Trace | None = None) -> float | None:
        """Run and check one experiment; return its wall time, or None if it raised.

        A failed output check counts in ``failed`` but keeps the time.
        """
        config = self.configs[d]
        shutil.rmtree(config.out, ignore_errors=True)  # checks read only what this run wrote
        self.attempted += 1
        self.restarts_attempted += self.workload.restarts * len(config.algorithms)
        try:
            if trace is None:
                start = time.perf_counter()
                cli.run_experiment(config)
                seconds = time.perf_counter() - start
            else:
                with tracing.traced(cli, trace), trace.span(tracing.ROOT) as root:
                    cli.run_experiment(config)
                seconds = root.end - root.start
        except tracing.TraceError:
            raise
        except Exception as exc:  # the run goes on; the failure counts in error_ratio
            traceback.print_exc()
            self._fail(d, [f"{type(exc).__name__}: {exc}"])
            return None
        if trace is not None:
            trace.check_complete(config.algorithms)
        hashes, errors = checks.check_outputs(config.out, self.datasets[d], self.workload,
                                              self.seed + d)
        if self.hashes.setdefault(d, hashes) != hashes:
            errors.append("outputs differ from the first run on this dataset")
        self.bytes_written[d] = sum((config.out / f).stat().st_size for f in hashes)
        if errors:
            self._fail(d, errors)
        return seconds

    def _fail(self, d, errors):
        self.failed += 1
        self.errors.extend(f"dataset {d}: {e}" for e in errors[:3])


def measure_setup(runs: int) -> list[float]:
    """Wall times of fresh interpreters importing genecluster, one at a time.

    One more interpreter runs first, untimed, so that the files every later
    one reads are in the page cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import genecluster, sys; sys.stdout.write(genecluster.__file__)"
    times = []
    for _ in range(runs + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or Path(proc.stdout).resolve().parent.parent != SRC:
            raise RuntimeError(f"importing genecluster failed: {proc.stderr.strip()[-300:]}")
    return times[1:]


def tail(samples: list[float]) -> dict | None:
    """The highest of p50..p99 that has at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": statistics.quantiles(samples, n=100)[p - 1]}
    return None


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def layer_metrics(trace: tracing.Trace, runner: Runner, d: int) -> dict[str, float]:
    """Per-layer metrics of one traced experiment."""
    w = runner.workload
    t = trace.totals()
    out = {
        "ingest.parse_matrix_s": t["ingest.parse_matrix"],
        "ingest.parse_labels_s": t["ingest.parse_labels"],
        "ingest.cells": w.n_genes * w.n_samples,
        "ingest.mb_per_s": runner.datasets[d].matrix_path.stat().st_size / 1e6
                           / t["ingest.parse_matrix"],
        "genefilter.rank_and_select_s": t["genefilter.rank_and_select"],
        "genefilter.genes_per_s": w.n_genes / t["genefilter.rank_and_select"],
        "fuzzysoft.fuzzify_s": t.get("fuzzysoft.fuzzify", 0.0),
        "validity.crispify_s": t["validity.crispify"],
        "validity.score_s": t["validity.db_index"] + t.get("validity.xb_index", 0.0)
                            + t.get("validity.sse", 0.0),
        "validity.unscorable": trace.validity_errors,
        "cli.self_s": t["cli.self"],
        "cli.write_ranking_s": t["cli.write_ranking"],
        "cli.bytes_written": runner.bytes_written[d],
        "trace.run_s": t[tracing.ROOT],
    }
    calls = trace.engine_calls
    for engine in tracing.ENGINES:  # an engine the workload does not run reads 0
        mine = [c for c in calls if c.engine == engine]
        seconds = sum(c.seconds for c in mine)
        iterations = sum(c.iterations for c in mine)
        cell_iters = sum(c.n * c.k * c.m * c.iterations for c in mine)
        out[f"clustering.{engine}_s"] = seconds
        out[f"clustering.{engine}.iterations"] = iterations
        out[f"clustering.{engine}.s_per_iter"] = seconds / iterations if mine else 0.0
        out[f"clustering.{engine}.cell_iters_per_s"] = cell_iters / seconds if mine else 0.0
    rough = [c for c in calls if c.engine != "kmeans"]
    out["clustering.converged_ratio"] = sum(c.converged for c in calls) / len(calls)
    out["clustering.boundary_frac"] = sum(c.boundary for c in rough) / sum(c.n for c in rough)
    return out


def run_workload(args, work: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(SETUP_RUNS)
    runner = Runner(workload, args.seed, work)
    untraced, traced, layers = [], [], []
    try:
        runner.experiment(0)  # warm-up: checked, not timed
        start = time.perf_counter()
        while True:  # whole rounds over every dataset
            for d in range(workload.datasets):
                untraced.append(runner.experiment(d))
                if args.trace:
                    trace = tracing.Trace()
                    traced.append(runner.experiment(d, trace))
                    if traced[-1] is not None:
                        layers.append(layer_metrics(trace, runner, d))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        runner.close()
    untraced = [t for t in untraced if t is not None]
    traced = [t for t in traced if t is not None]
    if not untraced or (args.trace and not traced):
        raise RuntimeError("every experiment raised: " + "; ".join(runner.errors[:5]))

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER_UNITS
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "run_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
            "scored_restart_ratio": 1 - runner.warnings.count / runner.restarts_attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "run_s": {"samples": len(untraced), "median": statistics.median(untraced),
                  "tail": tail(untraced), "values": untraced},
        "setup_s": {"samples": len(setup), "values": setup},
        "error_ratio": runner.failed / runner.attempted,
        "skipped_restarts": runner.warnings.count,
        "restarts_attempted": runner.restarts_attempted,
        "errors": runner.errors[:10],
        "output_sha256": {str(d): h for d, h in sorted(runner.hashes.items())},
    }
    if args.trace:
        detail["traced_run_s"] = {"samples": len(traced), "median": statistics.median(traced),
                                  "values": traced}
        total = sum(m["trace.run_s"] for m in layers)
        detail["layer_share"] = {
            layer: sum(m[n] for m in layers for n in names) / total
            for layer, names in LAYER_SECONDS.items()
        }
    return result, detail


def print_report(result: dict, detail: dict):
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']}  trace {detail['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    run = detail["run_s"]
    tail_text = (f"p{run['tail']['percentile']} {run['tail']['value']:.4f} s" if run["tail"]
                 else "no percentile has 10 samples beyond it")
    print(f"  run_s from {run['samples']} untraced experiments; {tail_text}")
    print(f"  error_ratio {result['failed']}/{result['attempted']}; skipped restarts "
          f"{detail['skipped_restarts']}/{detail['restarts_attempted']}")
    for layer, share in detail.get("layer_share", {}).items():
        print(f"  share of traced run_s: {layer:12s} {share:7.1%}")
    for error in detail["errors"]:
        print(f"  FAILED {error}")


def check_names(result: dict, trace: int):
    """The metrics printed must be the ones BENCHMARK.json lists, when it is present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(listed) != sorted(result["metrics"]):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} != BENCHMARK.json {listed}")


def run_all(args) -> dict:
    """Each workload in its own process, one after another; metrics prefixed by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
        print(json.dumps(result))
        return 0

    (ROOT / "bench" / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / "bench" / "_work"))
    try:
        result, detail = run_workload(args, work)
        check_names(result, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print_report(result, detail)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, tracing.TraceError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"bench: {exc}")
