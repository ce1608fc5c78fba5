"""Spans around the layer functions that ``genecluster.cli`` calls.

The benchmark never edits the program. A traced run swaps each layer
function that ``run_experiment`` looks up in the ``genecluster.cli`` module
namespace for a wrapper that records a span (name, start, end, parent) and
the counts that only the call's arguments and result can give: iterations,
convergence and boundary size of each clustering, and ``ValidityError``
raised out of ``db_index``. Spans stay in memory; the caller aggregates them
per experiment.

If the program stops calling one of these functions through ``cli`` (say a
refactor folds kmeans into another engine), the traced run fails instead of
reporting zero seconds for that layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from genecluster.errors import ValidityError

# Attribute of genecluster.cli -> span name. Each must fire in every traced
# experiment whose workload runs that layer (see ``expected_spans``).
LAYER_FUNCTIONS = {
    "parse_matrix": "ingest.parse_matrix",
    "parse_labels": "ingest.parse_labels",
    "rank_and_select": "genefilter.rank_and_select",
    "fuzzify": "fuzzysoft.fuzzify",
    "kmeans": "clustering.kmeans",
    "rough_kmeans": "clustering.rough_kmeans",
    "fsrk_kmeans": "clustering.fsrk_kmeans",
    "crispify": "validity.crispify",
    "db_index": "validity.db_index",
    "xb_index": "validity.xb_index",
    "sum_squared_error": "validity.sse",
    "write_ranking": "cli.write_ranking",
}
ROOT = "cli.run_experiment"
ENGINES = ("kmeans", "rough_kmeans", "fsrk_kmeans")


class TraceError(RuntimeError):
    """An expected span is missing: the program no longer calls a layer as traced."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class EngineCall:
    """What one clustering call did, read from its arguments and result."""

    engine: str
    seconds: float
    n: int
    k: int
    m: int
    iterations: int
    converged: bool
    boundary: int


@dataclass
class Trace:
    spans: list[Span] = field(default_factory=list)
    engine_calls: list[EngineCall] = field(default_factory=list)
    validity_errors: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, float]:
        """Summed seconds per span name, plus ``cli.self`` for the root's self time."""
        out: dict[str, float] = {}
        root_children = 0.0
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
            if s.parent is not None and self.spans[s.parent].name == ROOT:
                root_children += s.end - s.start
        out["cli.self"] = out.get(ROOT, 0.0) - root_children
        return out

    def check_complete(self, algorithms):
        fired = {s.name for s in self.spans}
        missing = sorted(expected_spans(algorithms) - fired)
        if missing:
            raise TraceError(f"expected spans never fired: {', '.join(missing)}")


def expected_spans(algorithms) -> set[str]:
    """Spans every experiment running ``algorithms`` must record."""
    skipped = set() if "fsrk" in algorithms else {"fuzzysoft.fuzzify", "clustering.fsrk_kmeans"}
    return set(LAYER_FUNCTIONS.values()) - skipped


def _boundary_genes(result, n) -> int:
    """Genes in no lower approximation; a crisp clustering has none."""
    if not hasattr(result, "lower"):
        return 0
    return n - sum(len(members) for members in result.lower)


def _wrap(trace: Trace, attr: str, fn):
    name = LAYER_FUNCTIONS[attr]

    if attr in ENGINES:
        def engine(data, params, *args, **kwargs):
            with trace.span(name) as s:
                result = fn(data, params, *args, **kwargs)
            X = np.asarray(getattr(data, "values", data))
            trace.engine_calls.append(EngineCall(
                engine=attr, seconds=s.end - s.start, n=X.shape[0], k=params.k,
                m=X.shape[1], iterations=result.iterations,
                converged=bool(result.converged), boundary=_boundary_genes(result, X.shape[0]),
            ))
            return result
        return engine

    if attr == "db_index":
        def db_index(*args, **kwargs):
            with trace.span(name):
                try:
                    return fn(*args, **kwargs)
                except ValidityError:
                    trace.validity_errors += 1
                    raise
        return db_index

    def layer(*args, **kwargs):
        with trace.span(name):
            return fn(*args, **kwargs)
    return layer


@contextmanager
def traced(cli_module, trace: Trace):
    """Swap every layer function in ``cli_module`` for a span-recording wrapper."""
    absent = [attr for attr in LAYER_FUNCTIONS if not hasattr(cli_module, attr)]
    if absent:
        raise TraceError(f"genecluster.cli no longer has: {', '.join(absent)}")
    originals = {attr: getattr(cli_module, attr) for attr in LAYER_FUNCTIONS}
    try:
        for attr, fn in originals.items():
            setattr(cli_module, attr, _wrap(trace, attr, fn))
        yield trace
    finally:
        for attr, fn in originals.items():
            setattr(cli_module, attr, fn)
