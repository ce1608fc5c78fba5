"""Benchmark workloads and their seeded synthetic inputs.

Each workload is one fixed ``run_experiment`` configuration over a generated
expression matrix in the package's TSV layout (written with the test suite's
``conftest.write_dataset``) plus a two-column label file. Genes are drawn
from co-expression modules: every module has its own sample profile, and a
gene's log2 level is its module's profile scaled by a per-gene amplitude,
lifted by a per-gene offset and blurred by noise. A fraction of genes also
carries a per-class shift, so information-gain ranking, iteration counts and
rough boundary sizes behave like real data rather than pure noise.

The values written are on the raw scale of the paper's Affymetrix Hu6800
datasets, as the leukemia set of Golub et al. (1999) is distributed:
unlogged average-difference intensities, whole numbers, negative for genes
near background. So each value is 2 to the power of its log2 level, plus an
additive background term, rounded to a whole number.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conftest import write_dataset

N_MODULES = 12
CLASS_GENE_FRAC = 0.1
BACKGROUND_SD = 60.0  # additive background noise of the raw intensities


@dataclass(frozen=True)
class Workload:
    name: str
    n_genes: int
    class_sizes: tuple[int, ...]
    top_genes: int | None
    k: int
    restarts: int
    datasets: int
    algorithms: tuple[str, ...] = ("kmeans", "rough", "fsrk")
    max_iter: int = 100

    @property
    def n_samples(self) -> int:
        return sum(self.class_sizes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="paper-562", n_genes=7129, class_sizes=(20, 14), top_genes=562, k=2,
                 restarts=5, datasets=5),
        Workload(
            name="genome-k10", n_genes=7129, class_sizes=(20, 14), top_genes=None, k=10,
            restarts=3, datasets=3,
            # Engines at k=10 take 37 to 100 iterations depending on the data;
            # a cap they always reach makes the work the same for every seed.
            max_iter=25,
        ),
        Workload(
            name="restarts-k4", n_genes=7457, class_sizes=(13, 12, 12), top_genes=594, k=4,
            restarts=20, datasets=4,
            # Between 5% and 90% of a dataset's fsrk restarts cycle to the cap,
            # so the cap sets how much the work varies from seed to seed.
            max_iter=30,
        ),
    )
}


@dataclass(frozen=True)
class Dataset:
    """The generated values exactly as written, plus where they were written."""

    values: np.ndarray
    classes: tuple[str, ...]
    matrix_path: Path
    labels_path: Path


def expression_values(workload: Workload, seed: int,
                      index: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Values and sample class tags of dataset ``index`` of run ``seed``."""
    rng = np.random.default_rng([seed, index, workload.n_genes, workload.n_samples])
    n, m = workload.n_genes, workload.n_samples
    classes = np.repeat(np.arange(len(workload.class_sizes)), workload.class_sizes)
    rng.shuffle(classes)

    profiles = rng.normal(0.0, 1.0, size=(N_MODULES, m))
    module = rng.integers(0, N_MODULES, size=n)
    offset = rng.normal(7.0, 1.5, size=n)
    amplitude = rng.uniform(0.3, 1.5, size=n)
    log2 = offset[:, None] + amplitude[:, None] * profiles[module]
    log2 += rng.normal(0.0, 0.3, size=(n, m))

    shifted = rng.random(n) < CLASS_GENE_FRAC
    class_effect = rng.normal(0.0, 1.0, size=(shifted.sum(), len(workload.class_sizes)))
    log2[shifted] += class_effect[:, classes] * amplitude[shifted, None]
    values = np.round(np.exp2(log2) + rng.normal(0.0, BACKGROUND_SD, size=(n, m)))
    return values, tuple(f"c{c}" for c in classes)


def generate(workload: Workload, seed: int, index: int, directory: Path) -> Dataset:
    """Write dataset ``index`` of run ``seed`` for ``workload`` into ``directory``.

    The values are whole numbers, so the returned array equals what any exact
    parser reads back from the file.
    """
    values, classes = expression_values(workload, seed, index)
    directory.mkdir(parents=True, exist_ok=True)
    matrix_path, labels_path = write_dataset(directory, values, classes,
                                             stem=f"{workload.name}-{index}")
    return Dataset(values, classes, matrix_path, labels_path)
