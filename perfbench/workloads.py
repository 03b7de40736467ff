"""Workload definitions, input set-up and one round of the measured pipeline.

Every workload runs the same pipeline, the one the package exists for:
grow a decorrelated ensemble (``build_ensemble(kind="deco")``, which
writes each member's checkpoints), reload the members from those
checkpoints and score them with ``ensemble_accuracy``, then run the
diversity analysis and the multi-comparison report. The workloads differ
in shape, which decides the layer that dominates.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from decolite import data, diversity, evaluation, model, training

DATASET = "Synthetic"
N_CLASSIFIERS = 8
TABLE_SIZES = (128, 20)  # datasets per results table: normal and exact Wilcoxon


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    length: int
    batch_size: int
    members: int
    epochs: int
    n_test: int


WORKLOADS = {w.name: w for w in (
    # BirdChicken's shape, one batch per epoch: dilated depthwise convolutions
    # and batch norm dominate and per-op overhead is small, so a kernel
    # rewrite shows here.
    Workload("deco-long", n_train=20, length=512, batch_size=64, members=3, epochs=3,
             n_test=20),
    # Many short steps into a 5-member chain: per-op Python cost, the graph
    # walk, Adam, the orthogonality loss against up to four predecessors and
    # their re-forwards dominate; a kernel rewrite should move little here.
    Workload("deco-short", n_train=256, length=32, batch_size=16, members=5, epochs=1,
             n_test=256),
    # A brief chain, then a long test split: eval forwards (each member runs
    # twice in ensemble_accuracy), checkpoint reload and the diversity
    # analysis dominate, with no backward pass.
    Workload("eval-analyze", n_train=8, length=512, batch_size=8, members=5, epochs=1,
             n_test=32),
)}


@dataclass
class Inputs:
    train: data.TimeSeriesDataset
    test: data.TimeSeriesDataset
    tables: list[evaluation.ResultsTable]


def results_tables(seed: int) -> list[evaluation.ResultsTable]:
    """Synthetic classifiers x datasets accuracy tables for the comparison report.

    The 128-dataset table is rounded to whole percents, so it has tied and
    zero differences (normal-approximation Wilcoxon); the 20-dataset table
    keeps continuous values (exact Wilcoxon without ties).
    """
    rng = np.random.default_rng((seed, 11))
    names = [f"clf{i}" for i in range(N_CLASSIFIERS)]
    tables = []
    for n, rounded in zip(TABLE_SIZES, (True, False)):
        base = rng.uniform(0.55, 0.9, n)
        acc = (base[None, :] + rng.normal(0.0, 0.02, (N_CLASSIFIERS, 1))
               + rng.normal(0.0, 0.03, (N_CLASSIFIERS, n)))
        acc = np.clip(acc, 0.0, 1.0)
        if rounded:
            acc = np.round(acc * 100.0) / 100.0
        tables.append(evaluation.ResultsTable(names, [f"ds{j}" for j in range(n)], acc))
    return tables


def _write_ucr(path: Path, ds: data.TimeSeriesDataset) -> None:
    rows = [f"{label}\t" + "\t".join(f"{v:.17g}" for v in series)
            for label, series in zip(ds.y, ds.X[:, 0, :])]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def setup(spec: Workload, seed: int, work: Path) -> Inputs:
    """Generate the splits, write them in UCR TSV layout and ingest them back."""
    train = data.synthetic_trend_dataset(spec.n_train, spec.length, seed, "train")
    test = data.synthetic_trend_dataset(spec.n_test, spec.length, seed, "test")
    folder = work / "ucr" / DATASET
    folder.mkdir(parents=True, exist_ok=True)
    _write_ucr(folder / f"{DATASET}_TRAIN.tsv", train)
    _write_ucr(folder / f"{DATASET}_TEST.tsv", test)
    loaded = data.load_dataset(work / "ucr", DATASET)
    for made, read in zip((train, test), loaded):
        if not (np.array_equal(made.y, read.y)
                and np.allclose(made.X, read.X, rtol=0.0, atol=1e-9)):
            raise RuntimeError(f"UCR TSV round trip changed the {made.split} split")
    return Inputs(*loaded, results_tables(seed))


def warm_up(inputs: Inputs, work: Path) -> None:
    """A miniature round, untimed, so that first-call costs stay out of the rounds."""
    tiny = Workload("warm-up", n_train=4, length=inputs.train.length, batch_size=4,
                    members=2, epochs=1, n_test=4)
    small = Inputs(_head(inputs.train, 4), _head(inputs.test, 4), inputs.tables)
    out = run_round(tiny, small, 0, work / "warm-up", lambda name: nullcontext())
    if out.error:
        raise RuntimeError(f"warm-up round failed: {out.error}")


def _head(ds: data.TimeSeriesDataset, n: int) -> data.TimeSeriesDataset:
    return replace(ds, X=ds.X[:n], y=ds.y[:n], Y=ds.Y[:n])


def op_names(spec: Workload) -> list[str]:
    """The operations one round attempts, in the order it attempts them."""
    k = spec.members
    return ([f"train.member{i}" for i in range(k)]
            + ["eval.ensemble_accuracy", "eval.ensemble_predict"]
            + [f"analysis.feature_statistics{i}" for i in range(k)]
            + [f"analysis.fid{i}-{j}" for i in range(k) for j in range(i + 1, k)]
            + ["analysis.filter_distance_matrix", "analysis.embed_2d"]
            + [f"analysis.mcm{n}" for n in TABLE_SIZES])


@dataclass
class RoundOutput:
    """What one round produced; a stage that raised leaves its fields unset."""

    member_dirs: list[Path]
    build: training.EnsembleBuild | None = None
    members: list[model.LiteModel] | None = None
    accuracy: tuple | None = None
    stats: list[diversity.FeatureStats] | None = None
    fids: dict | None = None
    distances: diversity.FilterDistanceMatrix | None = None
    embedding: diversity.Embedding2D | None = None
    reports: list[evaluation.MCMReport] | None = None
    train_s: float = 0.0
    eval_s: float = 0.0
    analysis_s: float = 0.0
    error: str = ""


def run_round(spec: Workload, inputs: Inputs, seed: int, work: Path, stage) -> RoundOutput:
    """Train, reload, score and analyse once; ``stage(name)`` brackets each stage.

    The wall times of the three timed stages are kept in the output. The
    round stops at the first exception and records it.
    """
    rounds_dir = work / "members"
    shutil.rmtree(rounds_dir, ignore_errors=True)
    out = RoundOutput([rounds_dir / f"member{i}" for i in range(spec.members)])
    for d in out.member_dirs:
        d.mkdir(parents=True)
    cfg = training.TrainConfig(epochs=spec.epochs, batch_size=spec.batch_size)
    seeds = [seed * spec.members + i for i in range(spec.members)]
    try:
        with stage("build"):
            tic = time.perf_counter()
            out.build = training.build_ensemble(inputs.train, cfg, spec.members, "deco",
                                                seeds=seeds, out_dirs=out.member_dirs)
            out.train_s = time.perf_counter() - tic
        with stage("eval"):
            # Scoring starts from the checkpoints, as `decolite evaluate` does.
            tic = time.perf_counter()
            out.members = [model.load_model(d / "checkpoint_best.ckpt")
                           for d in out.member_dirs]
            out.accuracy = evaluation.ensemble_accuracy(out.members, inputs.test)
            out.eval_s = time.perf_counter() - tic
        with stage("analysis"):
            tic = time.perf_counter()
            out.stats = [diversity.feature_statistics(m, inputs.test.X, f"member{i}")
                         for i, m in enumerate(out.members)]
            k = len(out.stats)
            out.fids = {(i, j): diversity.fid(out.stats[i], out.stats[j])
                        for i in range(k) for j in range(i + 1, k)}
            out.distances = diversity.filter_distance_matrix(out.members)
            out.embedding = diversity.embed_2d(out.distances)
            out.reports = [evaluation.mcm(t) for t in inputs.tables]
            out.analysis_s = time.perf_counter() - tic
    except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    return out
