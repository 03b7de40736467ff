"""Ensemble inference, accuracy, and pairwise comparison statistics.

The comparison report follows the multi-comparison-matrix convention:
classifiers are ranked by mean accuracy over datasets, and every pair is
summarized by its mean accuracy difference, win/tie/loss counts and a
two-sided Wilcoxon signed-rank p-value with a 0.05 significance flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrayio import write_json, write_text
from .data import TimeSeriesDataset
from .errors import ConfigError, FormatError, InputError, UsageError
from .model import LiteModel, _eval_outputs

__all__ = [
    "ensemble_predict",
    "ensemble_accuracy",
    "prefix_accuracies",
    "accuracy",
    "wilcoxon_signed_rank",
    "WilcoxonResult",
    "ResultsTable",
    "MCMReport",
    "mcm",
    "format_p_value",
]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _member_probs(models: list[LiteModel], x) -> np.ndarray:
    """Every member's eval-mode softmax outputs, shape (K, N, Cls)."""
    if not models:
        raise UsageError("an ensemble needs at least one model")
    n_classes = {m.n_classes for m in models}
    if len(n_classes) != 1:
        raise ConfigError(f"members disagree on class count: {sorted(n_classes)}")
    x = np.asarray(x, dtype=np.float64)
    return np.stack([_softmax(_eval_outputs(m, x)[0]) for m in models])


def _sorted_mean(stacked: np.ndarray) -> np.ndarray:
    # Summing each cell in sorted order makes the mean independent of the
    # member order, bit for bit. Sorts ``stacked`` in place.
    stacked.sort(axis=0)
    return stacked.sum(axis=0) / stacked.shape[0]


def ensemble_predict(models: list[LiteModel], x: np.ndarray) -> np.ndarray:
    """Mean of the members' eval-mode softmax outputs, shape (N, Cls).

    The per-cell probabilities are accumulated in sorted order, so the
    result is bit-identical under any permutation of ``models``. Predicted
    classes are the argmax per row; ties resolve to the lowest index.
    """
    return _sorted_mean(_member_probs(models, x))


def accuracy(predicted: np.ndarray, true: np.ndarray) -> float:
    """Fraction of matching class indices."""
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.shape != true.shape:
        raise UsageError(f"length mismatch: {predicted.shape} vs {true.shape}")
    if predicted.size == 0:
        raise UsageError("accuracy of an empty prediction set is undefined")
    return float((predicted == true).mean())


def _split_probs(models: list[LiteModel], ds: TimeSeriesDataset) -> np.ndarray:
    if models and models[0].n_classes != ds.n_classes:
        raise ConfigError(f"members were trained for {models[0].n_classes} classes, "
                          f"{ds.name} has {ds.n_classes}")
    return _member_probs(models, ds.X)


def ensemble_accuracy(models: list[LiteModel], ds: TimeSeriesDataset):
    """(ensemble accuracy, per-member accuracies) on one dataset split.

    Each member runs at most one forward over the split: none when it last
    ran over the same values in the same state, as ``_eval_outputs`` keeps
    its logits. The ensemble mean is built from those outputs exactly as
    :func:`ensemble_predict` builds it. Members trained for another class
    count than the split's are a :class:`ConfigError`.
    """
    stacked = _split_probs(models, ds)
    members = [accuracy(p.argmax(axis=1), ds.y) for p in stacked]
    ens = accuracy(_sorted_mean(stacked).argmax(axis=1), ds.y)
    return ens, members


def prefix_accuracies(models: list[LiteModel], ds: TimeSeriesDataset) -> list[float]:
    """Accuracies on ``ds`` of the ensembles ``models[:1]``, ``models[:2]``, ...,
    each mean built exactly as by :func:`ensemble_predict`.

    Each member runs at most one forward; its logits and pooled features
    stay memoized on it, so a following :func:`ensemble_accuracy` or
    ``diversity.feature_statistics`` over the same split forwards nothing.
    """
    stacked = _split_probs(models, ds)
    return [accuracy(_sorted_mean(stacked[:k].copy()).argmax(axis=1), ds.y)
            for k in range(1, len(models) + 1)]


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float
    method: str
    n_effective: int
    degenerate: bool


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_two_sided_p(doubled_ranks: np.ndarray, doubled_stat: int) -> float:
    # Distribution of the doubled positive-rank sum over all 2^n equally
    # likely sign assignments, built by convolving one rank at a time.
    # Doubling makes tied (half-integer) average ranks exact integers.
    counts = np.zeros(int(doubled_ranks.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:counts.size - r]
        counts = counts + shifted
    n_le = int(counts[:doubled_stat + 1].sum())
    n_ge = int(counts[doubled_stat:].sum())
    return min(1.0, 2.0 * min(n_le, n_ge) / float(2 ** doubled_ranks.size))


def wilcoxon_signed_rank(a, b, exact_threshold: int = 25) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped. Absolute differences receive average
    ranks; the reported statistic is min(W+, W-). With at most
    ``exact_threshold`` effective pairs the p-value comes from exact
    enumeration of the signed-rank distribution (ties included exactly);
    beyond that a normal approximation with tie-corrected variance and a
    continuity correction is used. All differences zero yields p = 1.0
    with the degenerate flag set.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise UsageError("wilcoxon_signed_rank expects two equal-length vectors")
    if a.size == 0:
        raise UsageError("empty samples")
    diff = a - b
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return WilcoxonResult(0.0, 1.0, "degenerate", 0, True)

    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = n * (n + 1) / 2.0 - w_plus
    stat = min(w_plus, w_minus)

    if n <= exact_threshold:
        r2 = np.rint(2.0 * ranks).astype(np.int64)
        p = _exact_two_sided_p(r2, int(round(2.0 * w_plus)))
        return WilcoxonResult(stat, p, "exact", n, False)

    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(diff), return_counts=True)
    tie_term = float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum())
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    if var <= 0:
        return WilcoxonResult(stat, 1.0, "degenerate", n, True)
    # Continuity correction: shrink the deviation by 0.5 toward zero.
    z = max(abs(w_plus - mu) - 0.5, 0.0) / math.sqrt(var)
    p = math.erfc(z / math.sqrt(2.0))
    return WilcoxonResult(stat, min(1.0, p), "normal", n, False)


# ---------------------------------------------------------------------------
# results tables and the comparison report


@dataclass
class ResultsTable:
    """Accuracy per (classifier, dataset), averaged over runs."""

    classifiers: list[str]
    datasets: list[str]
    acc: np.ndarray  # shape (n_classifiers, n_datasets), values in [0, 1]

    def __post_init__(self):
        self.acc = np.asarray(self.acc, dtype=np.float64)
        if self.acc.shape != (len(self.classifiers), len(self.datasets)):
            raise InputError(f"accuracy matrix shape {self.acc.shape} does not match "
                             f"{len(self.classifiers)} classifiers x {len(self.datasets)} datasets")
        if not np.isfinite(self.acc).all() or (self.acc < 0).any() or (self.acc > 1).any():
            raise InputError("accuracies must be finite values in [0, 1]")

    def to_csv(self, path) -> None:
        lines = ["dataset," + ",".join(self.classifiers)]
        for j, ds in enumerate(self.datasets):
            lines.append(ds + "," + ",".join(f"{v:.17g}" for v in self.acc[:, j]))
        write_text(path, lines)

    @classmethod
    def from_csv(cls, path) -> "ResultsTable":
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.strip() for line in fh if line.strip()]
        if len(rows) < 2:
            raise FormatError(f"{path}: results table needs a header and data rows")
        header = rows[0].split(",")
        if len(header) < 2 or header[0] != "dataset":
            raise FormatError(f"{path}: header must be 'dataset,<classifier>,...'")
        classifiers = header[1:]
        datasets, values = [], []
        for row in rows[1:]:
            fields = row.split(",")
            if len(fields) != len(header):
                raise FormatError(f"{path}: row {fields[0]!r} has {len(fields) - 1} cells, "
                                  f"expected {len(classifiers)}")
            datasets.append(fields[0])
            try:
                values.append([float(v) for v in fields[1:]])
            except ValueError as exc:
                raise FormatError(f"{path}: non-numeric accuracy in row {fields[0]!r}") from exc
        try:
            return cls(classifiers, datasets, np.asarray(values).T)
        except InputError as exc:
            raise FormatError(f"{path}: {exc}") from exc


@dataclass
class MCMReport:
    """Pairwise comparison of classifiers, ordered by descending mean accuracy.

    For indices a, b into ``classifiers``: wins[a, b] counts datasets where
    a's accuracy strictly exceeds b's, ties require exact equality, and
    mean_difference[a, b] == -mean_difference[b, a]. p_values is symmetric
    with a unit diagonal; ``significant`` marks p < alpha.
    """

    classifiers: list[str]
    mean_accuracy: np.ndarray
    mean_difference: np.ndarray
    wins: np.ndarray
    ties: np.ndarray
    losses: np.ndarray
    p_values: np.ndarray
    significant: np.ndarray
    alpha: float = 0.05

    def to_json_dict(self) -> dict:
        k = len(self.classifiers)
        pairwise = []
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                pairwise.append({
                    "classifier": self.classifiers[i],
                    "against": self.classifiers[j],
                    "mean_difference": self.mean_difference[i, j],
                    "wins": int(self.wins[i, j]),
                    "ties": int(self.ties[i, j]),
                    "losses": int(self.losses[i, j]),
                    "p_value": self.p_values[i, j],
                    "significant": bool(self.significant[i, j]),
                })
        return {
            "alpha": self.alpha,
            "classifiers": list(self.classifiers),
            "mean_accuracy": [float(v) for v in self.mean_accuracy],
            "pairwise": pairwise,
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def matrix_csv(self, path) -> None:
        """Plot-ready pairwise grid: mean difference, W/T/L and p per cell."""
        lines = ["classifier," + ",".join(self.classifiers)]
        k = len(self.classifiers)
        for i in range(k):
            cells = []
            for j in range(k):
                if i == j:
                    cells.append("-")
                else:
                    cells.append(f"{self.mean_difference[i, j]:+.4f}"
                                 f"|{int(self.wins[i, j])}/{int(self.ties[i, j])}"
                                 f"/{int(self.losses[i, j])}"
                                 f"|p={self.p_values[i, j]:.4g}")
            lines.append(self.classifiers[i] + "," + ",".join(cells))
        write_text(path, lines)


def format_p_value(p: float, floor: float = 1e-12) -> str:
    """Render a p-value, reporting underflow as '< 1e-12' rather than 0."""
    return f"< {floor:g}" if p < floor else f"{p:.6g}"


def mcm(table: ResultsTable) -> MCMReport:
    """Build the pairwise comparison report for a results table."""
    k = len(table.classifiers)
    if k < 2:
        raise UsageError("comparing classifiers requires at least two of them")
    mean_acc = table.acc.mean(axis=1)
    order = np.argsort(-mean_acc, kind="stable")
    names = [table.classifiers[i] for i in order]
    acc = table.acc[order]
    mean_sorted = mean_acc[order]

    # The mean of per-dataset differences equals the difference of means.
    mean_diff = mean_sorted[:, None] - mean_sorted[None, :]
    wins = (acc[:, None, :] > acc[None, :, :]).sum(axis=2).astype(np.int64)
    ties = (acc[:, None, :] == acc[None, :, :]).sum(axis=2).astype(np.int64)
    losses = (acc[:, None, :] < acc[None, :, :]).sum(axis=2).astype(np.int64)
    np.fill_diagonal(wins, 0)
    np.fill_diagonal(ties, 0)
    np.fill_diagonal(losses, 0)

    p = np.ones((k, k), dtype=np.float64)
    for i in range(k):
        for j in range(i + 1, k):
            p[i, j] = p[j, i] = wilcoxon_signed_rank(acc[i], acc[j]).p_value
    significant = p < 0.05
    np.fill_diagonal(significant, False)

    return MCMReport(classifiers=names, mean_accuracy=mean_sorted,
                     mean_difference=mean_diff, wins=wins, ties=ties, losses=losses,
                     p_values=p, significant=significant)
