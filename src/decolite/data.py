"""Dataset ingestion: UCR-archive TSV files, z-normalization, batching.

Also provides the bundled synthetic two-class set used by the offline
smoke checks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, UsageError

__all__ = [
    "TimeSeriesDataset",
    "load_ucr_split",
    "load_dataset",
    "z_normalize",
    "interpolate_missing",
    "handle_irregular",
    "batch_indices",
    "synthetic_trend_dataset",
    "resolve_data_root",
]

DATA_ROOT_ENV = "DECO_DATA_ROOT"
_STD_GUARD = 1e-8


@dataclass
class TimeSeriesDataset:
    """z-normalized series (N, 1, T) with integer and one-hot labels."""

    name: str
    split: str
    X: np.ndarray
    y: np.ndarray
    Y: np.ndarray
    label_map: dict[float, int]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def length(self) -> int:
        return self.X.shape[2]

    @property
    def n_classes(self) -> int:
        return len(self.label_map)


def z_normalize(series: np.ndarray) -> np.ndarray:
    """(x - mean) / std with the population std; constant series map to zeros."""
    series = np.asarray(series, dtype=np.float64)
    if series.size < 1:
        raise UsageError("cannot normalize an empty series")
    std = series.std()
    if std < _STD_GUARD:
        return np.zeros_like(series)
    return (series - series.mean()) / std


def interpolate_missing(series: np.ndarray) -> np.ndarray:
    """Fill NaNs by linear interpolation; edge NaNs take the nearest value."""
    series = np.asarray(series, dtype=np.float64)
    bad = np.isnan(series)
    if not bad.any():
        return series
    if bad.all():
        raise DataError("series consists entirely of missing values")
    idx = np.arange(series.size)
    # np.interp holds the boundary values flat, which handles edge NaNs.
    out = series.copy()
    out[bad] = np.interp(idx[bad], idx[~bad], series[~bad])
    return out


def handle_irregular(series_list: list[np.ndarray], target_length: int) -> np.ndarray:
    """Produce an equal-length z-normalized matrix from raw series.

    Missing values are interpolated first, each series is z-normalized at
    its own length, and shorter series are then right-padded with zeros
    (the mean of normalized data) up to ``target_length``. Inputs that are
    already normalized and of equal length come back unchanged up to
    float error.
    """
    fixed = [z_normalize(interpolate_missing(s)) for s in series_list]
    longest = max(s.size for s in fixed)
    if longest > target_length:
        raise DataError(f"series of length {longest} exceeds target length {target_length}")
    out = np.zeros((len(fixed), target_length), dtype=np.float64)
    for i, s in enumerate(fixed):
        out[i, :s.size] = s
    return out


def load_ucr_split(root_dir, dataset_name: str, split: str):
    """Read ``<root>/<name>/<name>_{TRAIN|TEST}.tsv``.

    Each line holds a finite label and then as many tab-separated values
    as the first line; values may contain NaN. Returns ``(series_list,
    labels)`` in row order; a malformed line is a :class:`FormatError`
    that names the file and line.
    """
    if split not in ("train", "test"):
        raise UsageError(f"split must be 'train' or 'test', got {split!r}")
    path = Path(root_dir) / dataset_name / f"{dataset_name}_{split.upper()}.tsv"
    if not path.is_file():
        raise FileNotFoundError(f"no such UCR split file: {path}")

    series: list[np.ndarray] = []
    labels: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split("\t")
            if len(tokens) < 2:
                raise FormatError(f"{path}:{lineno}: expected a label and at least one value")
            try:
                label = float(tokens[0])
                values = np.array([float(v) for v in tokens[1:]], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric field") from exc
            if not math.isfinite(label):
                raise FormatError(f"{path}:{lineno}: label {tokens[0]!r} is not finite")
            if series and values.size != series[0].size:
                raise FormatError(f"{path}:{lineno}: {values.size} values, "
                                  f"the first row has {series[0].size}")
            labels.append(label)
            series.append(values)
    if not series:
        raise FormatError(f"{path}: file holds no data rows")
    return series, labels


def _build(name, split, series, labels, label_map, target_length):
    try:  # an infinite value is reported by the finite check below, not by numpy
        with np.errstate(invalid="ignore", over="ignore"):
            x = handle_irregular(series, target_length)
    except DataError as exc:
        raise DataError(f"{name}/{split}: {exc}") from exc
    if label_map is None:
        label_map = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    unknown = sorted(set(labels) - set(label_map))
    if unknown:
        raise DataError(f"{name}/{split}: labels {unknown} do not appear in the training split")
    y = np.array([label_map[lab] for lab in labels], dtype=np.int64)
    onehot = np.zeros((len(labels), len(label_map)), dtype=np.float64)
    onehot[np.arange(len(labels)), y] = 1.0
    ds = TimeSeriesDataset(name=name, split=split, X=x[:, None, :], y=y, Y=onehot,
                           label_map=label_map)
    if ds.n < 2:
        raise DataError(f"{name}/{split}: need at least two samples")
    if not np.isfinite(ds.X).all():
        raise DataError(f"{name}/{split}: non-finite values survived ingestion")
    return ds


def load_dataset(root_dir, name: str):
    """Load a UCR dataset's train and test splits with one shared label map.

    Series are interpolated, z-normalized and padded to the train length.
    Returns ``(train, test)``; a one-class training split is a DataError.
    """
    train_series, train_labels = load_ucr_split(root_dir, name, "train")
    test_series, test_labels = load_ucr_split(root_dir, name, "test")
    target = train_series[0].size
    train = _build(name, "train", train_series, train_labels, None, target)
    if train.n_classes < 2:
        raise DataError(f"{name}/train: a classifier needs at least two classes")
    test = _build(name, "test", test_series, test_labels, train.label_map, target)
    return train, test


def batch_indices(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Shuffled index batches for one epoch, seeded by (seed, epoch).

    The last batch may be smaller; a trailing singleton is merged into the
    previous batch because batch norm needs at least two samples.
    """
    if n < 2:
        raise DataError("training requires at least two samples")
    if batch_size < 1:
        raise ConfigError("batch size must be at least 1")
    if seed < 0 or epoch < 0:
        raise ConfigError("seed and epoch must be non-negative")
    perm = np.random.default_rng((seed, epoch)).permutation(n)
    batches = [perm[i:i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def synthetic_trend_dataset(n: int = 32, length: int = 16, seed: int = 0,
                            split: str = "train") -> TimeSeriesDataset:
    """Bundled two-class set: the class is the sign of the raw series mean.

    Each raw series is an upward or downward ramp plus a low-frequency
    sinusoid and noise, so after per-series z-normalization the classes
    stay separable by shape. Generation is deterministic in (n, length,
    seed, split).
    """
    if n < 2 or n % 2:
        raise ConfigError("n must be an even number of samples, at least 2")
    if split not in ("train", "test"):
        raise UsageError(f"split must be 'train' or 'test', got {split!r}")
    rng = np.random.default_rng((seed, 7 if split == "test" else 3))
    ramp = np.linspace(0.0, 1.0, length)
    grid = np.arange(length) / length
    series = []
    labels = []
    signs = rng.permutation(np.repeat([-1.0, 1.0], n // 2))
    for s in signs:
        while True:
            freq = rng.uniform(1.0, 3.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            raw = (s * ramp + 0.4 * np.sin(2.0 * np.pi * freq * grid + phase)
                   + rng.normal(0.0, 0.15, size=length))
            if np.sign(raw.mean()) == s:
                break
        series.append(raw)
        labels.append(0.0 if s < 0 else 1.0)
    ds = _build("synthetic-trend", split, series, labels,
                {0.0: 0, 1.0: 1}, length)
    return ds


def resolve_data_root(explicit=None):
    """CLI flag value if given, else the DECO_DATA_ROOT environment variable."""
    root = explicit if explicit else os.environ.get(DATA_ROOT_ENV)
    return Path(root) if root else None
