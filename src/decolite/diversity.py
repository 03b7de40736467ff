"""Diversity analysis between trained models.

Two complementary views: the Frechet distance between Gaussians fitted to
the models' pooled final-block features (how differently two models embed
the same data), and dynamic-time-warping distances between the learned
final-layer filters, with a classical-MDS projection to two dimensions
for plotting. The raw distance matrix is exportable so that external
embedding tools can be applied to the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrayio import write_json, write_text
from .errors import ConfigError, InputError, NumericError, UsageError
from .model import LiteModel, _eval_outputs, extract_final_filters

__all__ = [
    "FeatureStats",
    "feature_statistics",
    "fid",
    "dtw",
    "FilterDistanceMatrix",
    "filter_distance_matrix",
    "Embedding2D",
    "embed_2d",
    "write_fid_report",
]

_EIG_CLAMP = 1e-10
_SYM_TOL = 1e-9
_DTW_BLOCK_BYTES = 1 << 20  # one DTW sweep's buffers, sized to stay in L2 cache


@dataclass
class FeatureStats:
    """Gaussian summary (mean, covariance) of one model's pooled features."""

    model_id: str
    mu: np.ndarray
    sigma: np.ndarray
    n_samples: int

    def to_json_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "n_samples": self.n_samples,
            "mu": [float(v) for v in self.mu],
            "sigma": [[float(v) for v in row] for row in self.sigma],
        }


def feature_statistics(model: LiteModel, x: np.ndarray,
                       model_id: str = "") -> FeatureStats:
    """Fit mean and unbiased covariance to time-pooled eval-mode features.

    Features are the per-channel time averages of the final block's
    output, one vector per sample. The forwards run in chunks, so memory
    does not grow with the number of samples. The pooled features come
    from ``_eval_outputs``, which memoizes the model's last eval pass on
    it: after :func:`evaluation.ensemble_accuracy` over the same values in
    the same state, no forward runs here.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise UsageError("feature statistics need at least two samples")
    pooled = _eval_outputs(model, x)[1]
    mu = pooled.mean(axis=0)
    sigma = np.cov(pooled, rowvar=False, ddof=1)
    return FeatureStats(model_id=model_id, mu=mu, sigma=np.atleast_2d(sigma),
                        n_samples=x.shape[0])


def _psd_sqrt(sym: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(sym)
    w = np.where(w < _EIG_CLAMP, 0.0, w)
    return (v * np.sqrt(w)) @ v.T


def fid(stats_a: FeatureStats, stats_b: FeatureStats) -> float:
    """Frechet distance between the two fitted Gaussians.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken through the eigendecomposition of the symmetrized
    product S_a^{1/2} S_b S_a^{1/2}. Eigenvalues below 1e-10 are treated
    as zero, and a result within -1e-8 of zero is clamped to 0.
    """
    mu_a, sig_a = np.asarray(stats_a.mu), np.asarray(stats_a.sigma)
    mu_b, sig_b = np.asarray(stats_b.mu), np.asarray(stats_b.sigma)
    if mu_a.shape != mu_b.shape or sig_a.shape != sig_b.shape:
        raise InputError("feature statistics have mismatched dimensions")
    for name, sig in (("first", sig_a), ("second", sig_b)):
        if np.abs(sig - sig.T).max() > _SYM_TOL:
            raise InputError(f"{name} covariance is asymmetric beyond tolerance")
    sig_a = 0.5 * (sig_a + sig_a.T)
    sig_b = 0.5 * (sig_b + sig_b.T)

    root_a = _psd_sqrt(sig_a)
    cross = _psd_sqrt(root_a @ sig_b @ root_a)
    value = float(((mu_a - mu_b) ** 2).sum()
                  + np.trace(sig_a) + np.trace(sig_b) - 2.0 * np.trace(cross))
    if value < 0.0:
        if value < -1e-8:
            raise NumericError(f"Frechet distance came out negative ({value:.3e})")
        value = 0.0
    return value


# ---------------------------------------------------------------------------
# dynamic time warping


def dtw(a, b) -> float:
    """Alignment cost between two sequences: squared pointwise differences
    accumulated over the best boundary-constrained monotone warping path,
    with no window constraint and no final square root."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise UsageError("dtw requires non-empty sequences")
    return float(_dtw_batch(a[None], b[None])[0])


def _dtw_batch(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """dtw() per row pair of a (P, n) and a (P, m) stack, vectorized over
    pairs.

    The recurrence is swept one anti-diagonal ``d = i + j`` at a time:
    every cell of a diagonal depends only on the two diagonals before it,
    so a diagonal is a handful of ufunc calls over all of its cells and a
    block of pairs at once. The sweep keeps three rotating (n+1, pairs)
    diagonals, indexed by row ``i`` with the pair axis last, and one
    (n, pairs) scratch buffer, whatever m is. Blocks of pairs are sized so
    that those four buffers take about ``_DTW_BLOCK_BYTES`` and stay in
    cache. Off-table cells and the boundary row and column read as
    ``inf``.

    Each cell is the same float64 arithmetic as the textbook table: the
    cost ``(a_i - b_j)`` squared as one product, plus the least of the
    cell's three predecessors. ``min`` is exact, in any order, on values
    that are all ``+0``, positive or ``inf``, so the results are
    bit-identical to filling the table one cell at a time
    (``oracles.dtw_dp``).
    """
    n = left.shape[1]
    lcols = np.ascontiguousarray(left.T, dtype=np.float64)
    rcols = np.ascontiguousarray(right.T, dtype=np.float64)[::-1]  # b_j at row m - j
    out = np.empty(left.shape[0])
    step = max(1, _DTW_BLOCK_BYTES // (4 * 8 * (n + 1)))
    for s in range(0, out.size, step):
        out[s:s + step] = _dtw_sweep(lcols[:, s:s + step], rcols[:, s:s + step])
    return out


def _dtw_sweep(lcols: np.ndarray, rcols: np.ndarray) -> np.ndarray:
    """The anti-diagonal sweep over (n, P) columns and reversed (m, P) ones."""
    n, m = lcols.shape[0], rcols.shape[0]
    # Diagonal 0 holds acc[0, 0] = 0, diagonal 1 only boundary cells.
    older, prev, cur = (np.full((n + 1, lcols.shape[1]), np.inf) for _ in range(3))
    older[0] = 0.0
    best = np.empty((n, lcols.shape[1]))
    for d in range(2, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        cells = cur[lo:hi + 1]
        np.subtract(lcols[lo - 1:hi], rcols[m - d + lo:m - d + hi + 1], out=cells)
        np.multiply(cells, cells, out=cells)
        b = best[:hi - lo + 1]
        np.minimum(prev[lo - 1:hi], prev[lo:hi + 1], out=b)  # up, left
        np.minimum(b, older[lo - 1:hi], out=b)               # diagonal
        np.add(cells, b, out=cells)
        # The next two diagonals also read the cells just outside [lo, hi].
        # Above hi, which grows by one per diagonal up to n, no cell has
        # been written yet; below lo, cur still holds diagonal d - 3.
        cur[lo - 1] = np.inf
        older, prev, cur = prev, cur, older
    return prev[n]


@dataclass
class FilterDistanceMatrix:
    """Symmetric pairwise distances over every (model, filter) pair."""

    labels: list[tuple[str, int]]
    values: np.ndarray

    def to_csv(self, path) -> None:
        names = [f"{m}:{i}" for m, i in self.labels]
        lines = ["filter," + ",".join(names)]
        for name, row in zip(names, self.values):
            lines.append(name + "," + ",".join(f"{v:.17g}" for v in row))
        write_text(path, lines)


def filter_distance_matrix(models: list[LiteModel],
                           model_ids: list[str] | None = None) -> FilterDistanceMatrix:
    """All-pairs warping distances between the models' final filter banks."""
    if not models:
        raise UsageError("filter_distance_matrix needs at least one model")
    if model_ids is None:
        model_ids = [f"model{i}" for i in range(len(models))]
    if len(model_ids) != len(models):
        raise UsageError("one id per model is required")
    banks = [extract_final_filters(m) for m in models]
    shapes = {b.shape for b in banks}
    if len(shapes) != 1:
        raise ConfigError(f"models have inconsistent filter shapes: {sorted(shapes)}")
    stacked = np.concatenate(banks, axis=0)
    labels = [(mid, i) for mid, bank in zip(model_ids, banks)
              for i in range(bank.shape[0])]

    n = stacked.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    values = np.zeros((n, n), dtype=np.float64)
    if iu.size:
        # Gathered as (len, P) columns, the sweep's pair-last layout, so
        # that _dtw_batch makes no second copy.
        dists = _dtw_batch(np.take(stacked.T, iu, axis=1).T,
                           np.take(stacked.T, ju, axis=1).T)
        values[iu, ju] = dists
        values[ju, iu] = dists
    return FilterDistanceMatrix(labels=labels, values=values)


# ---------------------------------------------------------------------------
# classical multidimensional scaling


@dataclass
class Embedding2D:
    coords: np.ndarray
    degenerate: bool

    def to_csv(self, path, labels=None) -> None:
        lines = ["label,x,y"]
        for i, (x, y) in enumerate(self.coords):
            name = labels[i] if labels is not None else str(i)
            lines.append(f"{name},{x:.17g},{y:.17g}")
        write_text(path, lines)


def embed_2d(matrix) -> Embedding2D:
    """Classical MDS of a distance matrix onto two axes.

    Double-centers the squared distances, keeps the top two non-negative
    eigenpairs, and fixes each axis's sign so that its first coordinate of
    visible magnitude is positive. An all-zero matrix flags the embedding
    as degenerate and places every point at the origin.
    """
    d = matrix.values if isinstance(matrix, FilterDistanceMatrix) else np.asarray(matrix)
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise UsageError("embed_2d expects a square distance matrix")
    n = d.shape[0]
    if n < 3:
        raise UsageError("embedding needs at least three points")
    if np.abs(d).max() == 0.0:
        return Embedding2D(coords=np.zeros((n, 2)), degenerate=True)

    sq = d * d
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    gram = -0.5 * centering @ sq @ centering
    gram = 0.5 * (gram + gram.T)
    w, v = np.linalg.eigh(gram)
    # Eigenvalues that are pure round-off of the double centering would
    # otherwise leak sqrt-amplified noise into a degenerate axis.
    w[w < 1e-12 * max(1.0, np.abs(w).max())] = 0.0
    top = np.argsort(w)[::-1][:2]
    coords = v[:, top] * np.sqrt(w[top])
    for axis in range(2):
        col = coords[:, axis]
        visible = np.nonzero(np.abs(col) > 1e-12)[0]
        if visible.size and col[visible[0]] < 0:
            coords[:, axis] = -col
    return Embedding2D(coords=coords, degenerate=False)


def write_fid_report(stats: list[FeatureStats], path) -> dict:
    """Pairwise Frechet distances between models, persisted as JSON."""
    report = {
        "models": [s.model_id for s in stats],
        "pairs": [
            {"a": stats[i].model_id, "b": stats[j].model_id,
             "fid": fid(stats[i], stats[j])}
            for i in range(len(stats)) for j in range(i + 1, len(stats))
        ],
    }
    write_json(path, report)
    return report
