"""Cross-entropy and decorrelated training of LITE models.

The feature-orthogonality loss measures, per sample, the absolute
pairwise cosine similarities between the channel rows of a new model's
feature map and those of every previously trained (frozen) model, in one
similarity op against the predecessors' maps stacked on the channel axis,
and sums them over distinct channel pairs. Decorrelated training adds its
average over the predecessors to the cross-entropy objective, weighted by
``alpha``:

    total = alpha * cross_entropy + (1 - alpha) * orthogonality

Training runs for a fixed number of epochs with Adam, plateau-based lr
reduction on the total training loss, and a best-training-loss checkpoint
policy. Everything is deterministic given the config seed.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path

import numpy as np

from .arrayio import arrays_checksum, write_text
from .data import TimeSeriesDataset, batch_indices
from .errors import CheckpointError, ConfigError, NumericError, ShapeError, UsageError
from .model import (LiteArchitectureConfig, LiteModel, _eval_chunks, init_model, load_model,
                    model_checksum, save_model)
from .optim import Adam, ReduceLROnPlateau
from .tensor import (Tensor, absolute, as_tensor, backward, cosine_similarity_matrix,
                     softmax_cross_entropy, sum_all)

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainLog",
    "sequential_orthogonality_loss",
    "total_loss",
    "train_base",
    "build_ensemble",
    "EnsembleBuild",
]


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters for one model; ``orth_normalization`` is
    the ``mode`` of :func:`sequential_orthogonality_loss`."""

    alpha: float = 0.5
    lr: float = 1e-3
    plateau_factor: float = 0.5
    plateau_patience: int = 50
    min_lr: float = 1e-4
    epochs: int = 1500
    batch_size: int = 64
    seed: int = 0
    orth_normalization: str = "mean"

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.plateau_patience < 1:
            raise ConfigError("plateau_patience must be at least 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.orth_normalization not in ("mean", "raw"):
            raise ConfigError("orth_normalization must be 'mean' or 'raw'")


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    ce_loss: float
    orth_loss: float
    total_loss: float
    train_accuracy: float
    seconds: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    CSV_HEADER = "epoch,lr,ce_loss,orth_loss,total_loss,train_acc,seconds"

    def append(self, rec: EpochRecord) -> None:
        self.records.append(rec)

    def to_csv(self, path) -> None:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(f"{r.epoch},{r.lr:.10g},{r.ce_loss:.17g},{r.orth_loss:.17g},"
                         f"{r.total_loss:.17g},{r.train_accuracy:.17g},{r.seconds:.6f}")
        write_text(path, lines)


# ---------------------------------------------------------------------------
# losses


def sequential_orthogonality_loss(features_new, prev_features: list, mode: str = "mean",
                                  eps: float = 1e-8) -> Tensor:
    """Feature-orthogonality penalty of a (B, C, T) map against P earlier ones.

    Each entry of ``prev_features`` holds k >= 1 predecessor maps stacked
    on the channel axis, as (B, k*C, T); the entries are stacked further
    into one constant (a lone entry is used as it is), which gets no
    gradient, and one cosine-similarity op gives the (B, C, P*C)
    similarities of the new channel rows against all P predecessors'. The
    absolute values of the distinct-pair entries (i != j within each
    predecessor's block) are summed and divided by B*P ("raw") or by
    B*P*C*(C-1) ("mean", also averaging over the pairs). Always
    non-negative, and zero when C == 1 (no distinct pairs).
    """
    if not prev_features:
        raise UsageError("sequential loss needs at least one previous feature map")
    new = as_tensor(features_new)
    prev = [f.data if isinstance(f, Tensor) else np.asarray(f, dtype=np.float64)
            for f in prev_features]
    if new.ndim != 3 or any(f.ndim != 3 or f.shape[::2] != new.shape[::2] or not f.shape[1]
                            or f.shape[1] % new.shape[1] for f in prev):
        raise ShapeError(f"expected a (B, C, T) feature map and (B, k*C, T) predecessor "
                         f"maps, got {new.shape} and {[f.shape for f in prev]}")
    if mode not in ("mean", "raw"):
        raise ConfigError(f"unknown normalization mode {mode!r}")
    bsz, c, _ = new.shape
    if c == 1:
        return Tensor(np.asarray(0.0))

    stacked = prev[0] if len(prev) == 1 else np.concatenate(prev, axis=1)
    n_prev = stacked.shape[1] // c
    sim = cosine_similarity_matrix(new, Tensor(stacked), eps=eps)
    mask = np.tile(1.0 - np.eye(c), n_prev)
    pairs = c * (c - 1) if mode == "mean" else 1
    return sum_all(absolute(sim) * mask) * (1.0 / (bsz * n_prev * pairs))


def total_loss(ce, orth, alpha: float) -> Tensor:
    """alpha-weighted blend ``alpha * ce + (1 - alpha) * orth``.

    At the boundaries the surviving term is returned unchanged (the same
    node, not a rescaled copy), so alpha=1 training is exactly plain
    cross-entropy training.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    ce = ce if isinstance(ce, Tensor) else Tensor(np.asarray(float(ce)))
    orth = orth if isinstance(orth, Tensor) else Tensor(np.asarray(float(orth)))
    if alpha == 1.0:
        return ce
    if alpha == 0.0:
        return orth
    return ce * alpha + orth * (1.0 - alpha)


# ---------------------------------------------------------------------------
# training loops


def _feature_buffer(ds: TimeSeriesDataset, channels: int) -> np.ndarray:
    """An uninitialised (N, channels, T) float64 array over an unnamed
    temporary file in the system temp directory (``TMPDIR``), freed when
    its last view goes or the process ends.

    The file's space is reserved here, so a temp directory without room
    for it raises OSError before any training rather than killing the
    process with SIGBUS when a later write finds no space. On a disk the
    OS may page the array out; where ``TMPDIR`` is a tmpfs, it is RAM.
    """
    shape = (ds.n, channels, ds.length)
    with tempfile.TemporaryFile() as fh:
        os.posix_fallocate(fh.fileno(), 0, 8 * int(np.prod(shape)))
        return np.memmap(fh, np.float64, "r+", shape=shape).view(np.ndarray)


def _frozen_features(prev: list[LiteModel], ds: TimeSeriesDataset, buf: np.ndarray,
                     start: int):
    """Eval-mode feature maps of the frozen models over the training set.

    Slot j of ``buf``, channels ``j*C:(j+1)*C``, holds the maps of
    ``prev[j]``. Slots ``start..len(prev)-1`` are filled here; the earlier
    ones were filled by an earlier call, so a chain that passes one buffer
    to every member's training forwards each member once. Returns the
    (N, P*C, T) view of the filled slots. Feature maps do not depend on
    how :func:`_eval_chunks` splits the rows, so a step's rows of it hold
    the bits of a forward over that step's batch.
    """
    c = prev[0].config.n_filters
    for j, p in enumerate(prev[start:], start):
        for rows, _, feats in _eval_chunks(p, ds.X):
            buf[rows, j * c:(j + 1) * c] = feats
    return buf[:, :len(prev) * c]


def _train_step(ds: TimeSeriesDataset, idx: np.ndarray, config: TrainConfig,
                model: LiteModel, opt: Adam, frozen: np.ndarray | None, epoch: int):
    """One optimizer step on the batch ``idx``.

    Returns plain numbers only (cross-entropy, orthogonality loss, total
    loss, correct predictions), so the step's graph, its activations and
    their gradients are freed when it returns, before the next step's
    forward pass starts.
    """
    try:
        logits, feats = model.forward(Tensor(ds.X[idx]), mode="train")
    except NumericError as exc:
        raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc
    ce = softmax_cross_entropy(logits, ds.Y[idx])
    if frozen is not None:
        # A zero-weight penalty must not touch the gradient graph, so
        # detach it when only cross-entropy counts. The predecessors' maps
        # are gathered once, already stacked, and freed when the loss returns.
        feats_for_orth = feats.detach() if config.alpha == 1.0 else feats
        orth = sequential_orthogonality_loss(feats_for_orth, [frozen[idx]],
                                             mode=config.orth_normalization)
        loss = total_loss(ce, orth, config.alpha)
        orth_value = orth.item()
    else:
        loss = ce
        orth_value = 0.0
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        raise NumericError(f"training loss diverged at epoch {epoch}")
    opt.zero_grad()
    backward(loss)
    opt.step()
    hits = int((logits.data.argmax(axis=1) == ds.y[idx]).sum())
    return ce.item(), orth_value, loss_value, hits


def _train_loop(ds: TimeSeriesDataset, config: TrainConfig, model: LiteModel,
                prev_models: list[LiteModel], out_dir=None, buf=None, start: int = 0):
    """Train ``model`` against ``prev_models``, whose training-set maps go
    into the caller's buffer ``buf`` through :func:`_frozen_features`,
    which forwards the models from ``start`` on once the config is valid."""
    config.validate()
    if out_dir is not None:
        # The best checkpoint, written last, marks a finished member.
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "checkpoint_best.ckpt").unlink(missing_ok=True)
    frozen = _frozen_features(prev_models, ds, buf, start) if prev_models else None

    opt = Adam(model.trainable_parameters(), lr=config.lr)
    sched = ReduceLROnPlateau(opt, factor=config.plateau_factor,
                              patience=config.plateau_patience, min_lr=config.min_lr)
    log = TrainLog()
    best = np.inf
    best_state = model.state_arrays()

    for epoch in range(config.epochs):
        tic = time.perf_counter()
        lr_now = opt.lr
        ce_sum = orth_sum = total_sum = 0.0
        correct = 0
        for idx in batch_indices(ds.n, config.batch_size, config.seed, epoch):
            ce, orth, total, hits = _train_step(ds, idx, config, model, opt, frozen, epoch)
            nb = idx.size
            ce_sum += ce * nb
            orth_sum += orth * nb
            total_sum += total * nb
            correct += hits

        epoch_total = total_sum / ds.n
        log.append(EpochRecord(epoch=epoch, lr=lr_now, ce_loss=ce_sum / ds.n,
                               orth_loss=orth_sum / ds.n, total_loss=epoch_total,
                               train_accuracy=correct / ds.n,
                               seconds=time.perf_counter() - tic))
        if epoch_total < best:
            best = epoch_total
            best_state = model.state_arrays()
        sched.step(epoch_total)

    if out_dir is not None:
        record = _train_record(ds, config, prev_models)
        save_model(model, out_dir / "checkpoint_last.ckpt", record)
        log.to_csv(out_dir / "train_log.csv")
    # The last step's gradients belong to parameters that best_state replaces.
    opt.zero_grad()
    model.load_state_arrays(best_state)
    if out_dir is not None:
        save_model(model, out_dir / "checkpoint_best.ckpt", record)
    return model, log


def _train_record(ds: TimeSeriesDataset, config: TrainConfig,
                  prev_models: list[LiteModel]) -> dict:
    """What a member's training depends on: its config, its training data
    and its frozen predecessors in order. Without predecessors ``alpha``
    and ``orth_normalization`` are unused, so they are recorded at their
    defaults."""
    if not prev_models:
        config = replace(config, alpha=TrainConfig.alpha,
                         orth_normalization=TrainConfig.orth_normalization)
    return {"config": asdict(config), "data": arrays_checksum({"X": ds.X, "y": ds.y}),
            "predecessors": [model_checksum(p) for p in prev_models]}


def train_base(ds: TimeSeriesDataset, config: TrainConfig, out_dir=None):
    """Train one model with cross-entropy only; returns the best checkpoint.

    The log's orthogonality column is zero throughout. When ``out_dir`` is
    given, best/last checkpoints and the log CSV are written there.
    """
    model = init_model(LiteArchitectureConfig(), ds.n_classes, config.seed)
    return _train_loop(ds, config, model, [], out_dir)


def _reusable(out_dir, ds: TimeSeriesDataset, config: TrainConfig,
              prev_models: list[LiteModel]):
    """The finished member in ``out_dir`` if it records the training record
    this member would get and fits the default architecture and ``ds``,
    else None."""
    path = Path(out_dir) / "checkpoint_best.ckpt" if out_dir is not None else None
    if path is None or not path.is_file():
        return None
    try:
        model = load_model(path, _train_record(ds, config, prev_models))
    except CheckpointError:
        return None
    fits = model.config == LiteArchitectureConfig() and model.n_classes == ds.n_classes
    return model if fits else None


@dataclass
class EnsembleBuild:
    models: list[LiteModel]
    logs: list[TrainLog | None]
    metadata: dict


def build_ensemble(ds: TimeSeriesDataset, config: TrainConfig, size: int,
                   kind: str, seeds: list[int] | None = None,
                   out_dirs=None) -> EnsembleBuild:
    """Train a ``size``-member ensemble of the given kind.

    "base" trains every member independently with cross-entropy, one seed
    per member. "deco" trains the first seed's member with cross-entropy
    as the fixed reference, then each further member sequentially with the
    orthogonality penalty against all members before it. This is the only
    way to train a member against predecessors. Chains that name the same
    directory for their first member share one reference: the first chain
    trains it there and the others reload it (see below). The chain keeps
    its members' training-set maps in one (N, (size-1)*C, T) buffer in an
    unnamed temporary file, whose space is reserved before the first member
    trains (OSError when the temp directory lacks it); each member's maps
    are computed once, when the first member trained against it starts, so
    a loaded member costs no forward until a later member needs its maps.

    A member whose out_dir holds a readable ``checkpoint_best.ckpt`` is
    loaded, with None for its log, when the checkpoint fits the
    architecture and class count and records the same config (seed
    included), training data and predecessors (their ``model_checksum``s,
    in chain order); a member without predecessors ignores ``alpha`` and
    ``orth_normalization`` there. Any other member is trained into its
    out_dir, so a changed member retrains every later member of a chain.
    """
    if kind not in ("base", "deco"):
        raise ConfigError(f"ensemble kind must be 'base' or 'deco', got {kind!r}")
    if size < 1:
        raise ConfigError("ensemble size must be positive")
    if not 2 <= size <= 5:
        warnings.warn(f"ensemble size {size} is outside the studied range 2..5",
                      stacklevel=2)
    seeds = list(range(size)) if seeds is None else list(seeds)
    if len(seeds) != size or len(set(seeds)) != size:
        raise ConfigError(f"need {size} distinct seeds, got {seeds}")
    if out_dirs is not None and len(out_dirs) != size:
        raise ConfigError("out_dirs must name one directory per member")

    arch = LiteArchitectureConfig()
    models: list[LiteModel] = []
    logs: list[TrainLog | None] = []
    buf = _feature_buffer(ds, (size - 1) * arch.n_filters) if kind == "deco" and size > 1 else None
    filled = 0
    for seed, out_dir in zip(seeds, out_dirs or [None] * size):
        member_cfg = replace(config, seed=seed)
        prev = models.copy() if kind == "deco" else []
        model, log = _reusable(out_dir, ds, member_cfg, prev), None
        if model is None:
            model, log = _train_loop(ds, member_cfg, init_model(arch, ds.n_classes, seed),
                                     prev, out_dir, buf, filled)
            filled = len(prev)
        models.append(model)
        logs.append(log)

    name = f"{'Deco-' if kind == 'deco' else ''}LITETime-{size}"
    metadata = {
        "name": name,
        "dataset": ds.name,
        "kind": kind,
        "size": size,
        "seeds": seeds,
        "config": asdict(config),
    }
    return EnsembleBuild(models=models, logs=logs, metadata=metadata)
