"""The LITE time-series classifier.

Three convolutional blocks over (B, 1, T) inputs:

1. a multiplexed first layer (one bias-free kernel bank per configured
   kernel size) alongside a frozen bank of hand-crafted trend/peak
   detection filters, then batch norm fused with its ReLU. Every bank is
   zero-embedded, centred, into one kernel as wide as the widest bank, so
   the whole layer is one convolution: one window matrix and one GEMM per
   sample that writes all of its channels;
2. two dilated depthwise-separable blocks (depthwise kernel, pointwise
   1x1 mix, batch norm fused with its ReLU).

Global average pooling and an affine head produce the logits. The
post-activation output of the third block is exposed alongside the
logits; the decorrelated-training loss operates on that feature map, and
with the default configuration its 32 depthwise filters of length 20 are
what the diversity analysis compares across models.

Scoring and the diversity analysis read the same eval pass over a split:
the logits and the time-pooled final-block features. ``_eval_outputs``
keeps the last such pair on the model, keyed by ``model_checksum`` and a
sha256 of the input's shape and bytes. The eval forward is a pure
function of parameters, buffers and input, and the key covers all three
by content, so an optimizer step, ``load_state_arrays`` or an input
changed in place gives a new key and a fresh pass; nothing has to
invalidate the entry. It holds N x (classes + n_filters) floats, whatever
the series length: 7.2 MiB at the largest UCR test split (Crop, 16800
series, 24 classes).
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict

import numpy as np

from .arrayio import arrays_checksum, load_bundle, save_bundle
from .errors import CheckpointError, ConfigError, ShapeError
from .tensor import (Tensor, as_tensor, assert_finite, batch_norm_1d, conv1d, dense,
                     embed_taps, global_avg_pool, no_grad)

__all__ = [
    "LiteArchitectureConfig",
    "CustomFilterBank",
    "build_custom_filters",
    "LiteModel",
    "init_model",
    "extract_final_filters",
    "param_count",
    "ratio_vs_reference",
    "model_checksum",
    "save_model",
    "load_model",
    "INCEPTIONTIME_REFERENCE_PARAM_COUNT",
]

# Trainable-parameter count of a single InceptionTime classifier (the
# six-module reference configuration with a two-class head), kept as the
# fixed denominator for model-size ratio reporting.
INCEPTIONTIME_REFERENCE_PARAM_COUNT = 420_192

# Bytes the widest activation of one eval forward in _eval_chunks may
# take, which bounds an eval pass's memory by the chunk rather than by the
# split. A map this size fits a 2 MiB per-core L2 cache, so the next
# layer finds its input there: on such a Xeon, one BLAS thread, a pass
# takes 1.2-1.7x less time per row than with 64 MiB chunks from T = 32 to
# T = 2709. With the default 113-channel first block a chunk holds 72 rows
# at T = 32, 4 rows up to T = 579 and one row from T = 1160.
_EVAL_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class LiteArchitectureConfig:
    """Structural hyperparameters; the defaults give 32x20 final filters."""

    n_filters: int = 32
    first_layer_kernel_sizes: tuple[int, ...] = (40, 20, 10)
    dwsc_kernel_sizes: tuple[int, int] = (20, 20)
    dwsc_dilations: tuple[int, int] = (2, 4)
    trend_filter_lengths: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    peak_filter_lengths: tuple[int, ...] = (4, 8, 16, 32, 64)
    bn_momentum: float = 0.9
    bn_epsilon: float = 1e-5

    def validate(self) -> None:
        if self.n_filters < 1:
            raise ConfigError("n_filters must be positive")
        if len(self.dwsc_kernel_sizes) != 2 or len(self.dwsc_dilations) != 2:
            raise ConfigError("exactly two depthwise-separable blocks are expected")
        for k in (*self.first_layer_kernel_sizes, *self.dwsc_kernel_sizes):
            if k < 1:
                raise ConfigError("kernel sizes must be positive")


@dataclass(frozen=True)
class CustomFilterBank:
    """Frozen detection kernels, grouped by length.

    ``banks`` maps each configured length to a (n, 1, length) stack whose
    rows follow the per-length order increasing, decreasing, peak.
    ``labels`` names every resulting channel in channel order.
    """

    banks: tuple[tuple[int, np.ndarray], ...]
    labels: tuple[str, ...] = field(repr=False)

    @property
    def n_channels(self) -> int:
        return len(self.labels)


def _increasing_kernel(k: int) -> np.ndarray:
    half = k // 2
    return np.concatenate([-np.ones(half), np.ones(half)])


def _peak_kernel(k: int) -> np.ndarray:
    m = k // 4
    return np.concatenate([-np.ones(m), np.ones(2 * m), -np.ones(m)])


def build_custom_filters(config: LiteArchitectureConfig) -> CustomFilterBank:
    """Deterministic, seed-independent bank of step and bump detectors.

    Increasing detectors of even length k are half -1s then half +1s,
    decreasing detectors are their negation, and peak detectors of length
    4m are [-1]*m, [+1]*2m, [-1]*m. All kernels are zero-mean.
    """
    for k in config.trend_filter_lengths:
        if k % 2:
            raise ConfigError(f"trend filter length {k} must be even")
    for k in config.peak_filter_lengths:
        if k % 4:
            raise ConfigError(f"peak filter length {k} must be divisible by 4")

    by_length: dict[int, list[tuple[str, np.ndarray]]] = {}
    for k in config.trend_filter_lengths:
        inc = _increasing_kernel(k)
        by_length.setdefault(k, []).append((f"increasing{k}", inc))
        by_length[k].append((f"decreasing{k}", -inc))
    for k in config.peak_filter_lengths:
        by_length.setdefault(k, []).append((f"peak{k}", _peak_kernel(k)))

    banks = []
    labels = []
    for k in sorted(by_length):
        names, kernels = zip(*by_length[k])
        banks.append((k, np.stack(kernels)[:, None, :].astype(np.float64)))
        labels.extend(names)
    return CustomFilterBank(banks=tuple(banks), labels=tuple(labels))


def _glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class LiteModel:
    """One LITE classifier: parameters, batch-norm buffers, frozen filters."""

    def __init__(self, config: LiteArchitectureConfig, n_classes: int, seed: int):
        config.validate()
        if n_classes < 2:
            raise ConfigError("a classifier needs at least two classes")
        self.config = config
        self.n_classes = int(n_classes)
        self.seed = int(seed)
        self.custom_filters = build_custom_filters(config)

        nf = config.n_filters
        rng = np.random.default_rng(self.seed)
        self.first_kernels = []
        for k in config.first_layer_kernel_sizes:
            w = _glorot_uniform(rng, (nf, 1, k), fan_in=k, fan_out=nf * k)
            self.first_kernels.append(Tensor(w, requires_grad=True))
        c1 = nf * len(config.first_layer_kernel_sizes) + self.custom_filters.n_channels

        k1, k2 = config.dwsc_kernel_sizes
        self.dw1 = Tensor(_glorot_uniform(rng, (c1, 1, k1), fan_in=k1, fan_out=k1),
                          requires_grad=True)
        self.pw1 = Tensor(_glorot_uniform(rng, (nf, c1, 1), fan_in=c1, fan_out=nf),
                          requires_grad=True)
        self.dw2 = Tensor(_glorot_uniform(rng, (nf, 1, k2), fan_in=k2, fan_out=k2),
                          requires_grad=True)
        self.pw2 = Tensor(_glorot_uniform(rng, (nf, nf, 1), fan_in=nf, fan_out=nf),
                          requires_grad=True)

        self._bn = []
        for width in (c1, nf, nf):
            self._bn.append({
                "gamma": Tensor(np.ones(width), requires_grad=True),
                "beta": Tensor(np.zeros(width), requires_grad=True),
                "mean": np.zeros(width),
                "var": np.ones(width),
            })

        self.head_w = Tensor(_glorot_uniform(rng, (n_classes, nf), fan_in=nf,
                                             fan_out=n_classes), requires_grad=True)
        self.head_b = Tensor(np.zeros(n_classes), requires_grad=True)
        self._custom_tensors = [Tensor(bank) for _, bank in self.custom_filters.banks]
        self._eval_memo = None  # (key, logits, pooled) of the last _eval_outputs pass

    # -- forward ---------------------------------------------------------

    def forward(self, x, mode: str = "eval") -> tuple[Tensor, Tensor]:
        """Run the network; returns (logits, final-block feature map).

        ``x`` is a tensor or array of shape (B, 1, T). The feature map is
        the post-activation output of the third convolutional block,
        shaped (B, n_filters, T). Train mode uses batch statistics in the
        batch norms and folds them into the running buffers; eval mode is
        a pure function of parameters, buffers and input, and records no
        autodiff graph, so its outputs carry no gradient.
        """
        x = as_tensor(x)
        if x.ndim != 3 or x.shape[1] != 1:
            raise ShapeError(f"expected input of shape (B, 1, T), got {x.shape}")
        with no_grad() if mode == "eval" else nullcontext():
            return self._layers(x, mode)

    def _first_layer(self, x: Tensor) -> Tensor:
        """The first block before its batch norm: every bank's "same"
        convolution, trainable banks first, in channel order."""
        return conv1d(x, embed_taps(self.first_kernels + self._custom_tensors))

    def _layers(self, x: Tensor, mode: str) -> tuple[Tensor, Tensor]:
        cfg = self.config

        h = self._apply_bn(self._first_layer(x), 0, mode)
        assert_finite(h, "block1")

        h = conv1d(h, self.dw1, dilation=cfg.dwsc_dilations[0], groups=h.shape[1])
        h = conv1d(h, self.pw1)
        h = self._apply_bn(h, 1, mode)
        assert_finite(h, "block2")

        h = conv1d(h, self.dw2, dilation=cfg.dwsc_dilations[1], groups=h.shape[1])
        h = conv1d(h, self.pw2)
        features = self._apply_bn(h, 2, mode)
        assert_finite(features, "block3")

        pooled = global_avg_pool(features)
        logits = dense(pooled, self.head_w, self.head_b)
        assert_finite(logits, "head")
        return logits, features

    def _apply_bn(self, h: Tensor, idx: int, mode: str) -> Tensor:
        bn = self._bn[idx]
        return batch_norm_1d(h, bn["gamma"], bn["beta"], bn["mean"], bn["var"],
                             mode=mode, momentum=self.config.bn_momentum,
                             eps=self.config.bn_epsilon, relu=True)

    # -- parameters and state --------------------------------------------

    def _named_state(self):
        """(checkpoint key, holder) for every parameter and buffer, in
        checkpoint order; a holder is a Tensor or a running-statistics array."""
        for i, w in enumerate(self.first_kernels):
            yield f"first{i}", w
        for i, bn in enumerate(self._bn, start=1):
            for name in ("gamma", "beta", "mean", "var"):
                yield f"bn{i}.{name}", bn[name]
        yield from (("dw1", self.dw1), ("pw1", self.pw1), ("dw2", self.dw2),
                    ("pw2", self.pw2), ("head.weight", self.head_w), ("head.bias", self.head_b))

    def trainable_parameters(self) -> list[Tensor]:
        return [h for _, h in self._named_state() if isinstance(h, Tensor)]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer, in a fixed order."""
        return {k: (h.data if isinstance(h, Tensor) else h).copy()
                for k, h in self._named_state()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        current = dict(self._named_state())
        if set(arrays) != set(current):
            raise CheckpointError("state keys do not match this architecture: "
                                  f"{sorted(set(current) ^ set(arrays))}")
        bad = [k for k, h in current.items() if np.shape(arrays[k]) != h.shape]
        if bad:
            raise CheckpointError(f"state shapes do not match this architecture: {bad}")
        for k, h in current.items():
            if isinstance(h, Tensor):
                h.data = np.array(arrays[k], dtype=np.float64)
            else:
                h[:] = arrays[k]


def init_model(config: LiteArchitectureConfig, n_classes: int, seed: int) -> LiteModel:
    """Build a LITE model; identical seeds give bit-identical parameters.

    Kernels and the head weight are Glorot-uniform draws from a generator
    seeded with ``seed``; biases start at zero and batch-norm affines at
    gamma=1, beta=0 with running buffers at mean=0, var=1.
    """
    return LiteModel(config, n_classes, seed)


def _eval_chunk_rows(model: LiteModel, length: int) -> int:
    """Rows per eval chunk at series length ``length``: as many as keep the
    widest activation map within ``_EVAL_CHUNK_BYTES``, between 1 and 128."""
    width = max(model.dw1.data.shape[0], model.config.n_filters)
    return min(128, max(1, _EVAL_CHUNK_BYTES // (8 * width * max(1, length))))


def _eval_chunks(model: LiteModel, x):
    """Eval forwards over ``x`` in chunks of ``_eval_chunk_rows`` rows.

    Yields (row slice, logits, feature map) with numpy arrays per chunk.
    Every layer up to the feature map works on each sample alone, so the
    maps hold the same bits as one forward over the whole of ``x``. The
    logits need not: the head's BLAS GEMM may take another kernel path for
    a row by its position in the chunk (a one-row chunk, or a row outside
    a full tile), which can change a logit's last bit.
    """
    x = np.asarray(x, dtype=np.float64)
    step = _eval_chunk_rows(model, x.shape[-1])
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        logits, feats = model.forward(x[rows], mode="eval")
        yield rows, logits.data, feats.data


def _eval_outputs(model: LiteModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Logits (N, Cls) and time-pooled final-block features (N, C) of one
    chunked eval pass over ``x``, both read-only.

    The pair is kept on ``model`` under the key (``model_checksum``,
    sha256 of ``x``'s shape and bytes), so a second call with the same
    state and the same input values returns it without a forward.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    digest = hashlib.sha256(str(x.shape).encode("ascii"))
    digest.update(x)
    key = (model_checksum(model), digest.hexdigest())
    if model._eval_memo is not None and model._eval_memo[0] == key:
        return model._eval_memo[1:]
    chunks = [(logits, feats.mean(axis=2)) for _, logits, feats in _eval_chunks(model, x)]
    logits, pooled = (np.concatenate(parts) for parts in zip(*chunks))
    logits.flags.writeable = pooled.flags.writeable = False
    model._eval_memo = (key, logits, pooled)
    return logits, pooled


def extract_final_filters(model: LiteModel) -> np.ndarray:
    """The final depthwise kernel bank as (n_filters, kernel_length).

    With the default configuration the shape is (32, 20). Non-default
    configurations simply yield that configuration's shape.
    """
    return model.dw2.data[:, 0, :].copy()


def param_count(model: LiteModel) -> int:
    """Number of trainable scalars; the frozen custom filters are excluded."""
    return sum(p.data.size for p in model.trainable_parameters())


def ratio_vs_reference(count: int, reference_count: int = INCEPTIONTIME_REFERENCE_PARAM_COUNT)\
        -> float:
    if reference_count <= 0:
        raise ConfigError("reference count must be positive")
    return count / reference_count


def model_checksum(model: LiteModel) -> str:
    """sha256 over every parameter and buffer; bit-sensitive."""
    return arrays_checksum(model.state_arrays())


def save_model(model: LiteModel, path, train_record: dict | None = None) -> None:
    """Write a versioned checkpoint recording ``train_record`` (a dict of
    what trained the model, or None); round trips are bit-exact."""
    meta = {
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "seed": model.seed,
        "train_record": train_record,
    }
    save_bundle(path, "lite-model", meta, model.state_arrays())


def load_model(path, train_record: dict | None = None) -> LiteModel:
    """Read a checkpoint written by :func:`save_model`.

    A bundle whose metadata does not describe a LITE model, or whose arrays
    do not fit the architecture it names, is a :class:`CheckpointError`
    naming ``path``, like a corrupt file; so is one not recording exactly
    ``train_record``, when that is given.
    """
    _, meta, arrays = load_bundle(path, expected_kind="lite-model")
    if train_record is not None and meta.get("train_record") != train_record:
        raise CheckpointError(f"{path}: trained with {meta.get('train_record')}, "
                              f"not {train_record}")
    try:
        raw = dict(meta["config"])
        for key in ("first_layer_kernel_sizes", "dwsc_kernel_sizes", "dwsc_dilations",
                    "trend_filter_lengths", "peak_filter_lengths"):
            raw[key] = tuple(raw[key])
        model = LiteModel(LiteArchitectureConfig(**raw), int(meta["n_classes"]),
                          int(meta["seed"]))
        model.load_state_arrays(arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: not a LITE model checkpoint: {exc}") from exc
    return model
