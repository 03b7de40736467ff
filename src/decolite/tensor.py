"""Reverse-mode autodiff over dense float64 arrays of rank <= 3.

This module implements exactly the primitives the LITE classifier and its
training losses need: dilated 1-D convolution with "same" padding in
LITE's three shapes (single-channel first layer, depthwise, pointwise),
the zero-embedding of a set of kernels into one wider kernel, batch
normalization (optionally fused with its ReLU), ReLU, global average
pooling, an affine head, softmax cross-entropy, batched pairwise
cosine-similarity matrices and a few elementwise/reduction helpers.

Each operation records its parent tensors and a gradient closure on the
output, so the autodiff graph is the DAG of :class:`Tensor` nodes reached
through ``_parents``. :func:`backward` walks that DAG once in reverse
topological order from a scalar root and accumulates gradients into every
tensor with ``requires_grad`` set; each interior gradient is dropped as
soon as its node's closure has consumed it, so only leaf gradients
outlive the sweep. Operations whose inputs carry no gradient record
nothing, and neither does any operation run inside :func:`no_grad`, so an
eval-mode forward frees each intermediate as soon as the next layer has
read it.

The convolution and batch-norm kernels read their activations where they
lie, and a graph node keeps its output and its parents but no copy of an
input. The first-layer convolution is a GEMM per sample over an im2col
window matrix, depthwise an ``einsum`` over a strided window view and
pointwise a GEMM per sample over the input itself; the padded input and
the window matrix are temporaries, rebuilt from the input when a kernel
gradient needs them. Batch norm is one affine pass ``x * scale + shift``
in both modes (train mode takes a two-pass variance first) and stores no
normalized map: its backward pass works from the input. With
``relu=True`` batch norm clamps its own output in place and masks the
incoming gradient itself, so the pair keeps one full-size activation in
the graph instead of two.

All arithmetic is float64 and every reduction uses a fixed accumulation
order, so identical inputs produce bit-identical outputs on one platform.
Non-finite values are rejected when data enters the graph (leaf
construction); downstream layers re-check their activations explicitly.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, InputError, NumericError, ShapeError, StateError, UsageError

__all__ = [
    "Tensor",
    "as_tensor",
    "assert_finite",
    "backward",
    "conv1d",
    "embed_taps",
    "batch_norm_1d",
    "relu",
    "global_avg_pool",
    "dense",
    "softmax_cross_entropy",
    "cosine_similarity_matrix",
    "absolute",
    "sum_all",
    "no_grad",
]

_record_graph = True


class Tensor:
    """Dense float64 array of rank <= 3 with an optional gradient slot.

    Construct leaves directly (``Tensor(data, requires_grad=True)`` for
    trainable parameters, plain ``Tensor(data)`` for inputs). Operation
    results are built internally and carry the closures backpropagation
    needs. Leaf construction rejects NaN/Inf.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"tensors are limited to rank 3, got rank {arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite values rejected at graph boundary")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @classmethod
    def _op(cls, data: np.ndarray, parents: tuple["Tensor", ...], grad_fn) -> "Tensor":
        # Internal results skip the finite check; layers that must report
        # divergence scan their own outputs.
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        if _record_graph and any(p.requires_grad for p in parents):
            t.requires_grad = True
            t._parents = parents
            t._backward = grad_fn
        else:
            t.requires_grad = False
            t._parents = ()
            t._backward = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A view of the same values with no graph history."""
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.grad = None
        t.requires_grad = False
        t._parents = ()
        t._backward = None
        return t

    # Only the arithmetic the loss pipeline needs: tensor + tensor of
    # matching shape, and multiplication by a python scalar or a constant
    # ndarray that broadcasts against this tensor.
    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"add shape mismatch: {self.shape} vs {other.shape}")
        out = self.data + other.data
        a, b = self, other

        def grad_fn(g):
            if a.requires_grad:
                _accumulate(a, g)
            if b.requires_grad:
                _accumulate(b, g)

        return Tensor._op(out, (self, other), grad_fn)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return NotImplemented
        const = np.asarray(other, dtype=np.float64)
        out = self.data * const
        if out.shape != self.shape:
            raise ShapeError("constant factor must broadcast to the tensor's own shape")
        src = self

        def grad_fn(g):
            if src.requires_grad:
                _accumulate(src, g * const)

        return Tensor._op(out, (self,), grad_fn)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def as_tensor(x) -> Tensor:
    """Wrap plain array data as a constant leaf; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


def assert_finite(values, context: str) -> None:
    """Raise :class:`NumericError` naming ``context`` if values are not finite."""
    arr = values.data if isinstance(values, Tensor) else values
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {context}")


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


@contextmanager
def no_grad():
    """Operations run inside the block record no graph.

    Their results have ``requires_grad`` unset, so each intermediate is
    freed as soon as the next operation has consumed it.
    """
    global _record_graph
    outer = _record_graph
    _record_graph = False
    try:
        yield
    finally:
        _record_graph = outer


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar root.

    Gradients accumulate into ``.grad`` of every reachable tensor with
    ``requires_grad``; repeated calls without clearing grads keep adding.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor root")
    if loss.data.shape != ():
        raise UsageError(f"backward requires a scalar root, got shape {loss.data.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    # Interior grads are scratch space for this sweep: each is dropped as
    # soon as its closure has consumed it. Leaf grads persist so that
    # successive sweeps accumulate.
    for node in order:
        if node._backward is not None:
            node.grad = None
    _accumulate(loss, np.ones((), dtype=np.float64))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# convolution


def conv1d(x: Tensor, kernel: Tensor, *, dilation: int = 1, groups: int = 1) -> Tensor:
    """Dilated 1-D cross-correlation with zero "same" padding.

    ``x`` is (B, Cin, T). The shapes pick one of LITE's three paths: the
    first layer (Cin=1, kernel (Cout, 1, K)), depthwise (kernel (C, 1, K)
    with groups=C=Cin) and pointwise (kernel (Cout, Cin, 1)); any other
    shape is a :class:`ShapeError`. No kernel flip is applied. Padding
    splits the span (K-1)*dilation as floor/ceil halves (left/right), so the
    output keeps length T exactly.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 3:
        raise ShapeError("conv1d expects rank-3 input and kernel")
    if dilation < 1 or groups < 1:
        raise ConfigError("dilation and groups must be positive")
    cin = x.shape[1]
    cout, cg, klen = kernel.shape
    if groups == 1 and cin == cg == 1:
        path = "first"
    elif groups == cin == cout and cg == 1:
        path = "depthwise"
    elif groups == 1 and cg == cin and klen == 1:
        path = "pointwise"
    else:
        raise ShapeError(f"conv1d has no path for input {x.shape}, kernel {kernel.shape} "
                         f"and groups={groups}")
    saved = (path, x.data, kernel.data, dilation)

    def grad_fn(g):
        gx, gk = _conv_backward(saved, g, need_input=x.requires_grad,
                                need_kernel=kernel.requires_grad)
        if x.requires_grad:
            _accumulate(x, gx)
        if kernel.requires_grad:
            _accumulate(kernel, gk)

    return Tensor._op(_conv_forward(saved), (x, kernel), grad_fn)


def _pad_time(a: np.ndarray, left: int, right: int) -> np.ndarray:
    """``a`` zero-extended by ``left`` and ``right`` steps along its last axis."""
    t = a.shape[-1]
    out = np.empty(a.shape[:-1] + (left + t + right,), dtype=a.dtype)
    out[..., :left] = 0.0
    out[..., left + t:] = 0.0
    out[..., left:left + t] = a
    return out


def _same_padded(x: np.ndarray, klen: int, dilation: int) -> np.ndarray:
    """``x`` with the floor/ceil "same" padding of a dilated kernel; ``x``
    itself when the kernel spans one step."""
    span = (klen - 1) * dilation
    return _pad_time(x, span // 2, span - span // 2) if span else x


def _dilated_windows(arr: np.ndarray, klen: int, dilation: int) -> np.ndarray:
    """Strided view whose last axis holds the k dilated taps per position."""
    span = (klen - 1) * dilation
    return np.lib.stride_tricks.sliding_window_view(arr, span + 1, axis=-1)[..., ::dilation]


def _im2col(x: np.ndarray, klen: int, dilation: int) -> np.ndarray:
    """(B, T, K) window matrix of a single-channel (B, 1, T) input."""
    return np.ascontiguousarray(_dilated_windows(_same_padded(x, klen, dilation)[:, 0, :],
                                                 klen, dilation))


def _conv_forward(saved) -> np.ndarray:
    """Output of a convolution over the unpadded input; the padded input
    and the window matrix are temporaries."""
    path, x, k, dilation = saved
    klen = k.shape[2]
    if path == "first":
        # Single input channel: materialize the window matrix and use one
        # GEMM per sample that writes the (Cout, T) layout directly.
        return np.matmul(k[:, 0, :], _im2col(x, klen, dilation).transpose(0, 2, 1))
    if path == "depthwise":
        # Each channel's taps against the strided window view. BLAS cannot
        # take the overlapping view, so matmul would fall back to its slow
        # generic loop; a plain einsum reads the view in place
        # (optimize=True would copy it).
        return np.einsum("bctk,ck->bct",
                         _dilated_windows(_same_padded(x, klen, dilation), klen, dilation),
                         k[:, 0, :])
    # Pointwise: one (Cout, Cin) @ (Cin, T) GEMM per sample, with no copy
    # of the input.
    return np.matmul(k[:, :, 0], x)


def _conv_backward(saved, g: np.ndarray, *, need_input: bool, need_kernel: bool):
    """(input gradient, kernel gradient) of a convolution, either None when
    not needed; the input gradient is with respect to the unpadded input."""
    path, x, k, dilation = saved
    t = x.shape[2]
    klen = k.shape[2]
    span = (klen - 1) * dilation
    pad_left = span // 2
    gx = gk = None

    # The padded input and the window matrix are rebuilt for the kernel
    # gradient and dropped before the input gradient is allocated.
    if path == "depthwise":
        if need_kernel:
            # One contraction of g with the strided window view, which
            # einsum reads in place.
            xp = _same_padded(x, klen, dilation)
            gk = np.einsum("bct,bctk->ck", g, _dilated_windows(xp, klen, dilation))[:, None, :]
            del xp
        if need_input:
            # The input gradient is the correlation of the zero-extended
            # output gradient with the tap-reversed kernel, evaluated only
            # at the unpadded positions.
            gz = _pad_time(g, span - pad_left, pad_left)
            gx = np.einsum("bctk,ck->bct", _dilated_windows(gz, klen, dilation), k[:, 0, ::-1])
    elif path == "first":
        if need_kernel:
            # One (Cout, T) @ (T, K) GEMM per sample, summed over the batch;
            # a tensordot would first copy g into (B, T, Cout) order.
            gk = np.matmul(g, _im2col(x, klen, dilation)).sum(axis=0)[:, None, :]
        if need_input:
            gwin = g.transpose(0, 2, 1) @ k[:, 0, :]
            gxp = np.zeros((x.shape[0], 1, t + span), dtype=np.float64)
            for i in range(klen):
                off = i * dilation
                gxp[:, 0, off:off + t] += gwin[:, :, i]
            gx = gxp[:, :, pad_left:pad_left + t]
    else:
        if need_kernel:
            # Per-sample g @ x^T, summed over the batch in order.
            gk = np.matmul(g, x.swapaxes(-1, -2)).sum(axis=0)[:, :, None]
        if need_input:
            gx = np.matmul(k[:, :, 0].T, g)
    return gx, gk


def embed_taps(kernels: list[Tensor]) -> Tensor:
    """Stack (Ci, 1, Ki) kernels into one zero-padded (sum Ci, 1, W) kernel.

    W is the widest Ki. Kernel i occupies the rows after those of kernels
    0..i-1 and the taps from ``(W-1)//2 - (Ki-1)//2``, so one "same"
    convolution with the result equals each kernel's own "same"
    convolution stacked on the channel axis: the padding split of width W
    puts exactly that many more zeros on the left than the split of width
    Ki. Each kernel's gradient is its own slice of the embedded kernel's
    gradient.
    """
    kernels = [as_tensor(k) for k in kernels]
    if not kernels:
        raise UsageError("embed_taps needs at least one kernel")
    for k in kernels:
        if k.ndim != 3 or k.shape[1] != 1:
            raise ShapeError(f"embed_taps expects (C, 1, K) kernels, got {k.shape}")
    width = max(k.shape[2] for k in kernels)
    out = np.zeros((sum(k.shape[0] for k in kernels), 1, width), dtype=np.float64)
    slots = []
    row = 0
    for k in kernels:
        c, _, klen = k.shape
        tap = (width - 1) // 2 - (klen - 1) // 2
        rows, taps = slice(row, row + c), slice(tap, tap + klen)
        out[rows, :, taps] = k.data
        slots.append((rows, taps))
        row += c

    def grad_fn(g):
        for k, (rows, taps) in zip(kernels, slots):
            if k.requires_grad:
                _accumulate(k, g[rows, :, taps])

    return Tensor._op(out, tuple(kernels), grad_fn)


# ---------------------------------------------------------------------------
# normalization and activations


def batch_norm_1d(x: Tensor, gamma: Tensor, beta: Tensor,
                  running_mean: np.ndarray | None = None,
                  running_var: np.ndarray | None = None, *,
                  mode: str = "train", momentum: float = 0.9,
                  eps: float = 1e-5, relu: bool = False) -> Tensor:
    """Per-channel batch normalization over the batch and time axes jointly.

    Train mode normalizes with the batch's population statistics and, when
    running buffers are supplied, updates them in place as
    ``running = momentum * running + (1 - momentum) * batch``. Eval mode
    normalizes with the running buffers only and requires them.

    With ``relu`` set the output is clamped at 0 in place and the gradient
    is masked by ``out > 0``, which gives the same bits as this op followed
    by :func:`relu` without keeping the unclamped output alive.
    """
    x = as_tensor(x)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    if x.ndim != 3:
        raise ShapeError("batch_norm_1d expects input of shape (B, C, T)")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("gamma/beta must have one entry per channel")
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if mode not in ("train", "eval"):
        raise UsageError(f"unknown batch norm mode {mode!r}")

    m = x.shape[0] * x.shape[2]
    train_mode = mode == "train"
    if train_mode:
        mean = x.data.mean(axis=(0, 2))
        # Two-pass variance over one centred (C, T) slab at a time, so no
        # centred copy of the whole input is formed.
        var = np.zeros(c)
        for x_b in x.data:
            xc = x_b - mean[:, None]
            var += np.einsum("ct,ct->c", xc, xc)
        var /= m
        if running_mean is not None:
            running_mean *= momentum
            running_mean += (1.0 - momentum) * mean
        if running_var is not None:
            running_var *= momentum
            running_var += (1.0 - momentum) * var
    else:
        if running_mean is None or running_var is None:
            raise StateError("eval-mode batch norm requires initialized running statistics")
        mean = running_mean.copy()
        var = running_var
    # One affine pass in both modes; the normalized input is never stored.
    inv = 1.0 / np.sqrt(var + eps)
    scale = gamma.data * inv
    out = x.data * scale[None, :, None]
    out += (beta.data - mean * scale)[None, :, None]
    if relu:
        np.maximum(out, 0.0, out=out)

    def grad_fn(g):
        if relu:
            # The masked gradient goes into a buffer this closure owns, one
            # sample at a time, and the input gradient is then built in place
            # over it.
            gm = np.empty_like(g)
            for g_b, out_b, gm_b in zip(g, out, gm):
                np.multiply(g_b, out_b > 0.0, out=gm_b)
            g = gm
        # Both per-channel sums serve the gamma and beta gradients and, in
        # train mode, the two batch-statistics terms of the input gradient.
        # sgx is the sum of g times the normalized input, taken from x.
        sg = g.sum(axis=(0, 2))
        sgx = inv * (np.einsum("bct,bct->c", g, x.data) - mean * sg)
        if gamma.requires_grad:
            _accumulate(gamma, sgx)
        if beta.requires_grad:
            _accumulate(beta, sg)
        if x.requires_grad:
            if not train_mode:
                _accumulate(x, g * scale[None, :, None])
                return
            # Batch statistics depend on x, so their gradient terms (mean
            # and projection removal) are included:
            # scale * (g - sg/m - xhat * sgx/m) = g*scale - x*a + b.
            # One sample at a time, so each term's temporary is one (C, T) slab.
            a = (scale * inv * sgx / m)[:, None]
            b = (a[:, 0] * mean - scale * sg / m)[:, None]
            gx = g if relu else np.empty_like(g)
            for g_b, x_b, gx_b in zip(g, x.data, gx):
                np.multiply(g_b, scale[:, None], out=gx_b)
                gx_b -= x_b * a
                gx_b += b
            _accumulate(x, gx)

    return Tensor._op(out, (x, gamma, beta), grad_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is 0."""
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def grad_fn(g):
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0.0))

    return Tensor._op(out, (x,), grad_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the time axis: (B, C, T) -> (B, C)."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError("global_avg_pool expects input of shape (B, C, T)")
    t = x.shape[2]
    out = x.data.mean(axis=2)

    def grad_fn(g):
        if x.requires_grad:
            gx = np.empty_like(x.data)
            gx[:] = g[:, :, None] / t
            _accumulate(x, gx)

    return Tensor._op(out, (x,), grad_fn)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map (B, C) @ weight.T + bias with weight (Cls, C)."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError("dense expects rank-2 input and weight")
    if weight.shape[1] != x.shape[1] or bias.shape != (weight.shape[0],):
        raise ShapeError(f"dense shapes incompatible: x{x.shape} w{weight.shape} b{bias.shape}")
    out = x.data @ weight.data.T + bias.data[None, :]

    def grad_fn(g):
        if x.requires_grad:
            _accumulate(x, g @ weight.data)
        if weight.requires_grad:
            _accumulate(weight, g.T @ x.data)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))

    return Tensor._op(out, (x, weight, bias), grad_fn)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the batch of -log softmax at the true class.

    ``targets`` is a constant one-hot (B, Cls) array; rows must contain a
    single 1 and zeros elsewhere. Stabilized by max subtraction. The
    gradient with respect to the logits is (softmax - target) / B.
    """
    logits = as_tensor(logits)
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
    if logits.ndim != 2 or t.shape != logits.shape:
        raise ShapeError(f"logits {logits.shape} and targets {t.shape} must both be (B, Cls)")
    if not (np.all((t == 0.0) | (t == 1.0)) and np.all(t.sum(axis=1) == 1.0)):
        raise InputError("targets must be one-hot rows")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    b = logits.shape[0]
    out = np.asarray(-(t * logp).sum() / b)
    probs = np.exp(logp)

    def grad_fn(g):
        if logits.requires_grad:
            _accumulate(logits, g * (probs - t) / b)

    return Tensor._op(out, (logits,), grad_fn)


# ---------------------------------------------------------------------------
# similarity and reductions


def cosine_similarity_matrix(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Pairwise cosine similarity between the channel rows of paired maps.

    Inputs (B, Ca, T) and (B, Cb, T) give (B, Ca, Cb), whose entry (s, i, j)
    is the cosine of sample s's row i of ``a`` against its row j of ``b``.
    The denominator is clamped below at ``eps``, so zero-norm rows yield
    similarity 0 and positive per-row rescaling cannot change any entry.
    Entries stay in [-1, 1].
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError(f"cosine_similarity_matrix expects (B, C, T) inputs, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if eps <= 0:
        raise ConfigError("eps must be positive")

    ad, bd = a.data, b.data

    gram = np.einsum("bit,bjt->bij", ad, bd, optimize=True)
    na = np.sqrt(np.einsum("bit,bit->bi", ad, ad))
    nb = np.sqrt(np.einsum("bit,bit->bi", bd, bd))
    denom_raw = na[:, :, None] * nb[:, None, :]
    denom = np.maximum(denom_raw, eps)
    sim = gram / denom
    clamped = denom_raw <= eps

    def grad_fn(g):
        gd = g / denom
        gs = g * sim
        gs = np.where(clamped, 0.0, gs)
        if a.requires_grad:
            lin = np.einsum("bij,bjt->bit", gd, bd, optimize=True)
            coef = gs.sum(axis=2)
            coef = np.divide(coef, na * na, out=np.zeros_like(coef), where=na > 0.0)
            _accumulate(a, lin - ad * coef[:, :, None])
        if b.requires_grad:
            lin = np.einsum("bij,bit->bjt", gd, ad, optimize=True)
            coef = gs.sum(axis=1)
            coef = np.divide(coef, nb * nb, out=np.zeros_like(coef), where=nb > 0.0)
            _accumulate(b, lin - bd * coef[:, :, None])

    return Tensor._op(sim, (a, b), grad_fn)


def absolute(x: Tensor) -> Tensor:
    """Elementwise |x|; the subgradient at 0 is 0."""
    x = as_tensor(x)
    out = np.abs(x.data)

    def grad_fn(g):
        if x.requires_grad:
            _accumulate(x, g * np.sign(x.data))

    return Tensor._op(out, (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a rank-0 tensor."""
    x = as_tensor(x)
    out = np.asarray(x.data.sum())

    def grad_fn(g):
        if x.requires_grad:
            _accumulate(x, np.full_like(x.data, float(g)))

    return Tensor._op(out, (x,), grad_fn)
