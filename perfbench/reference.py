"""Computations made apart from decolite, which the benchmark checks its outputs against.

Nothing here calls into the code paths it checks: convolutions are summed
tap by tap, the LITE eval forward is rebuilt from a model's state arrays,
the orthogonality loss, DTW and Frechet distance are written out from
their definitions, and Wilcoxon p-values come from scipy.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.stats


def conv_same(x: np.ndarray, kernel: np.ndarray, dilation: int = 1,
              depthwise: bool = False) -> np.ndarray:
    """Zero-padded "same" cross-correlation, summed tap by tap.

    ``x`` is (B, Cin, T). A depthwise ``kernel`` is (C, 1, K) and maps
    channel c to channel c; otherwise it is (Cout, Cin, K). Padding splits
    the span (K-1)*dilation as floor/ceil halves (left/right).
    """
    b, cin, t = x.shape
    cout, _, klen = kernel.shape
    span = (klen - 1) * dilation
    xp = np.zeros((b, cin, t + span))
    xp[:, :, span // 2:span // 2 + t] = x
    out = np.zeros((b, cout, t))
    for i in range(klen):
        seg = xp[:, :, i * dilation:i * dilation + t]
        if depthwise:
            out += kernel[:, 0, i][None, :, None] * seg
        else:
            out += np.einsum("oc,bct->bot", kernel[:, :, i], seg)
    return out


def _bn_eval(h, state, idx, eps):
    g, bta = state[f"bn{idx}.gamma"], state[f"bn{idx}.beta"]
    mean, var = state[f"bn{idx}.mean"], state[f"bn{idx}.var"]
    return ((h - mean[None, :, None]) / np.sqrt(var + eps)[None, :, None]
            * g[None, :, None] + bta[None, :, None])


def lite_eval_forward(state: dict, custom_banks, config, x: np.ndarray):
    """Eval-mode LITE forward from state arrays: returns (logits, features).

    ``custom_banks`` is the model's frozen filter bank list of
    (length, (n, 1, length) kernels), in channel order.
    """
    eps = config.bn_epsilon
    branches = [conv_same(x, state[f"first{i}"])
                for i in range(len(config.first_layer_kernel_sizes))]
    branches += [conv_same(x, bank) for _, bank in custom_banks]
    h = np.maximum(_bn_eval(np.concatenate(branches, axis=1), state, 1, eps), 0.0)
    d1, d2 = config.dwsc_dilations
    h = conv_same(h, state["dw1"], d1, depthwise=True)
    h = np.maximum(_bn_eval(conv_same(h, state["pw1"]), state, 2, eps), 0.0)
    h = conv_same(h, state["dw2"], d2, depthwise=True)
    feats = np.maximum(_bn_eval(conv_same(h, state["pw2"]), state, 3, eps), 0.0)
    logits = feats.mean(axis=2) @ state["head.weight"].T + state["head.bias"]
    return logits, feats


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def orthogonality_loss(new: np.ndarray, prev: list[np.ndarray], eps: float = 1e-8) -> float:
    """Mean over predecessors of the batch-mean, pair-mean |cosine| off the diagonal."""
    c = new.shape[1]
    off = ~np.eye(c, dtype=bool)
    terms = []
    for p in prev:
        gram = np.einsum("bit,bjt->bij", new, p)
        norms = (np.linalg.norm(new, axis=2)[:, :, None]
                 * np.linalg.norm(p, axis=2)[:, None, :])
        cos = gram / np.maximum(norms, eps)
        terms.append(np.abs(cos)[:, off].sum(axis=1).mean() / off.sum())
    return float(np.mean(terms))


def dtw(a: np.ndarray, b: np.ndarray) -> float:
    """Plain dynamic program: squared differences, no window, no square root."""
    n, m = len(a), len(b)
    acc = [[float("inf")] * (m + 1) for _ in range(n + 1)]
    acc[0][0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc[i][j] = (float(a[i - 1]) - float(b[j - 1])) ** 2 + min(
                acc[i - 1][j], acc[i][j - 1], acc[i - 1][j - 1])
    return acc[n][m]


def frechet(mu_a, sig_a, mu_b, sig_b) -> tuple[float, float]:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 sqrtm(S_a S_b)) through scipy's sqrtm.

    Also returns how far a square root that zeroes eigenvalues of S_a S_b
    below 1e-10 may sit from it: twice the sum of their square roots.
    """
    prod = sig_a @ sig_b
    value = (((mu_a - mu_b) ** 2).sum() + np.trace(sig_a) + np.trace(sig_b)
             - 2.0 * np.real(np.trace(scipy.linalg.sqrtm(prod))))
    eig = np.clip(np.real(scipy.linalg.eigvals(prod)), 0.0, None)
    return float(value), float(2.0 * np.sqrt(eig[eig < 1e-10]).sum())


def wilcoxon_p(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided p-value: exact below 26 non-zero pairs, else normal with corrections."""
    n = int(np.count_nonzero(a - b))
    if n == 0:
        return 1.0
    method = "exact" if n <= 25 else "approx"
    return float(scipy.stats.wilcoxon(a, b, zero_method="wilcox", correction=True,
                                      method=method).pvalue)


def rel_err(a, b, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)
