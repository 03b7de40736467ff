"""Adam updates and plateau-driven learning-rate reduction."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .tensor import Tensor

__all__ = ["Adam", "ReduceLROnPlateau"]


class Adam:
    """Adam over a fixed list of leaf tensors.

    The step counter is shared across parameters and increments once per
    :meth:`step`. Parameters whose gradient is unset are skipped.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not lr > 0:
            raise ConfigError("learning rate must be positive")
        if not params:
            raise ConfigError("optimizer needs at least one parameter")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One bias-corrected Adam step, in place on each parameter and its moments."""
        self.t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            mhat = m / (1.0 - self.beta1 ** self.t)
            vhat = v / (1.0 - self.beta2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class ReduceLROnPlateau:
    """Halve (by ``factor``) the optimizer's lr after a stall.

    Monitors a minimized quantity; an epoch counts as improving only when
    it beats the best seen value by more than ``threshold`` (absolute).
    After ``patience`` consecutive non-improving epochs the lr is scaled by
    ``factor``, floored at ``min_lr``, and the stall counter resets. A
    reduction never raises the lr: one already below ``min_lr`` is kept.
    """

    def __init__(self, optimizer: Adam, factor: float = 0.5, patience: int = 50,
                 min_lr: float = 1e-4, threshold: float = 1e-6):
        if not 0.0 < factor < 1.0:
            raise ConfigError("factor must lie in (0, 1)")
        if patience < 1:
            raise ConfigError("patience must be at least 1")
        self.optimizer = optimizer
        self.factor = float(factor)
        self.patience = int(patience)
        self.min_lr = float(min_lr)
        self.threshold = float(threshold)
        self.best = np.inf
        self.stalled = 0

    def step(self, value: float) -> float:
        """Record one epoch's monitored value; returns the lr now in effect."""
        if value < self.best - self.threshold:
            self.best = value
            self.stalled = 0
        else:
            self.stalled += 1
            if self.stalled >= self.patience:
                lr = self.optimizer.lr
                self.optimizer.lr = min(lr, max(lr * self.factor, self.min_lr))
                self.stalled = 0
        return self.optimizer.lr
