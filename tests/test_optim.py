"""Adam update math and plateau-driven lr reduction."""

import numpy as np
import pytest

from decolite.errors import ConfigError
from decolite.optim import Adam, ReduceLROnPlateau
from decolite.oracles import adam_trace
from decolite.tensor import Tensor


def _scalar_param(value=1.0):
    return Tensor(np.asarray(value), requires_grad=True)


class TestAdam:
    def test_rejects_bad_lr(self):
        with pytest.raises(ConfigError):
            Adam([_scalar_param()], lr=0.0)
        with pytest.raises(ConfigError):
            Adam([_scalar_param()], lr=-1e-3)
        with pytest.raises(ConfigError):
            Adam([_scalar_param()], lr=float("nan"))

    def test_zero_gradient_leaves_param_unchanged(self):
        p = _scalar_param(3.5)
        opt = Adam([p], lr=0.01)
        p.grad = np.asarray(0.0)
        opt.step()
        assert p.item() == 3.5

    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update g / (|g| + eps), so the
        # step is -lr * sign(g) up to the epsilon guard
        for g in (0.3, -2.0, 0.001):
            p = _scalar_param(0.0)
            opt = Adam([p], lr=0.01)
            p.grad = np.asarray(g)
            opt.step()
            np.testing.assert_allclose(p.item(), -0.01 * np.sign(g), rtol=1e-4)

    def test_trace_matches_scripted_recurrence(self):
        grads = [0.4, -0.7, 0.1, 0.1, -2.0]
        p = _scalar_param(0.25)
        opt = Adam([p], lr=0.005)
        seen = []
        for g in grads:
            p.grad = np.asarray(g)
            opt.step()
            seen.append(p.item())
        np.testing.assert_allclose(seen, adam_trace(grads, lr=0.005, start=0.25),
                                   rtol=1e-12)

    def test_skips_params_without_grad(self):
        p, q = _scalar_param(1.0), _scalar_param(2.0)
        opt = Adam([p, q], lr=0.1)
        p.grad = np.asarray(1.0)
        opt.step()
        assert q.item() == 2.0 and p.item() != 1.0


class TestReduceLROnPlateau:
    def _make(self, lr=0.001, patience=50):
        opt = Adam([_scalar_param()], lr=lr)
        return opt, ReduceLROnPlateau(opt, factor=0.5, patience=patience, min_lr=1e-4)

    def test_decreasing_loss_keeps_lr(self):
        opt, sched = self._make()
        for loss in np.linspace(1.0, 0.5, 120):
            sched.step(float(loss))
        assert opt.lr == 0.001

    def test_fifty_flat_epochs_halve_lr(self):
        opt, sched = self._make()
        sched.step(1.0)
        for _ in range(49):
            sched.step(1.0)
        assert opt.lr == 0.001
        sched.step(1.0)
        assert opt.lr == 0.0005

    def test_floor_at_min_lr(self):
        opt, sched = self._make(patience=2)
        sched.step(1.0)
        for _ in range(40):
            sched.step(1.0)
        assert opt.lr == 1e-4

    def test_lr_below_floor_is_never_raised(self):
        opt, sched = self._make(lr=1e-5, patience=2)
        for _ in range(10):
            sched.step(1.0)
        assert opt.lr == 1e-5

    def test_improvement_below_threshold_counts_as_stall(self):
        opt, sched = self._make(patience=3)
        sched.step(1.0)
        for k in range(3):
            sched.step(1.0 - (k + 1) * 1e-8)
        assert opt.lr == 0.0005

    def test_validation(self):
        opt, _ = self._make()
        with pytest.raises(ConfigError):
            ReduceLROnPlateau(opt, factor=1.5)
        with pytest.raises(ConfigError):
            ReduceLROnPlateau(opt, patience=0)
