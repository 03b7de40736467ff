"""The smoke battery's checks fail on the smallest disagreement.

Each oracle check also has a hand case, so the detail is matched too: it
must name the randomized comparison against the enumeration oracle. A
failed check also fails the acceptance criterion that runs it.
"""

import numpy as np
import pytest

from decolite import diversity, evaluation, tensor as T, training
from decolite.smoke import SMOKE_CHECKS

CHECKS = dict(SMOKE_CHECKS)


def test_oracle_checks_pass_unpatched(tmp_path):
    assert CHECKS["dtw-oracle"](tmp_path)[0] is True
    assert CHECKS["wilcoxon-exact"](tmp_path)[0] is True


def test_dtw_check_fails_one_ulp_off(tmp_path, monkeypatch):
    real = diversity.dtw
    monkeypatch.setattr(diversity, "dtw", lambda a, b: np.nextafter(real(a, b), np.inf))
    passed, detail = CHECKS["dtw-oracle"](tmp_path)
    assert passed is False and detail.startswith("mismatch on lengths")


def test_dtw_check_fails_batched_one_ulp_off(tmp_path, monkeypatch):
    # Only stacks of several pairs are nudged, so the scalar comparisons
    # pass and the batched one must catch it.
    real = diversity._dtw_batch

    def nudged(left, right):
        out = real(left, right)
        return np.nextafter(out, np.inf) if out.size > 1 else out

    monkeypatch.setattr(diversity, "_dtw_batch", nudged)
    passed, detail = CHECKS["dtw-oracle"](tmp_path)
    assert passed is False and detail.startswith("batched mismatch on lengths 3x20")


def test_wilcoxon_check_fails_p_1e15_off(tmp_path, monkeypatch):
    real = evaluation.wilcoxon_signed_rank

    def shifted(a, b):
        res = real(a, b)
        return res._replace(p_value=res.p_value + 1e-15)

    monkeypatch.setattr(evaluation, "wilcoxon_signed_rank", shifted)
    passed, detail = CHECKS["wilcoxon-exact"](tmp_path)
    assert passed is False and detail.startswith("trial 0:")


def test_failing_check_fails_its_criterion(tmp_path, monkeypatch):
    import test_acceptance
    real = training.total_loss

    def one_ulp_off(ce, orth, alpha):
        return T.Tensor(np.nextafter(real(ce, orth, alpha).data, np.inf))

    monkeypatch.setattr(training, "total_loss", one_ulp_off)
    with pytest.raises(AssertionError) as excinfo:
        test_acceptance.test_criterion_2_loss_algebra(tmp_path)
    message = str(excinfo.value)
    assert "loss-algebra" in message and "alpha blend arithmetic off" in message


def test_frozen_check_fails_on_a_one_ulp_predecessor_change(tmp_path, monkeypatch):
    real = training._frozen_features

    def nudging(prev, *args):
        prev[0].head_b.data[0] = np.nextafter(prev[0].head_b.data[0], np.inf)
        return real(prev, *args)

    monkeypatch.setattr(training, "_frozen_features", nudging)
    assert CHECKS["frozen-and-paired"](tmp_path) == (False, "frozen predecessor changed")


def test_alpha_one_check_fails_one_ulp_off(tmp_path, monkeypatch):
    real = training.total_loss

    def scaled(ce, orth, alpha):
        return ce * (1 + 2**-52) if alpha == 1.0 else real(ce, orth, alpha)

    monkeypatch.setattr(training, "total_loss", scaled)
    assert CHECKS["alpha-one-degeneracy"](tmp_path) == (False, "parameters differ")
