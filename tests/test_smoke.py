"""The smoke battery's oracle checks fail on the smallest disagreement.

Each check also has a hand case, so the detail is matched too: it must name
the randomized comparison against the enumeration oracle.
"""

import numpy as np

from decolite import diversity, evaluation
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


def test_wilcoxon_check_fails_p_1e15_off(tmp_path, monkeypatch):
    real = evaluation.wilcoxon_signed_rank

    def shifted(a, b):
        res = real(a, b)
        return res._replace(p_value=res.p_value + 1e-15)

    monkeypatch.setattr(evaluation, "wilcoxon_signed_rank", shifted)
    passed, detail = CHECKS["wilcoxon-exact"](tmp_path)
    assert passed is False and detail.startswith("trial 0:")
