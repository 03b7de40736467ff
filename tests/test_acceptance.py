"""Acceptance gate: one test per release criterion, each printing a
pass/fail line and enforcing its stated tolerance and runtime budget.

Criteria 1-4, 6 and 7 run the checks of ``decolite smoke``
(:data:`decolite.smoke.SMOKE_CHECKS`), which are the only implementation
of those contracts. Criterion 5 runs against the BirdChicken archive
dataset and is skipped, with its offline desk-scale counterpart noted,
when no archive root is available (set DECO_DATA_ROOT to enable it).
"""

import time
from contextlib import contextmanager

from decolite.diversity import feature_statistics, fid
from decolite.model import model_checksum
from decolite.smoke import SMOKE_CHECKS
from decolite.training import sequential_orthogonality_loss

CHECKS = dict(SMOKE_CHECKS)


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, \
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


def run_checks(out_dir, *names):
    """Run the named smoke checks; a failed one fails with its detail."""
    for name in names:
        passed, detail = CHECKS[name](out_dir)
        # truthy, not ``is True``: some checks return np.bool_
        assert passed, f"{name}: {detail}"


def test_criterion_1_gradient_suite(tmp_path):
    with criterion(1, "primitive and full-model gradients match finite differences",
                   budget_seconds=120):
        run_checks(tmp_path, "tensor-gradients", "model-gradient")


def test_criterion_2_loss_algebra(tmp_path):
    with criterion(2, "orthogonality/total loss identities hold exactly"):
        run_checks(tmp_path, "loss-algebra")


def test_criterion_3_oracle_equivalence(tmp_path):
    with criterion(3, "statistics match their independent oracles", budget_seconds=60):
        run_checks(tmp_path, "dtw-oracle", "wilcoxon-exact", "mcm-hand-table",
                   "fid-closed-form", "mds-roundtrip")


def test_criterion_4_smoke_training(tmp_path):
    with criterion(4, "synthetic two-class training reaches accuracy 1.0 and is "
                      "deterministic", budget_seconds=120):
        run_checks(tmp_path, "train-synthetic", "train-determinism")


def test_criterion_5_decorrelation_effect_birdchicken(birdchicken_runs):
    runs = birdchicken_runs
    with criterion(5, "decorrelation raises feature distance and lowers alignment "
                      "on BirdChicken (500 epochs, 5 seed pairs)"):
        train_ds, test_ds, ref = runs["train"], runs["test"], runs["ref"]
        assert model_checksum(ref) == runs["ref_checksum"]
        _, ref_feats = ref.forward(train_ds.X, mode="eval")
        ref_stats = feature_statistics(ref, test_ds.X, "ref")

        fid_wins = orth_wins = 0
        for pair in runs["pairs"]:
            base, deco = pair["base"], pair["deco"]
            _, f_deco = deco.forward(train_ds.X, mode="eval")
            _, f_base = base.forward(train_ds.X, mode="eval")
            orth_wins += (sequential_orthogonality_loss(f_deco.data, [ref_feats.data]).item()
                          < sequential_orthogonality_loss(f_base.data, [ref_feats.data]).item())
            fid_wins += (fid(ref_stats, feature_statistics(deco, test_ds.X, "deco"))
                         > fid(ref_stats, feature_statistics(base, test_ds.X, "base")))
        assert fid_wins >= 3, f"FID direction held in only {fid_wins}/5 pairs"
        assert orth_wins >= 3, f"alignment direction held in only {orth_wins}/5 pairs"
        assert runs["elapsed"] < 45 * 60, \
            f"training the 11 BirdChicken models took {runs['elapsed']:.0f}s"


def test_criterion_6_frozen_and_paired_contracts(tmp_path):
    with criterion(6, "frozen-predecessor and seed-pairing contracts are bit-exact"):
        run_checks(tmp_path, "frozen-and-paired")


def test_criterion_7_alpha_one_degeneracy(tmp_path):
    with criterion(7, "alpha=1 decorrelated training reproduces plain training "
                      "bit-for-bit"):
        run_checks(tmp_path, "alpha-one-degeneracy")
