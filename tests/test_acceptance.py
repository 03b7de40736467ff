"""Acceptance gate: one test per release criterion, each printing a
pass/fail line and enforcing its stated tolerance and runtime budget.

Criterion 5 runs against the BirdChicken archive dataset and is skipped,
with its offline desk-scale counterpart noted, when no archive root is
available (set DECO_DATA_ROOT to enable it).
"""

import time
from contextlib import contextmanager

import numpy as np

from decolite import tensor as T
from decolite.data import synthetic_trend_dataset
from decolite.diversity import FeatureStats, dtw, embed_2d, feature_statistics, fid
from decolite.evaluation import ResultsTable, mcm, wilcoxon_signed_rank
from decolite.model import LiteArchitectureConfig, init_model, model_checksum
from decolite.oracles import dtw_enumerate, wilcoxon_enumerate
from decolite.training import (TrainConfig, orthogonality_loss,
                               sequential_orthogonality_loss, total_loss, train_base,
                               train_decorrelated)

from test_tensor import gradcheck


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


def test_criterion_1_gradient_suite():
    with criterion(1, "primitive and full-model gradients match finite differences",
                   budget_seconds=120):
        rng = np.random.default_rng(2024)

        for dilation in (1, 2, 4):
            for groups in (1, 4):
                x = T.Tensor(rng.normal(size=(2, 4, 10)), requires_grad=True)
                k = T.Tensor(rng.normal(size=(4, 4 // groups, 3)), requires_grad=True)
                b = T.Tensor(rng.normal(size=4), requires_grad=True)
                gradcheck(lambda x=x, k=k, b=b, d=dilation, g=groups: T.sum_all(
                    T.absolute(T.conv1d(x, k, b, dilation=d, groups=g))), [x, k, b], rng)

        x = T.Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        gamma = T.Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = T.Tensor(rng.normal(size=2), requires_grad=True)
        gradcheck(lambda: T.sum_all(T.absolute(
            T.batch_norm_1d(x, gamma, beta, mode="train"))), [x, gamma, beta], rng)
        rm, rv = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
        gradcheck(lambda: T.sum_all(T.absolute(T.batch_norm_1d(
            x, gamma, beta, rm.copy(), rv.copy(), mode="eval"))), [x, gamma, beta], rng)

        x = T.Tensor(rng.normal(size=(2, 3, 5)) + 0.3, requires_grad=True)
        gradcheck(lambda: T.sum_all(T.relu(x)), [x], rng)
        gradcheck(lambda: T.sum_all(T.global_avg_pool(x)), [x], rng)

        xd = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        bd = T.Tensor(rng.normal(size=2), requires_grad=True)
        targets = np.eye(2)[rng.integers(0, 2, size=3)]
        gradcheck(lambda: T.softmax_cross_entropy(T.dense(xd, w, bd), targets),
                  [xd, w, bd], rng)

        fa = T.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        fb = T.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        gradcheck(lambda: T.sum_all(T.absolute(
            T.cosine_similarity_matrix(fa, fb))), [fa, fb], rng)

        # Full model: forward in train mode, cross-entropy plus the
        # orthogonality penalty against a frozen second network.
        net = init_model(LiteArchitectureConfig(), n_classes=2, seed=11)
        frozen = init_model(LiteArchitectureConfig(), n_classes=2, seed=13)
        x_in = T.Tensor(rng.normal(size=(2, 1, 24)))
        y = np.eye(2)[[0, 1]]
        _, prev = frozen.forward(x_in, mode="eval")
        prev = prev.detach()

        def full_loss():
            logits, feats = net.forward(x_in, mode="train")
            return total_loss(T.softmax_cross_entropy(logits, y),
                              orthogonality_loss(feats, prev), 0.5)

        check_rng = np.random.default_rng(7)
        gradcheck(full_loss, net.trainable_parameters(), check_rng, n_coords=3)


def test_criterion_2_loss_algebra():
    with criterion(2, "orthogonality/total loss identities hold exactly"):
        rng = np.random.default_rng(5)
        assert orthogonality_loss(rng.normal(size=(2, 1, 6)),
                                  rng.normal(size=(2, 1, 6))).item() == 0.0

        ortho = np.stack([np.eye(3)])
        assert abs(orthogonality_loss(ortho, ortho, mode="raw").item()) < 1e-12

        # hand case: rows {(1,0),(1,1)/sqrt2} against {(1,0),(0,1)} puts a
        # single |cos| = sqrt(1/2) = 0.7071... off the diagonal
        fa = np.array([[[1.0, 0.0], [1.0, 1.0]]])
        fa[0, 1] /= np.sqrt(2.0)
        fb = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        assert abs(orthogonality_loss(fa, fb, mode="raw").item() - np.sqrt(0.5)) <= 1e-6
        assert abs(orthogonality_loss(fa, fb, mode="mean").item() - np.sqrt(0.5) / 2) <= 1e-6

        f = rng.normal(size=(2, 3, 5))
        g = rng.normal(size=(2, 3, 5))
        assert sequential_orthogonality_loss(f, [g]).item() == \
            orthogonality_loss(f, g).item()

        assert total_loss(1.0, 0.5, 0.5).item() == 0.75
        assert total_loss(1.23, 9.0, 1.0).item() == 1.23
        assert total_loss(9.0, 0.125, 0.0).item() == 0.125


def test_criterion_3_oracle_equivalence():
    with criterion(3, "statistics match their independent oracles", budget_seconds=60):
        rng = np.random.default_rng(77)
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(1, 7)))
            b = rng.normal(size=int(rng.integers(1, 7)))
            assert dtw(a, b) == dtw_enumerate(a, b)

        for trial in range(30):
            n = trial % 10 + 1
            a = rng.normal(size=n)
            b = a - rng.normal(size=n)
            if trial % 3 == 0 and n > 1:
                b[0] = a[0]  # zero difference
            if trial % 4 == 0 and n > 2:
                d = float(rng.normal())
                b[1], b[2] = a[1] - d, a[2] + d  # tied magnitudes
            assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_enumerate(a, b)

        table = ResultsTable(["a", "b"], ["d1", "d2", "d3"],
                             np.array([[0.9, 0.8, 0.7], [0.8, 0.8, 0.6]]))
        report = mcm(table)
        assert abs(report.mean_difference[0, 1] - 0.2 / 3.0) < 1e-12
        assert (report.wins[0, 1], report.ties[0, 1], report.losses[0, 1]) == (2, 1, 0)

        mu_a, mu_b = rng.normal(size=5), rng.normal(size=5)
        da, db = rng.uniform(0.2, 2.0, size=5), rng.uniform(0.2, 2.0, size=5)
        closed = ((mu_a - mu_b) ** 2).sum() + (da + db - 2 * np.sqrt(da * db)).sum()
        got = fid(FeatureStats("a", mu_a, np.diag(da), 8),
                  FeatureStats("b", mu_b, np.diag(db), 8))
        assert abs(got - closed) <= 1e-8

        pts = rng.normal(size=(5, 2))
        dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        rec = embed_2d(dist).coords
        rec_d = np.sqrt(((rec[:, None] - rec[None]) ** 2).sum(-1))
        assert np.abs(rec_d - dist).max() <= 1e-6


def test_criterion_4_smoke_training():
    with criterion(4, "synthetic two-class training reaches accuracy 1.0 and is "
                      "deterministic", budget_seconds=120):
        ds = synthetic_trend_dataset(n=32, length=16, seed=0)
        cfg = TrainConfig(epochs=200, batch_size=64, seed=0)
        net, log = train_base(ds, cfg)
        assert any(r.train_accuracy == 1.0 for r in log.records)
        logits, _ = net.forward(ds.X, mode="eval")
        assert (logits.data.argmax(axis=1) == ds.y).all()

        short = TrainConfig(epochs=25, batch_size=64, seed=9)
        a, _ = train_base(ds, short)
        b, _ = train_base(ds, short)
        assert model_checksum(a) == model_checksum(b)


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
            orth_wins += (orthogonality_loss(f_deco.data, ref_feats.data).item()
                          < orthogonality_loss(f_base.data, ref_feats.data).item())
            fid_wins += (fid(ref_stats, feature_statistics(deco, test_ds.X, "deco"))
                         > fid(ref_stats, feature_statistics(base, test_ds.X, "base")))
        assert fid_wins >= 3, f"FID direction held in only {fid_wins}/5 pairs"
        assert orth_wins >= 3, f"alignment direction held in only {orth_wins}/5 pairs"
        assert runs["elapsed"] < 45 * 60, \
            f"training the 11 BirdChicken models took {runs['elapsed']:.0f}s"


def test_criterion_6_frozen_and_paired_contracts():
    with criterion(6, "frozen-predecessor and seed-pairing contracts are bit-exact"):
        ds = synthetic_trend_dataset(n=16, length=16, seed=2)
        quick = dict(epochs=15, batch_size=16, plateau_patience=10)
        ref, _ = train_base(ds, TrainConfig(seed=0, **quick))
        before = model_checksum(ref)
        paired = model_checksum(init_model(ref.config, ds.n_classes, 1))
        deco, _ = train_decorrelated(ds, TrainConfig(seed=1, **quick), [ref])
        assert model_checksum(ref) == before
        assert model_checksum(init_model(ref.config, ds.n_classes, 1)) == paired
        assert model_checksum(deco) != paired  # it trained away from the shared init


def test_criterion_7_alpha_one_degeneracy():
    with criterion(7, "alpha=1 decorrelated training reproduces plain training "
                      "bit-for-bit"):
        ds = synthetic_trend_dataset(n=16, length=16, seed=3)
        quick = dict(epochs=40, batch_size=16, plateau_patience=10)
        ref, _ = train_base(ds, TrainConfig(seed=0, epochs=10, batch_size=16,
                                            plateau_patience=10))
        plain, _ = train_base(ds, TrainConfig(seed=6, **quick))
        deco, _ = train_decorrelated(ds, TrainConfig(seed=6, alpha=1.0, **quick), [ref])
        assert model_checksum(plain) == model_checksum(deco)
