"""Ensemble inference and comparison statistics against independent oracles."""

import numpy as np
import pytest

from decolite.data import synthetic_trend_dataset
from decolite.errors import ConfigError, FormatError, InputError, UsageError
from decolite import evaluation
from decolite.evaluation import (ResultsTable, accuracy, ensemble_accuracy, ensemble_predict,
                                 format_p_value, mcm, prefix_accuracies, wilcoxon_signed_rank)
from decolite.model import LiteArchitectureConfig, LiteModel, init_model, load_model, save_model
from decolite.oracles import wilcoxon_enumerate


@pytest.fixture
def rng():
    return np.random.default_rng(17)


@pytest.fixture(scope="module")
def models():
    arch = LiteArchitectureConfig()
    return [init_model(arch, 2, seed) for seed in range(3)]


@pytest.fixture(scope="module")
def xs():
    return synthetic_trend_dataset(n=10, length=24, seed=5).X


class TestEnsemblePredict:
    def test_single_model_is_its_softmax(self, models, xs):
        probs = ensemble_predict(models[:1], xs)
        logits, _ = models[0].forward(xs, mode="eval")
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        want = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, want, atol=1e-12)

    def test_duplicated_model_leaves_probs_unchanged(self, models, xs):
        one = ensemble_predict(models[:1], xs)
        two = ensemble_predict([models[0], models[0]], xs)
        np.testing.assert_allclose(one, two, atol=1e-15)

    def test_mean_of_two_distributions(self):
        # pure probability averaging, checked through the arithmetic example
        p = np.array([[0.9, 0.1]])
        q = np.array([[0.2, 0.8]])
        avg = np.sort(np.stack([p, q]), axis=0).sum(axis=0) / 2
        np.testing.assert_allclose(avg, [[0.55, 0.45]])
        assert avg.argmax(axis=1)[0] == 0

    def test_order_invariance_is_bitwise(self, models, xs):
        a = ensemble_predict(models, xs)
        b = ensemble_predict(models[::-1], xs)
        c = ensemble_predict([models[1], models[2], models[0]], xs)
        assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_rows_are_distributions(self, models, xs):
        probs = ensemble_predict(models, xs)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()

    def test_class_count_mismatch(self, models, xs):
        other = init_model(LiteArchitectureConfig(), 3, 0)
        with pytest.raises(ConfigError):
            ensemble_predict([models[0], other], xs)

    def test_needs_models(self, xs):
        ds = synthetic_trend_dataset(n=4, length=8, seed=0)
        for call, data in ((ensemble_predict, xs), (ensemble_accuracy, ds),
                           (prefix_accuracies, ds)):
            with pytest.raises(UsageError, match="^an ensemble needs at least one model$"):
                call([], data)


class TestEnsembleAccuracy:
    def test_one_forward_per_member_same_results(self, models, monkeypatch, tmp_path):
        ds = synthetic_trend_dataset(n=10, length=24, seed=5)
        probs = ensemble_predict(models, ds.X)
        want_ens = accuracy(probs.argmax(axis=1), ds.y)
        want_members = [accuracy(evaluation._member_probs([m], ds.X)[0].argmax(axis=1), ds.y)
                        for m in models]
        # ensemble_predict memoized the fixture's passes, so count on
        # freshly loaded members, which hold none.
        for i, m in enumerate(models):
            save_model(m, tmp_path / f"m{i}.ckpt")
        loaded = [load_model(tmp_path / f"m{i}.ckpt") for i in range(len(models))]

        calls = []
        real_forward = LiteModel.forward

        def counting_forward(self, x, mode="eval"):
            calls.append(mode)
            return real_forward(self, x, mode=mode)

        monkeypatch.setattr(LiteModel, "forward", counting_forward)
        ens, members = ensemble_accuracy(loaded, ds)
        assert calls == ["eval"] * len(models)
        assert ens == want_ens and members == want_members
        # A repeat call over the same values forwards nothing.
        assert ensemble_accuracy(loaded, ds) == (ens, members)
        assert calls == ["eval"] * len(models)


class TestAccuracy:
    def test_extremes_and_fraction(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0
        assert accuracy(np.array([1, 0]), np.array([0, 1])) == 0.0
        pred = np.zeros(20, dtype=int)
        true = np.zeros(20, dtype=int)
        true[[3, 11]] = 1
        assert accuracy(pred, true) == 0.9

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            accuracy(np.array([]), np.array([]))


class TestWilcoxon:
    def test_identical_samples_degenerate(self):
        res = wilcoxon_signed_rank(np.arange(5.0), np.arange(5.0))
        assert res.degenerate and res.p_value == 1.0

    def test_six_positive_distinct(self):
        res = wilcoxon_signed_rank(np.arange(1.0, 7.0), np.zeros(6))
        assert res.method == "exact"
        assert res.p_value == 2.0 / 64.0

    @pytest.mark.parametrize("trial", range(25))
    def test_exact_matches_full_enumeration(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 11))
        a = rng.normal(size=n)
        b = a - rng.normal(size=n)
        if trial % 3 == 0:  # inject exact zero differences
            b[rng.integers(0, n)] = a[rng.integers(0, n) % n]
        if trial % 4 == 0:  # inject tied magnitudes
            d = rng.normal()
            b[0], b[-1] = a[0] - d, a[-1] + d
        assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_enumerate(a, b)

    def test_ties_use_average_ranks(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = a - np.array([0.5, -0.5, 1.0, -1.0])
        assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_enumerate(a, b)

    def test_normal_path_used_beyond_threshold(self, rng):
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        res = wilcoxon_signed_rank(a, b)
        assert res.method == "normal"
        assert 0.0 <= res.p_value <= 1.0

    def test_exact_and_normal_agree_at_n20(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=20)
            b = rng.normal(size=20)
            exact = wilcoxon_signed_rank(a, b).p_value
            approx = wilcoxon_signed_rank(a, b, exact_threshold=0).p_value
            assert abs(exact - approx) <= 0.02

    def test_statistic_is_smaller_rank_sum(self):
        a = np.array([3.0, 5.0, 1.0])
        b = np.array([1.0, 1.0, 2.0])  # diffs +2, +4, -1
        res = wilcoxon_signed_rank(a, b)
        assert res.statistic == 1.0  # |W-| = rank of the single negative diff

    def test_input_validation(self):
        with pytest.raises(UsageError):
            wilcoxon_signed_rank(np.zeros(3), np.zeros(4))
        with pytest.raises(UsageError):
            wilcoxon_signed_rank(np.array([]), np.array([]))

    def test_underflow_formatting(self):
        assert format_p_value(1e-15) == "< 1e-12"
        assert format_p_value(0.5) == "0.5"


class TestResultsTable:
    def test_validation(self):
        with pytest.raises(InputError):
            ResultsTable(["a"], ["d1"], np.array([[1.3]]))
        with pytest.raises(InputError):
            ResultsTable(["a", "b"], ["d1"], np.array([[0.5]]))

    def test_csv_round_trip(self, tmp_path, rng):
        table = ResultsTable(["clf-a", "clf-b"], ["d1", "d2", "d3"],
                             rng.uniform(size=(2, 3)))
        path = tmp_path / "results.csv"
        table.to_csv(path)
        back = ResultsTable.from_csv(path)
        assert back.classifiers == table.classifiers
        assert back.datasets == table.datasets
        np.testing.assert_array_equal(back.acc, table.acc)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dataset,a\nrow1,0.5,0.6\n")
        with pytest.raises(FormatError):
            ResultsTable.from_csv(path)


class TestMCM:
    def test_hand_two_by_three(self):
        table = ResultsTable(["a", "b"], ["d1", "d2", "d3"],
                             np.array([[0.9, 0.8, 0.7], [0.8, 0.8, 0.6]]))
        report = mcm(table)
        np.testing.assert_allclose(report.mean_difference[0, 1], 0.2 / 3.0, atol=1e-12)
        assert (report.wins[0, 1], report.ties[0, 1], report.losses[0, 1]) == (2, 1, 0)
        assert report.classifiers == ["a", "b"]

    def test_identical_rows_fully_tied(self):
        acc = np.tile(np.array([0.5, 0.6, 0.7]), (2, 1))
        report = mcm(ResultsTable(["a", "b"], ["d1", "d2", "d3"], acc))
        assert report.mean_difference[0, 1] == 0.0
        assert report.ties[0, 1] == 3
        assert report.p_values[0, 1] == 1.0
        assert not report.significant.any()

    def test_invariants_on_random_tables(self, rng):
        for _ in range(5):
            k, d = int(rng.integers(2, 5)), int(rng.integers(3, 9))
            table = ResultsTable([f"c{i}" for i in range(k)],
                                 [f"d{j}" for j in range(d)],
                                 rng.uniform(size=(k, d)))
            report = mcm(table)
            np.testing.assert_array_equal(report.wins, report.losses.T)
            np.testing.assert_array_equal(report.ties, report.ties.T)
            np.testing.assert_allclose(report.mean_difference,
                                       -report.mean_difference.T, atol=1e-15)
            np.testing.assert_array_equal(report.p_values, report.p_values.T)
            assert (np.diff(report.mean_accuracy) <= 1e-15).all()

    def test_ranking_invariant_under_constant_shift(self, rng):
        acc = rng.uniform(0.1, 0.6, size=(3, 6))
        base = mcm(ResultsTable(["x", "y", "z"], [f"d{i}" for i in range(6)], acc))
        shifted = mcm(ResultsTable(["x", "y", "z"], [f"d{i}" for i in range(6)],
                                   acc + 0.3))
        assert base.classifiers == shifted.classifiers

    def test_single_classifier_rejected(self):
        with pytest.raises(UsageError):
            mcm(ResultsTable(["a"], ["d1", "d2"], np.array([[0.5, 0.6]])))

    def test_report_serialization(self, tmp_path, rng):
        table = ResultsTable(["a", "b"], ["d1", "d2", "d3"],
                             rng.uniform(size=(2, 3)))
        report = mcm(table)
        report.to_json(tmp_path / "r.json")
        report.matrix_csv(tmp_path / "m.csv")
        assert (tmp_path / "r.json").stat().st_size > 0
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header == "classifier," + ",".join(report.classifiers)
