"""Losses and training loops: algebra, contracts, decorrelation effect."""

import errno
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from decolite import training as training_mod
from decolite.data import batch_indices, synthetic_trend_dataset
from decolite.errors import ConfigError, NumericError, ShapeError, UsageError
from decolite.model import LiteModel, model_checksum, save_model
from decolite.tensor import Tensor, backward
from decolite.training import (TrainConfig, TrainLog, build_ensemble,
                               sequential_orthogonality_loss, total_loss, train_base)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def _quick(seed=0, **kw):
    defaults = dict(epochs=20, batch_size=16, plateau_patience=10, seed=seed)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestOrthogonalityLoss:
    """The loss against one predecessor."""

    def test_single_channel_is_zero(self, rng):
        a = rng.normal(size=(3, 1, 8))
        b = rng.normal(size=(3, 1, 8))
        assert sequential_orthogonality_loss(a, [b]).item() == 0.0
        assert sequential_orthogonality_loss(a, [b], mode="raw").item() == 0.0

    def test_orthonormal_identical_maps(self):
        f = np.stack([np.eye(3)] * 2)  # channels are orthonormal rows
        assert abs(sequential_orthogonality_loss(f, [f], mode="raw").item()) < 1e-12

    def test_hand_two_channel_case(self):
        fa = np.array([[[1.0, 0.0], [1.0, 1.0]]])
        fa[0, 1] /= np.sqrt(2.0)
        fb = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        raw = sequential_orthogonality_loss(fa, [fb], mode="raw").item()
        assert abs(raw - 0.7071) < 1e-4
        np.testing.assert_allclose(raw, np.sqrt(0.5), atol=1e-6)
        np.testing.assert_allclose(sequential_orthogonality_loss(fa, [fb], mode="mean").item(),
                                   np.sqrt(0.5) / 2.0, atol=1e-6)

    def test_symmetric_in_arguments(self, rng):
        for _ in range(5):
            a = rng.normal(size=(2, 4, 7))
            b = rng.normal(size=(2, 4, 7))
            for mode in ("mean", "raw"):
                d = abs(sequential_orthogonality_loss(a, [b], mode).item()
                        - sequential_orthogonality_loss(b, [a], mode).item())
                assert d <= 1e-12

    def test_invariant_to_positive_channel_rescaling(self, rng):
        a = rng.normal(size=(2, 4, 7))
        b = rng.normal(size=(2, 4, 7))
        base = sequential_orthogonality_loss(a, [b]).item()
        scale = rng.uniform(0.1, 10.0, size=(1, 4, 1))
        assert abs(sequential_orthogonality_loss(a * scale, [b]).item() - base) <= 1e-9
        assert abs(sequential_orthogonality_loss(a, [b * scale]).item() - base) <= 1e-9

    def test_nonnegative(self, rng):
        for _ in range(10):
            a, b = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 3, 5))
            assert sequential_orthogonality_loss(a, [b], mode="raw").item() >= 0.0

    def test_mean_mode_divides_by_pair_count(self, rng):
        a, b = rng.normal(size=(2, 5, 6)), rng.normal(size=(2, 5, 6))
        raw = sequential_orthogonality_loss(a, [b], mode="raw").item()
        mean = sequential_orthogonality_loss(a, [b], mode="mean").item()
        np.testing.assert_allclose(mean, raw / (5 * 4), rtol=1e-12)

    def test_shape_checks(self, rng):
        draw = rng.normal
        with pytest.raises(ShapeError):
            sequential_orthogonality_loss(draw(size=(2, 3, 4)), [draw(size=(2, 3, 5))])
        with pytest.raises(ShapeError):
            sequential_orthogonality_loss(draw(size=(3, 4)), [draw(size=(3, 4))])
        with pytest.raises(ShapeError):  # 5 channels are no whole number of 3-channel maps
            sequential_orthogonality_loss(draw(size=(2, 3, 4)), [draw(size=(2, 5, 4))])
        with pytest.raises(ConfigError):
            sequential_orthogonality_loss(draw(size=(1, 2, 3)), [draw(size=(1, 2, 3))], "other")


class TestSequentialLoss:
    def test_mean_of_equal_terms(self, rng):
        f = rng.normal(size=(2, 3, 5))
        g = rng.normal(size=(2, 3, 5))
        one = sequential_orthogonality_loss(f, [g]).item()
        two = sequential_orthogonality_loss(f, [g, g.copy()]).item()
        np.testing.assert_allclose(two, one, rtol=1e-12)

    def test_arithmetic_mean(self, rng):
        f = rng.normal(size=(1, 3, 6))
        for p in (1, 2, 3, 4):
            gs = [rng.normal(size=(1, 3, 6)) for _ in range(p)]
            for mode in ("mean", "raw"):
                parts = [sequential_orthogonality_loss(f, [g], mode).item() for g in gs]
                got = sequential_orthogonality_loss(f, gs, mode).item()
                np.testing.assert_allclose(got, np.mean(parts), rtol=1e-12)
                # the same P maps as one (B, P*C, T) entry
                stacked = [np.concatenate(gs, axis=1)]
                assert sequential_orthogonality_loss(f, stacked, mode).item() == got

    def test_one_similarity_op_for_any_predecessor_count(self, rng):
        sizes = []
        for p in (1, 4):
            f = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
            loss = sequential_orthogonality_loss(f, [rng.normal(size=(2, 3, 5))
                                                     for _ in range(p)])
            nodes, stack = {}, [loss]
            while stack:
                node = stack.pop()
                if node._backward is not None and id(node) not in nodes:
                    nodes[id(node)] = node._backward.__qualname__
                    stack.extend(node._parents)
            assert sum(q.startswith("cosine_similarity_matrix.") for q in nodes.values()) == 1
            sizes.append(len(nodes))
        assert sizes[0] == sizes[1]

    def test_predecessors_get_no_gradient(self, rng):
        f = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        g = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        backward(sequential_orthogonality_loss(f, [g, rng.normal(size=(2, 3, 5))]))
        assert f.grad is not None and g.grad is None

    def test_empty_list_rejected(self, rng):
        with pytest.raises(UsageError):
            sequential_orthogonality_loss(rng.normal(size=(1, 2, 3)), [])


class TestTotalLoss:
    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            total_loss(1.0, 1.0, 1.5)
        with pytest.raises(ConfigError):
            total_loss(1.0, 1.0, -0.1)


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.alpha == 0.5
        assert cfg.lr == 1e-3
        assert cfg.plateau_factor == 0.5
        assert cfg.plateau_patience == 50
        assert cfg.epochs == 1500
        assert cfg.batch_size == 64
        assert cfg.orth_normalization == "mean"

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.5).validate()
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(orth_normalization="other").validate()
        for lr in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainConfig(lr=lr).validate()


class TestTrainBase:
    def test_log_shape_and_orth_column(self):
        ds = synthetic_trend_dataset(n=16, length=16, seed=1)
        _, log = train_base(ds, _quick(seed=0, epochs=7))
        assert [r.epoch for r in log.records] == list(range(7))
        assert all(r.orth_loss == 0.0 for r in log.records)
        assert all(r.total_loss == r.ce_loss for r in log.records)
        assert all(np.isfinite(r.total_loss) for r in log.records)

    def test_returns_best_loss_checkpoint(self):
        ds = synthetic_trend_dataset(n=16, length=16, seed=1)
        net, log = train_base(ds, _quick(seed=0, epochs=30))
        best = min(r.total_loss for r in log.records)
        logits, _ = net.forward(ds.X, mode="eval")  # model is usable post-restore
        assert np.isfinite(best) and logits.data.shape == (16, 2)

    def test_divergence_aborts_with_epoch(self):
        ds = synthetic_trend_dataset(n=16, length=16, seed=0)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch"):
            train_base(ds, _quick(seed=0, lr=1e200, epochs=10))


class TestTrainDecorrelated:
    def test_seed_pairing_starts_bit_identical(self, monkeypatch):
        ds = synthetic_trend_dataset(n=16, length=16, seed=2)
        initial = []
        real_init = training_mod.init_model

        def spying_init(arch, n_classes, seed):
            m = real_init(arch, n_classes, seed)
            initial.append((seed, model_checksum(m)))
            return m

        monkeypatch.setattr(training_mod, "init_model", spying_init)
        build_ensemble(ds, _quick(epochs=2), 2, "base", seeds=[0, 7])
        build_ensemble(ds, _quick(epochs=2), 2, "deco", seeds=[0, 7])
        twin_base, twin_deco = initial[1], initial[3]
        assert twin_base[0] == twin_deco[0] == 7
        assert twin_base[1] == twin_deco[1]

    def test_peak_memory_is_a_few_activations(self):
        ds = synthetic_trend_dataset(n=8, length=256, seed=0)
        activation = 8 * (32 * 3 + 17) * 256 * 8  # one 113-channel float64 map
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            build_ensemble(ds, TrainConfig(epochs=3, batch_size=8), 2, "deco")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 8.6x. A step graph that outlives its step (alive during the
        # next forward, with its interior gradients), saved padded conv
        # inputs and normalized batch-norm maps peak at about 22x.
        assert peak - before <= 10 * activation


@pytest.fixture(scope="module")
def decorrelation_runs(tmp_path_factory):
    """Each of five same-seed (plain, decorrelated) twins' orthogonality
    loss against one reference."""
    from conftest import train_twins
    train = synthetic_trend_dataset(n=32, length=96, seed=0)
    twins = train_twins(train, TrainConfig(epochs=100, batch_size=64),
                        tmp_path_factory.mktemp("twins"))

    def eval_features(m):
        _, f = m.forward(train.X, mode="eval")
        return f.data

    ref_feats = eval_features(twins["ref"])
    return [{
        "seed": p["seed"],
        "orth_deco": sequential_orthogonality_loss(eval_features(p["deco"]), [ref_feats]).item(),
        "orth_plain": sequential_orthogonality_loss(eval_features(p["base"]), [ref_feats]).item(),
    } for p in twins["pairs"]]


def test_twins_keep_their_bits(tmp_path):
    from conftest import train_twins
    ds = synthetic_trend_dataset(n=16, length=16)
    twins = train_twins(ds, TrainConfig(epochs=2, batch_size=16), tmp_path)
    # Computed when each twin was trained on its own, with its own buffer.
    assert model_checksum(twins["ref"])[:16] == twins["ref_checksum"][:16] == \
        "3c51038e877cb04f"
    assert [model_checksum(p["base"])[:16] for p in twins["pairs"]] == \
        ["9de68aabc73e0a7a", "d12a8dd41dc8d5df", "b2909717bf7f369b", "57a99b1fec90e564",
         "78d49a8a242534b3"]
    assert [model_checksum(p["deco"])[:16] for p in twins["pairs"]] == \
        ["5f133c759b728e84", "a21866809b2d0151", "9b0ed2319bef620f", "35feab6c92233290",
         "b170db0f10d030b0"]


class TestDecorrelationEffect:
    def test_decorrelated_twin_is_less_aligned_with_reference(self, decorrelation_runs):
        # Three-run comparison per seed: the decorrelated model should sit
        # closer to orthogonal against the reference than an independently
        # seeded plain model does, for a majority of seeds.
        wins = sum(p["orth_deco"] < p["orth_plain"] for p in decorrelation_runs)
        assert wins >= 3, decorrelation_runs


class TestArchiveExamples:
    """Archive-gated checks; they run whenever DECO_DATA_ROOT is set."""

    def test_coffee_single_model_fits_training_set(self):
        from conftest import ucr_root_or_none
        from decolite.data import load_dataset
        from decolite.evaluation import accuracy
        root = ucr_root_or_none("Coffee")
        if root is None:
            pytest.skip("Coffee is not available offline")
        train, _ = load_dataset(root, "Coffee")
        net, _ = train_base(train, TrainConfig(seed=0))
        logits, _ = net.forward(train.X, mode="eval")
        assert accuracy(logits.data.argmax(axis=1), train.y) == 1.0

    def test_birdchicken_two_model_ensembles_favor_decorrelation(self, birdchicken_runs):
        from decolite.evaluation import ensemble_accuracy
        runs = birdchicken_runs
        wins = 0
        for pair in runs["pairs"]:
            deco_acc, _ = ensemble_accuracy([runs["ref"], pair["deco"]], runs["test"])
            base_acc, _ = ensemble_accuracy([runs["ref"], pair["base"]], runs["test"])
            wins += deco_acc >= base_acc
        assert wins >= 3, f"decorrelated pair matched or beat plain in {wins}/5"


class TestBuildEnsemble:
    def test_base_kind_trains_independent_seeds(self):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        build = build_ensemble(ds, _quick(epochs=5), size=2, kind="base")
        assert build.metadata["name"] == "LITETime-2"
        assert build.metadata["seeds"] == [0, 1]
        assert len(build.models) == 2
        assert all(r.orth_loss == 0.0 for log in build.logs for r in log.records)
        assert model_checksum(build.models[0]) != model_checksum(build.models[1])

    def test_deco_kind_bookkeeping(self):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        build = build_ensemble(ds, _quick(epochs=5), size=3, kind="deco")
        assert build.metadata["name"] == "Deco-LITETime-3"
        assert all(r.orth_loss == 0.0 for r in build.logs[0].records)
        assert all(r.orth_loss > 0.0 for r in build.logs[1].records)
        assert all(r.orth_loss > 0.0 for r in build.logs[2].records)

    def test_deco_chain_forwards_each_member_once(self, monkeypatch):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        rows = []
        real_forward = LiteModel.forward

        def counting_forward(self, x, mode="eval"):
            if mode == "eval":
                rows.append(np.shape(getattr(x, "data", x))[0])
            return real_forward(self, x, mode=mode)

        monkeypatch.setattr(LiteModel, "forward", counting_forward)
        build_ensemble(ds, _quick(epochs=2), size=4, kind="deco")
        # Members 0-2 once each; the last member is never a predecessor.
        assert rows == [ds.n] * 3

    def test_members_keep_no_gradients(self):
        # The last step's gradients belong to the parameters that the best
        # state replaces; dropping them must leave every bit of the member.
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        build = build_ensemble(ds, _quick(epochs=3, batch_size=6), size=4, kind="deco")
        assert all(p.grad is None for m in build.models for p in m.trainable_parameters())
        # Computed when the gradients were still kept.
        assert [model_checksum(m)[:16] for m in build.models] == \
            ["dd1e87b22c05ec9e", "aa1d2bd86a64abbe", "f475f48223dd94b1", "7f16eaf16e3ee1a9"]

    def test_each_step_gathers_the_predecessors_batch_forwards(self, monkeypatch):
        # The chain forwards the training set once per member, in chunks;
        # batches of 6 of 20 rows neither cover the set nor match a chunk,
        # so this holds only because eval forwards are pure per sample.
        ds = synthetic_trend_dataset(n=20, length=16, seed=4)
        cfg = _quick(epochs=2, batch_size=6)
        gathered = []
        real_loss = training_mod.sequential_orthogonality_loss

        def spy(new, prev, mode):
            gathered.append(prev)
            return real_loss(new, prev, mode)

        monkeypatch.setattr(training_mod, "sequential_orthogonality_loss", spy)
        chain = build_ensemble(ds, cfg, size=4, kind="deco").models
        batches = [(m, idx) for m in (1, 2, 3) for epoch in range(cfg.epochs)
                   for idx in batch_indices(ds.n, cfg.batch_size, m, epoch)]
        assert len(gathered) == len(batches)
        for prev, (m, idx) in zip(gathered, batches):
            assert len(prev) == 1
            want = [p.forward(ds.X[idx], mode="eval")[1].data for p in chain[:m]]
            assert np.array_equal(prev[0], np.concatenate(want, axis=1))

    def test_crash_leaves_no_file_and_resumes(self, tmp_path, monkeypatch):
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        cfg = _quick(epochs=3, batch_size=6)
        dirs = [tmp_path / f"member{i}" for i in range(4)]
        real_step = training_mod._train_step
        mapped = []

        def crashing_step(ds, idx, config, model, opt, frozen, epoch):
            if config.seed == 2 and epoch == 1:
                maps = Path("/proc/self/maps")
                mapped.append(not maps.exists() or str(temp) in maps.read_text())
                raise RuntimeError("killed mid-training")
            return real_step(ds, idx, config, model, opt, frozen, epoch)

        with monkeypatch.context() as patch:
            patch.setattr(training_mod, "_train_step", crashing_step)
            with pytest.raises(RuntimeError):
                build_ensemble(ds, cfg, size=4, kind="deco", out_dirs=dirs)
        # The maps lived in the temp directory, but under no name.
        assert mapped == [True]
        assert list(temp.iterdir()) == []
        assert not any((d / "checkpoint_best.ckpt").exists() for d in dirs[2:])

        rerun = build_ensemble(ds, cfg, size=4, kind="deco", out_dirs=dirs)
        assert [log is None for log in rerun.logs] == [True, True, False, False]
        fresh = build_ensemble(ds, cfg, size=4, kind="deco")
        assert [model_checksum(m) for m in rerun.models] == \
            [model_checksum(m) for m in fresh.models]

    def test_no_room_for_the_maps_fails_before_training(self, tmp_path, monkeypatch):
        def no_space(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(training_mod.os, "posix_fallocate", no_space)
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        dirs = [tmp_path / f"member{i}" for i in range(3)]
        with pytest.raises(OSError) as exc:
            build_ensemble(ds, _quick(epochs=2), size=3, kind="deco", out_dirs=dirs)
        assert exc.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_fails_before_forwarding_a_loaded_reference(self, tmp_path,
                                                                   monkeypatch):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        dirs = [tmp_path / f"member{i}" for i in range(2)]
        build_ensemble(ds, _quick(epochs=2), size=2, kind="deco", out_dirs=dirs)
        rows = []
        real_forward = LiteModel.forward

        def counting_forward(self, x, mode="eval"):
            rows.append(mode)
            return real_forward(self, x, mode=mode)

        monkeypatch.setattr(LiteModel, "forward", counting_forward)
        # The reference ignores alpha, so it is loaded; member 1 must reject
        # alpha before the reference's maps are computed.
        with pytest.raises(ConfigError):
            build_ensemble(ds, _quick(epochs=2, alpha=1.5), size=2, kind="deco",
                           out_dirs=dirs)
        assert rows == []

    def test_changed_or_unrecorded_config_retrains(self, tmp_path):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        dirs = [tmp_path / f"member{i}" for i in range(3)]
        first = build_ensemble(ds, _quick(epochs=2), size=3, kind="deco", out_dirs=dirs)
        again = build_ensemble(ds, _quick(epochs=2), size=3, kind="deco", out_dirs=dirs)
        assert again.logs == [None] * 3
        assert [model_checksum(m) for m in again.models] == \
            [model_checksum(m) for m in first.models]

        changed = build_ensemble(ds, _quick(epochs=3), size=3, kind="deco", out_dirs=dirs)
        assert [len(log.records) for log in changed.logs] == [3, 3, 3]
        fresh = build_ensemble(ds, _quick(epochs=3), size=3, kind="deco")
        assert [model_checksum(m) for m in changed.models] == \
            [model_checksum(m) for m in fresh.models]

        # a checkpoint that records no training config is retrained
        save_model(changed.models[1], dirs[1] / "checkpoint_best.ckpt")
        rerun = build_ensemble(ds, _quick(epochs=3), size=3, kind="deco", out_dirs=dirs)
        assert [log is not None for log in rerun.logs] == [False, True, False]

    def test_changed_predecessors_retrain_the_rest_of_the_chain(self, tmp_path):
        # Directories keyed by seed, as `decolite ensemble` keys them.
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        build_ensemble(ds, _quick(epochs=2), size=3, kind="deco", seeds=[0, 1, 2],
                       out_dirs=[tmp_path / f"seed{s}" for s in (0, 1, 2)])
        # a new reference, then a deco member moved to the reference's place
        for seeds in ([3, 1, 2], [1, 0, 2]):
            dirs = [tmp_path / f"seed{s}" for s in seeds]
            rebuilt = build_ensemble(ds, _quick(epochs=2), size=3, kind="deco", seeds=seeds,
                                     out_dirs=dirs)
            assert all(log is not None for log in rebuilt.logs)
            fresh = build_ensemble(ds, _quick(epochs=2), size=3, kind="deco", seeds=seeds)
            assert [model_checksum(m) for m in rebuilt.models] == \
                [model_checksum(m) for m in fresh.models]
        again = build_ensemble(ds, _quick(epochs=2), size=3, kind="deco", seeds=[1, 0, 2],
                               out_dirs=dirs)
        assert again.logs == [None] * 3

    def test_alpha_only_retrains_members_with_predecessors_and_data_retrains_all(
            self, tmp_path):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        dirs = [tmp_path / f"member{i}" for i in range(3)]
        build_ensemble(ds, _quick(epochs=2), size=3, kind="deco", out_dirs=dirs)
        cfg = _quick(epochs=2, alpha=0.9, orth_normalization="raw")
        rebuilt = build_ensemble(ds, cfg, size=3, kind="deco", out_dirs=dirs)
        assert [log is not None for log in rebuilt.logs] == [False, True, True]

        other = synthetic_trend_dataset(n=16, length=16, seed=5)
        moved = build_ensemble(other, cfg, size=3, kind="deco", out_dirs=dirs)
        assert all(log is not None for log in moved.logs)

    def test_crash_before_the_log_leaves_no_best_checkpoint(self, tmp_path, monkeypatch):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        dirs = [tmp_path / "member0", tmp_path / "member1"]
        build_ensemble(ds, _quick(epochs=2), size=2, kind="base", out_dirs=dirs)

        def failing_to_csv(self, path):
            raise OSError("disk full")

        monkeypatch.setattr(TrainLog, "to_csv", failing_to_csv)
        with pytest.raises(OSError, match="disk full"):
            build_ensemble(ds, _quick(epochs=3), size=2, kind="base", out_dirs=dirs)
        assert not (dirs[0] / "checkpoint_best.ckpt").exists()

        monkeypatch.undo()
        rerun = build_ensemble(ds, _quick(epochs=3), size=2, kind="base", out_dirs=dirs)
        assert len(rerun.logs[0].records) == 3
        assert (dirs[0] / "checkpoint_best.ckpt").is_file()

    def test_size_outside_range_warns_but_runs(self):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        with pytest.warns(UserWarning, match="outside the studied range"):
            build = build_ensemble(ds, _quick(epochs=2), size=6, kind="base")
        assert len(build.models) == 6

    def test_duplicate_seeds_rejected(self):
        ds = synthetic_trend_dataset(n=16, length=16, seed=4)
        with pytest.raises(ConfigError):
            build_ensemble(ds, _quick(epochs=2), size=2, kind="base", seeds=[1, 1])
