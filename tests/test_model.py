"""LITE model: custom filters, initialization, forward contracts, checkpoints."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from decolite import arrayio
from decolite import model as model_mod
from decolite import tensor as T
from decolite.data import synthetic_trend_dataset
from decolite.diversity import feature_statistics
from decolite.errors import CheckpointError, ConfigError, ShapeError
from decolite.evaluation import ensemble_accuracy, ensemble_predict, prefix_accuracies
from decolite.model import (INCEPTIONTIME_REFERENCE_PARAM_COUNT, LiteArchitectureConfig,
                            LiteModel, _eval_chunks, _eval_outputs, build_custom_filters,
                            extract_final_filters, init_model, load_model, model_checksum,
                            param_count, ratio_vs_reference, save_model)
from decolite.optim import Adam
from decolite.oracles import conv1d_direct
from decolite.tensor import backward, softmax_cross_entropy


@pytest.fixture
def arch():
    return LiteArchitectureConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _filters_by_name(bank):
    named = {}
    for (length, kernels), labels in zip(
            bank.banks, _grouped_labels(bank)):
        for row, label in zip(kernels[:, 0, :], labels):
            named[label] = row
    return named


def _grouped_labels(bank):
    out, i = [], 0
    for _, kernels in bank.banks:
        out.append(bank.labels[i:i + kernels.shape[0]])
        i += kernels.shape[0]
    return out


class TestCustomFilters:
    def test_increasing_k4(self, arch):
        named = _filters_by_name(build_custom_filters(arch))
        np.testing.assert_array_equal(named["increasing4"], [-1, -1, 1, 1])

    def test_decreasing_is_negation(self, arch):
        named = _filters_by_name(build_custom_filters(arch))
        np.testing.assert_array_equal(named["decreasing4"], [1, 1, -1, -1])
        for k in arch.trend_filter_lengths:
            np.testing.assert_array_equal(named[f"decreasing{k}"],
                                          -named[f"increasing{k}"])

    def test_peak_k8(self, arch):
        named = _filters_by_name(build_custom_filters(arch))
        np.testing.assert_array_equal(named["peak8"], [-1, -1, 1, 1, 1, 1, -1, -1])

    def test_zero_mean_and_counts(self, arch):
        bank = build_custom_filters(arch)
        assert bank.n_channels == 2 * 6 + 5
        for _, kernels in bank.banks:
            np.testing.assert_allclose(kernels.sum(axis=2), 0.0)

    def test_odd_lengths_rejected(self):
        with pytest.raises(ConfigError):
            build_custom_filters(LiteArchitectureConfig(trend_filter_lengths=(3,)))
        with pytest.raises(ConfigError):
            build_custom_filters(LiteArchitectureConfig(peak_filter_lengths=(6,)))

    def test_seed_independent(self, arch):
        a = build_custom_filters(arch)
        b = build_custom_filters(arch)
        for (_, ka), (_, kb) in zip(a.banks, b.banks):
            np.testing.assert_array_equal(ka, kb)


class TestInit:
    def test_same_seed_bit_identical(self, arch):
        assert model_checksum(init_model(arch, 2, 123)) == \
            model_checksum(init_model(arch, 2, 123))

    def test_different_seeds_differ(self, arch):
        a = init_model(arch, 2, 0)
        b = init_model(arch, 2, 1)
        assert model_checksum(a) != model_checksum(b)
        sa, sb = a.state_arrays(), b.state_arrays()
        for k in ("first0", "first1", "first2", "dw1", "pw1", "dw2", "pw2", "head.weight"):
            assert not np.array_equal(sa[k], sb[k]), k

    def test_param_count_matches_layer_algebra(self, arch):
        model = init_model(arch, 2, 0)
        nf = arch.n_filters
        c1 = nf * 3 + 17
        expected = (nf * sum(arch.first_layer_kernel_sizes)   # multiplexed layer
                    + 2 * c1 + 2 * nf + 2 * nf               # batch-norm affines
                    + c1 * arch.dwsc_kernel_sizes[0] + nf * c1   # block 2
                    + nf * arch.dwsc_kernel_sizes[1] + nf * nf   # block 3
                    + 2 * nf + 2)                            # head
        assert param_count(model) == expected == 10200

    def test_ratio_against_reference(self, arch):
        count = param_count(init_model(arch, 2, 0))
        ratio = ratio_vs_reference(count, INCEPTIONTIME_REFERENCE_PARAM_COUNT)
        assert abs(ratio - 0.0234) < 0.01

    def test_head_contribution_for_two_classes(self, arch):
        model = init_model(arch, 2, 0)
        assert model.head_w.data.size + model.head_b.data.size == 32 * 2 + 2 == 66

    def test_custom_bank_excluded_from_count(self, arch):
        small = LiteArchitectureConfig(trend_filter_lengths=(2, 4),
                                       peak_filter_lengths=(4,))
        # Fewer custom filters shrink the first block's width, so only the
        # width-dependent parameters may change; the frozen kernels
        # themselves never count.
        n_default = param_count(init_model(arch, 2, 0))
        n_small = param_count(init_model(small, 2, 0))
        c1_default, c1_small = 32 * 3 + 17, 32 * 3 + 5
        width_terms = lambda c1: 2 * c1 + c1 * 20 + 32 * c1  # noqa: E731
        assert n_default - n_small == width_terms(c1_default) - width_terms(c1_small)


class TestForward:
    def test_zero_input_eval_logits_equal_bias(self, arch):
        model = init_model(arch, 3, 0)
        logits, _ = model.forward(np.zeros((2, 1, 30)), mode="eval")
        np.testing.assert_allclose(logits.data, np.tile(model.head_b.data, (2, 1)),
                                   atol=1e-12)

    def test_identical_rows_get_identical_logits(self, arch, rng):
        model = init_model(arch, 2, 1)
        row = rng.normal(size=(1, 1, 40))
        x = np.concatenate([row, row], axis=0)
        logits, _ = model.forward(x, mode="eval")
        np.testing.assert_array_equal(logits.data[0], logits.data[1])

    def test_feature_shape_contract(self, arch, rng):
        model = init_model(arch, 2, 0)
        logits, feats = model.forward(rng.normal(size=(3, 1, 100)), mode="eval")
        assert logits.shape == (3, 2)
        assert feats.shape == (3, 32, 100)

    def test_short_series_still_works(self, arch, rng):
        model = init_model(arch, 2, 0)
        logits, feats = model.forward(rng.normal(size=(2, 1, 3)), mode="eval")
        assert feats.shape == (2, 32, 3)

    def test_eval_forward_is_pure(self, arch, rng):
        model = init_model(arch, 2, 0)
        x = rng.normal(size=(2, 1, 25))
        a, _ = model.forward(x, mode="eval")
        b, _ = model.forward(x, mode="eval")
        assert np.array_equal(a.data, b.data)

    def test_eval_forward_records_no_graph(self, arch, rng):
        model = init_model(arch, 2, 0)
        x = rng.normal(size=(2, 1, 25))
        logits, feats = model.forward(x, mode="eval")
        assert not logits.requires_grad and not feats.requires_grad
        assert logits._parents == () and feats._parents == ()
        logits, _ = model.forward(x, mode="train")
        assert logits.requires_grad

    def test_eval_forward_peak_memory_is_a_few_activations(self, arch, rng):
        model = init_model(arch, 2, 0)
        x = rng.normal(size=(8, 1, 256))
        activation = 8 * (32 * 3 + 17) * 256 * 8  # one 113-channel float64 map
        tracemalloc.start()
        try:
            model.forward(x, mode="eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 4.6x; a recorded graph keeps every intermediate alive (about 13x).
        assert peak <= 5 * activation

    def test_train_forward_graph_keeps_few_activations(self, arch, rng):
        model = init_model(arch, 2, 0)
        x = rng.normal(size=(4, 1, 256))
        activation = 4 * (32 * 3 + 17) * 256 * 8  # one 113-channel float64 map
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            outputs = model.forward(x, mode="train")
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outputs[0].requires_grad
        # About 4.5x: each conv and batch norm keeps its output only (three
        # 113-channel maps, the rest 32 channels wide). Saved window
        # matrices, padded conv inputs and normalized batch-norm maps keep
        # about 8.2x; a separate ReLU node and per-bank convolutions joined
        # by a concatenation on top of those, about 10.7x.
        assert kept - before <= 9 * activation

    def test_backward_keeps_only_leaf_gradients(self, arch, rng):
        model = init_model(arch, 2, 0)
        logits, _ = model.forward(rng.normal(size=(2, 1, 32)), mode="train")
        loss = softmax_cross_entropy(logits, np.eye(2))
        backward(loss)
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        interior = [n for n in nodes.values() if n._backward is not None]
        leaves = [n for n in nodes.values() if n._backward is None and n.requires_grad]
        assert len(interior) > 10 and len(leaves) > 10
        assert all(n.grad is None for n in interior)
        assert all(n.grad is not None for n in leaves)

    def test_train_forward_updates_running_stats(self, arch, rng):
        model = init_model(arch, 2, 0)
        before = model._bn[0]["mean"].copy()
        model.forward(rng.normal(size=(4, 1, 25)), mode="train")
        assert not np.array_equal(model._bn[0]["mean"], before)

    def test_input_shape_validation(self, arch, rng):
        model = init_model(arch, 2, 0)
        with pytest.raises(ShapeError):
            model.forward(rng.normal(size=(2, 3, 10)))


class TestFirstLayer:
    @pytest.mark.parametrize("first_sizes, t", [
        ((40, 20, 10), 512),
        ((40, 20, 10), 32),   # shorter than the 64-tap embedded kernel
        ((65, 20, 9), 70),    # odd widest kernel: even banks sit off centre
    ])
    def test_matches_direct_convolution_per_bank(self, rng, first_sizes, t):
        model = init_model(LiteArchitectureConfig(first_layer_kernel_sizes=first_sizes), 2, 0)
        x = rng.normal(size=(1, 1, t))
        got = model._first_layer(T.Tensor(x)).data
        banks = [w.data for w in model.first_kernels]
        banks += [bank for _, bank in model.custom_filters.banks]
        want = np.concatenate([conv1d_direct(x, bank) for bank in banks], axis=1)
        assert got.shape == want.shape == (1, 32 * 3 + 17, t)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestCustomFiltersStayFrozen:
    def test_no_gradient_reaches_custom_bank(self, arch, rng):
        model = init_model(arch, 2, 0)
        x = T.Tensor(rng.normal(size=(2, 1, 30)))
        logits, feats = model.forward(x, mode="train")
        loss = softmax_cross_entropy(logits, np.eye(2)[[0, 1]])
        backward(loss)
        for bank in model._custom_tensors:
            assert bank.grad is None

    def test_custom_values_unchanged_by_training_step(self, arch, rng):
        model = init_model(arch, 2, 0)
        frozen_before = [bank.data.copy() for bank in model._custom_tensors]
        opt = Adam(model.trainable_parameters(), lr=0.01)
        x = T.Tensor(rng.normal(size=(4, 1, 30)))
        logits, _ = model.forward(x, mode="train")
        backward(softmax_cross_entropy(logits, np.eye(2)[[0, 1, 0, 1]]))
        opt.step()
        for before, bank in zip(frozen_before, model._custom_tensors):
            np.testing.assert_array_equal(before, bank.data)


class TestFinalFilters:
    def test_default_shape_is_32_by_20(self, arch):
        assert extract_final_filters(init_model(arch, 2, 0)).shape == (32, 20)

    def test_non_default_config_reports_its_own_shape(self):
        cfg = LiteArchitectureConfig(dwsc_kernel_sizes=(20, 15))
        assert extract_final_filters(init_model(cfg, 2, 0)).shape == (32, 15)

    def test_same_seed_same_bank(self, arch):
        a = extract_final_filters(init_model(arch, 2, 5))
        b = extract_final_filters(init_model(arch, 2, 5))
        np.testing.assert_array_equal(a, b)

    def test_training_step_changes_bank(self, arch, rng):
        model = init_model(arch, 2, 0)
        before = extract_final_filters(model)
        opt = Adam(model.trainable_parameters(), lr=0.01)
        logits, _ = model.forward(T.Tensor(rng.normal(size=(4, 1, 30))), mode="train")
        backward(softmax_cross_entropy(logits, np.eye(2)[[0, 1, 0, 1]]))
        opt.step()
        assert not np.array_equal(before, extract_final_filters(model))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, arch, tmp_path, rng):
        model = init_model(arch, 4, 9)
        model.forward(rng.normal(size=(4, 1, 30)), mode="train")  # move the buffers
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        back = load_model(path)
        assert model_checksum(back) == model_checksum(model)
        assert back.config == model.config
        assert back.seed == model.seed and back.n_classes == model.n_classes

    def test_corruption_detected(self, arch, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(init_model(arch, 2, 0), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xF1
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_model(path)

    @pytest.mark.parametrize("header", [
        b'{"format_version": 1, "kind": "x", "meta": {}}',
        b'[1, 2]',
        b'{"format_version": 1, "kind": "x", "meta": {}, '
        b'"arrays": [{"name": "w", "dtype": "no-such-dtype", "shape": [1]}]}',
        b'{"format_version": 1, "kind": "x", "meta": {}, '
        b'"arrays": [{"name": "w", "dtype": "|O", "shape": [0]}]}',
    ], ids=["no-arrays", "not-an-object", "bad-dtype", "object-dtype"])
    def test_malformed_header_detected(self, tmp_path, header):
        # Checksum-valid bundles whose header lacks the array table, is not
        # an object, or names an unknown or object dtype.
        path = tmp_path / "bad.ckpt"
        body = arrayio._MAGIC + len(header).to_bytes(8, "big") + header
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match="bad.ckpt"):
            arrayio.load_bundle(path)

    @pytest.mark.parametrize("case", ["empty-meta", "unknown-config-key", "bad-shape"])
    def test_checksum_valid_non_model_detected(self, arch, tmp_path, case):
        # Checksum-valid lite-model bundles whose metadata or array shapes
        # do not describe a LITE model of the architecture they name.
        path = tmp_path / "bad.ckpt"
        save_model(init_model(arch, 2, 0), path)
        _, meta, arrays = arrayio.load_bundle(path)
        if case == "empty-meta":
            meta = {}
        elif case == "unknown-config-key":
            meta["config"]["no_such_key"] = 1
        else:
            arrays["first0"] = np.zeros(3)
        arrayio.save_bundle(path, "lite-model", meta, arrays)
        with pytest.raises(CheckpointError, match="bad.ckpt"):
            load_model(path)

    def test_truncation_detected(self, arch, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(init_model(arch, 2, 0), path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_failed_write_keeps_previous_checkpoint(self, arch, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        old = init_model(arch, 2, 0)
        save_model(old, path)

        def half_write(self, data):
            with open(self, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", half_write)
        with pytest.raises(OSError):
            save_model(init_model(arch, 2, 1), path)
        monkeypatch.undo()
        assert model_checksum(load_model(path)) == model_checksum(old)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


class TestEvalChunks:
    """_eval_chunks splits an eval pass into rows that fit the byte budget."""

    @pytest.mark.parametrize("rows, chunks", [(1, 10), (3, 4), (None, 1)])
    def test_chunk_maps_hold_the_bits_of_one_forward(self, monkeypatch, rows, chunks):
        model = init_model(LiteArchitectureConfig(), 2, 0)
        x = synthetic_trend_dataset(n=10, length=40, seed=3).X
        if rows is not None:
            monkeypatch.setattr(model_mod, "_EVAL_CHUNK_BYTES", rows * 8 * 113 * 40)
        logits, feats = model.forward(x, mode="eval")
        parts = list(_eval_chunks(model, x))
        assert len(parts) == chunks
        # The maps are what a deco chain freezes, so they must match bit for
        # bit; the head's GEMM may round a logit by the row's chunk position.
        assert np.array_equal(np.concatenate([f for _, _, f in parts]), feats.data)
        np.testing.assert_allclose(np.concatenate([lg for _, lg, _ in parts]), logits.data,
                                   rtol=0, atol=1e-12)

    def test_eval_pass_over_a_long_split_holds_a_few_cache_sized_maps(self):
        model = init_model(LiteArchitectureConfig(), 2, 0)
        x = synthetic_trend_dataset(n=32, length=512, seed=4).X
        tracemalloc.start()
        try:
            _eval_outputs(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 6 MiB in 4-row chunks of 1.8 MiB maps, which stay in a 2 MiB
        # per-core L2 cache; 32-row chunks under a 64 MiB budget peak at 43 MiB.
        assert peak <= 4 * (2 << 20)


class TestEvalMemo:
    """_eval_outputs keeps a model's last eval pass, keyed by state and input."""

    @staticmethod
    def _members():
        rng = np.random.default_rng(7)
        out = []
        for seed in range(3):
            m = init_model(LiteArchitectureConfig(), 2, seed)
            m.forward(rng.normal(size=(4, 1, 40)), mode="train")  # move the buffers
            out.append(m)
        return out

    @staticmethod
    def _copy(m):
        fresh = init_model(m.config, m.n_classes, m.seed)
        fresh.load_state_arrays(m.state_arrays())
        return fresh

    @staticmethod
    def _count_forwards(monkeypatch):
        calls = []
        real_forward = LiteModel.forward

        def counting_forward(self, x, mode="eval"):
            calls.append(mode)
            return real_forward(self, x, mode=mode)

        monkeypatch.setattr(LiteModel, "forward", counting_forward)
        return calls

    @staticmethod
    def _digest(get_members, ds):
        h = hashlib.sha256()
        h.update(ensemble_predict(get_members(), ds.X).tobytes())
        h.update(repr(ensemble_accuracy(get_members(), ds)).encode())
        h.update(repr(prefix_accuracies(get_members(), ds)).encode())
        for m in get_members():
            s = feature_statistics(m, ds.X)
            h.update(s.mu.tobytes())
            h.update(s.sigma.tobytes())
        return h.hexdigest()

    def test_warm_and_cold_members_give_the_pinned_bits(self, monkeypatch):
        # Five rows per chunk, so the 12-row split crosses three chunks.
        monkeypatch.setattr(model_mod, "_EVAL_CHUNK_BYTES", 5 * 8 * 113 * 40)
        ds = synthetic_trend_dataset(n=12, length=40, seed=3, split="test")
        warm = self._members()
        calls = self._count_forwards(monkeypatch)
        # Computed before the memo existed, when every call forwarded afresh.
        pinned = "c15b58625b2c7dccfa3fc19ae8d0720198616c5f41a0b34add2fea03d616a407"
        assert self._digest(lambda: warm, ds) == pinned
        # Each member crossed the split once, in ensemble_predict.
        assert calls == ["eval"] * 3 * 3
        assert self._digest(lambda: [self._copy(m) for m in warm], ds) == pinned

    @pytest.mark.parametrize("change", ["parameter", "bn-buffer", "input-values",
                                        "input-shape"])
    def test_recomputes_after_an_in_place_change(self, monkeypatch, change):
        m = self._members()[0]
        x = synthetic_trend_dataset(n=12, length=40, seed=3, split="test").X.copy()
        _eval_outputs(m, x)
        if change == "parameter":
            m.dw2.data[0, 0, 0] += 1e-3
        elif change == "bn-buffer":
            m._bn[2]["mean"][0] += 0.1
        elif change == "input-values":
            x[0, 0, 0] += 1.0
        else:
            x = x.reshape(24, 1, 20)  # the same bytes
        cold = self._copy(m).forward(x, mode="eval")
        calls = self._count_forwards(monkeypatch)
        logits, pooled = _eval_outputs(m, x)
        assert calls == ["eval"]
        assert np.array_equal(logits, cold[0].data)
        assert np.array_equal(pooled, cold[1].data.mean(axis=2))
        assert _eval_outputs(m, x)[0] is logits and calls == ["eval"]

    def test_returned_arrays_are_read_only(self):
        m = self._members()[0]
        x = synthetic_trend_dataset(n=4, length=40, seed=3, split="test").X
        for out in (_eval_outputs(m, x), _eval_outputs(m, x)):
            for a in out:
                with pytest.raises(ValueError):
                    a[0, 0] = 0.0

    def test_memo_does_not_grow_with_series_length(self):
        m = self._members()[0]
        sizes = []
        for length in (64, 512):
            _eval_outputs(m, synthetic_trend_dataset(n=6, length=length, seed=3).X)
            _, logits, pooled = m._eval_memo
            sizes.append(logits.nbytes + pooled.nbytes)
        assert sizes[0] == sizes[1] == 6 * (2 + 32) * 8
