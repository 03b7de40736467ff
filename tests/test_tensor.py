"""Tensor primitives: contract examples, gradients, determinism."""

import tracemalloc

import numpy as np
import pytest

from decolite import tensor as T
from decolite.errors import (ConfigError, InputError, NumericError, ShapeError,
                             StateError, UsageError)
from decolite.oracles import conv1d_direct, fd_max_rel_err


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def gradcheck(build_loss, leaves, rng, n_coords=8, tol=1e-3, step=1e-4):
    """Backward grads vs central differences on sampled coordinates."""
    assert fd_max_rel_err(build_loss, leaves, rng, n_coords, step) <= tol


def test_fd_oracle_counts_a_leaf_without_gradient_as_infinite(rng):
    used = T.Tensor(rng.normal(size=3), requires_grad=True)
    unused = T.Tensor(rng.normal(size=3), requires_grad=True)
    assert fd_max_rel_err(lambda: T.sum_all(used), [used, unused], rng, 3) == np.inf


class TestTensorBasics:
    def test_leaf_rejects_non_finite(self):
        with pytest.raises(NumericError):
            T.Tensor([1.0, np.nan])
        with pytest.raises(NumericError):
            T.Tensor([np.inf])

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((2, 2, 2, 2)))

    def test_backward_needs_scalar_root(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            T.backward(T.relu(x))

    def test_repeated_backward_accumulates(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = T.sum_all(x)
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_sum_and_square_gradients(self, rng):
        x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

        # The square with one factor held constant: its gradient is that factor.
        y = T.Tensor(rng.normal(size=4), requires_grad=True)
        T.backward(T.sum_all(y * y.data))
        np.testing.assert_array_equal(y.grad, y.data)
        with pytest.raises(TypeError):  # no tensor-by-tensor product
            y * y

    def test_no_grad_records_nothing_and_restores(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with T.no_grad():
            inside = T.relu(x)
        assert not inside.requires_grad and inside._parents == ()
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("leaves the block")
        after = T.relu(x)
        assert after.requires_grad and after._parents == (x,)


class TestConv1d:
    def test_identity_kernel(self):
        out = T.conv1d(T.Tensor([[[1.0, 2.0, 3.0, 4.0]]]), T.Tensor([[[1.0]]]))
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0, 4.0]]])

    def test_edge_detector_hand_case(self):
        out = T.conv1d(T.Tensor([[[1.0, 2.0, 3.0, 4.0]]]), T.Tensor([[[1.0, 0.0, -1.0]]]))
        np.testing.assert_allclose(out.data, [[[-2.0, -2.0, -2.0, 3.0]]])

    def test_dilated_case_matches_direct_summation(self):
        x = np.ones((1, 1, 4))
        k = np.array([[[1.0, -1.0]]])
        out = T.conv1d(T.Tensor(x), T.Tensor(k), dilation=2)
        np.testing.assert_allclose(out.data, conv1d_direct(x, k, dilation=2))

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("groups,cin,cout", [(1, 3, 5), (4, 4, 4), (1, 1, 5)])
    def test_matches_direct_summation(self, rng, dilation, groups, cin, cout):
        # Pointwise, depthwise and the first layer; a kernel that mixes
        # channels is pointwise, so it has one tap.
        x = rng.normal(size=(2, cin, 11))
        k = rng.normal(size=(cout, cin // groups, 1 if cin // groups > 1 else 3))
        out = T.conv1d(T.Tensor(x), T.Tensor(k), dilation=dilation, groups=groups)
        np.testing.assert_allclose(
            out.data, conv1d_direct(x, k, dilation, groups), atol=1e-12)

    def test_depthwise_equals_per_channel_convolutions(self, rng):
        x = rng.normal(size=(2, 5, 9))
        k = rng.normal(size=(5, 1, 4))
        grouped = T.conv1d(T.Tensor(x), T.Tensor(k), groups=5).data
        for c in range(5):
            single = conv1d_direct(x[:, c:c + 1, :], k[c:c + 1])
            np.testing.assert_allclose(grouped[:, c:c + 1, :], single, atol=1e-12)

    @pytest.mark.parametrize("channels,dilation", [(113, 2), (32, 4)])
    def test_depthwise_at_model_shapes_matches_direct_summation(self, rng, channels,
                                                                 dilation):
        # The default architecture's two depthwise layers, both with k=20.
        x = rng.normal(size=(2, channels, 64))
        k = rng.normal(size=(channels, 1, 20))
        out = T.conv1d(T.Tensor(x), T.Tensor(k), dilation=dilation, groups=channels)
        np.testing.assert_allclose(
            out.data, conv1d_direct(x, k, dilation=dilation, groups=channels), atol=1e-12)

    def test_depthwise_forward_does_not_copy_windows(self, rng):
        x = T.Tensor(rng.normal(size=(4, 113, 256)))
        k = T.Tensor(rng.normal(size=(113, 1, 20)))
        tracemalloc.start()
        try:
            out = T.conv1d(x, k, dilation=2, groups=113)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The padded input plus the output; a K-fold window copy is ~20x.
        assert peak <= 3 * out.data.nbytes

    def test_depthwise_forward_keeps_no_padded_input(self, rng):
        x = T.Tensor(rng.normal(size=(4, 113, 256)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(113, 1, 20)), requires_grad=True)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = T.conv1d(x, k, dilation=2, groups=113)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # The output alone; the padded input (38 more steps) adds 1.15x.
        assert kept - before <= 1.1 * out.data.nbytes

    def test_depthwise_gradients_long_dilated_kernel(self, rng):
        x = T.Tensor(rng.normal(size=(2, 3, 30)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(3, 1, 7)), requires_grad=True)
        gradcheck(lambda: T.sum_all(T.absolute(
            T.conv1d(x, k, dilation=4, groups=3))), [x, k], rng)

    @pytest.mark.parametrize("length,klen,dilation", [
        (16, 20, 4),  # 38 + 38 padded positions around a 16-step input
        (11, 4, 1),   # an odd span of 3: one padded position left, two right
    ])
    def test_depthwise_gradients_padding_edges(self, rng, length, klen, dilation):
        x = T.Tensor(rng.normal(size=(2, 3, length)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(3, 1, klen)), requires_grad=True)
        gradcheck(lambda: T.sum_all(T.absolute(
            T.conv1d(x, k, dilation=dilation, groups=3))), [x, k], rng)

    def test_depthwise_backward_does_not_copy_windows(self, rng):
        x = T.Tensor(rng.normal(size=(4, 113, 256)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(113, 1, 20)), requires_grad=True)
        out = T.conv1d(x, k, dilation=2, groups=113)
        g = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            out._backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The zero-extended gradient plus the input gradient; a K-fold
        # window copy is ~20x.
        assert peak <= 3 * x.data.nbytes

    @pytest.mark.parametrize("cin,cout,klen,dilation,groups", [
        (113, 32, 1, 1, 1),    # the model's pointwise convs
        (1, 113, 64, 1, 1),    # its first layer, all banks embedded in one kernel
        (32, 32, 20, 4, 32),   # its second depthwise conv
    ])
    def test_model_shapes_match_direct_summation_with_gradients(self, rng, cin, cout, klen,
                                                                dilation, groups):
        x = T.Tensor(rng.normal(size=(2, cin, 13)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(cout, cin // groups, klen)), requires_grad=True)
        out = T.conv1d(x, k, dilation=dilation, groups=groups)
        np.testing.assert_allclose(
            out.data, conv1d_direct(x.data, k.data, dilation, groups), rtol=0, atol=1e-12)
        gradcheck(lambda: T.sum_all(T.absolute(
            T.conv1d(x, k, dilation=dilation, groups=groups))), [x, k], rng)

    def test_pointwise_forward_copies_no_input(self, rng):
        x = T.Tensor(rng.normal(size=(4, 113, 256)))
        k = T.Tensor(rng.normal(size=(32, 113, 1)))
        tracemalloc.start()
        try:
            out = T.conv1d(x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The output plus the kernel; a padded or transposed copy of the
        # 113-channel input alone is 3.5x the output.
        assert peak <= 1.5 * out.data.nbytes

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("groups", [1, 4])
    def test_gradients(self, rng, dilation, groups):
        # groups=1 is the first layer (one input channel), groups=4 depthwise.
        x = T.Tensor(rng.normal(size=(2, groups, 9)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(4, 1, 3)), requires_grad=True)
        gradcheck(lambda: T.sum_all(T.absolute(
            T.conv1d(x, k, dilation=dilation, groups=groups))), [x, k], rng)

    def test_shape_validation(self, rng):
        x = T.Tensor(rng.normal(size=(1, 4, 8)))
        with pytest.raises(ShapeError):
            T.conv1d(x, T.Tensor(rng.normal(size=(3, 2, 3))))  # 2 != 4 channels
        with pytest.raises(ShapeError):
            T.conv1d(x, T.Tensor(rng.normal(size=(3, 4, 3))), groups=3)
        # Grouped but not depthwise, and multi-tap but not single-channel.
        with pytest.raises(ShapeError):
            T.conv1d(x, T.Tensor(rng.normal(size=(4, 2, 3))), groups=2)
        with pytest.raises(ShapeError):
            T.conv1d(x, T.Tensor(rng.normal(size=(3, 4, 3))))
        with pytest.raises(ConfigError):
            T.conv1d(x, T.Tensor(rng.normal(size=(3, 4, 3))), dilation=0)

    def test_deterministic_bitwise(self, rng):
        for cin, kshape, groups in ((1, (4, 1, 5), 1), (3, (3, 1, 5), 3), (3, (4, 3, 1), 1)):
            x = T.Tensor(rng.normal(size=(2, cin, 16)))
            k = T.Tensor(rng.normal(size=kshape))
            a = T.conv1d(x, k, dilation=2, groups=groups).data
            b = T.conv1d(x, k, dilation=2, groups=groups).data
            assert np.array_equal(a, b)


class TestBatchNorm:
    def test_constant_input_train_mode_is_zero(self):
        x = T.Tensor(np.full((3, 2, 4), 7.0))
        out = T.batch_norm_1d(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), mode="train")
        np.testing.assert_array_equal(out.data, np.zeros((3, 2, 4)))

    def test_eval_identity_with_unit_stats(self, rng):
        x = rng.normal(size=(2, 3, 5))
        out = T.batch_norm_1d(T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)),
                              np.zeros(3), np.ones(3), mode="eval", eps=1e-12)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_two_sample_hand_case(self):
        x = T.Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1))
        out = T.batch_norm_1d(x, T.Tensor(np.ones(1)), T.Tensor(np.zeros(1)),
                              mode="train", eps=1e-12)
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-5)

    def test_train_mode_normalizes_per_channel(self, rng):
        x = T.Tensor(rng.normal(2.0, 3.0, size=(4, 3, 7)))
        out = T.batch_norm_1d(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), mode="train")
        np.testing.assert_allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_running_stats_update(self, rng):
        x = rng.normal(size=(4, 2, 5))
        rm, rv = np.zeros(2), np.ones(2)
        T.batch_norm_1d(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)),
                        rm, rv, mode="train", momentum=0.9)
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2)))
        np.testing.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2)))

    def test_eval_matches_formula_and_records_no_graph(self, rng):
        x = rng.normal(1.0, 3.0, size=(3, 4, 50))
        gamma, beta = rng.uniform(0.5, 1.5, size=4), rng.normal(size=4)
        rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        with T.no_grad():
            out = T.batch_norm_1d(T.Tensor(x, requires_grad=True),
                                  T.Tensor(gamma, requires_grad=True),
                                  T.Tensor(beta, requires_grad=True), rm, rv, mode="eval")
        want = ((x - rm[None, :, None]) / np.sqrt(rv + 1e-5)[None, :, None]
                * gamma[None, :, None] + beta[None, :, None])
        assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()
        assert not out.requires_grad and out._parents == () and out._backward is None

    def test_eval_without_stats_is_state_error(self, rng):
        x = T.Tensor(rng.normal(size=(2, 2, 3)))
        with pytest.raises(StateError):
            T.batch_norm_1d(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), mode="eval")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_fused_relu_is_bit_identical(self, rng, mode):
        # Mixed-sign gamma and a nonzero beta make the clamp disagree with
        # the sign of the normalized input; the random weight gives the
        # incoming gradient both signs.
        x = rng.normal(1.0, 2.0, size=(3, 4, 30))
        gamma, beta = np.array([1.5, -0.7, 0.9, -1.2]), rng.normal(size=4)
        rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        weight = rng.normal(size=x.shape)
        runs = []
        for fused in (False, True):
            leaves = [T.Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
            out = T.batch_norm_1d(*leaves, rm.copy(), rv.copy(), mode=mode, relu=fused)
            if not fused:
                out = T.relu(out)
            T.backward(T.sum_all(out * weight))
            runs.append([out.data] + [leaf.grad for leaf in leaves])
        assert 0 < np.count_nonzero(runs[1][0]) < x.size
        for unfused, fused in zip(*runs):
            assert np.ascontiguousarray(fused).tobytes() == \
                np.ascontiguousarray(unfused).tobytes()

    def test_fused_train_mode_matches_formula(self, rng):
        # Channel 0 sits about 1e3 standard deviations from zero, where a
        # variance taken as E[x^2] - mean^2 loses about six digits.
        x = rng.normal(size=(3, 4, 50)) * np.array([1.0, 0.5, 2.0, 3.0])[None, :, None]
        x[:, 0] += 1e3
        gamma, beta = np.array([1.5, -0.7, 0.9, -1.2]), rng.normal(size=4)
        weight = rng.normal(size=x.shape)
        leaves = [T.Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        out = T.batch_norm_1d(*leaves, mode="train", relu=True)
        T.backward(T.sum_all(out * weight))

        m = x.shape[0] * x.shape[2]
        mean = x.mean(axis=(0, 2), keepdims=True)
        std = np.sqrt(((x - mean) ** 2).mean(axis=(0, 2), keepdims=True) + 1e-5)
        xhat = (x - mean) / std
        pre = xhat * gamma[None, :, None] + beta[None, :, None]
        g = weight * (pre > 0.0)
        sg, sgx = g.sum(axis=(0, 2)), (g * xhat).sum(axis=(0, 2))
        gx = gamma[None, :, None] / std * (g - sg[None, :, None] / m
                                           - xhat * sgx[None, :, None] / m)
        assert 0 < np.count_nonzero(out.data) < x.size
        for got, want in zip([out.data] + [leaf.grad for leaf in leaves],
                             [np.maximum(pre, 0.0), gx, sgx, sg]):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients(self, rng, mode):
        x = T.Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
        gamma = T.Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = T.Tensor(rng.normal(size=2), requires_grad=True)
        rm, rv = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
        gradcheck(lambda: T.sum_all(T.absolute(T.batch_norm_1d(
            x, gamma, beta, rm.copy(), rv.copy(), mode=mode))), [x, gamma, beta], rng)


class TestPointwiseOps:
    def test_relu_values(self):
        out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        pos = np.array([0.5, 1.0, 3.0])
        np.testing.assert_array_equal(T.relu(T.Tensor(pos)).data, pos)

    def test_relu_gradient_is_indicator(self):
        x = T.Tensor([-1.0, 2.0], requires_grad=True)
        T.backward(T.sum_all(T.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_gap_values_and_gradient(self):
        x = T.Tensor(np.full((2, 3, 5), 4.5))
        np.testing.assert_allclose(T.global_avg_pool(x).data, 4.5)
        x = T.Tensor([[[1.0, 2.0, 3.0]]], requires_grad=True)
        out = T.global_avg_pool(x)
        np.testing.assert_allclose(out.data, [[2.0]])
        T.backward(T.sum_all(out))
        np.testing.assert_allclose(x.grad, np.full((1, 1, 3), 1.0 / 3.0))

    def test_absolute_gradient_sign(self):
        x = T.Tensor([-2.0, 0.0, 3.0], requires_grad=True)
        T.backward(T.sum_all(T.absolute(x)))
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])


class TestDense:
    def test_identity_weight(self, rng):
        x = rng.normal(size=(3, 4))
        out = T.dense(T.Tensor(x), T.Tensor(np.eye(4)), T.Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x)

    def test_zero_weight_gives_bias(self, rng):
        b = rng.normal(size=3)
        out = T.dense(T.Tensor(rng.normal(size=(2, 4))), T.Tensor(np.zeros((3, 4))),
                      T.Tensor(b))
        np.testing.assert_allclose(out.data, np.tile(b, (2, 1)))

    def test_two_by_two_hand_case(self):
        x = T.Tensor([[1.0, 2.0]])
        w = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
        b = T.Tensor([0.5, -0.5])
        np.testing.assert_allclose(T.dense(x, w, b).data, [[11.5, 16.5]])

    def test_gradients(self, rng):
        x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=2), requires_grad=True)
        gradcheck(lambda: T.sum_all(T.absolute(T.dense(x, w, b))), [x, w, b], rng)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.dense(T.Tensor(rng.normal(size=(2, 3))), T.Tensor(rng.normal(size=(2, 4))),
                    T.Tensor(np.zeros(2)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = T.softmax_cross_entropy(T.Tensor(np.zeros((2, 4))),
                                       np.eye(4)[[0, 2]])
        np.testing.assert_allclose(loss.item(), np.log(4.0), rtol=1e-12)

    def test_saturated_true_class(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 1000.0
        loss = T.softmax_cross_entropy(T.Tensor(logits), np.eye(3)[[1]])
        assert loss.item() < 1e-12

    def test_hand_case(self):
        loss = T.softmax_cross_entropy(T.Tensor([[1.0, 2.0]]), np.array([[0.0, 1.0]]))
        want = -np.log(np.exp(2.0) / (np.exp(1.0) + np.exp(2.0)))
        np.testing.assert_allclose(loss.item(), want, atol=1e-6)
        assert abs(loss.item() - 0.3133) < 1e-4

    def test_gradient_is_softmax_minus_target_over_batch(self, rng):
        logits = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = np.eye(3)[rng.integers(0, 3, size=4)]
        T.backward(T.softmax_cross_entropy(logits, targets))
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(logits.grad, (p - targets) / 4.0, atol=1e-12)

    def test_non_one_hot_rejected(self, rng):
        logits = T.Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(InputError):
            T.softmax_cross_entropy(logits, np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(InputError):
            T.softmax_cross_entropy(logits, np.ones((2, 3)))


class TestCosineSimilarityMatrix:
    def test_orthonormal_rows_give_identity(self):
        rows = np.eye(2)[None]
        out = T.cosine_similarity_matrix(T.Tensor(rows), T.Tensor(rows))
        np.testing.assert_allclose(out.data, np.eye(2)[None], atol=1e-12)

    def test_zero_row_maps_to_zero(self, rng):
        a = np.vstack([np.zeros(3), rng.normal(size=3)])[None]
        b = rng.normal(size=(1, 2, 3))
        out = T.cosine_similarity_matrix(T.Tensor(a), T.Tensor(b))
        np.testing.assert_array_equal(out.data[0, 0], np.zeros(2))

    def test_hand_case(self):
        a = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([1.0, np.sqrt(2.0)])[:, None]
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = T.cosine_similarity_matrix(T.Tensor(a[None]), T.Tensor(b[None]))
        np.testing.assert_allclose(out.data, [[[1.0, 0.0], [0.7071, 0.7071]]], atol=1e-4)

    def test_entries_bounded(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 4, 6)) * rng.uniform(0.01, 100.0)
            b = rng.normal(size=(2, 4, 6)) * rng.uniform(0.01, 100.0)
            out = T.cosine_similarity_matrix(T.Tensor(a), T.Tensor(b))
            assert out.data.max() <= 1.0 + 1e-9
            assert out.data.min() >= -1.0 - 1e-9

    def test_batched_matches_per_sample(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 4, 5))
        batched = T.cosine_similarity_matrix(T.Tensor(a), T.Tensor(b)).data
        for i in range(3):
            single = T.cosine_similarity_matrix(T.Tensor(a[i:i + 1]),
                                                T.Tensor(b[i:i + 1])).data
            np.testing.assert_array_equal(batched[i:i + 1], single)

    def test_gradients_both_sides(self, rng):
        a = T.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        gradcheck(lambda: T.sum_all(T.absolute(T.cosine_similarity_matrix(a, b))),
                  [a, b], rng)

    def test_different_channel_counts_match_square_blocks(self, rng):
        a = rng.normal(size=(2, 3, 5))
        b = rng.normal(size=(2, 6, 5))
        wide = T.cosine_similarity_matrix(T.Tensor(a), T.Tensor(b)).data
        assert wide.shape == (2, 3, 6)
        for j in (0, 3):
            square = T.cosine_similarity_matrix(T.Tensor(a), T.Tensor(b[:, j:j + 3])).data
            np.testing.assert_allclose(wide[:, :, j:j + 3], square, rtol=0, atol=1e-12)
        swapped = T.cosine_similarity_matrix(T.Tensor(b), T.Tensor(a)).data
        np.testing.assert_allclose(swapped, wide.swapaxes(1, 2), rtol=0, atol=1e-12)

    def test_gradients_with_different_channel_counts(self, rng):
        for sa, sb in (((2, 3, 5), (2, 6, 5)), ((1, 4, 5), (1, 2, 5))):
            a = T.Tensor(rng.normal(size=sa), requires_grad=True)
            b = T.Tensor(rng.normal(size=sb), requires_grad=True)
            gradcheck(lambda: T.sum_all(T.absolute(T.cosine_similarity_matrix(a, b))),
                      [a, b], rng)

    def test_batch_or_time_mismatch(self, rng):
        a = T.Tensor(rng.normal(size=(2, 3, 5)))
        for shape in ((3, 3, 5), (2, 6, 4), (3, 5)):
            with pytest.raises(ShapeError):
                T.cosine_similarity_matrix(a, T.Tensor(rng.normal(size=shape)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.cosine_similarity_matrix(T.Tensor(rng.normal(size=(1, 2, 3))),
                                       T.Tensor(rng.normal(size=(1, 2, 4))))
        with pytest.raises(ShapeError):  # unbatched maps
            T.cosine_similarity_matrix(T.Tensor(rng.normal(size=(2, 3))),
                                       T.Tensor(rng.normal(size=(2, 3))))


class TestEmbedTaps:
    def test_centred_placement(self):
        k = T.Tensor(np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))
        c = T.Tensor(np.array([[[5.0, 6.0, 7.0]]]))
        w = T.Tensor(np.array([[[8.0, 9.0, 10.0, 11.0, 12.0]]]))
        out = T.embed_taps([k, c, w])
        np.testing.assert_array_equal(out.data[:, 0, :], [[0, 0, 1, 2, 0],
                                                          [0, 0, 3, 4, 0],
                                                          [0, 5, 6, 7, 0],
                                                          [8, 9, 10, 11, 12]])

    def test_gradients_through_one_convolution(self, rng):
        x = T.Tensor(rng.normal(size=(2, 1, 12)))
        odd = T.Tensor(rng.normal(size=(3, 1, 5)), requires_grad=True)
        even = T.Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
        frozen = T.Tensor(rng.normal(size=(2, 1, 9)))
        gradcheck(lambda: T.sum_all(T.absolute(T.conv1d(
            x, T.embed_taps([odd, even, frozen])))), [odd, even], rng)
        assert frozen.grad is None

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ShapeError):
            T.embed_taps([T.Tensor(rng.normal(size=(2, 2, 3)))])
        with pytest.raises(UsageError):
            T.embed_taps([])
