"""Tensor engine: construction, op semantics, backward, checkpoint file."""

import itertools
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topdropnet import network, rng as rng_mod, tensorcore as tc

import gradcheck
import oracles
from oracles import finite_difference_grads, grads_agree


def randn(shape, seed):
    return tc.Tensor(rng_mod.generator(seed, "randn").standard_normal(shape))


class TestConstruction:
    def test_zeros(self):
        t = tc.Tensor(np.zeros((2, 2)))
        np.testing.assert_array_equal(t.data, [[0, 0], [0, 0]])

    def test_full(self):
        np.testing.assert_array_equal(tc.Tensor(np.full(1, 3.5)).data, [3.5])

    def test_ones_sum(self):
        assert tc.Tensor(np.ones(2)).data.sum() == 2.0

    def test_nonfinite_input_rejected(self):
        with pytest.raises(tc.TensorError):
            tc.astensor([1.0, np.nan])


class TestRandn:
    """Standard-normal tensors from a named Philox stream, the way model
    weights are drawn."""

    def test_determinism(self):
        a = randn((4,), seed=99)
        b = randn((4,), seed=99)
        np.testing.assert_array_equal(a.data, b.data)

    def test_mean_near_zero(self):
        # 3 sigma / sqrt(N) = 0.03 for N = 10000; spec allows 0.05.
        samples = randn((10000,), seed=5).data
        assert abs(samples.mean()) < 0.05

    def test_different_seeds_differ(self):
        assert not np.array_equal(randn((2,), seed=1).data, randn((2,), seed=2).data)


class TestElementwise:
    def test_abs(self):
        np.testing.assert_array_equal(tc.absolute(tc.astensor([-2.0, 3.0])).data, [2, 3])

    def test_pow(self):
        np.testing.assert_array_equal(tc.pow_scalar(tc.astensor([2.0, -2.0]), 2).data, [4, 4])

    def test_square_gradient(self):
        x = tc.parameter([3.0])
        with tc.Tape() as tape:
            loss = tc.sum_all(tc.pow_scalar(x, 2))
        tc.backward(loss, tape)
        assert abs(x.grad[0] - 6.0) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(tc.TensorError):
            tc.add(tc.Tensor(np.zeros(2)), tc.Tensor(np.zeros(3)))

    @pytest.mark.parametrize("x_shape, b_shape", [((2, 3, 2, 2), (3,)), ((4, 3), (4,)), ((3,), (3,))])
    def test_add_bias_needs_rows_and_a_row_bias(self, x_shape, b_shape):
        with pytest.raises(tc.TensorError, match="incompatible shapes"):
            tc.add_bias(tc.Tensor(np.zeros(x_shape)), tc.Tensor(np.zeros(b_shape)))

    def test_abs_gradient_zero_at_zero(self):
        x = tc.parameter([0.0, 2.0])
        with tc.Tape() as tape:
            loss = tc.sum_all(tc.absolute(x))
        tc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])


class TestMatmul:
    def test_identity(self):
        m = tc.astensor([[1.0, 2.0], [3.0, 4.0]])
        out = tc.matmul(tc.astensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_row_times_column(self):
        out = tc.matmul(tc.astensor([[1.0, 2.0]]), tc.astensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))

        def f(tensors):
            return tc.sum_all(tc.mul(tc.matmul(tensors[0], tensors[1]), tc.Tensor(w)))

        assert gradcheck.check(f, [a, b])

    def test_dimension_mismatch(self):
        with pytest.raises(tc.TensorError):
            tc.matmul(tc.Tensor(np.zeros((2, 3))), tc.Tensor(np.zeros((2, 3))))


class TestConv2d:
    def test_one_by_one_kernel_doubles(self):
        x = tc.astensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = tc.astensor([[[[2.0]]]])
        np.testing.assert_array_equal(tc.conv2d(x, k).data, 2 * x.data)

    def test_all_ones_three_by_three(self):
        out = tc.conv2d(tc.Tensor(np.ones((1, 1, 3, 3))), tc.Tensor(np.ones((1, 1, 3, 3))))
        np.testing.assert_array_equal(out.data, [[[[9.0]]]])

    def test_output_shape_formula_exhaustive(self):
        # Shape algebra for all valid (extent, kernel, stride, pad) <= 8.
        for h in range(1, 9):
            for kh in range(1, 9):
                for stride in (1, 2, 3):
                    for pad in (0, 1, 2):
                        expected = (h + 2 * pad - kh) // stride + 1
                        x = tc.Tensor(np.ones((1, 1, h, h)))
                        k = tc.Tensor(np.ones((1, 1, kh, kh)))
                        if expected <= 0 or kh > h + 2 * pad:
                            with pytest.raises(tc.TensorError):
                                tc.conv2d(x, k, stride, pad)
                        else:
                            out = tc.conv2d(x, k, stride, pad)
                            assert out.shape == (1, 1, expected, expected)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 5, 4))
        k = rng.normal(size=(3, 2, 3, 3))
        w = rng.normal(size=(2, 3, 5, 4))

        def f(tensors):
            return tc.sum_all(tc.mul(tc.conv2d(tensors[0], tensors[1], 1, 1), tc.Tensor(w)))

        assert gradcheck.check(f, [x, k])


class TestPooling:
    def test_global_avg(self):
        x = tc.astensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_array_equal(tc.global_avg_pool(x).data, [[2.5]])

    def test_global_max(self):
        x = tc.astensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_array_equal(tc.global_max_pool(x).data, [[4.0]])

    def test_relu(self):
        np.testing.assert_array_equal(tc.relu(tc.astensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_relu_of_a_scalar(self):
        x = tc.Tensor(-2.0, requires_grad=True)
        with tc.Tape() as tape:
            y = tc.relu(x)
        tc.backward(y, tape)
        assert y.data == 0.0 and y.data.shape == () and x.grad == 0.0

    def test_maxpool_shape_exhaustive(self):
        for h in range(1, 9):
            for window in range(1, 9):
                x = tc.Tensor(np.ones((1, 1, h, h)))
                if window > h:
                    with pytest.raises(tc.TensorError):
                        tc.maxpool2d(x, window)
                else:
                    assert tc.maxpool2d(x, window).shape == (1, 1, h // window, h // window)

    def test_maxpool_tie_routes_to_lowest_linear_index(self):
        x = tc.parameter(np.zeros((1, 1, 2, 2)))
        with tc.Tape() as tape:
            loss = tc.sum_all(tc.maxpool2d(x, 2))
        tc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


class TestShiftChannels:
    def test_adds_each_channel_its_shift_then_relu(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
        shift = np.array([-1.0, 0.5, 2.0])
        y = tc.Tensor(x.copy())
        assert tc.shift_channels(y, tc.Tensor(shift)) is y
        np.testing.assert_array_equal(y.data, x + shift[None, :, None, None])
        relu = tc.shift_channels(tc.Tensor(x.copy()), tc.Tensor(shift), relu=True)
        np.testing.assert_array_equal(relu.data, np.maximum(x + shift[None, :, None, None], 0.0))

    @pytest.mark.parametrize("shape, shift", [((2, 3, 4, 5), 2), ((2, 3), 3), ((2, 3, 4, 5), 4)])
    def test_shift_of_another_extent_rejected(self, shape, shift):
        with pytest.raises(tc.TensorError, match="does not match the channels"):
            tc.shift_channels(tc.Tensor(np.zeros(shape)), tc.Tensor(np.zeros(shift)))

    def test_shift_of_another_dtype_rejected(self):
        with pytest.raises(tc.TensorError, match="dtype mismatch"):
            tc.shift_channels(tc.Tensor(np.zeros((2, 3, 1, 1), np.float32)), tc.Tensor(np.zeros(3)))

    def test_residual_of_another_shape_or_dtype_rejected(self):
        x, shift = tc.Tensor(np.zeros((2, 3, 4, 4))), tc.Tensor(np.zeros(3))
        with pytest.raises(tc.TensorError, match="residual"):
            tc.shift_channels(x, shift, residual=tc.Tensor(np.zeros((2, 3, 4, 5))))
        with pytest.raises(tc.TensorError, match="dtype mismatch"):
            tc.shift_channels(x, shift, residual=tc.Tensor(np.zeros((2, 3, 4, 4), np.float32)))

    def test_a_residual_that_needs_a_gradient_never_records(self):
        x = np.ones((2, 3, 4, 4))
        inputs = tc.Tensor(x.copy()), tc.Tensor(np.ones(3)), tc.Tensor(x.copy(), requires_grad=True)
        with tc.Tape() as tape, pytest.raises(tc.TensorError, match="never records"):
            tc.shift_channels(*inputs[:2], True, inputs[2])
        assert len(tape) == 0
        assert_same_bytes(inputs[0].data, x)


class TestBatchnorm:
    def test_train_normalizes(self):
        x = tc.astensor(np.random.default_rng(1).normal(2.0, 3.0, size=(64, 5)))
        gamma, beta = tc.Tensor(np.ones(5)), tc.Tensor(np.zeros(5))
        out = tc.batchnorm(x, gamma, beta, np.zeros(5), np.ones(5))
        assert np.all(np.abs(out.data.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(out.data.var(axis=0) - 1.0) < 1e-4)

    def test_running_stats_update_rule(self):
        x = np.random.default_rng(2).normal(size=(8, 2))
        running_mean = np.ones(2)
        running_var = np.full(2, 4.0)
        gamma, beta = tc.Tensor(np.ones(2)), tc.Tensor(np.zeros(2))
        tc.batchnorm(tc.astensor(x), gamma, beta, running_mean, running_var)
        np.testing.assert_allclose(running_mean, 0.9 * 1.0 + 0.1 * x.mean(axis=0))
        np.testing.assert_allclose(running_var, 0.9 * 4.0 + 0.1 * x.var(axis=0))

    def test_batch_of_one_rejected(self):
        x, gamma, beta = tc.Tensor(np.ones((1, 3))), tc.Tensor(np.ones(3)), tc.Tensor(np.zeros(3))
        with pytest.raises(tc.TensorError):
            tc.batchnorm(x, gamma, beta, np.zeros(3), np.ones(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3))
        gamma = rng.uniform(0.5, 1.5, size=3)
        beta = rng.normal(size=3)
        w = rng.normal(size=(4, 3))

        def f(tensors):
            out = tc.batchnorm(tensors[0], tensors[1], tensors[2], np.zeros(3), np.ones(3))
            return tc.sum_all(tc.mul(out, tc.Tensor(w)))

        assert gradcheck.check(f, [x, gamma, beta])


def assert_same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def run_with_upstream(op, inputs, g):
    """Forward ``op(*inputs)`` and backward with upstream gradient ``g``:
    d/d out of sum(out * g) is exactly g."""
    with tc.Tape() as tape:
        out = op(*inputs)
        loss = tc.sum_all(tc.mul(out, tc.Tensor(g)))
    tc.backward(loss, tape)
    return out.data, [t.grad for t in inputs]


def pool_input(rng, shape, kind):
    """Max-pool input with no sign bit and no NaN, as a relu writes."""
    if kind == "normal":
        return np.abs(rng.normal(size=shape))
    if kind == "relu":  # about half exact zeros
        return np.maximum(rng.normal(size=shape), 0.0)
    if kind == "equal":  # every window all-equal
        return np.full(shape, abs(rng.normal()))
    if kind == "subnormal":  # ties among +0.0 and the two smallest float32 subnormals
        return rng.integers(0, 3, size=shape) * float(np.finfo(np.float32).smallest_subnormal)
    return rng.integers(0, 3, size=shape).astype(np.float64)  # "ints": dense ties


class TestRewrittenOpsMatchReferences:
    """The plane-wise max-pool, single-pass batchnorm and im2col conv give
    the bytes of the earlier implementations kept in ``oracles``."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        window=st.integers(1, 3),
        h=st.integers(0, 6),
        w=st.integers(0, 6),
        kind=st.sampled_from(["normal", "relu", "equal", "subnormal", "ints"]),
        seed=st.integers(0, 2**16),
    )
    def test_maxpool_non_overlapping_is_byte_equal(self, n, c, window, h, w, kind, seed):
        rng = np.random.default_rng(seed)
        x = pool_input(rng, (n, c, window + h, window + w), kind)
        ref_out, ref_back = oracles.maxpool2d_reference(x, window)
        g = rng.normal(size=ref_out.shape)
        out, (gx,) = run_with_upstream(lambda t: tc.maxpool2d(t, window), [tc.Tensor(x, requires_grad=True)], g)
        assert_same_bytes(out, ref_out)
        assert_same_bytes(gx, ref_back(g))

    # Without an input gradient the backward still gives gamma and beta theirs.
    @pytest.mark.parametrize("input_grad", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(
        four_d=st.booleans(),
        n=st.integers(2, 5),
        c=st.integers(1, 4),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_batchnorm_train_is_byte_equal(self, input_grad, four_d, n, c, h, w, seed):
        rng = np.random.default_rng(seed)
        shape = (n, c, h, w) if four_d else (n, c)
        x = rng.normal(1.0, 2.0, size=shape)
        gamma, beta = rng.normal(size=c), rng.normal(size=c)
        stats = rng.uniform(0.5, 2.0, size=(2, c))
        ref_mean, ref_var = stats[0].copy(), stats[1].copy()
        ref_out, ref_back = oracles.batchnorm_train_reference(
            x, gamma, beta, ref_mean, ref_var, tc.BATCHNORM_MOMENTUM, tc.BATCHNORM_EPS
        )
        g = rng.normal(size=shape)
        run_mean, run_var = stats[0].copy(), stats[1].copy()
        inputs = [tc.Tensor(a, requires_grad=r) for a, r in ((x, input_grad), (gamma, True), (beta, True))]

        def op(xt, gt, bt):
            return tc.batchnorm(xt, gt, bt, run_mean, run_var)

        out, grads = run_with_upstream(op, inputs, g)
        assert_same_bytes(out, ref_out)
        assert_same_bytes(run_mean, ref_mean)
        assert_same_bytes(run_var, ref_var)
        expected_grads = ref_back(g)
        if not input_grad:
            assert grads[0] is None
            grads, expected_grads = grads[1:], expected_grads[1:]
        for actual, expected in zip(grads, expected_grads):
            assert_same_bytes(actual, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        ksize=st.sampled_from([1, 3]),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
        n=st.integers(1, 3),
        cin=st.integers(1, 3),
        cout=st.integers(1, 3),
        h=st.integers(0, 4),
        w=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    @example(ksize=1, stride=1, pad=0, n=1, cin=1, cout=1, h=0, w=0, seed=0)  # a falsifying input seen once
    def test_conv2d_is_byte_equal(self, ksize, stride, pad, n, cin, cout, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, cin, ksize + h, ksize + w))
        k = rng.normal(size=(cout, cin, ksize, ksize))
        ref_out, ref_back = oracles.conv2d_reference(x, k, stride, pad)
        g = rng.normal(size=ref_out.shape)
        inputs = [tc.Tensor(x, requires_grad=True), tc.Tensor(k, requires_grad=True)]
        out, (gx, gk) = run_with_upstream(lambda a, b: tc.conv2d(a, b, stride, pad), inputs, g)
        ref_gx, ref_gk = ref_back(g)
        assert_same_bytes(out, ref_out)
        assert_same_bytes(gx, ref_gx)
        assert_same_bytes(gk, ref_gk)


# The default model's stem: the 3 -> 16 conv at full resolution, the
# batch norm and 2 x 2 max-pool on its output, and the relu.
STEM_CHANNELS = network.BackboneConfig().stem_channels
STEM_SIZE = network.BackboneConfig().input_size
# Batch sizes at the default input, and batches of 2 and 3 images at 128 x 64.
STEM_BATCHES = [(n, STEM_SIZE) for n in (4, 5, 17, 24, 32, 33)] + [(2, (128, 64)), (3, (128, 64))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, size", STEM_BATCHES)
class TestStemPassesMatchReferences:
    """The stem-sized passes, with a pool of 1, 2 or 3 threads left idle,
    give the bytes of the whole-batch references in ``oracles``: outputs,
    running statistics and every gradient."""

    @staticmethod
    def stem_map(n, size, dtype, seed):
        return np.random.default_rng(seed).normal(size=(n, STEM_CHANNELS) + size).astype(dtype)

    def test_conv2d(self, idle_pool, n, size, dtype):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3) + size).astype(dtype)
        k = rng.normal(size=(STEM_CHANNELS, 3, 3, 3)).astype(dtype)
        ref_out, ref_back = oracles.conv2d_reference(x, k, 1, 1)
        g = rng.normal(size=ref_out.shape).astype(dtype)
        inputs = [tc.Tensor(x, requires_grad=True), tc.Tensor(k, requires_grad=True)]
        out, (gx, gk) = run_with_upstream(lambda a, b: tc.conv2d(a, b, 1, 1), inputs, g)
        ref_gx, ref_gk = ref_back(g)
        assert_same_bytes(out, ref_out)
        assert_same_bytes(gx, ref_gx)
        assert_same_bytes(gk, ref_gk)
        assert_same_bytes(tc.conv2d(tc.Tensor(x), tc.Tensor(k), 1, 1).data, ref_out)

    def test_maxpool2d(self, idle_pool, n, size, dtype):
        x = np.maximum(self.stem_map(n, size, dtype, n), 0.0)  # ties at zero, as after the stem relu
        ref_out, ref_back = oracles.maxpool2d_reference(x, 2)
        g = np.random.default_rng(n + 1).normal(size=ref_out.shape).astype(dtype)
        out, (gx,) = run_with_upstream(lambda t: tc.maxpool2d(t, 2), [tc.Tensor(x, requires_grad=True)], g)
        assert_same_bytes(out, ref_out)
        assert_same_bytes(gx, ref_back(g))
        assert_same_bytes(tc.maxpool2d(tc.Tensor(x), 2).data, ref_out)

    def test_batchnorm_train(self, idle_pool, n, size, dtype):
        check_batchnorm_train_bytes(self.stem_map(n, size, dtype, n) * 2 + 1, np.random.default_rng(n))

    def test_shift_channels(self, idle_pool, n, size, dtype):
        # The folded conv's shift and relu, in place on the conv's output.
        x = self.stem_map(n, size, dtype, n)
        shift = np.random.default_rng(n).normal(size=STEM_CHANNELS).astype(dtype)
        shifted = x + shift[None, :, None, None]
        for relu, expected in ((False, shifted), (True, np.maximum(shifted, 0.0))):
            out = tc.shift_channels(tc.Tensor(x.copy()), tc.Tensor(shift), relu)
            assert_same_bytes(out.data, expected)
        # It works in place, so under a tape an operand that needs a
        # gradient makes the call fail before anything changes.
        for i in range(2):
            inputs = [tc.Tensor(a.copy(), requires_grad=j == i) for j, a in enumerate((x, shift))]
            with tc.Tape() as tape, pytest.raises(tc.TensorError, match="never records"):
                tc.shift_channels(*inputs)
            assert len(tape) == 0
            assert_same_bytes(inputs[0].data, x)

    def test_relu(self, idle_pool, n, size, dtype):
        x = self.stem_map(n, size, dtype, n)
        ref_out, ref_back = oracles.relu_reference(x)
        g = np.random.default_rng(n + 1).normal(size=x.shape).astype(dtype)
        out, (gx,) = run_with_upstream(tc.relu, [tc.Tensor(x, requires_grad=True)], g)
        assert_same_bytes(out, ref_out)
        assert_same_bytes(gx, ref_back(g))
        assert_same_bytes(tc.relu(tc.Tensor(x)).data, ref_out)


def shift_input(rng, shape, dtype, kind):
    """(x, shift) for the folded conv's tail: a conv output and a
    per-channel shift, with the values ``kind`` names."""
    c = shape[1]
    if kind == "ties":  # small integers: equal values within and across windows
        return rng.integers(-2, 3, size=shape).astype(dtype), rng.integers(-1, 2, size=c).astype(dtype)
    shift = rng.normal(size=c)
    shift[::3], shift[1::3] = -0.0, 0.0
    shift = shift.astype(dtype)
    if kind == "negated_shift":  # x + t is +0.0 where x = -t, and -0.0 + -0.0 where both are -0.0
        x = np.where(rng.random(shape) < 0.8, -shift[None, :, None, None], rng.normal(size=shape))
    elif kind == "negative_zero":  # raw -0.0 among +0.0 and +-1
        x = rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape)
    elif kind == "subnormal":  # sums of subnormals, shifted by subnormals
        tiny = np.finfo(dtype).smallest_subnormal
        x, shift = rng.integers(-4, 5, size=shape) * tiny, (rng.integers(-2, 3, size=c) * tiny).astype(dtype)
    else:  # "inf": +inf and -inf among normals
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.05] = np.inf
        x[rng.random(shape) < 0.05] = -np.inf
    return x.astype(dtype), shift


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# Odd extents crop a row and a column.
@pytest.mark.parametrize("n, size", [(2, (7, 9)), (5, (63, 33))])
class TestShiftTails:
    """``shift_channels`` ends a folded conv: on the conv's max-pooled
    output it gives the bytes of shift, relu and ``maxpool2d``; with
    ``residual`` those of shift, ``add`` and relu."""

    @pytest.mark.parametrize("kind", ["ties", "negated_shift", "negative_zero", "subnormal", "inf"])
    @pytest.mark.parametrize("window", [2, 3])
    def test_pooled_tail_is_shift_relu_maxpool(self, dtype, n, size, kind, window):
        x, shift = shift_input(np.random.default_rng(window), (n, STEM_CHANNELS) + size, dtype, kind)
        expected, _ = oracles.maxpool2d_reference(np.maximum(x + shift[None, :, None, None], 0.0), window)
        assert not np.signbit(expected).any()
        conv_out = tc.Tensor(x.copy())
        assert_same_bytes(tc.shift_channels(tc.maxpool2d(conv_out, window), tc.Tensor(shift), True).data, expected)
        assert_same_bytes(tc.maxpool2d(tc.shift_channels(tc.Tensor(x.copy()), tc.Tensor(shift), True), window).data, expected)
        assert_same_bytes(conv_out.data, x)  # only read

    @pytest.mark.parametrize("kind", ["ties", "negative_zero", "subnormal"])
    def test_residual_tail_is_shift_add_relu(self, dtype, n, size, kind):
        rng = np.random.default_rng(n)
        y, shift = shift_input(rng, (n, STEM_CHANNELS) + size, dtype, kind)
        shortcut = shift_input(rng, y.shape, dtype, kind)[0]
        for relu in (True, False):
            summed = tc.add(tc.shift_channels(tc.Tensor(y.copy()), tc.Tensor(shift)), tc.Tensor(shortcut))
            expected = (tc.relu(summed) if relu else summed).data
            conv_out, residual = tc.Tensor(y.copy()), tc.Tensor(shortcut.copy())
            assert tc.shift_channels(conv_out, tc.Tensor(shift), relu, residual) is conv_out
            assert_same_bytes(conv_out.data, expected)
            assert_same_bytes(residual.data, shortcut)  # never written

    @pytest.mark.parametrize(
        "relu, with_residual",
        [(False, False), (True, True), (False, True)],
        ids=["pool_without_relu", "pool_with_residual", "pool_with_residual_without_relu"],
    )
    def test_a_pooled_map_takes_any_relu_and_residual(self, dtype, n, size, relu, with_residual):
        # The pool runs before shift_channels, so a conv that pools may
        # skip the relu or add a shortcut of the pooled shape.
        rng = np.random.default_rng(3)
        x, shift = shift_input(rng, (n, STEM_CHANNELS) + size, dtype, "ties")
        pooled, _ = oracles.maxpool2d_reference(x, 2)
        shortcut = shift_input(rng, pooled.shape, dtype, "ties")[0] if with_residual else None
        expected = pooled + shift[None, :, None, None]
        if with_residual:
            expected = expected + shortcut
        if relu:
            expected = np.maximum(expected, 0.0)
        residual = tc.Tensor(shortcut.copy()) if with_residual else None
        out = tc.shift_channels(tc.maxpool2d(tc.Tensor(x.copy()), 2), tc.Tensor(shift), relu, residual)
        assert_same_bytes(out.data, expected)
        if with_residual:
            assert_same_bytes(residual.data, shortcut)  # never written

    @pytest.mark.parametrize("window", [0, 64], ids=["pool_zero", "pool_larger_than_the_map"])
    def test_a_window_outside_the_map_is_rejected(self, dtype, n, size, window):
        x = shift_input(np.random.default_rng(3), (n, STEM_CHANNELS) + size, dtype, "ties")[0]
        TestMaxpoolRunningMax.assert_rejected(x, window, f"window {window} must be at least 1 and fit the input")


def check_batchnorm_train_bytes(x, rng):
    """Train-mode batch norm of ``x`` gives the reference's output, running
    statistics and gradients, byte for byte."""
    dtype, channels = x.dtype, x.shape[1]
    gamma, beta = rng.normal(size=(2, channels)).astype(dtype)
    stats = rng.uniform(0.5, 2.0, size=(2, channels)).astype(dtype)
    ref_mean, ref_var = stats[0].copy(), stats[1].copy()
    ref_out, ref_back = oracles.batchnorm_train_reference(
        x, gamma, beta, ref_mean, ref_var, tc.BATCHNORM_MOMENTUM, tc.BATCHNORM_EPS
    )
    g = rng.normal(size=x.shape).astype(dtype)
    run_mean, run_var = stats[0].copy(), stats[1].copy()
    inputs = [tc.Tensor(a, requires_grad=True) for a in (x, gamma, beta)]

    def op(xt, gt, bt):
        return tc.batchnorm(xt, gt, bt, run_mean, run_var)

    out, grads = run_with_upstream(op, inputs, g)
    assert_same_bytes(out, ref_out)
    assert_same_bytes(run_mean, ref_mean)
    assert_same_bytes(run_var, ref_var)
    for actual, expected in zip(grads, ref_back(g)):
        assert_same_bytes(actual, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_channel_batchnorm_train(idle_pool, n, dtype):
    # One channel: numpy sums the batch and spatial axes as one run.
    x = np.random.default_rng(n).normal(1.0, 2.0, size=(n, 1, 256, 256)).astype(dtype)
    check_batchnorm_train_bytes(x, np.random.default_rng(n + 1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wide_conv_of_few_images(idle_pool, n, dtype):
    # One output pixel and 2^16 channels per image: each image is a
    # matrix-vector product, and keeps the bytes of one product per image.
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 1, 4, 4)).astype(dtype)
    k = rng.normal(size=(1 << 16, 1, 3, 3)).astype(dtype)
    ref_out, _ = oracles.conv2d_reference(x, k, 2, 0)
    assert_same_bytes(tc.conv2d(tc.Tensor(x), tc.Tensor(k), 2).data, ref_out)


class TestSoftmaxAndNorms:
    def test_log_softmax_symmetry(self):
        out = tc.log_softmax(tc.astensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[-np.log(2), -np.log(2)]])

    def test_l2_normalize(self):
        np.testing.assert_allclose(tc.l2_normalize(tc.astensor([[3.0, 4.0]])).data, [[0.6, 0.8]])

    def test_zero_norm_row_rejected(self):
        with pytest.raises(tc.TensorError):
            tc.l2_normalize(tc.astensor([[0.0, 0.0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_log_softmax_rows_sum_to_one(self, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(3, 6))
        rows = np.exp(tc.log_softmax(tc.astensor(x)).data).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_l2_normalize_unit_rows(self, seed):
        x = np.random.default_rng(seed).normal(size=(4, 5)) + 0.1
        norms = np.sqrt((tc.l2_normalize(tc.astensor(x)).data ** 2).sum(axis=1))
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = tc.parameter([1.0, 2.0, 3.0])
        with tc.Tape() as tape:
            loss = tc.sum_all(x)
        tc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_half_square_gradient_is_x(self):
        x = tc.parameter([1.5, -2.0, 0.5])
        with tc.Tape() as tape:
            loss = tc.scalar_mul(tc.sum_all(tc.mul(x, x)), 0.5)
        tc.backward(loss, tape)
        np.testing.assert_allclose(x.grad, x.data)

    def test_composed_network_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        w = rng.normal(size=(3, 4))
        lin = rng.normal(size=(2, 4))

        def f(tensors):
            y = tc.conv2d(tensors[0], tensors[1], stride=1, pad=1)
            y = tc.relu(y)
            y = tc.maxpool2d(y, 2)
            y = tc.global_avg_pool(y)
            y = tc.matmul(y, tensors[2])
            return tc.sum_all(tc.mul(y, tc.Tensor(lin)))

        analytic = gradcheck._run(f, [x, k, w])
        numeric = finite_difference_grads(gradcheck._value(f), [x.copy(), k.copy(), w.copy()])
        for a, n in zip(analytic, numeric):
            assert grads_agree(a, n, rtol=1e-4)

    def test_second_backward_rejected(self):
        x = tc.parameter([1.0])
        with tc.Tape() as tape:
            loss = tc.sum_all(x)
        tc.backward(loss, tape)
        with pytest.raises(tc.TensorError):
            tc.backward(loss, tape)

    def test_non_scalar_loss_rejected(self):
        x = tc.parameter([1.0, 2.0])
        with tc.Tape() as tape:
            y = tc.add(x, x)
        with pytest.raises(tc.TensorError):
            tc.backward(y, tape)

    def test_stale_tape_rejected(self):
        x = tc.parameter([1.0])
        with tc.Tape() as tape:
            tc.add(x, x)
        loss = tc.sum_all(x)  # built off-tape
        with pytest.raises(tc.TensorError, match="not produced on this tape"):
            tc.backward(loss, tape)

    def test_replay_frees_tape_and_intermediate_grads(self):
        rng = np.random.default_rng(5)
        x = tc.parameter(rng.normal(size=(2, 2, 5, 4)))
        k = tc.parameter(rng.normal(size=(3, 2, 3, 3)))
        with tc.Tape() as tape:
            conv = tc.conv2d(x, k, 1, 1)
            hidden = tc.relu(conv)
            loss = tc.sum_all(hidden)
        assert len(tape) == 3
        ref_out, ref_back = oracles.conv2d_reference(x.data, k.data, 1, 1)
        ref_gx, ref_gk = ref_back((ref_out > 0).astype(np.float64))
        probe = weakref.ref(hidden)
        tc.backward(loss, tape)
        assert len(tape) == 0
        assert conv.grad is None and hidden.grad is None
        assert loss.grad is not None
        assert_same_bytes(x.grad, ref_gx)
        assert_same_bytes(k.grad, ref_gk)
        del hidden
        assert probe() is None
        with pytest.raises(tc.TensorError):
            tc.backward(loss, tape)

    def test_grad_accumulates_across_uses(self):
        x = tc.parameter([2.0])
        with tc.Tape() as tape:
            loss = tc.sum_all(tc.add(x, x))
        tc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_second_tape_on_one_thread_rejected(self):
        x = tc.parameter([2.0])
        with tc.Tape() as tape:
            with pytest.raises(tc.TensorError, match="already active"):
                with tc.Tape():
                    pass
            loss = tc.sum_all(tc.mul(x, x))  # the first tape still records
        tc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [4.0])
        with tc.Tape() as again:  # and its exit frees the thread
            tc.sum_all(x)
        assert len(again) == 1

    def test_tape_on_another_thread_records(self):
        grads = []

        def train_step():
            x = tc.parameter([3.0])
            with tc.Tape() as tape:
                loss = tc.sum_all(tc.mul(x, x))
            tc.backward(loss, tape)
            grads.append(x.grad)

        with tc.Tape() as tape:
            worker = threading.Thread(target=train_step)
            worker.start()
            worker.join()
        assert len(tape) == 0
        assert len(grads) == 1
        np.testing.assert_array_equal(grads[0], [6.0])


class TestDeterminism:
    def test_forward_backward_bitwise_reproducible(self):
        def run():
            x = randn((2, 3, 6, 6), seed=21)
            x.requires_grad = True
            k = randn((2, 3, 3, 3), seed=22)
            k.requires_grad = True
            with tc.Tape() as tape:
                y = tc.relu(tc.conv2d(x, k, 1, 1))
                loss = tc.mean_all(y)
            tc.backward(loss, tape)
            return loss.item(), x.grad.copy(), k.grad.copy()

        first, second = run(), run()
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])
        np.testing.assert_array_equal(first[2], second[2])


class TestOpGradProperty:
    """Finite differences vs backward across >= 100 randomized seeds."""

    @pytest.mark.parametrize("seed", range(10))
    def test_all_ops_ten_seeds(self, seed):
        results = gradcheck.op_checks(seed)
        assert len(results) >= 10
        failures = [name for name, ok in results.items() if not ok]
        assert not failures, f"gradient mismatches: {failures}"


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        arrays = {
            "layer.weight": np.arange(6.0).reshape(2, 3),
            "layer.scale": np.float32([1.5, 2.5]),
            "meta.step": np.array([7], dtype=np.int64),
            "meta.blob": np.frombuffer(b"hello", dtype=np.uint8),
        }
        path = tmp_path / "model.ckpt"
        tc.save_arrays(path, arrays)
        loaded = tc.load_arrays(path)
        assert list(loaded) == list(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == arrays[name].dtype

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\rb", "a\vb", "a\fb", "a\nb"])
    def test_name_the_reader_refuses_is_not_written(self, tmp_path, name):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="invalid array name"):
            tc.save_arrays(path, {name: np.zeros(2)})
        assert not path.exists()

    def test_any_other_name_round_trips(self, tmp_path):
        # Everything but ASCII whitespace, including non-ASCII spaces.
        names = ["x", "a\x00b", "a\x1cb", "caf\u00e9", "a\u00a0b", "a\u2028b", "-1,2"]
        path = tmp_path / "model.ckpt"
        tc.save_arrays(path, {name: np.full(1, i) for i, name in enumerate(names)})
        loaded = tc.load_arrays(path)
        assert list(loaded) == names
        assert [int(v[0]) for v in loaded.values()] == list(range(len(names)))

    def test_version_tag_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"SOMETHING v9\n\n")
        with pytest.raises(ValueError):
            tc.load_arrays(path)

    def test_header_is_utf8_with_offsets(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tc.save_arrays(path, {"a": np.zeros(2), "b": np.ones(3)})
        head = path.read_bytes().split(b"\n\n")[0].decode("utf-8").split("\n")
        assert head[0] == tc.CHECKPOINT_MAGIC
        assert head[1] == "a 2 f8 0"
        assert head[2] == "b 3 f8 16"

    @pytest.mark.parametrize(
        "header, payload, message",
        [
            pytest.param("a 2 f9 0", bytes(16), "unknown dtype token", id="unknown_dtype_token"),
            pytest.param("a 2,3 f8 0", bytes(40), "byte payload", id="truncated_payload"),
            pytest.param("a 2 f8 -8", bytes(16), "malformed", id="negative_offset"),
            pytest.param("a 2 f8", bytes(16), "malformed", id="three_fields"),
            pytest.param("a -2 f8 0", bytes(16), "malformed", id="negative_extent"),
            pytest.param("x 2 f8 0\nx 2 f8 16", bytes(32), "'x' is named twice", id="repeated_name"),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header, payload, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(f"{tc.CHECKPOINT_MAGIC}\n{header}\n\n".encode() + payload)
        with pytest.raises(ValueError, match=message):
            tc.load_arrays(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        tc.save_arrays(path, {"a": np.arange(3.0)})
        before = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(tc.os, "fsync", fail)
        with pytest.raises(OSError):
            tc.save_arrays(path, {"a": np.arange(5.0), "b": np.ones(2)})
        assert path.read_bytes() == before
        np.testing.assert_array_equal(tc.load_arrays(path)["a"], np.arange(3.0))
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.fixture(scope="module")
def traced_ops():
    """Every tensorcore op the benchmark's tracer wraps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import spans

        return spans.OPS + spans.OTHER_OPS


def op_cases(rng, dtype):
    """name -> (op on a list of tensors, input arrays in ``dtype``).

    Batch-norm buffers are created in ``dtype`` too; a name's suffix in
    brackets tells cases of one op apart.
    """

    def arr(*shape, positive=False):
        a = rng.normal(size=shape)
        return (np.abs(a) + 0.5 if positive else a).astype(dtype)

    def bn():
        stats = [np.zeros(3, dtype), np.ones(3, dtype)]
        return lambda t: tc.batchnorm(t[0], t[1], t[2], *stats)

    return {
        "conv2d": (lambda t: tc.conv2d(t[0], t[1], 2, 1), [arr(2, 2, 5, 4), arr(3, 2, 3, 3)]),
        "conv2d[1x1]": (lambda t: tc.conv2d(t[0], t[1]), [arr(2, 2, 3, 3), arr(4, 2, 1, 1)]),
        "batchnorm": (bn(), [arr(4, 3, 2, 2), arr(3), arr(3)]),
        "batchnorm[2d]": (bn(), [arr(5, 3), arr(3), arr(3)]),
        "maxpool2d": (lambda t: tc.maxpool2d(t[0], 2), [arr(2, 2, 4, 6)]),
        "relu": (lambda t: tc.relu(t[0]), [arr(3, 4)]),
        "add": (lambda t: tc.add(t[0], t[1]), [arr(3, 4), arr(3, 4)]),
        "mul": (lambda t: tc.mul(t[0], t[1]), [arr(3, 4), arr(3, 4)]),
        "matmul": (lambda t: tc.matmul(t[0], t[1]), [arr(3, 4), arr(4, 2)]),
        "global_avg_pool": (lambda t: tc.global_avg_pool(t[0]), [arr(2, 3, 4, 2)]),
        "global_max_pool": (lambda t: tc.global_max_pool(t[0]), [arr(2, 3, 4, 2)]),
        "log_softmax": (lambda t: tc.log_softmax(t[0]), [arr(3, 5)]),
        "sub": (lambda t: tc.sub(t[0], t[1]), [arr(3, 4), arr(3, 4)]),
        # A float64 numpy scalar must not promote a float32 result.
        "scalar_mul": (lambda t: tc.scalar_mul(t[0], np.float64(1.7)), [arr(3, 4)]),
        "add_bias": (lambda t: tc.add_bias(t[0], t[1]), [arr(4, 3), arr(3)]),
        "absolute": (lambda t: tc.absolute(t[0]), [arr(3, 4)]),
        "pow_scalar": (lambda t: tc.pow_scalar(t[0], 2.5), [arr(3, 4, positive=True)]),
        "sum_all": (lambda t: tc.sum_all(t[0]), [arr(3, 4)]),
        "mean_all": (lambda t: tc.mean_all(t[0]), [arr(3, 4)]),
        "l2_normalize": (lambda t: tc.l2_normalize(t[0]), [arr(3, 4, positive=True)]),
    }


class TestDtypePropagation:
    """Every op keeps its operands' dtype in its output and in every
    gradient, and refuses operands of different dtypes."""

    DTYPES = (np.float32, np.float64)

    def test_cases_cover_every_traced_op(self, traced_ops):
        names = {name.split("[")[0] for name in op_cases(np.random.default_rng(0), np.float64)}
        assert names == set(traced_ops)

    @settings(max_examples=30, deadline=None)
    @given(dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16))
    def test_output_and_gradients_keep_the_dtype(self, dtype, seed):
        rng = np.random.default_rng(seed)
        for name, (op, arrays) in op_cases(rng, dtype).items():
            inputs = [tc.Tensor(a, requires_grad=True) for a in arrays]
            with tc.Tape() as tape:
                out = op(inputs)
                upstream = tc.Tensor(rng.normal(size=out.shape).astype(dtype))
                loss = tc.sum_all(tc.mul(out, upstream))
            tc.backward(loss, tape)
            assert out.dtype == dtype, name
            assert loss.dtype == dtype, name
            for i, t in enumerate(inputs):
                assert t.grad is not None and t.grad.dtype == dtype, f"{name} input {i}"
                # Kept as handed over, so laid out as a fresh array would be:
                # reductions over a strided view sum in another order.
                assert t.grad.flags.c_contiguous, f"{name} input {i}"

    @settings(max_examples=10, deadline=None)
    @given(dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16))
    def test_mixed_operands_rejected(self, dtype, seed):
        other = np.float64 if dtype == np.float32 else np.float32
        rng = np.random.default_rng(seed)
        for name, (op, arrays) in op_cases(rng, dtype).items():
            for i in range(len(arrays) if len(arrays) > 1 else 0):
                mixed = [tc.Tensor(a.astype(other) if j == i else a) for j, a in enumerate(arrays)]
                with pytest.raises(tc.TensorError, match="dtype mismatch"):
                    op(mixed)

    def test_batchnorm_buffer_of_another_dtype_rejected(self):
        x = tc.Tensor(np.ones((2, 3), np.float32))
        gamma, beta = tc.Tensor(np.ones(3, np.float32)), tc.Tensor(np.zeros(3, np.float32))
        with pytest.raises(tc.TensorError, match="dtype mismatch"):
            tc.batchnorm(x, gamma, beta, np.zeros(3), np.ones(3, np.float32))

    def test_construction_keeps_float_dtypes_and_casts_the_rest(self):
        assert tc.Tensor(np.ones(2, np.float32)).dtype == np.float32
        assert tc.Tensor(np.ones(2)).dtype == np.float64
        assert tc.Tensor([1, 2]).dtype == np.float64
        assert tc.Tensor(np.ones(2, np.float16)).dtype == np.float64
        assert tc.Tensor(np.float32(2.0)).dtype == np.float32

    def test_gradient_of_another_dtype_rejected(self):
        x = tc.parameter(np.ones(2, np.float32))
        with pytest.raises(tc.TensorError, match="gradient dtype"):
            tc.accumulate_grad(x, np.ones(2))
        assert x.grad is None


class TestNoTapeFork:
    """An op's forward gives the same bytes whether it records a closure
    or not; one that records none skips the work only a backward reads
    (relu's mask)."""

    DTYPES = (np.float32, np.float64)

    @staticmethod
    def forward(op, arrays, tape, requires_grad):
        inputs = [tc.Tensor(a.copy(), requires_grad=requires_grad) for a in arrays]
        if not tape:
            assert not tc.will_record(*inputs)
            return op(inputs).data
        with tc.Tape() as t:
            out = op(inputs).data
        assert len(t) == (1 if requires_grad else 0)
        return out

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_every_op_forward_is_byte_equal_with_and_without_a_tape(self, dtype, seed):
        # op_cases covers every traced op (TestDtypePropagation checks
        # that). A fresh set of cases per call, so each train-mode batch
        # norm starts from the same running statistics.
        cases = lambda: op_cases(np.random.default_rng(seed), dtype)  # noqa: E731
        names = list(cases())
        assert {"batchnorm", "batchnorm[2d]"} <= set(names)
        for name in names:
            runs = [(True, True), (False, True), (False, False), (True, False)]
            first, *rest = (self.forward(*cases()[name], tape, requires_grad) for tape, requires_grad in runs)
            for out in rest:
                assert_same_bytes(out, first)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind", ["equal", "subnormal", "ints", "relu"])
    @pytest.mark.parametrize("window", [2, 3])
    def test_maxpool_ties_and_subnormals(self, dtype, kind, window):
        x = pool_input(np.random.default_rng(window), (2, 3, 7, 6), kind).astype(dtype)
        expected, _ = oracles.maxpool2d_reference(x, window)
        op = lambda t: tc.maxpool2d(t[0], window)  # noqa: E731
        assert_same_bytes(self.forward(op, [x], tape=False, requires_grad=False), expected)
        assert_same_bytes(self.forward(op, [x], tape=True, requires_grad=True), expected)


class TestGradientHandOver:
    """accumulate_grad keeps a first gradient without copying it, so ops
    that pass their incoming gradient on must pass copies."""

    @staticmethod
    def leaves(*shapes):
        rng = np.random.default_rng(len(shapes))
        return [tc.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

    def assert_disjoint(self, tensors):
        grads = [t.grad for t in tensors]
        assert all(g is not None for g in grads)
        for i in range(len(grads)):
            for j in range(i + 1, len(grads)):
                assert not np.shares_memory(grads[i], grads[j]), (i, j)

    @pytest.mark.parametrize("op", [tc.add, tc.sub])
    def test_pass_through_ops_as_the_loss(self, op):
        p, q = self.leaves((1,), (1,))
        with tc.Tape() as tape:
            loss = op(p, q)
        tc.backward(loss, tape)
        self.assert_disjoint([p, q, loss])
        assert loss.grad[0] == 1.0 and p.grad[0] == 1.0 and q.grad[0] == (1.0 if op is tc.add else -1.0)

    def test_add_bias_as_the_loss(self):
        x, b = self.leaves((1, 1), (1,))
        with tc.Tape() as tape:
            loss = tc.add_bias(x, b)
        tc.backward(loss, tape)
        self.assert_disjoint([x, b, loss])
        assert loss.grad[0, 0] == 1.0

    def test_reused_leaves_accumulate_into_their_own_arrays(self):
        a, b, bias = self.leaves((3, 4), (3, 4), (4,))
        with tc.Tape() as tape:
            s = tc.add(a, b)
            d = tc.sub(s, b)
            e = tc.add_bias(tc.add(d, a), bias)
            loss = tc.add(tc.sum_all(e), tc.sum_all(tc.add(a, a)))
        tc.backward(loss, tape)
        self.assert_disjoint([a, b, bias, loss])
        np.testing.assert_array_equal(a.grad, np.full((3, 4), 4.0))
        np.testing.assert_array_equal(b.grad, np.zeros((3, 4)))
        np.testing.assert_array_equal(bias.grad, np.full(4, 3.0))


class TestModuleDtype:
    def test_load_state_arrays_refuses_to_round(self):
        backbone = network.BackboneConfig(
            stem_channels=4, stage_channels=(4, 4, 8), strides=(1, 1, 1), input_size=(8, 8)
        )
        f64 = network.ReidModel(3, network.ModelConfig(d_global=4, d_drop=4, backbone=backbone, dtype="float64"))
        f32 = network.ReidModel(3, network.ModelConfig(d_global=4, d_drop=4, backbone=backbone))
        assert {p.data.dtype for p in f32.parameters()} == {np.dtype(np.float32)}
        before = {n: a.copy() for n, a in f32.state_arrays().items()}
        with pytest.raises(ValueError, match="float64"):
            f32.load_state_arrays(f64.state_arrays())
        # A single mismatched array, the last one, also changes nothing.
        state = {k: (v + 1.0).astype(np.float32) for k, v in f64.state_arrays().items()}
        last = list(state)[-1]
        state[last] = state[last].astype(np.float64)
        with pytest.raises(ValueError, match=last):
            f32.load_state_arrays(state)
        for n, a in f32.state_arrays().items():
            assert_same_bytes(a, before[n])
        # Rounded once from the same float64 draws.
        for (n, a), (_, b) in zip(f64.named_parameters(), f32.named_parameters()):
            assert_same_bytes(b.data, a.data.astype(np.float32))
        f32.load_state_arrays({k: v.astype(np.float32) for k, v in f64.state_arrays().items()})


class TestConvShapesMatchReference:
    """Kernels of 3 x kw for kw 1-5, every stride 1-3 and pad 0-2, and
    non-contiguous inputs: conv2d's output and both gradients have the
    bytes of the per-image reference."""

    def test_non_contiguous_input_copies_values(self):
        rng = np.random.default_rng(1)
        transposed = rng.normal(size=(4, 3, 8, 9)).transpose(0, 1, 3, 2)
        sliced = rng.normal(size=(4, 3, 9, 16))[..., ::2]
        for x, (ksize, pad) in itertools.product((transposed, sliced), ((1, 0), (1, 1), (3, 0), (3, 1))):
            k = rng.normal(size=(5, 3, ksize, ksize))
            ref_out, ref_back = oracles.conv2d_reference(x, k, 1, pad)
            g = rng.normal(size=ref_out.shape)
            inputs = [tc.Tensor(x, requires_grad=True), tc.Tensor(k, requires_grad=True)]
            out, grads = run_with_upstream(lambda a, b: tc.conv2d(a, b, 1, pad), inputs, g)
            assert_same_bytes(out, ref_out)
            for actual, expected in zip(grads, ref_back(g)):
                assert_same_bytes(actual, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_matches_reference(self, idle_pool, dtype):
        rng = np.random.default_rng(3)
        for kw, stride, pad, n in itertools.product(range(1, 6), range(1, 4), range(3), (1, 4, 5, 32)):
            x = rng.normal(size=(n, 3, 20, 16)).astype(dtype)
            k = rng.normal(size=(16, 3, 3, kw)).astype(dtype)
            ref_out, ref_back = oracles.conv2d_reference(x, k, stride, pad)
            g = rng.normal(size=ref_out.shape).astype(dtype)
            inputs = [tc.Tensor(x, requires_grad=True), tc.Tensor(k, requires_grad=True)]
            out, (gx, gk) = run_with_upstream(lambda a, b: tc.conv2d(a, b, stride, pad), inputs, g)
            ref_gx, ref_gk = ref_back(g)
            assert_same_bytes(out, ref_out)
            assert_same_bytes(gk, ref_gk)
            assert_same_bytes(gx, ref_gx)
            assert_same_bytes(tc.conv2d(tc.Tensor(x), tc.Tensor(k), stride, pad).data, ref_out)


class TestOneProductPerImage:
    """conv2d multiplies each image's columns on their own, forward and
    backward, so an image's output and input gradient have the same bytes
    alone as in any batch, and a batch's kernel gradient
    is the in-order sum of its images' own."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh, kw", [(1, 1), (3, 3), (3, 5)])
    def test_each_image_equals_its_rows_in_the_batch(self, idle_pool, dtype, kh, kw):
        rng = np.random.default_rng(kh * kw)
        k = rng.normal(size=(16, 3, kh, kw)).astype(dtype)
        for n, stride, pad in itertools.product((1, 2, 3, 5, 32), range(1, 4), range(3)):
            x = rng.normal(size=(n, 3, 20, 16)).astype(dtype)
            batch = tc.conv2d(tc.Tensor(x), tc.Tensor(k), stride, pad).data
            for i in range(n):
                assert_same_bytes(tc.conv2d(tc.Tensor(x[i : i + 1]), tc.Tensor(k), stride, pad).data, batch[i : i + 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh, kw", [(1, 1), (3, 3)])
    def test_kernel_gradient_is_the_in_order_sum_of_one_image_gradients(self, idle_pool, dtype, kh, kw):
        rng = np.random.default_rng(10 + kh)
        k = rng.normal(size=(16, 3, kh, kw)).astype(dtype)
        for n, stride, pad in itertools.product((1, 2, 3, 32), (1, 2), (0, 1)):
            x = rng.normal(size=(n, 3, 20, 16)).astype(dtype)
            ho, wo = tc.conv_output_extent(20, kh, stride, pad), tc.conv_output_extent(16, kw, stride, pad)
            g = rng.normal(size=(n, 16, ho, wo)).astype(dtype)

            def grads(i, j):
                inputs = [tc.Tensor(x[i:j], requires_grad=True), tc.Tensor(k, requires_grad=True)]
                return run_with_upstream(lambda a, b: tc.conv2d(a, b, stride, pad), inputs, g[i:j])[1]

            gx, gk = grads(0, n)
            total = np.zeros_like(k)
            for i in range(n):
                gx_i, gk_i = grads(i, i + 1)
                assert_same_bytes(gx_i, gx[i : i + 1])
                total = total + gk_i
            assert_same_bytes(gk, total)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_pixel_output(self, idle_pool, dtype):
        # A 1 x 1 output makes each image's product a matrix-vector one.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 2, 5, 5)).astype(dtype)
        k = rng.normal(size=(1 << 15, 2, 5, 5)).astype(dtype)
        batch = tc.conv2d(tc.Tensor(x), tc.Tensor(k)).data
        assert batch.shape == (5, 1 << 15, 1, 1)
        assert_same_bytes(batch, oracles.conv2d_reference(x, k, 1, 0)[0])
        for i in range(5):
            assert_same_bytes(tc.conv2d(tc.Tensor(x[i : i + 1]), tc.Tensor(k)).data, batch[i : i + 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pad", [1, 2])
    def test_padded_one_by_one_conv_matches_reference(self, dtype, pad):
        # The output is (h + 2 pad) x (w + 2 pad): the padded input is the
        # column matrix, with no copy.
        rng = np.random.default_rng(pad)
        x = rng.normal(size=(3, 4, 6, 5)).astype(dtype)
        k = rng.normal(size=(7, 4, 1, 1)).astype(dtype)
        ref_out, ref_back = oracles.conv2d_reference(x, k, 1, pad)
        assert ref_out.shape == (3, 7, 6 + 2 * pad, 5 + 2 * pad)
        g = rng.normal(size=ref_out.shape).astype(dtype)
        inputs = [tc.Tensor(x, requires_grad=True), tc.Tensor(k, requires_grad=True)]
        out, grads = run_with_upstream(lambda a, b: tc.conv2d(a, b, 1, pad), inputs, g)
        assert_same_bytes(out, ref_out)
        for actual, expected in zip(grads, ref_back(g)):
            assert_same_bytes(actual, expected)


class TestMaxpoolRunningMax:
    """Max-pooling runs a float running maximum, recorded or not, takes
    any input and rejects a NaN in a pooled window."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["relu", "zeros", "inf"])
    @pytest.mark.parametrize("n, size", [(2, (7, 6)), (32, STEM_SIZE)])
    def test_running_max_matches_reference(self, idle_pool, dtype, kind, n, size):
        rng = np.random.default_rng(n)
        x = np.maximum(rng.normal(size=(n, STEM_CHANNELS) + size), 0.0)
        if kind == "zeros":
            x[:, :, :4] = 0.0  # whole windows of zeros
        elif kind == "inf":
            x[rng.random(x.shape) < 0.05] = np.inf
        x = x.astype(dtype)
        for window in (2, 3):
            expected, _ = oracles.maxpool2d_reference(x, window)
            assert_same_bytes(tc.maxpool2d(tc.Tensor(x), window).data, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, size", [(2, (7, 6)), (32, STEM_SIZE)])
    def test_a_recorded_pass_over_a_relu_output_matches_reference(self, idle_pool, dtype, n, size):
        rng = np.random.default_rng(6)
        x = tc.relu(tc.Tensor(rng.normal(size=(n, STEM_CHANNELS) + size).astype(dtype))).data
        ref_out, ref_back = oracles.maxpool2d_reference(x, 2)
        g = rng.normal(size=ref_out.shape).astype(dtype)
        out, (gx,) = run_with_upstream(lambda t: tc.maxpool2d(t, 2), [tc.Tensor(x, requires_grad=True)], g)
        assert_same_bytes(out, ref_out)
        assert_same_bytes(gx, ref_back(g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_negative_zero_gradient_lands_as_positive_zero(self, dtype):
        # The routed gradient is added into +0.0, as the reference's
        # np.add.at does; assigned, a -0.0 would keep its sign bit.
        x = np.maximum(np.random.default_rng(8).normal(size=(2, 3, 5, 6)), 0.0).astype(dtype)
        ref_out, ref_back = oracles.maxpool2d_reference(x, 2)
        g = np.full(ref_out.shape, -0.0, dtype)
        _, (gx,) = run_with_upstream(lambda t: tc.maxpool2d(t, 2), [tc.Tensor(x, requires_grad=True)], g)
        assert not np.signbit(gx).any()
        assert_same_bytes(gx, ref_back(g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["equal", "subnormal", "ints", "relu", "inf"])
    @pytest.mark.parametrize("window", [2, 3])
    def test_recorded_gradient_goes_to_each_windows_first_maximum(self, dtype, kind, window):
        rng = np.random.default_rng(window)
        shape = (16 if window == 2 else 40, STEM_CHANNELS) + STEM_SIZE
        if kind == "inf":  # ties of +inf among ties of zeros
            x = np.maximum(rng.normal(size=shape), 0.0)
            x[rng.random(shape) < 0.3] = np.inf
        else:
            x = pool_input(rng, shape, kind)
        x = x.astype(dtype)
        expected_out, back = oracles.maxpool2d_reference(x, window)
        g = rng.normal(size=expected_out.shape).astype(dtype)
        out, (gx,) = run_with_upstream(lambda t: tc.maxpool2d(t, window), [tc.Tensor(x, requires_grad=True)], g)
        assert_same_bytes(out, expected_out)
        assert_same_bytes(gx, back(g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["ties", "negative_zero", "subnormal", "inf"])
    @pytest.mark.parametrize("window", [2, 3])
    def test_signed_input_matches_reference(self, dtype, kind, window):
        # Negative values, ties of -0.0 and +0.0, and +-inf, as the stem's
        # batch norm output may hold. np.maximum does not order -0.0
        # against +0.0, so the forward bytes are compared after + 0.0; the
        # gradient goes to the first offset equal to the maximum, as the
        # reference's argmax sends it.
        rng = np.random.default_rng(window)
        shape = (16 if window == 2 else 40, STEM_CHANNELS) + STEM_SIZE
        x = shift_input(rng, shape, dtype, kind)[0]
        assert np.signbit(x).any()
        expected_out, back = oracles.maxpool2d_reference(x, window)
        g = rng.normal(size=expected_out.shape).astype(dtype)
        out, (gx,) = run_with_upstream(lambda t: tc.maxpool2d(t, window), [tc.Tensor(x, requires_grad=True)], g)
        assert_same_bytes(out + 0.0, expected_out + 0.0)
        assert_same_bytes(gx, back(g))

    @staticmethod
    def assert_rejected(x, window, match):
        """Off a tape and recorded on one, ``maxpool2d(x, window)`` raises
        and the tape stays empty."""
        with pytest.raises(tc.TensorError, match=match):
            tc.maxpool2d(tc.Tensor(x), window)
        with tc.Tape() as tape, pytest.raises(tc.TensorError, match=match):
            tc.maxpool2d(tc.Tensor(x, requires_grad=True), window)
        assert len(tape) == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "value",
        # The last is the NaN that x86 writes for inf - inf.
        [np.nan, np.copysign(np.nan, -1.0)],
        ids=["nan", "nan_with_sign_bit"],
    )
    def test_a_nan_in_the_last_window_is_rejected(self, dtype, value):
        x = np.random.default_rng(7).normal(size=(2, 3, 6, 6)).astype(dtype)
        x[1, 2, 5, 5] = value  # the last offset of the last window
        assert np.signbit(x[1, 2, 5, 5]) == np.signbit(value)
        self.assert_rejected(x, 2, "a pooled window holds a NaN")

    def test_a_nan_in_the_last_image_of_a_stem_batch_is_rejected(self):
        x = np.random.default_rng(9).normal(size=(16, STEM_CHANNELS) + STEM_SIZE)
        x[-1, -1, -1, -1] = np.nan
        self.assert_rejected(x.astype(np.float32), 2, "a pooled window holds a NaN")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, size", [(2, (7, 9)), (5, (63, 33))])  # odd extents crop a row and a column
    def test_a_nan_in_a_pooled_window_is_rejected(self, dtype, n, size):
        x = shift_input(np.random.default_rng(1), (n, STEM_CHANNELS) + size, dtype, "ties")[0]
        for position in ((-1, -1, 1, 1), (-1, -1, 5, 7)):  # windows of the last image
            bad = x.copy()
            bad[position] = np.nan
            self.assert_rejected(bad, 2, "a pooled window holds a NaN")
        # A NaN past the last whole window does not reach the output.
        bad = x.copy()
        bad[:, :, -1] = np.nan
        bad[:, :, :, -1] = np.nan
        assert_same_bytes(tc.maxpool2d(tc.Tensor(bad), 2).data, oracles.maxpool2d_reference(x, 2)[0])

    def test_window_zero_is_rejected(self):
        self.assert_rejected(np.ones((1, 1, 4, 4)), 0, "at least 1")

    def test_a_window_larger_than_the_input_is_rejected(self):
        self.assert_rejected(np.ones((1, 1, 4, 5)), 5, "fit the input 4x5")

    def test_an_empty_batch(self):
        assert tc.maxpool2d(tc.Tensor(np.zeros((0, 2, 4, 4))), 2).shape == (0, 2, 2, 2)
