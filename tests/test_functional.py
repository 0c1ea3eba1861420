"""Functional-kernel tests: the batch-first conv/FC kernels and the pooling
kernels vs naive loops, incl. regressions for grouped convolution and padded
pooling."""

import numpy as np
import pytest

from repro.engine import NetworkParams, reference_forward_batch
from repro.nn import NetworkBuilder, TensorShape
from repro.nn import functional as F

RNG = np.random.default_rng(42)


def naive_conv2d(x, weights, bias, stride, pad, groups):
    out_channels, group_channels, kernel, _ = weights.shape
    in_channels = x.shape[0]
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out_h = (x.shape[1] + 2 * pad - kernel) // stride + 1
    out_w = (x.shape[2] + 2 * pad - kernel) // stride + 1
    group_out = out_channels // groups
    out = np.zeros((out_channels, out_h, out_w))
    for d in range(out_channels):
        g = d // group_out
        x_g = padded[g * group_channels : (g + 1) * group_channels]
        for i in range(out_h):
            for j in range(out_w):
                patch = x_g[:, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
                out[d, i, j] = np.sum(patch * weights[d])
        if bias is not None:
            out[d] += bias[d]
    return out


def naive_pool2d(x, kernel, stride, pad, mode):
    fill = -np.inf if mode == "max" else 0.0
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), constant_values=fill)
    out_h = (x.shape[1] + 2 * pad - kernel) // stride + 1
    out_w = (x.shape[2] + 2 * pad - kernel) // stride + 1
    out = np.zeros((x.shape[0], out_h, out_w))
    reduce = np.max if mode == "max" else np.mean
    for c in range(x.shape[0]):
        for i in range(out_h):
            for j in range(out_w):
                window = padded[c, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
                out[c, i, j] = reduce(window)
    return out


def assert_matches_naive_per_image(out, x, weights, bias, stride, pad, groups):
    assert out.shape[0] == x.shape[0]
    for image, expected in zip(out, x):
        np.testing.assert_allclose(
            image, naive_conv2d(expected, weights, bias, stride, pad, groups), atol=1e-12
        )


def test_conv2d_matches_naive_dense():
    x = RNG.normal(size=(2, 3, 9, 9))
    w = RNG.normal(size=(5, 3, 3, 3))
    b = RNG.normal(size=5)
    out = F.conv2d(x, w, b, stride=2, pad=1)
    assert_matches_naive_per_image(out, x, w, b, 2, 1, 1)


def test_conv2d_grouped_matches_naive():
    # Regression: groups used to be silently ignored, computing a dense
    # matmul with mismatched weight shapes.
    x = RNG.normal(size=(2, 6, 8, 8))
    w = RNG.normal(size=(4, 3, 3, 3))  # 2 groups: 6 in / 4 out
    out = F.conv2d(x, w, stride=1, pad=1, groups=2)
    assert_matches_naive_per_image(out, x, w, None, 1, 1, 2)


def test_conv2d_depthwise_matches_naive():
    x = RNG.normal(size=(2, 4, 6, 6))
    w = RNG.normal(size=(4, 1, 3, 3))
    out = F.conv2d(x, w, groups=4, pad=1)
    assert_matches_naive_per_image(out, x, w, None, 1, 1, 4)


def test_conv2d_validates_group_divisibility():
    x = RNG.normal(size=(1, 6, 8, 8))
    with pytest.raises(ValueError):
        F.conv2d(x, RNG.normal(size=(5, 3, 3, 3)), groups=2)  # 5 outputs % 2 != 0
    with pytest.raises(ValueError):
        F.conv2d(x, RNG.normal(size=(4, 2, 3, 3)), groups=4)  # 6 inputs % 4 != 0
    with pytest.raises(ValueError):
        F.conv2d(x, RNG.normal(size=(4, 6, 3, 3)), groups=2)  # wrong per-group C


def test_max_pool_padding_uses_neg_inf_fill():
    # Regression: zero-fill padding corrupts all-negative windows.
    x = np.full((1, 4, 4), -5.0)
    out = F.max_pool2d(x, kernel=3, stride=2, pad=1)
    assert np.all(out == -5.0)
    np.testing.assert_allclose(out, naive_pool2d(x, 3, 2, 1, "max"))


def test_avg_pool_padding_counts_padded_zeros():
    x = np.ones((1, 4, 4))
    out = F.avg_pool2d(x, kernel=3, stride=2, pad=1)
    np.testing.assert_allclose(out, naive_pool2d(x, 3, 2, 1, "avg"))
    # corner window holds 4 real pixels out of 9 positions
    assert out[0, 0, 0] == pytest.approx(4 / 9)


def test_pool_matches_naive_random():
    x = RNG.normal(size=(3, 7, 7))
    for mode, fn in (("max", F.max_pool2d), ("avg", F.avg_pool2d)):
        out = fn(x, kernel=3, stride=2, pad=1)
        np.testing.assert_allclose(out, naive_pool2d(x, 3, 2, 1, mode), atol=1e-12)


def test_max_pool_padding_handles_integer_inputs():
    # Regression: the -inf fill must not be forced into an integer array.
    x = np.arange(16, dtype=np.int64).reshape(1, 4, 4)
    out = F.max_pool2d(x, kernel=2, stride=2, pad=1)
    np.testing.assert_allclose(out, naive_pool2d(x.astype(float), 2, 2, 1, "max"))


def test_pool_rejects_padding_larger_than_half_kernel():
    x = RNG.normal(size=(1, 4, 4))
    with pytest.raises(ValueError, match="half the kernel"):
        F.max_pool2d(x, kernel=2, pad=2)
    with pytest.raises(ValueError, match="half the kernel"):
        F.avg_pool2d(x, kernel=3, pad=2)


def test_pool_shape_matches_descriptor_inference():
    from repro.nn.layers import Pool2D, TensorShape

    x = RNG.normal(size=(2, 7, 7))
    desc = Pool2D(name="p", kernel=3, stride=2, padding=1)
    expected = desc.output_shape(TensorShape(2, 7, 7))
    out = F.max_pool2d(x, kernel=3, stride=2, pad=1)
    assert out.shape == (expected.channels, expected.height, expected.width)


def test_fully_connected_matches_matmul():
    x = RNG.normal(size=(2, 4, 3, 3))
    w = RNG.normal(size=(10, 36))
    b = RNG.normal(size=10)
    out = F.fully_connected(x, w, b)
    assert out.shape == (2, 10)
    for image, expected in zip(out, x):
        np.testing.assert_allclose(image, w @ expected.reshape(-1) + b, atol=1e-12)
    with pytest.raises(ValueError, match="expected 36 input features"):
        F.fully_connected(x[:, :3], w, b)


def test_relu_softmax_batch_norm():
    # ReLU and folded batch-norm as the float reference applies them
    network = NetworkBuilder("bn", TensorShape(3, 4, 4)).batch_norm(name="bn").relu().build()
    params = NetworkParams(network, seed=0)
    x = RNG.normal(size=(2, 3, 4, 4))
    out, acts = reference_forward_batch(network, params, x)
    scale, shift = params["bn"].scale, params["bn"].shift
    np.testing.assert_allclose(acts["bn"][:, 1], x[:, 1] * scale[1] + shift[1], atol=1e-12)
    np.testing.assert_array_equal(out, F.relu(acts["bn"]))
    assert np.all(out >= 0)
