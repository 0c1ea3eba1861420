"""Quantisation helper tests: round trips, the blocked per-channel
quantiser against its whole-tensor reference on every kernel tier, its
refusal of non-finite weights, and the MSB/LSB split."""

import numpy as np
import pytest
from quantization_oracle import (
    combine_msb_lsb,
    quantization_error,
    quantize_symmetric,
    quantize_unsigned,
)

from repro.context import SimContext
from repro.engine import EngineError, NetworkParams, program
from repro.kernels.dispatch import available
from repro.nn.models import build_model
from repro.nn.quantization import quantize_symmetric_per_channel, split_msb_lsb

RNG = np.random.default_rng(5)


def test_symmetric_quantization_roundtrip_error_bound():
    x = RNG.normal(size=1000)
    quant = quantize_symmetric(x, bits=8)
    assert quant.signed and quant.bits == 8
    assert np.max(np.abs(quant.dequantize() - x)) <= quant.scale / 2 + 1e-12


def test_unsigned_quantization_roundtrip_error_bound():
    x = np.abs(RNG.normal(size=1000))
    quant = quantize_unsigned(x, bits=8)
    assert not quant.signed
    assert np.all(quant.values >= 0)
    assert np.max(np.abs(quant.dequantize() - x)) <= quant.scale / 2 + 1e-12


def test_unsigned_quantization_rejects_negative_inputs():
    with pytest.raises(ValueError):
        quantize_unsigned(np.array([-1.0, 1.0]), bits=8)


def test_quantization_error_decreases_with_bits():
    x = RNG.normal(size=2000)
    assert quantization_error(x, 8) < quantization_error(x, 4)


def _whole_tensor_per_channel(x, bits):
    """The per-channel quantiser as one whole-tensor expression."""
    qmax = 2 ** (bits - 1) - 1
    max_abs = np.max(np.abs(x.reshape(x.shape[0], -1)), axis=1) if x.size else np.zeros(x.shape[0])
    scales = np.where(max_abs > 0, max_abs / qmax, 1.0)
    shape = (-1,) + (1,) * (x.ndim - 1)
    return np.clip(np.round(x / scales.reshape(shape)), -qmax, qmax), scales


@pytest.mark.parametrize(
    "shape", [(5,), (3, 7), (64, 3, 3, 3), (300, 512), (3, 70000), (0, 4), (4, 0)]
)
@pytest.mark.parametrize("bits", [2, 8, 9, 16])
def test_per_channel_quantization_matches_the_whole_tensor_reference(shape, bits):
    """Blocks of channels (several per block, one per block, partial last
    blocks, all-zero channels) give the reference's values and scales, in
    the narrowest signed dtype."""
    x = RNG.normal(size=shape) * 3.0
    if x.size:
        x[0] = 0.0
    quant = quantize_symmetric_per_channel(x, bits)
    values, scales = _whole_tensor_per_channel(x, bits)
    assert quant.values.dtype == (np.int8 if bits <= 8 else np.int16)
    assert quant.values.shape == x.shape
    np.testing.assert_array_equal(quant.values, values)
    np.testing.assert_array_equal(quant.scales, scales)


@pytest.mark.parametrize("tier", available())
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_per_channel_quantization_rejects_non_finite(tier, bad, monkeypatch):
    """A NaN or inf weight raises instead of coding garbage under a scale
    of 1.0 or inf, whichever tier quantises."""
    monkeypatch.setenv("REPRO_KERNEL", tier)
    x = RNG.normal(size=(4, 3, 3, 3))
    x[2, 1, 0, 2] = bad
    with pytest.raises(ValueError, match="channel 2 holds a non-finite weight"):
        quantize_symmetric_per_channel(x, 8)


def test_programming_a_non_finite_weight_names_the_layer():
    network = build_model("cnn_1")
    params = NetworkParams(network, 0)
    name = network.compute_instances[1].name
    params[name].weights.flat[5] = np.nan
    with pytest.raises(EngineError, match=f"layer {name!r}: channel 0 holds a non-finite"):
        program(network, SimContext(), params=params)


def test_split_combine_roundtrip_unsigned():
    values = RNG.integers(0, 256, size=(32, 32))
    msb, lsb = split_msb_lsb(values, bits=8, low_bits=4)
    assert np.all((lsb >= 0) & (lsb < 16))
    assert np.all((msb >= 0) & (msb < 16))
    np.testing.assert_array_equal(combine_msb_lsb(msb, lsb, 4), values)


def test_split_combine_roundtrip_signed():
    values = RNG.integers(-128, 128, size=(32, 32))
    msb, lsb = split_msb_lsb(values, bits=8, low_bits=4)
    assert np.all((lsb >= 0) & (lsb < 16))
    np.testing.assert_array_equal(combine_msb_lsb(msb, lsb, 4), values)


def test_split_rejects_bad_low_bits():
    values = np.arange(4)
    with pytest.raises(ValueError):
        split_msb_lsb(values, bits=8, low_bits=0)
    with pytest.raises(ValueError):
        split_msb_lsb(values, bits=8, low_bits=8)
