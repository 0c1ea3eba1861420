"""Whole-tensor linear quantisers: the test suite's quantisation oracle.

Per-tensor symmetric and unsigned quantisation with one scale for the whole
tensor, its RMS error, and the inverse of
:func:`repro.nn.quantization.split_msb_lsb`.  The engine quantises
activations per image and weights per output channel; the tests check the
batched activation quantiser against per-image calls of
:func:`quantize_unsigned`, and the MSB/LSB split against
:func:`combine_msb_lsb`.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor together with the scale used to produce it."""

    values: np.ndarray
    scale: float
    bits: int
    signed: bool

    def dequantize(self) -> np.ndarray:
        """Recover a floating-point approximation of the original tensor."""
        return self.values.astype(np.float64) * self.scale

    @property
    def levels(self) -> int:
        return 2 ** self.bits


def quantize_symmetric(x: np.ndarray, bits: int) -> QuantizedTensor:
    """Symmetric signed quantisation to ``bits`` bits (weights)."""
    if bits < 2:
        raise ValueError("symmetric quantisation needs at least 2 bits")
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    qmax = 2 ** (bits - 1) - 1
    scale = max_abs / qmax if max_abs > 0 else 1.0
    values = np.clip(np.round(x / scale), -qmax, qmax).astype(np.int64)
    return QuantizedTensor(values=values, scale=scale, bits=bits, signed=True)


def quantize_unsigned(x: np.ndarray, bits: int) -> QuantizedTensor:
    """Unsigned quantisation to ``bits`` bits (post-ReLU activations)."""
    if bits < 1:
        raise ValueError("unsigned quantisation needs at least 1 bit")
    if np.any(x < 0):
        raise ValueError("unsigned quantisation requires non-negative inputs")
    max_val = float(np.max(x)) if x.size else 0.0
    qmax = 2 ** bits - 1
    scale = max_val / qmax if max_val > 0 else 1.0
    values = np.clip(np.round(x / scale), 0, qmax).astype(np.int64)
    return QuantizedTensor(values=values, scale=scale, bits=bits, signed=False)


def quantization_error(x: np.ndarray, bits: int, signed: bool = True) -> float:
    """Root-mean-square quantisation error (used in noise-budget tests)."""
    quant = quantize_symmetric(x, bits) if signed else quantize_unsigned(x, bits)
    return float(np.sqrt(np.mean((quant.dequantize() - x) ** 2)))


def combine_msb_lsb(msb: np.ndarray, lsb: np.ndarray, low_bits: int) -> np.ndarray:
    """Inverse of :func:`split_msb_lsb`."""
    return msb * (2 ** low_bits) + lsb
