"""Linear quantisation helpers.

TIMELY uses 8-bit inputs/outputs with 8-bit weights (split 4+4 over two
crossbar columns) when compared against PRIME, and a 16-bit configuration when
compared against ISAAC.  The helpers here implement the straightforward
symmetric / unsigned linear quantisation the behavioural models rely on.
"""

from __future__ import annotations

import math
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


def quantize_unsigned_batch(x: np.ndarray, bits: int) -> tuple:
    """Per-image unsigned quantisation of a batched ``(N, ...)`` tensor.

    Each leading-axis slice gets its own scale, exactly as if
    :func:`quantize_unsigned` had been applied per image — so a batched
    engine run produces the same codes as ``N`` independent single-image
    runs while the downstream matmuls amortise over the whole batch.
    Returns ``(values, scales)`` with ``values`` the integer codes as
    float64 in ``x``'s shape and memory layout (exact: codes are far below
    2**53, and the float GEMM operands are gathered from them without an
    integer round trip) and ``scales`` of shape ``(N,)``.
    """
    if bits < 1:
        raise ValueError("unsigned quantisation needs at least 1 bit")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("batched quantisation needs a leading batch axis")
    qmax = 2 ** bits - 1
    if x.size:
        # reduce over the image axes in place: a reshape would copy the
        # channel-last views conv layers hand on
        image_axes = tuple(range(1, x.ndim))
        if float(x.min()) < 0:
            raise ValueError("unsigned quantisation requires non-negative inputs")
        maxes = x.max(axis=image_axes)
    else:
        maxes = np.zeros(x.shape[0])
    scales = np.where(maxes > 0, maxes / qmax, 1.0)
    shape = (-1,) + (1,) * (x.ndim - 1)
    values = x / scales.reshape(shape)
    np.rint(values, out=values)
    np.clip(values, 0, qmax, out=values)
    return values, scales


@dataclass(frozen=True)
class ChannelQuantizedTensor:
    """An integer tensor with one scale per leading-axis slice.

    Per-output-channel weight quantisation: each output channel maps onto
    its own crossbar column(s), and the column read-out is dequantised
    digitally, so every channel can use the full integer range regardless
    of the other channels' dynamic range.
    """

    values: np.ndarray
    scales: np.ndarray
    bits: int

    def dequantize(self) -> np.ndarray:
        shape = (-1,) + (1,) * (self.values.ndim - 1)
        return self.values.astype(np.float64) * self.scales.reshape(shape)

    @property
    def levels(self) -> int:
        return 2 ** self.bits


#: float64 elements per block of the per-channel quantiser (512 KB: a
#: block of channels stays in cache from its max scan to its rounding)
_QUANTIZE_BLOCK = 1 << 16


def quantize_symmetric_per_channel(x: np.ndarray, bits: int) -> ChannelQuantizedTensor:
    """Symmetric signed quantisation with one scale per leading-axis slice.

    The values come back in the narrowest signed integer dtype that holds
    ``±(2**(bits-1) - 1)`` (int8 up to 8-bit weights).  One pass over
    cache-sized blocks of channels: each block's ``max |x|`` scales, then
    ``rint(x / scale)`` and the clip in place on the block, straight into
    the integer result — no weights-sized float temporary.
    """
    if bits < 2:
        raise ValueError("symmetric quantisation needs at least 2 bits")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ValueError("per-channel quantisation needs at least one axis")
    qmax = 2 ** (bits - 1) - 1
    channels = x.reshape(x.shape[0], math.prod(x.shape[1:]))
    n, width = channels.shape
    scales = np.ones(n)
    values = np.empty(x.shape, dtype=np.min_scalar_type(-qmax))
    out = values.reshape(n, width)
    rows = max(1, _QUANTIZE_BLOCK // max(1, width))
    block = np.empty((min(rows, n), width))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        work = block[: r1 - r0]
        max_abs = np.abs(channels[r0:r1], out=work).max(axis=1, initial=0.0)
        np.divide(max_abs, qmax, out=scales[r0:r1], where=max_abs > 0)
        np.divide(channels[r0:r1], scales[r0:r1, None], out=work)
        np.rint(work, out=work)
        np.clip(work, -qmax, qmax, out=work)
        out[r0:r1] = work  # exact: integers within the dtype's range
    return ChannelQuantizedTensor(values=values, scales=scales, bits=bits)


def quantization_error(x: np.ndarray, bits: int, signed: bool = True) -> float:
    """Root-mean-square quantisation error (used in noise-budget tests)."""
    quant = quantize_symmetric(x, bits) if signed else quantize_unsigned(x, bits)
    return float(np.sqrt(np.mean((quant.dequantize() - x) ** 2)))


def split_msb_lsb(values: np.ndarray, bits: int, low_bits: int) -> tuple:
    """Split signed integer weights into MSB and LSB slices.

    TIMELY's sub-ranging design (Section IV-C) maps an 8-bit weight onto two
    adjacent 4-bit bit-cell columns.  This helper performs that split: the
    returned pair ``(msb, lsb)`` satisfies ``values = msb * 2**low_bits + lsb``
    with ``0 <= lsb < 2**low_bits``.
    """
    if low_bits <= 0 or low_bits >= bits:
        raise ValueError("low_bits must be strictly between 0 and bits")
    base = 2 ** low_bits
    lsb = np.mod(values, base)
    msb = (values - lsb) // base
    return msb, lsb


def combine_msb_lsb(msb: np.ndarray, lsb: np.ndarray, low_bits: int) -> np.ndarray:
    """Inverse of :func:`split_msb_lsb`."""
    return msb * (2 ** low_bits) + lsb
