"""Linear quantisation as the engine and the circuit models use it.

TIMELY uses 8-bit inputs/outputs with 8-bit weights (split 4+4 over two
crossbar columns) when compared against PRIME, and a 16-bit configuration when
compared against ISAAC.  Three helpers implement that: per-image unsigned
quantisation of a batch of post-ReLU activations
(:func:`quantize_unsigned_batch`), symmetric per-output-channel weight
quantisation (:func:`quantize_symmetric_per_channel`, through the kernel
dispatcher) and the MSB/LSB weight split of the sub-ranging read-out
(:func:`split_msb_lsb`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.kernels.dispatch import quantize_channels


def quantize_unsigned_batch(x: np.ndarray, bits: int) -> tuple:
    """Per-image unsigned quantisation of a batched ``(N, ...)`` tensor.

    Each leading-axis slice gets its own scale (``max / qmax``, 1.0 for an
    all-zero image), exactly as if each image were quantised alone — so a
    batched engine run produces the same codes as ``N`` independent
    single-image runs while the downstream matmuls amortise over the whole
    batch.
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


def quantize_symmetric_per_channel(x: np.ndarray, bits: int) -> ChannelQuantizedTensor:
    """Symmetric signed quantisation with one scale per leading-axis slice.

    The values come back in ``x``'s shape, in the narrowest signed integer
    dtype that holds ``±(2**(bits-1) - 1)`` (int8 up to 8-bit weights).
    The work is :func:`repro.kernels.dispatch.quantize_channels` on the
    ``(channels, elements)`` view, compiled when the C tier is available;
    a NaN or inf weight raises :class:`ValueError`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ValueError("per-channel quantisation needs at least one axis")
    values, scales = quantize_channels(
        x.reshape(x.shape[0], math.prod(x.shape[1:])), bits
    )
    return ChannelQuantizedTensor(
        values=values.reshape(x.shape), scales=scales, bits=bits
    )


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
