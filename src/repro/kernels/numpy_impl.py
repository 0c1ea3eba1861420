"""Pure-numpy kernel tier: the bit-for-bit reference implementation.

The read-out chain here is the code that used to live inline in
:meth:`repro.circuits.timing.TimeDomainChainSpec.read_out` and
:meth:`repro.engine.packed.PackedMatmul._analog_products`, and the
per-channel quantiser the loop that used to live in
:func:`repro.nn.quantization.quantize_symmetric_per_channel`, both
extracted verbatim; the level variant and the im2col gather define their
compiled counterparts.  The compiled ``c`` tier is
tested bit-for-bit against these functions in float64 — when in doubt,
this file defines what "correct" means.

Always available (numpy is the repo's only hard dependency), always last
in the dispatch order, and the fallback target whenever a compiled tier
is missing or a call's shapes fall outside the compiled fast path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.dispatch import ReadoutScalars


def readout_fused(
    charges: np.ndarray,
    delay_sums: Optional[np.ndarray],
    scalars: "ReadoutScalars",
    out: Optional[np.ndarray] = None,
    saturation: Optional[float] = None,
    shifts: Optional[np.ndarray] = None,
    recombine_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The two-phase read-out chain, optionally fused with recombination.

    The chain body is the historical ``TimeDomainChainSpec.read_out``
    sequence, op for op (``scalars`` carries the same constants the spec
    used to read off ``self``); ``saturation`` is the optional early-TDC
    clip (a fraction of ``scalars.dot_max``) and ``shifts`` /
    ``recombine_out`` the optional slice-cascade einsum — both exactly as
    ``PackedMatmul._analog_products`` applied them after the chain.

    With ``delay_sums=None`` the chain starts from exact integer level
    products instead: the net charge is ``scalars.level_coeff * charges``
    and every later step runs in float64, whatever the products' dtype;
    the estimates come back narrowed to that dtype.
    """
    if delay_sums is None:
        net = np.multiply(charges, scalars.level_coeff, dtype=np.float64)
    else:
        offset = scalars.offset_coeff * delay_sums
        net = np.subtract(charges, offset, out=out)
    np.clip(net, 0.0, None, out=net)
    net /= scalars.capacitance_f  # phase-I capacitor voltage
    np.subtract(scalars.v_threshold, net, out=net)
    np.clip(net, 0.0, None, out=net)
    net *= scalars.phase2_scale  # phase-II time
    np.subtract(scalars.full_scale_s, net, out=net)
    net /= scalars.lsb_s
    if saturation is not None:
        # early TDC clipping: per-slice estimates above the saturation
        # point resolve to the saturation code itself
        np.minimum(net, net.dtype.type(saturation * scalars.dot_max), out=net)
    if shifts is not None:
        # recombine: sum over row tiles (t), slice cascade weights over s
        np.einsum("s,tsgpc->gpc", shifts, net, out=recombine_out)
    if delay_sums is None:
        if out is None:
            return net.astype(charges.dtype, copy=False)
        np.copyto(out, net, casting="same_kind")
        return out
    return net


def im2col_pack(
    x: np.ndarray,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    dtype: Optional[np.dtype] = None,
) -> Tuple[np.ndarray, int, int]:
    """Batched im2col straight into the GEMM operand.

    Unfolds ``(N, C, H, W)`` (any strides) into a C-contiguous
    ``(N * out_h * out_w, C * kernel * kernel)`` matrix of ``dtype``
    (default ``x.dtype``), one row per output position, columns in
    ``(c, ki, kj)`` order — one strided copy from the padded windows.
    """
    n, channels, height, width = x.shape
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel/stride/pad combination produces empty output")
    padded = (
        np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
        if pad
        else x
    )
    windows = sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, out_h, out_w, k, k)
    cols = np.empty(
        (n, out_h, out_w, channels, kernel, kernel),
        dtype=x.dtype if dtype is None else dtype,
    )
    np.copyto(cols, windows.transpose(0, 2, 3, 1, 4, 5), casting="same_kind")
    return cols.reshape(n * out_h * out_w, channels * kernel * kernel), out_h, out_w


#: float64 elements per block of the per-channel quantiser (512 KB: a
#: block of channels stays in cache from its max scan to its rounding)
_QUANTIZE_BLOCK = 1 << 16


def non_finite_message(channel: int) -> str:
    """The error every tier raises for a channel holding NaN or inf."""
    return f"channel {channel} holds a non-finite weight (NaN or inf)"


def quantize_channels(channels: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-channel quantisation of a 2-D ``(n, width)`` matrix.

    One pass over cache-sized blocks of channels: each block's ``max |x|``
    gives its scales (``max / qmax``, 1.0 where that is not positive), then
    ``rint(x / scale)`` and the clip to ``±qmax`` run in place on the
    block, straight into the integer result — no weights-sized float
    temporary.  Values come back in ``np.min_scalar_type(-qmax)``; a NaN
    or inf raises :class:`ValueError` naming the first such channel.
    """
    qmax = 2 ** (bits - 1) - 1
    n, width = channels.shape
    scales = np.empty(n)
    values = np.empty((n, width), dtype=np.min_scalar_type(-qmax))
    rows = max(1, _QUANTIZE_BLOCK // max(1, width))
    block = np.empty((min(rows, n), width))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        work = block[: r1 - r0]
        max_abs = np.abs(channels[r0:r1], out=work).max(axis=1, initial=0.0)
        finite = np.isfinite(max_abs)
        if not finite.all():
            raise ValueError(non_finite_message(r0 + int(np.argmin(finite))))
        scale = np.divide(max_abs, qmax, out=scales[r0:r1])
        scale[scale <= 0.0] = 1.0
        np.divide(channels[r0:r1], scale[:, None], out=work)
        np.rint(work, out=work)
        np.clip(work, -qmax, qmax, out=work)
        values[r0:r1] = work  # exact: integers within the dtype's range
    return values, scales
