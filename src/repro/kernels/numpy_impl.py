"""Pure-numpy kernel tier: the bit-for-bit reference implementation.

The read-out chain here is the code that used to live inline in
:meth:`repro.circuits.timing.TimeDomainChainSpec.read_out` and
:meth:`repro.engine.packed.PackedMatmul._analog_products`, extracted
verbatim; the level variant and the im2col gather define their compiled
counterparts.  The compiled ``c`` tier is
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
