"""Pure-numpy kernel tier: the bit-for-bit reference implementation.

This module is the read-out / im2col code that used to live inline in
:meth:`repro.circuits.timing.TimeDomainChainSpec.read_out` and
:meth:`repro.engine.packed.PackedMatmul._analog_products`, extracted
verbatim.  The compiled ``c`` tier is tested bit-for-bit
against these functions in float64 — when in doubt, this file defines
what "correct" means.

Always available (numpy is the repo's only hard dependency), always last
in the dispatch order, and the fallback target whenever a compiled tier
is missing or a call's shapes fall outside the compiled fast path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.nn import functional as F

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.dispatch import ReadoutScalars


def readout_fused(
    charges: np.ndarray,
    delay_sums: np.ndarray,
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
    """
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
    return net


def slice_recombine(
    shifts: np.ndarray, estimates: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Digital slice/tile recombination: ``out[g,p,c] = sum_ts shifts[s] * e``."""
    np.einsum("s,tsgpc->gpc", shifts, estimates, out=out)
    return out


def im2col_pack(
    x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0
) -> Tuple[np.ndarray, int, int]:
    """Batched im2col; delegates to the historical numpy implementation."""
    return F.im2col_batch(x, kernel, stride=stride, pad=pad)
