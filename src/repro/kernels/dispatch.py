"""Runtime kernel dispatch: one entry point per hot loop, tiered backends.

The engine's hot loops — the fused time-domain read-out chain, the
im2col gather and the per-channel weight quantiser — are reachable only
through this module.  An ordered registry of
implementation tiers backs each entry point:

``c``
    Hand-written C (``readout.c``) compiled on first use with the system C
    compiler and loaded through :mod:`ctypes`.  Bit-for-bit identical to
    the numpy tier; built lazily into a content-hash-keyed cache, or ahead
    of time via ``python -m repro.kernels.build``.
``numpy``
    The pure-numpy reference in :mod:`repro.kernels.numpy_impl`.  Always
    available; the bit-for-bit reference every other tier is tested
    against.

Selection: the first available tier in ``KERNEL_TIERS`` order, overridden
by (highest precedence first) an explicit ``kernel=`` argument, then the
``REPRO_KERNEL`` environment variable (which pool workers inherit).  A
requested tier that is unavailable (no compiler) degrades to the next tier
with a one-time warning — kernels never make an environment fail.

The kernel tier is performance metadata, not simulation semantics: float64
results are bit-identical across tiers, so the tier name deliberately
stays out of every content key (see ``engine/state.py``).

Implementation modules (``numpy_impl``, ``c_impl``) must never be imported directly by engine code — the ``kernel-dispatch``
rule in ``repro.analysis`` enforces that only this module reaches them,
which is what keeps the fallback contract honest.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.kernels import numpy_impl

#: preference order of the implementation tiers
KERNEL_TIERS: Tuple[str, ...] = ("c", "numpy")
#: valid values for ``kernel=`` / REPRO_KERNEL
KERNEL_CHOICES: Tuple[str, ...] = ("auto",) + KERNEL_TIERS
#: environment variable overriding the default tier
ENV_VAR = "REPRO_KERNEL"


class KernelError(ValueError):
    """An unknown kernel tier was requested."""


@dataclass(frozen=True)
class ReadoutScalars:
    """The scalar constants of one time-domain read-out chain.

    A frozen, hashable bundle of exactly the quantities
    ``TimeDomainChainSpec.read_out`` used to read off ``self`` — factored
    out so implementations in any language receive one flat argument pack.
    ``offset_coeff`` is the precomputed ``v_dd * g_min_s`` product and
    ``phase2_scale`` the precomputed ``capacitance_f / phase2_current_a``
    ratio; both are single IEEE-754 doubles, so precomputation cannot
    change any result bit.  ``level_coeff`` (``v_dd * t_del_s *
    g_step_s``) turns an integer level product into its net charge.
    """

    offset_coeff: float
    capacitance_f: float
    v_threshold: float
    phase2_scale: float
    full_scale_s: float
    lsb_s: float
    dot_max: float
    level_coeff: float


_lock = threading.Lock()
_modules: Dict[str, Optional[ModuleType]] = {"numpy": numpy_impl}
_unavailable: Dict[str, str] = {}
_warned: Set[str] = set()


def _probe(name: str) -> Optional[ModuleType]:
    """Import (and for ``c``, build) a tier; cache the module or the failure."""
    if name in _modules:
        return _modules[name]
    if name in _unavailable:
        return None
    with _lock:
        if name in _modules:
            return _modules[name]
        if name in _unavailable:
            return None
        try:
            if name == "c":
                from repro.kernels import c_impl as module

                module.load()  # compiles on first ever use, then cached
            else:  # pragma: no cover - registry and tiers kept in sync
                raise KernelError(f"unknown kernel tier {name!r}")
        except KernelError:
            raise
        except Exception as exc:  # a missing compiler must never fail
            _unavailable[name] = f"{type(exc).__name__}: {exc}"
            return None
        _modules[name] = module
        return module


def available() -> Tuple[str, ...]:
    """The tiers usable right now, in preference order (probes all)."""
    return tuple(name for name in KERNEL_TIERS if _probe(name) is not None)


def unavailable_reasons() -> Dict[str, str]:
    """Why each unusable tier failed to load (after :func:`available`)."""
    return dict(_unavailable)


def reset() -> None:
    """Forget probe results and warnings (tests re-point REPRO_KERNEL)."""
    with _lock:
        _modules.clear()
        _modules["numpy"] = numpy_impl
        _unavailable.clear()
        _warned.clear()


def resolve(kernel: Optional[str] = None) -> Tuple[str, ModuleType]:
    """The ``(tier name, implementation module)`` serving a request.

    ``kernel`` is an explicit tier request; ``None`` or ``"auto"`` defers
    to ``REPRO_KERNEL`` and then to the registry order.  Unknown names
    raise :class:`KernelError`; known-but-unavailable tiers fall through
    to the next tier with a one-time warning, so a numpy-only environment
    always works.
    """
    if kernel is None or kernel == "auto":
        kernel = os.environ.get(ENV_VAR) or "auto"
    if kernel not in KERNEL_CHOICES:
        raise KernelError(
            f"unknown kernel tier {kernel!r}; choose from: {', '.join(KERNEL_CHOICES)}"
        )
    start = 0 if kernel == "auto" else KERNEL_TIERS.index(kernel)
    for name in KERNEL_TIERS[start:]:
        module = _probe(name)
        if module is not None:
            if kernel not in ("auto", name) and kernel not in _warned:
                _warned.add(kernel)
                warnings.warn(
                    f"kernel tier {kernel!r} is unavailable "
                    f"({_unavailable.get(kernel, 'unknown reason')}); "
                    f"falling back to {name!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return name, module
    raise AssertionError("the numpy tier can never be unavailable")


def default_kernel() -> str:
    """The tier name a ``kernel=None`` call resolves to right now."""
    return resolve(None)[0]


def readout_fused(
    charges: np.ndarray,
    delay_sums: Optional[np.ndarray],
    scalars: ReadoutScalars,
    out: Optional[np.ndarray] = None,
    saturation: Optional[float] = None,
    shifts: Optional[np.ndarray] = None,
    recombine_out: Optional[np.ndarray] = None,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Fused phase-I/II read-out of raw column charges (plus recombination).

    The elementwise chain — G_min reference-column subtraction, zero clip,
    phase-I capacitor voltage, phase-II threshold-crossing time, LSB
    rescale — applied to ``charges`` against broadcastable ``delay_sums``,
    in place when ``out`` aliases ``charges``.  ``saturation`` adds the
    optional early-TDC clip (a fraction of ``scalars.dot_max``).  When
    ``shifts`` (and ``recombine_out``) are given, ``charges`` must be the
    packed ``(tiles, slices, groups, positions, cols)`` stack and the
    power-of-two slice cascade is recombined into ``recombine_out`` in the
    same pass.  Returns the chain result (the estimates, not the
    recombination).

    ``delay_sums=None`` selects the exact-level chain: ``charges`` then
    holds exact integer level products ``P`` (float32 or float64), the net
    charge is ``scalars.level_coeff * P`` — on an unperturbed level grid
    the G_min reference column cancels exactly, so there is nothing to
    subtract — and the chain and recombination run in float64.
    """
    return resolve(kernel)[1].readout_fused(
        charges,
        delay_sums,
        scalars,
        out=out,
        saturation=saturation,
        shifts=shifts,
        recombine_out=recombine_out,
    )


def im2col_pack(
    x: np.ndarray,
    kernel_size: int,
    stride: int = 1,
    pad: int = 0,
    dtype: Optional[np.dtype] = None,
    kernel: Optional[str] = None,
) -> Tuple[np.ndarray, int, int]:
    """Batched im2col of ``(N, C, H, W)`` (any strides) into the GEMM operand.

    Returns ``(cols, out_h, out_w)`` with ``cols`` the C-contiguous
    ``(N * out_h * out_w, C * kernel_size**2)`` matrix of ``dtype``
    (default ``x.dtype``), columns in ``(c, ki, kj)`` order.
    """
    return resolve(kernel)[1].im2col_pack(
        x, kernel_size, stride=stride, pad=pad, dtype=dtype
    )


def quantize_channels(
    channels: np.ndarray, bits: int, kernel: Optional[str] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric ``bits``-bit quantisation of each row of a 2-D float64 matrix.

    Returns ``(values, scales)``: ``values`` the ``(n, width)`` integer
    codes ``clip(rint(x / scale), -qmax, qmax)`` in the narrowest signed
    dtype holding ``qmax = 2**(bits-1) - 1`` (int8 up to 8 bits), and
    ``scales`` the ``(n,)`` float64 ``max |x| / qmax`` of each row (1.0
    where that is not positive).  A row holding NaN or inf raises
    :class:`ValueError`.
    """
    if bits < 2:
        raise ValueError("symmetric quantisation needs at least 2 bits")
    return resolve(kernel)[1].quantize_channels(channels, bits)
