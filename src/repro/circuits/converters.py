"""Digital/analog interface models: DTC, TDC, DAC and ADC.

Two families of interfaces are modelled (Section II-C of the paper):

* **time-domain** — a digital code maps to a delay in multiples of the unit
  delay ``T_del`` (DTC) and back (TDC).  TIMELY uses 8-bit DTCs/TDCs with
  ``T_del = 50 ps`` (conversion time 25 ns including margin), based on the
  silicon-verified designs the paper cites.
* **voltage-domain** — a digital code maps to a voltage (DAC) and back (ADC).
  PRIME and ISAAC use these; their per-conversion energy is roughly
  ``q1 = 50x`` (DAC vs DTC) and ``q2 = 20x`` (ADC vs TDC) higher.

The behavioural conversion methods are exact except for quantisation and the
optional Gaussian jitter/noise supplied through a
:class:`repro.circuits.noise.HardwareNoiseConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.circuits.noise import HardwareNoiseConfig

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class DTC:
    """Digital-to-time converter.

    A code ``d`` in ``[0, 2^resolution - 1]`` becomes a delay ``d * t_del_s``.
    """

    resolution: int = 8
    t_del_s: float = 50e-12
    energy_fj: float = 37.5
    area_um2: float = 240.0
    latency_ns: float = 25.0

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.t_del_s <= 0:
            raise ValueError("unit delay must be positive")

    @property
    def levels(self) -> int:
        return 2 ** self.resolution

    @property
    def full_scale_s(self) -> float:
        """Largest generated delay, ``(levels - 1) * T_del`` (255 x T_del for 8 bits).

        The largest representable code is ``levels - 1``, so the delay range
        tops out one unit delay below ``levels * T_del``; jittered delays are
        clipped to this ceiling in :meth:`convert`.
        """
        return (self.levels - 1) * self.t_del_s

    def convert(self, code: ArrayLike, noise: Optional[HardwareNoiseConfig] = None) -> ArrayLike:
        """Convert digital code(s) to delay(s) in seconds.

        ``code`` is only read: the delays are one fresh float array, scaled,
        jittered and clipped in place.
        """
        # np.array copies, and keeps a scalar code a (0-d) array, which the
        # in-place operations below need
        delays = np.array(code, dtype=float)
        np.clip(delays, 0, self.levels - 1, out=delays)
        delays *= self.t_del_s
        if noise is not None and noise.dtc_sigma > 0:
            delays += noise.sample(noise.dtc_sigma * self.t_del_s, delays.shape)
            np.clip(delays, 0.0, self.full_scale_s, out=delays)
        if np.isscalar(code):
            return float(delays)
        return delays


@dataclass(frozen=True)
class TDC:
    """Time-to-digital converter: quantises a delay back to a code."""

    resolution: int = 8
    t_del_s: float = 50e-12
    energy_fj: float = 145.0
    area_um2: float = 310.0
    latency_ns: float = 25.0

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.t_del_s <= 0:
            raise ValueError("unit delay must be positive")

    @property
    def levels(self) -> int:
        return 2 ** self.resolution

    @property
    def full_scale_s(self) -> float:
        """Largest representable delay, ``(levels - 1) * T_del`` (code ``levels - 1``)."""
        return (self.levels - 1) * self.t_del_s

    def convert(self, delay_s: ArrayLike, noise: Optional[HardwareNoiseConfig] = None) -> ArrayLike:
        """Convert delay(s) in seconds to digital code(s)."""
        delays = np.asarray(delay_s, dtype=float)
        if noise is not None and noise.tdc_sigma > 0:
            delays = delays + noise.sample(noise.tdc_sigma * self.t_del_s, np.shape(delays))
        codes = np.clip(np.round(delays / self.t_del_s), 0, self.levels - 1).astype(np.int64)
        if np.isscalar(delay_s):
            return int(codes)
        return codes


@dataclass(frozen=True)
class DAC:
    """Voltage-domain digital-to-analog converter (used by PRIME/ISAAC models)."""

    resolution: int = 8
    v_ref: float = 1.2
    energy_fj: float = 1875.0
    area_um2: float = 600.0
    latency_ns: float = 1.0

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.v_ref <= 0:
            raise ValueError("reference voltage must be positive")

    @property
    def levels(self) -> int:
        return 2 ** self.resolution

    def convert(self, code: ArrayLike) -> ArrayLike:
        """Convert digital code(s) to voltage(s)."""
        codes = np.clip(np.asarray(code), 0, self.levels - 1)
        voltages = codes / (self.levels - 1) * self.v_ref
        if np.isscalar(code):
            return float(voltages)
        return voltages


@dataclass(frozen=True)
class ADC:
    """Voltage-domain analog-to-digital converter (used by PRIME/ISAAC models)."""

    resolution: int = 8
    v_ref: float = 1.2
    energy_fj: float = 2900.0
    area_um2: float = 1200.0
    latency_ns: float = 1.0

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.v_ref <= 0:
            raise ValueError("reference voltage must be positive")

    @property
    def levels(self) -> int:
        return 2 ** self.resolution

    def convert(self, voltage: ArrayLike) -> ArrayLike:
        """Convert voltage(s) to digital code(s)."""
        voltages = np.clip(np.asarray(voltage, dtype=float), 0.0, self.v_ref)
        codes = np.clip(
            np.round(voltages / self.v_ref * (self.levels - 1)), 0, self.levels - 1
        ).astype(np.int64)
        if np.isscalar(voltage):
            return int(codes)
        return codes

