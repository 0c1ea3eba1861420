"""Noise, variation and error-budget models.

Section V of the paper discusses the accuracy implications of TIMELY's analog
data movement: every X-subBuf adds a small timing error ``eps``; ``n`` cascaded
X-subBufs accumulate an error of ``sqrt(n) * eps`` (random-walk accumulation,
citing the Vernier delay-line analysis of [20]); the design budgets a 40 ps
margin per 50 ps unit delay and limits the cascade depth to 12 so that
``sqrt(12) * eps`` stays inside the margin.

The models here are deliberately simple — zero-mean Gaussians with configurable
standard deviation — because that is exactly the error model the paper's own
system-level simulation uses ("the errors follow Gaussian noise distribution").

Seeding is **stateless per salt**: a *salted* draw is produced by a
generator derived on the spot from ``(seed, salt)``, so two consumers of
the same config can never perturb each other's draws — results are
independent of how many other executors, crossbars or chains were
constructed first, which is what makes parallel and resumable Monte-Carlo
sweeps reproducible.  Call sites that need a *sequence* of decorrelated
draws (a tile programming pass, the per-call read-out jitter of one chain)
take a :class:`NoiseStream` scoped by a salt identifying the use site; the
stream's generator is itself derived from ``(seed, salt)``, so equal salts
replay equal sequences.  The functional engine uses scoped streams
exclusively.  *Unsalted* draws — the circuit blocks' legacy
``noise.sample(sigma, shape)`` path when handed a bare config — consume a
per-config fallback stream (itself derived from the seed), so successive
hops/slices/calls stay decorrelated as the Gaussian error model requires;
that fallback never backs any engine draw.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Literal, Optional, Tuple, Union

import numpy as np

#: a salt part: plain ints and strings are both accepted and hashed stably
SaltPart = Union[int, str]

#: an array shape accepted by :meth:`HardwareNoiseConfig.sample` — an int, a
#: full shape tuple, or ``None`` for a scalar draw
ShapeArg = Optional[Union[int, Tuple[int, ...]]]

_MASK64 = (1 << 64) - 1


def _entropy(part: SaltPart) -> int:
    """One salt part as a non-negative integer, stable across processes.

    Python's builtin ``hash()`` is randomised per process for strings, so
    string parts go through SHA-256 instead — the sweep pool relies on a
    worker process deriving exactly the seed the parent would.
    """
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "little")
    raise TypeError(f"salt parts must be ints or strings, got {type(part).__name__}")


def stable_seed(*parts: SaltPart) -> int:
    """A deterministic 64-bit seed derived from ints/strings.

    Stable across processes and Python versions (no builtin ``hash()``), so
    per-trial seeds derived in a parent process match the ones a pool worker
    would derive.
    """
    sequence = np.random.SeedSequence([_entropy(part) for part in parts])
    return int(sequence.generate_state(1, np.uint64)[0])


def cascaded_buffer_error(n_buffers: int, epsilon: float) -> float:
    """Accumulated RMS error of ``n_buffers`` cascaded analog buffers.

    Independent zero-mean per-buffer errors add in quadrature, giving
    ``sqrt(n) * eps`` (Section V / [20] of the paper).
    """
    if n_buffers < 0:
        raise ValueError("n_buffers must be non-negative")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return math.sqrt(n_buffers) * epsilon


@dataclass(frozen=True)
class NoiseBudget:
    """The timing-error budget of a TIMELY sub-Chip row.

    Attributes mirror the numbers in Section V: a 50 ps unit delay, a margin of
    40 ps per unit delay, up to 12 cascaded X-subBufs, and a per-buffer error
    ``epsilon_ps``.
    """

    unit_delay_ps: float = 50.0
    margin_ps_per_unit: float = 40.0
    max_cascaded_bufs: int = 12
    epsilon_ps: float = 5.0
    input_bits: int = 8

    @property
    def total_margin_ps(self) -> float:
        """Design margin over the full input dynamic range (40 ps x 2^8)."""
        return self.margin_ps_per_unit * (2 ** self.input_bits)

    @property
    def accumulated_error_ps(self) -> float:
        """Worst-case accumulated error over the full dynamic range.

        The per-buffer error scales with the signal (one epsilon per unit
        delay step), so the Section-V design point requires
        ``sqrt(12) * eps * 2^8 <= 40 x 2^8 ps`` — the cascade error must stay
        inside the 40 ps-per-unit-delay margin, both sides scaled by the
        2^8-step dynamic range.
        """
        return cascaded_buffer_error(self.max_cascaded_bufs, self.epsilon_ps) * (
            2 ** self.input_bits
        )

    def within_margin(self) -> bool:
        """True when the accumulated error fits inside the design margin."""
        return self.accumulated_error_ps <= self.total_margin_ps


def _gaussian(rng: np.random.Generator, sigma: float, shape: ShapeArg) -> np.ndarray:
    """Zero-mean Gaussian draws of standard deviation ``sigma`` from ``rng``.

    One standard-normal fill, scaled in place.  Bit for bit what
    ``rng.normal(0.0, sigma, shape)`` returns, since that computes ``0.0 +
    sigma * z`` from the same ``z`` sequence, without its per-draw add.
    """
    draws = rng.standard_normal(size=shape)
    draws *= sigma
    return draws


def _conductance_variation(
    sampler: Callable[[float, Tuple[int, ...]], np.ndarray],
    sigma: float,
    conductances: np.ndarray,
) -> np.ndarray:
    """Shared ``G * (1 + eps)`` programming-variation kernel, clipped at zero.

    One draw per cell, filled over a flat view of the tensor in its own
    memory order (Fortran order for a Fortran-ordered tensor, C order
    otherwise), then scaled and multiplied in place in the draw buffer, so
    the multiply walks both operands sequentially.  The result is a fresh
    array in the input's shape, layout and dtype; the input is only read.
    The draws and products are float64 (so the realisation is
    bit-identical regardless of the storage precision) and cast back to
    the input's dtype at the end — a float32 conductance tensor stays
    float32 instead of silently doubling under the noise multiply.
    """
    if sigma <= 0:
        return conductances
    order: Literal["C", "F"] = "F" if np.isfortran(conductances) else "C"
    flat = conductances.reshape(-1, order=order)  # a view unless strided
    noisy = sampler(sigma, flat.shape)
    noisy += 1.0
    noisy *= flat
    np.clip(noisy, 0.0, None, out=noisy)
    return noisy.astype(conductances.dtype, copy=False).reshape(
        conductances.shape, order=order
    )


@dataclass
class HardwareNoiseConfig:
    """Standard deviations of the per-component Gaussian error models.

    All timing errors are expressed as a fraction of the DTC unit delay; all
    current/voltage errors are expressed as a fraction of the full-scale
    signal.  Setting every sigma to zero recovers the ideal behavioural model.

    The config is a plain picklable dataclass: a *salted* :meth:`sample`
    derives a fresh generator from ``(seed, salt)`` per call, so identical
    calls return identical draws and no consumer can perturb another's
    stream — use :meth:`stream` where a use site needs a sequence of
    decorrelated draws (the engine scopes one per layer/tile).  An
    *unsalted* :meth:`sample` — the circuit blocks' legacy path when given
    the bare config — draws from a lazily created fallback stream derived
    from the seed, keeping successive calls (cascade hops, MSB/LSB slices,
    repeated chain computes) decorrelated exactly as before; the fallback is
    excluded from equality and reset by :meth:`reseed`.
    """

    x_subbuf_sigma: float = 0.02
    p_subbuf_sigma: float = 0.005
    i_adder_sigma: float = 0.002
    comparator_sigma: float = 0.002
    dtc_sigma: float = 0.01
    tdc_sigma: float = 0.01
    reram_conductance_sigma: float = 0.01
    seed: Optional[int] = 0
    _fallback: Optional["NoiseStream"] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        for name in (
            "x_subbuf_sigma",
            "p_subbuf_sigma",
            "i_adder_sigma",
            "comparator_sigma",
            "dtc_sigma",
            "tdc_sigma",
            "reram_conductance_sigma",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative")
        # historical callers passed seed=None for "don't care"; stateless
        # seeding is always deterministic, so normalise to the default seed
        if self.seed is None:
            self.seed = 0

    @classmethod
    def ideal(cls) -> "HardwareNoiseConfig":
        """A configuration with all noise sources disabled."""
        return cls.scaled(0.0)

    @classmethod
    def scaled(cls, scale: float, seed: Optional[int] = 0) -> "HardwareNoiseConfig":
        """Every default sigma multiplied by ``scale`` (0 = ideal hardware).

        This is the one-knob noise model the CLI and Monte-Carlo sweeps use:
        the *ratios* between the per-component sigmas stay at their
        Section-V defaults while the overall severity scales.
        """
        if not math.isfinite(scale) or scale < 0:
            raise ValueError("noise scale must be finite and non-negative")
        base = cls(seed=seed)
        return cls(
            x_subbuf_sigma=base.x_subbuf_sigma * scale,
            p_subbuf_sigma=base.p_subbuf_sigma * scale,
            i_adder_sigma=base.i_adder_sigma * scale,
            comparator_sigma=base.comparator_sigma * scale,
            dtc_sigma=base.dtc_sigma * scale,
            tdc_sigma=base.tdc_sigma * scale,
            reram_conductance_sigma=base.reram_conductance_sigma * scale,
            seed=seed,
        )

    # -- stateless derivation --------------------------------------------------
    def derived_rng(self, *salt: SaltPart) -> np.random.Generator:
        """A fresh generator deterministically derived from ``(seed, salt)``.

        Equal ``(seed, salt)`` pairs always produce identical generators —
        independent of construction order, process boundaries, or any other
        draws taken from this config.
        """
        entropy = [_entropy(self.seed)] + [_entropy(part) for part in salt]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def stream(self, *salt: SaltPart) -> "NoiseStream":
        """A :class:`NoiseStream` scoped to ``salt`` for sequential draws."""
        return NoiseStream(self, salt)

    def reseed(self, seed: int) -> None:
        """Change the seed (used to decorrelate Monte-Carlo trials)."""
        self.seed = seed
        self._fallback = None

    def sample(
        self,
        sigma: float,
        shape: ShapeArg = None,
        salt: Union[SaltPart, Tuple[SaltPart, ...]] = (),
    ) -> np.ndarray:
        """Draw zero-mean Gaussian samples with the given sigma.

        A *salted* draw is a pure function of ``(seed, salt, shape)`` —
        identical calls return identical samples, so distinct use sites
        decorrelate by passing distinct ``salt`` values (or scoping a
        :class:`NoiseStream`).  An *unsalted* draw consumes this config's
        fallback stream instead: successive calls return successive
        (decorrelated) samples, so circuit blocks handed the bare config —
        a 12-hop X-subBuf cascade, an MSB/LSB sub-ranging pair — accumulate
        independent per-step errors rather than one repeated draw.
        ``shape`` may be any array shape, so one call can cover a whole
        packed conductance tensor or a full batch of input delays.
        """
        if sigma == 0.0:
            return np.zeros(shape) if shape is not None else np.array(0.0)
        parts = salt if isinstance(salt, tuple) else (salt,)
        if not parts:
            if self._fallback is None:
                self._fallback = self.stream("unsalted")
            return self._fallback.sample(sigma, shape)
        return _gaussian(self.derived_rng(*parts), sigma, shape)

    def apply_conductance_variation(self, conductances: np.ndarray) -> np.ndarray:
        """Multiplicative programming variation on a conductance tensor.

        One Gaussian draw of the full tensor shape, applied as
        ``G * (1 + eps)`` and clipped at zero — shared by the per-tile
        :meth:`repro.circuits.reram.ReRAMCrossbar.program` path and the
        packed per-slice tensors of :class:`repro.engine.packed.PackedMatmul`
        so a single crossbar and a packed layer model the same physics (the
        draws themselves differ because the tensor shapes do).
        """
        return _conductance_variation(
            self.sample, self.reram_conductance_sigma, conductances
        )


class NoiseStream:
    """Sequential noise draws scoped to one use site.

    A stream carries a reference to its :class:`HardwareNoiseConfig` (so the
    per-component sigmas resolve as attributes, making streams drop-in
    replacements wherever the circuit blocks accept a noise config) plus a
    private generator derived from ``(config.seed, salt)``.  Successive
    :meth:`sample` calls consume the generator — decorrelated draws within
    the scope — while two streams built with equal salts from equal configs
    replay identical sequences, independent of anything else drawn anywhere.

    The functional engine scopes one stream per programmed tile / packed
    layer, which is what makes two executors built from the same
    :class:`repro.context.SimContext` produce identical noisy outputs.
    """

    __slots__ = ("_config", "_salt", "_rng")

    def __init__(
        self, config: HardwareNoiseConfig, salt: Tuple[SaltPart, ...] = ()
    ) -> None:
        self._config = config
        self._salt = tuple(salt)
        self._rng = config.derived_rng(*self._salt)

    def __getattr__(self, name: str) -> Any:
        # sigma fields (and anything else public) resolve on the config;
        # underscore names must fail fast so unpickling cannot recurse
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._config, name)

    def __getstate__(
        self,
    ) -> Tuple[HardwareNoiseConfig, Tuple[SaltPart, ...], np.random.Generator]:
        return (self._config, self._salt, self._rng)

    def __setstate__(
        self,
        state: Tuple[HardwareNoiseConfig, Tuple[SaltPart, ...], np.random.Generator],
    ) -> None:
        self._config, self._salt, self._rng = state

    @property
    def salt(self) -> Tuple[SaltPart, ...]:
        return self._salt

    def stream(self, *salt: SaltPart) -> "NoiseStream":
        """A sub-stream scoped by extending this stream's salt."""
        return NoiseStream(self._config, self._salt + salt)

    def sample(self, sigma: float, shape: ShapeArg = None) -> np.ndarray:
        """Draw from this scope's sequence (zero sigma consumes no entropy)."""
        if sigma == 0.0:
            return np.zeros(shape) if shape is not None else np.array(0.0)
        return _gaussian(self._rng, sigma, shape)

    def apply_conductance_variation(self, conductances: np.ndarray) -> np.ndarray:
        """Scoped counterpart of
        :meth:`HardwareNoiseConfig.apply_conductance_variation`."""
        return _conductance_variation(
            self.sample, self._config.reram_conductance_sigma, conductances
        )
