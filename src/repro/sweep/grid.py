"""Monte-Carlo sweep grids: trial specifications and their content keys.

A sweep is the cartesian product of (model x cell-bits x compute dtype x
stuck fraction x noise scale x trial index) over one architecture/seed
configuration — the
"accuracy vs. analog error" characterisation of Section V.  Each point is a
:class:`TrialSpec`: a small frozen dataclass of primitives that

* pickles across the :class:`~repro.sweep.pool` process boundary,
* builds its own :class:`repro.context.SimContext` (weights/input fixed by
  ``seed``, noise decorrelated per trial via
  :meth:`repro.context.SimContext.for_trial`), and
* hashes to a stable **content key** so the result store can skip trials
  that a previous — possibly interrupted — invocation already computed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import List, Tuple

from repro.context import COMPUTE_DTYPES, NUMERICS_VERSION, ArchSpec, SimContext

#: engine read-out modes a sweep may run (mirrors repro.engine.packed.MODES
#: without importing the engine at grid-definition time)
SWEEP_MODES = ("analog", "ideal")

#: the tuple-valued grid axes of :class:`SweepGrid` (trials aside)
_AXES = ("models", "noise_scales", "cell_bits", "compute_dtypes", "stuck_fractions")


@dataclass(frozen=True)
class TrialSpec:
    """One grid point: everything a worker needs to run the trial.

    All fields are primitives, so the spec pickles cheaply and its canonical
    JSON form defines the content key.  ``trial`` only decorrelates the noise
    draws — weights and the input image are fixed by ``seed`` across trials,
    which is the paper's Monte-Carlo setup (one trained network, many noise
    realisations) and what makes per-trial errors comparable across noise
    scales.
    """

    model: str
    noise_scale: float
    trial: int
    cell_bits: int = 4
    seed: int = 0
    mode: str = "analog"
    rows: int = 256
    cols: int = 256
    weight_bits: int = 8
    input_bits: int = 8
    #: packed-engine arithmetic precision — a float32 campaign can run
    #: against a float64 reference campaign without the two ever sharing a
    #: trial key (the field is part of the canonical JSON ``key``), while
    #: both wire the one programmed state of their group
    compute_dtype: str = "float64"
    #: total stuck-cell fraction injected by :mod:`repro.faults` (split
    #: evenly between stuck-at-G_on and stuck-at-G_off); ``0`` = a
    #: defect-free chip.  Each trial samples an independent, seed-stable
    #: chip realisation, mirroring the noise decorrelation.
    stuck_fraction: float = 0.0

    @property
    def key(self) -> str:
        """Stable content key of this trial (prefix of the SHA-256 of the
        spec and the engine's :data:`repro.context.NUMERICS_VERSION`)."""
        canonical = json.dumps(
            {**asdict(self), "numerics": NUMERICS_VERSION}, sort_keys=True
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def context(self) -> SimContext:
        """The simulation context of this trial.

        The noise model carries the Section-V sigma ratios scaled by
        ``noise_scale`` (``0`` = ideal hardware) and a per-trial seed derived
        from ``(seed, "trial", trial)`` — identical across noise scales, so a
        trial's error grows monotonically with the scale draw-for-draw.
        """
        from repro.circuits.noise import HardwareNoiseConfig

        arch = ArchSpec(
            rows=self.rows,
            cols=self.cols,
            cell_bits=self.cell_bits,
            weight_bits=self.weight_bits,
            input_bits=self.input_bits,
        )
        noise = (
            HardwareNoiseConfig.scaled(self.noise_scale, seed=self.seed)
            if self.noise_scale > 0
            else None
        )
        faults = None
        if self.stuck_fraction > 0:
            from repro.faults import FaultModel

            faults = FaultModel(
                stuck_on_fraction=self.stuck_fraction / 2,
                stuck_off_fraction=self.stuck_fraction / 2,
                seed=self.seed,
            )
        ctx = SimContext(
            arch=arch,
            noise=noise,
            seed=self.seed,
            compute_dtype=self.compute_dtype,
            faults=faults,
        )
        return ctx.for_trial(self.trial)

    def as_row(self) -> dict:
        """The spec's fields as a flat JSON-ready dict (key and numerics
        version included)."""
        return {"key": self.key, "numerics": NUMERICS_VERSION, **asdict(self)}


@dataclass(frozen=True)
class SweepGrid:
    """The full cartesian sweep over models, noise scales, cells, dtypes and
    stuck fractions."""

    models: Tuple[str, ...] = ("cnn_1",)
    noise_scales: Tuple[float, ...] = (0.0, 0.5, 1.0)
    trials: int = 8
    cell_bits: Tuple[int, ...] = (4,)
    seed: int = 0
    mode: str = "analog"
    rows: int = 256
    cols: int = 256
    weight_bits: int = 8
    input_bits: int = 8
    compute_dtypes: Tuple[str, ...] = ("float64",)
    stuck_fractions: Tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        # normalise away repeated grid values (e.g. `--noise-grid 0,0.5,0.5`)
        # before validation: duplicates would inflate trial counts and write
        # duplicate rows under one content key, which resume logic assumes
        # cannot happen
        for name in _AXES:
            values = tuple(dict.fromkeys(getattr(self, name)))
            object.__setattr__(self, name, values)
        if not self.models:
            raise ValueError("a sweep needs at least one model")
        if not self.noise_scales:
            raise ValueError("a sweep needs at least one noise scale")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        # NaN passes a bare `< 0` check and would serialise as invalid JSON
        if any(not math.isfinite(scale) or scale < 0 for scale in self.noise_scales):
            raise ValueError("noise scales must be finite and non-negative")
        if not self.cell_bits or any(bits <= 0 for bits in self.cell_bits):
            raise ValueError("cell_bits entries must be positive")
        # every trial builds these (TrialSpec.context, the pool's group
        # key): reject a bad geometry here, before any trial runs
        for bits in self.cell_bits:
            ArchSpec(
                rows=self.rows,
                cols=self.cols,
                cell_bits=bits,
                weight_bits=self.weight_bits,
                input_bits=self.input_bits,
            )
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from: {SWEEP_MODES}")
        bad_dtypes = [d for d in self.compute_dtypes if d not in COMPUTE_DTYPES]
        if bad_dtypes or not self.compute_dtypes:
            raise ValueError(
                f"unknown compute dtypes {bad_dtypes}; choose from: {COMPUTE_DTYPES}"
            )
        if not self.stuck_fractions or any(
            not math.isfinite(f) or not (0.0 <= f <= 1.0) for f in self.stuck_fractions
        ):
            raise ValueError("stuck fractions must lie in [0, 1]")

    def specs(self) -> List[TrialSpec]:
        """Every trial of the grid in deterministic (canonical) order."""
        return [
            TrialSpec(
                model=model,
                noise_scale=scale,
                trial=trial,
                cell_bits=bits,
                seed=self.seed,
                mode=self.mode,
                rows=self.rows,
                cols=self.cols,
                weight_bits=self.weight_bits,
                input_bits=self.input_bits,
                compute_dtype=dtype,
                stuck_fraction=stuck,
            )
            for model, bits, dtype, stuck, scale, trial in itertools.product(
                self.models,
                self.cell_bits,
                self.compute_dtypes,
                self.stuck_fractions,
                self.noise_scales,
                range(self.trials),
            )
        ]

    def __len__(self) -> int:
        return math.prod(len(getattr(self, name)) for name in _AXES) * self.trials

    def to_dict(self) -> dict:
        """JSON-serialisable description (lists instead of tuples)."""
        doc = asdict(self)
        for name in _AXES:
            doc[name] = list(doc[name])
        return doc
