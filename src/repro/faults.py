"""Seed-stable ReRAM fault injection: stuck cells, drift, read-out saturation.

The noise models of :mod:`repro.circuits.noise` cover *parametric* analog
error — zero-mean Gaussian variation on conductances, delays and read-out.
Real ReRAM arrays additionally suffer *hard* non-idealities, and this module
models the three the device literature keeps measuring:

* **stuck-at cells** — a fraction of cells is pinned at ``G_on`` (the
  maximum conductance, a cell that formed permanently) or ``G_off`` (the
  minimum, a cell that never forms), independent of what was programmed,
* **conductance drift** — programmed levels decay toward the off state over
  time; modelled multiplicatively as
  ``G(t) = G_min + (G(0) - G_min) * (1 + t/t0) ** (-nu)`` (a power law in
  normalised time, the standard retention fit),
* **read-out saturation** — the phase-II TDC chain clips early: dot-product
  estimates above ``saturation * dot_max`` saturate instead of resolving
  (``saturation = 1`` is the chain's own physical ceiling, i.e. a no-op).

Like every noise draw in this codebase, fault masks are **stateless per
salt**: the mask of one tile derives from ``(seed, salt)`` via
:func:`repro.circuits.noise.stable_seed`, so masks are bit-reproducible
across processes, worker counts and resident-vs-streamed execution — the
property the Monte-Carlo sweep's byte-identical stores rest on.  The
underlying uniform field is drawn *once per tile* and compared against the
stuck fractions, so masks at different severities from the same seed are
**nested** (every cell stuck at 3% is also stuck at 5%) — severity sweeps
are comparable draw-for-draw, exactly like the noise-scale sweeps.

Faults are applied at executor **wiring** time (on per-executor copies of
the conductance tensors, after programming variation), never at programming
time — a :class:`repro.engine.state.ProgrammedState` therefore stays
fault-free and one cached artifact serves every fault realisation of a
sweep, mirroring how the noise model composes with the state cache.

Graceful degradation: when a tile's stuck-cell fraction exceeds
``remap_threshold`` and the architecture provisions spare rows
(``ArchSpec.spare_rows``), the worst rows — most stuck cells first — are
remapped onto spares: their cells revert to the drifted-but-unpinned values
(a spare row is programmed through the same variation and drifts like any
other row; it just does not carry the stuck defects).  The executor reports
per-layer stuck/remap counts on its
:class:`~repro.engine.executor.ExecutionResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.noise import SaltPart, stable_seed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.circuits.reram import ReRAMCellSpec


@dataclass(frozen=True)
class FaultModel:
    """Hard-fault description of one chip realisation.

    ``stuck_on_fraction`` / ``stuck_off_fraction`` are independent per-cell
    probabilities of being pinned at ``G_max`` / ``G_min``; ``drift_nu`` and
    ``drift_time_s`` parameterise the retention power law (``drift_t0_s``
    normalises the time axis); ``readout_saturation`` clips dot-product
    estimates at that fraction of the chain's ``dot_max`` (``None`` = the
    chain's own ceiling); ``remap_threshold`` is the per-tile stuck fraction
    above which rows remap onto the architecture's spare rows; ``seed``
    selects the fault realisation (decorrelated per Monte-Carlo trial via
    :meth:`for_trial`, exactly like the noise seed).
    """

    stuck_on_fraction: float = 0.0
    stuck_off_fraction: float = 0.0
    drift_nu: float = 0.0
    drift_time_s: float = 0.0
    drift_t0_s: float = 1.0
    readout_saturation: Optional[float] = None
    remap_threshold: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("stuck_on_fraction", "stuck_off_fraction"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0) or not math.isfinite(value):
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.stuck_on_fraction + self.stuck_off_fraction > 1.0:
            raise ValueError("stuck fractions must sum to at most 1")
        if self.drift_nu < 0 or not math.isfinite(self.drift_nu):
            raise ValueError("drift_nu must be finite and non-negative")
        if self.drift_time_s < 0 or not math.isfinite(self.drift_time_s):
            raise ValueError("drift_time_s must be finite and non-negative")
        if not (math.isfinite(self.drift_t0_s) and self.drift_t0_s > 0):
            raise ValueError("drift_t0_s must be finite and positive")
        if self.readout_saturation is not None and not (
            0.0 < self.readout_saturation <= 1.0
        ):
            raise ValueError("readout_saturation must lie in (0, 1] (or be None)")
        if not (0.0 <= self.remap_threshold <= 1.0):
            raise ValueError("remap_threshold must lie in [0, 1]")

    # -- derived switches ------------------------------------------------------
    @property
    def cell_active(self) -> bool:
        """True when any conductance-mutating fault is enabled."""
        return (
            self.stuck_on_fraction > 0
            or self.stuck_off_fraction > 0
            or (self.drift_nu > 0 and self.drift_time_s > 0)
        )

    @property
    def active(self) -> bool:
        """True when this model perturbs an analog execution at all."""
        return self.cell_active or self.readout_saturation is not None

    def drift_factor(self) -> float:
        """Multiplier on ``(G - G_min)`` after ``drift_time_s`` seconds."""
        if self.drift_nu <= 0 or self.drift_time_s <= 0:
            return 1.0
        return (1.0 + self.drift_time_s / self.drift_t0_s) ** (-self.drift_nu)

    # -- stateless derivation --------------------------------------------------
    def rng(self, *salt: SaltPart) -> np.random.Generator:
        """A generator derived from ``(seed, "faults", salt)`` — equal salts
        replay equal draws, independent of process or construction order."""
        return np.random.default_rng(stable_seed(self.seed, "faults", *salt))

    def for_trial(self, trial: int) -> "FaultModel":
        """This model with a per-trial seed: each Monte-Carlo trial samples an
        independent — and independently reproducible — chip realisation."""
        return replace(self, seed=stable_seed(self.seed, "trial", trial))


@dataclass
class FaultReport:
    """Aggregated fault/remap counts of one wired layer (or whole network)."""

    cells: int = 0
    stuck_cells: int = 0
    remapped_rows: int = 0
    healed_cells: int = 0

    def merge(self, other: "FaultReport") -> "FaultReport":
        self.cells += other.cells
        self.stuck_cells += other.stuck_cells
        self.remapped_rows += other.remapped_rows
        self.healed_cells += other.healed_cells
        return self

    @property
    def stuck_fraction(self) -> float:
        """Surviving (post-remap) stuck cells as a fraction of all cells."""
        return self.stuck_cells / self.cells if self.cells else 0.0


def apply_tile_faults(
    slices: Sequence[np.ndarray],
    cell: "ReRAMCellSpec",
    faults: FaultModel,
    spare_rows: int,
    salt: Tuple[SaltPart, ...],
) -> FaultReport:
    """Apply ``faults`` to one tile's per-slice conductance arrays, in place.

    ``slices`` holds one *writable* 2-D ``(height, width)`` conductance
    array (or view) per bit-cell slice of the tile — the packed engine
    passes views into its per-slice tensors.  ``cell`` is the
    :class:`repro.circuits.reram.ReRAMCellSpec` supplying ``g_min``/``g_max``.

    Application order models the physics: drift acts on whatever was
    programmed (variation included), stuck-at pinning overrides everything —
    a stuck cell reads ``G_max``/``G_min`` no matter what was programmed or
    how long ago.  The stuck masks of all slices derive from one generator
    seeded by ``(faults.seed, "faults", salt)``; the uniform field is
    compared against the fractions, so masks at different severities from
    one seed are nested.

    Redundancy remap: when the tile's stuck fraction exceeds
    ``faults.remap_threshold`` and ``spare_rows > 0``, the up-to-
    ``spare_rows`` worst rows (most stuck cells; ties broken by row index)
    keep their drifted, *unpinned* values — their cells moved to spare
    rows.  Returns the tile's :class:`FaultReport`.
    """
    if not slices:
        return FaultReport()
    height, width = slices[0].shape
    report = FaultReport(cells=len(slices) * height * width)

    factor = faults.drift_factor()
    if factor != 1.0:
        for conductances in slices:
            dtype = conductances.dtype
            conductances -= dtype.type(cell.g_min_s)
            conductances *= dtype.type(factor)
            conductances += dtype.type(cell.g_min_s)

    p_on = faults.stuck_on_fraction
    p_off = faults.stuck_off_fraction
    if p_on <= 0 and p_off <= 0:
        return report

    rng = faults.rng(*salt)
    on_masks: List[np.ndarray] = []
    off_masks: List[np.ndarray] = []
    for conductances in slices:
        u = rng.random(conductances.shape)
        on_masks.append(u < p_on)
        off_masks.append((u >= p_on) & (u < p_on + p_off))

    per_row = np.zeros(height, dtype=np.int64)
    for on, off in zip(on_masks, off_masks):
        per_row += (on | off).sum(axis=1)
    total_stuck = int(per_row.sum())

    remapped: List[int] = []
    if (
        spare_rows > 0
        and total_stuck > 0
        and total_stuck / report.cells > faults.remap_threshold
    ):
        # worst rows first; argsort of the negated counts with a stable kind
        # breaks ties by row index, keeping the remap choice deterministic
        order = np.argsort(-per_row, kind="stable")
        remapped = [int(r) for r in order[:spare_rows] if per_row[r] > 0]
    healed = int(per_row[remapped].sum()) if remapped else 0

    for conductances, on, off in zip(slices, on_masks, off_masks):
        if remapped:
            on[remapped, :] = False
            off[remapped, :] = False
        dtype = conductances.dtype
        conductances[on] = dtype.type(cell.g_max_s)
        conductances[off] = dtype.type(cell.g_min_s)

    report.stuck_cells = total_stuck - healed
    report.remapped_rows = len(remapped)
    report.healed_cells = healed
    return report
