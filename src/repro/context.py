"""Shared simulation context threaded through circuits → mapping → energy → engine → sim.

Prior to this module, every layer of the stack took its own ad-hoc pair of
configuration objects: the mapper a ``CrossbarConfig``, the estimator a
``CrossbarConfig`` *plus* an ``AcceleratorSpec``, and the circuit models a
loose bag of cell / converter dataclasses that had to be kept consistent with
both by hand.  :class:`ArchSpec` and :class:`SimContext` unify that:

* :class:`ArchSpec` is the single description of the *physical* architecture —
  crossbar geometry, per-cell precision, weight/input precision, the ReRAM
  resistance range and the interface resolution.  It subsumes the old
  ``CrossbarConfig`` (which is now an alias of it, so existing call sites and
  pickles keep working) and knows how to build the circuit-level dataclasses
  (:meth:`ArchSpec.cell_spec`, :meth:`ArchSpec.dtc`) so the behavioural models
  and the analytics can no longer drift apart.
* :class:`SimContext` bundles an :class:`ArchSpec` with the *run-time* choices
  of one simulation: which accelerator configuration prices the events, which
  noise model (if any) perturbs the analog chains, and the seed that makes a
  run reproducible.  The functional engine (:mod:`repro.engine`), the energy
  estimator (:mod:`repro.energy.estimator`) and the CLI (:mod:`repro.sim`)
  all consume one ``SimContext`` instead of re-deriving the pieces.

This module only imports :mod:`numpy` and the leaf circuit dataclasses at
call time, so every other package (``circuits``, ``mapping``, ``energy``,
``engine``, ``sim``) can import it without creating a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.circuits.converters import DTC, TDC
    from repro.circuits.noise import HardwareNoiseConfig
    from repro.circuits.reram import ReRAMCellSpec, ReRAMCrossbar
    from repro.energy.tables import AcceleratorSpec
    from repro.faults import FaultModel
    from repro.mapping.crossbar_mapping import NetworkMapping
    from repro.nn.network import Network


@dataclass(frozen=True)
class ArchSpec:
    """Physical architecture: crossbar geometry, precision and cell physics.

    The first five fields are the historical ``CrossbarConfig`` fields (the
    defaults are the paper's PRIME-comparison configuration: 256x256 arrays of
    4-bit cells holding 8-bit weights driven by 8-bit inputs); the remaining
    fields lift the circuit-level knobs that used to be hard-coded at each
    construction site.
    """

    rows: int = 256
    cols: int = 256
    cell_bits: int = 4
    weight_bits: int = 8
    input_bits: int = 8
    #: ReRAM resistance range (Section II-B); sets g_min/g_max of every cell
    r_min_ohm: float = 20e3
    r_max_ohm: float = 2e6
    #: DTC/TDC unit delay (50 ps per Table II)
    t_del_s: float = 50e-12
    #: supply driving the rows during phase I
    v_dd: float = 1.2
    #: spare crossbar rows provisioned for redundancy remap: when a tile's
    #: stuck-cell fraction (see :mod:`repro.faults`) exceeds the fault
    #: model's threshold, up to this many of its worst rows are remapped
    #: onto spares.  Purely a run-time repair budget — it does not change
    #: the mapping geometry or the programmed-state content key, so it is
    #: excluded from equality/hashing and cached states stay reusable.
    spare_rows: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        for name in ("r_min_ohm", "r_max_ohm", "t_del_s", "v_dd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("crossbar dimensions must be positive")
        if self.spare_rows < 0:
            raise ValueError("spare_rows must be non-negative")
        if self.cell_bits <= 0 or self.weight_bits <= 0 or self.input_bits <= 0:
            raise ValueError("bit widths must be positive")
        # the float64 quantisers round codes exactly only below 2**53, and a
        # symmetric weight needs a sign and at least one magnitude bit
        if max(self.cell_bits, self.weight_bits, self.input_bits) > 53:
            raise ValueError("bit widths must be at most 53")
        if self.weight_bits < 2:
            raise ValueError("weight_bits must be at least 2")
        if self.r_min_ohm <= 0 or self.r_max_ohm <= self.r_min_ohm:
            raise ValueError("require 0 < r_min < r_max")
        if self.t_del_s <= 0:
            raise ValueError("unit delay must be positive")
        if self.v_dd <= 0:
            raise ValueError("V_DD must be positive")

    # -- geometry (the old CrossbarConfig surface) ----------------------------
    @property
    def cols_per_weight(self) -> int:
        """Bit-cell columns per weight (MSB/LSB split across adjacent cells)."""
        return math.ceil(self.weight_bits / self.cell_bits)

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def weights_per_col_tile(self) -> int:
        """Full-precision weights held by the columns of one physical tile."""
        return self.cols // self.cols_per_weight

    def tile_height(self, rows_needed: int) -> int:
        """Rows a (possibly partial) tile actually occupies.

        The single sizing rule for partial row tiles, shared by every
        crossbar construction site.
        """
        return min(int(rows_needed), self.rows)

    # -- circuit-model factories ----------------------------------------------
    def cell_spec(self) -> "ReRAMCellSpec":
        """The ReRAM cell description implied by this architecture."""
        from repro.circuits.reram import ReRAMCellSpec

        return ReRAMCellSpec(
            bits_per_cell=self.cell_bits,
            r_min_ohm=self.r_min_ohm,
            r_max_ohm=self.r_max_ohm,
        )

    def dtc(self) -> "DTC":
        """An input DTC matching the architecture's input precision."""
        from repro.circuits.converters import DTC

        return DTC(resolution=self.input_bits, t_del_s=self.t_del_s)

    def tdc(self) -> "TDC":
        """An output TDC on the same time axis as :meth:`dtc`."""
        from repro.circuits.converters import TDC

        return TDC(resolution=self.input_bits, t_del_s=self.t_del_s)

    def make_crossbar(
        self,
        noise: Optional["HardwareNoiseConfig"] = None,
        rows: Optional[int] = None,
    ) -> "ReRAMCrossbar":
        """A blank physical crossbar of this geometry.

        ``rows`` overrides (and is capped at) the architecture's tile
        height — partial row tiles are sized at the rows they actually
        occupy (:meth:`tile_height`).
        """
        from repro.circuits.reram import ReRAMCrossbar

        height = self.rows if rows is None else self.tile_height(rows)
        return ReRAMCrossbar(height, self.cols, self.cell_spec(), noise)


#: Names accepted by :meth:`SimContext.accelerator_spec` / the CLI.
ACCELERATOR_STYLES = ("timely", "prime", "isaac")

#: Compute dtypes of the packed execution engine: ``"float64"`` (default)
#: or ``"float32"`` — half the conductance-tensor memory and, on the
#: conductance read-out path of noisy or faulty layers, single-precision
#: BLAS on the hot matmul + read-out chain at a documented looser accuracy
#: bar (<= 1e-4 relative against float64).  Noiseless analog layers read
#: out through exact integer levels in either dtype (bit-identical
#: results); ideal-mode integer matmuls that would lose exactness in
#: float32 fall back to float64 per layer, so requesting float32 never
#: breaks exact read-out.  The dtype is a wiring choice: programmed states
#: hold integers, and one state serves both precisions.
COMPUTE_DTYPES = ("float64", "float32")

#: Version of the engine's result arithmetic, bumped whenever a change can
#: move any output bit of an unchanged configuration.  Sweep trial keys and
#: rows carry it, so a resumed store recomputes rows produced under older
#: rounding instead of mixing them in.  Version 2: noiseless analog layers
#: read out through exact integer level products (``repro.engine.packed``).
#: Version 3: a conv layer's DTC jitter is drawn once per input element
#: and gathered per window (padded taps carry no jitter), and programming
#: variation is drawn in each conductance tensor's memory order.
NUMERICS_VERSION = 3


def accelerator_factories() -> Dict[str, Callable[[ArchSpec], "AcceleratorSpec"]]:
    """The accelerator-name → config-factory registry, keyed by
    :data:`ACCELERATOR_STYLES`.  This is the single place the mapping is
    defined; the CLI and :meth:`SimContext.accelerator_spec` both read it.
    """
    from repro.energy.tables import (
        isaac_like_config,
        prime_like_config,
        timely_config,
    )

    return dict(zip(ACCELERATOR_STYLES, (timely_config, prime_like_config, isaac_like_config)))


@dataclass
class SimContext:
    """One simulation run: architecture + accelerator + noise + seed.

    ``accelerator`` selects the event-pricing configuration by name
    (``"timely"``, ``"prime"`` or ``"isaac"``); ``noise`` perturbs the analog
    chains of the functional engine (``None`` = ideal hardware); ``seed``
    drives every deterministic draw (weight initialisation, input
    generation), so two contexts with equal fields reproduce each other
    exactly; ``compute_dtype`` selects the packed engine's arithmetic precision
    when an executor wires its layers (see :data:`COMPUTE_DTYPES` —
    ``"float32"`` halves conductance memory and roughly doubles matmul
    throughput at a ≤1e-4 relative-accuracy bar, while ``"float64"``, the
    default, stays bit-identical to the historical behaviour; programming
    does not depend on it); ``chunk_bytes`` bounds the packed read-out
    chain's working set — when set, the stacked tiles × positions charge
    tensor is split along the position axis into chunks of at most this
    many bytes and the two-phase chain runs per chunk fully in place, so
    the layer's peak transient memory is one chunk instead of
    ``row_tiles × n_slices`` copies of the whole im2col output.  ``None``
    (the default) keeps the historical single-pass read-out, which is
    bit-identical to prior releases; chunked results agree with it to
    float rounding (BLAS picks different summation blockings per chunk
    shape), pinned ≤1e-12 relative in the tests.
    """

    arch: ArchSpec = field(default_factory=ArchSpec)
    accelerator: str = "timely"
    noise: Optional["HardwareNoiseConfig"] = None
    seed: int = 0
    compute_dtype: str = COMPUTE_DTYPES[0]
    chunk_bytes: Optional[int] = None
    #: hard-fault model (stuck cells / drift / read-out saturation, see
    #: :mod:`repro.faults`); ``None`` = a defect-free chip.  Faults perturb
    #: analog executions only — ideal mode stays the exact reference — and
    #: are applied at wiring time, so programmed states stay fault-free.
    faults: Optional["FaultModel"] = None

    # A SimContext is a bag of plain dataclasses (ArchSpec, the stateless
    # HardwareNoiseConfig) and scalars, so it pickles cleanly across the
    # process boundary of the Monte-Carlo sweep pool (repro.sweep).

    def __post_init__(self) -> None:
        if self.accelerator not in ACCELERATOR_STYLES:
            raise ValueError(
                f"unknown accelerator {self.accelerator!r}; "
                f"choose from: {', '.join(ACCELERATOR_STYLES)}"
            )
        if self.compute_dtype not in COMPUTE_DTYPES:
            raise ValueError(
                f"unknown compute dtype {self.compute_dtype!r}; "
                f"choose from: {', '.join(COMPUTE_DTYPES)}"
            )
        if self.chunk_bytes is not None and self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive (or None for the default)")

    @property
    def np_compute_dtype(self) -> np.dtype:
        """The numpy dtype the packed engine computes in."""
        return np.dtype(self.compute_dtype)

    # -- derived objects -------------------------------------------------------
    def accelerator_spec(self) -> "AcceleratorSpec":
        """The event-cost configuration pricing this context's accelerator."""
        return accelerator_factories()[self.accelerator](self.arch)

    def map_network(self, network: "Network") -> "NetworkMapping":
        """Tile ``network`` onto this context's crossbars."""
        from repro.mapping.crossbar_mapping import map_network

        return map_network(network, self.arch)

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A fresh deterministic generator (``salt`` decorrelates streams)."""
        return np.random.default_rng((self.seed, salt))

    def for_trial(self, trial: int) -> "SimContext":
        """A copy of this context for Monte-Carlo trial ``trial``.

        Weights and inputs (driven by ``seed``) stay fixed while the noise
        and fault seeds are re-derived from ``(seed, trial)``, so each trial
        draws an independent — and independently reproducible — noise
        realisation and chip (fault) realisation.  With neither a noise nor
        a fault model attached this is a plain copy.
        """
        updates: Dict[str, object] = {}
        if self.noise is not None:
            from repro.circuits.noise import stable_seed

            updates["noise"] = replace(
                self.noise, seed=stable_seed(self.noise.seed, "trial", trial)
            )
        if self.faults is not None:
            updates["faults"] = self.faults.for_trial(trial)
        return replace(self, **updates)

    def with_noise(self, noise: Optional["HardwareNoiseConfig"]) -> "SimContext":
        """A copy of this context with a different noise model."""
        return replace(self, noise=noise)

    def ideal(self) -> "SimContext":
        """A copy of this context with all noise sources disabled."""
        return self.with_noise(None)
