"""Time-domain dot-product chains (Eq. 2 and the sub-ranging composition).

:class:`TimeDomainDotProduct` wires the behavioural blocks into TIMELY's
two-phase column read-out (Section IV-C, Fig. 6):

1. a DTC turns each input code into a delay ``T_i = d_i * T_del``,
2. (optionally) the delay passes through a cascade of X-subBufs,
3. during phase I every row drives its column cells for ``T_i`` seconds,
   integrating a charge ``Q_j = V_DD * sum_i T_i * G_ij`` on the charging
   capacitor,
4. a reference column of ``G_min`` cells is subtracted, cancelling the
   conductance offset of the "off" level,
5. during phase II a constant current charges the capacitor until the
   comparator threshold is crossed; the threshold-crossing time is the
   time-domain output, proportional to the dot product.

With all noise sources disabled the chain recovers the integer dot product
exactly (up to floating-point rounding); tests compare it against
:meth:`repro.circuits.reram.ReRAMCrossbar.ideal_dot_product`.

:class:`SubRangingDotProduct` maps wide weights (e.g. 8-bit) onto two
crossbars holding the MSB and LSB halves (e.g. 4-bit cells) and recombines
the two partial dot products digitally, mirroring the sub-ranging design of
Section IV-C.

All inputs may be a single ``(rows,)`` code vector or a ``(batch, rows)``
matrix; the batched path runs one matmul per crossbar.

:class:`TimeDomainChainSpec` factors the chain's scalar parameters (full
scale charge, capacitor sizing, phase-II current, LSB) out of the per-tile
objects: within one layer every tile's chain shares them, so the packed
execution engine (:class:`repro.engine.packed.PackedMatmul`) can run the
whole elementwise phase-I/II read-out as one vectorized pass over every
tile, slice and output position at once via :meth:`TimeDomainChainSpec.read_out`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.context import SimContext

from repro.circuits.analog_buffers import ChargingUnit, Comparator, XSubBuf
from repro.circuits.converters import DTC
from repro.circuits.noise import HardwareNoiseConfig
from repro.circuits.reram import ReRAMCellSpec, ReRAMCrossbar
from repro.kernels.dispatch import ReadoutScalars, readout_fused
from repro.nn.quantization import split_msb_lsb


class TimeDomainChainSpec:
    """Scalar parameters of one two-phase time-domain read-out chain.

    These are the quantities :class:`TimeDomainDotProduct` derives from its
    crossbar, DTC and comparator — the full-scale phase-I charge, the
    capacitor sized for it, the phase-II constant current and the output
    LSB.  They depend only on the cell physics, the converter resolution and
    the (full) tile height, so within one mapped layer every tile's chain
    shares the same spec.  That is what lets the packed execution engine
    apply the whole elementwise chain — offset subtraction, clip, phase-I
    integration, phase-II threshold crossing, LSB rescale — in one
    vectorized :meth:`read_out` pass over a stacked charge tensor covering
    every tile, slice, batch position and output column of a layer.
    """

    def __init__(
        self,
        cell: ReRAMCellSpec,
        dtc: DTC,
        rows: int,
        v_dd: float = 1.2,
        v_threshold: Optional[float] = None,
    ):
        if rows <= 0:
            raise ValueError("rows must be positive")
        self.cell = cell
        self.dtc = dtc
        self.rows = rows
        self.v_dd = v_dd
        self.v_threshold = (
            v_threshold if v_threshold is not None else Comparator().v_threshold
        )
        # Full-scale net charge: every input at the max code, every cell at
        # the max weight level (offset column already subtracted).
        self.q_full = (
            v_dd * cell.g_step_s * (cell.levels - 1) * dtc.full_scale_s * rows
        )
        # Capacitor sized so v1 <= v_threshold over the whole dynamic range,
        # phase-II current sized so the full-scale crossing time equals the
        # input full scale (keeps phase II on the same time axis).
        self.capacitance_f = self.q_full / self.v_threshold
        self.phase2_current_a = self.q_full / dtc.full_scale_s
        #: largest dot product the chain represents without clipping
        self.dot_max = float((dtc.levels - 1) * (cell.levels - 1) * rows)
        #: output time per integer dot-product unit
        self.lsb_s = dtc.full_scale_s / self.dot_max
        #: the chain constants as one flat pack for the kernel dispatch
        #: layer; precomputing the two products cannot change a bit (each
        #: is a single IEEE-754 double the chain formed per call anyway)
        self._scalars = ReadoutScalars(
            offset_coeff=self.v_dd * cell.g_min_s,
            capacitance_f=self.capacitance_f,
            v_threshold=self.v_threshold,
            phase2_scale=self.capacitance_f / self.phase2_current_a,
            full_scale_s=dtc.full_scale_s,
            lsb_s=self.lsb_s,
            dot_max=self.dot_max,
            level_coeff=self.v_dd * dtc.t_del_s * cell.g_step_s,
        )

    @classmethod
    def from_context(cls, ctx: "SimContext") -> "TimeDomainChainSpec":
        """The chain spec of a full-height tile in ``ctx``'s architecture."""
        return cls(
            cell=ctx.arch.cell_spec(),
            dtc=ctx.arch.dtc(),
            rows=ctx.arch.rows,
            v_dd=ctx.arch.v_dd,
        )

    def scalars(self) -> ReadoutScalars:
        """The chain constants as a flat kernel-argument pack."""
        return self._scalars

    def read_out(
        self,
        charges: np.ndarray,
        delay_sums: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized phase-I/II read-out of raw column charges.

        ``charges`` holds phase-I column charges (coulombs) of any shape;
        ``delay_sums`` holds the per-chain sums of the input delays (seconds)
        and must broadcast against ``charges``.  Applies, elementwise and in
        the same order as :meth:`TimeDomainDotProduct.output_times`: the
        G_min reference-column subtraction, the zero clip, the phase-I
        capacitor voltage, the phase-II threshold-crossing time and the
        LSB rescale.  Returns dot-product estimates in integer
        (input-level x weight-level) units.

        The arithmetic runs in place on one working array (a single
        allocation regardless of how many tiles the stack covers); the
        inputs are left untouched unless ``out`` aliases ``charges`` —
        pass ``out=charges`` to run the whole chain fully in place with
        zero allocations, which is how the packed engine's chunked
        read-out keeps its working set bounded by one chunk.

        The arithmetic itself lives behind :mod:`repro.kernels.dispatch`
        (the historical numpy sequence is the always-available reference
        tier; a compiled tier serves the same call bit-for-bit faster).
        """
        return readout_fused(charges, delay_sums, self._scalars, out=out)


class TimeDomainDotProduct:
    """Behavioural model of one time-domain crossbar column read-out.

    Parameters
    ----------
    crossbar:
        The programmed :class:`ReRAMCrossbar` (time-mode operation).
    dtc:
        Input digital-to-time converter.  Its resolution bounds the input
        codes; its unit delay sets the time scale of the whole chain.
    charging_unit, comparator:
        Phase-I/II integration blocks.  The capacitance is rescaled so the
        full-scale phase-I charge reaches exactly the comparator threshold —
        the behavioural analogue of sizing the capacitor for the dynamic
        range of the array.
    x_subbuf, cascade_hops:
        Optional X-subBuf cascade the input delays traverse before reaching
        the crossbar rows (models intra-sub-Chip input forwarding).
    v_dd:
        Supply driving the rows during phase I.
    """

    def __init__(
        self,
        crossbar: ReRAMCrossbar,
        dtc: Optional[DTC] = None,
        charging_unit: Optional[ChargingUnit] = None,
        comparator: Optional[Comparator] = None,
        x_subbuf: Optional[XSubBuf] = None,
        cascade_hops: int = 0,
        v_dd: float = 1.2,
    ):
        if cascade_hops < 0:
            raise ValueError("cascade_hops must be non-negative")
        self.crossbar = crossbar
        self.dtc = dtc or DTC()
        self.comparator = comparator or Comparator()
        self.x_subbuf = x_subbuf or XSubBuf(unit_delay_s=self.dtc.t_del_s)
        self.cascade_hops = cascade_hops
        self.v_dd = v_dd

        # The scalar chain parameters (full-scale charge, capacitor sizing,
        # phase-II current, LSB) live in the shared spec so the packed
        # engine prices exactly the same chain.
        self.spec = TimeDomainChainSpec(
            cell=crossbar.cell,
            dtc=self.dtc,
            rows=crossbar.rows,
            v_dd=v_dd,
            v_threshold=self.comparator.v_threshold,
        )
        base = charging_unit or ChargingUnit()
        self.charging_unit = ChargingUnit(
            capacitance_f=self.spec.capacitance_f,
            v_dd=v_dd,
            energy_fj=base.energy_fj,
            area_um2=base.area_um2,
        )
        self.phase2_current_a = self.spec.phase2_current_a
        #: optional early read-out saturation (see repro.faults): when set,
        #: dot-product estimates clip at this fraction of :attr:`dot_max`
        #: instead of the chain's own full-scale ceiling.  ``None`` (the
        #: default) keeps the historical unclipped behaviour.
        self.clip_fraction: Optional[float] = None

    @property
    def dot_max(self) -> float:
        """Largest dot product the chain can represent without clipping."""
        return self.spec.dot_max

    def output_times(
        self, codes: np.ndarray, noise: Optional[HardwareNoiseConfig] = None
    ) -> np.ndarray:
        """Time-domain column outputs (seconds), proportional to the dot product."""
        delays = self.dtc.convert(codes, noise)
        delays = self.x_subbuf.cascade(delays, self.cascade_hops, noise)
        delays = np.atleast_1d(np.asarray(delays, dtype=float))

        # DTC outputs are clipped to [0, full_scale] by construction, so the
        # per-call non-negativity scan of the crossbar can be skipped here.
        charges = self.crossbar.column_charges(delays, self.v_dd, validate=False)
        # Reference column of G_min cells cancels the "off"-level offset.
        offset = (
            self.v_dd
            * self.crossbar.cell.g_min_s
            * delays.sum(axis=-1, keepdims=delays.ndim > 1)
        )
        net = np.clip(charges - offset, 0.0, None)

        v1 = self.charging_unit.charge_to_voltage(net)
        t_phase2 = self.charging_unit.phase2_time_to_threshold(
            v1, self.comparator.v_threshold, self.phase2_current_a
        )
        # Output edge position: a larger dot product crosses earlier, so the
        # column's time output is T_full - T_x (Fig. 6(e)(g)).
        return self.dtc.full_scale_s - np.asarray(t_phase2, dtype=float)

    def compute(
        self, codes: np.ndarray, noise: Optional[HardwareNoiseConfig] = None
    ) -> np.ndarray:
        """Dot-product estimate in integer (input-level x weight-level) units."""
        times = self.output_times(codes, noise)
        lsb_s = self.dtc.full_scale_s / self.dot_max
        estimates = times / lsb_s
        if self.clip_fraction is not None:
            estimates = np.minimum(estimates, self.clip_fraction * self.dot_max)
        return estimates


class SubRangingDotProduct:
    """Wide-weight dot product via MSB/LSB crossbar pairs (Section IV-C).

    An ``2 * cell_bits``-bit unsigned weight matrix is split with
    :func:`repro.nn.quantization.split_msb_lsb` across two crossbars whose
    cells hold ``cell_bits`` each; the two time-domain partial products are
    recombined digitally as ``msb * 2**cell_bits + lsb``.
    """

    def __init__(
        self,
        weights: np.ndarray,
        rows: int = 256,
        cols: int = 256,
        cell: Optional[ReRAMCellSpec] = None,
        noise: Optional[HardwareNoiseConfig] = None,
        dtc: Optional[DTC] = None,
        v_dd: float = 1.2,
    ):
        self.cell = cell or ReRAMCellSpec()
        self.low_bits = self.cell.bits_per_cell
        self.weight_bits = 2 * self.low_bits

        values = np.asarray(weights, dtype=np.int64)
        if np.any(values < 0) or np.any(values > 2 ** self.weight_bits - 1):
            raise ValueError(
                f"weights must lie in [0, {2 ** self.weight_bits - 1}] for "
                f"sub-ranging over two {self.low_bits}-bit cells"
            )
        msb, lsb = split_msb_lsb(values, self.weight_bits, self.low_bits)

        self.msb_crossbar = ReRAMCrossbar(rows, cols, self.cell, noise)
        self.lsb_crossbar = ReRAMCrossbar(rows, cols, self.cell, noise)
        self.msb_crossbar.program(msb)
        self.lsb_crossbar.program(lsb)

        self.msb_chain = TimeDomainDotProduct(self.msb_crossbar, dtc=dtc, v_dd=v_dd)
        self.lsb_chain = TimeDomainDotProduct(self.lsb_crossbar, dtc=dtc, v_dd=v_dd)

    @classmethod
    def from_context(
        cls, ctx: "SimContext", weights: np.ndarray, noise=None
    ) -> "SubRangingDotProduct":
        """Build the MSB/LSB pair from a :class:`repro.context.SimContext`.

        The cell, converter and supply parameters all come from ``ctx.arch``
        and the programming noise from ``noise`` (the caller's scoped
        :class:`~repro.circuits.noise.NoiseStream`, defaulting to
        ``ctx.noise``), so the functional engine and the analytics price
        exactly the same hardware.  The crossbar pair is sized at the weight
        block's true height (a partial row tile occupies only the rows it
        needs), so input codes can be sliced instead of zero-padded to the
        full tile height.
        """
        weights = np.asarray(weights)
        return cls(
            weights,
            rows=ctx.arch.tile_height(weights.shape[0]),
            cols=ctx.arch.cols,
            cell=ctx.arch.cell_spec(),
            noise=ctx.noise if noise is None else noise,
            dtc=ctx.arch.dtc(),
            v_dd=ctx.arch.v_dd,
        )

    def compute(
        self, codes: np.ndarray, noise: Optional[HardwareNoiseConfig] = None
    ) -> np.ndarray:
        """Dot product of input codes with the full-width weights."""
        msb = self.msb_chain.compute(codes, noise)
        lsb = self.lsb_chain.compute(codes, noise)
        return msb * (2 ** self.low_bits) + lsb

    def ideal(self, codes: np.ndarray) -> np.ndarray:
        """Exact integer reference for the same full-width weights."""
        msb = self.msb_crossbar.ideal_dot_product(codes)
        lsb = self.lsb_crossbar.ideal_dot_product(codes)
        return msb * (2 ** self.low_bits) + lsb

    @property
    def programmed_bytes(self) -> int:
        """Bytes held by the programmed state of the MSB/LSB pair."""
        return self.msb_crossbar.programmed_bytes + self.lsb_crossbar.programmed_bytes
