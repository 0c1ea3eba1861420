"""Packed vectorized tile execution: one matmul per layer-slice.

:class:`PackedMatmul` is the execution engine behind
:class:`repro.engine.executor.NetworkExecutor`.  It computes what a grid of
physical crossbars computes — the integer matmul of input codes against
offset-encoded, bit-sliced weights, read out through the two-phase
time-domain chains of :mod:`repro.circuits.timing` — but stores and
executes the layer as a whole instead of as a grid of crossbar objects:

* the weights of **all tiles of all groups** are packed into one contiguous
  integer cell-level tensor per bit-cell slice, shaped ``(groups,
  rows_needed, group_cols)`` — partial tiles live at their true ``height x
  width`` rather than zero-padded ``arch.rows x arch.cols`` arrays, which
  for a model like vgg_d shrinks programmed state from thousands of padded
  256x256 int64 + float64 crossbars to ``n_slices`` one-byte tensors the
  size of the weights (a cell's conductance is ``g_min + level * g_step``),
* one batched ``codes @ G`` matmul per row-tile slice replaces the Python
  loop over ``row_tiles x col_tiles x slices`` tile objects (the column-tile
  axis vanishes entirely: a packed slice holds every output column), and
  grouped convolutions ride the same call as a stacked leading matmul axis,
* the time-domain chain — phase-I charge, G_min offset subtraction, clip,
  phase-II threshold crossing, LSB rescale — is elementwise with per-chain
  scalars that are identical across a layer's tiles
  (:class:`repro.circuits.timing.TimeDomainChainSpec`), so it runs as one
  vectorized :meth:`~repro.circuits.timing.TimeDomainChainSpec.read_out`
  pass over a charge tensor stacked across every tile, slice, batch
  position and output column at once.  The sub-ranging MSB/LSB pair of
  Section IV-C is simply the 2-slice case of this recombination.

An analog layer reads out along one of two paths, chosen at wiring:

* **exact levels** — whenever the cells sit exactly on the level grid (no
  conductance variation, no DTC jitter, no stuck or drift faults; read-out
  saturation is fine), each slice's stored cell levels are cast once to
  the GEMM dtype and every (row tile, slice) GEMM multiplies integer codes
  by integer levels.  Every partial sum is an integer no larger than the
  chain's ``dot_max``, so the GEMM runs in
  float32 when ``dot_max`` is below float32's exactness bound (float64
  otherwise) and is exact whatever BLAS's summation order or thread
  count.  The chain then starts from the net charge ``v_dd * t_del *
  g_step * P``: on an unperturbed grid the G_min reference column cancels
  exactly, so there is no delay sum to subtract;
* **conductances** — with programming variation, DTC jitter or cell
  faults, the levels are decoded to conductances in the compute dtype
  (:func:`level_conductances`) and perturbed, the GEMM multiplies scaled
  delays by them and the reference column is subtracted through the
  per-tile delay sums, as the circuit does.

A programmed payload holds only integers, so wiring is also where each
layer's precision is chosen, from one table of exactness bounds: the
exact-level GEMM runs in float32, else float64; an ideal layer's encoded
weights are cast to the context's compute dtype, else float64, else int64,
whichever first holds every product sum exactly.

Noiseless, the packed path matches a per-crossbar reference built from
:class:`repro.circuits.reram.ReRAMCrossbar` and
:class:`repro.circuits.timing.TimeDomainDotProduct` to float tolerance
(both recover the exact integer matmul through the same chain algebra; the
test suite keeps that reference as its oracle).  With noise enabled, runs
are exactly reproducible from the noise seed: every draw comes from a
:class:`repro.circuits.noise.NoiseStream` derived from ``(seed, layer
salt)``, once per slice tensor and once per layer of delays, so results are
independent of how many other executors were constructed first.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.circuits.timing import TimeDomainChainSpec
from repro.context import ArchSpec, SimContext
from repro.engine.errors import EngineError
from repro.kernels.dispatch import readout_fused

#: engine read-out modes: ``"analog"`` runs the two-phase time-domain
#: chains, ``"ideal"`` reads the same programmed weights exactly
MODES = ("analog", "ideal")

#: exactness bounds of integer GEMMs: with non-negative integer operands,
#: every partial sum is exact in a dtype while it stays below the dtype's
#: bound (mantissa width + 1 for the floats, the value range for int64)
_EXACT_BOUNDS = {
    np.dtype(np.float32): 2 ** 24,
    np.dtype(np.float64): 2 ** 53,
    np.dtype(np.int64): 2 ** 63,
}


def _worst_product_sum(arch: ArchSpec, rows_needed: int) -> int:
    """Upper bound of one ideal-mode output element before offset removal."""
    return (2 ** arch.input_bits - 1) * 2 ** arch.weight_bits * rows_needed


def _exact_dtype(magnitude: float, candidates: Tuple) -> Optional[np.dtype]:
    """The first of ``candidates`` whose integer GEMMs stay exact while
    every partial sum is at most ``magnitude``; ``None`` if none does."""
    for dtype in map(np.dtype, candidates):
        if magnitude < _EXACT_BOUNDS[dtype]:
            return dtype
    return None


def _on_level_grid(ctx: SimContext) -> bool:
    """Whether ``ctx`` leaves every programmed cell exactly on its level.

    Programming variation and stuck/drift faults move conductances off the
    grid and DTC jitter makes delays non-integer; read-out saturation only
    clips the chain and keeps the products exact.
    """
    noise = ctx.noise
    if noise is not None and (
        noise.reram_conductance_sigma > 0 or noise.dtc_sigma > 0
    ):
        return False
    return ctx.faults is None or not ctx.faults.cell_active


def _flat_memory_view(a: np.ndarray) -> Optional[np.ndarray]:
    """A 1-D view of ``a`` in its own memory order, or ``None`` if strided."""
    if a.flags["C_CONTIGUOUS"]:
        return a.reshape(-1)
    if a.flags["F_CONTIGUOUS"]:
        return a.T.reshape(-1)
    return None


def _like(result: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Reshape a flat ufunc result back to ``template``'s shape and layout."""
    if result.shape == template.shape:  # strided fallback: nothing to undo
        return result
    if template.flags["C_CONTIGUOUS"]:
        return result.reshape(template.shape)
    return result.reshape(template.shape[::-1]).T


def pack_weights(
    q: np.ndarray, arch: ArchSpec, mode: str
) -> Tuple[Optional[np.ndarray], List[np.ndarray]]:
    """The expensive, noise-free half of packed programming.

    Offset-encodes the ``(groups, rows, group_cols)`` signed quantised
    weights (any signed integer dtype, values in ``±(2**(weight_bits-1) -
    1)``) and, in ``"analog"`` mode, bit-slices them into the per-slice
    integer cell levels — what the chip holds after its one programming
    pass; :func:`level_conductances` turns them into the *base* (noise-free)
    conductances ``g_min + level * g_step``.  Returns ``(encoded, levels)``:
    exactly one is populated — the ``encoded`` weights for ``"ideal"``
    mode, the level list for ``"analog"``.  Both hold unsigned integers:
    ``encoded`` in the weights' unsigned type (``uint8`` at 8 bits), the
    levels in the cells' (``uint8`` while ``cell_bits <= 8``).  No
    arithmetic precision is chosen here: :class:`PackedMatmul` picks each
    layer's GEMM dtype when it wires the payload.

    This is the payload :class:`repro.engine.state.ProgrammedState` snapshots
    and :meth:`PackedMatmul.from_packed` rewires without recomputation.

    The integer passes run on a **flat memory-order view** of the stack, in
    the unsigned integer type of the weights' width (the offset encoding
    then is a wrapping add).  ``q`` arrives Fortran-ordered (a stack of
    ``.T`` im2col matrices), and ufunc loops over such 3-D stacks degrade
    badly — tens of seconds per vgg_d FC layer, ~20x the sequential-walk
    cost — because the dimension with the huge stride defeats the
    iterator's loop coalescing.  A 1-D view walks the same bytes
    sequentially, and reshaping the results back **in the same order**
    gives every level tensor (and the ideal ``encoded`` matrix) ``q``'s
    memory layout — layout matters downstream, because BLAS picks summation
    paths by operand memory order.
    """
    unsigned = np.min_scalar_type(2 ** arch.weight_bits - 1)
    q = q.astype(f"i{unsigned.itemsize}", order="K", copy=False)
    flat = _flat_memory_view(q)
    if flat is None:  # non-contiguous input: direct (strided) fallback
        flat = q
    # q + offset lies in [1, 2**weight_bits - 1], so the wrapping unsigned
    # add is exact
    encoded_flat = flat.view(unsigned) + unsigned.type(2 ** (arch.weight_bits - 1))
    if mode == "ideal":
        # The ideal read-out is linear, so the slice cascade recombines
        # back into the encoded matrix and one matmul suffices.
        return _like(encoded_flat, q), []
    level_dtype = np.min_scalar_type(2 ** arch.cell_bits - 1)
    # shift and mask in a type that holds a weight and a level alike: a
    # cell may be wider than the weights' own integer type
    wide = encoded_flat.astype(
        np.promote_types(unsigned, level_dtype), order="K", copy=False
    )
    mask = wide.dtype.type(2 ** arch.cell_bits - 1)
    levels: List[np.ndarray] = []
    for s in range(arch.cols_per_weight):
        slice_levels = wide >> wide.dtype.type(arch.cell_bits * s)
        slice_levels &= mask
        levels.append(_like(slice_levels.astype(level_dtype, order="K", copy=False), q))
    return None, levels


def level_conductances(
    levels: np.ndarray, g_min: float, g_step: float, dtype: Union[str, np.dtype]
) -> np.ndarray:
    """Base conductances ``g_min + level * g_step`` of one level tensor.

    A fresh ``dtype`` array in ``levels``' shape and memory layout, from the
    arithmetic programming has always used (cast, scale by ``g_step``, add
    ``g_min``, in ``dtype``), so the bytes do not depend on whether the
    levels were just packed or memory-mapped from a saved state.
    """
    dtype = np.dtype(dtype)
    flat = _flat_memory_view(levels)
    if flat is None:  # non-contiguous levels: direct (strided) fallback
        flat = levels
    conductances = flat.astype(dtype, order="K", subok=False)
    conductances *= dtype.type(g_step)
    conductances += dtype.type(g_min)
    return _like(conductances, levels)


class PackedMatmul:
    """Integer matmul of one layer (all groups) through packed slice tensors.

    Parameters
    ----------
    q_weights:
        Signed integer weights, either ``(rows_needed, out_cols)`` in im2col
        layout (one weight-sharing group) or ``(groups, rows_needed,
        group_cols)`` for grouped convolutions; quantised to
        ``ctx.arch.weight_bits`` bits.
    ctx:
        The simulation context supplying geometry, cell/converter specs and
        the (optional) noise model.
    mode:
        ``"analog"`` (vectorized time-domain chains) or ``"ideal"`` (exact
        integer read-out).
    salt:
        Identifies this layer's noise scope (the executor passes the layer
        index).  Programming and read-out noise streams derive from
        ``(ctx.noise.seed, salt)``, so noisy results are independent of
        construction order.
    """

    def __init__(
        self,
        q_weights: np.ndarray,
        ctx: SimContext,
        mode: str = "analog",
        salt: Union[int, tuple] = 0,
    ):
        if mode not in MODES:
            raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
        arch = ctx.arch
        q = np.asarray(q_weights, dtype=np.int64)
        if q.ndim == 2:
            q = q[None]
        elif q.ndim != 3:
            raise EngineError(
                "q_weights must be a 2-D (rows, out_cols) matrix or a 3-D "
                "(groups, rows, group_cols) stack"
            )
        qmax = 2 ** (arch.weight_bits - 1) - 1
        if np.any(q < -qmax) or np.any(q > qmax):
            raise EngineError(
                f"quantised weights must lie in [{-qmax}, {qmax}] for "
                f"{arch.weight_bits}-bit symmetric quantisation"
            )
        encoded, levels = pack_weights(q, arch, mode)
        self._wire(encoded, levels, ctx, mode, salt)

    @classmethod
    def from_packed(
        cls,
        encoded: Optional[np.ndarray],
        levels: List[np.ndarray],
        ctx: SimContext,
        mode: str = "analog",
        salt: Union[int, tuple] = 0,
    ) -> "PackedMatmul":
        """Wire a matmul from a pre-packed payload, skipping programming.

        ``(encoded, levels)`` is a :func:`pack_weights` result (e.g. loaded
        from a :class:`repro.engine.state.ProgrammedState`, possibly
        memory-mapped).  Every tensor the layer computes with is a fresh
        array derived from the payload — with noise enabled, per-trial
        programming variation is applied to decoded conductances with the
        same seed-stable draws the one-shot constructor makes, so outputs
        are bit-identical; the payload itself is never mutated, so a cached
        state can be shared by any number of executors.
        """
        if mode not in MODES:
            raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
        if mode == "ideal":
            if encoded is None:
                raise EngineError("ideal-mode packed state is missing its encoded matrix")
        elif len(levels) != ctx.arch.cols_per_weight:
            raise EngineError(
                f"analog packed state holds {len(levels)} slice tensors; "
                f"this architecture needs {ctx.arch.cols_per_weight}"
            )
        matmul = cls.__new__(cls)
        matmul._wire(encoded, levels, ctx, mode, salt)
        return matmul

    def _wire(
        self,
        encoded: Optional[np.ndarray],
        levels: List[np.ndarray],
        ctx: SimContext,
        mode: str,
        salt: Union[int, tuple],
    ) -> None:
        """Cheap construction from a packed payload: geometry, noise scopes
        and the GEMM operands in the dtype chosen for this layer."""
        arch = ctx.arch
        shape = encoded.shape if encoded is not None else levels[0].shape
        self.ctx = ctx
        self.mode = mode
        self.n_groups, self.rows_needed, self.group_cols = shape
        self.out_cols = self.n_groups * self.group_cols
        #: offset making the encoded levels unsigned; removed digitally
        self.offset = 2 ** (arch.weight_bits - 1)

        self.row_tiles = math.ceil(self.rows_needed / arch.rows)
        weights_per_tile = arch.weights_per_col_tile
        if weights_per_tile == 0:
            raise EngineError(
                f"a {arch.cols}-column tile cannot hold a single "
                f"{arch.weight_bits}-bit weight ({arch.cols_per_weight} "
                f"bit-cell columns per weight)"
            )
        self.col_tiles = math.ceil(self.group_cols / weights_per_tile)
        self.n_slices = arch.cols_per_weight
        #: the context's arithmetic precision: the conductance path's delays
        #: and conductances, and the ideal GEMM's first choice
        self.compute_dtype = ctx.np_compute_dtype
        #: power-of-two digital recombination weights of the slice cascade.
        #: Always float64: the recombination and offset correction work on
        #: ``~offset * sum(codes)``-magnitude operands whose difference is
        #: orders of magnitude smaller, so float32 here would turn the
        #: digital (exact) half of the pipeline into the accuracy
        #: bottleneck — only the analog gemm + read-out chain drop to
        #: float32, the digital recombination stays double.
        self.shifts = np.array(
            [float(2 ** (arch.cell_bits * s)) for s in range(self.n_slices)]
        )
        #: (start, height) of every row tile in the packed row axis
        self._row_spans: List[Tuple[int, int]] = [
            (rt * arch.rows, min(arch.rows, self.rows_needed - rt * arch.rows))
            for rt in range(self.row_tiles)
        ]
        #: chain scalars shared by every tile of the layer (full tile height)
        self.spec = TimeDomainChainSpec.from_context(ctx)
        #: noise scopes derived from (seed, salt) — construction-order free
        salt_parts = salt if isinstance(salt, tuple) else (salt,)
        program_noise = None
        self._read_noise = None
        if ctx.noise is not None:
            program_noise = ctx.noise.stream("packed", *salt_parts, "program")
            self._read_noise = ctx.noise.stream("packed", *salt_parts, "read")

        #: largest per-group sum of input codes (the offset correction)
        self._code_sum_max = float(2 ** arch.input_bits - 1) * self.rows_needed

        faults = ctx.faults
        self.fault_report = None
        self._saturation = None
        if mode == "analog" and faults is not None and faults.readout_saturation is not None:
            self._saturation = float(faults.readout_saturation)
        #: the encoded weights in the GEMM dtype of an ideal layer, else ``None``
        self._encoded: Optional[np.ndarray] = None
        #: the stored cell levels in the GEMM dtype when this analog layer
        #: reads out through the exact-level path, else ``None``
        self._levels: Optional[List[np.ndarray]] = None
        #: the (perturbed) conductances of the conductance path, else ``None``
        self._conductances: Optional[List[np.ndarray]] = None
        if mode == "ideal":
            # the context's precision when it holds every product sum
            # exactly, else the narrowest wider dtype that does
            worst = _worst_product_sum(arch, self.rows_needed)
            dtype = _exact_dtype(worst, (self.compute_dtype, np.float64, np.int64))
            if dtype is None:
                raise EngineError(
                    f"ideal read-out cannot stay exact: product sums reach "
                    f"{float(worst):.3g}, past int64's 2**63"
                )
            self._encoded = encoded.astype(dtype, order="K")
            return
        level_dtype = _exact_dtype(self.spec.dot_max, (np.float32, np.float64))
        if level_dtype is not None and _on_level_grid(ctx):
            self._levels = [
                stored.astype(level_dtype, order="K") for stored in levels
            ]
            return
        cell = arch.cell_spec()
        conductances = [
            level_conductances(stored, cell.g_min_s, cell.g_step_s, self.compute_dtype)
            for stored in levels
        ]
        if program_noise is not None:
            # per-executor programming variation over the decoded base
            # tensors, drawn slice by slice as the one-shot constructor does
            conductances = [
                program_noise.apply_conductance_variation(c) for c in conductances
            ]
        # hard faults (stuck cells / drift): wiring-time, like variation, on
        # the freshly decoded tensors — the shared payload, possibly a
        # read-only mmap of a cached ProgrammedState, stays fault-free
        if faults is not None and faults.cell_active:
            from repro.faults import FaultReport, apply_tile_faults

            report = FaultReport()
            for g in range(self.n_groups):
                for rt, (r0, height) in enumerate(self._row_spans):
                    views = [c[g, r0 : r0 + height, :] for c in conductances]
                    report.merge(
                        apply_tile_faults(
                            views,
                            cell,
                            faults,
                            arch.spare_rows,
                            ("packed", *salt_parts, "fault", g, rt),
                        )
                    )
            self.fault_report = report
        self._conductances = conductances

    @property
    def crossbars(self) -> int:
        """Physical crossbars occupied (matches ``LayerMapping`` counting)."""
        return self.n_groups * self.row_tiles * self.col_tiles

    @property
    def packed_bytes(self) -> int:
        """Bytes this wired layer holds for its GEMMs.

        The cell levels in the GEMM dtype on the exact-level path, the
        decoded (perturbed) conductances on the conductance path, the
        ``encoded`` matrix in the GEMM dtype in ideal mode — not the stored
        integer payload, which the wiring only reads.
        """
        return sum(t.nbytes for t in self._tensors)

    @property
    def _tensors(self) -> List[np.ndarray]:
        """The wired tensors the layer's GEMMs multiply by."""
        if self._encoded is not None:
            return [self._encoded]
        return self._levels if self._levels is not None else self._conductances

    @property
    def readout_path(self) -> str:
        """``"levels"`` or ``"conductances"`` (analog), or ``"ideal"``."""
        if self.mode == "ideal":
            return "ideal"
        return "levels" if self._levels is not None else "conductances"

    @property
    def gemm_dtype(self) -> np.dtype:
        """The dtype the layer's GEMMs run in."""
        return self._tensors[0].dtype

    @property
    def dtc_jitter(self) -> bool:
        """Whether this layer's DTCs jitter: a conductance-path layer whose
        context draws DTC noise (``dtc_sigma > 0``)."""
        noise = self._read_noise
        return self._conductances is not None and noise is not None and noise.dtc_sigma > 0

    def convert_inputs(self, codes: np.ndarray) -> np.ndarray:
        """DTC-convert input ``codes`` to float64 delays in seconds, one
        jitter draw per element, from this layer's read stream.

        Under O2IR (TIMELY's only-once input read) each input element is
        converted once and its delay is then forwarded to every crossbar
        window that reads it: a conv layer converts its ``(N, C, H, W)``
        codes here and gathers the delays into the GEMM operand (see
        :meth:`matmul`'s ``delays``).  Draws follow the codes' logical
        (C) order, whatever their memory layout.
        """
        return self.spec.dtc.convert(codes, self._read_noise)

    @property
    def code_dtype(self) -> np.dtype:
        """The dtype :meth:`matmul` takes its codes in without a cast.

        The GEMM dtype on the exact-level and float ideal paths; float64 on
        the conductance path, whose DTC turns codes into float64 delays, and
        for an int64 ideal GEMM, which casts its float64 codes per call.
        """
        if self.readout_path == "conductances" or self.gemm_dtype == np.int64:
            return np.dtype(np.float64)
        return self.gemm_dtype

    def matmul(
        self,
        codes: np.ndarray,
        validate: bool = True,
        delays: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Push input codes through the packed slices and recombine.

        ``codes`` is a ``(positions, n_groups * rows_needed)`` matrix of
        unsigned integer input codes (any integer or float dtype; floats
        must hold integers), the groups' code blocks concatenated along
        the row axis (the natural im2col channel-major layout).  Returns
        the signed dot products as ``(positions, out_cols)``.
        ``validate=False`` skips the input range and integrality scans
        for callers that already quantised the codes themselves.

        ``delays`` gives a conductance-path layer its GEMM operand: the DTC
        delays (seconds) of ``codes``, in their shape, converted once per
        input element by :meth:`convert_inputs` and gathered per window, so
        that an input read by several windows carries one draw and a
        padded tap carries delay 0.  The codes then feed only the digital
        offset correction.  Without it, a jittering layer converts its own
        operand, one draw per entry: exactly once per input element for an
        FC layer, whose operand is its input.
        """
        codes = np.asarray(codes)
        expected_rows = self.n_groups * self.rows_needed
        if codes.ndim != 2 or codes.shape[1] != expected_rows:
            raise EngineError(
                f"expected codes of shape (positions, {expected_rows}), "
                f"got {codes.shape}"
            )
        if validate:
            levels = 2 ** self.ctx.arch.input_bits
            if np.any(codes < 0) or np.any(codes >= levels):
                raise EngineError(
                    f"input codes must lie in [0, {levels - 1}] for "
                    f"{self.ctx.arch.input_bits}-bit inputs"
                )
            if codes.dtype.kind == "f" and not np.array_equal(codes, np.rint(codes)):
                raise EngineError("input codes must be integers")
        codes = codes.astype(self.code_dtype, copy=False)
        positions = codes.shape[0]
        # (G, positions, R): one leading matmul axis per weight-sharing group
        grouped = codes.reshape(positions, self.n_groups, self.rows_needed)
        grouped = grouped.transpose(1, 0, 2)

        if self._levels is not None:
            # exact whatever the operand layout: no contiguous copy needed
            products = self._read_out(grouped, self._levels, positions)
        else:
            grouped = np.ascontiguousarray(grouped)
            if self.mode == "ideal":
                # exact integer products in the wired dtype (see _wire); the
                # digital correction below runs in float64
                products = (
                    grouped.astype(self._encoded.dtype, copy=False) @ self._encoded
                ).astype(np.float64, copy=False)
            else:
                products = self._analog_products(grouped, positions, delays)

        # Digital offset removal: every programmed weight carries ``+offset``,
        # so each group's columns over-count by ``offset * sum(group codes)``.
        # The code sums are exact integers in the codes' own float dtype
        # while the largest possible sum fits its mantissa.
        exact = self._code_sum_max < _EXACT_BOUNDS[codes.dtype]
        sums = grouped.sum(axis=2, dtype=codes.dtype if exact else np.float64)
        correction = np.multiply(sums, self.offset, dtype=np.float64)  # (G, P)
        np.subtract(products, correction[:, :, None], out=products)
        # concatenate the groups' output columns (group-major channel order)
        return np.ascontiguousarray(products.transpose(1, 0, 2)).reshape(
            positions, self.out_cols
        )

    def _position_chunk(self, positions: int, itemsize: int) -> int:
        """Positions per charge chunk under ``ctx.chunk_bytes`` (all if unset)."""
        budget = self.ctx.chunk_bytes
        if budget is None:
            return positions
        per_position = (
            self.row_tiles * self.n_slices * self.n_groups * self.group_cols * itemsize
        )
        return max(1, min(positions, budget // max(1, per_position)))

    def _read_out(
        self,
        operand: np.ndarray,
        tensors: List[np.ndarray],
        positions: int,
        delay_sums: bool = False,
    ) -> np.ndarray:
        """GEMMs, chain and recombination over the position axis in chunks.

        One ``operand @ tensor`` GEMM per (row tile, slice) fills a charge
        block of shape ``(row_tiles, n_slices, groups, chunk, group_cols)``
        in the tensors' dtype; the elementwise chain and the digital
        recombination — the sum over row tiles and the power-of-two slice
        cascade — then run as one fused
        :func:`repro.kernels.dispatch.readout_fused` pass per chunk, fully
        in place on the chunk buffer (zero chain temporaries), accumulated
        straight into the float64 ``(groups, positions, group_cols)``
        output.  ``operand``/``tensors`` are codes and cell levels on the
        exact-level path, and delays and conductances with
        ``delay_sums=True``, which adds the per-tile delay sums the
        reference-column subtraction needs and the ``v_dd`` charge scale.

        With ``ctx.chunk_bytes`` unset the chunk is the whole batch.  When
        set, the position axis is walked in bounded chunks reusing one
        charge buffer, so a layer's peak transient memory is one chunk
        instead of ``row_tiles x n_slices`` copies of the entire im2col
        output.
        """
        spec = self.spec
        dtype = tensors[0].dtype
        chunk = self._position_chunk(positions, dtype.itemsize)
        # float64 accumulator regardless of compute dtype: the slice/tile
        # recombination and the offset correction downstream cancel
        # large-magnitude operands (see the ``shifts`` note in ``_wire``)
        out = np.empty((self.n_groups, positions, self.group_cols))
        charges = np.empty(
            (self.row_tiles, self.n_slices, self.n_groups, chunk, self.group_cols),
            dtype=dtype,
        )
        sums = (
            np.empty((self.row_tiles, 1, self.n_groups, chunk, 1), dtype=dtype)
            if delay_sums
            else None
        )
        for p0 in range(0, positions, chunk):
            n = min(chunk, positions - p0)
            block = charges[:, :, :, :n]
            for rt, (r0, height) in enumerate(self._row_spans):
                d = operand[:, p0 : p0 + n, r0 : r0 + height]
                if sums is not None:
                    sums[rt, 0, :, :n, 0] = d.sum(axis=2)
                for s, tensor in enumerate(tensors):
                    np.matmul(d, tensor[:, r0 : r0 + height, :], out=block[rt, s])
            if sums is not None:
                block *= dtype.type(spec.v_dd)
            # the whole per-chunk chain — (reference-column subtract,) clips,
            # phase-I/II conversion, optional early-TDC saturation and the
            # slice-cascade recombination — in one dispatched kernel call
            readout_fused(
                block,
                None if sums is None else sums[:, :, :, :n],
                spec.scalars(),
                out=block,
                saturation=self._saturation,
                shifts=self.shifts,
                recombine_out=out[:, p0 : p0 + n],
            )
        return out

    def _analog_products(
        self, grouped: np.ndarray, positions: int, delays: Optional[np.ndarray]
    ) -> np.ndarray:
        """Conductance-path estimate of the grouped integer products.

        The full delay tensor (and any DTC jitter draw on it) is computed
        *before* the chunk walk of :meth:`_read_out`, so noisy results are
        independent of the chunking.  ``delays`` is :meth:`matmul`'s.
        """
        spec = self.spec
        dtype = self.compute_dtype
        if delays is not None:
            # (G, P, R), like the grouped codes
            operand = np.ascontiguousarray(
                np.reshape(delays, (positions, self.n_groups, self.rows_needed))
                .transpose(1, 0, 2),
                dtype=dtype,
            )
        elif self.dtc_jitter:
            operand = self.convert_inputs(grouped).astype(dtype, copy=False)
        else:
            # jitter-free DTC on validated codes: the clip is a no-op, so
            # the conversion collapses to one scale of the whole batch
            operand = grouped.astype(dtype)
            operand *= dtype.type(spec.dtc.t_del_s)
        return self._read_out(operand, self._conductances, positions, delay_sums=True)
