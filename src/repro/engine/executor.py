"""Whole-network functional simulation through mapped crossbars.

:class:`NetworkExecutor` is the end-to-end path the analytics packages
cannot provide on their own: it takes a resolved
:class:`repro.nn.network.Network`, tiles every conv/FC layer onto physical
crossbars exactly as :func:`repro.mapping.crossbar_mapping.map_network`
counts them, and pushes real activations through the
:mod:`repro.circuits.timing` time-domain chains:

1. per-layer weight programming — symmetric ``weight_bits`` quantisation,
   offset encoding and the bit-cell slice split into packed per-slice
   integer cell levels (:mod:`repro.engine.packed`),
2. im2col slicing of the (unsigned-quantised) input activations,
3. time-domain dot products batched over input columns *and* over the
   images of a batch, with optional :mod:`repro.circuits.noise` injection,
4. partial-sum recombination across row tiles, digital offset removal,
   dequantisation and bias addition,
5. auxiliary layers (ReLU, pooling, batch-norm, flatten, GAP, residual
   add, channel concat) applied with the same :mod:`repro.nn.functional`
   kernels as the float reference.

Execution walks the network's deterministic topological order, so
branching DAGs (ResNet, SqueezeNet) run end to end; intermediate
activations are freed once their last consumer has run (liveness-based
freeing — what keeps deep residual nets inside laptop memory), and the
observed peak is reported per run.

Inputs may be a single ``(C, H, W)`` image or a first-class ``(N, C, H, W)``
batch; activations are quantised per image (so a batched run produces
exactly the codes of ``N`` single-image runs) while every matmul amortises
over the whole batch.

A run is validated against the pure-numpy float reference with identical
parameters, walked in lockstep with the engine: after each engine layer,
:func:`repro.engine.reference.reference_layer` computes the same layer on
the reference's own activations, and the two outputs give that layer's
relative error.  The reference's activations are freed by the same
liveness count as the engine's, so validation holds only the live part of
the reference.  A caller that already holds the reference's conv/FC outputs
for the input (a sweep, once per trial group) passes them as
``run(reference_outputs=...)``, and only the cheap auxiliary layers are
recomputed.  The per-layer relative errors quantify what quantisation and
the analog chains cost in accuracy — the paper's core claim is that with
noise disabled this error stays at the quantisation floor.  Throughput
runs can skip the float double-compute with ``run(validate=False)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.context import SimContext
from repro.engine.errors import EngineError
from repro.engine.packed import MODES, PackedMatmul, pack_weights
from repro.engine.params import NetworkParams
from repro.engine.state import LayerState, ProgrammedState
from repro.engine.reference import (
    apply_aux_batched,
    check_activation_shape,
    conv_padding,
    liveness_order,
    reference_forward_batch,
    reference_layer,
    validate_supported,
)
from repro.kernels.dispatch import im2col_pack
from repro.nn.layers import Conv2D, FullyConnected
from repro.nn.network import NETWORK_INPUT, LayerInstance, Network
from repro.nn.quantization import (
    quantize_symmetric_per_channel,
    quantize_unsigned_batch,
)


def _live_buffer_bytes(arrays) -> int:
    """Total bytes of the distinct buffers backing ``arrays``.

    Views (e.g. a flatten output, which is a reshape of its producer) share
    their base's buffer: counting ``nbytes`` per array would double-count
    them, and "freeing" a producer whose view is still live releases
    nothing.  Deduplicating by base buffer charges each allocation once,
    for as long as anything referencing it stays live.
    """
    seen = {}
    for arr in arrays:
        base = arr
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen[id(base)] = base.nbytes
    return sum(seen.values())


def compute_reference_outputs(
    network: Network, params: NetworkParams, x: np.ndarray
) -> Dict[str, np.ndarray]:
    """The float reference's conv/FC outputs for the ``(N, C, H, W)`` batch ``x``.

    The ``reference_outputs`` argument of :meth:`NetworkExecutor.run`: one
    :func:`~repro.engine.reference.reference_forward_batch` pass that keeps
    only the compute layers and frees the rest by liveness (the auxiliary
    layers are cheap to recompute, and dropping them more than halves the
    memory held).  The arrays are marked read-only, since a caller shares
    them between runs.
    """
    names = {inst.name for inst in network.compute_instances}
    outputs = reference_forward_batch(network, params, x, keep=names)[1]
    for out in outputs.values():
        out.flags.writeable = False
    return outputs


def relative_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    """L2-norm relative error of an estimate against its reference."""
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        return float(np.linalg.norm(estimate))
    return float(np.linalg.norm(estimate - reference)) / ref_norm


@dataclass(frozen=True)
class LayerTrace:
    """Per-layer record of one engine run.

    ``rel_error`` is NaN when the run skipped validation.  ``stuck_cells``
    and ``remapped_rows`` count the layer's surviving stuck cells and the
    rows remapped onto spares (see :mod:`repro.faults`); both are zero when
    no fault model is active.  ``readout`` and ``gemm_dtype`` name a
    compute layer's read-out path (``"levels"``, ``"conductances"`` or
    ``"ideal"``, see :mod:`repro.engine.packed`) and the dtype its GEMMs
    ran in; both are ``None`` for auxiliary layers.
    """

    name: str
    kind: str
    crossbars: int
    rel_error: float
    stuck_cells: int = 0
    remapped_rows: int = 0
    readout: Optional[str] = None
    gemm_dtype: Optional[str] = None


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one engine run, with its float-reference comparison.

    ``output`` (and ``reference``, when validation ran) carry a leading
    batch axis exactly when the input did; ``reference`` is ``None`` for
    ``validate=False`` runs.  ``peak_activation_bytes`` is the maximum
    total size of simultaneously live activations during the engine pass
    (the quantity liveness-based freeing bounds).  It counts the engine's
    activations only: a validated run also holds the live float reference
    activations walked beside them, freed by the same liveness count, and
    those are not included.
    ``peak_wired_bytes`` is the maximum weight bytes wired for execution at
    once (the tensors the GEMMs read, see
    :attr:`NetworkExecutor.programmed_bytes`): for a resident executor that
    is every layer's wired tensors for the whole run, for a streamed one
    (``NetworkExecutor(..., stream=True)``) it is the single largest
    layer — the deterministic quantity the streaming memory bound rests
    on, independent of allocator/OS noise.
    """

    model: str
    mode: str
    output: np.ndarray
    reference: Optional[np.ndarray] = None
    traces: List[LayerTrace] = field(default_factory=list)
    peak_activation_bytes: int = 0
    peak_wired_bytes: int = 0
    #: network-wide fault totals (sums of the per-layer trace counts);
    #: zero when the context carries no fault model
    stuck_cells: int = 0
    remapped_rows: int = 0

    @property
    def rel_error(self) -> float:
        """L2 relative error of the final output against the reference.

        NaN when the run skipped validation (no reference was computed).
        """
        if self.reference is None:
            return float("nan")
        return relative_error(self.output, self.reference)

    def trace_by_name(self) -> Dict[str, LayerTrace]:
        return {trace.name: trace for trace in self.traces}


def program_layer(
    inst: LayerInstance, params: NetworkParams, arch, mode: str
) -> LayerState:
    """Program one conv/FC layer: the expensive, noise-free phase.

    Quantises the layer's weights per output channel, lays them out as
    im2col matmul matrices and runs the offset-encode/bit-slice packing of
    :func:`repro.engine.packed.pack_weights` down to integer cell levels
    (or, in ideal mode, the offset-encoded integer weights).
    The result is a plain-array :class:`~repro.engine.state.LayerState` that
    saves, memory-maps and ships across processes; wiring it back into an
    executable layer (:class:`_MappedComputeLayer`) is cheap.
    """
    layer = inst.layer
    p = params[inst.name]
    # Per-output-channel scales: every output channel owns its crossbar
    # column(s), and the TDC read-out is dequantised digitally, so each
    # channel can use the full integer range.
    quant = quantize_symmetric_per_channel(p.weights, arch.weight_bits)
    if isinstance(layer, Conv2D):
        kind = "conv"
        stride, pad, kernel = layer.stride, conv_padding(layer), layer.kernel_h
        n_groups, out_channels = layer.groups, layer.out_channels
        group_out = layer.out_channels // layer.groups
        matrices = [
            quant.values[g * group_out : (g + 1) * group_out].reshape(group_out, -1).T
            for g in range(layer.groups)
        ]  # each (C/g*Z*G, D/g)
    elif isinstance(layer, FullyConnected):
        kind = "fc"
        stride = pad = kernel = 0
        n_groups, out_channels = 1, layer.out_features
        matrices = [quant.values.T]
    else:  # pragma: no cover - guarded by validate_supported
        raise EngineError(f"layer {inst.name!r} is not a compute layer")

    # all groups stacked on one leading axis, in the quantiser's narrow
    # integer dtype: (groups, rows, group_cols)
    q = np.stack(matrices)
    encoded, levels = pack_weights(q, arch, mode)
    cell = arch.cell_spec()
    return LayerState(
        name=inst.name,
        index=inst.index,
        kind=kind,
        out_channels=out_channels,
        n_groups=n_groups,
        w_scales=quant.scales,
        g_min_s=cell.g_min_s,
        g_step_s=cell.g_step_s,
        bias=p.bias,
        stride=stride,
        pad=pad,
        kernel=kernel,
        encoded=encoded,
        levels=levels,
    )


def check_params(params: NetworkParams, network: Network, seed: int) -> None:
    """Reject parameters generated for another network or seed.

    A state programmed from them would carry the request's model and seed,
    hence its content key, over a different payload — and a cache would
    serve it to every later request for the genuine configuration.
    """
    mismatches = []
    if params.network_name != network.name:
        mismatches.append(f"network {params.network_name!r} != {network.name!r}")
    if params.seed != seed:
        mismatches.append(f"seed {params.seed} != {seed}")
    if mismatches:
        raise EngineError(
            "parameters do not match this request: " + "; ".join(mismatches)
        )


def program(
    network: Network,
    ctx: Optional[SimContext] = None,
    mode: str = "analog",
    params: Optional[NetworkParams] = None,
) -> ProgrammedState:
    """Program a network's weights onto crossbars: the one-time phase.

    Quantises, lays out and bit-slices every conv/FC layer into a
    :class:`~repro.engine.state.ProgrammedState` —
    the artifact the paper's economics revolve around: built once, then
    executed many times via :meth:`NetworkExecutor.from_state`, saved to
    disk, or shared across processes.  The state is noise-free (base cell
    levels); programming variation, which varies per Monte-Carlo trial, is
    applied at wiring time from the trial's noise streams.  ``params`` must
    have been generated for ``network`` and ``ctx.seed``.
    """
    if mode not in MODES:
        raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
    ctx = ctx or SimContext()
    validate_supported(network)
    if params is None:
        params = NetworkParams(network, ctx.seed)
    else:
        check_params(params, network, ctx.seed)
    layers = [
        program_layer(inst, params, ctx.arch, mode)
        for inst in network.compute_instances
    ]
    return ProgrammedState(
        model=network.name, mode=mode, seed=ctx.seed, arch=ctx.arch, layers=layers
    )


def _check_state(
    state: ProgrammedState,
    network: Network,
    ctx: SimContext,
    mode: str,
) -> None:
    """Reject a programmed state that does not match the execution request.

    A mismatched state would silently execute the wrong chip: different
    weights (model/seed), different conductance grid (arch), or tensors
    packed for the other mode.  Each is a hard error.  The compute dtype is
    no mismatch: the state holds integers, which wire at any precision.
    """
    mismatches = []
    if state.model != network.name:
        mismatches.append(f"model {state.model!r} != {network.name!r}")
    if state.mode != mode:
        mismatches.append(f"mode {state.mode!r} != {mode!r}")
    if state.seed != ctx.seed:
        mismatches.append(f"seed {state.seed} != {ctx.seed}")
    if state.arch != ctx.arch:
        mismatches.append(f"arch {state.arch} != {ctx.arch}")
    if not mismatches:
        expected = [inst.name for inst in network.compute_instances]
        got = [ls.name for ls in state.layers]
        if got != expected:
            mismatches.append(f"layers {got} != {expected}")
    if mismatches:
        raise EngineError(
            "programmed state does not match this execution request: "
            + "; ".join(mismatches)
        )


def _layer_crossbars(state: LayerState, arch) -> int:
    """Crossbars a layer state occupies, from payload geometry alone.

    Lets a streaming executor report tile counts without wiring any layer
    (reading a memory-mapped payload's ``.shape`` touches no data pages).
    Matches :attr:`PackedMatmul.crossbars`: ``groups x row_tiles x col_tiles``.
    """
    payload = state.encoded if state.encoded is not None else state.levels[0]
    n_groups, rows_needed, group_cols = payload.shape
    row_tiles = math.ceil(rows_needed / arch.rows)
    col_tiles = math.ceil(group_cols / arch.weights_per_col_tile)
    return n_groups * row_tiles * col_tiles


class _MappedComputeLayer:
    """One conv/FC layer wired for execution from its programmed state."""

    def __init__(self, state: LayerState, ctx: SimContext, mode: str):
        self.name = state.name
        self.kind = state.kind
        self.w_scales = state.w_scales  # (out_channels,)
        self.bias = state.bias
        self.stride = state.stride
        self.pad = state.pad
        self.kernel = state.kernel
        self.out_channels = state.out_channels
        # noise scopes derive from the layer index, so noisy draws are
        # independent of how many executors were constructed before this one
        try:
            self._packed = PackedMatmul.from_packed(
                state.encoded, state.levels, ctx, mode, salt=state.index
            )
        except EngineError as exc:
            raise EngineError(f"layer {state.name!r}: {exc}") from exc

    @property
    def crossbars(self) -> int:
        return self._packed.crossbars

    @property
    def fault_report(self):
        """The :class:`repro.faults.FaultReport` of this layer (or ``None``)."""
        return self._packed.fault_report

    @property
    def programmed_bytes(self) -> int:
        return self._packed.packed_bytes

    @property
    def readout_path(self) -> str:
        return self._packed.readout_path

    @property
    def gemm_dtype(self) -> str:
        return str(self._packed.gemm_dtype)

    def _matmul(self, codes: np.ndarray) -> np.ndarray:
        # codes were produced by quantize_unsigned_batch: already in range
        return self._packed.matmul(codes, validate=False)

    def forward(self, acts: np.ndarray, input_bits: int) -> np.ndarray:
        """Quantise a batch, run it through the tiles, dequantise the result.

        ``acts`` is ``(N, C, H, W)`` for conv layers or ``(N, features)``
        for FC layers; each image gets its own quantisation scale while the
        matmuls run once over the whole batch.
        """
        try:
            values, in_scales = quantize_unsigned_batch(acts, input_bits)
        except ValueError as exc:  # negative activations
            raise EngineError(
                f"layer {self.name!r} received negative inputs; the "
                "time-domain engine encodes activations as unsigned "
                "(post-ReLU) codes"
            ) from exc
        n = values.shape[0]
        if self.kind == "fc":
            codes = values.reshape(n, -1)
            out = self._matmul(codes)  # (N, out_features)
            np.multiply(out, self.w_scales[None, :] * in_scales[:, None], out=out)
            if self.bias is not None:
                np.add(out, self.bias, out=out)
            return out
        # conv: one im2col over the batch, gathered straight into the
        # (n * positions, C*K*K) GEMM operand in the layer's code dtype; the
        # channel-major patch layout keeps each group's rows contiguous, so
        # the grouped matmul slices the same columns the per-group im2col
        # used to produce.  Routed through the kernel dispatch layer
        # (compiled gather when available, the numpy strided copy
        # otherwise — same bytes and layout either way).
        cols, out_h, out_w = im2col_pack(
            values, self.kernel, self.stride, self.pad, dtype=self._packed.code_dtype
        )
        positions = out_h * out_w
        out = self._matmul(cols)
        out = out.reshape(n, positions, self.out_channels)
        np.multiply(out, self.w_scales[None, None, :] * in_scales[:, None, None], out=out)
        if self.bias is not None:
            np.add(out, self.bias, out=out)
        return out.transpose(0, 2, 1).reshape(n, self.out_channels, out_h, out_w)


class NetworkExecutor:
    """Execute a network through its crossbar mapping, tracking accuracy.

    Parameters
    ----------
    network:
        A resolved network graph — linear chains and branching DAGs
        (ResNet residual joins, SqueezeNet fire concatenations) alike.
    ctx:
        The :class:`repro.context.SimContext` supplying architecture, noise
        and the seed for deterministic parameter generation.
    mode:
        ``"analog"`` (full time-domain chains) or ``"ideal"`` (exact tile
        read-out; isolates quantisation error from analog error).
    params:
        Optional pre-built parameters, generated for ``network`` and
        ``ctx.seed`` (anything else is an :class:`EngineError`); defaults to
        ``NetworkParams(network, ctx.seed)``.
    state:
        Optional pre-programmed :class:`~repro.engine.state.ProgrammedState`
        (e.g. from a :class:`~repro.engine.state.ProgrammedStateCache`); the
        expensive programming phase is then skipped and the executor is
        wired straight from the stored tensors — bit-for-bit identical
        outputs, noise included.  Without it, the constructor programs the
        network itself (the historical one-shot behaviour, now a thin
        compose of :func:`program` and the wiring step).
    stream:
        With ``True``, no layer is wired at construction: each run wires
        one compute layer at a time — for a disk-backed state on **fresh
        per-layer file handles** (:meth:`ProgrammedState.stream_layer`) —
        executes it and drops every reference before the next layer, so
        peak weight memory is the largest single layer instead of the sum
        over all layers (``ExecutionResult.peak_wired_bytes`` records the
        observed bound).  Outputs are bit-identical to the resident path
        at the same context: noise draws derive from ``(seed, layer
        salt)``, never from wiring order.  Combine with a
        ``ProgrammedState.load(..., mmap=True)`` state for the full
        larger-than-RAM effect.
    """

    def __init__(
        self,
        network: Network,
        ctx: Optional[SimContext] = None,
        mode: str = "analog",
        params: Optional[NetworkParams] = None,
        state: Optional[ProgrammedState] = None,
        stream: bool = False,
    ):
        if mode not in MODES:
            raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
        self.network = network
        self.ctx = ctx or SimContext()
        self.mode = mode
        validate_supported(network)
        if params is None:
            params = NetworkParams(network, self.ctx.seed)
        else:
            check_params(params, network, self.ctx.seed)
        self.params = params
        if state is None:
            state = program(network, self.ctx, mode, params=self.params)
        else:
            _check_state(state, network, self.ctx, mode)
        self.state = state
        self.stream = stream
        #: layer name -> position in ``state.layers`` (compute layers only)
        self._positions: Dict[str, int] = {
            ls.name: i for i, ls in enumerate(state.layers)
        }
        self._compute: Dict[str, _MappedComputeLayer] = {}
        if not stream:
            self._compute = {
                ls.name: _MappedComputeLayer(ls, self.ctx, mode) for ls in state.layers
            }

    def _wire_layer(self, name: str) -> _MappedComputeLayer:
        """The executable layer for ``name`` — resident, or freshly streamed."""
        if not self.stream:
            return self._compute[name]
        streamed = self.state.stream_layer(self._positions[name])
        return _MappedComputeLayer(streamed, self.ctx, self.mode)

    @classmethod
    def from_state(
        cls,
        state: ProgrammedState,
        network: Optional[Network] = None,
        ctx: Optional[SimContext] = None,
        params: Optional[NetworkParams] = None,
        stream: bool = False,
    ) -> "NetworkExecutor":
        """Wire an executor from a programmed state, skipping programming.

        ``network`` defaults to rebuilding the state's model from the zoo;
        ``ctx`` defaults to a noise-free float64 context matching the state
        (pass one with a noise model to apply per-trial programming
        variation on top of the decoded base conductances — the Monte-Carlo
        path).  The context's architecture and seed must match the state's;
        its compute dtype is free, since the layers pick their precision
        when they are wired.  ``stream=True`` wires nothing up front and
        executes layer-by-layer against the state's backing files (see the
        constructor's ``stream`` parameter).
        """
        if network is None:
            from repro.nn.models import build_model

            network = build_model(state.model)
        if ctx is None:
            ctx = SimContext(arch=state.arch, seed=state.seed)
        return cls(network, ctx, state.mode, params=params, state=state, stream=stream)

    @property
    def crossbars(self) -> int:
        """Programmed physical crossbars (pairs counted once, as the mapper does)."""
        if self.stream:
            return sum(
                _layer_crossbars(ls, self.ctx.arch) for ls in self.state.layers
            )
        return sum(layer.crossbars for layer in self._compute.values())

    @property
    def programmed_bytes(self) -> int:
        """Bytes the wired layers hold for their GEMMs, across all layers.

        Per layer: the cell levels in the GEMM dtype (exact-level path),
        the decoded conductances (conductance path) or the encoded matrix
        (ideal mode) — see :attr:`repro.engine.packed.PackedMatmul.packed_bytes`.
        A streaming executor wires nothing up front, so this reports the
        backing state's stored payload bytes (:attr:`ProgrammedState.nbytes`;
        for a memory-mapped state those live on disk, not in RAM —
        ``ExecutionResult.peak_wired_bytes`` is the wired bound there).
        """
        if self.stream:
            return self.state.nbytes
        return sum(layer.programmed_bytes for layer in self._compute.values())

    def random_input(self, salt: int = 1) -> np.ndarray:
        """A deterministic non-negative input image for this context's seed."""
        shape = self.network.input_shape
        return self.ctx.rng(salt).uniform(
            0.0, 1.0, size=(shape.channels, shape.height, shape.width)
        )

    def random_batch(self, n: int, salt: int = 1) -> np.ndarray:
        """``n`` deterministic input images; ``random_batch(1)[0]`` equals
        :meth:`random_input` for the same salt."""
        if n <= 0:
            raise EngineError("batch size must be positive")
        shape = self.network.input_shape
        return self.ctx.rng(salt).uniform(
            0.0, 1.0, size=(n, shape.channels, shape.height, shape.width)
        )

    def _check_reference_outputs(
        self, reference_outputs: Mapping[str, np.ndarray], n: int, validate: bool
    ) -> None:
        """Reject reference outputs that cannot stand for this run's reference."""
        if not validate:
            raise EngineError("reference_outputs is only read by a validated run")
        names = set(reference_outputs)
        missing = [name for name in self._positions if name not in names]
        extra = sorted(names.difference(self._positions))
        if missing or extra:
            raise EngineError(
                "reference_outputs must hold exactly the compute layers: "
                f"missing {missing}, extra {extra}"
            )
        for name, ref in reference_outputs.items():
            if np.ndim(ref) == 0 or np.shape(ref)[0] != n:
                raise EngineError(
                    f"reference output {name!r} has shape {np.shape(ref)}, "
                    f"not a batch of {n}"
                )

    def run(
        self,
        x: Optional[np.ndarray] = None,
        validate: bool = True,
        free_activations: bool = True,
        reference_outputs: Optional[Mapping[str, np.ndarray]] = None,
    ) -> ExecutionResult:
        """Execute ``x`` (default: :meth:`random_input`) through the crossbars.

        The network graph is walked in deterministic topological order; for
        a linear chain that is exactly the declaration order, so sequential
        models take the same numeric path as the flat executor always did.
        An activation is freed as soon as its last consumer has run
        (``free_activations=False`` keeps everything resident — the tests
        use it to pin the liveness memory win); the observed peak is
        reported as ``peak_activation_bytes``.

        ``x`` may be a single ``(C, H, W)`` image or an ``(N, C, H, W)``
        batch; the output mirrors the input's batchedness.  A validated run
        computes the float reference layer by layer beside the engine (see
        the module docstring) and frees it by the same liveness.  With
        ``validate=False`` the reference is skipped entirely (the per-layer
        traces then carry NaN relative errors) — use it for throughput runs
        where the double-compute would dominate.

        ``reference_outputs`` maps every compute (conv/FC) layer's name to
        its ``(N, ...)`` float reference output for this very input, as
        :func:`compute_reference_outputs` returns them.  The validation
        then reads those layers instead of recomputing them and recomputes
        only the auxiliary layers: the result is bit for bit that of a
        plain validated run.  The arrays are only read.  A missing or extra
        layer, another batch size or ``validate=False`` is an
        :class:`EngineError`.
        """
        act = np.asarray(x, dtype=float) if x is not None else self.random_input()
        single = act.ndim == 3
        if single:
            batch = act[None]
        elif act.ndim == 4 and act.shape[0] > 0:
            batch = act
        else:
            raise EngineError(
                "engine inputs must be (channels, height, width) images or "
                f"non-empty (batch, channels, height, width) batches, got shape {act.shape}"
            )
        if not (np.isfinite(batch).all() and (batch >= 0).all()):
            raise EngineError(
                "engine inputs must be finite and non-negative (unsigned input codes)"
            )

        if reference_outputs is not None:
            self._check_reference_outputs(reference_outputs, batch.shape[0], validate)
        # the float reference's live activations, walked beside ``live``
        ref_live: Optional[Dict[str, np.ndarray]] = (
            {NETWORK_INPUT: batch} if validate else None
        )

        output_name = self.network.output.name
        live: Dict[str, np.ndarray] = {NETWORK_INPUT: batch}
        peak_bytes = _live_buffer_bytes(live.values())
        peak_wired = 0 if self.stream else self.programmed_bytes
        total_stuck = total_remapped = 0
        traces: List[LayerTrace] = []
        for inst, dying in liveness_order(self.network):
            operands = [live[src] for src in inst.inputs]
            layer_stuck = layer_remapped = 0
            readout = gemm_dtype = None
            if inst.name in self._positions:
                mapped = self._wire_layer(inst.name)
                out = mapped.forward(operands[0], self.ctx.arch.input_bits)
                crossbars = mapped.crossbars
                readout, gemm_dtype = mapped.readout_path, mapped.gemm_dtype
                report = mapped.fault_report
                if report is not None:
                    layer_stuck = report.stuck_cells
                    layer_remapped = report.remapped_rows
                    total_stuck += layer_stuck
                    total_remapped += layer_remapped
                if self.stream:
                    peak_wired = max(peak_wired, mapped.programmed_bytes)
                    # drop the streamed layer (and its file handles) before
                    # the next layer wires — this is the streaming bound
                    del mapped
            else:
                out = apply_aux_batched(inst, operands, self.params)
                crossbars = 0
            del operands  # the engine's inputs may die before the reference step
            # every batch slice shares out.shape[1:], so checking one image
            # checks them all with the reference path's own shape logic
            check_activation_shape(inst, out[0])
            live[inst.name] = out
            peak_bytes = max(peak_bytes, _live_buffer_bytes(live.values()))
            dead = dying if free_activations else []
            for name in dead:
                del live[name]
            rel_error = float("nan")
            if ref_live is not None:
                # the same layer on the reference's own activations, which
                # die with the engine's once this step has read them
                if reference_outputs is not None and inst.name in self._positions:
                    ref_out = reference_outputs[inst.name]
                    check_activation_shape(inst, ref_out[0])
                else:
                    ref_out = reference_layer(
                        inst, [ref_live[src] for src in inst.inputs], self.params
                    )
                ref_live[inst.name] = ref_out
                rel_error = relative_error(out, ref_out)
                for name in dead:
                    del ref_live[name]
            traces.append(
                LayerTrace(
                    name=inst.name,
                    kind=inst.kind,
                    crossbars=crossbars,
                    rel_error=rel_error,
                    stuck_cells=layer_stuck,
                    remapped_rows=layer_remapped,
                    readout=readout,
                    gemm_dtype=gemm_dtype,
                )
            )
        output = live[output_name]
        reference = None
        if ref_live is not None:
            reference = ref_live[output_name][0] if single else ref_live[output_name]
        return ExecutionResult(
            model=self.network.name,
            mode=self.mode,
            output=output[0] if single else output,
            reference=reference,
            traces=traces,
            peak_activation_bytes=peak_bytes,
            peak_wired_bytes=peak_wired,
            stuck_cells=total_stuck,
            remapped_rows=total_remapped,
        )


def run_network(
    network: Network,
    ctx: Optional[SimContext] = None,
    x: Optional[np.ndarray] = None,
    mode: str = "analog",
    validate: bool = True,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`NetworkExecutor`."""
    return NetworkExecutor(network, ctx, mode).run(x, validate=validate)
