"""Packed-engine tests: the packed vectorized execution path pinned against
the per-crossbar oracle of ``crossbar_oracle.py`` (noiseless, across cell
splits, grouped convolutions, partial edge tiles and whole networks), the
exact-level read-out against the conductance read-out, the batch-dimension
semantics and validation gating."""

import copy

import numpy as np
import pytest
from crossbar_oracle import tiled_matmul
from engine_helpers import grouped_conv_net, run_network
from quantization_oracle import quantize_unsigned

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import ArchSpec, SimContext
from repro.engine import (
    EngineError,
    NetworkExecutor,
    NetworkParams,
    PackedMatmul,
    program,
    reference_forward_batch,
    relative_error,
)
from repro.engine.packed import level_conductances, pack_weights
from repro.faults import FaultModel
from repro.nn import functional as F
from repro.nn.models import build_model
from repro.nn.quantization import quantize_unsigned_batch

RNG = np.random.default_rng(31)


def _oracle_run(network, ctx, mode, x):
    """Run ``network`` on ``x`` with the oracle serving every compute layer.

    Each layer's matmul is swapped for :func:`tiled_matmul` on the layer's
    quantised weights (recovered exactly from an ideal-mode programming as
    ``encoded - offset``), which also checks that the oracle programs as
    many crossbars as :mod:`repro.mapping` counts for the layer.
    """
    executor = NetworkExecutor(network, ctx, mode)
    ideal = program(network, ctx, "ideal", params=executor.params)
    offset = 2 ** (ctx.arch.weight_bits - 1)
    mapped = ctx.map_network(network).by_name()
    for layer in ideal.layers:

        def oracle(
            codes, delays=None, q=layer.encoded.astype(np.int64) - offset, name=layer.name
        ):
            # noiseless runs only: ``delays`` is never set
            out, crossbars = tiled_matmul(q, codes, ctx.arch, mode)
            assert crossbars == mapped[name].crossbars
            return out

        executor._compute[layer.name]._matmul = oracle
    return executor.run(x)


# ---------------------------------------------------------------------------
# matmul-level equivalence: packed vs the per-crossbar oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "weight_bits,cell_bits",
    [(4, 4), (8, 8), (8, 4), (8, 2), (16, 4)],  # cols_per_weight = 1, 1, 2, 4, 4
)
@pytest.mark.parametrize("mode", ["analog", "ideal"])
def test_packed_matches_tiled_across_cell_splits(weight_bits, cell_bits, mode):
    """Every slice count agrees with the oracle on partial edge tiles:
    analog to 1e-9, ideal bit for bit."""
    arch = ArchSpec(rows=16, cols=16, weight_bits=weight_bits, cell_bits=cell_bits)
    qmax = 2 ** (weight_bits - 1) - 1
    # 40 rows -> 2.5 row tiles, 21 cols -> partial column tile too
    q = RNG.integers(-qmax, qmax + 1, size=(40, 21))
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(5, 40))
    packed = PackedMatmul(q, SimContext(arch=arch), mode)
    reference, crossbars = tiled_matmul(q, codes, arch, mode)
    assert packed.crossbars == crossbars
    result = packed.matmul(codes)
    if mode == "ideal":
        np.testing.assert_array_equal(result, reference)
        np.testing.assert_array_equal(result, codes @ q)
    else:
        assert relative_error(result, reference) <= 1e-9
        # and both recover the exact integer product noiselessly
        assert relative_error(result, codes @ q) <= 1e-9


def test_packed_grouped_matches_per_group_tiled():
    """A (groups, rows, cols) stack equals the oracle's per-group tiles."""
    arch = ArchSpec(rows=16, cols=16)
    groups, rows, cols = 3, 30, 8
    q = RNG.integers(-127, 128, size=(groups, rows, cols))
    codes = RNG.integers(0, 256, size=(4, groups * rows))
    packed = PackedMatmul(q, SimContext(arch=arch), "analog")
    reference, crossbars = tiled_matmul(q, codes, arch, "analog")
    assert packed.crossbars == crossbars == groups * 2  # 2 row tiles x 1 col tile
    assert relative_error(packed.matmul(codes), reference) <= 1e-9


def test_packed_rejects_bad_weights_and_codes():
    ctx = SimContext()
    with pytest.raises(EngineError):
        PackedMatmul(np.full((4, 4), 128), ctx)  # > qmax for 8-bit
    with pytest.raises(EngineError):
        PackedMatmul(np.zeros((2, 2, 2, 2), dtype=int), ctx)  # 4-D
    packed = PackedMatmul(np.zeros((4, 4), dtype=int), ctx)
    with pytest.raises(EngineError):
        packed.matmul(np.full((2, 4), 256))  # > 8-bit input code
    with pytest.raises(EngineError):
        packed.matmul(np.zeros((2, 5), dtype=int))  # wrong row count


def test_packed_rejects_non_integer_float_codes():
    packed = PackedMatmul(np.zeros((4, 4), dtype=int), SimContext())
    with pytest.raises(EngineError, match="integers"):
        packed.matmul(np.full((2, 4), 1.5))
    with pytest.raises(EngineError, match="integers"):
        packed.matmul(np.array([[0.0, 1.0, np.nan, 2.0]]))
    # integer-valued floats are codes like any other
    np.testing.assert_array_equal(
        packed.matmul(np.full((2, 4), 3.0)), packed.matmul(np.full((2, 4), 3))
    )


# ---------------------------------------------------------------------------
# the two analog read-out paths: exact levels vs conductances
# ---------------------------------------------------------------------------

def _conductance_twin(packed: PackedMatmul) -> PackedMatmul:
    """The same wired layer, forced onto the conductance read-out."""
    cell = packed.ctx.arch.cell_spec()
    twin = copy.copy(packed)
    twin._conductances = [
        level_conductances(levels, cell.g_min_s, cell.g_step_s, packed.compute_dtype)
        for levels in packed._levels
    ]
    twin._levels = None
    assert twin.readout_path == "conductances"
    return twin


@pytest.mark.parametrize(
    "weight_bits,cell_bits",
    [(4, 4), (8, 8), (8, 4), (8, 2), (16, 4)],
)
@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("chunk_bytes", [None, 4096])
@pytest.mark.parametrize("saturation", [None, 0.3])
def test_exact_level_path_matches_conductance_path(
    weight_bits, cell_bits, grouped, chunk_bytes, saturation
):
    """On one noiseless layer the exact-level read-out agrees with the
    conductance read-out to 1e-12 — partial row and column tiles, grouped
    stacks, chunked or not, with read-out saturation clipping."""
    arch = ArchSpec(rows=16, cols=16, weight_bits=weight_bits, cell_bits=cell_bits)
    qmax = 2 ** (weight_bits - 1) - 1
    shape = (3, 30, 8) if grouped else (40, 21)  # 2-3 row tiles, partial col tile
    q = RNG.integers(-qmax, qmax + 1, size=shape)
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(50, int(np.prod(shape[:-1]))))
    faults = None if saturation is None else FaultModel(readout_saturation=saturation)
    ctx = SimContext(arch=arch, chunk_bytes=chunk_bytes, faults=faults)
    packed = PackedMatmul(q, ctx, "analog")
    assert packed.readout_path == "levels"
    assert packed.gemm_dtype == np.float32  # dot_max <= 255 * 255 * 16 < 2**24
    levels = packed.matmul(codes)
    conductances = _conductance_twin(packed).matmul(codes)
    assert relative_error(levels, conductances) <= 1e-12
    if saturation is None:  # and both recover the exact integer products
        stack = q.reshape(-1, *shape[-2:])
        rows = stack.shape[1]
        exact = np.hstack(
            [codes[:, g * rows : (g + 1) * rows] @ w for g, w in enumerate(stack)]
        )
        assert relative_error(levels, exact) <= 1e-9


def test_exact_level_path_widens_to_float64_past_the_float32_bound():
    """16-bit inputs push dot_max past 2**24: the level GEMM runs in float64."""
    arch = ArchSpec(weight_bits=16, cell_bits=4, input_bits=16)
    q = RNG.integers(-(2 ** 15) + 1, 2 ** 15, size=(300, 21))  # 2 row tiles
    codes = RNG.integers(0, 2 ** 16, size=(7, 300))
    packed = PackedMatmul(q, SimContext(arch=arch), "analog")
    assert packed.readout_path == "levels" and packed.gemm_dtype == np.float64
    result = packed.matmul(codes)
    assert relative_error(result, _conductance_twin(packed).matmul(codes)) <= 1e-12
    assert relative_error(result, codes @ q) <= 1e-9


@pytest.mark.parametrize("cell_bits", [9, 12, 16])
def test_pack_weights_allows_cells_wider_than_the_weights(cell_bits):
    """An 8-bit weight fits one cell of 9 to 16 bits: pack_weights returns a
    single uint16 slice of the offset-encoded weights, in q's layout."""
    arch = ArchSpec(cell_bits=cell_bits)
    rng = np.random.default_rng(cell_bits)
    q = np.asfortranarray(rng.integers(-127, 128, size=(2, 40, 21), dtype=np.int8))
    encoded, levels = pack_weights(q, arch, "analog")
    assert encoded is None and len(levels) == arch.cols_per_weight == 1
    (stored,) = levels
    assert stored.dtype == np.uint16
    assert stored.flags.f_contiguous and not stored.flags.c_contiguous
    np.testing.assert_array_equal(stored, q.astype(np.int64) + 128)


@pytest.mark.parametrize(
    "ctx,path",
    [
        (SimContext(), "levels"),
        (SimContext(noise=HardwareNoiseConfig.scaled(0.0, seed=1)), "levels"),
        # sources the packed engine does not model leave the grid intact
        (SimContext(noise=HardwareNoiseConfig(seed=1, dtc_sigma=0.0, reram_conductance_sigma=0.0)), "levels"),
        (SimContext(noise=HardwareNoiseConfig(seed=1, dtc_sigma=0.0)), "conductances"),
        (SimContext(noise=HardwareNoiseConfig(seed=1, reram_conductance_sigma=0.0)), "conductances"),
        (SimContext(faults=FaultModel(stuck_on_fraction=0.05, seed=1)), "conductances"),
        (SimContext(faults=FaultModel(drift_nu=0.1, drift_time_s=10.0)), "conductances"),
        (SimContext(faults=FaultModel(readout_saturation=0.5)), "levels"),
    ],
)
def test_readout_path_follows_the_noise_and_fault_configuration(ctx, path):
    q = RNG.integers(-127, 128, size=(40, 21))
    assert PackedMatmul(q, ctx, "analog").readout_path == path
    assert PackedMatmul(q, ctx, "ideal").readout_path == "ideal"


def test_noiseless_float32_run_equals_the_float64_run():
    """The exact-level GEMM does not depend on the compute dtype, so a
    noiseless float32 network run is bit-identical to the float64 one."""
    network = grouped_conv_net()
    x = NetworkExecutor(network, SimContext()).random_batch(2)
    runs = [
        NetworkExecutor(network, SimContext(compute_dtype=dtype)).run(x)
        for dtype in ("float64", "float32")
    ]
    np.testing.assert_array_equal(runs[0].output, runs[1].output)
    assert {t.gemm_dtype for r in runs for t in r.traces if t.readout} == {"float32"}


def test_packed_stores_true_size_not_padded_tiles():
    """Partial tiles live at their true height x width in the packed tensors."""
    arch = ArchSpec()  # 256x256, 2 slices per 8-bit weight
    q = RNG.integers(-10, 10, size=(30, 5))
    packed = PackedMatmul(q, SimContext(arch=arch))
    # the exact-level GEMMs read two float32 level tensors of the true 30x5
    # shape — not 256x256 padding
    assert packed.readout_path == "levels"
    assert packed.packed_bytes == 2 * 30 * 5 * 4
    # the conductance path holds the decoded float64 conductances instead
    noisy = PackedMatmul(q, SimContext(arch=arch, noise=HardwareNoiseConfig(seed=1)))
    assert noisy.readout_path == "conductances"
    assert noisy.packed_bytes == 2 * 30 * 5 * 8


# ---------------------------------------------------------------------------
# executor-level equivalence and batch semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["analog", "ideal"])
def test_cnn1_packed_run_matches_tiled_run_noiseless(mode):
    """The acceptance bar: cnn_1 agrees with the oracle-driven run to
    <= 1e-9 in analog mode and bit for bit in ideal mode."""
    network = build_model("cnn_1")
    ctx = SimContext()
    x = NetworkExecutor(network, ctx).random_input()
    packed = NetworkExecutor(network, ctx, mode).run(x)
    oracle = _oracle_run(network, ctx, mode, x)
    assert relative_error(packed.output, oracle.output) <= 1e-9
    if mode == "ideal":
        np.testing.assert_array_equal(packed.output, oracle.output)


def test_grouped_conv_network_matches_across_backends():
    """The grouped-conv net agrees with the oracle-driven run."""
    network = grouped_conv_net()
    ctx = SimContext(seed=2)
    x = NetworkExecutor(network, ctx).random_input()
    packed = NetworkExecutor(network, ctx).run(x)
    oracle = _oracle_run(network, ctx, "analog", x)
    assert relative_error(packed.output, oracle.output) <= 1e-9
    assert packed.rel_error < 5e-2  # still at the quantisation floor


def test_batched_run_equals_stacked_single_runs():
    """Per-image quantisation makes a batch N independent runs.

    The integer codes are identical, so the ideal (exact integer) mode is
    bit-for-bit equal; the analog mode agrees to float tolerance (BLAS may
    re-block the larger batched matmul, reordering float accumulation).
    """
    network = grouped_conv_net()
    ctx = SimContext()
    exact = NetworkExecutor(network, ctx, mode="ideal")
    batch = exact.random_batch(3)
    batched = exact.run(batch)
    assert batched.output.shape[0] == 3
    singles = np.stack([exact.run(batch[i]).output for i in range(3)])
    np.testing.assert_array_equal(batched.output, singles)
    # the reference is batched too and the traces aggregate over the batch
    assert batched.reference.shape == batched.output.shape
    assert all(np.isfinite(trace.rel_error) for trace in batched.traces)

    analog = NetworkExecutor(network, ctx, mode="analog")
    batched = analog.run(batch, validate=False)
    singles = np.stack(
        [analog.run(batch[i], validate=False).output for i in range(3)]
    )
    np.testing.assert_allclose(batched.output, singles, rtol=1e-10, atol=1e-12)


def test_batch_of_one_matches_single_image_run():
    network = build_model("tiny_cnn")
    ctx = SimContext()
    executor = NetworkExecutor(network, ctx)
    x = executor.random_input()
    single = executor.run(x)
    batched = executor.run(x[None])
    assert single.output.shape == batched.output.shape[1:]
    np.testing.assert_array_equal(single.output, batched.output[0])


def test_run_rejects_wrong_rank_inputs():
    executor = NetworkExecutor(build_model("tiny_mlp"), SimContext())
    with pytest.raises(EngineError):
        executor.run(np.zeros((2, 2, 1, 8, 8)))
    with pytest.raises(EngineError):
        executor.random_batch(0)


def test_validate_false_skips_reference_but_keeps_output():
    network = build_model("tiny_cnn")
    ctx = SimContext()
    executor = NetworkExecutor(network, ctx)
    x = executor.random_input()
    checked = executor.run(x)
    unchecked = executor.run(x, validate=False)
    np.testing.assert_array_equal(checked.output, unchecked.output)
    assert unchecked.reference is None
    assert np.isnan(unchecked.rel_error)
    assert len(unchecked.traces) == len(checked.traces)
    assert all(np.isnan(trace.rel_error) for trace in unchecked.traces)


def test_packed_noise_is_reproducible_and_bounded():
    """Noisy runs are exactly reproducible from the noise seed and stay
    bounded."""
    network = build_model("tiny_cnn")

    def noisy_run():
        ctx = SimContext(noise=HardwareNoiseConfig(seed=11))
        return run_network(network, ctx)

    a, b = noisy_run(), noisy_run()
    np.testing.assert_array_equal(a.output, b.output)
    noiseless = run_network(network, SimContext())
    assert a.rel_error > noiseless.rel_error
    assert a.rel_error < 1.0


@pytest.mark.parametrize("stride", [1, 2])
def test_dtc_jitter_is_drawn_once_per_input_element(stride, monkeypatch):
    """O2IR: a conv layer converts each input element once and forwards
    the delay to every window that reads it.  In the delay operand that
    reaches the read-out, all entries gathered from one input element hold
    one value, padded taps hold exactly 0.0, and the values are the layer's
    read stream's ``DTC.convert`` of its ``(N, C, H, W)`` codes."""
    from repro.engine.executor import _MappedComputeLayer
    from repro.nn.layers import TensorShape
    from repro.nn.network import NetworkBuilder

    builder = NetworkBuilder("o2ir", TensorShape(3, 9, 9))
    builder.conv(4, 3, stride=stride, padding=1, name="conv").relu()
    network = builder.build()
    noise = HardwareNoiseConfig(
        x_subbuf_sigma=0.0,
        p_subbuf_sigma=0.0,
        i_adder_sigma=0.0,
        comparator_sigma=0.0,
        dtc_sigma=0.3,
        tdc_sigma=0.0,
        reram_conductance_sigma=0.0,
        seed=9,
    )
    ctx = SimContext(noise=noise)
    executor = NetworkExecutor(network, ctx)
    seen = {}
    forward, read_out = _MappedComputeLayer.forward, PackedMatmul._read_out

    def recording_forward(self, acts, input_bits):
        seen["acts"] = acts
        return forward(self, acts, input_bits)

    def recording_read_out(self, operand, tensors, positions, delay_sums=False):
        seen["operand"] = operand.copy()
        return read_out(self, operand, tensors, positions, delay_sums)

    monkeypatch.setattr(_MappedComputeLayer, "forward", recording_forward)
    monkeypatch.setattr(PackedMatmul, "_read_out", recording_read_out)
    x = executor.random_batch(2)
    executor.run(x, validate=False)

    (operand,) = seen["operand"]  # one group: (positions, C * 3 * 3)
    codes, _ = quantize_unsigned_batch(seen["acts"], ctx.arch.input_bits)
    # which input element each operand entry was gathered from (0: padding)
    index = np.arange(1, codes.size + 1, dtype=float).reshape(codes.shape)
    gathered, _, _ = F.im2col_batch(index, 3, stride, 1)
    gathered = gathered.reshape(operand.shape).astype(np.int64)
    padded = gathered == 0
    assert padded.any() and not padded.all()
    by_element = np.full(codes.size + 1, np.nan)
    by_element[gathered] = operand  # any one entry per element
    np.testing.assert_array_equal(operand, by_element[gathered])
    assert np.all(operand[padded] == 0.0)
    replay = noise.stream("packed", network.compute_instances[0].index, "read")
    expected = ctx.arch.dtc().convert(codes, replay).ravel()
    used = np.unique(gathered[~padded])
    assert by_element[used].tobytes() == expected[used - 1].tobytes()


def test_packed_executor_crossbars_match_mapping():
    """Including the awkward cell_bits=3 split (85 weights per 256-col tile)."""
    network = build_model("cnn_1")
    for arch in (ArchSpec(), ArchSpec(cell_bits=3, weight_bits=8)):
        ctx = SimContext(arch=arch)
        executor = NetworkExecutor(network, ctx)
        assert executor.crossbars == ctx.map_network(network).total_crossbars


# ---------------------------------------------------------------------------
# batched kernel helpers
# ---------------------------------------------------------------------------

def test_im2col_batch_matches_per_image_im2col():
    for n, channels, size, kernel, stride, pad in [
        (3, 4, 11, 3, 1, 1),
        (2, 2, 9, 4, 2, 0),
        (1, 5, 8, 3, 2, 1),
    ]:
        x = RNG.normal(size=(n, channels, size, size))
        cols, oh, ow = F.im2col_batch(x, kernel, stride, pad)
        for i in range(n):
            ref, oh2, ow2 = F.im2col_batch(x[i : i + 1], kernel, stride, pad)
            assert (oh, ow) == (oh2, ow2)
            np.testing.assert_array_equal(cols[i], ref[0])


def test_float_reference_runs_without_the_engine_kernels(monkeypatch):
    """The float reference shares no code with the engine it checks: with
    the engine's im2col gather and fused read-out made to raise, wherever
    they are bound, the reference still runs while the engine cannot."""
    import repro.engine.executor as executor_module
    import repro.engine.packed as packed_module
    from repro.kernels import c_impl, dispatch, numpy_impl

    def refuse(*args, **kwargs):
        raise AssertionError("engine kernel called")

    # the tier modules too, so a name imported from dispatch elsewhere
    # still lands on a refusing implementation
    for module in (dispatch, executor_module, c_impl, numpy_impl):
        monkeypatch.setattr(module, "im2col_pack", refuse)
    for module in (dispatch, packed_module, c_impl, numpy_impl):
        monkeypatch.setattr(module, "readout_fused", refuse)
    for network in (build_model("resnet_smoke"), grouped_conv_net()):
        shape = network.input_shape
        size = (2, shape.channels, shape.height, shape.width)
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=size)
        out, acts = reference_forward_batch(network, NetworkParams(network, seed=0), x)
        assert out.shape[0] == 2 and np.all(np.isfinite(out))
        assert len(acts) == len(network)
        with pytest.raises(AssertionError, match="engine kernel called"):
            NetworkExecutor(network, SimContext()).run(x, validate=False)


def test_quantize_unsigned_batch_matches_per_image():
    x = RNG.uniform(0.0, 3.0, size=(4, 2, 5, 5))
    x[2] = 0.0  # all-zero image takes the scale-1.0 path
    values, scales = quantize_unsigned_batch(x, 8)
    for i in range(4):
        single = quantize_unsigned(x[i], 8)
        np.testing.assert_array_equal(values[i], single.values)
        assert scales[i] == single.scale
    with pytest.raises(ValueError):
        quantize_unsigned_batch(-x, 8)
    with pytest.raises(ValueError):
        quantize_unsigned_batch(x[0, 0, 0], 8)  # no batch axis
