"""Functional-engine tests: end-to-end crossbar execution vs the float
reference, tile-level integer exactness, context threading and the
vectorized-kernel micro-benchmark required by the engine."""

import time

import numpy as np
import pytest
from crossbar_oracle import tiled_matmul
from engine_helpers import grouped_conv_net, run_network

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import ArchSpec, SimContext
from repro.engine import (
    EngineError,
    NetworkExecutor,
    NetworkParams,
    reference_forward_batch,
    validate_supported,
)
from repro.nn import functional as F
from repro.nn.models import build_model

RNG = np.random.default_rng(7)

#: the paper's ISAAC-comparison precision: 16-bit weights on four 4-bit
#: cell slices, 16-bit inputs — the configuration the accuracy claim targets
ISAAC_PRECISION = ArchSpec(weight_bits=16, input_bits=16)


# ---------------------------------------------------------------------------
# the per-crossbar oracle (crossbar_oracle.py) against exact integer matmuls
# ---------------------------------------------------------------------------

def test_tiled_matmul_matches_integer_matmul_across_tiles():
    """A matrix spanning several row and column tiles recombines exactly."""
    arch = ArchSpec(rows=16, cols=16)  # 8 weights per col tile
    q = RNG.integers(-127, 128, size=(40, 20))  # 3 row tiles x 3 col tiles
    codes = RNG.integers(0, 256, size=(5, 40))
    result, crossbars = tiled_matmul(q, codes, arch, "analog")
    assert crossbars == 9
    np.testing.assert_allclose(result, codes @ q, rtol=1e-9, atol=1e-6)


def test_tiled_matmul_ideal_mode_is_exact():
    arch = ArchSpec(rows=32, cols=32)
    q = RNG.integers(-127, 128, size=(50, 10))
    codes = RNG.integers(0, 256, size=(4, 50))
    np.testing.assert_array_equal(tiled_matmul(q, codes, arch, "ideal")[0], codes @ q)


@pytest.mark.parametrize("weight_bits,cell_bits", [(4, 4), (8, 4), (16, 4), (16, 8)])
def test_tiled_matmul_supports_all_cell_splits(weight_bits, cell_bits):
    """1-, 2- and 4-column weight slicing all recover the signed matmul."""
    arch = ArchSpec(rows=32, cols=32, cell_bits=cell_bits, weight_bits=weight_bits)
    qmax = 2 ** (weight_bits - 1) - 1
    q = RNG.integers(-qmax, qmax + 1, size=(20, 6))
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(3, 20))
    result, _ = tiled_matmul(q, codes, arch, "analog")
    np.testing.assert_allclose(result, codes @ q, rtol=1e-9, atol=1e-5)


# ---------------------------------------------------------------------------
# whole-network execution
# ---------------------------------------------------------------------------

def test_engine_cnn1_matches_reference_within_quantization_tolerance():
    """The acceptance bar: cnn_1 through the analog chains, rel error < 1e-2."""
    network = build_model("cnn_1")
    ctx = SimContext(arch=ISAAC_PRECISION)
    result = NetworkExecutor(network, ctx, mode="analog").run()
    assert result.rel_error < 1e-2
    # per-layer errors stay at the quantisation floor too
    assert all(trace.rel_error < 1e-2 for trace in result.traces)


def test_engine_8bit_default_sits_at_its_quantization_floor():
    """The PRIME-comparison 8-bit config carries visible quantisation error
    (that is the point of quantisation), but stays bounded."""
    result = run_network(build_model("cnn_1"))
    assert 1e-4 < result.rel_error < 5e-2


def test_engine_analog_equals_ideal_when_noiseless():
    """With every noise source disabled the time-domain chains are exact, so
    the analog path must reproduce the ideal integer read-out bit-for-bit
    (up to float rounding)."""
    network = build_model("tiny_cnn")
    ctx = SimContext()
    x = NetworkExecutor(network, ctx).random_input()
    analog = NetworkExecutor(network, ctx, mode="analog").run(x)
    ideal = NetworkExecutor(network, ctx, mode="ideal").run(x)
    np.testing.assert_allclose(analog.output, ideal.output, rtol=1e-7)


def test_engine_crossbar_count_matches_mapping():
    """The executor programs exactly the tiles the analytic mapper counts —
    including when cols_per_weight does not divide the tile width (cell_bits=3
    gives 3 bit-columns per weight, 85 whole weights per 256-column tile)."""
    network = build_model("cnn_1")
    for arch in (ArchSpec(), ArchSpec(cell_bits=3, weight_bits=8)):
        ctx = SimContext(arch=arch)
        executor = NetworkExecutor(network, ctx)
        assert executor.crossbars == ctx.map_network(network).total_crossbars


def test_engine_rejects_non_square_kernels():
    from repro.nn import TensorShape
    from repro.nn.layers import Conv2D
    from repro.nn.network import NetworkBuilder

    builder = NetworkBuilder("rect", TensorShape(1, 8, 8))
    builder.add_layer(
        Conv2D(name="c", in_channels=1, out_channels=2, kernel_h=3, kernel_w=1)
    )
    with pytest.raises(EngineError):
        NetworkExecutor(builder.build(), SimContext())


def test_engine_is_deterministic_per_seed():
    network = build_model("tiny_cnn")
    a = run_network(network, SimContext(seed=3))
    b = run_network(network, SimContext(seed=3))
    c = run_network(network, SimContext(seed=4))
    np.testing.assert_array_equal(a.output, b.output)
    assert not np.array_equal(a.output, c.output)


def test_engine_noise_injection_degrades_but_does_not_explode():
    network = build_model("tiny_cnn")
    noiseless = run_network(network, SimContext(arch=ISAAC_PRECISION))
    noisy = run_network(
        network,
        SimContext(arch=ISAAC_PRECISION, noise=HardwareNoiseConfig(seed=11)),
    )
    assert noisy.rel_error > noiseless.rel_error
    assert noisy.rel_error < 1.0


#: DTC jitter as the only noise source: every compute layer reads out on
#: the conductance path, and only the DTCs draw
DTC_ONLY = HardwareNoiseConfig(
    x_subbuf_sigma=0.0,
    p_subbuf_sigma=0.0,
    i_adder_sigma=0.0,
    comparator_sigma=0.0,
    dtc_sigma=0.01,
    tdc_sigma=0.0,
    reram_conductance_sigma=0.0,
    seed=5,
)


@pytest.mark.parametrize(
    "name", ["tiny_cnn", "cnn_1", "resnet_smoke", "squeezenet", "grouped"]
)
def test_dtc_draws_equal_the_priced_conversions(name, monkeypatch):
    """The engine executes the DTC conversions the estimator prices: under
    O2IR each input element is converted once per image, so a compute
    layer's jittered conversions over a batch of 2 are exactly twice
    ``timely_access_counts(...).input_conversions``."""
    from repro.circuits.converters import DTC
    from repro.engine.executor import _MappedComputeLayer
    from repro.mapping import timely_access_counts

    network = grouped_conv_net() if name == "grouped" else build_model(name)
    ctx = SimContext(noise=DTC_ONLY)
    executor = NetworkExecutor(network, ctx)
    converted = {}
    layer = [None]
    convert, forward = DTC.convert, _MappedComputeLayer.forward

    def counting_convert(self, code, noise=None):
        converted[layer[0]] = converted.get(layer[0], 0) + np.size(code)
        return convert(self, code, noise)

    def tagged_forward(self, acts, input_bits):
        layer[0] = self.name
        try:
            return forward(self, acts, input_bits)
        finally:
            layer[0] = None

    monkeypatch.setattr(DTC, "convert", counting_convert)
    monkeypatch.setattr(_MappedComputeLayer, "forward", tagged_forward)
    result = executor.run(executor.random_batch(2), validate=False)
    assert {t.readout for t in result.traces if t.readout} == {"conductances"}
    mapping = ctx.map_network(network).by_name()
    priced = {
        inst.name: 2 * timely_access_counts(mapping[inst.name], ctx.arch).input_conversions
        for inst in network.compute_instances
    }
    assert converted == priced


def test_engine_executes_branching_networks():
    """The graph executor runs residual topologies end to end (the full
    resnet_18/squeezenet runs are covered by the graph-IR test module and
    the CLI smoke; the truncated stem+block model keeps this fast)."""
    result = run_network(build_model("resnet_smoke"), SimContext(arch=ISAAC_PRECISION))
    assert result.rel_error < 1e-2


def test_engine_rejects_negative_inputs():
    """Negative and non-finite inputs fail loudly, not as a NaN output."""
    network = build_model("tiny_mlp")
    executor = NetworkExecutor(network, SimContext())
    x = -np.ones((1, 8, 8))
    with pytest.raises(EngineError):
        executor.run(x)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.ones((2, 1, 8, 8))
        x[1, 0, 3, 4] = bad
        for validate in (True, False):
            with pytest.raises(EngineError, match="finite and non-negative"):
                executor.run(x, validate=validate)


def test_validate_sequential_accepts_the_mnist_models():
    for name in ("cnn_1", "mlp_l", "tiny_cnn", "tiny_mlp"):
        network = build_model(name)
        validate_supported(network)
        assert network.is_sequential


def test_reference_forward_resolves_every_layer_shape():
    network = build_model("cnn_1")
    params = NetworkParams(network, seed=0)
    x = RNG.uniform(0.0, 1.0, size=(1, 1, 28, 28))
    out, activations = reference_forward_batch(network, params, x)
    assert out.shape == (1, 10)
    assert len(activations) == len(network)


def test_batched_validation_equals_per_image_validation():
    """The batched reference pass must reproduce N reference forwards of one
    image each — the executor's validation runs it once per batch instead
    of once per image."""
    for name in ("cnn_1", "tiny_mlp"):
        network = build_model(name)
        executor = NetworkExecutor(network, SimContext())
        batch = executor.random_batch(3)
        out, acts = reference_forward_batch(network, executor.params, batch)
        for n in range(batch.shape[0]):
            single_out, single_acts = reference_forward_batch(
                network, executor.params, batch[n : n + 1]
            )
            np.testing.assert_allclose(out[n], single_out[0], rtol=1e-12, atol=1e-12)
            for layer_name, act in single_acts.items():
                np.testing.assert_allclose(
                    acts[layer_name][n], act[0], rtol=1e-12, atol=1e-12
                )


def test_batched_run_traces_match_per_image_runs():
    """End to end: a validated batch reports the same per-layer errors as
    running the images one by one (ideal mode keeps the matmuls exact)."""
    network = build_model("tiny_cnn")
    ctx = SimContext()
    executor = NetworkExecutor(network, ctx, mode="ideal")
    batch = executor.random_batch(2)
    batched = executor.run(batch)
    singles = [executor.run(image) for image in batch]
    assert batched.rel_error == pytest.approx(
        np.linalg.norm([r.rel_error * np.linalg.norm(r.reference) for r in singles])
        / np.linalg.norm([np.linalg.norm(r.reference) for r in singles]),
        rel=1e-6,
    )
    np.testing.assert_allclose(
        batched.output, np.stack([r.output for r in singles]), rtol=1e-12, atol=1e-12
    )


def test_reference_forward_batch_rejects_non_batches():
    network = build_model("tiny_mlp")
    params = NetworkParams(network, seed=0)
    with pytest.raises(EngineError):
        reference_forward_batch(network, params, np.zeros((1, 8, 8)))
    with pytest.raises(EngineError, match=r"non-empty .* shape \(0, 1, 8, 8\)"):
        reference_forward_batch(network, params, np.zeros((0, 1, 8, 8)))


def test_engine_rejects_empty_batches():
    executor = NetworkExecutor(build_model("cnn_1"), SimContext())
    for validate in (True, False):
        with pytest.raises(EngineError, match=r"non-empty .* shape \(0, 1, 28, 28\)"):
            executor.run(np.zeros((0, 1, 28, 28)), validate=validate)


@pytest.mark.parametrize("name,batch", [("resnet_smoke", 2), ("squeezenet", 1)])
def test_validated_run_holds_only_the_live_reference(name, batch):
    """Validation walks the reference beside the engine and frees it by
    liveness: it costs well under the reference's full activation set."""
    import tracemalloc

    network = build_model(name)
    executor = NetworkExecutor(network, SimContext())
    x = executor.random_batch(batch)
    _, acts = reference_forward_batch(network, executor.params, x)
    reference_bytes = sum(act.nbytes for act in acts.values())
    del acts

    def peak(validate):
        tracemalloc.start()
        try:
            executor.run(x, validate=validate)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra = peak(True) - peak(False)
    assert extra < reference_bytes / 2, (extra, reference_bytes)


@pytest.mark.parametrize("name", ["resnet_smoke", "squeezenet"])
@pytest.mark.parametrize("noise", [None, HardwareNoiseConfig.scaled(1.0)])
def test_reference_outputs_reproduce_a_validated_run(name, noise):
    """Handing a run its input's conv/FC reference outputs changes no bit of
    the result, leaves them untouched, and a memo that cannot be this
    run's reference is refused."""
    from repro.engine import compute_reference_outputs, program

    network = build_model(name)
    ctx = SimContext(noise=noise)
    params = NetworkParams(network, ctx.seed)
    state = program(network, ctx, params=params)

    def executor():  # noisy reads advance per run: one executor per run
        return NetworkExecutor(network, ctx, params=params, state=state)

    x = executor().random_batch(2) if name == "resnet_smoke" else executor().random_input()
    batch = x if x.ndim == 4 else x[None]
    _, acts = reference_forward_batch(network, params, batch)
    memo = {inst.name: acts[inst.name] for inst in network.compute_instances}
    del acts
    before = {layer: out.copy() for layer, out in memo.items()}
    shared = compute_reference_outputs(network, params, batch)
    assert list(shared) == list(memo)
    for layer, out in shared.items():
        assert not out.flags.writeable
        assert out.tobytes() == memo[layer].tobytes()

    plain = executor().run(x)
    memoised = executor().run(x, reference_outputs=memo)
    assert memoised.output.tobytes() == plain.output.tobytes()
    assert memoised.reference.shape == plain.reference.shape
    assert memoised.reference.tobytes() == plain.reference.tobytes()
    assert [t.rel_error for t in memoised.traces] == [t.rel_error for t in plain.traces]
    assert memoised.rel_error == plain.rel_error
    for layer, out in memo.items():
        assert out.tobytes() == before[layer].tobytes()

    first = network.compute_instances[0].name
    bad_memos = [
        {layer: out for layer, out in memo.items() if layer != first},
        {**memo, "not_a_layer": memo[first]},
        {layer: np.concatenate([out, out]) for layer, out in memo.items()},
    ]
    for bad in bad_memos:
        with pytest.raises(EngineError):
            executor().run(x, reference_outputs=bad)
    with pytest.raises(EngineError):
        executor().run(x, validate=False, reference_outputs=memo)


def test_network_params_are_seed_deterministic_and_layer_local():
    network = build_model("tiny_cnn")
    a = NetworkParams(network, seed=5)
    b = NetworkParams(network, seed=5)
    c = NetworkParams(network, seed=6)
    np.testing.assert_array_equal(a["conv1"].weights, b["conv1"].weights)
    assert not np.array_equal(a["conv1"].weights, c["conv1"].weights)


# ---------------------------------------------------------------------------
# vectorized-kernel micro-benchmark (the engine's hot path)
# ---------------------------------------------------------------------------

def _best_of(func, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_im2col_matches_loop_bit_for_bit():
    for channels, size, kernel, stride, pad in [
        (3, 17, 3, 1, 1),
        (8, 12, 5, 2, 0),
        (1, 28, 5, 1, 2),
        (4, 15, 3, 2, 1),
        (2, 9, 4, 3, 0),
    ]:
        x = RNG.normal(size=(2, channels, size, size))
        fast, oh, ow = F.im2col_batch(x, kernel, stride, pad)
        slow, oh2, ow2 = F._im2col_loop(x, kernel, stride, pad)
        assert (oh, ow) == (oh2, ow2)
        np.testing.assert_array_equal(fast, slow)


def _channel_last(x):
    """``x``'s values in a channel-last ``(N, C, H, W)`` view, the layout a
    conv output has."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def test_vectorized_pool2d_matches_loop_bit_for_bit():
    pools = [(F.max_pool2d, np.max, -np.inf), (F.avg_pool2d, np.mean, 0.0)]
    geometries = [(3, 17, 3, 2, 1), (8, 12, 2, 0, 0), (2, 9, 4, 3, 2)]
    for pool, reducer, fill in pools:
        for channels, size, kernel, stride, pad in geometries:
            x = RNG.normal(size=(channels, size, size))
            fast = pool(x, kernel, stride, pad)
            slow = F._pool2d_loop(x, kernel, stride, reducer, pad, fill)
            np.testing.assert_array_equal(fast, slow)
    # integer inputs take the no-padding path without a float cast
    xi = RNG.integers(0, 10, size=(2, 8, 8))
    np.testing.assert_array_equal(F.max_pool2d(xi, 2), F._pool2d_loop(xi, 2, 0, np.max))
    # batched stacks, in C order and channel-last, padded and unpadded; the
    # all-negative input makes padded windows depend on the -inf fill
    for pool, reducer, fill in pools:
        for channels, size, kernel, stride, pad in geometries + [(4, 10, 3, 2, 0)]:
            for x in (
                RNG.normal(size=(2, channels, size, size)),
                -RNG.uniform(1.0, 2.0, size=(3, channels, size, size)),
            ):
                slow = F._pool2d_loop(x, kernel, stride, reducer, pad, fill)
                for layout in (x, _channel_last(x)):
                    fast = pool(layout, kernel, stride, pad)
                    assert fast.dtype == np.float64
                    assert fast.tobytes() == slow.tobytes()
                    if pool is F.max_pool2d:
                        assert fast.flags.c_contiguous
                    np.testing.assert_array_equal(layout, x)  # input untouched
    xi = RNG.integers(-10, 10, size=(2, 3, 8, 8))
    for layout in (xi, _channel_last(xi)):
        for pad in (0, 1):
            fast = F.max_pool2d(layout, 3, 2, pad)
            slow = F._pool2d_loop(xi, 3, 2, np.max, pad, -np.inf)
            assert fast.dtype == np.float64 and fast.flags.c_contiguous
            assert fast.tobytes() == slow.tobytes()


def test_vectorized_im2col_is_at_least_10x_faster_on_a_vgg_layer():
    """Acceptance bar: >= 10x over the seed loop on a vgg_d conv layer
    (conv1_1 geometry: 3x224x224 input, 3x3 kernel, stride 1, pad 1)."""
    x = RNG.normal(size=(1, 3, 224, 224))
    loop_s = _best_of(lambda: F._im2col_loop(x, 3, 1, 1), repeats=2)
    vec_s = _best_of(lambda: F.im2col_batch(x, 3, 1, 1), repeats=5)
    assert loop_s / vec_s >= 10.0, f"only {loop_s / vec_s:.1f}x"
