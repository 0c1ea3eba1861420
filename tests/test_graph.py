"""Graph-IR tests: topological determinism, malformed-graph rejection with
named layers, merge shape validation, bit-for-bit linear parity of the graph
executor, liveness-based activation freeing, and end-to-end branching-model
engine runs (residual block + fire module) against the float reference."""

import numpy as np
import pytest

from repro.context import ArchSpec, SimContext
from repro.engine import EngineError, NetworkExecutor, reference_forward_batch
from repro.engine.reference import apply_aux_batched
from repro.nn import (
    NETWORK_INPUT,
    ElementwiseAdd,
    GraphError,
    LayerInstance,
    Network,
    NetworkBuilder,
    ReLU,
    TensorShape,
)
from repro.nn.models import build_model

ISAAC_PRECISION = ArchSpec(weight_bits=16, input_bits=16)


def _inst(layer, input_shape, index, inputs, input_shapes=None):
    shapes = input_shapes if input_shapes is not None else (input_shape,) * len(inputs)
    return LayerInstance(
        layer=layer,
        input_shape=input_shape,
        output_shape=layer.resolve_shape(shapes),
        index=index,
        inputs=inputs,
        input_shapes=tuple(shapes),
    )


# ---------------------------------------------------------------------------
# topological order
# ---------------------------------------------------------------------------

def test_topological_order_is_declaration_order_for_builder_graphs():
    """The builder declares producers before consumers, so Kahn with
    lowest-index-first tie-breaking reproduces declaration order exactly."""
    for name in ("cnn_1", "resnet_18", "squeezenet"):
        net = build_model(name)
        assert [i.name for i in net.topological_order()] == [i.name for i in net]


def test_topological_order_is_deterministic_across_builds():
    a = [i.name for i in build_model("resnet_50").topological_order()]
    b = [i.name for i in build_model("resnet_50").topological_order()]
    assert a == b


def test_topological_order_sorts_shuffled_declarations():
    """A hand-built instance list whose declaration order is not topological
    still sorts producers before consumers, deterministically."""
    shape = TensorShape(4, 8, 8)
    r1 = ReLU(name="r1")
    r2 = ReLU(name="r2")
    join = ElementwiseAdd(name="join")
    instances = [
        _inst(join, shape, 0, ("r1", "r2")),
        _inst(r2, shape, 1, ("r1",)),
        _inst(r1, shape, 2, (NETWORK_INPUT,)),
    ]
    # the output node must be declared last for Network.output; reorder so
    # join stays last but r2/r1 are still declared consumer-first
    net = Network("shuffled", shape, [instances[2], instances[1], instances[0]])
    order = [i.name for i in net.topological_order()]
    assert order == ["r1", "r2", "join"]
    shuffled = Network("shuffled2", shape, [instances[1], instances[2], instances[0]])
    assert [i.name for i in shuffled.topological_order()] == ["r1", "r2", "join"]


def test_consumers_map_covers_every_edge():
    net = build_model("resnet_smoke")
    consumers = net.consumers()
    assert consumers[NETWORK_INPUT] == ("conv1",)
    # the block entry (pool1) feeds both the main path and the projection
    assert set(consumers["pool1"]) == {"block1_conv1", "block1_proj"}
    assert consumers[net.output.name] == ()


# ---------------------------------------------------------------------------
# malformed graphs are rejected with named layers
# ---------------------------------------------------------------------------

def test_cycle_is_rejected_naming_the_layers():
    shape = TensorShape(4, 8, 8)
    a = _inst(ReLU(name="a"), shape, 0, ("b",))
    b = _inst(ReLU(name="b"), shape, 1, ("a",))
    with pytest.raises(GraphError, match="cycle.*'a'.*'b'"):
        Network("cyclic", shape, [a, b])


def test_self_loop_is_rejected():
    shape = TensorShape(4, 8, 8)
    a = _inst(ReLU(name="a"), shape, 0, ("a",))
    with pytest.raises(GraphError, match="'a' consumes itself"):
        Network("self", shape, [a])


def test_dangling_producer_is_rejected_naming_both_ends():
    shape = TensorShape(4, 8, 8)
    a = _inst(ReLU(name="a"), shape, 0, ("ghost",))
    with pytest.raises(GraphError, match="'a' consumes 'ghost'"):
        Network("dangling", shape, [a])


def test_duplicate_layer_names_are_rejected():
    shape = TensorShape(4, 8, 8)
    a = _inst(ReLU(name="dup"), shape, 0, (NETWORK_INPUT,))
    b = _inst(ReLU(name="dup"), shape, 1, ("dup",))
    with pytest.raises(GraphError, match="duplicate layer name 'dup'"):
        Network("dup", shape, [a, b])
    builder = NetworkBuilder("dup2", shape)
    builder.relu(name="x")
    with pytest.raises(GraphError, match="duplicate layer name 'x'"):
        builder.relu(name="x")


def test_builder_rejects_resume_to_unknown_node():
    builder = NetworkBuilder("b", TensorShape(4, 8, 8))
    with pytest.raises(GraphError, match="cannot resume from 'nope'"):
        builder.resume("nope")


# ---------------------------------------------------------------------------
# merge shape validation
# ---------------------------------------------------------------------------

def test_add_merge_rejects_mismatched_shapes():
    builder = NetworkBuilder("badadd", TensorShape(3, 8, 8))
    entry = builder.branch()
    builder.conv(8, 3, stride=2, name="c1")
    with pytest.raises(GraphError, match="'j1' \\(add\\) merges mismatched shapes"):
        builder.add(entry, name="j1")


def test_concat_merge_rejects_mismatched_spatial_extents():
    builder = NetworkBuilder("badcat", TensorShape(3, 8, 8))
    entry = builder.branch()
    builder.conv(8, 3, stride=2, name="c1")
    strided = builder.branch()
    with pytest.raises(GraphError, match="'j1' \\(concat\\) requires equal spatial"):
        builder.concat([entry, strided], name="j1")


def test_merge_arity_is_enforced():
    shape = TensorShape(4, 8, 8)
    with pytest.raises(GraphError, match="'solo' \\(add\\) expects at least 2"):
        Network(
            "solo", shape, [_inst2(ElementwiseAdd(name="solo"), (NETWORK_INPUT,), shape)]
        )


def _inst2(layer, inputs, shape):
    # arity failures surface from resolve_shape at Network construction, so
    # build the instance record without resolving here
    return LayerInstance(
        layer=layer,
        input_shape=shape,
        output_shape=shape,
        index=0,
        inputs=inputs,
        input_shapes=(shape,) * len(inputs),
    )


def test_concat_shape_and_mac_accounting():
    """The fire-module concat is a real node: summed channels, zero MACs."""
    net = build_model("squeezenet")
    concat = net.find("fire2_concat")
    assert concat.inputs == ("fire2_expand1x1_relu", "fire2_expand3x3_relu")
    assert concat.output_shape == TensorShape(128, 55, 55)
    assert concat.macs == 0 and concat.weights == 0
    # every fire module contributes one concat node
    assert sum(1 for inst in net if inst.kind == "concat") == 8


# ---------------------------------------------------------------------------
# linear parity: the graph path is the flat chain, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["cnn_1", "tiny_mlp"])
def test_linear_models_stay_sequential_and_bit_for_bit(name):
    """Linear zoo models remain plain chains, and the graph executor's
    output is bit-identical to executing the same mapped layers as a flat
    list (the pre-graph numeric path)."""
    network = build_model(name)
    assert network.is_sequential  # still a chain
    ctx = SimContext()
    executor = NetworkExecutor(network, ctx, mode="analog")
    x = executor.random_input()
    result = executor.run(x)

    # replay the flat chain by hand with the executor's own programmed
    # layers and shared aux kernels
    acts = x[None]
    for inst in network:
        if inst.name in executor._compute:
            acts = executor._compute[inst.name].forward(acts, ctx.arch.input_bits)
        else:
            acts = apply_aux_batched(inst, [acts], executor.params)
    np.testing.assert_array_equal(result.output, acts[0])


def test_liveness_freeing_is_numerically_invisible():
    network = build_model("resnet_smoke")
    executor = NetworkExecutor(network, SimContext(), mode="ideal")
    x = executor.random_input()
    freed = executor.run(x, validate=False, free_activations=True)
    kept = executor.run(x, validate=False, free_activations=False)
    np.testing.assert_array_equal(freed.output, kept.output)


def test_liveness_freeing_reduces_peak_activation_memory():
    """On a chain of bottleneck blocks the freed peak is a fraction of the
    keep-everything peak — the memory win that keeps ResNet-152 batch runs
    on a laptop."""
    network = build_model("bottleneck_smoke")
    executor = NetworkExecutor(network, SimContext(), mode="ideal")
    x = executor.random_batch(2)
    freed = executor.run(x, validate=False, free_activations=True)
    kept = executor.run(x, validate=False, free_activations=False)
    assert freed.peak_activation_bytes < kept.peak_activation_bytes / 2
    # without freeing, the peak is the sum of everything ever produced
    total = x.nbytes + sum(
        2 * inst.output_shape.elements * 8 for inst in network
    )
    assert kept.peak_activation_bytes == total


def test_peak_accounting_counts_view_buffers_once():
    """A flatten output is a reshape *view* of its producer: the peak must
    charge the shared buffer once, not per live reference."""
    network = build_model("tiny_cnn")  # fc() auto-inserts a flatten node
    executor = NetworkExecutor(network, SimContext(), mode="ideal")
    x = executor.random_input()
    kept = executor.run(x, validate=False, free_activations=False)
    flats = [inst for inst in network if inst.kind == "flatten"]
    assert flats
    total = x.nbytes + sum(inst.output_shape.elements * 8 for inst in network)
    shared = sum(inst.output_shape.elements * 8 for inst in flats)
    assert kept.peak_activation_bytes == total - shared


# ---------------------------------------------------------------------------
# end-to-end branching engine runs vs the float reference
# ---------------------------------------------------------------------------

def test_resnet_block_engine_matches_reference_at_isaac_precision():
    """Truncated ResNet stem + one residual block through the analog chains:
    rel error stays at the 16-bit quantisation floor."""
    result = NetworkExecutor(
        build_model("resnet_smoke"), SimContext(arch=ISAAC_PRECISION), mode="analog"
    ).run()
    assert result.rel_error < 1e-2
    assert all(np.isfinite(trace.rel_error) for trace in result.traces)


def test_fire_module_engine_matches_reference():
    """A squeezenet-style fire module (squeeze -> parallel expands -> concat)
    through the analog chains."""
    builder = NetworkBuilder("fire_smoke", TensorShape(8, 16, 16))
    builder.conv(4, 1, name="squeeze").relu(name="squeeze_relu")
    squeezed = builder.branch()
    builder.conv(8, 1, name="e1").relu(name="e1_relu")
    left = builder.branch()
    builder.resume(squeezed)
    builder.conv(8, 3, name="e3").relu(name="e3_relu")
    builder.concat([left, builder.branch()], name="cat")
    builder.global_avg_pool(name="gap").fc(4, name="fc")
    network = builder.build()
    result = NetworkExecutor(
        network, SimContext(arch=ISAAC_PRECISION), mode="analog"
    ).run()
    assert result.rel_error < 1e-2

    # the concat output really is the channel stack of its two producers
    traces = result.trace_by_name()
    assert traces["cat"].crossbars == 0
    params = NetworkExecutor(network, SimContext()).params
    _, acts = reference_forward_batch(network, params, np.zeros((1, 8, 16, 16)) + 0.5)
    np.testing.assert_array_equal(
        acts["cat"], np.concatenate([acts["e1_relu"], acts["e3_relu"]], axis=1)
    )


def test_branching_reference_forward_single_and_batch_agree():
    network = build_model("resnet_smoke")
    executor = NetworkExecutor(network, SimContext())
    batch = executor.random_batch(2)
    out, _ = reference_forward_batch(network, executor.params, batch)
    for n in range(2):
        single, _ = reference_forward_batch(network, executor.params, batch[n : n + 1])
        np.testing.assert_allclose(out[n], single[0], rtol=1e-12, atol=1e-12)


def test_engine_error_names_unsupported_layer():
    class Mystery(ReLU):
        kind = "mystery"

    shape = TensorShape(2, 4, 4)
    inst = _inst(Mystery(name="whodunnit"), shape, 0, (NETWORK_INPUT,))
    with pytest.raises(EngineError, match="'whodunnit' of kind 'mystery'"):
        NetworkExecutor(Network("m", shape, [inst]), SimContext())
    with pytest.raises(EngineError, match="'whodunnit' of kind 'mystery' is not an aux"):
        apply_aux_batched(inst, [np.zeros((1, 2, 4, 4))], None)
