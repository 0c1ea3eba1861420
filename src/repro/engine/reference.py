"""Pure-numpy reference execution of a resolved network graph.

This is the ground truth the crossbar engine is validated against: the same
:class:`~repro.engine.params.NetworkParams` pushed through the exact
float kernels of :mod:`repro.nn.functional`, walking the network's
deterministic topological order exactly as the crossbar executor does.
:func:`reference_forward_batch` is the one float forward pass.  The
auxiliary (non-MAC) layers are applied through :func:`apply_aux_batched`,
which the crossbar executor shares, so the two paths can only differ in the
conv/FC dot products — exactly the part the crossbars replace.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.errors import EngineError
from repro.engine.params import NetworkParams
from repro.nn import functional as F
from repro.nn.layers import Conv2D, FullyConnected, Pool2D, _resolve_padding
from repro.nn.network import NETWORK_INPUT, LayerInstance, Network

#: layer kinds the engine (and this reference) can execute
SUPPORTED_KINDS = ("conv", "fc", "pool", "relu", "bn", "flatten", "gap", "add", "concat")


def validate_supported(network: Network) -> None:
    """Reject layers the engine cannot execute, naming the offending layer.

    Graph-structural problems (cycles, dangling producers, merge shape
    mismatches) are caught at :class:`~repro.nn.network.Network`
    construction with :class:`~repro.nn.network.GraphError`; this check
    covers the engine-specific limits on top of a well-formed graph.
    """
    for inst in network:
        if inst.kind not in SUPPORTED_KINDS:
            raise EngineError(
                f"layer {inst.name!r} of kind {inst.kind!r} is not supported by "
                f"the functional engine (supported: {', '.join(SUPPORTED_KINDS)})"
            )
        layer = inst.layer
        if isinstance(layer, Conv2D) and layer.kernel_h != layer.kernel_w:
            raise EngineError(
                f"layer {inst.name!r} has a {layer.kernel_h}x{layer.kernel_w} "
                "kernel; the functional engine (like the im2col reference "
                "kernels) supports square filters only"
            )


def conv_padding(layer: Conv2D) -> int:
    """Resolve a conv layer's padding spec to a pixel count.

    ``"same"`` resolves to ``(kernel - 1) // 2``; for the even-kernel /
    strided corner cases where that differs from the ceil-based shape
    inference, the executor's output-shape check catches the mismatch.
    """
    if layer.padding == "same":
        return (layer.kernel_h - 1) // 2
    return _resolve_padding(layer.padding, layer.kernel_h)


def apply_aux_batched(
    inst: LayerInstance, inputs: Sequence[np.ndarray], params: NetworkParams
) -> np.ndarray:
    """Apply one non-MAC layer to a batch.

    ``inputs`` holds one ``(N, ...)`` array per producer edge of the node
    (single-input layers receive a one-element list).  Each layer runs over
    the whole batch at once; pooling folds the batch into the channel axis,
    which the per-channel :mod:`repro.nn.functional` kernels treat
    identically.  Shared by the crossbar executor and the float reference,
    so the two paths can only differ in the conv/FC dot products.  A
    conv/FC (or unknown) kind raises :class:`EngineError`.
    """
    layer = inst.layer
    acts = inputs[0]
    n = acts.shape[0]
    if inst.kind == "relu":
        return F.relu(acts)
    if inst.kind == "pool":
        assert isinstance(layer, Pool2D)
        pad = _resolve_padding(layer.padding, layer.kernel)
        pool = F.max_pool2d if layer.mode == "max" else F.avg_pool2d
        pooled = pool(acts.reshape((-1,) + acts.shape[2:]), layer.kernel, layer.stride, pad)
        return pooled.reshape((n, acts.shape[1]) + pooled.shape[1:])
    if inst.kind == "bn":
        p = params[inst.name]
        return acts * p.scale[None, :, None, None] + p.shift[None, :, None, None]
    if inst.kind == "flatten":
        return acts.reshape(n, -1)
    if inst.kind == "gap":
        return acts.reshape(n, acts.shape[1], -1).mean(axis=2)
    if inst.kind == "add":
        out = inputs[0] + inputs[1]
        for extra in inputs[2:]:
            out = out + extra
        return out
    if inst.kind == "concat":
        # batched operands are (N, C, H, W) or (N, features): channels sit
        # on axis 1 either way
        return np.concatenate(inputs, axis=1)
    raise EngineError(f"layer {inst.name!r} of kind {inst.kind!r} is not an auxiliary layer")


def check_activation_shape(inst: LayerInstance, act: np.ndarray) -> None:
    """Assert an activation matches the instance's resolved output shape."""
    shape = inst.output_shape
    expected = (shape.channels,) if shape.is_flat else (
        shape.channels,
        shape.height,
        shape.width,
    )
    if act.shape != expected:
        raise EngineError(
            f"layer {inst.name!r} produced activation shape {act.shape}, but "
            f"shape inference resolved {expected} (check padding spec)"
        )


def reference_forward_batch(
    network: Network, params: NetworkParams, x: np.ndarray
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """The float forward pass over a non-empty ``(N, C, H, W)`` batch.

    Walks the graph in deterministic topological order and returns the
    ``(N, ...)`` outputs and per-layer activation stacks.  Every conv and
    FC output comes from :func:`repro.nn.functional.conv2d` and
    :func:`repro.nn.functional.fully_connected`, one im2col and one stacked
    GEMM per layer (per group) for the whole batch.  Every layer's
    activations stay resident (the executor compares against all of them);
    throughput runs that need the liveness-freed memory profile skip
    validation instead.
    """
    validate_supported(network)
    acts = np.asarray(x, dtype=float)
    if acts.ndim != 4 or acts.shape[0] == 0:
        raise EngineError(
            "expected a non-empty (batch, channels, height, width) batch, got "
            f"shape {acts.shape}"
        )
    activations: Dict[str, np.ndarray] = {NETWORK_INPUT: acts}
    for inst in network.topological_order():
        layer = inst.layer
        operands: List[np.ndarray] = [activations[src] for src in inst.inputs]
        if isinstance(layer, Conv2D):
            p = params[inst.name]
            out = F.conv2d(
                operands[0],
                p.weights,
                p.bias,
                stride=layer.stride,
                pad=conv_padding(layer),
                groups=layer.groups,
            )
        elif isinstance(layer, FullyConnected):
            p = params[inst.name]
            out = F.fully_connected(operands[0], p.weights, p.bias)
        else:
            out = apply_aux_batched(inst, operands, params)
        check_activation_shape(inst, out[0])
        activations[inst.name] = out
    del activations[NETWORK_INPUT]
    return activations[network.output.name], activations
