"""Benchmark model zoo.

The paper evaluates TIMELY on 15 benchmarks (Table III):

* ``vgg_d``, ``cnn_1``, ``mlp_l`` — for a fair comparison with PRIME,
* ``vgg_1`` … ``vgg_4`` and ``msra_1`` … ``msra_3`` — for a fair comparison
  with ISAAC,
* ``resnet_18/50/101/152`` and ``squeezenet`` — to show performance on more
  recent CNNs.

The model definitions follow the original publications:

* VGG-A/B/C/D/E (Simonyan & Zisserman) map to ``vgg_1``/``vgg_2``/``vgg_3``/
  ``vgg_d``/``vgg_4`` — ISAAC's "VGG-1..4" naming is preserved.
* MSRA-1/2/3 are the model-A/B/C networks of He et al. ("Delving Deep into
  Rectifiers"); their stage widths/depths are reproduced at the level of
  detail the energy model needs (layer shapes and MAC counts).  Where the
  original table is ambiguous we use the commonly cited configuration and
  note it in the factory docstring.
* ``cnn_1`` and ``mlp_l`` are PRIME's MNIST benchmarks (a LeNet-5-style CNN
  and the 784-1500-1000-500-10 MLP).
* ``tiny_cnn`` and ``tiny_mlp`` are small, fast models used by the examples,
  tests and the accuracy study; ``resnet_smoke`` (truncated ResNet stem +
  one residual block) and ``bottleneck_smoke`` (three chained bottleneck
  blocks) are small *branching* models used by the branching-engine and
  liveness-memory tests.  None of these four are paper benchmarks.

All ImageNet models take a 3x224x224 input; MNIST models take 1x28x28.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.nn.layers import TensorShape
from repro.nn.network import Network, NetworkBuilder

IMAGENET_INPUT = TensorShape(3, 224, 224)
MNIST_INPUT = TensorShape(1, 28, 28)


# ---------------------------------------------------------------------------
# VGG family
# ---------------------------------------------------------------------------

def _vgg(name: str, stage_config: Sequence[Sequence[int]], with_1x1: bool = False) -> Network:
    """Build a VGG-style network from per-stage channel lists.

    ``stage_config`` holds one list of conv output-channel counts per stage;
    a 2x2/stride-2 max-pool follows every stage.  When ``with_1x1`` is set the
    *last* conv of stages 3-5 uses a 1x1 kernel (VGG configuration C).
    """
    builder = NetworkBuilder(name, IMAGENET_INPUT)
    for stage_index, stage in enumerate(stage_config):
        for conv_index, channels in enumerate(stage):
            kernel = 3
            if with_1x1 and stage_index >= 2 and conv_index == len(stage) - 1:
                kernel = 1
            builder.conv(channels, kernel, name=f"conv{stage_index + 1}_{conv_index + 1}")
            builder.relu()
        builder.pool(2, name=f"pool{stage_index + 1}")
    builder.fc(4096, name="fc6").relu()
    builder.fc(4096, name="fc7").relu()
    builder.fc(1000, name="fc8")
    return builder.build()


def vgg_d() -> Network:
    """VGG configuration D (VGG-16), the paper's primary PRIME benchmark."""
    return _vgg(
        "vgg_d",
        [[64, 64], [128, 128], [256, 256, 256], [512, 512, 512], [512, 512, 512]],
    )


def vgg_1() -> Network:
    """VGG configuration A (11 weight layers); ISAAC's VGG-1."""
    return _vgg("vgg_1", [[64], [128], [256, 256], [512, 512], [512, 512]])


def vgg_2() -> Network:
    """VGG configuration B (13 weight layers); ISAAC's VGG-2."""
    return _vgg("vgg_2", [[64, 64], [128, 128], [256, 256], [512, 512], [512, 512]])


def vgg_3() -> Network:
    """VGG configuration C (16 weight layers with 1x1 convs); ISAAC's VGG-3."""
    return _vgg(
        "vgg_3",
        [[64, 64], [128, 128], [256, 256, 256], [512, 512, 512], [512, 512, 512]],
        with_1x1=True,
    )


def vgg_4() -> Network:
    """VGG configuration E (19 weight layers); ISAAC's VGG-4."""
    return _vgg(
        "vgg_4",
        [
            [64, 64],
            [128, 128],
            [256, 256, 256, 256],
            [512, 512, 512, 512],
            [512, 512, 512, 512],
        ],
    )


# ---------------------------------------------------------------------------
# MSRA family (He et al., "Delving Deep into Rectifiers")
# ---------------------------------------------------------------------------

def _msra(name: str, convs_per_stage: int, widths: Sequence[int]) -> Network:
    """MSRA model template: a 7x7 stem followed by three 3x3 conv stages."""
    builder = NetworkBuilder(name, IMAGENET_INPUT)
    builder.conv(96, 7, stride=2, name="conv1")
    builder.relu()
    builder.pool(3, stride=2, padding=1, name="pool1")
    for stage_index, width in enumerate(widths):
        for conv_index in range(convs_per_stage):
            builder.conv(width, 3, name=f"conv{stage_index + 2}_{conv_index + 1}")
            builder.relu()
        builder.pool(2, name=f"pool{stage_index + 2}")
    builder.fc(4096, name="fc1").relu()
    builder.fc(4096, name="fc2").relu()
    builder.fc(1000, name="fc3")
    return builder.build()


def msra_1() -> Network:
    """MSRA model A (19 weight layers): 5 convs per stage, widths 256/512/512."""
    return _msra("msra_1", 5, [256, 512, 512])


def msra_2() -> Network:
    """MSRA model B (22 weight layers): 6 convs per stage, widths 256/512/512."""
    return _msra("msra_2", 6, [256, 512, 512])


def msra_3() -> Network:
    """MSRA model C (22 weight layers, wider): widths 384/768/896.

    This is the model for which ISAAC reports each CONV input being read 47
    times on average (Section III-A of the TIMELY paper).
    """
    return _msra("msra_3", 6, [384, 768, 896])


# ---------------------------------------------------------------------------
# ResNet family
# ---------------------------------------------------------------------------

def _resnet_basic_block(
    builder: NetworkBuilder, block_name: str, channels: int, stride: int
) -> None:
    """A 2-conv basic residual block (ResNet-18/34)."""
    entry = builder.branch()
    entry_channels = builder.current_shape.channels
    builder.conv(channels, 3, stride=stride, name=f"{block_name}_conv1", bias=False)
    builder.batch_norm().relu()
    builder.conv(channels, 3, name=f"{block_name}_conv2", bias=False)
    builder.batch_norm()
    main = builder.branch()
    shortcut = entry
    if stride != 1 or entry_channels != channels:
        builder.resume(entry)
        builder.conv(channels, 1, stride=stride, name=f"{block_name}_proj", bias=False)
        builder.batch_norm()
        shortcut = builder.branch()
    builder.resume(main)
    builder.add(shortcut, name=f"{block_name}_add").relu()


def _resnet_bottleneck_block(
    builder: NetworkBuilder, block_name: str, channels: int, stride: int
) -> None:
    """A 3-conv bottleneck residual block (ResNet-50/101/152)."""
    entry = builder.branch()
    entry_channels = builder.current_shape.channels
    expanded = channels * 4
    builder.conv(channels, 1, name=f"{block_name}_conv1", bias=False)
    builder.batch_norm().relu()
    builder.conv(channels, 3, stride=stride, name=f"{block_name}_conv2", bias=False)
    builder.batch_norm().relu()
    builder.conv(expanded, 1, name=f"{block_name}_conv3", bias=False)
    builder.batch_norm()
    main = builder.branch()
    shortcut = entry
    if stride != 1 or entry_channels != expanded:
        builder.resume(entry)
        builder.conv(expanded, 1, stride=stride, name=f"{block_name}_proj", bias=False)
        builder.batch_norm()
        shortcut = builder.branch()
    builder.resume(main)
    builder.add(shortcut, name=f"{block_name}_add").relu()


def _resnet(name: str, block_counts: Sequence[int], bottleneck: bool) -> Network:
    builder = NetworkBuilder(name, IMAGENET_INPUT)
    builder.conv(64, 7, stride=2, name="conv1", bias=False)
    builder.batch_norm().relu()
    builder.pool(3, stride=2, padding=1, name="pool1")
    widths = [64, 128, 256, 512]
    block = _resnet_bottleneck_block if bottleneck else _resnet_basic_block
    for stage_index, (width, count) in enumerate(zip(widths, block_counts)):
        for block_index in range(count):
            stride = 2 if stage_index > 0 and block_index == 0 else 1
            block(builder, f"stage{stage_index + 2}_block{block_index + 1}", width, stride)
    builder.global_avg_pool(name="gap")
    builder.fc(1000, name="fc")
    return builder.build()


def resnet_18() -> Network:
    """ResNet-18 (basic blocks, [2, 2, 2, 2])."""
    return _resnet("resnet_18", [2, 2, 2, 2], bottleneck=False)


def resnet_50() -> Network:
    """ResNet-50 (bottleneck blocks, [3, 4, 6, 3])."""
    return _resnet("resnet_50", [3, 4, 6, 3], bottleneck=True)


def resnet_101() -> Network:
    """ResNet-101 (bottleneck blocks, [3, 4, 23, 3])."""
    return _resnet("resnet_101", [3, 4, 23, 3], bottleneck=True)


def resnet_152() -> Network:
    """ResNet-152 (bottleneck blocks, [3, 8, 36, 3])."""
    return _resnet("resnet_152", [3, 8, 36, 3], bottleneck=True)


# ---------------------------------------------------------------------------
# SqueezeNet (v1.0)
# ---------------------------------------------------------------------------

def _fire_module(
    builder: NetworkBuilder, name: str, squeeze: int, expand1: int, expand3: int
) -> None:
    """SqueezeNet fire module: squeeze 1x1 -> parallel expand 1x1 / 3x3 -> concat."""
    builder.conv(squeeze, 1, name=f"{name}_squeeze")
    builder.relu(name=f"{name}_squeeze_relu")
    squeezed = builder.branch()
    builder.conv(expand1, 1, name=f"{name}_expand1x1")
    builder.relu(name=f"{name}_expand1x1_relu")
    expand1x1 = builder.branch()
    builder.resume(squeezed)
    builder.conv(expand3, 3, name=f"{name}_expand3x3")
    builder.relu(name=f"{name}_expand3x3_relu")
    expand3x3 = builder.branch()
    builder.concat([expand1x1, expand3x3], name=f"{name}_concat")


def squeezenet() -> Network:
    """SqueezeNet v1.0 — the paper's compact-CNN data point."""
    builder = NetworkBuilder("squeezenet", IMAGENET_INPUT)
    builder.conv(96, 7, stride=2, name="conv1")
    builder.relu()
    builder.pool(3, stride=2, name="pool1")
    _fire_module(builder, "fire2", 16, 64, 64)
    _fire_module(builder, "fire3", 16, 64, 64)
    _fire_module(builder, "fire4", 32, 128, 128)
    builder.pool(3, stride=2, name="pool4")
    _fire_module(builder, "fire5", 32, 128, 128)
    _fire_module(builder, "fire6", 48, 192, 192)
    _fire_module(builder, "fire7", 48, 192, 192)
    _fire_module(builder, "fire8", 64, 256, 256)
    builder.pool(3, stride=2, name="pool8")
    _fire_module(builder, "fire9", 64, 256, 256)
    builder.conv(1000, 1, name="conv10")
    builder.relu()
    builder.global_avg_pool(name="gap")
    return builder.build()


# ---------------------------------------------------------------------------
# PRIME's MNIST benchmarks and small test models
# ---------------------------------------------------------------------------

def cnn_1() -> Network:
    """PRIME's CNN-1 benchmark (LeNet-5-style MNIST CNN)."""
    builder = NetworkBuilder("cnn_1", MNIST_INPUT)
    builder.conv(6, 5, padding=2, name="conv1").relu()
    builder.pool(2, name="pool1")
    builder.conv(16, 5, padding=0, name="conv2").relu()
    builder.pool(2, name="pool2")
    builder.fc(120, name="fc1").relu()
    builder.fc(84, name="fc2").relu()
    builder.fc(10, name="fc3")
    return builder.build()


def mlp_l() -> Network:
    """PRIME's MLP-L benchmark: 784-1500-1000-500-10."""
    builder = NetworkBuilder("mlp_l", MNIST_INPUT)
    builder.flatten()
    builder.fc(1500, name="fc1").relu()
    builder.fc(1000, name="fc2").relu()
    builder.fc(500, name="fc3").relu()
    builder.fc(10, name="fc4")
    return builder.build()


def tiny_cnn() -> Network:
    """A small CNN for tests, examples and the accuracy study (not a paper benchmark)."""
    builder = NetworkBuilder("tiny_cnn", TensorShape(1, 12, 12))
    builder.conv(8, 3, name="conv1").relu()
    builder.pool(2, name="pool1")
    builder.conv(16, 3, name="conv2").relu()
    builder.pool(2, name="pool2")
    builder.fc(32, name="fc1").relu()
    builder.fc(4, name="fc2")
    return builder.build()


def tiny_mlp() -> Network:
    """A small MLP for tests and the accuracy study (not a paper benchmark)."""
    builder = NetworkBuilder("tiny_mlp", TensorShape(1, 8, 8))
    builder.flatten()
    builder.fc(32, name="fc1").relu()
    builder.fc(16, name="fc2").relu()
    builder.fc(4, name="fc3")
    return builder.build()


def resnet_smoke() -> Network:
    """A truncated ResNet stem plus one strided basic block (CI engine smoke).

    The 3x64x64 input keeps the analog engine run in CI-friendly territory
    while the stride-2 / channel-doubling block exercises the projection
    branch, the two-input residual add and folded batch-norms — the graph
    features the full ResNets rely on.  Not a paper benchmark.
    """
    builder = NetworkBuilder("resnet_smoke", TensorShape(3, 64, 64))
    builder.conv(64, 7, stride=2, name="conv1", bias=False)
    builder.batch_norm().relu()
    builder.pool(3, stride=2, padding=1, name="pool1")
    _resnet_basic_block(builder, "block1", 128, 2)
    builder.global_avg_pool(name="gap")
    builder.fc(10, name="fc")
    return builder.build()


def bottleneck_smoke() -> Network:
    """Three chained bottleneck residual blocks (liveness-memory bench model).

    Each block keeps its wide 256-channel entry activation alive across the
    whole bottleneck body for the residual add, so executing the chain
    without liveness-based freeing accumulates every intermediate — the
    model pins the peak-activation-memory win of the graph executor.  Not a
    paper benchmark.
    """
    builder = NetworkBuilder("bottleneck_smoke", TensorShape(64, 32, 32))
    for i in range(3):
        _resnet_bottleneck_block(builder, f"block{i + 1}", 64, 1)
    builder.global_avg_pool(name="gap")
    builder.fc(10, name="fc")
    return builder.build()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

MODEL_ZOO: Dict[str, Callable[[], Network]] = {
    "vgg_d": vgg_d,
    "vgg_1": vgg_1,
    "vgg_2": vgg_2,
    "vgg_3": vgg_3,
    "vgg_4": vgg_4,
    "msra_1": msra_1,
    "msra_2": msra_2,
    "msra_3": msra_3,
    "resnet_18": resnet_18,
    "resnet_50": resnet_50,
    "resnet_101": resnet_101,
    "resnet_152": resnet_152,
    "squeezenet": squeezenet,
    "cnn_1": cnn_1,
    "mlp_l": mlp_l,
    "tiny_cnn": tiny_cnn,
    "tiny_mlp": tiny_mlp,
    "resnet_smoke": resnet_smoke,
    "bottleneck_smoke": bottleneck_smoke,
}

#: The 15 benchmarks listed in Table III of the paper.
PAPER_BENCHMARKS: List[str] = [
    "vgg_d",
    "cnn_1",
    "mlp_l",
    "vgg_1",
    "vgg_2",
    "vgg_3",
    "vgg_4",
    "msra_1",
    "msra_2",
    "msra_3",
    "resnet_18",
    "resnet_50",
    "resnet_101",
    "resnet_152",
    "squeezenet",
]


def list_models(paper_only: bool = False) -> List[str]:
    """Names of all available models (optionally only the paper benchmarks)."""
    if paper_only:
        return list(PAPER_BENCHMARKS)
    return sorted(MODEL_ZOO)


def build_model(name: str) -> Network:
    """Instantiate a model from the zoo by name."""
    try:
        factory = MODEL_ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available models: {', '.join(sorted(MODEL_ZOO))}"
        ) from None
    return factory()
