"""DNN workload substrate for the TIMELY reproduction.

This package provides everything the accelerator models need to know about a
CNN/DNN workload:

* :mod:`repro.nn.layers` — layer descriptors and shape inference,
* :mod:`repro.nn.network` — a resolved network as a dataflow graph (layer
  instances with explicit producer edges, deterministic topological
  traversal, liveness information) and a builder with branch/merge helpers,
* :mod:`repro.nn.models` — the benchmark model zoo used throughout the paper's
  evaluation (VGG-D, CNN-1, MLP-L, VGG-1/2/3/4, MSRA-1/2/3, ResNet-18/50/101/152,
  SqueezeNet),
* :mod:`repro.nn.statistics` — per-layer/per-network MAC, weight and
  activation statistics,
* :mod:`repro.nn.functional` — the batch-first numpy float kernels (conv,
  fc, pooling, ReLU) of the engine's float reference,
* :mod:`repro.nn.quantization` — linear quantisation helpers.
"""

from repro.nn.layers import (
    BatchNorm,
    Concat,
    Conv2D,
    ElementwiseAdd,
    Flatten,
    FullyConnected,
    GlobalAvgPool,
    Layer,
    Pool2D,
    ReLU,
    TensorShape,
)
from repro.nn.network import (
    NETWORK_INPUT,
    GraphError,
    LayerInstance,
    Network,
    NetworkBuilder,
)
from repro.nn.models import MODEL_ZOO, build_model, list_models
from repro.nn.statistics import LayerStats, NetworkStats, layer_stats, network_stats

__all__ = [
    "TensorShape",
    "Layer",
    "Conv2D",
    "FullyConnected",
    "Pool2D",
    "ReLU",
    "BatchNorm",
    "Flatten",
    "ElementwiseAdd",
    "Concat",
    "GlobalAvgPool",
    "NETWORK_INPUT",
    "GraphError",
    "LayerInstance",
    "Network",
    "NetworkBuilder",
    "MODEL_ZOO",
    "build_model",
    "list_models",
    "LayerStats",
    "NetworkStats",
    "layer_stats",
    "network_stats",
]
