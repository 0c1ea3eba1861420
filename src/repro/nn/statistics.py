"""Per-layer and per-network workload statistics.

These statistics are purely algorithmic (independent of any accelerator):
MAC counts, weight counts, activation volumes, and the input-reuse factor
``D*Z*G/S^2`` discussed in Section II-A of the paper.  The architecture-
dependent access counts (how many times a datum crosses a particular memory
level on a particular accelerator) live in :mod:`repro.mapping.access_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.nn.layers import Conv2D, FullyConnected
from repro.nn.network import LayerInstance, Network


@dataclass(frozen=True)
class LayerStats:
    """Algorithmic statistics of a single layer instance."""

    name: str
    kind: str
    macs: int
    weights: int
    input_elements: int
    output_elements: int
    kernel_size: int
    stride: int
    input_reuse: float

    @property
    def operations(self) -> int:
        """Operations counted as 2 per MAC (multiply + add), matching TOPs."""
        return 2 * self.macs


@dataclass(frozen=True)
class NetworkStats:
    """Aggregated statistics of a network."""

    name: str
    layers: List[LayerStats]

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_operations(self) -> int:
        return 2 * self.total_macs

    @property
    def total_weights(self) -> int:
        return sum(layer.weights for layer in self.layers)

    def by_name(self) -> Dict[str, LayerStats]:
        return {layer.name: layer for layer in self.layers}


def layer_stats(inst: LayerInstance) -> LayerStats:
    """Compute :class:`LayerStats` for one layer instance."""
    layer = inst.layer
    kernel_size = 1
    stride = 1
    reuse = 1.0
    if isinstance(layer, Conv2D):
        kernel_size = layer.kernel_h
        stride = layer.stride
        reuse = layer.input_reuse_factor()
    elif isinstance(layer, FullyConnected):
        reuse = layer.input_reuse_factor()
    return LayerStats(
        name=inst.name,
        kind=inst.kind,
        macs=inst.macs,
        weights=inst.weights,
        input_elements=inst.input_shape.elements,
        output_elements=inst.output_shape.elements,
        kernel_size=kernel_size,
        stride=stride,
        input_reuse=reuse,
    )


def network_stats(network: Network, compute_only: bool = False) -> NetworkStats:
    """Compute statistics for a whole network.

    Parameters
    ----------
    network:
        The network to analyse.
    compute_only:
        When True, only conv and FC layers are included (the layers that are
        mapped onto ReRAM crossbars).
    """
    instances = network.compute_instances if compute_only else network.instances
    return NetworkStats(name=network.name, layers=[layer_stats(inst) for inst in instances])
