"""Chip-level energy / latency / area estimation.

The estimator rolls a crossbar mapping (:mod:`repro.mapping`) and the
per-accelerator access counts (:mod:`repro.mapping.access_counts`) into
per-layer and per-network totals, pricing every event with the
:class:`repro.circuits.components.ComponentSpec` records of an
:class:`repro.energy.tables.AcceleratorSpec`.

Modelling assumptions (deliberately simple, matching the paper's own
system-level methodology):

* weights are stationary — every layer owns its crossbars, all tiles of a
  layer operate in parallel, and a layer's latency is its number of output
  positions times the input slices per position times the cycle time;
* network latency is the sum of layer latencies (one image, no cross-layer
  pipelining), throughput is total operations over that latency;
* optionally, a *cross-layer pipelined* latency is estimated as well: with
  every layer's crossbars resident (weights stationary), layer ``l+1`` can
  start consuming output positions as soon as layer ``l`` produces them, so
  a single image costs one pipeline fill (one position step per layer) plus
  the drain of the bottleneck layer — ``(n_layers - 1) * step + max_l
  latency_l``.  This is the dataflow ISAAC's inter-layer pipeline and
  TIMELY's sub-Chip pipelining both target;
* energy efficiency is total operations over total energy (TOPS/W).

Entry points accept either the explicit ``(spec, config)`` pair or a single
:class:`repro.context.SimContext` (the ``ctx`` keyword), which supplies
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.context import SimContext
from repro.mapping.access_counts import (
    AccessCounts,
    timely_access_counts,
    voltage_domain_access_counts,
)
from repro.mapping.crossbar_mapping import CrossbarConfig, LayerMapping, map_network
from repro.energy.tables import AcceleratorSpec, default_configs
from repro.nn.network import Network

#: AccessCounts field -> event-spec key priced against it
_EVENT_FIELDS: Dict[str, str] = {
    "input_reads": "input_read",
    "input_conversions": "input_conversion",
    "input_forwards": "input_forward",
    "crossbar_ops": "crossbar_op",
    "partial_sum_merges": "partial_sum_merge",
    "partial_sum_buffer_accesses": "partial_sum_buffer_access",
    "output_conversions": "output_conversion",
    "output_writes": "output_write",
}


def layer_access_counts(
    mapping: LayerMapping, spec: AcceleratorSpec, config: CrossbarConfig
) -> AccessCounts:
    """Access counts of one layer under the accelerator's data-movement policy."""
    if spec.style == "time":
        return timely_access_counts(mapping, config)
    return voltage_domain_access_counts(mapping, config, spec.dac_bits)


@dataclass(frozen=True)
class LayerEstimate:
    """Energy/latency estimate of one layer on one accelerator."""

    name: str
    kind: str
    crossbars: int
    utilization: float
    macs: int
    counts: AccessCounts
    energy_breakdown_pj: Dict[str, float]
    latency_ns: float

    @property
    def energy_pj(self) -> float:
        return sum(self.energy_breakdown_pj.values())


@dataclass(frozen=True)
class NetworkEstimate:
    """Whole-network estimate of one accelerator configuration.

    ``pipelined_latency_ns`` is populated when the estimate was made with
    ``pipelined=True``: the single-image latency under cross-layer
    pipelining (pipeline fill plus bottleneck drain) instead of the
    sequential layer-by-layer sum.
    """

    model: str
    accelerator: str
    layers: List[LayerEstimate]
    area_mm2: float
    pipelined_latency_ns: Optional[float] = None

    @property
    def total_energy_pj(self) -> float:
        return sum(layer.energy_pj for layer in self.layers)

    @property
    def total_latency_ns(self) -> float:
        return sum(layer.latency_ns for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_crossbars(self) -> int:
        return sum(layer.crossbars for layer in self.layers)

    @property
    def total_operations(self) -> int:
        return 2 * self.total_macs

    @property
    def tops_per_watt(self) -> float:
        """Energy efficiency: 1 op/pJ == 1 TOPS/W."""
        return self.total_operations / self.total_energy_pj

    @property
    def gops(self) -> float:
        """Throughput on one image: ops per nanosecond == GOPS."""
        return self.total_operations / self.total_latency_ns

    @property
    def pipelined_gops(self) -> Optional[float]:
        """Throughput under cross-layer pipelining (None when not estimated)."""
        if self.pipelined_latency_ns is None:
            return None
        return self.total_operations / self.pipelined_latency_ns

    def energy_breakdown_pj(self) -> Dict[str, float]:
        """Per-component energy totals over the whole network."""
        totals: Dict[str, float] = {}
        for layer in self.layers:
            for component, energy in layer.energy_breakdown_pj.items():
                totals[component] = totals.get(component, 0.0) + energy
        return totals

    def by_name(self) -> Dict[str, LayerEstimate]:
        return {layer.name: layer for layer in self.layers}


def estimate_layer(
    mapping: LayerMapping, spec: AcceleratorSpec, config: CrossbarConfig
) -> LayerEstimate:
    """Price one mapped layer on one accelerator configuration."""
    counts = layer_access_counts(mapping, spec, config)
    breakdown: Dict[str, float] = {}
    for count_field, event in _EVENT_FIELDS.items():
        count = getattr(counts, count_field)
        component = spec.event_specs[event]
        if count and component.energy_fj:
            breakdown[component.name] = (
                breakdown.get(component.name, 0.0) + count * component.energy_pj
            )
    latency = mapping.output_positions * spec.input_slices(config) * spec.cycle_time_ns
    return LayerEstimate(
        name=mapping.name,
        kind=mapping.kind,
        crossbars=mapping.crossbars,
        utilization=mapping.utilization(config),
        macs=mapping.macs,
        counts=counts,
        energy_breakdown_pj=breakdown,
        latency_ns=latency,
    )


def pipelined_latency_ns(
    layers: Sequence[LayerEstimate], spec: AcceleratorSpec, config: CrossbarConfig
) -> float:
    """Single-image latency under cross-layer pipelining.

    All layers' crossbars are resident (weights stationary), so layer
    ``l+1`` starts as soon as layer ``l`` emits its first output position:
    the image costs one position step per non-bottleneck layer (pipeline
    fill) plus the full latency of the slowest layer (the drain).
    """
    if not layers:
        return 0.0
    step = spec.input_slices(config) * spec.cycle_time_ns
    return (len(layers) - 1) * step + max(layer.latency_ns for layer in layers)


def estimate_network(
    network: Network,
    spec: Optional[AcceleratorSpec] = None,
    config: Optional[CrossbarConfig] = None,
    *,
    ctx: Optional[SimContext] = None,
    pipelined: bool = False,
) -> NetworkEstimate:
    """Price every compute layer of ``network`` on one accelerator.

    Either pass an explicit ``(spec, config)`` pair, or a ``ctx`` whose
    architecture and accelerator choice supply both.
    """
    if ctx is not None:
        spec = spec or ctx.accelerator_spec()
        config = config or ctx.arch
    if spec is None:
        raise ValueError("estimate_network needs an AcceleratorSpec or a ctx")
    config = config if config is not None else CrossbarConfig()
    mapping = map_network(network, config)
    layers = [estimate_layer(layer, spec, config) for layer in mapping]
    area_mm2 = mapping.total_crossbars * spec.area_per_crossbar_um2(config) / 1e6
    return NetworkEstimate(
        model=network.name,
        accelerator=spec.name,
        layers=layers,
        area_mm2=area_mm2,
        pipelined_latency_ns=(
            pipelined_latency_ns(layers, spec, config) if pipelined else None
        ),
    )


def compare_accelerators(
    network: Network,
    specs: Sequence[AcceleratorSpec] = (),
    config: Optional[CrossbarConfig] = None,
    *,
    pipelined: bool = False,
) -> List[NetworkEstimate]:
    """Estimate ``network`` on every configuration (default: the paper's three)."""
    config = config if config is not None else CrossbarConfig()
    specs = list(specs) or default_configs(config)
    return [
        estimate_network(network, spec, config, pipelined=pipelined) for spec in specs
    ]
