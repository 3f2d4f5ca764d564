"""Differential test: row-tile runs against the per-row-tile enumerator.

``map_layer`` aggregates every column tile's partial-sum-parking row tiles
into one run record.  The reference below is the enumerator it replaced,
which emitted one record per row tile.  Over random layers and configs,
the two must describe the same per-mapping sequence, and the cycle model
and the event trace must give bitwise-identical answers from either.
"""

import math
from typing import List
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulator import engine, trace
from repro.simulator.datapath import build_datapath
from repro.simulator.mapping import LayerMapping, MappingTile, map_layer
from repro.simulator.memory import memory_model_for
from repro.simulator.results import ActivityTrace
from repro.uarch.config import NPUConfig
from repro.workloads.layers import ConvLayer


def reference_map_layer(layer: ConvLayer, config: NPUConfig) -> LayerMapping:
    """One record per (column tile, row tile), as the enumerator once was."""
    height = config.pe_array_height
    width = config.pe_array_width
    registers = config.registers_per_pe
    reduction = layer.reduction_size
    row_sizes = [height] * (reduction // height)
    if reduction % height:
        row_sizes.append(reduction % height)
    col_tiles = []
    full, remainder = divmod(layer.filters_per_group, width * registers)
    if full:
        col_tiles.append((width, registers, full))
    if remainder:
        regs_used = min(registers, math.ceil(remainder / width))
        col_tiles.append((math.ceil(remainder / regs_used), regs_used, 1))

    tiles: List[MappingTile] = []
    for cols, regs, count in col_tiles:
        for index, rows in enumerate(row_sizes):
            tiles.append(MappingTile(
                rows_used=rows, cols_used=cols, regs_used=regs,
                count=count * layer.groups,
                accumulates=len(row_sizes) > 1 and index < len(row_sizes) - 1,
            ))
    return LayerMapping(layer=layer, tiles=tiles, row_tiles=len(row_sizes),
                        col_tiles=sum(count for _, _, count in col_tiles))


def expand(mapping: LayerMapping) -> list:
    """The per-mapping sequence: every record repeated ``count`` times."""
    return [
        (tile.rows_used, tile.cols_used, tile.regs_used, tile.accumulates)
        for tile in mapping.tiles
        for _ in range(tile.count)
    ]


@st.composite
def layer_configs(draw):
    depthwise = draw(st.booleans())
    kernel = draw(st.integers(1, 3))
    size = draw(st.integers(kernel, 12))
    if depthwise:
        groups = draw(st.integers(1, 16))
        in_channels = out_channels = groups
    else:
        groups = draw(st.integers(1, 4))
        in_channels = groups * draw(st.integers(1, 16))
        out_channels = groups * draw(st.integers(1, 24))
    layer = ConvLayer(
        name="d",
        in_channels=in_channels,
        in_height=size,
        in_width=size,
        out_channels=out_channels,
        kernel_height=kernel,
        kernel_width=kernel,
        stride=draw(st.integers(1, 2)),
        padding=draw(st.integers(0, kernel // 2)),
        groups=groups,
    )
    integrated = draw(st.booleans())
    config = NPUConfig(
        name="d",
        pe_array_width=draw(st.sampled_from([1, 2, 3, 5, 7, 16, 24])),
        pe_array_height=draw(st.sampled_from([3, 5, 7, 12, 16, 24, 100])),
        registers_per_pe=draw(st.sampled_from([1, 2, 3, 8])),
        ifmap_division=draw(st.sampled_from([1, 4, 16])),
        integrated_output_buffer=integrated,
        psum_buffer_bytes=0 if integrated else draw(st.sampled_from([4096, 1 << 20])),
    )
    batch = draw(st.sampled_from([1, 3, 7, 64]))
    return layer, config, batch


def _simulate_layer(layer, config, batch):
    datapath = build_datapath(config)
    activity = ActivityTrace()
    result, resident = engine.simulate_layer(
        layer, config, batch, memory_model_for(config, 50.0),
        datapath.ifmap_buffer, datapath.output_buffer, datapath.psum_buffer,
        datapath.pe, activity, input_resident=False, is_last_layer=False,
    )
    return repr((result, resident, sorted(activity.effective_cycles.items())))


# Both a row remainder and a column-remainder tile, split and integrated.
_BOTH_REMAINDERS = [
    (ConvLayer("d", 16, 12, 12, 24, 3, 3, padding=1),
     NPUConfig("d", pe_array_width=5, pe_array_height=7, registers_per_pe=2), 7),
    (ConvLayer("d", 12, 9, 9, 12, 3, 3, groups=4),
     NPUConfig("d", pe_array_width=2, pe_array_height=5, registers_per_pe=1,
               integrated_output_buffer=True, psum_buffer_bytes=0), 64),
    (ConvLayer("d", 16, 8, 8, 16, 3, 3, padding=1, groups=2),
     NPUConfig("d", pe_array_width=1, pe_array_height=7, registers_per_pe=3), 3),
]


@given(layer_configs())
@settings(max_examples=200, deadline=None, derandomize=True)
@example(_BOTH_REMAINDERS[0])
@example(_BOTH_REMAINDERS[1])
@example(_BOTH_REMAINDERS[2])
def test_row_runs_match_per_row_tile_reference(case):
    layer, config, batch = case
    mapping = map_layer(layer, config)
    reference = reference_map_layer(layer, config)

    assert expand(mapping) == expand(reference)
    assert len(mapping.tiles) <= 2 * len(
        {(tile.cols_used, tile.regs_used) for tile in reference.tiles})
    assert mapping.row_tiles == reference.row_tiles
    assert mapping.col_tiles == reference.col_tiles
    assert mapping.total_mappings == reference.total_mappings
    assert mapping.psum_movements == reference.psum_movements

    runs = _simulate_layer(layer, config, batch)
    events = trace.trace_layer(layer, config, batch)
    with mock.patch.object(engine, "map_layer", reference_map_layer), \
            mock.patch.object(trace, "map_layer", reference_map_layer):
        assert runs == _simulate_layer(layer, config, batch)
        assert events == trace.trace_layer(layer, config, batch)
    assert trace.verify_against_engine(layer, config, batch)


def test_forced_cases_have_both_remainders():
    for layer, config, _ in _BOTH_REMAINDERS:
        mapping = map_layer(layer, config)
        assert layer.reduction_size % config.pe_array_height
        assert mapping.row_tiles > 1
        assert len({(t.cols_used, t.regs_used) for t in mapping.tiles}) == 2
        assert len(mapping.tiles) == 4
