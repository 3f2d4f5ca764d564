"""Weight-mapping analysis for the weight-stationary systolic array.

A convolution layer is executed as a sequence of *weight mappings*
(Section IV-B: "SFQ-NPU simulator analyzes all required weight mappings").
Each mapping loads a tile of weights onto the array:

* the reduction dimension ``C/g * R * S`` is tiled over the PE-array
  *height* (one weight element per PE row);
* the filters of a group are tiled over the PE-array *width*, with
  ``registers_per_pe`` filters sharing one column in SuperNPU;
* channel groups (depthwise convolution) are independent mappings.

Identical consecutive mappings are aggregated into one tile record with a
``count``.  Per column tile there are at most two records: the run of
full-height row tiles that park partial sums, and the final row tile (the
row remainder, or the last full tile).  Expanding every record ``count``
times reproduces the per-mapping sequence in execution order, so a layer
costs at most four records whatever its size — a 512-group depthwise layer
is one record, not 512.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.uarch.config import NPUConfig
from repro.workloads.layers import ConvLayer


@dataclass(frozen=True)
class MappingTile:
    """One (aggregated) weight mapping on the PE array.

    Attributes:
        rows_used: PE rows occupied (reduction elements in this tile).
        cols_used: PE columns occupied.
        regs_used: Weight registers exercised per PE in this tile.
        count: Number of identical mappings this record stands for.
        accumulates: Whether this tile's partial sums must be combined with
            another row tile's output (drives psum<->ofmap movement in
            non-integrated designs).
    """

    rows_used: int
    cols_used: int
    regs_used: int
    count: int = 1
    accumulates: bool = False

    def __post_init__(self) -> None:
        if min(self.rows_used, self.cols_used, self.regs_used, self.count) < 1:
            raise ValueError("tile dimensions and count must be positive")

    @property
    def weights(self) -> int:
        """Weight elements resident on the array for one mapping."""
        return self.rows_used * self.cols_used * self.regs_used

    def macs(self, vectors: int) -> int:
        """MACs executed by one mapping over ``vectors`` ifmap vectors."""
        return self.weights * vectors


@dataclass(frozen=True)
class LayerMapping:
    """All weight mappings of one layer on one NPU configuration."""

    layer: ConvLayer
    tiles: List[MappingTile]
    row_tiles: int
    col_tiles: int

    @property
    def total_mappings(self) -> int:
        return sum(tile.count for tile in self.tiles)

    @property
    def psum_movements(self) -> int:
        """Row-tile boundaries requiring psum<->ofmap buffer movement."""
        return sum(tile.count for tile in self.tiles if tile.accumulates)


def _column_tiles(filters: int, width: int, registers: int) -> List[dict]:
    """Split ``filters`` across columns x registers, full tiles first."""
    per_tile = width * registers
    tiles: List[dict] = []
    full, remainder = divmod(filters, per_tile)
    if full:
        tiles.append({"cols": width, "regs": registers, "count": full})
    if remainder:
        # Spread the leftover filters over as few register planes as needed
        # so the remaining columns still stream in parallel.
        regs_used = min(registers, math.ceil(remainder / width))
        cols_used = math.ceil(remainder / regs_used)
        tiles.append({"cols": cols_used, "regs": regs_used, "count": 1})
    return tiles


def map_layer(layer: ConvLayer, config: NPUConfig) -> LayerMapping:
    """Enumerate (aggregated) weight mappings of ``layer`` on ``config``."""
    height = config.pe_array_height
    full_rows, remainder = divmod(layer.reduction_size, height)
    row_tiles = full_rows + (1 if remainder else 0)
    # Every row tile except the last parks partial sums that a later row
    # tile must pick back up; those form one run of full-height tiles.
    run = row_tiles - 1
    last_rows = remainder or height
    col_tiles = _column_tiles(
        layer.filters_per_group, config.pe_array_width, config.registers_per_pe
    )

    tiles: List[MappingTile] = []
    for col in col_tiles:
        count = col["count"] * layer.groups
        if run:
            tiles.append(MappingTile(height, col["cols"], col["regs"],
                                     count=count * run, accumulates=True))
        tiles.append(MappingTile(last_rows, col["cols"], col["regs"], count=count))
    return LayerMapping(
        layer=layer,
        tiles=tiles,
        row_tiles=row_tiles,
        col_tiles=sum(col["count"] for col in col_tiles),
    )


def utilization(tile: MappingTile, config: NPUConfig) -> float:
    """Fraction of the PE array's MAC slots a tile keeps busy."""
    return tile.weights / (config.num_pes * config.registers_per_pe)
