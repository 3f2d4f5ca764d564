"""Workload analyses: ifmap duplication (Fig. 8) and compute intensity (Fig. 17).

*Duplication* quantifies why the data alignment unit exists: if every PE
row's shift-register lane stored its own copy of the ifmap pixels its
weight consumes, the overwhelming majority of buffered pixels would be
duplicates of pixels held by neighboring lanes (over 90% for the
convolutional workloads, Fig. 8).

*Computational intensity* is the paper's roofline x-axis: the number of MAC
operations executed per weight byte mapped onto the array, which for a
weight-stationary dataflow is ``output_pixels * batch`` per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigError
from repro.workloads.models import Network


@dataclass(frozen=True)
class DuplicationReport:
    """Unique vs duplicated ifmap pixels for one network (Fig. 8)."""

    network: str
    unique_pixels: int
    streamed_pixels: int

    @property
    def duplicated_pixels(self) -> int:
        return max(0, self.streamed_pixels - self.unique_pixels)

    @property
    def duplication_ratio(self) -> float:
        """Fraction of streamed pixels that are duplicates."""
        if self.streamed_pixels == 0:
            return 0.0
        return self.duplicated_pixels / self.streamed_pixels


def duplication_report(network: Network) -> DuplicationReport:
    """Aggregate ifmap duplication over a network's convolutional layers."""
    unique = 0
    streamed = 0
    for layer in network.conv_layers:
        unique += min(layer.unique_ifmap_pixels(), layer.streamed_ifmap_pixels())
        streamed += layer.streamed_ifmap_pixels()
    return DuplicationReport(network.name, unique, streamed)


@dataclass(frozen=True)
class IntensityReport:
    """Computational intensity of a workload at a given batch size."""

    network: str
    batch: int
    total_macs: int
    weight_bytes: int

    @property
    def macs_per_weight_byte(self) -> float:
        """MACs executed per weight byte mapped (the Fig. 17 x-axis)."""
        if self.weight_bytes == 0:
            return 0.0
        return self.total_macs / self.weight_bytes

    def roofline_mac_per_s(self, peak_mac_per_s: float, bandwidth_bytes_per_s: float) -> float:
        """Attainable MAC/s under the weight-traffic roofline."""
        return min(peak_mac_per_s, self.macs_per_weight_byte * bandwidth_bytes_per_s)


def intensity_report(network: Network, batch: int = 1) -> IntensityReport:
    """Compute a workload's intensity: every weight performs E*F*batch MACs."""
    if batch < 1:
        raise ConfigError("batch must be positive",
                          code="config.invalid_batch", batch=batch)
    return IntensityReport(
        network=network.name,
        batch=batch,
        total_macs=network.total_macs * batch,
        weight_bytes=network.total_weight_bytes,
    )


def per_layer_intensity(network: Network, batch: int = 1) -> Dict[str, float]:
    """MACs per weight byte for each layer (``output_pixels * batch``)."""
    return {layer.name: float(layer.output_pixels * batch) for layer in network.layers}


def max_batch_for_buffer(network: Network, buffer_bytes: int) -> int:
    """Largest batch whose worst layer footprint fits ``buffer_bytes``.

    This is the paper's Table II batch-sizing rule: the batch is the
    maximum number of images whose largest-layer ifmap+ofmap data can be
    held on chip without extra off-chip traffic (at least 1).
    """
    if buffer_bytes <= 0:
        return 1
    footprint = network.max_layer_footprint_bytes
    return max(1, buffer_bytes // footprint)


def summarize(networks: List[Network]) -> List[Dict[str, float]]:
    """Quick table of per-network totals used by docs and examples."""
    rows = []
    for network in networks:
        report = duplication_report(network)
        rows.append(
            {
                "network": network.name,
                "layers": len(network.layers),
                "gmacs": network.total_macs / 1e9,
                "weight_mb": network.total_weight_bytes / 2**20,
                "duplication_pct": 100.0 * report.duplication_ratio,
            }
        )
    return rows
