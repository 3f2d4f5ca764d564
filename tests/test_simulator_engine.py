"""Cycle-level simulator behaviour tests — the paper's core claims."""

import pytest

from repro.baselines.scalesim import TPU_CORE, simulate_cmos
from repro.errors import ConfigError
from repro.estimator.arch_level import estimate_npu
from repro.simulator.dataflow_ablation import simulate_os
from repro.simulator.engine import simulate
from repro.simulator.trace import trace_layer
from repro.simulator.training import simulate_training_step
from repro.workloads.analysis import intensity_report
from repro.workloads.models import alexnet, mobilenet, resnet50


@pytest.fixture(scope="module")
def estimates(request):
    return {}


def _run(config, network, batch, rsfq):
    estimate = estimate_npu(config, rsfq)
    return simulate(config, network, batch=batch, estimate=estimate), estimate


def test_baseline_dominated_by_preparation(rsfq, baseline_config, tiny_network):
    """Fig. 15: preparation exceeds 90% of Baseline cycles."""
    run, _ = _run(baseline_config, tiny_network, 1, rsfq)
    assert run.cycle_breakdown()["preparation"] > 0.90


def test_baseline_fig15_on_real_workloads(rsfq, baseline_config):
    for build in (alexnet, resnet50):
        run, _ = _run(baseline_config, build(), 1, rsfq)
        assert run.cycle_breakdown()["preparation"] > 0.90


def test_baseline_utilization_below_1pct(rsfq, baseline_config):
    """Section V-A1: Baseline's effective perf is <0.2%-ish of peak."""
    run, est = _run(baseline_config, resnet50(), 1, rsfq)
    assert run.pe_utilization(est.peak_mac_per_s) < 0.01


def test_buffer_division_cuts_cycles(rsfq, baseline_config, buffer_opt_config, tiny_network):
    base, _ = _run(baseline_config, tiny_network, 1, rsfq)
    opt, _ = _run(buffer_opt_config, tiny_network, 1, rsfq)
    assert opt.total_cycles < base.total_cycles


def test_integration_removes_psum_moves(rsfq, baseline_config, buffer_opt_config):
    net = resnet50()
    base, _ = _run(baseline_config, net, 1, rsfq)
    opt, _ = _run(buffer_opt_config, net, 1, rsfq)
    assert sum(l.psum_move_cycles for l in base.layers) > 0
    assert sum(l.psum_move_cycles for l in opt.layers) == 0


def test_batching_raises_throughput(rsfq, supernpu_config):
    net = resnet50()
    b1, _ = _run(supernpu_config, net, 1, rsfq)
    b30, _ = _run(supernpu_config, net, 30, rsfq)
    assert b30.mac_per_s > 3 * b1.mac_per_s


def test_registers_help_narrow_layers(rsfq, resource_opt_config, supernpu_config):
    """Fig. 22: 8 registers recover the throughput the 64-wide array loses
    on layers with many filters."""
    net = resnet50()
    no_regs, _ = _run(resource_opt_config, net, 30, rsfq)
    regs, _ = _run(supernpu_config, net, 30, rsfq)
    assert regs.mac_per_s > no_regs.mac_per_s


def test_design_progression_monotone(rsfq, baseline_config, buffer_opt_config,
                                      resource_opt_config, supernpu_config):
    """Fig. 23's qualitative progression on the average workload."""
    from repro.core.batching import paper_batch

    networks = [alexnet(), resnet50(), mobilenet()]
    means = []
    for config in (baseline_config, buffer_opt_config, resource_opt_config, supernpu_config):
        total = 0.0
        for net in networks:
            run, _ = _run(config, net, paper_batch(config.name, net.name), rsfq)
            total += run.mac_per_s
        means.append(total / len(networks))
    assert means[0] < means[1] < means[3]
    assert means[3] > 10 * means[0]


def test_macs_match_workload(rsfq, supernpu_config, tiny_network):
    run, _ = _run(supernpu_config, tiny_network, 4, rsfq)
    assert run.total_macs == tiny_network.total_macs * 4


def test_layer_results_have_consistent_totals(rsfq, baseline_config, tiny_network):
    run, _ = _run(baseline_config, tiny_network, 1, rsfq)
    for layer in run.layers:
        assert layer.total_cycles >= max(
            layer.preparation_cycles + layer.compute_cycles, layer.dram_cycles
        ) - 1
        assert layer.memory_stall_cycles >= 0


def test_activity_trace_populated(rsfq, supernpu_config, tiny_network):
    run, _ = _run(supernpu_config, tiny_network, 2, rsfq)
    cycles = run.activity.effective_cycles
    assert {"pe_array", "dau", "ifmap_buffer", "output_buffer", "weight_buffer"} <= set(cycles)
    assert all(v >= 0 for v in cycles.values())


def test_resident_activations_skip_dram(rsfq, supernpu_config, tiny_network):
    run, _ = _run(supernpu_config, tiny_network, 1, rsfq)
    # First layer pays its ifmap; the tiny mid-layer stays resident, so the
    # second layer's traffic is weights only.
    conv2 = run.layers[1]
    assert conv2.dram_traffic_bytes == tiny_network.layers[1].weight_bytes


def test_batch_must_be_positive(rsfq, supernpu_config, tiny_network):
    with pytest.raises(ValueError):
        simulate(supernpu_config, tiny_network, batch=0)


@pytest.mark.parametrize("entry", [
    lambda config, network: simulate(config, network, batch=0),
    lambda config, network: trace_layer(network.layers[0], config, batch=0),
    lambda config, network: simulate_training_step(config, network, batch=0),
    lambda config, network: simulate_os(config, network, batch=0),
    lambda config, network: intensity_report(network, batch=0),
    lambda config, network: simulate_cmos(TPU_CORE, network, batch=0),
], ids=["simulate", "trace_layer", "simulate_training_step", "simulate_os",
        "intensity_report", "simulate_cmos"])
def test_entry_points_reject_nonpositive_batch_as_config_error(
        entry, supernpu_config, tiny_network):
    with pytest.raises(ConfigError) as raised:
        entry(supernpu_config, tiny_network)
    assert raised.value.code == "config.invalid_batch"


def test_simulate_without_estimate_uses_default_library(supernpu_config, tiny_network):
    run = simulate(supernpu_config, tiny_network, batch=1)
    assert run.frequency_ghz == pytest.approx(52.6, rel=0.002)
