"""The redesigned execution surface of ``repro.api``.

Covers the two API-unification pieces of the batched-solver redesign:

* :class:`repro.api.RunOptions` — one options bundle shared by every
  verb;
* :func:`repro.api.evaluate_grid` — the grid-shaped plan verb, proven
  point-for-point identical to :func:`repro.api.run_plan`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.core.designs import supernpu
from repro.core.plan import (
    ExperimentPlan,
    Grid,
    batch_axis,
    config_axis,
    library_axis,
    workload_axis,
)
from repro.errors import ConfigError


@pytest.fixture()
def tiny_plan(tiny_network, rsfq):
    grid = Grid("curve", (
        config_axis((supernpu(),)),
        workload_axis((tiny_network,)),
        batch_axis((1, 2, 4)),
        library_axis((rsfq,)),
    ))
    return ExperimentPlan("tiny", (grid,), description="options test grid")


# -- RunOptions -------------------------------------------------------------

def test_run_options_defaults_and_frozen():
    options = api.RunOptions()
    assert options.jobs == 1
    assert options.cache_dir is None
    assert not options.no_cache
    assert options.retries == 2
    assert options.timeout_s is None
    assert options.progress is None
    assert list(options.__dataclass_fields__) == [
        "jobs", "cache_dir", "no_cache", "retries", "timeout_s", "progress"]
    with pytest.raises(AttributeError):
        options.jobs = 4  # frozen: one immutable bundle, safely shareable


def test_estimate_with_options_matches_plain(supernpu_config):
    plain = api.estimate(supernpu_config)
    scoped = api.estimate(supernpu_config, options=api.RunOptions())
    assert scoped.frequency_ghz == plain.frequency_ghz
    assert scoped.static_power_w == plain.static_power_w


def test_simulate_with_options_matches_plain(supernpu_config, tiny_network):
    plain = api.simulate(supernpu_config, tiny_network, batch=2)
    scoped = api.simulate(supernpu_config, tiny_network, batch=2,
                          options=api.RunOptions())
    assert scoped.total_cycles == plain.total_cycles
    assert scoped.mac_per_s == plain.mac_per_s


def test_options_cache_dir_caches_results(tmp_path, supernpu_config,
                                          tiny_network):
    options = api.RunOptions(cache_dir=tmp_path / "cache")
    first = api.simulate(supernpu_config, tiny_network, batch=2,
                         options=options)
    second = api.simulate(supernpu_config, tiny_network, batch=2,
                          options=options)
    assert second.total_cycles == first.total_cycles
    assert any((tmp_path / "cache").iterdir())  # something was persisted


def test_options_no_cache_overrides_cache_dir(tmp_path, supernpu_config,
                                              tiny_network):
    options = api.RunOptions(cache_dir=tmp_path / "cache", no_cache=True)
    api.simulate(supernpu_config, tiny_network, batch=1, options=options)
    assert not (tmp_path / "cache").exists()


def test_options_hotspot_writes_collapsed_stacks(supernpu_config, tiny_network):
    # Profiling wraps a verb; it is not one of its options.
    with api.HotspotProfiler(mode="tracing") as profiler:
        api.simulate(supernpu_config, tiny_network, batch=1,
                     options=api.RunOptions())
    assert "simulate_layer" in profiler.profile.collapsed()


def test_options_bad_hotspot_mode_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        api.HotspotProfiler(mode="bogus")
    assert err.value.code == "hotspot.unknown_mode"
    assert "sampling" in err.value.hint and "tracing" in err.value.hint


@pytest.mark.parametrize("sample_hz", [0.0, -5.0])
def test_non_positive_sample_hz_is_a_config_error(sample_hz):
    from repro.obs.hotspot import HotspotProfiler

    with pytest.raises(ConfigError) as err:
        HotspotProfiler(sample_hz=sample_hz)
    assert err.value.code == "hotspot.invalid_sample_hz"


# -- evaluate_grid ----------------------------------------------------------

def test_evaluate_grid_matches_run_plan_pointwise(tiny_plan):
    resultset = api.run_plan(tiny_plan)
    evaluation = api.evaluate_grid(tiny_plan)
    assert evaluation.plan_hash == resultset.plan_hash
    flat = list(evaluation.grid().results.ravel())
    assert len(flat) == len(resultset.results) == 3
    for grid_point, plan_point in zip(flat, resultset.results):
        assert grid_point.run.total_cycles == plan_point.run.total_cycles
        assert grid_point.run.mac_per_s == plan_point.run.mac_per_s


def test_evaluated_grid_shape_and_metric_array(tiny_plan):
    grid = api.evaluate_grid(tiny_plan).grid()
    assert grid.shape == (1, 1, 3, 1)
    assert grid.axis_names == ("config", "workload", "batch", "library")
    throughput = grid.array("mac_per_s")
    assert throughput.shape == (1, 1, 3, 1)
    assert np.isfinite(throughput).all()
    # Larger batches never lower throughput on this tiny workload.
    flat = throughput.ravel()
    assert flat[2] >= flat[0]


def test_evaluated_grid_label_lookup(tiny_plan):
    grid = api.evaluate_grid(tiny_plan).grid()
    point = grid.result(config="SuperNPU", workload="TinyNet",
                        batch="2", library="rsfq")
    assert point.run.batch == 2
    with pytest.raises(ConfigError) as err:
        grid.result(config="SuperNPU", workload="TinyNet", library="rsfq")
    assert err.value.code == "plan.missing_axis"
    with pytest.raises(ConfigError) as err:
        grid.result(config="SuperNPU", workload="TinyNet",
                    batch="99", library="rsfq")
    assert err.value.code == "plan.unknown_label"


def test_grid_evaluation_unknown_grid(tiny_plan):
    evaluation = api.evaluate_grid(tiny_plan)
    assert [g.name for g in evaluation] == ["curve"]
    with pytest.raises(ConfigError) as err:
        evaluation["nope"]
    assert err.value.code == "plan.unknown_grid"


def test_evaluate_grid_with_options_and_cache(tmp_path, tiny_plan):
    options = api.RunOptions(cache_dir=tmp_path / "cache")
    first = api.evaluate_grid(tiny_plan, options=options)
    second = api.evaluate_grid(tiny_plan, options=options)
    np.testing.assert_array_equal(first.grid().array("total_cycles"),
                                  second.grid().array("total_cycles"))
