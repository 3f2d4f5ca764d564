"""The benchmark's own tests: seeded inputs and the span bookkeeping.

Run from the repository root::

    python -m pytest -q perfbench/test_loads.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import loads  # noqa: E402
import spans  # noqa: E402
from repro import api  # noqa: E402
from repro.core.plan import ExperimentPlan, Grid, config_axis  # noqa: E402


def test_same_seed_gives_same_plan_hash_and_task_keys():
    first, second = loads.sweep_plan(7, 3), loads.sweep_plan(7, 3)
    assert first.plan_hash() == second.plan_hash()
    assert first.lower().task_keys() == second.lower().task_keys()


def test_different_seeds_give_different_design_points():
    assert loads.sweep_designs(1, 0) != loads.sweep_designs(2, 0)
    assert loads.sweep_designs(1, 0) != loads.sweep_designs(1, 1)
    assert loads.sweep_plan(1, 0).plan_hash() != loads.sweep_plan(2, 0).plan_hash()


def test_sweep_plan_is_search_shaped():
    plan = loads.sweep_plan(5, 0)
    assert plan.num_points == loads.SWEEP_DESIGNS * len(api.paper_workloads())
    assert [axis.kind for axis in plan.grids[0].axes] == [
        "config", "workload", "batch", "library"]
    assert len(set(plan.lower().task_keys())) == plan.num_points


def test_pulse_inputs_are_a_function_of_the_seed():
    first, second = loads.PulseInputs(11, 2), loads.PulseInputs(11, 2)
    assert first.stages == second.stages
    np.testing.assert_array_equal(first.drive_ps, second.drive_ps)
    np.testing.assert_array_equal(first.images, second.images)
    for (a, w, *rest), (b, v, *other) in zip(first.convs, second.convs):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(w, v)
        assert rest == other
    assert not np.array_equal(first.images, loads.PulseInputs(12, 2).images)


def test_paper_order_is_a_seeded_permutation():
    def order(seed):
        return list(loads.rng_for(seed, "paper", 0).permutation(len(loads.PAPER_PLANS)))

    assert order(3) == order(3)
    assert sorted(order(3)) == list(range(len(loads.PAPER_PLANS)))


@pytest.fixture
def tracer():
    tracer = spans.Tracer()
    with spans.Patched(tracer.rec):
        yield tracer


def test_traced_rep_attributes_its_time_to_layers(tracer):
    grid = loads.sweep_plan(9, 0).grids[0]
    one_design = ExperimentPlan("one-design", (Grid(
        "candidates", (config_axis(grid.axes[0].values[:1]),) + grid.axes[1:]),))
    points = tracer.traced(lambda: len(api.run_plan(one_design)))
    tracer.rescale(1.0)
    figures = tracer.per_rep[-1]
    assert points == figures["plan.points"] == len(api.paper_workloads())
    assert figures["jobs.key_calls"] >= points
    assert 0 < figures["jobs.key_useful_ratio"] <= 1
    assert figures["simulator.simulate_calls"] == points
    assert figures["estimator.estimate_calls"] == 1
    assert figures["simulator.cycles"] > 0
    assert figures["trace.unattributed_frac"] < 0.2


def test_patches_are_restored():
    import repro.core.jobs as jobs

    original = jobs.simulate
    with spans.Patched(spans.Recorder()):
        assert jobs.simulate.__wrapped__ is original
    assert jobs.simulate is original
