"""Seeded inputs and the four benchmark workloads.

Every input is a pure function of ``(seed, repetition)``: the same seed
always yields the same plans, task keys, circuits and tensors, and the
program under test only ever sees what these generators produce.

Each workload object has the same life cycle, driven by ``run.py``:

* ``setup()`` — what a fresh process pays before its first repetition
  (input generation, and the cache fill on ``sweep-warm``); timed as
  part of ``setup_s``;
* ``prepare(index)`` — generates one repetition's inputs, untimed;
* ``rep(index)`` — one closed-loop repetition through the public API,
  returning the number of work points it completed; timed;
* ``check(index)`` — verifies that repetition's outputs, untimed;
  returns the number of wrong points;
* ``finish()`` — checks that need the whole run (references computed
  once), untimed; returns ``(outputs checked beyond the points, wrong)``;
* ``close()`` — removes what the workload wrote.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from itertools import product
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import api, functional, jsim
from repro.core import golden
from repro.core.optimizer import resource_config
from repro.core.plan import (
    ExperimentPlan,
    Grid,
    batch_axis,
    config_axis,
    library_axis,
    workload_axis,
)
from repro.estimator.arch_level import estimate_npu
from repro.simulator.engine import simulate

#: The search grid's axes (``repro.core.search``): sweep plans draw their
#: design points from it, so each one is shaped like a slice of ``search``.
SEARCH_WIDTHS = (256, 128, 64, 32)
SEARCH_DIVISIONS = (1, 16, 64, 256)
SEARCH_REGISTERS = (1, 2, 8, 16)
#: Design points per sweep plan; each is crossed with the six paper CNNs.
SWEEP_DESIGNS = 16
#: Directly re-simulated points per ``sweep-cold`` repetition.
COLD_SAMPLES = 3
#: Distinct plans the ``sweep-warm`` set-up writes into its cache.
WARM_PLANS = 4

#: The registered plans ``paper-mixed`` runs, 285 unique tasks in all.
PAPER_PLANS = ("fig20_buffers", "fig21_resources", "fig22_registers",
               "fig23_evaluate", "table3_power")
PAPER_JOBS = 2

#: ``pulse-physics`` sizes per repetition, chosen so the JTL transients
#: and the functional array each take about half of a repetition.
JTL_MEMBERS = 4
JTL_STAGES = (6, 13)
#: Every transient integrates this long, so a repetition's step count
#: does not depend on its draws: the latest pulse (20 ps) clears a
#: 12-stage line (~2.2 ps/stage) with room to spare.
JTL_DURATION_PS = 60.0
CONVS = 48
#: Convolutions per repetition re-computed by the (slow) direct reference.
CONV_SAMPLES = 4
IMAGES = 32

_STREAM = {"sweep": 1, "check": 2, "paper": 3, "pulse": 4}


def rng_for(seed: int, stream: str, index: int) -> np.random.Generator:
    """The generator of one input stream at one repetition index."""
    return np.random.default_rng([seed, _STREAM[stream], index])


def fingerprint(run) -> str:
    """sha256 of an exact text image of a simulation result.

    Floats print as their shortest round-trip ``repr``, so two results
    have equal fingerprints only if every field is bitwise equal; the
    activity map is sorted because cached and fresh payloads may list
    its units in different orders.
    """
    image = repr((run.design, run.network, run.batch, run.frequency_ghz, run.layers,
                  sorted(run.activity.effective_cycles.items())))
    return hashlib.sha256(image.encode()).hexdigest()


# -- sweep plans --------------------------------------------------------------

def sweep_designs(seed: int, index: int) -> List[Tuple[int, int, int]]:
    """The ``(width, division, registers)`` points of one sweep plan."""
    grid = list(product(SEARCH_WIDTHS, SEARCH_DIVISIONS, SEARCH_REGISTERS))
    picks = rng_for(seed, "sweep", index).choice(len(grid), SWEEP_DESIGNS, replace=False)
    return [grid[pick] for pick in picks]


def sweep_plan(seed: int, index: int) -> ExperimentPlan:
    """One seed-drawn, search-grid-shaped plan: designs x the six CNNs.

    Design names carry the seed and plan index, so every plan's designs
    have estimate keys no earlier plan used: estimation runs for real,
    as in a fresh CLI call.
    """
    library = api.library("rsfq")
    configs = []
    for number, (width, division, registers) in enumerate(sweep_designs(seed, index)):
        base = resource_config(width, registers=registers, library=library)
        # Same division rule as repro.core.search's candidate grid.
        factor = max(1, division // 64)
        configs.append(base.with_updates(
            name=f"s{seed}-p{index}-n{number}-w{width}-d{division}-r{registers}",
            ifmap_division=division if division < 64 else base.ifmap_division * factor,
            output_division=division if division < 64 else base.output_division * factor,
        ))
    grid = Grid("candidates", (
        config_axis(tuple(configs)),
        workload_axis(tuple(api.paper_workloads())),
        batch_axis(("derived",)),
        library_axis((library,)),
    ))
    return ExperimentPlan(f"perfbench-sweep-{seed}-{index}", (grid,))


class SweepCold:
    """Fresh plans each repetition, no cache, one in-process job."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self._plans: Dict[int, ExperimentPlan] = {}
        self._results: Dict[int, object] = {}

    def setup(self) -> None:
        self._plans[0] = sweep_plan(self.seed, 0)

    def prepare(self, index: int) -> None:
        if index not in self._plans:
            self._plans[index] = sweep_plan(self.seed, index)

    def rep(self, index: int) -> int:
        results = api.run_plan(self._plans[index], options=api.RunOptions(jobs=1))
        self._results[index] = results
        return len(results)

    def check(self, index: int) -> int:
        plan = self._plans.pop(index)
        results = self._results.pop(index)
        configs = plan.grids[0].axes[0].values
        networks = plan.grids[0].axes[1].values
        library = plan.grids[0].axes[3].values[0]
        wrong = 0
        picks = rng_for(self.seed, "check", index).choice(len(results), COLD_SAMPLES,
                                                          replace=False)
        for pick in picks:
            config_index, network_index = divmod(int(pick), len(networks))
            config = configs[config_index]
            result = results.results[pick]
            direct = simulate(config, networks[network_index], batch=result.batch,
                              estimate=estimate_npu(config, library))
            wrong += fingerprint(direct) != fingerprint(result.run)
        return wrong

    def finish(self) -> Tuple[int, int]:
        return 0, 0

    def close(self) -> None:
        pass


class SweepWarm:
    """The ``sweep-cold`` plans re-run against a cache that set-up filled."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.cache_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=scratch))
        self.plans = [sweep_plan(seed, index) for index in range(WARM_PLANS)]
        self._cold: List[List[str]] = []
        self._last: object = None

    def _options(self) -> api.RunOptions:
        return api.RunOptions(jobs=1, cache_dir=self.cache_dir)

    def setup(self) -> None:
        self._cold = [[fingerprint(result.run) for result in
                       api.run_plan(plan, options=self._options())]
                      for plan in self.plans]

    def prepare(self, index: int) -> None:
        pass

    def plan_index(self, index: int) -> int:
        # Consecutive pairs share a plan, so a traced run (which traces
        # every other repetition) times each plan both ways.
        return (index // 2) % WARM_PLANS

    def rep(self, index: int) -> int:
        self._last = api.run_plan(self.plans[self.plan_index(index)],
                                  options=self._options())
        return len(self._last)

    def check(self, index: int) -> int:
        cold = self._cold[self.plan_index(index)]
        warm = [fingerprint(result.run) for result in self._last]
        self._last = None
        return sum(a != b for a, b in zip(cold, warm)) + abs(len(cold) - len(warm))

    def finish(self) -> Tuple[int, int]:
        return 0, 0

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class PaperMixed:
    """The paper-figure plans in a seeded order, two jobs, one fresh cache."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self._orders: Dict[int, List[str]] = {}
        self._cache_dirs: Dict[int, Path] = {}
        self._seen: Dict[str, List[List[str]]] = {name: [] for name in PAPER_PLANS}
        self._last: Dict[str, object] = {}

    def setup(self) -> None:
        self.prepare(0)

    def prepare(self, index: int) -> None:
        if index in self._orders:
            return
        order = rng_for(self.seed, "paper", index).permutation(len(PAPER_PLANS))
        self._orders[index] = [PAPER_PLANS[position] for position in order]
        self._cache_dirs[index] = Path(tempfile.mkdtemp(prefix="mixed-", dir=self.scratch))

    def rep(self, index: int) -> int:
        options = api.RunOptions(jobs=PAPER_JOBS, cache_dir=self._cache_dirs[index])
        points = 0
        for name in self._orders.pop(index):
            self._last[name] = api.run_plan(name, options=options)
            points += len(self._last[name])
        return points

    def check(self, index: int) -> int:
        # Results are compared with the serial reference in finish().
        for name, results in self._last.items():
            self._seen[name].append([fingerprint(result.run) for result in results])
        self._last = {}
        shutil.rmtree(self._cache_dirs.pop(index), ignore_errors=True)
        return 0

    def finish(self) -> Tuple[int, int]:
        wrong = 0
        for name, runs in self._seen.items():
            reference = [fingerprint(result.run) for result in
                         api.run_plan(name, options=api.RunOptions(jobs=1))]
            for run in runs:
                wrong += sum(a != b for a, b in zip(reference, run))
                wrong += abs(len(reference) - len(run))
        # The golden paper numbers, once per run; each metric is one more
        # checked output.
        return len(golden.GOLDEN), wrong + len(golden.check())

    def close(self) -> None:
        for cache_dir in self._cache_dirs.values():
            shutil.rmtree(cache_dir, ignore_errors=True)


# -- pulse physics -------------------------------------------------------------

class PulseInputs:
    """One repetition's JTL transients, int8 convolutions and images."""

    def __init__(self, seed: int, index: int) -> None:
        rng = rng_for(seed, "pulse", index)
        self.stages = int(rng.integers(*JTL_STAGES))
        self.drive_ps = np.round(rng.uniform(10.0, 20.0, JTL_MEMBERS), 3)
        self.check_member = int(rng.integers(JTL_MEMBERS))
        self.check_convs = rng.choice(CONVS, CONV_SAMPLES, replace=False)
        self.convs = []
        for _ in range(CONVS):
            channels, filters = int(rng.integers(2, 17)), int(rng.integers(4, 17))
            size, kernel = int(rng.integers(6, 13)), int(rng.choice((1, 3)))
            rows, cols = int(rng.choice((8, 16, 32))), int(rng.choice((8, 16, 32)))
            ifmap = rng.integers(-128, 128, size=(channels, size, size), dtype=np.int64)
            weights = rng.integers(-128, 128, size=(filters, channels, kernel, kernel),
                                   dtype=np.int64)
            self.convs.append((ifmap, weights, rows, cols, kernel // 2))
        self.model_seed = int(rng.integers(2 ** 31))
        self.images = rng.normal(0.0, 1.0, size=(IMAGES, 1, 12, 12))

    @property
    def points(self) -> int:
        return JTL_MEMBERS + CONVS + IMAGES


def _member_sources(jtl: "jsim.JTL", drive_ps: float) -> list:
    """The line's bias sources plus the trigger ``drive_jtl`` would add."""
    return list(jtl.circuit.sources) + [jsim.CurrentSource(
        jtl.input_node, jsim.gaussian_pulse(drive_ps, 300.0), label="input")]


def _reference_conv(ifmap, weights, array_rows, array_cols, stride=1, padding=0):
    return functional.conv2d_reference(ifmap, weights, stride, padding)


class PulsePhysics:
    """Batched JTL transients plus int8 systolic convolutions and inference.

    Calls go through the package attributes (``jsim.build_jtl``,
    ``functional.conv2d_systolic``) at call time, which is where the
    traced run patches them.
    """

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self._inputs: Dict[int, PulseInputs] = {}
        self._outputs: Dict[int, tuple] = {}

    def setup(self) -> None:
        self.prepare(0)

    def prepare(self, index: int) -> None:
        if index not in self._inputs:
            self._inputs[index] = PulseInputs(self.seed, index)

    def rep(self, index: int) -> int:
        inputs = self._inputs[index]
        jtl = jsim.build_jtl(inputs.stages)
        solver = jsim.TransientSolver(jtl.circuit)
        transients = solver.run_batch(
            JTL_DURATION_PS,
            sources=[_member_sources(jtl, t) for t in inputs.drive_ps])
        convs = [functional.conv2d_systolic(ifmap, weights, rows, cols, 1, padding)
                 for ifmap, weights, rows, cols, padding in inputs.convs]
        model = functional.TinyQuantCNN.random(seed=inputs.model_seed)
        npu = functional.FunctionalNPU()
        logits = [model.forward_systolic(image, npu) for image in inputs.images]
        self._outputs[index] = (jtl, transients, convs, model, npu, logits)
        return inputs.points

    def check(self, index: int) -> int:
        inputs = self._inputs.pop(index)
        jtl, transients, convs, model, npu, logits = self._outputs.pop(index)
        wrong = sum(jsim.switch_count(member, jtl.nodes[-1]) < 1 for member in transients)
        # One seed-chosen member against a lone run() of the same circuit.
        alone = jsim.build_jtl(inputs.stages)
        jsim.drive_jtl(alone, float(inputs.drive_ps[inputs.check_member]))
        single = jsim.TransientSolver(alone.circuit).run(JTL_DURATION_PS)
        member = transients.member(inputs.check_member)
        wrong += not (np.array_equal(single.phases, member.phases)
                      and np.array_equal(single.rates, member.rates))
        for pick in inputs.check_convs:
            ifmap, weights, _, _, padding = inputs.convs[pick]
            output = convs[pick]
            reference = functional.conv2d_reference(ifmap, weights, 1, padding)
            wrong += not (output.dtype == reference.dtype
                          and np.array_equal(output, reference))
        # Inference: the same quantized pipeline with the reference conv in
        # place of the systolic array must give bitwise-equal logits.
        systolic_conv = functional.inference.conv2d_systolic
        functional.inference.conv2d_systolic = _reference_conv
        try:
            expected = [model.forward_systolic(image, npu) for image in inputs.images]
        finally:
            functional.inference.conv2d_systolic = systolic_conv
        wrong += sum(not np.array_equal(a, b) for a, b in zip(expected, logits))
        return int(wrong)

    def finish(self) -> Tuple[int, int]:
        return 0, 0

    def close(self) -> None:
        pass


WORKLOADS = {
    "sweep-cold": SweepCold,
    "sweep-warm": SweepWarm,
    "paper-mixed": PaperMixed,
    "pulse-physics": PulsePhysics,
}
