"""``repro.api`` — the canonical typed entry points of the framework.

One facade instead of five scattered imports: resolve a design, estimate
it, simulate it, evaluate the paper suite, or compare arbitrary design
points, with uniform input handling everywhere:

* **designs** — a named design point (``"supernpu"``), a path to a JSON
  config file, a plain config dict, or an :class:`NPUConfig`;
* **workloads** — a benchmark name (``"resnet50"``) or a
  :class:`~repro.workloads.models.Network`;
* **technology** — ``"rsfq"`` / ``"ersfq"`` (or a
  :class:`~repro.device.cells.CellLibrary` for custom libraries).

Every simulation goes through the ambient job runner
(:mod:`repro.core.jobs`), so parallelism and result caching apply
uniformly::

    from repro import api

    config = api.design("supernpu")
    print(api.estimate(config).frequency_ghz)           # 52.6
    run = api.simulate(config, "resnet50", batch=30)

    with api.session(jobs=4, cache_dir="~/.cache/supernpu"):
        suite = api.evaluate()                          # Fig. 23, fanned out

Execution knobs (fan-out, cache, retries, timeouts, progress, hotspot
profiling) are one :class:`RunOptions` value shared by every verb —
``api.evaluate(options=RunOptions(jobs=4))`` is the one-shot spelling of
the session block above.  Plans evaluate either point-by-point
(:func:`run_plan`) or as dense axis-shaped grids (:func:`evaluate_grid`).

The CLI commands are thin wrappers over these functions.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.baselines.scalesim import TPU_CORE, CMOSNPUConfig
from repro.components import (
    ComponentEstimator,
    CrossTemperatureReport,
    all_components,
    component_by_name,
    cross_temperature_report,
)
from repro.core.ablate import AblationRow, ablation_study
from repro.core.batching import batch_for
from repro.core.compare import ComparisonColumn, compare as _compare
from repro.core.config_io import config_from_dict, load as _load_config
from repro.core.designs import design_by_name
from repro.core.evaluate import EvaluationSuite, evaluate_suite
from repro.core.jobs import (
    JobRunner,
    ResultCache,
    SimTask,
    get_runner,
    session,
    use_runner,
)
from repro.core.plan import (
    EvaluatedGrid,
    ExperimentPlan,
    GridEvaluation,
    ResultSet,
    evaluate_grid as _evaluate_grid,
    execute as _execute_plan,
    named_plans,
    plan_by_name,
)
from repro.core.resilience import RetryPolicy
from repro.device.cells import CellLibrary, Technology, library_for
from repro.errors import ConfigError, InvalidSpecError, InvalidWorkloadSpecError
from repro.estimator.arch_level import NPUEstimate
from repro.obs.hotspot import HotspotProfile, HotspotProfiler
from repro.obs.progress import ProgressReporter
from repro.obs.registry import RunRegistry
from repro.obs.timeline import CycleTimeline
from repro.simulator.results import SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network, all_workloads, by_name

#: Anything :func:`design` accepts.
DesignLike = Union[str, Path, Dict[str, object], NPUConfig]
#: Anything :func:`workload` accepts.
WorkloadLike = Union[str, Network]
#: Anything :func:`library` accepts.
TechnologyLike = Union[str, Technology, CellLibrary]

__all__ = [
    "DesignLike",
    "WorkloadLike",
    "TechnologyLike",
    "RunOptions",
    "design",
    "workload",
    "library",
    "component",
    "components",
    "cross_temperature",
    "estimate",
    "simulate",
    "evaluate",
    "evaluate_grid",
    "compare",
    "ablate",
    "plans",
    "plan",
    "run_plan",
    "ComponentEstimator",
    "CrossTemperatureReport",
    "EvaluatedGrid",
    "ExperimentPlan",
    "GridEvaluation",
    "ResultSet",
    "HotspotProfile",
    "HotspotProfiler",
    "JobRunner",
    "ProgressReporter",
    "ResultCache",
    "RunRegistry",
    "SimTask",
    "get_runner",
    "session",
    "use_runner",
]


def design(spec: DesignLike) -> NPUConfig:
    """Resolve any design description to an :class:`NPUConfig`.

    Accepts an ``NPUConfig`` (returned as-is), a config dict, a path to
    a JSON config file (``Path``, or a string naming an existing file /
    ending in ``.json``), or a named paper design point.
    """
    if isinstance(spec, NPUConfig):
        return spec
    if isinstance(spec, dict):
        return config_from_dict(spec)
    if isinstance(spec, Path):
        return _load_config(spec)
    if isinstance(spec, str):
        if spec.endswith(".json") or Path(spec).is_file():
            return _load_config(spec)
        return design_by_name(spec)
    raise InvalidSpecError(
        f"cannot resolve a design from {type(spec).__name__}; "
        "expected a name, dict, path, or NPUConfig",
        got=type(spec).__name__,
    )


def workload(spec: WorkloadLike) -> Network:
    """Resolve a benchmark name (or pass a Network through)."""
    if isinstance(spec, Network):
        return spec
    if isinstance(spec, str):
        return by_name(spec)
    raise InvalidWorkloadSpecError(
        f"cannot resolve a workload from {type(spec).__name__}; "
        "expected a name or Network",
        got=type(spec).__name__,
    )


def library(technology: TechnologyLike = "rsfq") -> CellLibrary:
    """Resolve a technology name / enum (or pass a CellLibrary through)."""
    if isinstance(technology, CellLibrary):
        return technology
    if isinstance(technology, Technology):
        return library_for(technology)
    if isinstance(technology, str):
        try:
            resolved = Technology(technology)
        except ValueError:
            raise ConfigError(
                f"unknown technology {technology!r}; "
                f"known: {[t.value for t in Technology]}",
                code="config.unknown_technology", name=technology,
            ) from None
        return library_for(resolved)
    raise InvalidSpecError(
        f"cannot resolve a cell library from {type(technology).__name__}; "
        "expected 'rsfq' / 'ersfq', a Technology, or a CellLibrary",
        got=type(technology).__name__,
    )


def component(name: str, kind: Optional[str] = None) -> ComponentEstimator:
    """Look up a registered component estimator by name.

    ``kind`` optionally restricts the lookup (``"memory"`` / ``"link"``);
    unknown names raise a :class:`ConfigError` listing the registry.
    """
    return component_by_name(name, kind=kind)


def components(kind: Optional[str] = None) -> List[ComponentEstimator]:
    """Every registered component, in registration order."""
    return all_components(kind=kind)


def cross_temperature(run: SimulationResult,
                      estimate_result: NPUEstimate) -> CrossTemperatureReport:
    """Per-stage dissipation + ladder-charged wall power of one run."""
    return cross_temperature_report(run, estimate_result)


@dataclass(frozen=True)
class RunOptions:
    """One bundle of execution knobs, shared by every ``repro.api`` verb.

    Where the verbs used to grow divergent keyword arguments, they now
    all take ``options=RunOptions(...)``:

    * ``jobs`` — parallel workers (1 = in-process serial);
    * ``cache_dir`` — result-cache directory (``None`` = no cache);
    * ``no_cache`` — force cache off even if ``cache_dir`` is set;
    * ``retries`` — re-attempts for transient task failures;
    * ``timeout_s`` — per-task wall-clock bound (parallel mode);
    * ``progress`` — a live :class:`~repro.obs.progress.ProgressReporter`
      (``None`` = off);
    * ``hotspot`` / ``hotspot_mode`` / ``hotspot_out`` — profile the
      call's host self-time (sampling or tracing); the collapsed stacks
      go to ``hotspot_out`` when given, otherwise a one-line summary is
      printed to stderr.
    """

    jobs: int = 1
    cache_dir: Optional[Union[str, Path]] = None
    no_cache: bool = False
    retries: int = 2
    timeout_s: Optional[float] = None
    progress: Optional[ProgressReporter] = None
    hotspot: bool = False
    hotspot_mode: str = "sampling"
    hotspot_out: Optional[Union[str, Path]] = None


@contextmanager
def _execution_scope(verb: str,
                     options: Optional[RunOptions]) -> Iterator[JobRunner]:
    """Resolve ``options=`` to an active runner."""
    if options is None:
        yield get_runner()
        return
    profiler = None
    if options.hotspot:
        profiler = HotspotProfiler(mode=options.hotspot_mode)
        profiler.start()
    try:
        cache_dir = None if options.no_cache else options.cache_dir
        with session(jobs=options.jobs, cache_dir=cache_dir,
                     retry=RetryPolicy(max_retries=options.retries),
                     timeout_s=options.timeout_s,
                     progress=options.progress) as scoped:
            yield scoped
    finally:
        if profiler is not None:
            profile = profiler.stop()
            if options.hotspot_out is not None:
                with open(options.hotspot_out, "w", encoding="utf-8") as fh:
                    fh.write(profile.collapsed())
            else:
                summary = profile.summary(top_n=3)
                print(f"hotspot [{verb}]: {summary}", file=sys.stderr)


def estimate(design_spec: DesignLike, *,
             technology: TechnologyLike = "rsfq",
             options: Optional[RunOptions] = None) -> NPUEstimate:
    """Frequency / power / area estimation of one design point."""
    with _execution_scope("estimate", options) as scoped:
        return scoped.estimate(design(design_spec), library(technology))


def simulate(design_spec: DesignLike, workload_spec: WorkloadLike, *,
             batch: Optional[int] = None,
             technology: TechnologyLike = "rsfq",
             timeline: Optional[CycleTimeline] = None,
             options: Optional[RunOptions] = None) -> SimulationResult:
    """Cycle-level simulation of one workload on one design.

    ``batch=None`` applies the paper's Table II policy (named designs)
    or the capacity-derived rule (custom configs).  A ``timeline`` run
    bypasses the runner — the timeline is filled by live simulation, so
    it cannot come from the cache or another process.
    """
    config = design(design_spec)
    network = workload(workload_spec)
    lib = library(technology)
    resolved_batch = batch if batch is not None else batch_for(config, network)
    with _execution_scope("simulate", options) as scoped:
        if timeline is not None:
            from repro.simulator.engine import simulate as engine_simulate

            est = scoped.estimate(config, lib)
            return engine_simulate(config, network, batch=resolved_batch,
                                   estimate=est, timeline=timeline)
        return scoped.run_one(SimTask(config, network, resolved_batch, lib))


def evaluate(designs: Optional[Sequence[DesignLike]] = None,
             workloads: Optional[Sequence[WorkloadLike]] = None, *,
             technology: TechnologyLike = "rsfq",
             tpu: CMOSNPUConfig = TPU_CORE,
             options: Optional[RunOptions] = None) -> EvaluationSuite:
    """The Fig. 23 suite: TPU baseline + design points x workloads."""
    with _execution_scope("evaluate", options) as scoped:
        return evaluate_suite(
            designs=None if designs is None else [design(d) for d in designs],
            workloads=None if workloads is None
            else [workload(w) for w in workloads],
            library=library(technology),
            tpu=tpu,
            runner=scoped,
        )


def compare(designs: Sequence[DesignLike],
            workloads: Optional[Sequence[WorkloadLike]] = None, *,
            technology: TechnologyLike = "rsfq",
            options: Optional[RunOptions] = None) -> List[ComparisonColumn]:
    """Side-by-side scorecards for any set of design points."""
    with _execution_scope("compare", options) as scoped:
        return _compare(
            [design(d) for d in designs],
            workloads=None if workloads is None
            else [workload(w) for w in workloads],
            library=library(technology),
            runner=scoped,
        )


def ablate(base: Optional[DesignLike] = None,
           workloads: Optional[Sequence[WorkloadLike]] = None, *,
           technology: TechnologyLike = "rsfq",
           options: Optional[RunOptions] = None) -> List[AblationRow]:
    """One-factor-at-a-time ablation of a design (default: SuperNPU)."""
    with _execution_scope("ablate", options) as scoped:
        return ablation_study(
            workloads=None if workloads is None
            else [workload(w) for w in workloads],
            library=library(technology),
            base=None if base is None else design(base),
            runner=scoped,
        )


def plans() -> List[str]:
    """The registered experiment plans (one per figure/table grid)."""
    return named_plans()


def plan(name: str) -> ExperimentPlan:
    """Build a registered plan by name (``ConfigError`` if unknown)."""
    return plan_by_name(name)


def run_plan(plan_or_name: Union[str, ExperimentPlan], *,
             options: Optional[RunOptions] = None) -> ResultSet:
    """Execute a plan (or a registered plan name) through the job engine.

    Inherits the ambient runner's cache, parallel fan-out, retry/timeout
    handling, and checkpoint resume; returns provenance-stamped per-point
    results.
    """
    resolved = plan_by_name(plan_or_name) if isinstance(plan_or_name, str) \
        else plan_or_name
    with _execution_scope("run_plan", options) as scoped:
        return _execute_plan(resolved, runner=scoped)


def evaluate_grid(plan_or_name: Union[str, ExperimentPlan], *,
                  options: Optional[RunOptions] = None) -> GridEvaluation:
    """Run a plan and return dense, axis-shaped per-grid result arrays.

    The lowered design points still execute through the job engine as
    one deduplicated submission (cache, fan-out, retries, checkpoints
    all apply); the returned :class:`GridEvaluation` adds the vectorized
    result surface — ``evaluation.grid().array("mac_per_s")`` is the
    whole grid as one numpy array, shaped by the grid's axes, instead of
    a hand-rolled loop over per-point records.
    """
    resolved = plan_by_name(plan_or_name) if isinstance(plan_or_name, str) \
        else plan_or_name
    with _execution_scope("evaluate_grid", options) as scoped:
        return _evaluate_grid(resolved, runner=scoped)


def paper_workloads() -> List[Network]:
    """The six benchmark CNNs, in canonical order."""
    return all_workloads()
