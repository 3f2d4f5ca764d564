"""Parallel execution + content-addressed result caching for evaluation.

Every paper-scale experiment (``evaluate``, ``sweep``, ``compare``,
``search``, ``ablate``) boils down to a fan-out of independent, fully
deterministic ``(config, network, batch, library)`` simulations.  This
module turns that fan-out into an explicit job layer:

* :class:`SimTask` — one design-point simulation, SFQ or CMOS-baseline;
* :class:`ResultCache` — a content-addressed on-disk store keyed by a
  stable hash of the config, the workload's full layer content, the
  batch, the cell-library fingerprint, and a cache-schema version, so a
  warm re-run skips simulation entirely and any change to any key
  component is automatically a miss.  Unreadable or wrong-schema
  entries are quarantined into ``<root>/quarantine/`` on first
  encounter instead of being silently re-missed forever;
* :class:`JobRunner` — executes a task list serially (the default, for
  determinism-by-default) or over a ``ProcessPoolExecutor`` when
  ``jobs > 1``, consulting the cache either way — and survives the
  failures a long sweep actually hits: per-task wall-clock timeouts,
  bounded retry with backoff + jitter for transient worker failures
  (:class:`repro.core.resilience.RetryPolicy`), ``BrokenProcessPool``
  recovery that re-executes stranded tasks, and graceful degradation
  to serial execution when the pool dies twice.  Each completed task is
  written to the cache at once, so a killed sweep re-run against the
  same cache resumes instead of restarting.

A task is keyed once: :meth:`SimTask.key` and :func:`estimate_key` hash
the canonical JSON of their signature document, spliced from memoized
per-network, per-config, and per-library texts, and a caller that holds
the keys already (a lowered plan) hands them to :meth:`JobRunner.run`.
A payload is encoded only at a cache or process boundary — a cache
write, or a result coming back from a worker — and decoded once on the
other side; an in-process simulation is returned as it was computed.
The codec round trip is exact, so serial, parallel, warm-cache, and
failure-recovered runs are bitwise-identical (proven by
``tests/test_resilience.py`` under injected crashes, hangs, SIGKILLs,
and corrupted cache entries).

The runner is ambient: library code calls :func:`get_runner` (a shared
serial, cache-less default) and the CLI / API install a configured one
with :func:`use_runner` or :func:`session`::

    with session(jobs=4, cache_dir="~/.cache/supernpu") as runner:
        suite = evaluate_suite()          # fans out through the runner

Cache and resilience counters are exported through the ``repro.obs``
metrics registry (``jobs.cache.hits``, ``jobs.cache.misses``,
``jobs.sim.executed``, ``jobs.retries``, ``jobs.timeouts``,
``jobs.degraded``, ``jobs.cache.quarantined``, ...).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Deque, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro import obs
from repro.baselines.scalesim import CMOSNPUConfig, simulate_cmos
from repro.components.base import (
    DEFAULT_LINK_TECHNOLOGY,
    DEFAULT_MEMORY_TECHNOLOGY,
)
from repro.core.chaos import ChaosInjector
from repro.core.resilience import RetryPolicy
from repro.obs.progress import ProgressReporter
from repro.device.cells import CellLibrary, Technology, library_for
from repro.errors import CacheError, ConfigError, ReproError, WorkerError
from repro.estimator.arch_level import NPUEstimate, estimate_npu
from repro.estimator.uarch_level import UnitEstimate
from repro.simulator.engine import simulate
from repro.simulator.results import ActivityTrace, LayerResult, SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network

#: Bump whenever the simulator, the estimator, or the payload layout
#: changes meaning: old cache entries become unreachable (their keys no
#: longer match), never silently wrong.
CACHE_SCHEMA_VERSION = 1

#: Subdirectory of a cache root where damaged entries are parked.
QUARANTINE_DIR = "quarantine"


# -- stable content hashing ------------------------------------------------

def _canonical_json(document: Any) -> str:
    """The canonical sorted-key, separator-free JSON text of ``document``."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_hash(document: Any) -> str:
    """sha256 (hex) of the canonical sorted-key JSON of ``document``."""
    return _digest(_canonical_json(document))


def _canonical_object(members: Dict[str, str]) -> str:
    """Canonical JSON of an object whose member values are canonical JSON.

    Sorted-key JSON renders a nested object exactly as it renders it on
    its own, so memoized member texts splice in byte for byte: the result
    equals :func:`_canonical_json` of the whole document.
    """
    return "{" + ",".join(f"{json.dumps(name)}:{members[name]}"
                          for name in sorted(members)) + "}"


#: Technology fields whose *default* values are omitted from config
#: signatures: a default-technology config must hash (and serialize)
#: exactly as it did before the fields existed, so every pre-registry
#: cache key, payload, and plan hash stays bitwise-identical, while any
#: non-default technology automatically changes every key.
_DEFAULT_TECHNOLOGY_FIELDS = {
    "memory_technology": DEFAULT_MEMORY_TECHNOLOGY,
    "link_technology": DEFAULT_LINK_TECHNOLOGY,
}


def config_signature(config: Union[NPUConfig, CMOSNPUConfig]) -> Dict[str, Any]:
    """The cache-relevant content of a design config (JSON-able)."""
    document = dataclasses.asdict(config)
    for field_name, default in _DEFAULT_TECHNOLOGY_FIELDS.items():
        if document.get(field_name) == default:
            del document[field_name]
    return document


def workload_signature(network: Network) -> Dict[str, Any]:
    """The workload's full content (name + every layer field).

    Editing any layer of a network — not just renaming it — must change
    the cache key, so the signature covers the complete layer tuples.
    """
    return {
        "name": network.name,
        "layers": [dataclasses.asdict(layer) for layer in network.layers],
    }


def library_fingerprint(library: CellLibrary) -> Dict[str, Any]:
    """Cache-relevant content of a cell library (technology, process, cells)."""
    return {
        "technology": library.technology.value,
        "process": dataclasses.asdict(library.process),
        "cells": {name: dataclasses.asdict(library[name]) for name in library.names},
    }


class _SignatureText:
    """Memo: an object's signature, rendered as canonical JSON.

    An object is looked up by identity first, through a weak reference,
    so an entry lives exactly as long as its object.  When ``value_key``
    is given (the frozen-dataclass configs and networks), a miss is then
    looked up by value, so the equal networks and configs that every plan
    builds afresh share one rendering.  Dataclass equality holds ``300 ==
    300.0`` although the two render differently, so the value key also
    carries every field's type.  The value table keeps at most ``size``
    entries, dropping the oldest first.  Thread-safe: ``repro.api`` may
    be called from several user threads at once.
    """

    def __init__(self, signature: Callable[[Any], Any],
                 value_key: Optional[Callable[[Any], Any]] = None,
                 size: int = 256) -> None:
        self._signature = signature
        self._value_key = value_key
        self._size = size
        self._by_id: Dict[int, Tuple[weakref.ref, str]] = {}
        self._by_value: Dict[Any, str] = {}
        self._lock = threading.Lock()

    def __call__(self, source: Any) -> str:
        with self._lock:
            entry = self._by_id.get(id(source))
            if entry is not None and entry[0]() is source:
                return entry[1]
            value_key = None if self._value_key is None else self._value_key(source)
            text = None if value_key is None else self._by_value.get(value_key)
            if text is None:
                text = _canonical_json(self._signature(source))
                if value_key is not None:
                    if len(self._by_value) >= self._size:
                        del self._by_value[next(iter(self._by_value))]
                    self._by_value[value_key] = text
            # The callback runs when ``source`` dies, before its id can be
            # reused; it takes no lock, since collection may run inside
            # this block.
            ident = id(source)
            self._by_id[ident] = (
                weakref.ref(source, lambda _, ident=ident: self._by_id.pop(ident, None)),
                text)
            return text


def _field_types(instance: Any) -> Tuple[type, ...]:
    return tuple(type(getattr(instance, field.name))
                 for field in dataclasses.fields(instance))


_config_text = _SignatureText(
    config_signature, lambda config: (config, _field_types(config)))
_workload_text = _SignatureText(
    workload_signature,
    lambda network: (network, tuple(map(_field_types, network.layers))))
_library_text = _SignatureText(library_fingerprint)


# -- tasks -----------------------------------------------------------------

@dataclass(frozen=True)
class SimTask:
    """One design-point simulation: SFQ (``NPUConfig``) or CMOS baseline.

    ``library`` selects the SFQ cell library (default: calibrated RSFQ)
    and is ignored for CMOS-baseline configs, whose cycle model has no
    cell library.
    """

    config: Union[NPUConfig, CMOSNPUConfig]
    network: Network
    batch: int
    library: Optional[CellLibrary] = None

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ConfigError("batch must be positive",
                              code="config.invalid_batch", batch=self.batch)

    @property
    def is_cmos(self) -> bool:
        return not isinstance(self.config, NPUConfig)

    def resolved_library(self) -> Optional[CellLibrary]:
        if self.is_cmos:
            return None
        return self.library or library_for(Technology.RSFQ)

    def key(self) -> str:
        """Content-addressed cache key of this task.

        The sha256 of the canonical JSON of ``{schema, kind, config
        signature, workload signature, batch, library fingerprint}``,
        assembled from memoized signature texts.
        """
        library = self.resolved_library()
        return _digest(_canonical_object({
            "schema": _canonical_json(CACHE_SCHEMA_VERSION),
            "kind": _canonical_json("simulate_cmos" if self.is_cmos else "simulate"),
            "config": _config_text(self.config),
            "workload": _workload_text(self.network),
            "batch": _canonical_json(self.batch),
            "library": "null" if library is None else _library_text(library),
        }))


def estimate_key(config: NPUConfig, library: CellLibrary) -> str:
    """Cache key of one architecture-level estimation (same recipe as tasks)."""
    return _digest(_canonical_object({
        "schema": _canonical_json(CACHE_SCHEMA_VERSION),
        "kind": _canonical_json("estimate"),
        "config": _config_text(config),
        "library": _library_text(library),
    }))


# -- payload codecs --------------------------------------------------------
#
# Cached payloads are plain JSON dicts; these codecs round-trip the result
# records exactly (Python's json preserves ints and floats bit-exactly),
# which is what makes warm-cache runs bitwise-identical to cold ones.

def result_to_dict(run: SimulationResult) -> Dict[str, Any]:
    return {
        "design": run.design,
        "network": run.network,
        "batch": run.batch,
        "frequency_ghz": run.frequency_ghz,
        "layers": [dataclasses.asdict(layer) for layer in run.layers],
        "activity": dict(run.activity.effective_cycles),
    }


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    return SimulationResult(
        design=data["design"],
        network=data["network"],
        batch=data["batch"],
        frequency_ghz=data["frequency_ghz"],
        layers=[LayerResult(**layer) for layer in data["layers"]],
        activity=ActivityTrace(effective_cycles=dict(data["activity"])),
    )


def estimate_to_dict(estimate: NPUEstimate) -> Dict[str, Any]:
    # config_signature keeps default-technology payloads byte-identical
    # to pre-registry ones; estimate_from_dict refills omitted fields
    # from the NPUConfig defaults.
    return {
        "config": config_signature(estimate.config),
        "technology": estimate.technology,
        "frequency_ghz": estimate.frequency_ghz,
        "cycle_time_ps": estimate.cycle_time_ps,
        "critical_path": estimate.critical_path,
        "units": {name: dataclasses.asdict(unit) for name, unit in estimate.units.items()},
        "wiring_area_mm2": estimate.wiring_area_mm2,
        "wiring_static_power_w": estimate.wiring_static_power_w,
    }


def _sorted_units(estimate: NPUEstimate) -> NPUEstimate:
    """``estimate`` with its units in sorted-name order.

    Derived sums (e.g. ``static_power_w``) fold floats in iteration
    order, so a fresh estimate and a cache hit (JSON written with
    sort_keys) must agree on that order to stay bitwise-identical.
    """
    return dataclasses.replace(
        estimate, units={name: estimate.units[name] for name in sorted(estimate.units)})


def estimate_from_dict(data: Dict[str, Any]) -> NPUEstimate:
    # Units materialize in sorted-name order no matter how the payload
    # was ordered on disk (see _sorted_units).
    return NPUEstimate(
        config=NPUConfig(**data["config"]),
        technology=data["technology"],
        frequency_ghz=data["frequency_ghz"],
        cycle_time_ps=data["cycle_time_ps"],
        critical_path=data["critical_path"],
        units={name: UnitEstimate(**data["units"][name])
               for name in sorted(data["units"])},
        wiring_area_mm2=data["wiring_area_mm2"],
        wiring_static_power_w=data["wiring_static_power_w"],
    )


# -- the on-disk cache -----------------------------------------------------

@dataclass(frozen=True)
class CacheStats:
    """Size of an on-disk result cache."""

    entries: int
    bytes: int
    by_kind: Dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    tmp_swept: int = 0


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (EPERM means alive-but-foreign)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


class ResultCache:
    """Content-addressed store of simulation / estimation payloads.

    One JSON file per entry under ``root/<key[:2]>/<key>.json``; writes
    are atomic (tmp file + ``os.replace``) so concurrent runners sharing
    a cache directory never observe torn entries.  Entries that cannot
    be read back — torn writes, truncated JSON, foreign schema versions —
    are moved into ``root/quarantine/`` the first time they are seen, so
    a damaged entry costs exactly one miss, not one per run forever.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CacheError(
                f"cannot create cache directory {self.root}: {error}",
                code="cache.unwritable", hint="pick a writable --cache-dir",
                path=str(self.root),
            ) from error
        # A writer SIGKILLed between tmp-write and os.replace leaks its
        # tmp file; a past process cannot clean up after itself, so every
        # cache open sweeps on behalf of the dead.
        try:
            self.sweep_orphan_tmp()
        except OSError:
            pass

    def path_for(self, key: str) -> Path:
        """On-disk location of one entry."""
        return self.root / key[:2] / f"{key}.json"

    # Backwards-compatible alias (pre-quarantine callers used `_path`).
    _path = path_for

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or None on miss (quarantining bad entries)."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            self.quarantine(key, reason="unreadable")
            return None
        try:
            document = json.loads(text)
        except ValueError:
            self.quarantine(key, reason="corrupt")
            return None
        if not isinstance(document, dict) or document.get("schema") != CACHE_SCHEMA_VERSION:
            self.quarantine(key, reason="wrong-schema")
            return None
        payload = document.get("payload")
        if not isinstance(payload, dict):
            self.quarantine(key, reason="wrong-schema")
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any], kind: str = "simulate") -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "created_unix": time.time(),
            "payload": payload,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except OSError as error:
            # Never litter the cache dir with orphaned tmp files.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise CacheError(
                f"failed to write cache entry {key[:12]}…: {error}",
                code="cache.write_failed",
                hint="check free space and permissions on the cache directory",
                path=str(path),
            ) from error

    def quarantine(self, key: str, reason: str = "corrupt") -> Optional[Path]:
        """Park a damaged entry under ``quarantine/``; returns its new path."""
        path = self.path_for(key)
        if not path.exists():
            return None
        pen = self.root / QUARANTINE_DIR
        destination = pen / f"{reason}-{path.name}"
        try:
            pen.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError:
            try:  # quarantine unavailable: deleting still stops the re-miss loop
                path.unlink()
            except OSError:
                return None
            return None
        obs.counter("jobs.cache.quarantined").inc()
        return destination

    def _entries(self) -> Iterator[Path]:
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if len(path.parent.name) == 2:  # hash buckets only, not quarantine/
                yield path

    def _quarantined(self) -> List[Path]:
        pen = self.root / QUARANTINE_DIR
        if not pen.is_dir():
            return []
        return sorted(p for p in pen.iterdir() if p.is_file())

    def sweep_orphan_tmp(self, max_age_s: float = 3600.0) -> int:
        """Remove tmp files orphaned by dead writers; returns how many.

        Writes go through ``<entry>.tmp.<pid>`` + ``os.replace``; a writer
        SIGKILLed in between leaves the tmp file forever (its own
        unlink-on-error never runs).  A tmp file is an orphan when its
        writer pid no longer exists, or — covering recycled pids and
        mangled names — when it is older than ``max_age_s``.  Fresh tmp
        files of live pids are in-flight writes and are left alone.
        """
        removed = 0
        now = time.time()
        for path in list(self.root.glob("*/*.tmp.*")):
            if len(path.parent.name) != 2:  # hash buckets only
                continue
            try:
                pid = int(path.name.rsplit(".", 1)[-1])
            except ValueError:
                pid = -1
            try:
                age_s = now - path.stat().st_mtime
            except OSError:
                continue  # already gone (another sweeper won the race)
            if (pid > 0 and _pid_alive(pid)) and age_s <= max_age_s:
                continue
            if pid <= 0 and age_s <= max_age_s:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            obs.counter("jobs.cache.tmp_swept").inc(removed)
        return removed

    def stats(self) -> CacheStats:
        swept = self.sweep_orphan_tmp()
        entries = 0
        total_bytes = 0
        by_kind: Dict[str, int] = {}
        for path in self._entries():
            try:
                raw = path.read_bytes()  # one read serves both size and kind
            except OSError:
                continue
            entries += 1
            total_bytes += len(raw)
            try:
                kind = json.loads(raw).get("kind", "?")
            except ValueError:
                kind = "corrupt"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return CacheStats(entries=entries, bytes=total_bytes, by_kind=by_kind,
                          quarantined=len(self._quarantined()), tmp_swept=swept)

    def clear(self) -> int:
        """Delete every entry (quarantined included); returns how many."""
        removed = 0
        for path in self._entries():
            path.unlink()
            removed += 1
        for path in self._quarantined():
            path.unlink()
            removed += 1
        for bucket in sorted(self.root.glob("*")):
            if bucket.is_dir() and not any(bucket.iterdir()):
                bucket.rmdir()
        return removed


# -- task execution (top-level so it pickles into worker processes) --------

@functools.lru_cache(maxsize=256)
def _estimate_memo(key: str, config: NPUConfig, library: CellLibrary) -> NPUEstimate:
    """The architecture estimate of one design, memoized per process.

    A process handed many tasks for the same design computes its clock
    model once.  Bounded, since a long sweep keeps meeting new designs;
    ``key`` (the exact estimate key) joins the lookup because equal
    configs may differ in field types.
    """
    return estimate_npu(config, library)


def _estimate_for(config: NPUConfig, library: CellLibrary) -> NPUEstimate:
    return _estimate_memo(estimate_key(config, library), config, library)


def _execute(task: SimTask) -> Tuple[SimulationResult, float]:
    """Run one task; returns (result, wall seconds)."""
    start = time.perf_counter()
    if task.is_cmos:
        run = simulate_cmos(task.config, task.network, batch=task.batch)
    else:
        library = task.resolved_library()
        run = simulate(
            task.config, task.network, batch=task.batch,
            estimate=_estimate_for(task.config, library),
        )
    return run, time.perf_counter() - start


@dataclass(frozen=True)
class WorkerObsSpec:
    """What observability each pool worker should collect.

    Built by the parent from its own live obs state (is tracing on? is a
    hotspot profiler running?) and pickled along with every submitted
    task.  Workers run a private obs session per task and leave a JSON
    sidecar in ``sidecar_dir`` keyed by the task's content hash; the
    parent merges all sidecars after the parallel phase and deletes the
    directory.  Everything is best-effort: a worker that cannot write
    its sidecar still returns its result normally.
    """

    sidecar_dir: str
    metrics: bool = False
    tracing: bool = False
    hotspot_mode: Optional[str] = None
    hotspot_hz: float = 97.0

    @property
    def collects_anything(self) -> bool:
        return self.metrics or self.tracing or self.hotspot_mode is not None


def _write_obs_sidecar(spec: WorkerObsSpec, key: str,
                       counters: Dict[str, Any],
                       spans: List[Dict[str, Any]],
                       profile: Optional[Any]) -> None:
    """Atomically write one worker's per-task obs sidecar (best-effort)."""
    try:
        document = {
            "kind": "worker-obs",
            "schema": 1,
            "key": key,
            "pid": os.getpid(),
            "counters": counters,
            "spans": spans,
            "hotspot": None if profile is None else profile.to_dict(),
        }
        path = Path(spec.sidecar_dir) / f"{key}.json"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        os.replace(tmp, path)
    except Exception:
        pass  # observability must never fail the task


def _execute_observed(task: SimTask, key: str, chaos: Optional[ChaosInjector],
                      spec: WorkerObsSpec) -> Tuple[SimulationResult, float]:
    """Run one task under a private worker obs session + sidecar.

    The session is reset before and after, so the sidecar holds exactly
    this task's spans and counters even when the worker process is
    reused for many tasks.  The sidecar is written only on success —
    a retried task contributes once, under its stable content key.
    """
    from repro.obs.hotspot import HotspotProfiler
    from repro.obs.tracing import serialize_spans

    obs.disable()
    obs.reset()
    obs.enable(metrics=spec.metrics, tracing=spec.tracing)
    profiler = None
    if spec.hotspot_mode is not None:
        try:
            profiler = HotspotProfiler(mode=spec.hotspot_mode,
                                       sample_hz=spec.hotspot_hz).start()
        except Exception:
            profiler = None
    try:
        if chaos is not None:
            chaos.fire(key)
        run, seconds = _execute(task)
        profile = profiler.stop() if profiler is not None else None
        snapshot = obs.metrics().snapshot() if spec.metrics else {}
        spans = serialize_spans(obs.tracer()) if spec.tracing else []
    finally:
        if profiler is not None:
            profiler.stop()
        obs.disable()
        obs.reset()
    _write_obs_sidecar(spec, key, snapshot.get("counters", {}), spans, profile)
    return run, seconds


def _execute_task(task: SimTask, key: str,
                  chaos: Optional[ChaosInjector] = None,
                  obs_spec: Optional[WorkerObsSpec] = None,
                  ) -> Tuple[SimulationResult, float]:
    """One task under ``key``: optional chaos, then the simulation."""
    if obs_spec is not None and obs_spec.collects_anything:
        return _execute_observed(task, key, chaos, obs_spec)
    if chaos is not None:
        chaos.fire(key)
    return _execute(task)


def _execute_in_worker(task: SimTask, key: str,
                       chaos: Optional[ChaosInjector],
                       obs_spec: Optional[WorkerObsSpec],
                       ) -> Tuple[Dict[str, Any], float]:
    """The unit submitted to pool workers: the result crosses back encoded."""
    run, seconds = _execute_task(task, key, chaos, obs_spec)
    return result_to_dict(run), seconds


# -- the runner ------------------------------------------------------------

@dataclass
class RunnerStats:
    """Cumulative accounting of one runner's lifetime."""

    tasks: int = 0
    hits: int = 0
    misses: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    degraded: int = 0
    task_seconds: float = 0.0
    elapsed_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.tasks if self.tasks else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Sum of per-task sim time over elapsed wall time (1.0 serial)."""
        if self.elapsed_seconds <= 0:
            return 1.0
        return self.task_seconds / self.elapsed_seconds

    def describe(self) -> str:
        line = (
            f"{self.tasks} tasks: {self.hits} cache hits / {self.misses} misses "
            f"({100 * self.hit_rate:.1f}% hit rate), {self.executed} simulated"
        )
        if self.retries:
            line += f", {self.retries} retries"
        if self.timeouts:
            line += f", {self.timeouts} timeouts"
        if self.degraded:
            line += " [degraded to serial]"
        return line


class RunResults(list):
    """:meth:`JobRunner.run`'s results in task order, plus its cache hits.

    ``hits`` holds the keys of the tasks the cache served.  A damaged
    entry that was quarantined and recomputed on the way is not a hit.
    """

    def __init__(self, results: Sequence[SimulationResult], hits: FrozenSet[str]) -> None:
        super().__init__(results)
        self.hits = hits


class JobRunner:
    """Executes :class:`SimTask` lists with parallelism, caching, recovery.

    ``jobs=1`` (the default) runs everything in-process; ``jobs > 1``
    fans cache misses out over a ``ProcessPoolExecutor``.  Task order is
    preserved, and a payload is encoded only where a result crosses a
    boundary (a cache write or the process pool) and decoded once on the
    other side.  The codec round trip is exact, so the output is
    identical regardless of ``jobs``, cache temperature, or how many
    failures were recovered along the way.

    Fault tolerance:

    * transient worker failures are retried per ``retry`` (exponential
      backoff + jitter); taxonomy errors (:class:`repro.errors.ReproError`)
      are deterministic and never retried;
    * ``timeout_s`` bounds each task's wall clock (parallel mode): a hung
      task's pool is abandoned (its workers killed), the stranded tasks
      are re-executed, and the hang counts against the task's retry budget;
    * a broken pool (e.g. a SIGKILLed worker) is rebuilt once; if the
      pool dies a second time the runner degrades to serial execution and
      finishes the sweep in-process (``jobs.degraded``);
    * completed tasks are written to the cache *immediately*, so a
      killed run re-run against the same cache resumes from where it
      died: the finished tasks are cache hits.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 retry: Optional[RetryPolicy] = None,
                 timeout_s: Optional[float] = None,
                 chaos: Optional[ChaosInjector] = None,
                 progress: Optional[ProgressReporter] = None) -> None:
        if jobs < 1:
            raise ConfigError("jobs must be >= 1", code="config.invalid_jobs",
                              jobs=jobs)
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError("timeout_s must be positive",
                              code="config.invalid_timeout", timeout_s=timeout_s)
        self.jobs = jobs
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self.chaos = chaos
        self.progress = progress
        self.stats = RunnerStats()
        self._estimates: Dict[str, NPUEstimate] = {}

    def _emit(self, kind: str, key: Optional[str] = None, attempt: int = 0) -> None:
        """Forward one lifecycle event to the progress reporter, if any.

        Results never depend on this: the reporter writes only to its
        own stream (stderr) and to the obs registries, so a sweep is
        bitwise-identical with progress on or off.
        """
        if self.progress is not None:
            self.progress.emit(kind, key=key, attempt=attempt)

    # -- simulations --------------------------------------------------
    def run(self, tasks: Union[Sequence[SimTask], Mapping[str, SimTask]]) -> RunResults:
        """Run every task (cache-first), preserving task order.

        ``tasks`` is a sequence, keyed here, or a mapping from each task's
        :meth:`SimTask.key` to the task (such as
        :meth:`repro.core.plan.LoweredPlan.sim_tasks`), keyed already.
        """
        started = time.perf_counter()
        if isinstance(tasks, Mapping):
            keys = list(tasks)
            tasks = list(tasks.values())
        else:
            keys = [task.key() for task in tasks]
        if self.progress is not None:
            self.progress.begin(len(tasks))
        results: List[Optional[SimulationResult]] = [None] * len(tasks)
        hits = set()
        pending: List[int] = []
        try:
            for index, key in enumerate(keys):
                result = self._cached_result(key)
                if result is None:
                    pending.append(index)
                    self._emit("queued", key)
                    continue
                results[index] = result
                hits.add(key)
                self._emit("cached", key)

            task_seconds = 0.0
            if pending:
                if self.jobs > 1 and len(pending) > 1:
                    task_seconds = self._run_parallel(tasks, keys, results, pending)
                else:
                    task_seconds = self._run_serial(tasks, keys, results, pending)
        finally:
            # Close the live line even when the sweep raises, so the
            # error message starts on a fresh line.
            if self.progress is not None:
                self.progress.done()

        elapsed = time.perf_counter() - started
        self._account(len(tasks), len(tasks) - len(pending), len(pending), task_seconds,
                      elapsed)
        return RunResults(results, frozenset(hits))

    def run_one(self, task: SimTask) -> SimulationResult:
        return self.run([task])[0]

    # -- cache interaction --------------------------------------------
    def _cached_result(self, key: str) -> Optional[SimulationResult]:
        """The cached result, decoded once, or None (quarantining poison)."""
        if self.cache is None:
            return None
        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            return result_from_dict(payload)
        except Exception:
            # Well-formed JSON, wrong shape: poison, not a result.
            self.cache.quarantine(key, reason="poisoned-payload")
            return None

    def _finish_task(self, index: int, key: str, task: SimTask,
                     result: SimulationResult,
                     results: List[Optional[SimulationResult]],
                     payload: Optional[Dict[str, Any]] = None) -> None:
        """Record one completed task: result slot and cache.

        ``payload`` is the result's encoding when it already has one (it
        came back from a worker); otherwise a cache write encodes it here.
        """
        results[index] = result
        if self.cache is not None:
            kind = "simulate_cmos" if task.is_cmos else "simulate"
            self.cache.put(key, payload if payload is not None else result_to_dict(result),
                           kind=kind)

    # -- serial execution (also the degraded path) --------------------
    def _run_serial(self, tasks: Sequence[SimTask], keys: List[str],
                    results: List[Optional[SimulationResult]],
                    pending: Sequence[int]) -> float:
        total = 0.0
        for index in pending:
            self._emit("started", keys[index])
            run, seconds = self._execute_with_retry(tasks[index], keys[index])
            total += seconds
            self._finish_task(index, keys[index], tasks[index], run, results)
            self._emit("finished", keys[index])
        return total

    def _execute_with_retry(self, task: SimTask, key: str,
                            failures: int = 0) -> Tuple[SimulationResult, float]:
        """In-process execution under the retry policy."""
        while True:
            try:
                return _execute_task(task, key, self.chaos)
            except ReproError:
                raise  # deterministic: retrying cannot change the outcome
            except Exception as error:
                failures += 1
                if failures > self.retry.max_retries:
                    raise WorkerError(
                        f"task {key[:12]}… failed after {failures} attempts: {error}",
                        code="worker.retries_exhausted",
                        hint="transient failures exhausted the retry budget; "
                             "see --retries",
                        task=key, attempts=failures,
                    ) from error
                self._note_retry(key, error)
                time.sleep(self.retry.delay_s(failures))

    # -- parallel execution -------------------------------------------
    def _run_parallel(self, tasks: Sequence[SimTask], keys: List[str],
                      results: List[Optional[SimulationResult]],
                      pending: Sequence[int]) -> float:
        total_seconds = 0.0
        workers = min(self.jobs, len(pending))
        queue: Deque[Tuple[int, int]] = deque((index, 0) for index in pending)
        remaining = len(pending)
        obs_spec = self._worker_obs_spec()
        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(max_workers=workers)
        pool_deaths = 0
        inflight: Dict[Future, Tuple[int, int, Optional[float]]] = {}
        try:
            while remaining:
                if pool is None:
                    # Degraded: finish the sweep in-process, deterministically.
                    while queue:
                        index, failures = queue.popleft()
                        self._emit("started", keys[index], attempt=failures)
                        run, seconds = self._execute_with_retry(
                            tasks[index], keys[index], failures=failures)
                        total_seconds += seconds
                        self._finish_task(index, keys[index], tasks[index],
                                          run, results)
                        self._emit("finished", keys[index])
                        remaining -= 1
                    break

                while queue and len(inflight) < workers:
                    index, failures = queue.popleft()
                    future = pool.submit(_execute_in_worker, tasks[index], keys[index],
                                         self.chaos, obs_spec)
                    deadline = (time.monotonic() + self.timeout_s
                                if self.timeout_s is not None else None)
                    inflight[future] = (index, failures, deadline)
                    self._emit("started", keys[index], attempt=failures)

                done, _ = wait(set(inflight), timeout=self._wait_timeout(inflight),
                               return_when=FIRST_COMPLETED)
                broken = False
                fatal: Optional[WorkerError] = None
                for future in done:
                    index, failures, _ = inflight.pop(future)
                    try:
                        payload, seconds = future.result()
                    except BrokenExecutor:
                        # The pool died under this task (SIGKILLed worker,
                        # OOM-killed child, ...).  The task is stranded, not
                        # guilty-by-proof: re-queue without a retry penalty;
                        # the pool-death counter bounds the recovery loop.
                        queue.appendleft((index, failures))
                        broken = True
                    except ReproError:
                        raise
                    except Exception as error:
                        failures += 1
                        if failures > self.retry.max_retries:
                            raise WorkerError(
                                f"task {keys[index][:12]}… failed after "
                                f"{failures} attempts: {error}",
                                code="worker.retries_exhausted",
                                hint="transient failures exhausted the retry "
                                     "budget; see --retries",
                                task=keys[index], attempts=failures,
                            ) from error
                        self._note_retry(keys[index], error)
                        time.sleep(self.retry.delay_s(failures))
                        queue.append((index, failures))
                    else:
                        total_seconds += seconds
                        self._finish_task(index, keys[index], tasks[index],
                                          result_from_dict(payload), results, payload)
                        self._emit("finished", keys[index])
                        remaining -= 1

                if not broken and self.timeout_s is not None:
                    now = time.monotonic()
                    for future, (index, failures, deadline) in list(inflight.items()):
                        if deadline is None or now < deadline or future.done():
                            continue
                        # A hung task: the pool must be abandoned (a running
                        # future cannot be cancelled), and the hang counts
                        # against this task's retry budget.
                        inflight.pop(future)
                        failures += 1
                        self.stats.timeouts += 1
                        obs.counter("jobs.timeouts").inc()
                        self._emit("timeout", keys[index], attempt=failures)
                        if failures > self.retry.max_retries:
                            fatal = WorkerError(
                                f"task {keys[index][:12]}… exceeded the "
                                f"{self.timeout_s:g}s timeout {failures} times",
                                code="worker.timeout",
                                hint="raise --task-timeout or investigate the hang",
                                task=keys[index], attempts=failures,
                            )
                            break
                        queue.append((index, failures))
                        broken = True

                if broken or fatal is not None:
                    for future, (index, failures, _) in inflight.items():
                        queue.append((index, failures))  # stranded, not failed
                    inflight.clear()
                    self._abandon_pool(pool)
                    pool = None
                    if fatal is not None:
                        raise fatal
                    pool_deaths += 1
                    self.stats.pool_restarts += 1
                    obs.counter("jobs.pool_restarts").inc()
                    self._emit("pool_restart")
                    if pool_deaths >= 2:
                        # The pool is not trustworthy; finish serially.
                        self.stats.degraded += 1
                        obs.counter("jobs.degraded").inc()
                        self._emit("degraded")
                    else:
                        pool = ProcessPoolExecutor(
                            max_workers=min(workers, max(1, remaining)))
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
            self._merge_worker_obs(obs_spec)
        return total_seconds

    # -- worker observability ------------------------------------------
    @staticmethod
    def _worker_obs_spec() -> Optional["WorkerObsSpec"]:
        """A spec mirroring the parent's live obs state, or None when off.

        None (the common case) keeps the worker path allocation-free;
        otherwise a fresh sidecar directory is created for this parallel
        phase and torn down by :meth:`_merge_worker_obs`.
        """
        from repro.obs import hotspot as hotspot_mod

        profiler = hotspot_mod.active_profiler()
        want_metrics = obs.metrics().enabled
        want_tracing = obs.tracer().enabled
        if not (want_metrics or want_tracing or profiler is not None):
            return None
        sidecar_dir = tempfile.mkdtemp(prefix="supernpu-worker-obs-")
        return WorkerObsSpec(
            sidecar_dir=sidecar_dir,
            metrics=want_metrics,
            tracing=want_tracing,
            hotspot_mode=None if profiler is None else profiler.mode,
            hotspot_hz=profiler.sample_hz if profiler is not None else 97.0,
        )

    def _merge_worker_obs(self, spec: Optional["WorkerObsSpec"]) -> None:
        """Fold every worker sidecar into the parent obs state.

        Counters come back prefixed ``jobs.worker.`` (so parent-side and
        worker-side accounting stay distinguishable), spans land in a
        per-PID lane of the parent's Chrome trace, and hotspot samples
        merge into the active profiler.  Unreadable sidecars are skipped;
        the sidecar directory is always removed.
        """
        if spec is None:
            return
        from repro.obs import hotspot as hotspot_mod

        sidecar_dir = Path(spec.sidecar_dir)
        try:
            merged = 0
            pids = set()
            for path in sorted(sidecar_dir.glob("*.json")):
                try:
                    document = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    continue
                if not isinstance(document, dict) or document.get("kind") != "worker-obs":
                    continue
                pid = int(document.get("pid", 0))
                pids.add(pid)
                merged += 1
                for name, value in (document.get("counters") or {}).items():
                    obs.counter(f"jobs.worker.{name}").add(value)
                spans = document.get("spans") or []
                if spans:
                    obs.tracer().absorb_serialized(spans, pid=pid)
                hotspot_doc = document.get("hotspot")
                if hotspot_doc:
                    hotspot_mod.absorb(hotspot_doc)
            if merged:
                obs.counter("jobs.worker.sidecars").add(merged)
                obs.gauge("jobs.worker.pids").set(len(pids))
        finally:
            shutil.rmtree(sidecar_dir, ignore_errors=True)

    def _wait_timeout(self, inflight: Dict[Future, Tuple[int, int, Optional[float]]]
                      ) -> Optional[float]:
        """How long ``wait`` may block before the next deadline check."""
        deadlines = [deadline for (_, _, deadline) in inflight.values()
                     if deadline is not None]
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - time.monotonic())

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*, hung or dead workers included."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _note_retry(self, key: str, error: Exception) -> None:
        self.stats.retries += 1
        obs.counter("jobs.retries").inc()
        self._emit("retried", key)

    # -- estimates ----------------------------------------------------
    def estimate(self, config: NPUConfig, library: Optional[CellLibrary] = None) -> NPUEstimate:
        """Architecture-level estimate, memoized in-process and on disk."""
        library = library or library_for(Technology.RSFQ)
        return self._estimate(estimate_key(config, library), config, library)[0]

    def _estimate(self, key: str, config: NPUConfig,
                  library: CellLibrary) -> Tuple[NPUEstimate, bool]:
        """The estimate under its :func:`estimate_key`, and whether it was cached.

        With a cache, an estimate this runner already holds was read from
        or written to it, so it counts as cached.
        """
        estimate = self._estimates.get(key)
        if estimate is not None:
            return estimate, self.cache is not None
        payload = self.cache.get(key) if self.cache is not None else None
        if payload is not None:
            obs.counter("jobs.estimate_cache.hits").inc()
            estimate = estimate_from_dict(payload)
        else:
            obs.counter("jobs.estimate_cache.misses").inc()
            estimate = _sorted_units(estimate_npu(config, library))
            if self.cache is not None:
                self.cache.put(key, estimate_to_dict(estimate), kind="estimate")
        self._estimates[key] = estimate
        return estimate, payload is not None

    # -- accounting ---------------------------------------------------
    def _account(self, tasks: int, hits: int, executed: int,
                 task_seconds: float, elapsed: float) -> None:
        self.stats.tasks += tasks
        self.stats.hits += hits
        self.stats.misses += executed
        self.stats.executed += executed
        self.stats.task_seconds += task_seconds
        self.stats.elapsed_seconds += elapsed
        obs.counter("jobs.tasks").add(tasks)
        obs.counter("jobs.cache.hits").add(hits)
        obs.counter("jobs.cache.misses").add(executed)
        obs.counter("jobs.sim.executed").add(executed)
        obs.gauge("jobs.workers").set(self.jobs)
        obs.histogram("jobs.batch_seconds").observe(elapsed)
        if executed and elapsed > 0:
            obs.gauge("jobs.parallel.speedup").set(task_seconds / elapsed)


# -- the ambient runner ----------------------------------------------------

_DEFAULT_RUNNER = JobRunner()
_ACTIVE: List[JobRunner] = []


def get_runner() -> JobRunner:
    """The innermost installed runner, or the shared serial default."""
    return _ACTIVE[-1] if _ACTIVE else _DEFAULT_RUNNER


@contextmanager
def use_runner(runner: JobRunner) -> Iterator[JobRunner]:
    """Install ``runner`` as the ambient runner for the enclosed block."""
    _ACTIVE.append(runner)
    try:
        yield runner
    finally:
        _ACTIVE.pop()


@contextmanager
def session(jobs: int = 1, cache_dir: Optional[Union[str, Path]] = None,
            cache: Optional[ResultCache] = None,
            retry: Optional[RetryPolicy] = None,
            timeout_s: Optional[float] = None,
            chaos: Optional[ChaosInjector] = None,
            progress: Optional[ProgressReporter] = None) -> Iterator[JobRunner]:
    """Build a runner from knobs and install it for the enclosed block."""
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    runner = JobRunner(jobs=jobs, cache=cache, retry=retry, timeout_s=timeout_s,
                       chaos=chaos, progress=progress)
    with use_runner(runner):
        yield runner
