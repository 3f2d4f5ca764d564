"""The traced run: spans around each layer's public functions.

Each function is patched *where it is looked up*: ``repro.core.jobs``
binds ``simulate`` with ``from ... import``, so the patch replaces
``repro.core.jobs.simulate``, not ``repro.simulator.engine.simulate``.
A span is ``(name, start, end, parent)``; spans stay in compact arrays
in memory and are written to one ``.npz`` file when the run ends.

Only the benchmark's own process records spans.  Pool workers forked
during a traced repetition inherit the patches but run them as plain
pass-throughs, so work done in workers shows only through the runner's
own accounting (``jobs.task_s``, ``jobs.parallel_speedup``).
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.jobs import RunnerStats

#: Name of the root span of one traced repetition.
REP = "rep"


class Recorder:
    """In-memory spans and per-repetition counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.counts: Dict[str, float] = defaultdict(int)
        #: ids of payloads encoded in this process and not yet stored.
        self.fresh_payloads: set = set()
        self.keys: set = set()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def profile(self, first: int) -> Dict[str, Dict[str, float]]:
        """Calls, self and inclusive seconds per span name from ``first`` on."""
        names = np.frombuffer(self.name[first:], dtype=np.int32)
        parents = np.frombuffer(self.parent[first:], dtype=np.int32) - first
        durations = (np.frombuffer(self.end[first:], dtype=np.float64)
                     - np.frombuffer(self.start[first:], dtype=np.float64))
        inner = parents >= 0
        children = np.zeros(len(durations))
        np.add.at(children, parents[inner], durations[inner])
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        inclusive = np.bincount(names, weights=durations, minlength=size)
        own = np.bincount(names, weights=durations - children, minlength=size)
        return {name: {"calls": int(calls[i]), "self_s": float(own[i]),
                       "incl_s": float(inclusive[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# -- hooks: counts taken at the same boundaries as the spans -----------------

def _count_key(rec: Recorder, args, result, state) -> None:
    rec.keys.add(result)


def _count_points(rec: Recorder, args, result, state) -> None:
    rec.counts["plan.points"] += len(result.points)


def _stats_before(rec: Recorder, args) -> RunnerStats:
    stats = args[0].stats
    return RunnerStats(executed=stats.executed, retries=stats.retries,
                       task_seconds=stats.task_seconds,
                       elapsed_seconds=stats.elapsed_seconds)


def _stats_after(rec: Recorder, args, result, before: RunnerStats) -> None:
    stats = args[0].stats
    rec.counts["jobs.executed"] += stats.executed - before.executed
    rec.counts["jobs.retries"] += stats.retries - before.retries
    rec.counts["jobs.task_s"] += stats.task_seconds - before.task_seconds
    rec.counts["jobs.elapsed_s"] += stats.elapsed_seconds - before.elapsed_seconds


def _fresh_payload(rec: Recorder, args, result, state) -> None:
    rec.fresh_payloads.add(id(result))


def _stored_payload(rec: Recorder, args) -> None:
    payload = args[2] if len(args) > 2 else None
    if id(payload) in rec.fresh_payloads:
        rec.fresh_payloads.discard(id(payload))
        rec.counts["codec.encode_useful"] += 1


def _cache_hit(rec: Recorder, args, result, state) -> None:
    rec.counts["cache.hits"] += result is not None


def _simulated(rec: Recorder, args, result, state) -> None:
    rec.counts["simulator.cycles"] += result.total_cycles


def _solved(rec: Recorder, args, result, state) -> None:
    samples = len(result.time_ps)
    step_ps = float(result.time_ps[1] - result.time_ps[0]) if samples > 1 else 0.0
    rec.counts["jsim.steps"] += result.batch * (samples - 1)
    rec.counts["jsim.sim_ps"] += result.batch * (samples - 1) * step_ps


def _convolved(rec: Recorder, args, result, state) -> None:
    weights = args[1]
    rec.counts["functional.macs"] += result.size * int(np.prod(weights.shape[1:]))


#: (where the function is looked up, attribute, span, before, after).
PATCHES = (
    ("repro.api", "plan_by_name", "plan.build", None, None),
    ("repro.api", "_execute_plan", "plan.execute", None, None),
    ("repro.core.plan", "lower", "plan.lower", None, _count_points),
    ("repro.core.plan", "estimate_key", "jobs.estimate_key", None, None),
    ("repro.core.jobs:SimTask", "key", "jobs.key", None, _count_key),
    ("repro.core.jobs", "estimate_key", "jobs.estimate_key", None, None),
    ("repro.core.jobs:JobRunner", "run", "jobs.run", _stats_before, _stats_after),
    ("repro.core.jobs", "_execute_task", "jobs.task", None, None),
    ("repro.core.jobs:ResultCache", "__init__", "cache.open", None, None),
    ("repro.core.jobs:ResultCache", "get", "cache.get", None, _cache_hit),
    ("repro.core.jobs:ResultCache", "put", "cache.put", _stored_payload, None),
    ("repro.core.jobs", "result_to_dict", "codec.encode", None, _fresh_payload),
    ("repro.core.jobs", "estimate_to_dict", "codec.encode", None, _fresh_payload),
    ("repro.core.jobs", "result_from_dict", "codec.decode", None, None),
    ("repro.core.jobs", "estimate_from_dict", "codec.decode", None, None),
    ("repro.core.jobs", "estimate_npu", "estimator.estimate", None, None),
    ("repro.core.jobs", "simulate", "simulator.simulate", None, _simulated),
    ("repro.core.jobs", "simulate_cmos", "simulator.simulate", None, _simulated),
    ("repro.simulator.engine", "map_layer", "simulator.map_layer", None, None),
    ("repro.simulator.engine", "simulate_layer", "simulator.simulate_layer", None, None),
    ("repro.jsim", "build_jtl", "jsim.build", None, None),
    ("repro.jsim:TransientSolver", "__init__", "jsim.build", None, None),
    ("repro.jsim:TransientSolver", "run_batch", "jsim.run_batch", None, _solved),
    ("repro.functional", "conv2d_systolic", "functional.conv2d", None, _convolved),
    ("repro.functional.inference", "conv2d_systolic", "functional.conv2d", None, _convolved),
    ("repro.functional:TinyQuantCNN", "forward_systolic", "functional.inference",
     None, None),
)


def _traced(rec: Recorder, span: str, fn: Callable,
            before: Optional[Callable], after: Optional[Callable]) -> Callable:
    name_id = rec.name_id(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        state = before(rec, args) if before is not None else None
        index = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, result, state)
        return result

    return wrapper


class Patched:
    """Installs every patch on enter and restores the originals on exit."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: list = []

    def __enter__(self) -> "Patched":
        for where, attribute, span, before, after in PATCHES:
            module, _, owner = where.partition(":")
            target = importlib.import_module(module)
            if owner:
                target = getattr(target, owner)
            original = target.__dict__[attribute]
            self._saved.append((target, attribute, original))
            setattr(target, attribute, _traced(self.rec, span, original, before, after))
        return self

    def __exit__(self, *exc) -> None:
        for target, attribute, original in reversed(self._saved):
            setattr(target, attribute, original)
        self._saved.clear()


# -- per-layer metrics -----------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rep_metrics(profile: Dict[str, Dict[str, float]], counts: Dict[str, float],
                unique_keys: int) -> Dict[str, float]:
    """One traced repetition's per-layer figures (``*_s`` are self times)."""
    def calls(name):
        return profile.get(name, {}).get("calls", 0)

    def own(name):
        return profile.get(name, {}).get("self_s", 0.0)

    def inclusive(name):
        return profile.get(name, {}).get("incl_s", 0.0)

    # Tasks the runner executed but this process did not: pool workers,
    # each of which encoded one payload and sent it across the boundary.
    worker_tasks = max(0, counts["jobs.executed"] - calls("jobs.task"))
    encodes = calls("codec.encode") + worker_tasks
    layers = calls("simulator.simulate_layer")
    rep_s = inclusive(REP)
    return {
        "plan.lower_s": own("plan.lower"),
        "plan.points": counts["plan.points"],
        "plan.execute_self_s": own("plan.execute"),
        "plan.build_s": own("plan.build"),
        "jobs.key_calls": calls("jobs.key"),
        "jobs.key_s": own("jobs.key"),
        "jobs.key_useful_ratio": _ratio(unique_keys, calls("jobs.key")),
        "jobs.estimate_key_s": own("jobs.estimate_key"),
        "jobs.run_self_s": own("jobs.run") + own("jobs.task"),
        "jobs.task_s": counts["jobs.task_s"],
        "jobs.parallel_speedup": _ratio(counts["jobs.task_s"], counts["jobs.elapsed_s"]),
        "jobs.retries": counts["jobs.retries"],
        "cache.open_s": own("cache.open"),
        "cache.get_calls": calls("cache.get"),
        "cache.get_s": own("cache.get"),
        "cache.put_calls": calls("cache.put"),
        "cache.put_s": own("cache.put"),
        "cache.hit_ratio": _ratio(counts["cache.hits"], calls("cache.get")),
        "codec.encode_calls": encodes,
        "codec.encode_s": own("codec.encode"),
        "codec.decode_calls": calls("codec.decode"),
        "codec.decode_s": own("codec.decode"),
        "codec.encode_useful_ratio": _ratio(counts["codec.encode_useful"] + worker_tasks,
                                            encodes),
        "estimator.estimate_calls": calls("estimator.estimate"),
        "estimator.estimate_s": own("estimator.estimate"),
        # Every in-process simulation asks the jobs-layer memo for an
        # estimate; the memo answers all but the ones that ran.
        "estimator.memo_hit_ratio": _ratio(
            calls("simulator.simulate") - calls("estimator.estimate"),
            calls("simulator.simulate")),
        "simulator.simulate_calls": calls("simulator.simulate"),
        "simulator.simulate_s": own("simulator.simulate"),
        "simulator.map_layer_s": own("simulator.map_layer"),
        "simulator.simulate_layer_s": own("simulator.simulate_layer"),
        "simulator.layers": layers,
        "simulator.host_us_per_layer": 1e6 * _ratio(inclusive("simulator.simulate"), layers),
        "simulator.cycles": counts["simulator.cycles"],
        "jsim.build_s": own("jsim.build"),
        "jsim.run_batch_s": own("jsim.run_batch"),
        "jsim.steps": counts["jsim.steps"],
        "jsim_ps_per_s": _ratio(counts["jsim.sim_ps"], inclusive("jsim.run_batch")),
        "functional.conv2d_s": own("functional.conv2d"),
        "functional.inference_s": own("functional.inference"),
        "functional.macs": counts["functional.macs"],
        "systolic_macs_per_s": _ratio(counts["functional.macs"],
                                      inclusive("functional.conv2d")),
        "trace.unattributed_frac": _ratio(own(REP), rep_s),
    }


def summarize(per_rep: List[Dict[str, float]]) -> Dict[str, float]:
    """Medians over traced repetitions.

    ``simulator.cycles`` is a property of the inputs, so it comes from
    the first traced repetition and must repeat exactly for a seed.
    """
    return {name: per_rep[0][name] if name == "simulator.cycles"
            else statistics.median(rep[name] for rep in per_rep)
            for name in per_rep[0]}


class Tracer:
    """Runs repetitions with spans on, one root span per repetition."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self._rep_id = self.rec.name_id(REP)
        self._last: Optional[tuple] = None
        self.per_rep: List[Dict[str, float]] = []

    def traced(self, body: Callable[[], int]) -> int:
        """Run one repetition with spans on; ``rescale`` then records it."""
        rec = self.rec
        rec.counts.clear()
        rec.keys.clear()
        rec.fresh_payloads.clear()
        first = len(rec.start)
        rec.active = True
        index = rec.open(self._rep_id)
        try:
            return body()
        finally:
            rec.close(index)
            rec.active = False
            self._last = (rec.profile(first), defaultdict(int, rec.counts), len(rec.keys))

    def rescale(self, factor: float) -> None:
        """Record the last traced repetition with its host seconds times ``factor``."""
        profile, counts, unique_keys = self._last
        for figures in profile.values():
            figures["self_s"] *= factor
            figures["incl_s"] *= factor
        for name in ("jobs.task_s", "jobs.elapsed_s"):
            counts[name] *= factor
        self.per_rep.append(rep_metrics(profile, counts, unique_keys))
