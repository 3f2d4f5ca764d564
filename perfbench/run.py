#!/usr/bin/env python3
"""The repository benchmark: host time of the SuperNPU model, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One client drives the public API in a closed loop: the next repetition
starts when the previous one has finished.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer split.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

# The set-up clock starts before any other import.
import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything a run writes (scratch caches, span dumps) lives here.
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep-cold", "sweep-warm", "paper-mixed", "pulse-physics")
#: Extra fresh processes timed for ``setup_s``, besides the run's own.
SETUP_PROBES = 2
#: Fewest repetitions of each kind (untraced, traced) a run takes.
MIN_REPS = 3

#: What ``host_clock()`` takes on a quiet reference host (2 vCPUs,
#: Python 3.11).  Host seconds are reported at that speed: a raw time
#: is multiplied by ``REFERENCE_CLOCK_S / host_clock()`` measured next
#: to it.
REFERENCE_CLOCK_S = 0.011


@dataclasses.dataclass
class _Row:
    index: int
    half: float
    name: str
    items: list


_CLOCK_ROWS = [_Row(i, i * 0.5, f"n{i}", [i, i + 1, {"k": i}]) for i in range(300)]


def host_clock() -> float:
    """Seconds a fixed piece of standard-library work takes right now.

    On a shared machine the host's speed drifts by tens of percent over
    seconds to minutes, so raw wall times of one commit spread wider
    than any useful regression bound.  Timing this fixed work next to
    each repetition and rescaling by it removes most of that drift.  It
    is the same kind of work as the program's bookkeeping (dataclass
    copies, sorted JSON, sha256), and runs with the collector off so the
    program's heap cannot slow it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(3):
            text = json.dumps([dataclasses.asdict(row) for row in _CLOCK_ROWS],
                              sort_keys=True)
            hashlib.sha256(text.encode()).hexdigest()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def _arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up seconds (internal)")
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src``, or stop."""
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        sys.exit(f"perfbench: {source} is missing; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import loads
    import repro

    if Path(repro.__file__).resolve() != source.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {source}")
    return loads


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process (import, inputs, cache fill)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _host() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def _run(args: argparse.Namespace) -> dict:
    loads = _import_program()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = loads.WORKLOADS[args.workload](args.seed, scratch)
        try:
            workload.setup()
            setup_s = (time.perf_counter() - _STARTED) * REFERENCE_CLOCK_S / host_clock()
            if args.setup_probe:
                print(repr(setup_s))
                return {}
            return _measure(args, workload, setup_s)
        finally:
            workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _declared_metrics(trace: int) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for a run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"]
            for metric in declared["per_layer" if trace else "end_to_end"]}


def _measure(args: argparse.Namespace, workload, setup_s: float) -> dict:
    import spans

    tracer = spans.Tracer() if args.trace else None
    untraced, traced, points_per_s, raw = [], [], [], []
    attempted = wrong = 0
    clock = host_clock()
    loop_started = time.perf_counter()
    index = 0
    with spans.Patched(tracer.rec) if tracer else contextlib.nullcontext():
        while True:
            done = len(traced) if tracer else len(untraced)
            if done >= MIN_REPS and time.perf_counter() - loop_started >= args.seconds:
                break
            workload.prepare(index)
            trace_this = tracer is not None and index % 2 == 1
            started = time.perf_counter()
            if trace_this:
                points = tracer.traced(lambda: workload.rep(index))
            else:
                points = workload.rep(index)
            elapsed = time.perf_counter() - started
            attempted += points
            wrong += workload.check(index)
            clock_before, clock = clock, host_clock()
            scaled = elapsed * 2.0 * REFERENCE_CLOCK_S / (clock_before + clock)
            if trace_this:
                traced.append(scaled)
                tracer.rescale(scaled / elapsed)
            else:
                untraced.append(scaled)
                raw.append(elapsed)
                points_per_s.append(points / scaled)
            index += 1
    checked, finish_wrong = workload.finish()
    attempted += checked
    wrong += finish_wrong

    if tracer is None:
        setup_samples = [setup_s] + [_setup_probe(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
        metrics = {
            "points_per_s": statistics.median(points_per_s),
            "rep_s_p50": statistics.median(untraced),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = spans.summarize(tracer.per_rep)
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(untraced) - 1.0)
        tracer.rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    units = _declared_metrics(args.trace)
    if set(units) != set(metrics):
        sys.exit(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json "
                 f"declares {sorted(units)}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:30s} {value:>16.6g} {units[name]}")
    print(f"{args.workload:14s} {len(untraced)} untraced and {len(traced)} traced "
          f"repetitions; raw rep_s_p50 {statistics.median(raw):.6g} s")
    return {"correct": wrong == 0, "attempted": attempted, "failed": wrong,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own fresh process; a table plus host facts."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: workload {name} exited with {done.returncode}")
        results[name] = json.loads(done.stdout.splitlines()[-1])
    return {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "host": _host(), "workloads": results}


def main(argv=None) -> int:
    args = _arguments(argv)
    result = _run_all(args) if args.workload == "all" else _run(args)
    if result:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
