"""Shared fixtures for the figure/table reproduction benchmarks.

Every benchmark both *times* its experiment (pytest-benchmark) and checks
the paper-shape claims it reproduces; run with ``-s`` to see the
regenerated rows next to the published values.

The whole benchmark session runs with ``repro.obs`` metrics enabled and
writes the aggregate snapshot (simulated cycles/MACs, layers, estimator
units, solver steps, wall-time histograms) as JSON when it ends —
``SUPERNPU_BENCH_METRICS_OUT`` overrides the default
``benchmarks/bench_metrics.json`` path — so the benchmark trajectory is
machine-comparable across PRs.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session", autouse=True)
def bench_metrics_snapshot():
    """Collect obs metrics for the whole session and emit them as JSON."""
    from repro import obs

    obs.reset()
    obs.enable(tracing=False)  # span trees would grow unbounded over a session
    yield
    out = os.environ.get(
        "SUPERNPU_BENCH_METRICS_OUT",
        os.path.join(os.path.dirname(__file__), "bench_metrics.json"),
    )
    manifest = obs.RunManifest.capture("benchmarks")
    try:
        obs.write_metrics(out, manifest=manifest)
    finally:
        obs.disable()
        obs.reset()


@pytest.fixture(scope="session", autouse=True)
def bench_hotspot_profile():
    """Optionally profile the whole benchmark session's host time.

    Driven entirely by environment variables, which
    ``repro.obs.bench.run_benchmarks`` sets when it runs under an active
    profiler (``supernpu hotspot bench run``):
    ``SUPERNPU_BENCH_HOTSPOT_OUT`` names the output JSON,
    ``SUPERNPU_BENCH_HOTSPOT_MODE`` picks sampling/tracing, and
    ``SUPERNPU_BENCH_HOTSPOT_HZ`` sets the sampling rate, both copied
    from that profiler.  Without the OUT variable this fixture is a
    no-op, so plain benchmark runs pay nothing.
    """
    out = os.environ.get("SUPERNPU_BENCH_HOTSPOT_OUT")
    if not out:
        yield
        return
    import json

    from repro.obs.hotspot import DEFAULT_SAMPLE_HZ, HotspotProfiler

    mode = os.environ.get("SUPERNPU_BENCH_HOTSPOT_MODE", "sampling")
    try:
        hz = float(os.environ.get("SUPERNPU_BENCH_HOTSPOT_HZ", ""))
    except ValueError:
        hz = DEFAULT_SAMPLE_HZ
    profiler = HotspotProfiler(mode=mode, sample_hz=hz)
    profiler.start()
    try:
        yield
    finally:
        profile = profiler.stop()
        document = {
            "summary": profile.summary(),
            "collapsed": profile.collapsed(),
            "profile": profile.to_dict(),
        }
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)


def pytest_runtest_logreport(report):
    """Fold per-test outcomes into the session's obs snapshot.

    ``bench.tests`` counts passed call phases and ``bench.test_seconds``
    histograms their durations, so a BENCH recording carries how many
    benchmarks ran and their end-to-end (not just timed-region) cost.
    """
    if report.when != "call" or not report.passed:
        return
    from repro import obs

    obs.counter("bench.tests").inc()
    obs.histogram("bench.test_seconds").observe(report.duration)


@pytest.fixture(scope="session")
def rsfq():
    from repro.device.cells import rsfq_library

    return rsfq_library()


@pytest.fixture(scope="session")
def workloads():
    from repro.workloads.models import all_workloads

    return all_workloads()
