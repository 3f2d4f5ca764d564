"""Command-line interface: ``supernpu <command>``.

Commands mirror the paper's experiments:

* ``estimate <design>``  — frequency / power / area of a design point
* ``simulate <design> <workload>`` — cycle-level run (perf + power)
* ``profile <design> <workload>`` — the same run under full observability
* ``bottleneck <design> <workload>`` — per-layer bound attribution,
  critical layers, roofline, and a simulated-cycle timeline export
* ``evaluate``           — the Fig. 23 speedup table
* ``validate``           — the Fig. 13 model validation
* ``sweep <which>``      — Figs. 20/21/22 design-space sweeps
* ``table1|table2|table3`` — the evaluation-setup and power tables
* ``plan list|show|run`` — the declarative experiment plans every
  figure/table lowers onto: inspect a plan's grids, dry-run-count its
  unique simulation tasks (and how many are already cached), or execute
  it directly through the job engine
* ``bench run|compare`` — record the ``benchmarks/`` suite into a
  schema-versioned ``BENCH_<git-sha>.json`` and compare two recordings
  with thresholded regression verdicts (nonzero exit on regression)
* ``runs list|show|diff`` — query the persistent run registry; every
  invocation is recorded there (``~/.supernpu/runs/`` by default;
  ``--runs-dir DIR`` overrides, ``--no-registry`` opts out);
  ``list --command SUBSTR`` filters by command name / argv
* ``hotspot [--top N] [--hotspot-mode M] [--hotspot-out FILE] <command...>``
  — the one way to profile: run any other supernpu command under the
  host-time profiler (wall-clock sampling, or deterministic tracing for
  sub-millisecond commands).  All profiler output goes to stderr, so
  the profiled command's stdout stays bitwise-identical to an
  unprofiled run; a profiled ``simulate`` adds the cycle-domain join

``simulate``, ``evaluate``, ``sweep``, ``compare``, ``reproduce``,
``bottleneck`` and ``profile`` accept ``--trace-out FILE`` (Chrome
trace-event JSON, loadable in Perfetto) and ``--metrics-out FILE``
(metrics snapshot + run manifest); either flag switches the
``repro.obs`` instrumentation on for that run.  ``bottleneck`` adds
``--timeline-out FILE``: a Chrome trace whose timestamps are *simulated*
time (cycles through the design's clock).

Commands that fan out many design-point simulations (``simulate``,
``evaluate``, ``compare``, ``sweep``, ``reproduce``) accept
``--jobs N`` (parallel worker processes; default 1 = serial),
``--cache-dir DIR`` (content-addressed on-disk result cache: warm
re-runs skip simulation entirely, and a killed run resumes from it),
and ``--no-cache``; these flags build one :class:`repro.api.RunOptions`.
``supernpu cache stats|clear --cache-dir DIR`` inspects / empties a
cache.  A design is named positionally everywhere: a paper design
point or a path to a JSON config file.
Parallel and warm-cache results are bitwise-identical to serial cold
runs.  ``estimate``, ``simulate``, ``evaluate`` and ``compare`` accept
``--json``: one consistent machine-readable envelope
(``{"command", "design", "workload", "data", "manifest"}``).

All command logic routes through :mod:`repro.api`, the canonical typed
facade; the CLI only parses flags and formats tables.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Iterable, List, Optional, Sequence


def _fmt_row(cells: Iterable[object], widths: Sequence[int]) -> str:
    return "  ".join(f"{str(c):>{w}s}" for c, w in zip(cells, widths))


class _ObsSession:
    """Per-command observability lifecycle driven by the CLI flags.

    Enables ``repro.obs`` when ``--trace-out`` / ``--metrics-out`` was
    passed (or unconditionally for ``profile``), and on :meth:`finish`
    stamps a run manifest, writes the requested files, and disables +
    resets the global registry/tracer so in-process callers (tests) see
    no leakage between commands.
    """

    def __init__(self, args: argparse.Namespace, command: str, force: bool = False):
        self.command = command
        self.trace_out: Optional[str] = getattr(args, "trace_out", None)
        self.metrics_out: Optional[str] = getattr(args, "metrics_out", None)
        self.active = force or bool(self.trace_out or self.metrics_out)
        self._start = time.perf_counter()
        if self.active:
            from repro import obs

            obs.reset()
            obs.enable()

    def finish(self, config=None, network=None, batch=None, technology=None,
               keep_enabled: bool = False, **extra):
        """Write the requested outputs; returns the manifest (or None)."""
        from repro import obs
        from repro.obs import registry as run_registry

        manifest = obs.RunManifest.capture(
            self.command,
            config=config,
            workload=network,
            batch=batch,
            technology=technology,
            wall_time_s=time.perf_counter() - self._start,
            **extra,
        )
        if not self.active:
            # Manifest capture is pure (no instrumentation needed), so the
            # run registry gets design/workload provenance even when the
            # obs runtime stayed off; counters exist only when it was on.
            run_registry.stage(manifest=manifest.to_dict())
            return None
        if self.metrics_out:
            obs.write_metrics(self.metrics_out, manifest=manifest)
            print(f"metrics written to {self.metrics_out}")
        if self.trace_out:
            obs.write_trace(self.trace_out, manifest=manifest)
            print(f"trace written to {self.trace_out}")
        # Stage manifest + metrics for the run registry before the global
        # state is reset; main() finalizes the entry with exit code and
        # wall time once the command returns.
        run_registry.stage(manifest=manifest.to_dict(),
                           metrics=obs.metrics().snapshot())
        if not keep_enabled:
            obs.disable()
            obs.reset()
        return manifest


def _resolve_design(args: argparse.Namespace):
    """One resolver for every design-taking command.

    The positional design goes through :func:`repro.api.design`, which
    accepts both named design points and paths to JSON config files.
    """
    from repro import api

    config = api.design(args.design)
    # Component-technology overrides (commands with the flags only);
    # with_updates re-validates the names against the registry.
    overrides = {}
    if getattr(args, "memory_technology", None):
        overrides["memory_technology"] = args.memory_technology
    if getattr(args, "link_technology", None):
        overrides["link_technology"] = args.link_technology
    if overrides:
        config = config.with_updates(**overrides)
    return config


@contextmanager
def _jobs_session(args: argparse.Namespace):
    """Run the command under the :class:`repro.api.RunOptions` its flags ask for.

    On exit, prints a one-line cache summary when a cache was in play, so
    warm runs visibly report their hit rate.
    """
    from repro import api
    from repro.obs.progress import auto_reporter

    # Live progress goes to stderr only, so sweep stdout (tables, JSON
    # envelopes) stays bitwise-identical with progress on or off.
    options = api.RunOptions(
        jobs=getattr(args, "jobs", None) or 1,
        cache_dir=getattr(args, "cache_dir", None),
        no_cache=getattr(args, "no_cache", False),
        retries=getattr(args, "retries", 2),
        timeout_s=getattr(args, "task_timeout", None),
        progress=auto_reporter(getattr(args, "progress", None)),
    )
    # Summary lines go to stderr under --json so stdout stays one document.
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout
    with api._execution_scope(options) as runner:
        yield runner
        if runner.cache is not None:
            print(f"cache [{runner.cache.root}]: {runner.stats.describe()}",
                  file=stream)
        if options.jobs > 1 and runner.stats.elapsed_seconds > 0:
            print(f"jobs: {options.jobs} workers, "
                  f"{runner.stats.parallel_speedup:.2f}x aggregate-sim-time speedup",
                  file=stream)
        stats = runner.stats
        if stats.tasks > 1:
            # One-line sweep summary, always on stderr (satellite of the
            # progress stream; never part of a command's stdout contract).
            print(f"summary: {stats.tasks} tasks ({stats.executed} run, "
                  f"{stats.hits} cached, {stats.retries} retried), "
                  f"{stats.elapsed_seconds:.1f}s wall, "
                  f"{100 * stats.hit_rate:.0f}% cache hit-rate",
                  file=sys.stderr)


def _print_envelope(command: str, data, *, config=None, network=None,
                    batch=None, technology=None, **extra) -> None:
    """The one JSON result envelope shared by every --json command."""
    import json

    from repro import obs

    manifest = obs.RunManifest.capture(
        command, config=config, workload=network, batch=batch,
        technology=technology, **extra,
    )
    document = {
        "command": command,
        "design": getattr(config, "name", None),
        "workload": getattr(network, "name", None),
        "data": data,
        "manifest": manifest.to_dict(),
    }
    print(json.dumps(document, indent=2, sort_keys=True))


def cmd_estimate(args: argparse.Namespace) -> int:
    from repro import api

    config = _resolve_design(args)
    library = api.library(args.technology)
    est = api.estimate(config, technology=library)
    if args.json:
        from repro.core.report import estimate_record

        _print_envelope("estimate", estimate_record(est), config=config,
                        technology=args.technology)
        return 0
    print(f"design          : {config.name} ({library.technology.value})")
    print(f"frequency       : {est.frequency_ghz:.2f} GHz  (critical: {est.critical_path})")
    print(f"peak throughput : {est.peak_tmacs:.0f} TMAC/s")
    print(f"static power    : {est.static_power_w:.2f} W")
    print(f"area (native)   : {est.area_mm2:.0f} mm^2")
    print(f"area (28nm eq.) : {est.area_mm2_scaled():.0f} mm^2")
    for name, unit in est.units.items():
        freq = "-" if unit.frequency_ghz is None else f"{unit.frequency_ghz:6.1f} GHz"
        print(
            f"  {name:14s} {freq:>12s}  {unit.static_power_w:9.2f} W  "
            f"{unit.area_mm2 * 0.028**2 / 1:9.1f} mm^2(28nm)"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro import api
    from repro.obs.hotspot import active_profiler
    from repro.simulator.power import power_report

    config = _resolve_design(args)
    network = api.workload(args.workload)
    session = _ObsSession(args, "simulate")
    with _jobs_session(args):
        library = api.library(args.technology)
        estimate = api.estimate(config, technology=library)
        run = api.simulate(config, network, batch=args.batch, technology=library)
        power = power_report(run, estimate)
        breakdown = run.cycle_breakdown()
        profiler = active_profiler()
        if profiler is not None:
            # Under ``supernpu hotspot``: join host self-time with the
            # run's simulated-cycle phase attribution so the report
            # answers "which loop models the phase that dominates
            # simulated time".  Raw per-phase fractions; the report
            # groups them into compute / preparation / dram itself.
            from repro.simulator.attribution import attribute

            profiler.profile.phase_fractions = dict(attribute(run).summary_fractions)
        if args.json:
            from repro.core.report import simulation_record

            _print_envelope("simulate", simulation_record(run, power),
                            config=config, network=network, batch=run.batch,
                            technology=args.technology)
            session.finish(config=config, network=network, batch=run.batch,
                           technology=args.technology)
            return 0
        print(f"{config.name} running {network.name} (batch {run.batch})")
        print(f"  cycles      : {run.total_cycles:,}")
        print(f"  latency     : {run.latency_s * 1e6:.1f} us")
        print(f"  throughput  : {run.tmacs:.2f} TMAC/s")
        print(f"  PE util     : {100 * run.pe_utilization(estimate.peak_mac_per_s):.2f} %")
        print(
            "  breakdown   : "
            f"prep {100 * breakdown['preparation']:.1f}% / "
            f"compute {100 * breakdown['computation']:.1f}% / "
            f"memory {100 * breakdown['memory']:.1f}%"
        )
        print(f"  chip power  : {power.total_w:.2f} W "
              f"(static {power.static_w:.2f} + dynamic {power.dynamic_w:.2f})")
        session.finish(config=config, network=network, batch=run.batch,
                       technology=args.technology)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro import api

    session = _ObsSession(args, "evaluate")
    with _jobs_session(args):
        suite = api.evaluate()
        speedups = suite.speedups()
        workloads = list(suite.tpu_runs) + ["Average"]
        if args.json:
            _print_envelope("evaluate", {"speedups": speedups,
                                         "workloads": workloads},
                            suite="fig23")
            session.finish(suite="fig23")
            return 0
        widths = [14] + [10] * len(workloads)
        print(_fmt_row(["design (vs TPU)"] + workloads, widths))
        for design, row in speedups.items():
            print(_fmt_row([design] + [f"{row[w]:.2f}x" for w in workloads], widths))
        session.finish(suite="fig23")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.estimator.validation import all_within_envelope, validate

    rows = validate()
    widths = [10, 22, 18, 18]
    print(_fmt_row(["unit", "freq (model/ref GHz)", "power err", "area err"], widths))
    for name, row in rows.items():
        if row.model_frequency_ghz is None or row.reference_frequency_ghz is None:
            freq = "-"
        else:
            freq = f"{row.model_frequency_ghz:.1f}/{row.reference_frequency_ghz:.1f}"
        print(
            _fmt_row(
                [
                    name,
                    freq,
                    f"{100 * row.power_error:.1f}%",
                    f"{100 * row.area_error:.1f}%",
                ],
                widths,
            )
        )
    ok = all_within_envelope(rows)
    print("validation:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.optimizer import buffer_sweep, register_sweep, resource_sweep

    session = _ObsSession(args, "sweep")
    with _jobs_session(args):
        if args.plot:
            from repro.core.plotting import sweep_chart

            if args.which == "buffers":
                print(sweep_chart(buffer_sweep(), "max_batch"))
            elif args.which == "resources":
                print(sweep_chart(resource_sweep(), "max_batch_added_buffer"))
            else:
                for width, rows in register_sweep().items():
                    print(f"width {width}:")
                    print(sweep_chart(rows, "speedup"))
            session.finish(which=args.which, plot=True)
            return 0

        if args.which == "buffers":
            for point in buffer_sweep():
                m = point.metrics
                print(
                    f"{point.label:26s} single={m['single_batch']:7.2f}x "
                    f"max={m['max_batch']:7.2f}x area={m['area']:5.2f}x"
                )
        elif args.which == "resources":
            for point in resource_sweep():
                m = point.metrics
                print(
                    f"{point.label:14s} fixed={m['max_batch_fixed_buffer']:7.2f}x "
                    f"added={m['max_batch_added_buffer']:7.2f}x "
                    f"intensity={m['intensity']:9.0f}"
                )
        else:
            for width, rows in register_sweep().items():
                for point in rows:
                    print(f"{point.label:22s} speedup={point.metrics['speedup']:7.2f}x")
        session.finish(which=args.which)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """One ``simulate`` run under full observability: span tree + metrics."""
    from repro import obs
    from repro.core.batching import batch_for
    from repro.device.cells import Technology, library_for
    from repro.estimator.arch_level import estimate_npu
    from repro.simulator.engine import simulate
    from repro.workloads.models import by_name

    config = _resolve_design(args)
    network = by_name(args.workload)
    session = _ObsSession(args, "profile", force=True)
    library = library_for(Technology(args.technology))
    estimate = estimate_npu(config, library)
    batch = args.batch or batch_for(config, network)
    run = simulate(config, network, batch=batch, estimate=estimate)

    print(f"profile: {config.name} running {network.name} "
          f"(batch {batch}, {run.total_cycles:,} cycles)")
    print()
    print(obs.tracer().summary_table())
    snapshot = obs.metrics().snapshot()
    print()
    print("counters:")
    for name, value in snapshot["counters"].items():
        print(f"  {name:32s} {value:>16,}")
    print("timers:")
    for name, summary in snapshot["histograms"].items():
        print(f"  {name:32s} count={summary['count']:<6d} "
              f"mean={summary['mean']:.6f} total={summary['sum']:.6f} "
              f"p50={summary['p50']:.6f} p95={summary['p95']:.6f} "
              f"p99={summary['p99']:.6f}")
    manifest = session.finish(config=config, network=network, batch=batch,
                              technology=args.technology)
    print()
    print("manifest:")
    print(manifest.describe())
    return 0


def cmd_bottleneck(args: argparse.Namespace) -> int:
    """Per-layer bound attribution, critical layers, roofline, timeline."""
    import json

    from repro import api, obs
    from repro.simulator.attribution import (
        attribute,
        attribution_records,
        roofline,
        roofline_records,
    )
    from repro.simulator.utilization import utilization_report

    config = _resolve_design(args)
    network = api.workload(args.workload)
    session = _ObsSession(args, "bottleneck")
    library = api.library(args.technology)
    estimate = api.estimate(config, technology=library)
    timeline = obs.CycleTimeline(
        estimate.frequency_ghz, design=config.name, network=network.name
    )
    run = api.simulate(config, network, batch=args.batch, technology=library,
                       timeline=timeline)
    batch = run.batch
    report = attribute(run)
    roof = roofline(run, estimate.peak_mac_per_s, config.memory_bandwidth_gbps)
    util = utilization_report(run)

    if args.timeline_out:
        manifest = obs.RunManifest.capture(
            "bottleneck",
            config=config,
            workload=network,
            batch=batch,
            technology=args.technology,
        )
        obs.write_timeline(args.timeline_out, timeline, manifest=manifest)

    if args.json:
        document = {
            "design": config.name,
            "network": network.name,
            "batch": batch,
            "technology": args.technology,
            "frequency_ghz": run.frequency_ghz,
            "total_cycles": run.total_cycles,
            "simulated_us": timeline.span_us,
            "layers": attribution_records(report),
            "summary": {
                "fractions": report.summary_fractions,
                "bound_counts": report.bound_counts,
            },
            "critical_layers": [
                {
                    "layer": layer.name,
                    "share": share,
                    "bound": layer.bound,
                    "dominant_phase": layer.dominant_phase,
                }
                for layer, share in report.critical_layers(args.top)
            ],
            "roofline": {
                "compute_roof_gops": roof.compute_roof_gops,
                "bandwidth_gbytes_per_s": roof.bandwidth_gbytes_per_s,
                "ridge_macs_per_byte": roof.ridge_macs_per_byte,
                "points": roofline_records(roof),
            },
            "utilization": util.to_dict(),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        session.finish(config=config, network=network, batch=batch,
                       technology=args.technology)
        return 0

    print(f"bottleneck: {config.name} running {network.name} "
          f"(batch {batch}, {run.frequency_ghz:.1f} GHz)")
    print(f"  total cycles : {run.total_cycles:,}  "
          f"({timeline.span_us:.2f} us simulated)")
    print()
    widths = [14, 14, 13, 20, 7, 7, 7]
    print(_fmt_row(
        ["layer", "cycles", "bound", "dominant", "prep%", "comp%", "dram%"], widths))
    for layer in report.layers:
        prep = sum(
            layer.fractions[p]
            for p in ("weight_load", "ifmap_prep", "psum_move", "activation_transfer")
        )
        print(_fmt_row(
            [
                layer.name,
                f"{layer.total_cycles:,}",
                layer.bound,
                layer.dominant_phase,
                f"{100 * prep:.1f}",
                f"{100 * layer.fractions['compute']:.1f}",
                f"{100 * layer.fractions['dram_stall']:.1f}",
            ],
            widths,
        ))
    print()
    counts = report.bound_counts
    print("attribution summary (cycle-weighted):")
    for phase, fraction in report.summary_fractions.items():
        print(f"  {phase:20s} {100 * fraction:6.2f} %")
    print(f"bound layers : compute {counts['compute']} / "
          f"preparation {counts['preparation']} / dram {counts['dram']}")
    print(f"busiest unit : {util.busiest_unit()} "
          f"({100 * util.per_unit[util.busiest_unit()]:.1f} % utilized)")
    print()
    print(f"critical layers (top {args.top} of {len(report.layers)}):")
    for rank, (layer, share) in enumerate(report.critical_layers(args.top), start=1):
        print(f"  {rank}. {layer.name:14s} {100 * share:5.1f}% of cycles  "
              f"{layer.bound}-bound ({layer.dominant_phase})")
    print()
    print(f"roofline (compute roof {roof.compute_roof_gops:,.0f} GOPS, "
          f"ridge {roof.ridge_macs_per_byte:.1f} MACs/byte):")
    widths = [14, 12, 14, 16, 10]
    print(_fmt_row(
        ["layer", "MACs/byte", "achieved", "attainable", "limiter"], widths))
    for point in roof.points:
        print(_fmt_row(
            [
                point.name,
                f"{point.intensity_macs_per_byte:.1f}",
                f"{point.achieved_gops:,.0f}",
                f"{point.attainable_gops:,.0f}",
                point.limiter,
            ],
            widths,
        ))
    if args.timeline_out:
        print()
        print(f"timeline written to {args.timeline_out}")
    session.finish(config=config, network=network, batch=batch,
                   technology=args.technology)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.table == "1":
        from repro.core.designs import all_designs
        from repro.device.cells import rsfq_library
        from repro.estimator.arch_level import estimate_npu

        library = rsfq_library()
        widths = [14, 8, 8, 10, 12, 12]
        print(_fmt_row(["design", "array", "regs", "freq", "peak", "area(28nm)"], widths))
        for config in all_designs():
            est = estimate_npu(config, library)
            print(
                _fmt_row(
                    [
                        config.name,
                        f"{config.pe_array_width}x{config.pe_array_height}",
                        config.registers_per_pe,
                        f"{est.frequency_ghz:.1f}GHz",
                        f"{est.peak_tmacs:.0f}TMAC/s",
                        f"{est.area_mm2_scaled():.0f}mm2",
                    ],
                    widths,
                )
            )
    elif args.table == "2":
        from repro.core.batching import PAPER_BATCHES

        workloads = list(next(iter(PAPER_BATCHES.values())))
        widths = [14] + [10] * len(workloads)
        print(_fmt_row(["design"] + workloads, widths))
        for design, row in PAPER_BATCHES.items():
            print(_fmt_row([design] + [row[w] for w in workloads], widths))
    else:
        from repro.core.evaluate import evaluate_suite, table3_rows

        suite = evaluate_suite()
        rows = table3_rows(suite)
        reference = rows[0]
        widths = [30, 12, 14, 16]
        print(_fmt_row(["configuration", "chip (W)", "wall (W)", "perf/W vs TPU"], widths))
        for row in rows:
            print(
                _fmt_row(
                    [
                        row.label,
                        f"{row.chip_power_w:.2f}",
                        f"{row.wall_power_w:.1f}",
                        f"{row.normalized_to(reference):.3f}x",
                    ],
                    widths,
                )
            )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro import api
    from repro.core.report import (
        layer_records,
        simulation_record,
        to_csv,
        to_json,
    )
    from repro.simulator.power import power_report

    config = _resolve_design(args)
    network = api.workload(args.workload)
    library = api.library(args.technology)
    estimate = api.estimate(config, technology=library)
    run = api.simulate(config, network, batch=args.batch, technology=library)
    if args.layers:
        records = layer_records(run)
        print(to_csv(records) if args.format == "csv" else to_json(records))
    else:
        record = simulation_record(run, power_report(run, estimate))
        print(to_csv([record]) if args.format == "csv" else to_json(record))
    return 0


def cmd_floorplan(args: argparse.Namespace) -> int:
    from repro.device.cells import rsfq_library
    from repro.estimator.floorplan import floorplan, implied_frequency_ghz

    config = _resolve_design(args)
    library = rsfq_library()
    plan = floorplan(config, library)
    print(f"{config.name}: die {plan.die_width_mm:.1f} x {plan.die_height_mm:.1f} mm "
          f"(AIST 1.0 um), packing {100 * plan.packing_efficiency:.1f}%")
    widths = [16, 10, 10, 10, 10]
    print(_fmt_row(["block", "w (mm)", "h (mm)", "x", "y"], widths))
    for name, block in plan.blocks.items():
        print(_fmt_row(
            [name, f"{block.width_mm:.1f}", f"{block.height_mm:.1f}",
             f"{block.x_mm:.1f}", f"{block.y_mm:.1f}"], widths))
    print("interfaces (edge gap + routing allowance):")
    for name in plan.edge_gaps_mm:
        print(f"  {name:26s} {plan.interface_distance_mm(name):.2f} mm")
    print(f"implied clock: {implied_frequency_ghz(config, library):.1f} GHz")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    from repro.core.energy import inference_energy_table, relative_energy
    from repro.workloads.models import by_name

    network = by_name(args.workload)
    rows = inference_energy_table(network)
    rel = relative_energy(rows)
    widths = [32, 14, 16, 18, 10]
    print(_fmt_row(
        ["configuration", "images/s", "chip J/img", "wall J/img", "vs TPU"], widths))
    for row in rows:
        print(_fmt_row(
            [
                row.label,
                f"{row.images_per_s:.0f}",
                f"{row.chip_joules_per_image:.2e}",
                f"{row.wall_joules_per_image:.2e}",
                f"{rel[row.label]:.3f}x",
            ],
            widths,
        ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro import api
    from repro.core.compare import comparison_records, phase_deltas, winner

    configs = [api.design(spec) for spec in args.designs]
    workloads = args.workloads.split(",") if args.workloads else None
    session = _ObsSession(args, "compare")
    with _jobs_session(args):
        columns = api.compare(configs, workloads=workloads)
        if args.json:
            data = {"columns": comparison_records(columns),
                    "winner": winner(columns).config.name}
            if len(columns) > 1:
                data["phase_deltas"] = phase_deltas(columns)
            _print_envelope("compare", data,
                            designs=",".join(c.config.name for c in columns))
            session.finish(designs=",".join(c.config.name for c in columns))
            return 0
        _print_compare_tables(columns, winner, phase_deltas)
        session.finish(designs=",".join(c.config.name for c in columns))
    return 0


def _print_compare_tables(columns, winner, phase_deltas) -> None:
    workload_names = list(columns[0].throughput_tmacs)
    widths = [16, 8, 8, 10, 10] + [10] * len(workload_names)
    print(_fmt_row(
        ["design", "GHz", "peak", "area mm2", "mean T/s"] + workload_names, widths))
    for column in columns:
        print(_fmt_row(
            [
                column.config.name,
                f"{column.frequency_ghz:.1f}",
                f"{column.peak_tmacs:.0f}",
                f"{column.area_mm2_28nm:.0f}",
                f"{column.mean_tmacs:.1f}",
            ]
            + [f"{column.throughput_tmacs[name]:.1f}" for name in workload_names],
            widths,
        ))
    print(f"winner (mean throughput): {winner(columns).config.name}")
    if len(columns) > 1:
        print()
        print(f"cycle movement vs {columns[0].config.name} "
              "(summed over workloads; negative = fewer cycles):")
        widths = [20] + [16] * len(columns) + [16]
        header = (["phase"] + [c.config.name for c in columns]
                  + [f"delta ({columns[-1].config.name})"])
        print(_fmt_row(header, widths))
        for row in phase_deltas(columns):
            delta = row[f"{columns[-1].config.name}_delta"]
            print(_fmt_row(
                [row["phase"]]
                + [f"{row[c.config.name]:,}" for c in columns]
                + [f"{delta:+,}"],
                widths,
            ))


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.core.experiments import EXPERIMENTS, EXTENSIONS, reproduce_all

    only = args.only.split(",") if args.only else None
    session = _ObsSession(args, "reproduce")
    mark = _plan_mark()
    with _jobs_session(args):
        results = reproduce_all(
            out_dir=args.out, only=only, include_extensions=args.extensions
        )
        for name in results:
            marker = f"-> {args.out}/{name}.json" if args.out else "(in memory)"
            print(f"  {name:28s} {marker}")
        available = len(EXPERIMENTS) + (len(EXTENSIONS) if args.extensions else 0)
        print(f"{len(results)} of {available} experiments regenerated")
        session.finish(experiments=",".join(results), **_plans_since(mark))
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads.analysis import duplication_report
    from repro.workloads.models import all_workloads

    widths = [12, 8, 10, 12, 14]
    print(_fmt_row(["workload", "layers", "GMACs", "weights MB", "duplication"], widths))
    for network in all_workloads():
        report = duplication_report(network)
        print(
            _fmt_row(
                [
                    network.name,
                    len(network.layers),
                    f"{network.total_macs / 1e9:.2f}",
                    f"{network.total_weight_bytes / 2**20:.1f}",
                    f"{100 * report.duplication_ratio:.1f}%",
                ],
                widths,
            )
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import api
    from repro.simulator.trace import trace_layer, trace_summary, trace_to_csv

    config = _resolve_design(args)
    network = api.workload(args.workload)
    matches = [l for l in network.layers if l.name == args.layer]
    if not matches:
        from repro.errors import UnknownWorkloadError

        names = ", ".join(l.name for l in network.layers[:12])
        raise UnknownWorkloadError(
            f"no layer {args.layer!r} in {network.name}; first layers: {names}",
            code="workload.unknown_layer", layer=args.layer, network=network.name,
        )
    events = trace_layer(matches[0], config, batch=args.batch)
    if args.format == "csv":
        print(trace_to_csv(events), end="")
    else:
        summary = trace_summary(events)
        print(f"{config.name} / {network.name} / {args.layer} (batch {args.batch})")
        for phase, cycles in summary.items():
            print(f"  {phase:14s} {cycles:>12,} cycles")
        print(f"  mappings       {events[-1].mapping_index + 1:>12,}")
    return 0


def _plans_since(mark: int) -> dict:
    """Manifest extras for every plan executed since ``mark``.

    ``mark`` is ``len(recent_plans())`` taken before the command ran; the
    delta is this command's plan executions, (name, hash) stamped.
    """
    from repro.core.plan import recent_plans

    executed = recent_plans()[mark:]
    if not executed:
        return {}
    return {"plans": [{"name": name, "hash": digest}
                      for name, digest in executed]}


def _plan_mark() -> int:
    from repro.core.plan import recent_plans

    return len(recent_plans())


def cmd_plan(args: argparse.Namespace) -> int:
    from repro import api
    from repro.errors import ConfigError

    if args.action == "list":
        names = api.plans()
        if args.json:
            plans = [
                {
                    "name": name,
                    "points": api.plan(name).num_points,
                    "description": api.plan(name).description,
                }
                for name in names
            ]
            _print_envelope("plan", {"plans": plans}, action="list")
            return 0
        widths = [24, 8]
        print(_fmt_row(["plan", "points"], widths) + "  description")
        for name in names:
            plan = api.plan(name)
            print(_fmt_row([name, plan.num_points], widths)
                  + f"  {plan.description}")
        return 0

    if not args.name:
        raise ConfigError(
            f"'plan {args.action}' needs a plan name",
            code="config.missing_plan",
            hint=f"known plans: {', '.join(api.plans())}",
        )
    plan = api.plan(args.name)

    if args.action == "show":
        lowered = plan.lower()
        unique = lowered.sim_tasks()
        estimate_points = sum(1 for p in lowered.points if p.task is None)
        cached = None
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir and not getattr(args, "no_cache", False):
            from repro.core.jobs import ResultCache

            cache = ResultCache(cache_dir)
            cached = sum(1 for key in unique if cache.path_for(key).exists())
        if args.json:
            _print_envelope("plan", {
                "name": plan.name,
                "hash": lowered.plan_hash,
                "description": plan.description,
                "points_total": len(lowered.points),
                "unique_simulations": len(unique),
                "estimate_points": estimate_points,
                "cached_simulations": cached,
                "grids": [
                    {"name": grid.name, "kind": grid.kind,
                     "points": grid.num_points}
                    for grid in plan.grids
                ],
            }, action="show", plan=plan.name)
            return 0
        print(plan.describe())
        line = (f"dry run: {len(lowered.points)} points -> "
                f"{len(unique)} unique simulations")
        if estimate_points:
            line += f" + {estimate_points} estimate points"
        if cached is not None:
            line += (f"; {cached} already cached, "
                     f"{len(unique) - cached} to execute")
        print(line)
        return 0

    # run
    session = _ObsSession(args, "plan")
    mark = _plan_mark()
    with _jobs_session(args):
        resultset = api.run_plan(plan)
        if args.json:
            _print_envelope("plan", {
                "name": plan.name,
                "hash": resultset.plan_hash,
                "points_total": resultset.points_total,
                "points_cached": resultset.points_cached,
                "points_executed": resultset.points_executed,
                "records": resultset.records(),
            }, action="run", plan=plan.name)
        else:
            print(resultset.describe())
            print(f"plan hash: {resultset.plan_hash}")
        session.finish(plan=plan.name, plan_hash=resultset.plan_hash,
                       points_total=resultset.points_total,
                       points_cached=resultset.points_cached,
                       points_executed=resultset.points_executed,
                       **_plans_since(mark))
    return 0


def cmd_components(args: argparse.Namespace) -> int:
    from repro import api
    from repro.errors import ConfigError

    if args.action == "list":
        registered = api.components(kind=args.kind)
        if args.json:
            _print_envelope(
                "components",
                {"components": [component.to_dict() for component in registered]},
                action="list")
            return 0
        widths = [16, 8, 8, 10]
        print(_fmt_row(["component", "kind", "stage", "GB/s"], widths)
              + "  description")
        for component in registered:
            bandwidth = ("inherit" if component.bandwidth_gbps is None
                         else f"{component.bandwidth_gbps:g}")
            print(_fmt_row([component.name, component.kind,
                            f"{component.stage_k:g}K", bandwidth], widths)
                  + f"  {component.description}")
        return 0

    # show
    if not args.name:
        raise ConfigError(
            "'components show' needs a component name",
            code="components.missing_name",
            hint="known components: "
                 + ", ".join(c.name for c in api.components()),
        )
    component = api.component(args.name)
    if args.json:
        _print_envelope("components", component.to_dict(), action="show",
                        component=component.name)
        return 0
    print(f"component   : {component.name} ({component.kind})")
    print(f"stage       : {component.stage_k:g} K")
    bandwidth = ("inherit (design memory_bandwidth_gbps)"
                 if component.bandwidth_gbps is None
                 else f"{component.bandwidth_gbps:g} GB/s")
    print(f"bandwidth   : {bandwidth}")
    for action in ("read", "write", "transfer", "idle"):
        if action in component.action_energy_pj_per_byte:
            print(f"  {action:9s}: "
                  f"{component.action_energy_pj_per_byte[action]:g} pJ/B")
    if component.area_mm2_per_mib:
        print(f"area        : {component.area_mm2_per_mib:g} mm^2/MiB")
    if component.idle_power_w:
        print(f"idle power  : {component.idle_power_w:g} W")
    if component.description:
        print(f"description : {component.description}")
    if component.citation:
        print(f"citation    : {component.citation}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.jobs import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache [{cache.root}]: removed {removed} entries")
        return 0
    stats = cache.stats()
    print(f"cache [{cache.root}]")
    print(f"  entries : {stats.entries}")
    print(f"  size    : {stats.bytes / 1024:.1f} KiB")
    for kind in sorted(stats.by_kind):
        print(f"  {kind:14s}: {stats.by_kind[kind]}")
    if stats.quarantined:
        print(f"  quarantined   : {stats.quarantined}")
    return 0


def _print_bench_comparison(comparison) -> None:
    """Per-benchmark verdict table + one summary line."""
    print(f"{'benchmark':<58s} {'base ms':>10s} {'new ms':>10s} "
          f"{'ratio':>7s}  verdict")
    for delta in comparison.deltas:
        base_ms = "-" if delta.base_s is None else f"{delta.base_s * 1e3:.3f}"
        new_ms = "-" if delta.new_s is None else f"{delta.new_s * 1e3:.3f}"
        ratio = "-" if delta.ratio is None else f"{delta.ratio:.2f}x"
        print(f"{delta.name:<58s} {base_ms:>10s} {new_ms:>10s} "
              f"{ratio:>7s}  {delta.verdict}")
    print(f"bench compare [{comparison.base_sha} -> {comparison.new_sha}]: "
          f"{len(comparison.regressions)} regressions, "
          f"{len(comparison.improvements)} improvements "
          f"(threshold {comparison.threshold:g}x on min wall time)")


def cmd_bench(args: argparse.Namespace) -> int:
    """Record the benchmark suite / gate a recording against a baseline."""
    import json

    from repro.errors import ConfigError
    from repro.obs import bench

    if args.action == "run":
        document = bench.run_benchmarks(
            args.subset, min_rounds=args.min_rounds, max_time_s=args.max_time,
            label=args.label)
        path = bench.write_document(document, path=args.out)
        if args.json:
            _print_envelope("bench", document, action="run", subset=args.subset)
        else:
            print(f"bench [{document['git_sha']}]: "
                  f"{len(document['benchmarks'])} benchmarks "
                  f"({args.subset}) -> {path}")
            for name in sorted(document["benchmarks"]):
                stats = document["benchmarks"][name]
                print(f"  {name:<58s} min {stats['min_s'] * 1e3:9.3f} ms  "
                      f"mean {stats['mean_s'] * 1e3:9.3f} ms  "
                      f"({stats['rounds']} rounds)")
        return 0

    # compare: candidate vs an explicit --baseline or the newest committed one
    if not args.target:
        raise ConfigError(
            "'bench compare' needs a candidate BENCH_*.json",
            code="bench.missing_candidate",
            hint="record one with 'supernpu bench run --out FILE'",
        )
    candidate = bench.load_document(args.target)
    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = bench.find_baseline(exclude=[args.target])
        if baseline_path is None:
            raise ConfigError(
                "no baseline BENCH_*.json found at the repo root",
                code="bench.no_baseline",
                hint="pass --baseline FILE or commit a baseline recording",
            )
    baseline = bench.load_document(baseline_path)
    comparison = bench.compare_documents(baseline, candidate,
                                         threshold=args.threshold)
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        _print_bench_comparison(comparison)
    return 0 if comparison.ok else 1


def cmd_runs(args: argparse.Namespace) -> int:
    """Query the persistent run registry (list / show / diff)."""
    import json

    from repro.errors import ConfigError
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(getattr(args, "runs_dir", None))

    if args.action == "list":
        entries, corrupt = registry.entries(limit=args.limit,
                                            command=args.command_filter)
        if args.json:
            _print_envelope("runs", {
                "runs": [entry.to_dict() for entry in entries],
                "corrupt_skipped": corrupt,
            }, action="list")
            return 0
        print(f"runs [{registry.root}]: {len(entries)} shown")
        widths = [30, 4, 9, 20]
        print(_fmt_row(["run", "exit", "wall (s)", "recorded"], widths)
              + "  command")
        for entry in entries:
            wall = "-" if entry.wall_time_s is None else f"{entry.wall_time_s:.2f}"
            exit_code = "?" if entry.exit_code is None else str(entry.exit_code)
            when = time.strftime("%Y-%m-%d %H:%M:%S",
                                 time.localtime(entry.created_unix))
            command = " ".join(entry.argv) if entry.argv else entry.command
            print(_fmt_row([entry.run_id, exit_code, wall, when], widths)
                  + f"  {command}")
        if corrupt:
            print(f"({corrupt} corrupt entries skipped)")
        return 0

    if args.action == "show":
        if len(args.ids) != 1:
            raise ConfigError("'runs show' needs exactly one run id",
                              code="registry.bad_query",
                              hint="see 'supernpu runs list'")
        entry = registry.get(args.ids[0])
        if args.json:
            _print_envelope("runs", entry.to_dict(), action="show")
        else:
            print(entry.describe())
        return 0

    # diff
    if len(args.ids) != 2:
        raise ConfigError("'runs diff' needs two run ids",
                          code="registry.bad_query",
                          hint="see 'supernpu runs list'")
    difference = registry.diff(args.ids[0], args.ids[1])
    if args.json:
        _print_envelope("runs", difference, action="diff")
        return 0
    print(f"runs diff: {difference['a']} -> {difference['b']}")
    if difference["wall_time_delta_s"] is not None:
        print(f"  wall time   : {difference['wall_time_delta_s']:+.3f} s")
    for name, change in difference["fields"].items():
        print(f"  {name:12s}: {change['a']} -> {change['b']}")
    if difference["counters"]:
        print("  counters:")
        for name, change in difference["counters"].items():
            print(f"    {name:32s} {change['a']:>14,} -> {change['b']:>14,} "
                  f"({change['delta']:+,})")
    if not (difference["fields"] or difference["counters"]
            or difference["wall_time_delta_s"] is not None):
        print("  (no differences recorded)")
    return 0


def cmd_hotspot(args: argparse.Namespace) -> int:
    """Profile any other supernpu command's host time.

    Runs the wrapped command in-process under a :class:`HotspotProfiler`
    and prints the top-N table to stderr — the wrapped command's stdout
    is bitwise-identical to an unprofiled run.  A wrapped ``simulate``
    hands its simulated-cycle phase fractions to the profile, so the
    report adds the cycle-domain join; a wrapped ``bench run`` folds the
    benchmark subprocess's samples in.  ``tracing`` mode is the
    right choice for sub-millisecond commands (deterministic, counts
    calls); ``sampling`` (default) for anything that runs long enough to
    collect samples.
    """
    from repro.errors import ConfigError
    from repro.obs import registry as run_registry
    from repro.obs.hotspot import HotspotProfiler

    inner = list(args.argv)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        raise ConfigError(
            "'hotspot' needs a supernpu command to profile",
            code="config.missing_command",
            hint="e.g. supernpu hotspot --hotspot-mode tracing "
                 "simulate supernpu mobilenet",
        )
    profiler = HotspotProfiler(mode=args.hotspot_mode)
    profiler.start()
    try:
        exit_code = main(inner)
    finally:
        profile = profiler.stop()
    print(profile.report(top_n=args.top), file=sys.stderr)
    if args.hotspot_out:
        with open(args.hotspot_out, "w", encoding="utf-8") as handle:
            handle.write(profile.collapsed())
        print(f"collapsed stacks written to {args.hotspot_out}",
              file=sys.stderr)
    run_registry.stage(hotspot=profile.summary())
    return exit_code


def _positive_int(text: str) -> int:
    """argparse ``type`` for counts (``--top``, ``--limit``): an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of this run "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write this run's metrics snapshot + manifest as JSON")


def _add_jobs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel simulation worker processes "
                             "(default 1 = serial; results are identical)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result cache directory; "
                             "warm re-runs skip simulation entirely")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir for this run")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry budget per task for transient worker "
                             "failures (default 2; 0 fails fast)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock limit per simulation task when "
                             "--jobs > 1; a hung task is killed and retried")
    parser.add_argument("--progress", dest="progress", action="store_true",
                        default=None,
                        help="stream live sweep progress (task counts, ETA) "
                             "to stderr; default: only when stderr is a tty")
    parser.add_argument("--no-progress", dest="progress", action="store_false",
                        help="never stream sweep progress")


def _add_component_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--memory-technology", metavar="NAME", default=None,
                        help="registered memory component to charge off-chip "
                             "traffic to (see 'components list'; default: "
                             "the design's own, normally dram-300k)")
    parser.add_argument("--link-technology", metavar="NAME", default=None,
                        help="registered link component carrying that "
                             "traffic (default: 4k-300k-link)")


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON envelope "
                             '({"command", "design", "workload", "data", '
                             '"manifest"}) instead of tables')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supernpu",
        description="SuperNPU: SFQ-based NPU modeling and simulation (MICRO 2020 reproduction)",
    )
    parser.add_argument("--debug", action="store_true",
                        help="show full tracebacks instead of one-line errors")
    parser.add_argument("--runs-dir", metavar="DIR", default=None,
                        help="run-registry directory (default: "
                             "$SUPERNPU_RUNS_DIR or ~/.supernpu/runs)")
    parser.add_argument("--no-registry", action="store_true",
                        help="do not record this invocation in the run registry")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="frequency / power / area of a design")
    p_est.add_argument("design", nargs="?", default="supernpu")
    p_est.add_argument("--technology", choices=["rsfq", "ersfq"], default="rsfq")
    _add_component_flags(p_est)
    _add_json_flag(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="cycle-level simulation of one workload")
    p_sim.add_argument("design", nargs="?", default="supernpu")
    p_sim.add_argument("workload")
    p_sim.add_argument("--batch", type=int, default=None)
    p_sim.add_argument("--technology", choices=["rsfq", "ersfq"], default="rsfq")
    _add_component_flags(p_sim)
    _add_obs_flags(p_sim)
    _add_jobs_flags(p_sim)
    _add_json_flag(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_prof = sub.add_parser(
        "profile",
        help="simulate one workload under full observability "
             "(span tree, counters, run manifest)",
    )
    p_prof.add_argument("design", nargs="?", default="supernpu")
    p_prof.add_argument("workload")
    p_prof.add_argument("--batch", type=int, default=None)
    p_prof.add_argument("--technology", choices=["rsfq", "ersfq"], default="rsfq")
    _add_obs_flags(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_bott = sub.add_parser(
        "bottleneck",
        help="per-layer bound attribution, critical layers, roofline, "
             "and a simulated-cycle timeline export",
    )
    p_bott.add_argument("design", nargs="?", default="supernpu")
    p_bott.add_argument("workload")
    p_bott.add_argument("--batch", type=int, default=None)
    p_bott.add_argument("--technology", choices=["rsfq", "ersfq"], default="rsfq")
    p_bott.add_argument("--top", type=_positive_int, default=5,
                        help="how many critical layers to rank (default 5)")
    p_bott.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    p_bott.add_argument("--timeline-out", metavar="FILE", default=None,
                        help="write the run's simulated-cycle timeline as "
                             "Chrome trace JSON (timestamps are simulated "
                             "time; open in Perfetto)")
    _add_obs_flags(p_bott)
    p_bott.set_defaults(func=cmd_bottleneck)

    p_floor = sub.add_parser("floorplan", help="block placement and interfaces")
    p_floor.add_argument("design", nargs="?", default="supernpu")
    p_floor.set_defaults(func=cmd_floorplan)

    p_energy = sub.add_parser("energy", help="joules per image across designs")
    p_energy.add_argument("workload")
    p_energy.set_defaults(func=cmd_energy)

    p_eval = sub.add_parser("evaluate", help="full Fig. 23 speedup comparison")
    _add_obs_flags(p_eval)
    _add_jobs_flags(p_eval)
    _add_json_flag(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_val = sub.add_parser("validate", help="Fig. 13 model validation")
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="design-space sweeps (Figs. 20-22)")
    p_sweep.add_argument("which", choices=["buffers", "resources", "registers"])
    p_sweep.add_argument("--plot", action="store_true",
                         help="render the sweep as an ASCII chart")
    _add_obs_flags(p_sweep)
    _add_jobs_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="print Table I / II / III")
    p_table.add_argument("table", choices=["1", "2", "3"])
    p_table.set_defaults(func=cmd_table)

    p_report = sub.add_parser("report", help="export a run as JSON/CSV records")
    p_report.add_argument("design")
    p_report.add_argument("workload")
    p_report.add_argument("--batch", type=int, default=None)
    p_report.add_argument("--technology", choices=["rsfq", "ersfq"], default="rsfq")
    p_report.add_argument("--format", choices=["json", "csv"], default="json")
    p_report.add_argument("--layers", action="store_true",
                          help="emit per-layer records instead of the summary")
    p_report.set_defaults(func=cmd_report)

    p_compare = sub.add_parser("compare", help="side-by-side design comparison")
    p_compare.add_argument("designs", nargs="+",
                           help="named designs or .json config files")
    p_compare.add_argument("--workloads", default=None,
                           help="comma-separated workload names (default: all six)")
    _add_obs_flags(p_compare)
    _add_jobs_flags(p_compare)
    _add_json_flag(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_repro = sub.add_parser("reproduce", help="run every figure/table experiment")
    p_repro.add_argument("--out", default=None, help="directory for per-experiment JSON")
    p_repro.add_argument("--only", default=None,
                         help="comma-separated experiment ids (default: all)")
    p_repro.add_argument("--extensions", action="store_true",
                         help="also run the ext_* extension studies")
    _add_obs_flags(p_repro)
    _add_jobs_flags(p_repro)
    p_repro.set_defaults(func=cmd_reproduce)

    p_workloads = sub.add_parser("workloads", help="list the benchmark networks")
    p_workloads.set_defaults(func=cmd_workloads)

    p_trace = sub.add_parser("trace", help="per-mapping execution trace of one layer")
    p_trace.add_argument("design")
    p_trace.add_argument("workload")
    p_trace.add_argument("layer")
    p_trace.add_argument("--batch", type=int, default=1)
    p_trace.add_argument("--format", choices=["summary", "csv"], default="summary")
    p_trace.set_defaults(func=cmd_trace)

    p_plan = sub.add_parser(
        "plan", help="inspect / run the declarative experiment plans"
    )
    p_plan.add_argument("action", choices=["list", "show", "run"],
                        help="list registered plans, show one plan's grids "
                             "and dry-run counts, or execute it")
    p_plan.add_argument("name", nargs="?", default=None,
                        help="a registered plan name (see 'plan list')")
    _add_obs_flags(p_plan)
    _add_jobs_flags(p_plan)
    _add_json_flag(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_comp = sub.add_parser(
        "components",
        help="inspect the registered component estimators "
             "(memory / link technologies)",
    )
    p_comp.add_argument("action", choices=["list", "show"],
                        help="list the registry or show one component's "
                             "energies, stage, and bandwidth")
    p_comp.add_argument("name", nargs="?", default=None,
                        help="a registered component name (see 'components list')")
    p_comp.add_argument("--kind", choices=["memory", "link"], default=None,
                        help="restrict the listing to one component kind")
    _add_json_flag(p_comp)
    p_comp.set_defaults(func=cmd_components)

    p_cache = sub.add_parser("cache", help="inspect or empty a result cache")
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--cache-dir", metavar="DIR", required=True,
                         help="the cache directory to inspect / clear")
    p_cache.set_defaults(func=cmd_cache)

    p_bench = sub.add_parser(
        "bench",
        help="record the benchmark suite as BENCH_<sha>.json / compare "
             "two recordings with a regression gate",
    )
    p_bench.add_argument("action", choices=["run", "compare"])
    p_bench.add_argument("target", nargs="?", default=None,
                         help="for 'compare': the candidate BENCH_*.json")
    p_bench.add_argument("--subset", default="all",
                         help="named subset (all, smoke, figures, ablation, "
                              "extensions) or comma-separated name fragments")
    p_bench.add_argument("--out", metavar="FILE", default=None,
                         help="where to write the recording "
                              "(default: BENCH_<git-sha>.json at the repo root)")
    p_bench.add_argument("--min-rounds", type=int, default=3, metavar="N",
                         help="pytest-benchmark rounds per benchmark (default 3)")
    p_bench.add_argument("--max-time", type=float, default=0.5,
                         metavar="SECONDS",
                         help="pytest-benchmark time budget per benchmark "
                              "(default 0.5)")
    p_bench.add_argument("--baseline", metavar="FILE", default=None,
                         help="for 'compare': explicit baseline recording "
                              "(default: newest BENCH_*.json at the repo root)")
    p_bench.add_argument("--threshold", type=float, default=1.5, metavar="X",
                         help="regression threshold on the min-wall-time "
                              "ratio (default 1.5)")
    p_bench.add_argument("--label", default=None, metavar="NAME",
                         help="for 'run': stamp the recording with a stable "
                              "label and write it as BENCH_<label>.json — "
                              "use one label per PR to grow a committed "
                              "performance trajectory")
    _add_json_flag(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_runs = sub.add_parser(
        "runs", help="query the persistent run registry"
    )
    p_runs.add_argument("action", choices=["list", "show", "diff"],
                        help="list recorded invocations, show one entry, or "
                             "diff two entries (fields, counters, wall time)")
    p_runs.add_argument("ids", nargs="*", default=[],
                        help="run id (show) or two run ids (diff); unique "
                             "prefixes are accepted")
    p_runs.add_argument("--limit", type=_positive_int, default=20, metavar="N",
                        help="how many entries 'list' shows (default 20)")
    p_runs.add_argument("--command", dest="command_filter", default=None,
                        metavar="SUBSTR",
                        help="for 'list': only entries whose command or argv "
                             "contains SUBSTR (case-insensitive; applied "
                             "before --limit)")
    _add_json_flag(p_runs)
    p_runs.set_defaults(func=cmd_runs)

    p_hot = sub.add_parser(
        "hotspot",
        help="run another supernpu command under the host-time profiler "
             "(top-N table on stderr; stdout untouched)",
    )
    p_hot.add_argument("--top", type=_positive_int, default=10, metavar="N",
                       help="how many functions the report ranks (default 10)")
    p_hot.add_argument("--hotspot-out", metavar="FILE", default=None,
                       help="write collapsed stacks (flamegraph.pl / "
                            "speedscope format)")
    p_hot.add_argument("--hotspot-mode", choices=["sampling", "tracing"],
                       default="sampling",
                       help="sampling (default) or deterministic tracing "
                            "(use for sub-millisecond commands)")
    p_hot.add_argument("argv", nargs=argparse.REMAINDER,
                       help="the supernpu command line to profile, e.g. "
                            "'simulate supernpu mobilenet'")
    p_hot.set_defaults(func=cmd_hotspot)

    return parser


def main(argv: List[str] | None = None) -> int:
    from repro.errors import ReproError
    from repro.obs import registry as run_registry

    parser = build_parser()
    args = parser.parse_args(argv)
    argv_list = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    mark = _plan_mark()
    exit_code: Optional[int] = None
    try:
        exit_code = args.func(args)
        return exit_code
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head).
        exit_code = 0
        return exit_code
    except ReproError as error:
        if args.debug:
            raise
        print(f"error: {error.message}", file=sys.stderr)
        if error.hint:
            print(f"hint: {error.hint}", file=sys.stderr)
        exit_code = error.exit_code
        return exit_code
    finally:
        # Every invocation lands in the run registry (best-effort; a full
        # disk never turns a successful command into a failure).  The
        # registry's own query command is not recorded — listing history
        # should not grow it.
        if args.command != "runs" and not args.no_registry:
            run_registry.record_invocation(
                command=args.command,
                argv=argv_list,
                exit_code=exit_code,
                wall_time_s=time.perf_counter() - started,
                runs_dir=args.runs_dir,
                plans=_plans_since(mark).get("plans"),
            )
        else:
            run_registry.take_staged()


if __name__ == "__main__":
    sys.exit(main())
