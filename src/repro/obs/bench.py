"""``repro.obs.bench`` — the recorded performance trajectory.

ROADMAP item 2 (vectorize the RK4/cycle hot paths) needs *evidence*: a
committed baseline to prove any speedup against and a regression gate to
keep accidental slowdowns out.  This module is that substrate:

* :func:`run_benchmarks` executes the ``benchmarks/bench_*.py`` suite
  (or a named subset) under pytest-benchmark in a subprocess, with the
  ``repro.obs`` metrics session enabled, and folds the per-benchmark
  wall-time stats plus the aggregate obs counters (simulated cycles,
  MACs, solver steps, cache hits, per-test timing histograms) into one
  schema-versioned document;
* :func:`write_document` stamps it as ``BENCH_<git-sha>.json`` at the
  repo root, so the perf trajectory is a tracked artifact — every
  subsequent perf PR records a new point next to the old ones;
* :func:`compare_documents` renders thresholded per-benchmark verdicts
  (``regression`` / ``improvement`` / ``ok``) between two recordings;
  the CLI (``supernpu bench compare``) exits nonzero on any regression.

Verdicts use each benchmark's **min** wall time (the most noise-robust
statistic pytest-benchmark reports); counters ride along for context
but are informational — their totals scale with how many rounds the
benchmark harness chose to run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, SimulationError
from repro.obs.hotspot import absorb, active_profiler
from repro.obs.manifest import RunManifest

#: Bump when the BENCH document layout changes meaning.
#: v2 adds ``label`` (human-chosen trajectory-point name) and ``hotspot``
#: (host-time profile summary of the whole bench session); both are
#: additive, so v1 documents remain readable (see COMPATIBLE_SCHEMAS).
BENCH_SCHEMA_VERSION = 2

#: Older document schemas :func:`load_document` still accepts.
COMPATIBLE_SCHEMAS = (1, 2)

BENCH_KIND = "supernpu-bench"
BENCH_PREFIX = "BENCH_"

#: Environment variables the benchmarks/conftest.py hotspot fixture honors.
HOTSPOT_OUT_ENV = "SUPERNPU_BENCH_HOTSPOT_OUT"
HOTSPOT_MODE_ENV = "SUPERNPU_BENCH_HOTSPOT_MODE"
HOTSPOT_HZ_ENV = "SUPERNPU_BENCH_HOTSPOT_HZ"

#: Named benchmark subsets (file stems under ``benchmarks/``).
#: ``smoke`` is the CI gate: the fastest representative slice of the
#: figure/table suite, a few seconds end to end.
SUBSETS: Dict[str, Optional[Tuple[str, ...]]] = {
    "all": None,  # every bench_*.py
    "smoke": (
        "bench_table1_setup",
        "bench_table2_batch",
        "bench_fig05_network",
        "bench_fig07_feedback",
        "bench_fig13_validation",
    ),
    "figures": (
        "bench_fig05_network", "bench_fig07_feedback",
        "bench_fig08_duplication", "bench_fig13_validation",
        "bench_fig15_cycle_breakdown", "bench_fig17_roofline",
        "bench_fig20_buffer_opt", "bench_fig21_resource_balancing",
        "bench_fig22_registers", "bench_fig23_performance",
    ),
    "ablation": (
        "bench_ablation_bandwidth", "bench_ablation_bitserial",
        "bench_ablation_cooling", "bench_ablation_dataflow",
        "bench_ablation_features", "bench_ablation_scaling",
        "bench_ablation_training", "bench_ablation_variation",
    ),
    "extensions": (
        "bench_extension_energy", "bench_extension_latency",
        "bench_extension_multibatch", "bench_extension_transformer",
    ),
    # The vectorized inner loops (jsim RK4, systolic dataflows) plus the
    # end-to-end figure they feed; both benchmark files honor the
    # SUPERNPU_JSIM_SOLVER=reference / SUPERNPU_SYSTOLIC=stepped switches
    # for before/after recordings on identical physics.
    "hotpath": (
        "bench_jsim_solver",
        "bench_functional_systolic",
        "bench_fig23_performance",
    ),
}


def repo_root(explicit: Optional[Union[str, Path]] = None) -> Path:
    """The repository root: the directory holding ``benchmarks/``.

    Resolution order: an explicit argument, the source checkout this
    module was imported from (``src/repro/obs/bench.py`` → three levels
    up), then the current working directory.
    """
    if explicit is not None:
        return Path(explicit).expanduser().resolve()
    source_root = Path(__file__).resolve().parents[3]
    if (source_root / "benchmarks").is_dir():
        return source_root
    return Path.cwd()


def git_sha(root: Optional[Union[str, Path]] = None, short: bool = True) -> str:
    """The checkout's HEAD sha (short by default), or ``"unknown"``."""
    command = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        proc = subprocess.run(
            command, cwd=str(repo_root(root)), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def bench_files(subset: str = "all",
                root: Optional[Union[str, Path]] = None) -> List[Path]:
    """Resolve a subset name (or comma-separated stem fragments) to files."""
    bench_dir = repo_root(root) / "benchmarks"
    available = sorted(bench_dir.glob("bench_*.py"))
    if not available:
        raise ConfigError(
            f"no bench_*.py files under {bench_dir}",
            code="bench.no_benchmarks", path=str(bench_dir),
        )
    stems = SUBSETS.get(subset)
    if subset in SUBSETS:
        if stems is None:
            return available
        by_stem = {path.stem: path for path in available}
        missing = [stem for stem in stems if stem not in by_stem]
        if missing:
            raise ConfigError(
                f"subset {subset!r} names missing benchmarks: {missing}",
                code="bench.unknown_benchmark", missing=missing,
            )
        return [by_stem[stem] for stem in stems]
    # Comma-separated fragments, each matched as a stem substring.
    selected: List[Path] = []
    for fragment in (token.strip() for token in subset.split(",")):
        if not fragment:
            continue
        matches = [p for p in available if fragment in p.stem]
        if not matches:
            raise ConfigError(
                f"no benchmark matches {fragment!r}; "
                f"known subsets: {sorted(SUBSETS)}",
                code="bench.unknown_benchmark", fragment=fragment,
            )
        selected.extend(m for m in matches if m not in selected)
    return selected


def default_bench_path(root: Optional[Union[str, Path]] = None,
                       sha: Optional[str] = None,
                       label: Optional[str] = None) -> Path:
    """Where a recording lands: ``BENCH_<label>.json`` else ``BENCH_<sha>.json``."""
    base = repo_root(root)
    return base / f"{BENCH_PREFIX}{label or sha or git_sha(base)}.json"


# -- recording ---------------------------------------------------------------

def run_benchmarks(subset: str = "all", *,
                   root: Optional[Union[str, Path]] = None,
                   min_rounds: int = 3,
                   max_time_s: float = 0.5,
                   timeout_s: float = 1800.0,
                   label: Optional[str] = None,
                   pytest_args: Sequence[str] = ()) -> Dict[str, Any]:
    """Run the suite in a pytest subprocess; returns the BENCH document.

    The subprocess inherits this interpreter and a ``PYTHONPATH``
    pointing at the source tree, runs with ``repro.obs`` metrics routed
    to a temporary file (the benchmark conftest honors
    ``SUPERNPU_BENCH_METRICS_OUT``), and writes pytest-benchmark's raw
    stats JSON alongside; both are folded into the returned document.

    ``label`` names the trajectory point (sets the default filename to
    ``BENCH_<label>.json``).  Under an active
    :class:`~repro.obs.hotspot.HotspotProfiler` (``supernpu hotspot bench
    run``), the benchmark conftest profiles the whole session host-side
    in the same mode and at the same rate (``SUPERNPU_BENCH_HOTSPOT_*``
    env vars), the way pool workers follow the profiler; the subprocess
    profile folds into the document's ``hotspot`` field and into the
    active profiler.
    """
    if min_rounds < 1:
        raise ConfigError("min_rounds must be >= 1",
                          code="bench.invalid_rounds", min_rounds=min_rounds)
    base = repo_root(root)
    files = bench_files(subset, base)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="supernpu-bench-") as scratch:
        raw_path = Path(scratch) / "pytest-benchmark.json"
        metrics_path = Path(scratch) / "bench-metrics.json"
        hotspot_path = Path(scratch) / "bench-hotspot.json"
        env = dict(os.environ)
        env["SUPERNPU_BENCH_METRICS_OUT"] = str(metrics_path)
        profiler = active_profiler()
        if profiler is not None:
            env[HOTSPOT_OUT_ENV] = str(hotspot_path)
            env[HOTSPOT_MODE_ENV] = profiler.mode
            env[HOTSPOT_HZ_ENV] = str(profiler.sample_hz)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        command = [
            sys.executable, "-m", "pytest",
            *[str(path) for path in files],
            "-q", "-p", "no:cacheprovider",
            f"--benchmark-min-rounds={min_rounds}",
            f"--benchmark-max-time={max_time_s}",
            "--benchmark-warmup=off",
            f"--benchmark-json={raw_path}",
            *pytest_args,
        ]
        try:
            proc = subprocess.run(
                command, cwd=str(base), env=env, capture_output=True,
                text=True, timeout=timeout_s,
            )
        except subprocess.TimeoutExpired as error:
            raise SimulationError(
                f"benchmark run exceeded {timeout_s:g}s",
                code="bench.timeout", subset=subset,
            ) from error
        if proc.returncode != 0 or not raw_path.is_file():
            tail = "\n".join((proc.stdout or "").splitlines()[-15:])
            raise SimulationError(
                f"benchmark run failed (pytest exit {proc.returncode})",
                code="bench.run_failed",
                hint=tail or "re-run with the same files under pytest -x",
                subset=subset,
            )
        raw = json.loads(raw_path.read_text(encoding="utf-8"))
        counters: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        if metrics_path.is_file():
            metrics_doc = json.loads(metrics_path.read_text(encoding="utf-8"))
            counters = metrics_doc.get("metrics", {}).get("counters", {})
            histograms = metrics_doc.get("metrics", {}).get("histograms", {})
        hotspot_doc: Optional[Dict[str, Any]] = None
        if profiler is not None and hotspot_path.is_file():
            try:
                hotspot_doc = json.loads(hotspot_path.read_text(encoding="utf-8"))
            except ValueError:
                hotspot_doc = None
            else:
                absorb(hotspot_doc["profile"])
    wall = time.perf_counter() - started

    benchmarks: Dict[str, Dict[str, Any]] = {}
    for record in raw.get("benchmarks", []):
        name = record.get("fullname") or record.get("name")
        if name.startswith("benchmarks/"):
            name = name[len("benchmarks/"):]
        stats = record.get("stats", {})
        benchmarks[name] = {
            "min_s": stats.get("min"),
            "max_s": stats.get("max"),
            "mean_s": stats.get("mean"),
            "median_s": stats.get("median"),
            "stddev_s": stats.get("stddev"),
            "rounds": stats.get("rounds"),
            "iterations": stats.get("iterations"),
        }
    if not benchmarks:
        raise SimulationError(
            "pytest-benchmark recorded no benchmarks",
            code="bench.empty",
            hint="is pytest-benchmark installed and enabled?", subset=subset,
        )

    sha = git_sha(base)
    manifest = RunManifest.capture(
        "bench", wall_time_s=wall, subset=subset, git_sha=sha,
        benchmarks=len(benchmarks),
    )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": BENCH_KIND,
        "git_sha": sha,
        "subset": subset,
        "label": label,
        "created_unix": time.time(),
        "settings": {"min_rounds": min_rounds, "max_time_s": max_time_s},
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "manifest": manifest.to_dict(),
        "benchmarks": benchmarks,
        "counters": counters,
        "histograms": histograms,
        "hotspot": hotspot_doc,
    }


def write_document(document: Dict[str, Any],
                   path: Optional[Union[str, Path]] = None,
                   root: Optional[Union[str, Path]] = None) -> Path:
    """Write one BENCH document.

    Default path: ``BENCH_<label>.json`` when the document carries a
    label, else ``BENCH_<sha>.json`` — both at the repo root.
    """
    if path is None:
        path = default_bench_path(root, document.get("git_sha"),
                                  document.get("label"))
    path = Path(path).expanduser()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_document(path: Union[str, Path]) -> Dict[str, Any]:
    """Read + validate one BENCH document."""
    path = Path(path).expanduser()
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(
            f"no such BENCH file: {path}", code="bench.missing_file",
            hint="record one with 'supernpu bench run'", path=str(path),
        ) from None
    except (OSError, ValueError) as error:
        raise ConfigError(
            f"unreadable BENCH file {path}: {error}",
            code="bench.corrupt_file", path=str(path),
        ) from error
    if (not isinstance(document, dict)
            or document.get("kind") != BENCH_KIND
            or document.get("schema") not in COMPATIBLE_SCHEMAS):
        raise ConfigError(
            f"{path} is not a schema-{'/'.join(map(str, COMPATIBLE_SCHEMAS))} "
            f"BENCH document",
            code="bench.wrong_schema", path=str(path),
        )
    return document


def find_baseline(root: Optional[Union[str, Path]] = None,
                  exclude: Sequence[Union[str, Path]] = ()) -> Optional[Path]:
    """The newest committed ``BENCH_*.json`` at the repo root, if any."""
    base = repo_root(root)
    excluded = {Path(p).expanduser().resolve() for p in exclude}
    candidates: List[Tuple[float, Path]] = []
    for path in base.glob(f"{BENCH_PREFIX}*.json"):
        if path.resolve() in excluded:
            continue
        try:
            document = load_document(path)
        except ConfigError:
            continue
        candidates.append((document.get("created_unix", 0.0), path))
    if not candidates:
        return None
    return max(candidates)[1]


# -- comparison --------------------------------------------------------------

@dataclass(frozen=True)
class BenchDelta:
    """One benchmark's verdict between two recordings."""

    name: str
    base_s: Optional[float]
    new_s: Optional[float]
    ratio: Optional[float]
    verdict: str  # "regression" | "improvement" | "ok" | "added" | "missing"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "base_s": self.base_s, "new_s": self.new_s,
            "ratio": self.ratio, "verdict": self.verdict,
        }


@dataclass(frozen=True)
class BenchComparison:
    """Thresholded comparison of two BENCH documents."""

    base_sha: str
    new_sha: str
    threshold: float
    deltas: Tuple[BenchDelta, ...]

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.verdict == "regression"]

    @property
    def improvements(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.verdict == "improvement"]

    @property
    def ok(self) -> bool:
        """True when no shared benchmark regressed past the threshold."""
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base_sha": self.base_sha,
            "new_sha": self.new_sha,
            "threshold": self.threshold,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "deltas": [d.to_dict() for d in self.deltas],
        }


def _wall_s(record: Dict[str, Any]) -> Optional[float]:
    """The verdict statistic of one benchmark record (min, else mean)."""
    value = record.get("min_s")
    if value is None:
        value = record.get("mean_s")
    return value


def compare_documents(base: Dict[str, Any], new: Dict[str, Any],
                      threshold: float = 1.5) -> BenchComparison:
    """Per-benchmark verdicts: new/base wall-time ratio vs ``threshold``.

    A benchmark regresses when its ratio exceeds ``threshold`` and
    improves below ``1/threshold``; benchmarks present on only one side
    are reported as ``added`` / ``missing`` (informational — a renamed
    or new benchmark must not fail the gate).
    """
    if threshold <= 1.0:
        raise ConfigError("threshold must be > 1.0",
                          code="bench.invalid_threshold", threshold=threshold)
    base_benchmarks = base.get("benchmarks", {})
    new_benchmarks = new.get("benchmarks", {})
    deltas: List[BenchDelta] = []
    for name in sorted(set(base_benchmarks) | set(new_benchmarks)):
        old_record = base_benchmarks.get(name)
        new_record = new_benchmarks.get(name)
        if old_record is None:
            deltas.append(BenchDelta(name, None, _wall_s(new_record), None, "added"))
            continue
        if new_record is None:
            deltas.append(BenchDelta(name, _wall_s(old_record), None, None, "missing"))
            continue
        old_s, new_s = _wall_s(old_record), _wall_s(new_record)
        if not old_s or new_s is None:
            deltas.append(BenchDelta(name, old_s, new_s, None, "ok"))
            continue
        ratio = new_s / old_s
        if ratio > threshold:
            verdict = "regression"
        elif ratio < 1.0 / threshold:
            verdict = "improvement"
        else:
            verdict = "ok"
        deltas.append(BenchDelta(name, old_s, new_s, ratio, verdict))
    return BenchComparison(
        base_sha=str(base.get("git_sha", "?")),
        new_sha=str(new.get("git_sha", "?")),
        threshold=threshold,
        deltas=tuple(deltas),
    )
