"""``repro.core.chaos`` — failure injection at the task boundary.

The paper's devices fail by dropping pulses (bias-margin and timing
violations — the reason :mod:`repro.gatesim.faults` exists); the
*framework* fails by dropping workers.  This module gives the execution
layer the same treatment the gate level already has: a controlled
vocabulary of injected failures used to prove every recovery path in
:class:`repro.core.jobs.JobRunner` yields results bitwise-identical to
a clean serial run.

Failure kinds (:class:`FaultSpec`):

* ``"exception"`` — the task raises a transient :class:`ChaosFailure`;
* ``"hang"`` — the task sleeps past any sane deadline (exercises the
  per-task timeout + pool-abandon path);
* ``"sigkill"`` — the worker process SIGKILLs itself (exercises
  ``BrokenProcessPool`` recovery and degrade-to-serial).

Budgets are enforced through an on-disk attempt ledger
(:class:`ChaosInjector` claims one marker file per firing), so a fault
configured with ``times=2`` fires exactly twice *across processes and
pool restarts* and then lets the task succeed — which is what makes
"inject, recover, converge" provable.

Cache poisoning (:func:`corrupt_cache_entry`) covers the storage side:
truncated JSON, garbage bytes, wrong schema versions, and well-formed
but unmaterializable payloads.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Union

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.jobs import ResultCache

FAULT_KINDS = ("exception", "hang", "sigkill")

CORRUPTION_MODES = ("truncate", "garbage", "wrong_schema", "poisoned_payload")

#: Wildcard fault key: applies to every task, sharing one ``times`` budget.
ANY_TASK = "*"


class ChaosFailure(RuntimeError):
    """A chaos-injected transient failure (retriable by design)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure: ``kind``, fired at most ``times`` times."""

    kind: str
    times: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}",
                code="config.invalid_fault", kind=self.kind,
            )
        if self.times < 1:
            raise ConfigError("fault times must be >= 1",
                              code="config.invalid_fault", times=self.times)
        if self.hang_seconds <= 0:
            raise ConfigError("hang_seconds must be positive",
                              code="config.invalid_fault")


class ChaosInjector:
    """Fires planned faults at task boundaries, with cross-process budgets.

    ``faults`` maps a task content key (or :data:`ANY_TASK`) to a
    :class:`FaultSpec`.  The injector is picklable and travels into
    worker processes with each task; the attempt ledger lives in
    ``state_dir`` so budgets hold across workers, pool restarts, and
    the degraded serial path.

    A ``"sigkill"`` fired in the owner process (serial / degraded mode)
    is demoted to a :class:`ChaosFailure` — chaos tests the runner, not
    the test harness.
    """

    def __init__(self, state_dir: Union[str, Path],
                 faults: Mapping[str, FaultSpec]) -> None:
        self.state_dir = Path(state_dir).expanduser()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.faults: Dict[str, FaultSpec] = dict(faults)
        self.owner_pid = os.getpid()

    def _claim(self, slot: str, spec: FaultSpec) -> bool:
        """Atomically claim one of the fault's ``times`` firing slots."""
        for attempt in range(spec.times):
            marker = self.state_dir / f"{slot}.{attempt}"
            try:
                handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(handle)
            return True
        return False

    def planned_fault(self, key: str) -> Optional[FaultSpec]:
        """The spec that would apply to ``key`` (budget not consulted)."""
        return self.faults.get(key) or self.faults.get(ANY_TASK)

    def fire(self, key: str) -> None:
        """Inject the planned failure for ``key``, if budget remains."""
        spec = self.faults.get(key)
        slot = key[:32]
        if spec is None:
            spec = self.faults.get(ANY_TASK)
            slot = "any"
        if spec is None or not self._claim(slot, spec):
            return
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
            raise ChaosFailure(
                f"chaos hang ({spec.hang_seconds:g}s) on task {key[:12]}"
            )
        if spec.kind == "sigkill":
            if os.getpid() == self.owner_pid:
                raise ChaosFailure(
                    f"chaos sigkill on task {key[:12]} (demoted to an "
                    "exception in the owner process)"
                )
            os.kill(os.getpid(), signal.SIGKILL)
        raise ChaosFailure(f"chaos exception on task {key[:12]}")


def corrupt_cache_entry(cache: "ResultCache", key: str,
                        mode: str = "truncate") -> Path:
    """Damage one cache entry in place; returns the entry's path.

    Modes: ``"truncate"`` (half the JSON text), ``"garbage"`` (not JSON
    at all), ``"wrong_schema"`` (valid JSON, wrong schema version), and
    ``"poisoned_payload"`` (passes the schema check but cannot be
    materialized into a result).
    """
    if mode not in CORRUPTION_MODES:
        raise ConfigError(
            f"unknown corruption mode {mode!r}; known: {CORRUPTION_MODES}",
            code="config.invalid_fault", mode=mode,
        )
    path = cache.path_for(key)
    text = path.read_text(encoding="utf-8")
    if mode == "truncate":
        path.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
    elif mode == "garbage":
        path.write_text("\x00not json{{{", encoding="utf-8")
    elif mode == "wrong_schema":
        document = json.loads(text)
        document["schema"] = -1
        path.write_text(json.dumps(document), encoding="utf-8")
    else:  # poisoned_payload
        document = json.loads(text)
        document["payload"] = {"bogus": True}
        path.write_text(json.dumps(document), encoding="utf-8")
    return path
