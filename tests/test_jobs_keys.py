"""Content keys and the work it takes to produce and move results.

* Key equivalence: :meth:`SimTask.key` and :func:`estimate_key` splice
  memoized signature texts, and must equal the sha256 of the full
  signature document's canonical JSON — the recipe written out below as
  the reference — for random configs, CMOS baselines, libraries and
  networks, with the memos warm across examples.
* Work counts: lowering and running a plan keys each unique task once;
  a serial run without a cache encodes nothing; a cache encodes once per
  miss and decodes once per hit.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import sys
import threading
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.scalesim import CMOSNPUConfig
from repro.components import all_components
from repro.core import jobs
from repro.core.designs import supernpu
from repro.core.jobs import (
    CACHE_SCHEMA_VERSION,
    JobRunner,
    ResultCache,
    SimTask,
    _canonical_hash,
    config_signature,
    estimate_key,
    library_fingerprint,
    workload_signature,
)
from repro.core.plan import (
    ExperimentPlan,
    Grid,
    batch_axis,
    config_axis,
    execute,
    library_axis,
    lower,
    workload_axis,
)
from repro.device.cells import (
    SRCELL,
    CellLibrary,
    Technology,
    ersfq_library,
    library_for,
    rsfq_library,
)
from repro.device.process import AIST_10UM, FabricationProcess
from repro.simulator.engine import simulate
from repro.uarch.config import NPUConfig
from repro.workloads.layers import ConvLayer
from repro.workloads.models import Network, mobilenet

# -- the reference recipe ----------------------------------------------------


def reference_task_key(task: SimTask) -> str:
    library = task.resolved_library()
    return _canonical_hash({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "simulate_cmos" if task.is_cmos else "simulate",
        "config": config_signature(task.config),
        "workload": workload_signature(task.network),
        "batch": task.batch,
        "library": None if library is None else library_fingerprint(library),
    })


def reference_estimate_key(config: NPUConfig, library: CellLibrary) -> str:
    return _canonical_hash({
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "estimate",
        "config": config_signature(config),
        "library": library_fingerprint(library),
    })


# -- strategies --------------------------------------------------------------

MEMORIES = sorted(c.name for c in all_components(kind="memory"))
LINKS = sorted(c.name for c in all_components(kind="link"))

#: Few names, so equal-named designs and networks meet in the memos.
NAMES = st.sampled_from(["a", "b", "SuperNPU"])
#: Ints and floats of equal value: equal as dataclass fields, different
#: canonical JSON, so the memos must tell them apart.
BANDWIDTHS = st.one_of(st.sampled_from([300, 300.0, 150, 150.0]),
                       st.floats(1.0, 2000.0, allow_nan=False))


@st.composite
def npu_configs(draw) -> NPUConfig:
    integrated = draw(st.booleans())
    data_bits = draw(st.sampled_from([4, 8]))
    return NPUConfig(
        name=draw(NAMES),
        pe_array_width=draw(st.sampled_from([16, 64, 256])),
        pe_array_height=draw(st.sampled_from([16, 64, 256])),
        data_bits=data_bits,
        psum_bits=draw(st.integers(data_bits, 32)),
        ifmap_buffer_bytes=draw(st.integers(0, 1 << 24)),
        output_buffer_bytes=draw(st.integers(0, 1 << 24)),
        psum_buffer_bytes=0 if integrated else draw(st.integers(0, 1 << 24)),
        integrated_output_buffer=integrated,
        ifmap_division=draw(st.sampled_from([1, 16, 64])),
        output_division=draw(st.sampled_from([1, 16, 64])),
        registers_per_pe=draw(st.sampled_from([1, 2, 8])),
        memory_bandwidth_gbps=draw(BANDWIDTHS),
        memory_technology=draw(st.sampled_from(MEMORIES)),
        link_technology=draw(st.sampled_from(LINKS)),
    )


@st.composite
def cmos_configs(draw) -> CMOSNPUConfig:
    return CMOSNPUConfig(
        name=draw(NAMES),
        pe_array_width=draw(st.sampled_from([128, 256])),
        frequency_ghz=draw(st.sampled_from([0.7, 1, 1.0])),
        onchip_buffer_bytes=draw(st.integers(1, 1 << 25)),
        memory_bandwidth_gbps=draw(BANDWIDTHS),
    )


@st.composite
def libraries(draw) -> CellLibrary:
    technology = draw(st.sampled_from(list(Technology)))
    process = draw(st.sampled_from([
        AIST_10UM,
        FabricationProcess("custom", feature_size_um=0.5,
                           critical_current_density_ka_cm2=10.0, jj_area_um2=40.0),
        dataclasses.replace(AIST_10UM, jj_area_um2=AIST_10UM.jj_area_um2 * 2),
    ]))
    kind = draw(st.sampled_from(["shared", "fresh", "custom-cells"]))
    if kind == "shared":
        return library_for(technology, process)
    if kind == "fresh":
        return rsfq_library(process) if technology is Technology.RSFQ \
            else ersfq_library(process)
    base = rsfq_library(process)
    cells = {name: base[name] for name in base.names}
    cells[SRCELL] = dataclasses.replace(cells[SRCELL], delay_ps=draw(st.sampled_from([3.3, 4])))
    return CellLibrary(technology, process, cells)


@st.composite
def networks(draw) -> Network:
    layers = []
    for index in range(draw(st.integers(1, 3))):
        layers.append(ConvLayer(
            f"l{index}",
            in_channels=draw(st.integers(1, 64)),
            in_height=draw(st.integers(4, 32)),
            in_width=draw(st.integers(4, 32)),
            out_channels=draw(st.integers(1, 64)),
            kernel_height=draw(st.integers(1, 3)),
            kernel_width=draw(st.integers(1, 3)),
            stride=draw(st.sampled_from([1, 2, 2.0])),
            padding=draw(st.integers(0, 1)),
        ))
    return Network(draw(NAMES), tuple(layers))


KEY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# -- key equivalence ---------------------------------------------------------

@given(npu_configs(), networks(), st.integers(1, 64), st.none() | libraries())
@KEY_SETTINGS
def test_sfq_task_key_equals_reference(config, network, batch, library):
    task = SimTask(config, network, batch, library)
    assert task.key() == reference_task_key(task)
    # Equal-valued copies hit the by-value memo and still agree.
    copy = SimTask(dataclasses.replace(config), Network(network.name, network.layers),
                   batch, library)
    assert copy.key() == task.key()


@given(cmos_configs(), networks(), st.integers(1, 64), st.none() | libraries())
@KEY_SETTINGS
def test_cmos_task_key_equals_reference(config, network, batch, library):
    task = SimTask(config, network, batch, library)
    assert task.resolved_library() is None
    assert task.key() == reference_task_key(task)


@given(npu_configs(), libraries())
@KEY_SETTINGS
def test_estimate_key_equals_reference(config, library):
    assert estimate_key(config, library) == reference_estimate_key(config, library)


def test_int_and_float_fields_key_apart():
    """Equal dataclass values whose JSON differs must not share a key."""
    as_int = supernpu().with_updates(memory_bandwidth_gbps=300)
    as_float = supernpu().with_updates(memory_bandwidth_gbps=300.0)
    assert as_int == as_float
    library = library_for(Technology.RSFQ)
    assert estimate_key(as_int, library) == reference_estimate_key(as_int, library)
    assert estimate_key(as_float, library) == reference_estimate_key(as_float, library)
    assert estimate_key(as_int, library) != estimate_key(as_float, library)


def test_editing_one_layer_changes_the_key(tiny_network):
    first = tiny_network.layers[0]
    widened = dataclasses.replace(first, out_channels=first.out_channels + 1)
    edited = Network(tiny_network.name, (widened,) + tiny_network.layers[1:])
    before = SimTask(supernpu(), tiny_network, 4)
    after = SimTask(supernpu(), edited, 4)
    assert after.network.name == before.network.name
    assert before.key() == reference_task_key(before)
    assert after.key() == reference_task_key(after)
    assert after.key() != before.key()


def test_value_memo_key_ignores_derived_layer_geometry():
    """Reading a layer's cached geometry does not change its value-memo key."""
    layer = mobilenet().layers[0]
    before = jobs._field_types(layer)
    assert len(before) == len(dataclasses.fields(layer))
    names = [name for name, attr in vars(ConvLayer).items()
             if isinstance(attr, (property, functools.cached_property))]
    assert {"output_pixels", "reduction_size", "ofmap_bytes"} <= set(names)
    for name in names:
        getattr(layer, name)
    assert jobs._field_types(layer) == before


def test_equal_network_hits_value_memo_after_simulation(tiny_network):
    """A separately built equal network reuses the rendering made after a run."""
    first = Network("memo-probe", tiny_network.layers)
    simulate(supernpu(), first)
    text = jobs._workload_text(first)
    rebuilt = Network("memo-probe", tuple(
        dataclasses.replace(layer) for layer in tiny_network.layers))
    assert rebuilt == first and rebuilt is not first
    signature = Counter(jobs._workload_text._signature)
    with mock.patch.object(jobs._workload_text, "_signature", signature):
        assert jobs._workload_text(rebuilt) == text
    assert signature.calls == 0


# -- work counts ---------------------------------------------------------------

class Counter:
    """Wraps a function, counting its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def counts(monkeypatch):
    """Call counters on the keying and codec functions of ``repro.core.jobs``."""
    counters = {}
    key = Counter(SimTask.key)
    monkeypatch.setattr(SimTask, "key", lambda task: key(task))
    counters["key"] = key
    for name in ("result_to_dict", "result_from_dict", "estimate_to_dict",
                 "estimate_from_dict"):
        counters[name] = Counter(getattr(jobs, name))
        monkeypatch.setattr(jobs, name, counters[name])
    return counters


def _duplicated_plan(tiny_network, rsfq):
    """Two grids over the same axis objects: 4 points, 2 unique tasks, 1 estimate."""
    config = supernpu()
    configs, workloads = config_axis((config,)), workload_axis((tiny_network,))
    libraries_ = library_axis((rsfq,))
    return ExperimentPlan("dup", (
        Grid("a", (configs, workloads, batch_axis((1, 2)), libraries_)),
        Grid("b", (configs, workloads, batch_axis((1, 2)), libraries_)),
        Grid("e", (configs, libraries_), kind="estimate"),
    ))


def test_plan_keys_each_unique_task_once(tiny_network, rsfq, counts):
    plan = _duplicated_plan(tiny_network, rsfq)
    unique = len(lower(plan).sim_tasks())
    assert unique == 2
    assert counts["key"].calls == unique
    execute(plan, runner=JobRunner())
    assert counts["key"].calls == 2 * unique  # one lowering inside execute


def test_serial_run_without_cache_encodes_nothing(tiny_network, rsfq, counts):
    results = execute(_duplicated_plan(tiny_network, rsfq), runner=JobRunner())
    assert results.points_executed == 3
    for name in ("result_to_dict", "result_from_dict", "estimate_to_dict",
                 "estimate_from_dict"):
        assert counts[name].calls == 0, name


def test_cache_encodes_per_miss_and_decodes_per_hit(tiny_network, rsfq, counts, tmp_path):
    plan = _duplicated_plan(tiny_network, rsfq)
    cold = execute(plan, runner=JobRunner(cache=ResultCache(tmp_path)))
    assert (cold.points_cached, cold.points_executed) == (0, 3)
    assert counts["result_to_dict"].calls == 2 and counts["estimate_to_dict"].calls == 1
    assert counts["result_from_dict"].calls == 0 and counts["estimate_from_dict"].calls == 0

    warm = execute(plan, runner=JobRunner(cache=ResultCache(tmp_path)))
    assert (warm.points_cached, warm.points_executed) == (3, 0)
    assert counts["result_to_dict"].calls == 2 and counts["estimate_to_dict"].calls == 1
    assert counts["result_from_dict"].calls == 2 and counts["estimate_from_dict"].calls == 1
    assert [r.result for r in warm] == [r.result for r in cold]


def test_signature_memo_survives_threads():
    """Threads keying at once (``repro.api`` called from user threads) evict safely and agree."""
    memo = jobs._SignatureText(config_signature, lambda config: (config, type(config)), size=4)
    configs = [supernpu().with_updates(name=f"n{index}") for index in range(16)]
    expected = [jobs._canonical_json(config_signature(config)) for config in configs]
    errors = []

    def work():
        try:
            for round_ in range(300):
                for index in range(round_ % 3, len(configs), 3):
                    # A fresh equal copy misses by identity and churns both tables.
                    assert memo(dataclasses.replace(configs[index])) == expected[index]
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_signature_memo_keeps_no_dead_objects():
    """Identity entries die with their objects, so sweeps do not pile up memory."""
    memo = jobs._SignatureText(config_signature)
    config = supernpu().with_updates(name="transient")
    text = memo(config)
    assert memo(config) is text
    alive = weakref.ref(config)
    del config
    gc.collect()
    assert alive() is None
    assert memo._by_id == {}
