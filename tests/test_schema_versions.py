"""Every versioned document surface, pinned against the live program.

Seven surfaces carry a version constant that a peer, a cache entry or a
workload file is checked against. A surface whose shape changes under
an unchanged constant is read wrong instead of refused, so each
surface's shape is pinned here beside the constant's value:

* the five dataclass surfaces — the config, :class:`RunOptions`,
  :class:`JobSpec`, the workload tree and the stored
  :class:`SimulationResult` (down to its extension snapshots' table
  summaries) — are their ``dataclasses.fields()`` and resolved
  annotations, recursing into nested dataclasses (``gpu.l1_assoc``)
  and through tuples and lists of them (``tenants[].phases[]``). An
  enum is spelled with its member values. A field typed as another
  surface's root is spelled by name only, so a ``GPUConfig`` change
  asks for a ``JOB_SCHEMA_VERSION`` bump and not a cache bump;
* the two hand-written documents — the wire hello and the HTTP job —
  are the keys their encoders emit, with the JSON type of each value.

``PINS`` is append-only, one row per ``(surface, version)``. A changed
shape fails :func:`test_the_live_shape_is_pinned_under_the_live_version`
until the constant is bumped and a row for the new value added; a row
is never edited in place (CI's lint job refuses a commit that changes
this table without changing a ``*_VERSION`` constant).

The hand-written encoder/decoder pairs are also held to each other:
the maximal jobs below set every field away from its default, at every
level, so a field added later rides the job document's and the workload
document's round trips without an edit, and a hello missing a key is
refused. (The hello's own round trip is ``tests/test_distributed.py``'s;
the job document's refusal of an unknown key in any of its objects is
``tests/test_service.py``'s.)
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import sys
import typing
from pathlib import Path

import pytest

from repro.config import DRAM_MODELS, LinebackerConfig, SimulationConfig
from repro.engine.base import backend_names
from repro.gpu.gpu import SimulationResult
from repro.options import RunOptions
from repro.runner import cache, wire
from repro.runner.registry import resolve
from repro.runner.spec import JobSpec
from repro.service import schema
from repro.workloads import spec as workload_spec
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec

sys.path.insert(0, str(Path(__file__).parent))
from document_helpers import unwrap  # noqa: E402
from workload_helpers import make_app  # noqa: E402

# -- pins: begin (append-only; a new row goes with a *_VERSION bump) --------
PINS = {
    ("wire-hello", 1): (
        "pid: int",
        "proto: int",
        "type: str",
        "v: int",
    ),
    ("http-job", 3): (
        "app: str",
        "arch: str",
        "config: dict",
        "options: dict",
        "overrides: dict",
        "scale: float",
        "schema: int",
        "workload: dict",
    ),
    ("config", 3): (
        "gpu: GPUConfig",
        "gpu.alu_latency: int",
        "gpu.clock_mhz: float",
        "gpu.dram_bandwidth_gbps: float",
        "gpu.dram_banks_per_channel: int",
        "gpu.dram_channels: int",
        "gpu.dram_latency: int",
        "gpu.dram_model: str",
        "gpu.issue_width: int",
        "gpu.l1_assoc: int",
        "gpu.l1_hit_latency: int",
        "gpu.l1_line_bytes: int",
        "gpu.l1_mshrs: int",
        "gpu.l1_size_bytes: int",
        "gpu.l2_assoc: int",
        "gpu.l2_latency: int",
        "gpu.l2_lines_per_cycle: float",
        "gpu.l2_size_bytes: int",
        "gpu.max_ctas_per_sm: int",
        "gpu.max_outstanding_loads: int",
        "gpu.max_threads_per_sm: int",
        "gpu.max_warps_per_sm: int",
        "gpu.noc_crossbar_lines_per_cycle: float",
        "gpu.noc_enable: bool",
        "gpu.noc_injection_interval: float",
        "gpu.noc_latency: int",
        "gpu.num_schedulers: int",
        "gpu.num_sms: int",
        "gpu.register_bank_ports: int",
        "gpu.register_banks: int",
        "gpu.register_file_bytes: int",
        "gpu.shared_memory_bytes: int",
        "gpu.simd_width: int",
        "linebacker: LinebackerConfig",
        "linebacker.backup_buffer_entries: int",
        "linebacker.enable_selective: bool",
        "linebacker.enable_throttling: bool",
        "linebacker.enable_victim_cache: bool",
        "linebacker.hit_ratio_threshold: float",
        "linebacker.hpc_bits: int",
        "linebacker.ipc_lower_bound: float",
        "linebacker.ipc_upper_bound: float",
        "linebacker.lm_entries: int",
        "linebacker.max_vtt_partitions: int",
        "linebacker.min_accesses: int",
        "linebacker.register_offset: int",
        "linebacker.vp_access_latency: int",
        "linebacker.vp_granularity_bytes: int",
        "linebacker.vtt_ways: int",
        "linebacker.window_cycles: int",
        "max_cycles: int",
        "seed: int",
    ),
    ("run-options", 3): (
        "backend: str | None",
        "keep_objects: bool",
        "max_concurrent_ctas: int | None",
        "timeseries: bool",
        "track_loads: bool",
    ),
    ("jobspec", 5): (
        "app: str",
        "arch: str",
        "config: SimulationConfig",
        "params: tuple[tuple[str, Any], ...]",
        "scale: float",
        "workload: WorkloadSpec | None",
    ),
    ("workload-spec", 1): (
        "description: str",
        "name: str",
        "num_ctas: int",
        "regs_per_thread: int",
        "shared_mem_per_cta: int",
        "tenants: tuple[TenantSpec, ...]",
        "tenants[].name: str",
        "tenants[].phases: tuple[KernelPhase, ...]",
        "tenants[].phases[].alu_per_iteration: int",
        "tenants[].phases[].iterations: int",
        "tenants[].phases[].loads: tuple[LoadSpec, ...]",
        "tenants[].phases[].loads[].lines_per_access: int",
        "tenants[].phases[].loads[].pattern: Pattern(divergent|reuse|stream)",
        "tenants[].phases[].loads[].pc: int",
        "tenants[].phases[].loads[].reuse_burst: int",
        "tenants[].phases[].loads[].scope: Scope(cta|global|warp)",
        "tenants[].phases[].loads[].stride: int",
        "tenants[].phases[].loads[].weight: int",
        "tenants[].phases[].loads[].working_set_lines: int",
        "tenants[].phases[].stores: tuple[StoreSpec, ...]",
        "tenants[].phases[].stores[].every_iterations: int",
        "tenants[].phases[].stores[].pc: int",
        "warps_per_cta: int",
    ),
    ("jobspec", 6): (
        "app: str",
        "arch: str",
        "config: SimulationConfig",
        "params: tuple[tuple[str, Any], ...]",
        "scale: float",
        "workload: WorkloadSpec | None",
    ),
    ("result", 6): (
        "cycles: int",
        "dram_reads: int",
        "dram_writes: int",
        "extensions: list[ExtensionSnapshot]",
        "extensions[].kind: str",
        "extensions[].load_monitor: MonitorSummary | None",
        "extensions[].load_monitor.hits: int",
        "extensions[].load_monitor.misses: int",
        "extensions[].load_monitor.selected_hpcs: frozenset[int]",
        "extensions[].load_monitor.state: MonitorState(disabled|monitoring|selected)",
        "extensions[].load_monitor.windows_elapsed: int",
        "extensions[].stats: object | None",
        "extensions[].vtt: VTTSummary | None",
        "extensions[].vtt.active_capacity_lines: int",
        "extensions[].vtt.active_partitions: int",
        "extensions[].vtt.partitions: int",
        "extensions[].vtt.stats: VTTStats",
        "extensions[].vtt.stats.hits: int",
        "extensions[].vtt.stats.inserts: int",
        "extensions[].vtt.stats.lookups: int",
        "extensions[].vtt.stats.partition_activations: int",
        "extensions[].vtt.stats.partition_deactivations: int",
        "extensions[].vtt.stats.store_invalidations: int",
        "extensions[].vtt.valid_lines: int",
        "kernel_name: str",
        "l1_stats: list[CacheStats]",
        "l1_stats[].capacity_conflict_misses: int",
        "l1_stats[].cold_misses: int",
        "l1_stats[].evictions: int",
        "l1_stats[].hits: int",
        "l1_stats[].misses: int",
        "l1_stats[].write_hits: int",
        "l1_stats[].write_misses: int",
        "rf_stats: list[RegisterFileStats]",
        "rf_stats[].bank_conflicts: int",
        "rf_stats[].reads: int",
        "rf_stats[].writes: int",
        "sm_stats: list[SMStats]",
        "sm_stats[].bypasses: int",
        "sm_stats[].cycles: int",
        "sm_stats[].instructions: int",
        "sm_stats[].l1_hits: int",
        "sm_stats[].l1_misses: int",
        "sm_stats[].loads: int",
        "sm_stats[].mem_requests: int",
        "sm_stats[].stores: int",
        "sm_stats[].victim_hits: int",
        "sms: list[SMSnapshot]",
        "sms[].done: bool",
        "sms[].l1: L1Snapshot",
        "sms[].l1.assoc: int",
        "sms[].l1.num_sets: int",
        "sms[].l1.size_bytes: int",
        "sms[].load_tracker: LoadTracker | None",
        "sms[].sm_id: int",
        "sms[].timeseries: WindowSeries | None",
        "traffic: TrafficStats",
        "traffic.backup_write_lines: int",
        "traffic.demand_read_lines: int",
        "traffic.restore_read_lines: int",
        "traffic.store_write_lines: int",
    ),
}
# -- pins: end --------------------------------------------------------------


# ---------------------------------------------------------------------------
# Deriving a surface's shape from the live program
# ---------------------------------------------------------------------------
#: The dataclass at the root of each dataclass surface.
ROOTS = {
    "config": SimulationConfig,
    "run-options": RunOptions,
    "jobspec": JobSpec,
    "workload-spec": workload_spec.WorkloadSpec,
    "result": SimulationResult,
}


def spell(hint) -> str:
    """One annotation as a pinned type string."""
    inner, optional = unwrap(hint)
    if optional:
        return f"{spell(inner)} | None"
    if inner is Ellipsis:
        return "..."
    if typing.get_origin(inner) is not None:
        args = ", ".join(spell(arg) for arg in typing.get_args(inner))
        return f"{typing.get_origin(inner).__name__}[{args}]"
    if isinstance(inner, type) and issubclass(inner, enum.Enum):
        return f"{inner.__name__}({'|'.join(sorted(str(m.value) for m in inner))})"
    return getattr(inner, "__name__", str(inner).replace("typing.", ""))


def dataclass_shape(cls, path: str = "") -> list[str]:
    """``"path: type"`` for every field of ``cls``, recursing into
    nested dataclasses and tuples or lists of them, but not into
    another surface's root."""
    out = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        where = f"{path}{f.name}"
        out.append(f"{where}: {spell(hints[f.name])}")
        inner, _ = unwrap(hints[f.name])
        if typing.get_origin(inner) in (tuple, list):
            inner, where = typing.get_args(inner)[0], f"{where}[]"
        if dataclasses.is_dataclass(inner) and inner not in ROOTS.values():
            out += dataclass_shape(inner, f"{where}.")
    return sorted(out, key=lambda entry: entry.split(": ")[0])


def document_shape(docs) -> list[str]:
    """``"key: JSON type"`` for every key any of ``docs`` carries."""
    return sorted({f"{k}: {type(v).__name__}" for doc in docs for k, v in doc.items()})


def live(surface: str) -> tuple[int, list[str]]:
    """``(version constant's value, shape)`` of one surface today."""
    if surface == "wire-hello":
        return wire.PROTOCOL_VERSION, document_shape([json.loads(wire.encode_hello())])
    if surface == "http-job":
        docs = [schema.encode_jobspec(spec) for spec in maximal_specs()]
        return schema.JOB_SCHEMA_VERSION, document_shape(docs)
    version = {
        "config": schema.JOB_SCHEMA_VERSION,
        "run-options": schema.JOB_SCHEMA_VERSION,
        "jobspec": cache.CACHE_SCHEMA_VERSION,
        "workload-spec": workload_spec.WORKLOAD_SPEC_VERSION,
        "result": cache.CACHE_SCHEMA_VERSION,
    }[surface]
    return version, dataclass_shape(ROOTS[surface])


SURFACES = ("wire-hello", "http-job", *ROOTS)


# ---------------------------------------------------------------------------
# Maximal jobs: every field away from its default, at every level
# ---------------------------------------------------------------------------
#: String fields that take one of a few names, and those names.
CHOICES = {"dram_model": DRAM_MODELS, "backend": backend_names()}


def moved(value, hint=None, name: str = ""):
    """``value`` with every field, at every level, moved off its value
    (a tuple's elements each moved, an enum to another member)."""
    if dataclasses.is_dataclass(value):
        hints = typing.get_type_hints(type(value))
        return dataclasses.replace(value, **{
            f.name: moved(getattr(value, f.name), hints[f.name], f.name)
            for f in dataclasses.fields(value)
        })
    inner, _ = unwrap(hint)
    if isinstance(value, tuple):
        return tuple(moved(item, typing.get_args(inner)[0], name) for item in value)
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if inner is bool:
        return not value
    if name in CHOICES:
        return next(choice for choice in CHOICES[name] if choice != value)
    if inner is str:
        return f"{value}x"
    return (value or 0) + (1 if inner is int else 0.5)


def moved_options(arch: str) -> RunOptions:
    """Every :class:`RunOptions` field moved, except those ``arch``
    refuses for a job."""
    hints = typing.get_type_hints(RunOptions)
    values = {f.name: moved(f.default, hints[f.name], f.name)
              for f in dataclasses.fields(RunOptions)}
    row = resolve(arch)
    return RunOptions(**{name: value for name, value in values.items()
                         if row.refuses(name, value) is None})


@functools.cache
def maximal_specs() -> tuple[JobSpec, ...]:
    """Two jobs between them carrying every :class:`JobSpec` field off
    its default, every option a job may take, an ``lb_config`` override
    and a scalar one (no architecture takes both kinds of parameter)."""
    loads = (LoadSpec(0x100, Pattern.REUSE, 8, Scope.CTA), LoadSpec(0x204, Pattern.STREAM, 4))
    workload = moved(make_app(loads, iters=4, name="maximal", stores=(StoreSpec(0x510),)))
    config = moved(SimulationConfig())
    common = dict(app=workload.name, config=config, scale=moved(1.0, float),
                  workload=workload)
    return (
        JobSpec.build(arch="linebacker", options=moved_options("linebacker"),
                      overrides={"lb_config": moved(LinebackerConfig())}, **common),
        JobSpec.build(arch="best_swl_cache_ext", overrides={"cta_limit": 3},
                      options=moved_options("best_swl_cache_ext"), **common),
    )


# ---------------------------------------------------------------------------
# The version pins
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("surface", SURFACES)
def test_the_live_shape_is_pinned_under_the_live_version(surface):
    version, shape = live(surface)
    assert (surface, version) in PINS, (
        f"no pinned row for {surface} at version {version}; a new version "
        f"gets a new row:\n{json.dumps(shape, indent=2)}"
    )
    assert list(PINS[surface, version]) == shape, (
        f"{surface} changed shape under version {version}: bump its "
        "version constant and add a row, never edit a pinned one"
    )


# ---------------------------------------------------------------------------
# The maximal jobs really are maximal
# ---------------------------------------------------------------------------
def test_every_field_of_the_maximal_jobs_is_off_its_default():
    specs = maximal_specs()
    for f in dataclasses.fields(JobSpec):
        if f.default is not dataclasses.MISSING:
            assert all(getattr(spec, f.name) != f.default for spec in specs), f.name
    carried = {name for spec in specs for name in spec.options.to_overrides()}
    # Live objects never cross the cache or the wire: the one option a
    # job refuses.
    assert {f.name for f in dataclasses.fields(RunOptions)} - carried == {"keep_objects"}


# ---------------------------------------------------------------------------
# The HTTP job document: encode_jobspec / decode_jobspec
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("index", [0, 1], ids=["lb_config", "scalar"])
def test_the_job_document_round_trips_spec_and_key(index):
    spec = maximal_specs()[index]
    doc = json.loads(json.dumps(schema.encode_jobspec(spec)))
    back = schema.decode_jobspec(doc)
    assert back == spec
    assert back.key == spec.key


def test_every_jobspec_field_rides_the_job_document():
    keys = {key for spec in maximal_specs() for key in schema.encode_jobspec(spec)}
    rides_as = {"params": {"options", "overrides"}}
    assert all(rides_as.get(f.name, {f.name}) <= keys for f in dataclasses.fields(JobSpec))


def test_the_decoder_accepts_exactly_the_keys_the_encoder_emits():
    # A key accepted but never emitted is one HTTP takes and ignores.
    keys = {key for spec in maximal_specs() for key in schema.encode_jobspec(spec)}
    assert schema.JOB_FIELDS == keys


# ---------------------------------------------------------------------------
# The workload document: encode_workload / decode_workload
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("via", ["document", "file"])
def test_the_workload_document_round_trips_spec_and_hash(via, tmp_path):
    # The maximal workload moves every field of the workload tree, so a
    # field the codec drops or mistypes changes the spec or its hash.
    spec = maximal_specs()[0].workload
    if via == "file":
        back = workload_spec.load_workload_file(
            workload_spec.save_workload_file(spec, tmp_path / "maximal.json"))
    else:
        back = workload_spec.decode_workload(
            json.loads(json.dumps(workload_spec.encode_workload(spec))))
    assert back == spec
    assert workload_spec.workload_hash(back) == workload_spec.workload_hash(spec)


# ---------------------------------------------------------------------------
# The wire hello: encode_hello / decode_hello
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", ["pid", "type", "v"])
def test_a_hello_missing_a_key_is_refused(key):
    # ``proto`` alone may be absent: a hello from before it existed is
    # read by its envelope ``v``.
    msg = json.loads(wire.encode_hello())
    del msg[key]
    with pytest.raises(wire.WireError):
        wire.decode_hello(json.dumps(msg))
