"""The machine (``repro.engine``) and its oracle (``tests/reference_engine``).

Eight contracts:

* **Registry**: ``vector`` is the one engine registered at import; a
  test registers the reference as ``"object"`` around itself and it is
  gone afterwards; unknown names and duplicates are refused.
* **Selection** (what is left of it): with no backend named every
  request — any option, any registry row, any leg of a sweep — runs on
  the machine, silently, whatever else is registered, and without
  moving any cache key.
* **Golden differential**: the machine is bit-identical to the
  reference — every reported statistic — across the extension-free
  architectures, a pinned app matrix, the committed fuzz-corpus specs,
  and every executor path (inline, loopback).
* **Hooked differential**: the nine extension rows give one answer on
  both — the full golden fingerprint, every per-SM statistic and a deep
  comparison of every ``ExtensionSnapshot`` — at 2 SMs and on a 4-SM
  workload that throttles, backs up and restores on several SMs at
  once; and so do the five options the machine hosts last: load
  tracking, timeseries rows, live objects, the timing DRAM model and
  the NoC. Both call ``on_tick`` on the same grid: the first tick at
  or past each multiple of the extension's period.
* **Stall replays**: the live per-SM MSHR-stall replay counts, which
  no result carries, equal the oracle's — Table-2 apps, the
  MSHR-exhaustion kernels, throttling and refused fills.
* **Scan lists**: each scheduler's list is exactly its READY warps in
  age order at every tick, under Linebacker's throttling and the probe's.
* **No fallback**: no request warns, pinned or not; an unregistered
  name raises.
* **Cache identity**: ``backend`` participates in job content hashes
  when set and stays hash-neutral when unset, across the in-process
  spec builder and the HTTP job schema (v3 validation included).
"""

from __future__ import annotations

import dataclasses
import functools
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines.swl import BestSWLResult
from repro.config import scaled_config
from repro.core.linebacker import LinebackerExtension
from repro.engine import (
    BACKENDS,
    BackendError,
    EngineBackend,
    EngineRequest,
    backend_names,
    dispatch,
    register_backend,
    resolve_backend,
)
from repro.engine.vector.machine import _L1, _READY, VectorSM, WarpView
from repro.gpu.cta import CTA
from repro.gpu.extension import CAPABILITY_FLAGS, EV_CALLBACK, SMExtension
from repro.gpu.gpu import run_kernel
from repro.gpu.isa import Instruction, alu
from repro.gpu.snapshot import ExtensionSnapshot
from repro.gpu.stats import LoadBehavior, SMStats
from repro.gpu.trace import from_instruction_lists
from repro.memory.cache import CacheLine, CacheStats
from repro.memory.subsystem import MemorySubsystem
from repro.options import RunOptions
from repro.runner import ExperimentRunner, JobSpec, ResultCache
from repro.runner.registry import ARCHITECTURES, resolve
from repro.service.schema import (
    JOB_SCHEMA_VERSION,
    SchemaError,
    decode_jobspec,
    encode_jobspec,
)
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec
from repro.workloads.spec import (
    KernelPhase,
    TenantSpec,
    WorkloadSpec,
    build_workload,
    load_workload_file,
    validate_workload,
)
from repro.workloads.suite import kernel_for

sys.path.insert(0, str(Path(__file__).parent))
import reference_engine  # noqa: E402
from golden import GOLDEN_SCALE, GOLDEN_SMS, result_fingerprint  # noqa: E402
from workload_helpers import MSHR_EXHAUSTION, mshr_exhaustion  # noqa: E402

CORPUS = Path(__file__).parent / "fuzz_corpus"

#: The pinned golden matrix: extension-free archs x apps with distinct
#: memory behaviour (streaming, reuse-heavy, divergent, mixed).
GOLDEN_ARCHS = ("baseline", "best_swl", "cache_ext")
GOLDEN_APPS = ("S2", "LI", "BG")
SCALE = 0.05
SMS = 2


@pytest.fixture
def reference():
    """The oracle, registered as ``"object"`` for one test."""
    with reference_engine.registered() as backend:
        yield backend


def fingerprint(result) -> dict:
    """Every reported statistic of a simulation result."""
    stats = result.sm_stats
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "loads": sum(s.loads for s in stats),
        "stores": sum(s.stores for s in stats),
        "l1_hits": sum(s.l1_hits for s in stats),
        "l1_misses": sum(s.l1_misses for s in stats),
        "victim_hits": sum(s.victim_hits for s in stats),
        "bypasses": sum(s.bypasses for s in stats),
        "mem_requests": sum(s.mem_requests for s in stats),
        "dram_reads": result.dram_reads,
        "dram_writes": result.dram_writes,
        "per_sm_instructions": [s.instructions for s in stats],
    }


def arch_fingerprint(result) -> dict:
    """Fingerprint for either return shape (result | Best-SWL sweep)."""
    if isinstance(result, BestSWLResult):
        fp = fingerprint(result.best_result)
        fp["best_limit"] = result.best_limit
        fp["sweep_ipc"] = result.sweep_ipc
        return fp
    return fingerprint(result)


def run_arch(arch: str, kernel, backend=None, sms=SMS):
    config = scaled_config(num_sms=sms)
    return resolve(arch).runner(config, kernel, backend=backend)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_are_registered(self):
        assert backend_names() == ("vector",)
        assert isinstance(BACKENDS["vector"], EngineBackend)
        assert BACKENDS["vector"].name == "vector"
        # A test-side registration lasts as long as its ``with``.
        with reference_engine.registered() as oracle:
            assert backend_names() == ("object", "vector")
            assert isinstance(oracle, EngineBackend) and BACKENDS["object"] is oracle
        assert backend_names() == ("vector",)

    def test_explicit_names_resolve(self, reference):
        assert resolve_backend("object") is reference
        assert resolve_backend("vector").name == "vector"

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(BackendError, match="known: vector"):
            resolve_backend("cuda")
        with pytest.raises(BackendError, match="unknown backend 'object'"):
            resolve_backend("object")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend(BACKENDS["vector"])


# ---------------------------------------------------------------------------
# Selection: backend=None is the machine, whatever the request
# ---------------------------------------------------------------------------
class _Counting:
    """A registered backend that counts the jobs it is handed and runs
    them (or, given ``canned``, answers every one with it)."""

    def __init__(self, inner, canned=None):
        self.inner, self.name, self.runs, self.canned = inner, inner.name, 0, canned

    def run(self, request):
        self.runs += 1
        return self.canned or self.inner.run(request)


def _request(gpu=None, **knobs) -> EngineRequest:
    config = scaled_config(num_sms=1)
    if gpu:
        config = replace(config, gpu=replace(config.gpu, **gpu))
    return EngineRequest(config=config, kernel=kernel_for("S2", SCALE), **knobs)


@pytest.fixture(scope="module")
def canned():
    return dispatch(None, _request())


def _count_all(monkeypatch, canned=None) -> dict:
    for name in backend_names():
        monkeypatch.setitem(BACKENDS, name, _Counting(BACKENDS[name], canned))
    return BACKENDS


@pytest.mark.usefixtures("reference")
class TestSelection:
    #: ``_request`` knobs; the last five each pinned the reference
    #: engine once.
    TABLE = {
        "plain": {},
        "cta_limit": {"max_concurrent_ctas": 2},
        "extension": {"extension_factory": SMExtension},
        "track_loads": {"track_loads": True},
        "keep_objects": {"keep_objects": True},
        "timeseries": {"timeseries": True},
        "timing_dram": {"gpu": {"dram_model": "timing"}},
        "noc": {"gpu": {"noc_enable": True}},
    }

    @pytest.mark.parametrize("case", sorted(TABLE))
    def test_request_selects_engine(self, case, canned, monkeypatch):
        engines = _count_all(monkeypatch, canned)
        dispatch(None, _request(**self.TABLE[case]))
        assert {n: b.runs for n, b in engines.items()} == {"object": 0, "vector": 1}

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_every_bare_registry_row_selects_vector(self, arch, canned, monkeypatch):
        # Through the row's own runner, so every leg of a sweep counts;
        # a derived row cannot run without its parameters.
        engines = _count_all(monkeypatch, canned)
        row = resolve(arch)
        params = dict.fromkeys(row.params, 2) if row.legs else {}
        row.runner(scaled_config(num_sms=1), kernel_for("S2", SCALE), **params)
        assert engines["vector"].runs >= 1 and engines["object"].runs == 0

    @pytest.mark.parametrize("case", ["plain", "timeseries"])
    def test_unpinned_dispatch_runs_the_selected_engine_silently(
        self, case, monkeypatch
    ):
        engines = _count_all(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any category
            dispatch(None, _request(**self.TABLE[case]))
        assert {n: b.runs for n, b in engines.items()} == {"object": 0, "vector": 1}

    def test_unpinned_key_is_the_parent_commits(self):
        # Computed at 314abe9, before selection existed: choosing the
        # engine must not move the identity of an unpinned job.
        spec = JobSpec.build(
            app="S2", arch="baseline", config=scaled_config(), scale=SCALE
        )
        assert spec.key == (
            "f3ac9671dbd5b935ea35e4db75371ad5f47dc33e8659105ba93e76836bac76a0"
        )

    def test_object_written_cache_entry_equals_a_fresh_default_run(self, tmp_path):
        def spec(backend):
            return JobSpec.build(
                app="S2", arch="baseline", config=scaled_config(num_sms=SMS),
                scale=SCALE, options=RunOptions(backend=backend),
            )

        def runner():
            return ExperimentRunner(
                cache=ResultCache(tmp_path), use_cache=True, executor="inline"
            )

        runner().run(spec("object"))
        warm = runner()
        stored = warm.run(spec("object"))
        assert warm.stats.cache_hits == 1 and warm.stats.simulated == 0
        fresh = ExperimentRunner(use_cache=False, executor="inline").run(spec(None))
        assert fingerprint(stored) == fingerprint(fresh)


# ---------------------------------------------------------------------------
# Golden differential: machine == reference, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("reference")
class TestGoldenDifferential:
    @pytest.mark.parametrize("arch", GOLDEN_ARCHS)
    @pytest.mark.parametrize("app", GOLDEN_APPS)
    def test_vector_matches_object(self, arch, app):
        kernel = kernel_for(app, SCALE)
        obj = arch_fingerprint(run_arch(arch, kernel, backend="object"))
        vec = arch_fingerprint(run_arch(arch, kernel, backend="vector"))
        assert vec == obj

    @pytest.mark.parametrize(
        "corpus_file", sorted(p.name for p in CORPUS.glob("*.json"))
    )
    def test_vector_matches_object_on_fuzz_corpus(self, corpus_file):
        spec = load_workload_file(CORPUS / corpus_file)
        kernel = build_workload(spec, scale=1.0)
        obj = fingerprint(run_arch("baseline", kernel, "object", sms=1))
        vec = fingerprint(run_arch("baseline", kernel, "vector", sms=1))
        assert vec == obj

    def test_corpus_is_present(self):
        # The parametrization above must never silently become empty.
        assert len(list(CORPUS.glob("*.json"))) >= 3


# ---------------------------------------------------------------------------
# Hooked differential: nine rows and five options, machine and
# reference, one answer
# ---------------------------------------------------------------------------
HOOKED_ARCHS = tuple(
    sorted(name for name, row in ARCHITECTURES.items() if row.extension is not None)
)


def throttle_workload() -> WorkloadSpec:
    """A CTA-scoped reuse load just past the L1 plus a stream: under
    ``scaled_config(num_sms=4, window_cycles=800)`` Linebacker selects
    the reuse load, throttles and — as the 48 CTAs turn over — restores
    on three SMs at once (six backup/restore round trips), so register
    backup traffic from different SMs interleaves in the shared DRAM."""
    phase = KernelPhase(
        iterations=40,
        loads=(
            LoadSpec(pc=0x100, pattern=Pattern.REUSE, working_set_lines=60,
                     scope=Scope.CTA, stride=1, reuse_burst=1),
            LoadSpec(pc=0x204, pattern=Pattern.STREAM, working_set_lines=0),
        ),
        stores=(StoreSpec(pc=0x1510, every_iterations=8),),
    )
    return validate_workload(WorkloadSpec(
        name="throttle4sm", description="4-SM throttle-heavy differential",
        num_ctas=48, warps_per_cta=4, regs_per_thread=16,
        tenants=(TenantSpec(name="main", phases=(phase,)),),
    ))


def _corpus_kernel(name: str):
    return build_workload(load_workload_file(CORPUS / f"{name}.json"), scale=1.0)


#: label -> (kernel builder, config). S2 / LI at the golden operating
#: point, the three committed fuzz-corpus specs, and the 4-SM case.
HOOKED_WORKLOADS = {
    "S2": (lambda: kernel_for("S2", GOLDEN_SCALE), scaled_config(num_sms=GOLDEN_SMS)),
    "LI": (lambda: kernel_for("LI", GOLDEN_SCALE), scaled_config(num_sms=GOLDEN_SMS)),
    "thrasher": (lambda: _corpus_kernel("thrasher"), scaled_config(num_sms=GOLDEN_SMS)),
    "multikernel": (lambda: _corpus_kernel("multikernel"), scaled_config(num_sms=GOLDEN_SMS)),
    "multitenant": (lambda: _corpus_kernel("multitenant"), scaled_config(num_sms=GOLDEN_SMS)),
    "throttle4sm": (
        lambda: build_workload(throttle_workload(), scale=1.0),
        scaled_config(num_sms=4, window_cycles=800),
    ),
}


def extension_state(ext) -> dict:
    """Everything a live extension's snapshot is made from, as comparable
    data, down to the monitor's entries and the VTT's tags (a snapshot
    keeps only their summaries, so the differential runs with
    ``keep_objects``): ``idle_register_bytes_sum`` and
    ``victim_reads_corrupt`` catch a register-owner map or token drift no
    fingerprint field sees."""
    assert not isinstance(ext, ExtensionSnapshot), "compare live extensions (keep_objects)"
    state = {"kind": type(ext).__name__}
    stats, monitor, vtt = (getattr(ext, name, None) for name in ("stats", "load_monitor", "vtt"))
    if stats is not None:
        state["stats"] = dataclasses.asdict(stats)
    if monitor is not None:
        state["load_monitor"] = (
            monitor.state, sorted(monitor.selected_hpcs), monitor.windows_elapsed,
            [(e.hits, e.misses) for e in monitor.entries],
        )
    if vtt is not None:
        state["vtt"] = (
            dataclasses.asdict(vtt.stats),
            [(vp.active, vp.hits) for vp in vtt.partitions],
            vtt.occupancy_masks(),
            sorted(vtt.valid_lines()),
        )
    return state


def deep_state(result) -> dict:
    return {
        "fingerprint": result_fingerprint(result),
        "sm_stats": [dataclasses.asdict(s) for s in result.sm_stats],
        "l1_stats": [dataclasses.asdict(s) for s in result.l1_stats],
        "rf_stats": [dataclasses.asdict(s) for s in result.rf_stats],
        "extensions": [extension_state(e) for e in result.extensions],
    }


def tracker_state(tracker) -> dict:
    """Everything a ``LoadTracker`` holds, plus the two figures read
    off it (Figs 2-3)."""
    return {
        "current": {pc: dataclasses.asdict(b) for pc, b in tracker.current.items()},
        "window_reused_bytes": dict(tracker.window_reused_bytes),
        "window_streaming_bytes": tracker.window_streaming_bytes,
        "window_miss_ratios": dict(tracker.window_miss_ratios),
        "total_accesses": dict(tracker.total_accesses),
        "top4_reused_working_set": tracker.top_loads_reused_working_set(4),
        "mean_streaming_bytes": tracker.mean_streaming_bytes(),
    }


@dataclasses.dataclass
class ProbeStats:
    trace: int = 0
    calls: dict = dataclasses.field(default_factory=dict)


class ProbeExtension(SMExtension):
    """Not a policy: a deterministic stress of the whole ``SMExtension``
    surface. Every hook folds its arguments — and what it reads off the
    ``sm`` it was attached to — into ``stats.trace``, so two engines
    agree on it only if they made the same calls with the same values in
    the same order. On the way it does what no registered row does:
    bypasses and victim-hits by address, refuses fills, throttles the
    issuing warp from its own load's hook, throttles other warps from
    ``on_tick``, and reaches shared DRAM from ``on_tick``, from
    callbacks and from ``try_reactivate_cta``.
    """

    def __init__(self) -> None:
        self.stats = ProbeStats()
        self.ticks = 0

    def see(self, hook: str, *values: int) -> None:
        stats = self.stats
        stats.calls[hook] = stats.calls.get(hook, 0) + 1
        trace = stats.trace
        for value in (len(hook), *values):
            trace = (trace * 1_000_003 ^ int(value)) & 0xFFFF_FFFF_FFFF
        stats.trace = trace

    def wake_later(self, warp, cycle: int) -> None:
        # Sometimes the very next cycle: before an ALU latency or a
        # replay backoff the warp went INACTIVE with has run out.
        delay = 1 + 30 * (self.ticks % 3)
        self.sm.schedule_event(cycle + delay, EV_CALLBACK, warp.reactivate)

    def attach(self, sm) -> None:
        super().attach(sm)
        self.registers = sm.register_file.num_registers
        self.see("attach", sm.sm_id, sm.l1.num_sets, sm.l1.assoc, sm.l1.line_bytes,
                 self.registers, sm.kernel.warp_registers_per_cta, sm.config.l1_hit_latency)

    def on_tick(self, cycle: int) -> None:
        sm = self.sm
        self.ticks += 1
        self.see("on_tick", cycle, sm.stats.instructions)
        if self.ticks % 61 == 0:
            live = [w for cta in sm.ctas.values() for w in cta.warps if not w.finished]
            self.see("on_tick.scan", sm.l1.occupancy(), sm.register_file.unused_bytes(), len(live))
            if len(live) > 1:
                warp = live[self.ticks % len(live)]
                warp.deactivate()
                self.wake_later(warp, cycle)
        if self.ticks % 149 == 0:
            done = sm.memory.backup_registers(7, cycle)
            self.see("on_tick.backup", done)
            sm.schedule_event(done, EV_CALLBACK, self.restore)

    def restore(self, cycle: int) -> None:
        self.see("restore", cycle, self.sm.memory.restore_registers(7, cycle))

    def should_bypass(self, warp, line_addr: int, cycle: int) -> bool:
        self.see("should_bypass", warp.warp_id, warp.launch_order, line_addr, cycle)
        return line_addr % 11 == 0

    def lookup_victim(self, line_addr: int, hpc: int, cycle: int):
        self.see("lookup_victim", line_addr, hpc, cycle)
        if line_addr % 13:
            return None
        self.sm.register_file.read(line_addr % self.registers, cycle)
        return 9

    def on_load_outcome(self, pc, hpc, line_addr, hit, cycle, warp=None) -> None:
        self.see("on_load_outcome", pc, hpc, line_addr, hit, cycle,
                 warp.warp_id, warp.base_register)
        if line_addr % 23 == 0:
            warp.deactivate()
            self.wake_later(warp, cycle)

    def on_l1_eviction(self, line_addr: int, line, cycle: int) -> None:
        self.see("on_l1_eviction", line_addr, line.hpc, line.owner, cycle)
        self.sm.register_file.write(line_addr % self.registers, line_addr, cycle)

    def on_store(self, line_addr: int, cycle: int) -> None:
        self.see("on_store", line_addr, cycle)

    def allocate_fill(self, line_addr: int) -> bool:
        self.see("allocate_fill", line_addr)
        return line_addr % 17 != 0

    def on_cta_launched(self, slot: int, cycle: int) -> None:
        cta = self.sm.ctas[slot]
        self.see("on_cta_launched", slot, cycle, cta.register_range.start,
                 *(v for w in cta.warps for v in (w.warp_id, w.launch_order, w.base_register)))

    def on_cta_finished(self, slot: int, cycle: int) -> None:
        self.see("on_cta_finished", slot, cycle)

    def try_reactivate_cta(self, cycle: int) -> bool:
        self.see("try_reactivate_cta", cycle, self.sm.memory.restore_registers(3, cycle))
        return False

    def finalize(self, cycle: int) -> None:
        self.see("finalize", cycle, self.sm.memory.traffic.backup_write_lines)


@pytest.mark.usefixtures("reference")
class TestHookedDifferential:
    @pytest.mark.parametrize("arch", HOOKED_ARCHS)
    @pytest.mark.parametrize("workload", sorted(HOOKED_WORKLOADS))
    def test_default_engine_matches_object(self, workload, arch):
        build, config = HOOKED_WORKLOADS[workload]
        runner = resolve(arch).runner
        default = deep_state(runner(config, build(), keep_objects=True))
        reference = deep_state(runner(config, build(), keep_objects=True, backend="object"))
        for part in reference:
            assert default[part] == reference[part], (arch, workload, part)

    @pytest.mark.parametrize("workload", ["S2", "thrasher", "throttle4sm"])
    def test_probe_sees_one_call_sequence_on_both_engines(self, workload):
        build, config = HOOKED_WORKLOADS[workload]
        if workload == "S2":  # the probe is slow; the hooks are the point
            build, config = (lambda: kernel_for("S2", SCALE)), scaled_config(num_sms=3)
        options = RunOptions(keep_objects=True)
        default = run_kernel(config, build(), ProbeExtension, options)
        reference = run_kernel(config, build(), ProbeExtension, options.replace(backend="object"))
        assert deep_state(default) == deep_state(reference)
        calls = default.extensions[0].stats.calls
        # Every gate opens: a hook whose flag the machine never read
        # would never be called (``timeseries_sample`` has its own cases).
        gated = set(CAPABILITY_FLAGS.values()) - {"timeseries_sample"}
        assert gated | {"on_tick.backup", "restore"} <= set(calls), calls
        assert default.sm_stats[0].bypasses and default.sm_stats[0].victim_hits

    def test_the_window_is_the_extensions_own_not_the_machines(self):
        # lb_config may carry a window the SimulationConfig does not:
        # the SMs resynchronise on the extension's grid (500), not on
        # the config's (800), or register backups would interleave
        # differently in DRAM — or be refused outright.
        build, config = HOOKED_WORKLOADS["throttle4sm"]
        lb = replace(config.linebacker, window_cycles=500)
        runner = resolve("linebacker").runner
        default = runner(config, build(), lb_config=lb, keep_objects=True)
        assert default.traffic.backup_write_lines > 0
        assert deep_state(default) == deep_state(
            runner(config, build(), lb_config=lb, keep_objects=True, backend="object")
        )

    def test_on_tick_fires_on_the_window_grid_on_both_engines(self):
        # on_tick is no per-tick hook: a windowed extension is called on
        # the first tick at or past each multiple of its period and on no
        # other tick, by both engines. A twin with no period is called on
        # every tick, which gives the ticks the grid is picked from.
        class Windowed(SMExtension):
            config = scaled_config(window_cycles=97).linebacker

            def attach(self, sm) -> None:
                super().attach(sm)
                self.calls = []

            def on_tick(self, cycle: int) -> None:
                self.calls.append(cycle)

        class EveryTick(Windowed):
            def shared_tick_period(self):
                return None

        build, config = HOOKED_WORKLOADS["multitenant"]

        def calls(extension, backend=None):
            options = RunOptions(keep_objects=True, backend=backend)
            return [ext.calls for ext in run_kernel(config, build(), extension, options).extensions]

        ticks = calls(EveryTick)
        assert calls(EveryTick, "object") == ticks
        grid = []
        for sm_ticks in ticks:
            firsts, boundary = [], 0
            for cycle in sm_ticks:
                if cycle >= boundary:
                    firsts.append(cycle)
                    boundary = (cycle // 97 + 1) * 97
            grid.append(firsts)
        assert calls(Windowed) == grid == calls(Windowed, "object")
        assert len(grid[0]) >= 3
        assert all(len(firsts) <= len(sm_ticks) // 2 for firsts, sm_ticks in zip(grid, ticks))

    def test_shared_memory_from_an_unordered_hook_is_refused_loudly(self):
        class Leaky(SMExtension):
            def on_load_outcome(self, pc, hpc, line_addr, hit, cycle, warp=None):
                self.sm.memory.backup_registers(1, cycle)

        kernel = kernel_for("S2", SCALE)
        config = scaled_config(num_sms=2)
        run_kernel(config, kernel, Leaky, RunOptions(backend="object"))
        timing = replace(config, gpu=replace(config.gpu, dram_model="timing"))
        for memory_model in (config, timing):
            with pytest.raises(RuntimeError, match="does not order across SMs"):
                run_kernel(memory_model, kernel, Leaky)

    def test_nine_rows_attach_an_extension(self):
        assert len(HOOKED_ARCHS) == 9 and "linebacker" in HOOKED_ARCHS

    def test_throttle_workload_round_trips_on_several_sms(self):
        # The 4-SM case is only worth its name while it keeps doing
        # what its docstring says.
        build, config = HOOKED_WORKLOADS["throttle4sm"]
        result = resolve("linebacker").runner(config, build())
        reactivated = [e.stats.reactivate_events for e in result.extensions]
        assert sum(1 for n in reactivated if n) >= 2 and sum(reactivated) >= 2
        assert result.traffic.restore_read_lines > 0

    # -- the five options the machine hosted last -------------------------
    @pytest.mark.parametrize("arch", ["baseline", "linebacker"])
    @pytest.mark.parametrize("workload", ["LI", "S2", "multitenant"])
    def test_load_tracking_matches_the_reference(self, workload, arch):
        config = scaled_config(num_sms=SMS)

        def build():
            if workload == "multitenant":
                return _corpus_kernel(workload)
            return kernel_for(workload, SCALE)

        runner = resolve(arch).runner
        default = runner(config, build(), track_loads=True)
        reference = runner(config, build(), track_loads=True, backend="object")
        assert result_fingerprint(default) == result_fingerprint(reference)
        for ours, theirs in zip(default.sms, reference.sms, strict=True):
            assert tracker_state(ours.load_tracker) == tracker_state(theirs.load_tracker)
        assert len(default.sms[0].load_tracker.window_streaming_bytes) > 1

    @pytest.mark.parametrize("arch", ["baseline", "cerf", "linebacker"])
    def test_timeseries_rows_match_the_reference(self, arch):
        build, config = HOOKED_WORKLOADS["throttle4sm"]
        runner = resolve(arch).runner
        default = runner(config, build(), timeseries=True, keep_objects=True)
        reference = runner(config, build(), timeseries=True, keep_objects=True, backend="object")
        assert [s.to_payload() for s in default.timeseries] == [
            s.to_payload() for s in reference.timeseries
        ]
        assert len(default.timeseries[0]) >= 5
        # Recording moves no statistic.
        assert deep_state(default) == deep_state(reference) == deep_state(
            runner(config, build(), keep_objects=True)
        )

    def test_a_timeseries_sample_reads_shared_state_in_order(self):
        # Between sync points an SM runs ahead of its siblings, and an
        # ALU-only kernel has no other sync point than the extension's
        # own window (97): a sample on the recorder's grid (100) that
        # reads the device-wide traffic counters must sync first, or it
        # misses backups its siblings made before its cycle.
        class TrafficSampler(SMExtension):
            config = scaled_config(window_cycles=97).linebacker
            window_end = 0

            def on_tick(self, cycle: int) -> None:
                if cycle >= self.window_end:
                    self.window_end = (cycle // 97 + 1) * 97
                    self.sm.memory.backup_registers(1, cycle)

            def timeseries_sample(self, cycle: int) -> dict:
                return {"backups": self.sm.memory.traffic.backup_write_lines}

        warp = [alu() for _ in range(300)]
        kernel = from_instruction_lists("alu", [[warp] * 2] * 6, regs_per_thread=8)
        config = scaled_config(num_sms=3, window_cycles=100)
        options = RunOptions(timeseries=True, max_concurrent_ctas=2)  # 2 CTAs on each SM
        default = run_kernel(config, kernel, TrafficSampler, options)
        reference = run_kernel(config, kernel, TrafficSampler, options.replace(backend="object"))
        rows = [s.to_payload()["rows"] for s in default.timeseries]
        assert rows == [s.to_payload()["rows"] for s in reference.timeseries]
        assert all(len(r) >= 5 and r[-1]["backups"] > 2 * len(r) for r in rows)

    def test_one_tick_emits_several_timeseries_rows(self, monkeypatch):
        # A 40-cycle window is shorter than a DRAM round trip, so event
        # fast-forward crosses several boundaries in one tick.
        samples = []
        sample = VectorSM._ts_sample

        def counted(sm, cycle, boundary, counters):
            samples.append(cycle)
            return sample(sm, cycle, boundary, counters)

        monkeypatch.setattr(VectorSM, "_ts_sample", counted)
        config = scaled_config(num_sms=SMS, window_cycles=40)
        build = HOOKED_WORKLOADS["thrasher"][0]
        runner = resolve("linebacker").runner
        default = runner(config, build(), timeseries=True)
        reference = runner(config, build(), timeseries=True, backend="object")
        rows = sum(len(series) + series.dropped for series in default.timeseries)
        assert rows > len(samples) > 0
        assert [s.to_payload() for s in default.timeseries] == [
            s.to_payload() for s in reference.timeseries
        ]

    @pytest.mark.parametrize("backend", ["vector", "object"])
    @pytest.mark.parametrize("arch", HOOKED_ARCHS)
    def test_a_snapshot_carries_the_summaries_of_the_live_tables(self, arch, backend):
        config, runner = scaled_config(num_sms=SMS), resolve(arch).runner
        live = runner(config, kernel_for("S2", SCALE), keep_objects=True, backend=backend)
        assert all(sm.done for sm in live.sms)
        assert all(e.sm is sm for e, sm in zip(live.extensions, live.sms, strict=True))
        if backend == "vector":
            assert all(type(sm) is VectorSM for sm in live.sms)
        default = runner(config, kernel_for("S2", SCALE), backend=backend)
        for ext, snap in zip(live.extensions, default.extensions, strict=True):
            monitor, vtt = getattr(ext, "load_monitor", None), getattr(ext, "vtt", None)
            assert snap.kind == type(ext).__name__
            assert snap.stats == getattr(ext, "stats", None)
            assert snap.load_monitor == (monitor and monitor.summary())
            assert snap.vtt == (vtt and vtt.summary())
            assert (monitor is None) == (vtt is None) == (arch == "ccws")
        if arch == "linebacker":
            assert any(s.load_monitor.selected_hpcs for s in default.extensions)
            assert any(s.vtt.valid_lines for s in default.extensions)

    @pytest.mark.parametrize("arch", ["baseline", "linebacker"])
    @pytest.mark.parametrize("sms", [2, 4])
    @pytest.mark.parametrize("memory", ["timing", "noc", "timing+noc"])
    def test_general_memory_models_match_the_reference(self, memory, sms, arch):
        config = scaled_config(num_sms=sms, window_cycles=800)
        gpu = replace(
            config.gpu,
            dram_model="timing" if "timing" in memory else "simple",
            noc_enable="noc" in memory,
        )
        config = replace(config, gpu=gpu)
        build = HOOKED_WORKLOADS["throttle4sm"][0]
        runner = resolve(arch).runner
        default = runner(config, build(), keep_objects=True)
        assert deep_state(default) == deep_state(
            runner(config, build(), keep_objects=True, backend="object")
        )
        if arch == "linebacker":  # registers stream through the model under test
            assert default.traffic.backup_write_lines > 0
            assert default.traffic.restore_read_lines > 0


# ---------------------------------------------------------------------------
# Stall replays: no result field carries them, so hold the live counts
# ---------------------------------------------------------------------------
def stall_counts(result) -> list:
    """Per-SM MSHR-stall replays off live SMs (``keep_objects``); both
    engines expose them as ``mshr_stalls``."""
    return [sm.mshr_stalls for sm in result.sms]


@pytest.mark.usefixtures("reference")
class TestStallReplays:
    """A replay the stall certificate answered without probing must be
    counted exactly as the oracle's probe counts it — a miscount would
    pass every differential above, which compare results only."""

    @staticmethod
    def same_on_both(run) -> None:
        ours = stall_counts(run(keep_objects=True))
        assert ours == stall_counts(run(keep_objects=True, backend="object"))
        assert sum(ours) > 0

    @pytest.mark.parametrize("arch", ["baseline", "linebacker"])
    @pytest.mark.parametrize("app", ["S2", "GE"])
    def test_table2_apps(self, app, arch):
        config = scaled_config(num_sms=GOLDEN_SMS)
        runner = resolve(arch).runner
        self.same_on_both(lambda **o: runner(config, kernel_for(app, GOLDEN_SCALE), **o))

    @pytest.mark.parametrize("label", sorted(MSHR_EXHAUSTION))
    def test_mshr_exhaustion_kernels(self, label):
        config, kernel = mshr_exhaustion(label)
        self.same_on_both(lambda **o: run_kernel(config, kernel, options=RunOptions(**o)))

    @pytest.mark.parametrize("extension", ["linebacker", "probe"])
    def test_throttling_and_refused_fills(self, extension):
        build, config = HOOKED_WORKLOADS["throttle4sm"]
        if extension == "linebacker":
            runner = resolve("linebacker").runner
            self.same_on_both(lambda **o: runner(config, build(), **o))
        else:  # refuses fills: a filled line that goes nowhere
            self.same_on_both(
                lambda **o: run_kernel(config, build(), ProbeExtension, RunOptions(**o))
            )


# ---------------------------------------------------------------------------
# Scan lists: READY-only, in age order, at every tick
# ---------------------------------------------------------------------------
def assert_scan_lists(sm) -> None:
    """``sched_warps[s]`` is exactly scheduler ``s``'s READY warps in
    ascending id, and ``w_rc`` is finite for those warps alone. Warps of
    completed CTAs are all FINISHED, so the live CTAs hold every READY
    warp."""
    live = sorted(view.warp_id for cta in sm.ctas.values() for view in cta.warps)
    ready = [w for w in live if sm.w_state[w] == _READY]
    assert sm.sched_warps == [[w for w in ready if w % sm.nsched == s] for s in range(sm.nsched)]
    assert [w for w in live if sm.w_rc[w] != float("inf")] == ready


class ScanListCheck:
    """Mixin over an extension: check the scan lists at every tick, after
    the extension's own ``on_tick`` — so after every wake, throttle,
    reactivation and finish of the tick before, the issuing warp
    throttled from its own load's hook included.

    ``on_tick`` fires only on the extension's window grid; a period of
    ``None`` puts it back on every tick. A windowed extension's own
    ``on_tick`` acts only once the clock crosses its next boundary, so
    it runs unchanged."""

    def shared_tick_period(self):
        return None

    def on_tick(self, cycle: int) -> None:
        super().on_tick(cycle)
        assert_scan_lists(self.sm)


class CheckedProbe(ScanListCheck, ProbeExtension):
    pass


class CheckedLinebacker(ScanListCheck, LinebackerExtension):
    pass


@pytest.mark.parametrize("workload", sorted(HOOKED_WORKLOADS))
def test_scan_lists_hold_at_every_tick(workload):
    # The probe throttles from on_tick and from a load's own hook,
    # reactivates on a timer and refuses fills.
    build, config = HOOKED_WORKLOADS[workload]
    if workload in ("S2", "LI"):  # every tick is checked; keep the job short
        build, config = (lambda: kernel_for(workload, SCALE)), scaled_config(num_sms=3)
    result = run_kernel(config, build(), CheckedProbe)
    assert result.extensions[0].stats.calls["on_tick"] > 0


def test_scan_lists_hold_under_linebacker():
    # Real throttling: whole CTAs parked and restored on several SMs.
    build, config = HOOKED_WORKLOADS["throttle4sm"]
    factory = functools.partial(CheckedLinebacker, config=config.linebacker)
    result = run_kernel(config, build(), factory)
    assert sum(e.stats.reactivate_events for e in result.extensions) >= 2


@pytest.mark.parametrize(
    "cls",
    [VectorSM, WarpView, _L1, MemorySubsystem, CacheLine, CacheStats, SMStats, LoadBehavior,
     CTA, Instruction],
    ids=lambda cls: cls.__name__,
)
def test_what_the_machine_touches_per_instruction_has_no_instance_dict(cls):
    # ``__slots__`` all the way up: a refactor that drops one quietly
    # gives every instance a ``__dict__`` back (and its allocation cost).
    assert cls.__dictoffset__ == 0


def test_engine_import_and_a_dsl_job_leave_numpy_unimported():
    """The package has no runtime dependency: importing the engine and
    running a workload document or a Table-2 app never loads numpy."""
    code = (
        "import sys, repro.engine, repro.runner\n"
        "from repro.config import scaled_config\n"
        "from repro.runner.registry import resolve\n"
        "from repro.workloads.spec import build_workload, load_workload_file\n"
        "from repro.workloads.suite import kernel_for\n"
        f"spec = load_workload_file({str(CORPUS / 'multitenant.json')!r})\n"
        "result = resolve('linebacker').runner(scaled_config(num_sms=1), build_workload(spec))\n"
        "assert result.instructions > 0\n"
        "result = resolve('baseline').runner(scaled_config(num_sms=1), kernel_for('S2', 0.1))\n"
        "assert result.instructions > 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# Executor paths: the backend override rides the job spec everywhere
# ---------------------------------------------------------------------------
class TestExecutors:
    @pytest.fixture(scope="class")
    def inline_object(self):
        runner = ExperimentRunner(use_cache=False, executor="inline")
        with reference_engine.registered():
            return runner.run(self._spec(backend="object")).ipc

    def _spec(self, backend):
        options = RunOptions(backend=backend)
        return JobSpec.build(
            app="S2",
            arch="baseline",
            config=scaled_config(num_sms=SMS),
            scale=SCALE,
            options=options,
        )

    @pytest.mark.parametrize("executor", ["inline", "loopback"])
    def test_vector_matches_object_via_executor(self, executor, inline_object):
        runner = ExperimentRunner(use_cache=False, executor=executor)
        result = runner.run(self._spec(backend="vector"))
        assert result.ipc == inline_object


# ---------------------------------------------------------------------------
# No fallback: nothing declines a request, so nothing warns
# ---------------------------------------------------------------------------
class TestFallback:
    def test_supported_request_never_warns(self):
        kernel = kernel_for("S2", SCALE)
        config = scaled_config(num_sms=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve("baseline").runner(config, kernel, backend="vector")
            resolve("linebacker").runner(
                config, kernel, backend="vector",
                track_loads=True, timeseries=True, keep_objects=True,
            )

    def test_dispatch_object_never_warns(self, reference):
        kernel = kernel_for("S2", SCALE)
        request = EngineRequest(
            config=scaled_config(num_sms=1), kernel=kernel, timeseries=True
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dispatch("object", request)

    def test_dispatch_unknown_backend_raises(self):
        kernel = kernel_for("S2", SCALE)
        request = EngineRequest(config=scaled_config(num_sms=1), kernel=kernel)
        for name in ("cuda", "object"):  # nothing registered the oracle here
            with pytest.raises(BackendError):
                dispatch(name, request)


# ---------------------------------------------------------------------------
# Cache identity
# ---------------------------------------------------------------------------
class TestCacheIdentity:
    def _spec(self, **options):
        return JobSpec.build(
            app="S2",
            arch="baseline",
            config=scaled_config(),
            scale=SCALE,
            options=RunOptions(**options) if options else None,
        )

    def test_backend_separates_cache_keys(self, reference):
        assert self._spec(backend="vector").key != self._spec().key
        assert (
            self._spec(backend="vector").key != self._spec(backend="object").key
        )

    def test_none_backend_is_hash_neutral(self):
        # A default-constructed RunOptions must hash like no options at
        # all, so pre-backend cache entries stay valid.
        assert self._spec(backend=None).key == self._spec().key

    def test_backend_rides_in_params(self):
        spec = self._spec(backend="vector")
        assert ("backend", "vector") in spec.params


# ---------------------------------------------------------------------------
# HTTP job schema v3
# ---------------------------------------------------------------------------
class TestSchema:
    def _doc(self, arch="baseline", backend="vector"):
        spec = JobSpec.build(
            app="S2",
            arch=arch,
            config=scaled_config(),
            scale=SCALE,
            options=RunOptions(backend=backend),
        )
        return encode_jobspec(spec), spec

    def test_round_trip_preserves_backend_and_key(self):
        doc, spec = self._doc()
        assert doc["schema"] == JOB_SCHEMA_VERSION == 3
        assert doc["options"] == {"backend": "vector"}
        decoded = decode_jobspec(doc)
        assert decoded == spec
        assert decoded.key == spec.key

    def test_unknown_backend_rejected(self):
        # ``object`` is as unknown as ``cuda`` wherever nothing
        # registered the oracle — every production process.
        for name in ("cuda", "object"):
            doc, _ = self._doc()
            doc["options"]["backend"] = name
            with pytest.raises(
                SchemaError, match=f"does not support the {name!r} backend"
            ):
                decode_jobspec(doc)
