"""Child-process side of the benchmark: one workload per fresh process.

``run.py`` starts this module's :func:`child_main` in a new interpreter
for every workload, so ``setup_s`` (process start → first timed
operation) and ``peak_rss_mb`` belong to that workload alone. The
process is a closed-loop load generator: it makes the next call only
when the previous one has returned, from at most ``nproc`` client
threads, over at most two worker subprocesses.

Every workload runs in *cycles*. A cycle hands the program jobs it has
never seen (the cold side) and then asks for the same jobs again (the
warm side). Whole cycles repeat while the next one still fits in
``--seconds``, and at least ``min_cycles`` times, so every reported
number is a median over cycles or over the calls inside them, and a run
takes about as long on a slow day as on a fast one.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import shutil
import statistics
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import jobs as jobgen
import probes
from checker import Checker
from stats import geomean, percentile, summarise
from tracing import NullTracer, Tracer, name_self_seconds

WORKERS = 2
EXECUTORS = ("inline", "loopback", "pool", "remote")
PARALLELISM = {"inline": 1, "loopback": 1, "pool": WORKERS, "remote": WORKERS}
CALL_TIMEOUT = 60.0
#: Simulated counts copied from the fingerprint into every run-table row.
RUN_TABLE_COUNTS = ("instructions", "cycles", "mem_requests", "l1_hits", "l1_misses",
                    "victim_hits", "dram_reads", "dram_writes")


@dataclass(frozen=True)
class Sizes:
    """Work per cycle. Fixed for every commit; ``--smoke`` only checks
    that the harness runs and its numbers mean nothing."""

    min_cycles: int = 2
    sweep_batch: int = 80
    serve_batch: int = 80
    warm_rounds: int = 2
    warmup_jobs: int = 8


FULL = Sizes()
SMOKE = Sizes(min_cycles=1, sweep_batch=24, serve_batch=40, warm_rounds=1, warmup_jobs=4)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    work_dir: Path
    perturb: bool = False

    def tempdir(self, name: str) -> str:
        path = self.work_dir / name
        path.mkdir(parents=True)
        return str(path)


@dataclass
class Batch:
    """Jobs served by one timed interval, as the clocks read it."""

    jobs: int
    wall: float
    cpu: float
    #: Wall milliseconds of each blocking client call in the interval.
    calls_ms: list
    instructions: int = 0

    def on_reference_host(self, slowdown: float) -> "tuple[float, float]":
        """``(wall, cpu)`` in reference-host seconds.

        Only used for single-threaded in-process calls that never wait:
        there, wall time is CPU time plus whatever the hypervisor took
        away (this sandbox parks a vCPU for tens of milliseconds at a
        time, which shows in the wall clock and nowhere else), so both
        become the CPU seconds divided by the host's slowdown."""
        return self.cpu / slowdown, self.cpu / slowdown


@dataclass
class Cycle:
    """The raw measurements of one cycle (metric dictionary: README.md)."""

    cold: list = field(default_factory=list)  # Batches of first requests
    warm: list = field(default_factory=list)  # one Batch per repeat round

    def cold_is_also_warm(self) -> None:
        """For a program that keeps nothing between calls: the whole
        cold side of this cycle is one repeat round."""
        self.warm.append(Batch(
            jobs=sum(b.jobs for b in self.cold),
            wall=sum(b.wall for b in self.cold),
            cpu=sum(b.cpu for b in self.cold),
            calls_ms=[ms for b in self.cold for ms in b.calls_ms],
        ))

    def totals(self, slowdown: "float | None" = None) -> dict:
        """The cycle as measured, or in reference-host seconds."""
        out = {"jobs": 0, "instructions": 0, "wall": 0.0, "cpu": 0.0,
               "calls_ms": [], "warm_rounds": [], "warm_calls_ms": []}
        def clocks(batch: Batch) -> "tuple[float, float]":
            if slowdown is None:
                return batch.wall, batch.cpu
            return batch.on_reference_host(slowdown)

        for batch in self.cold:
            wall, cpu = clocks(batch)
            out["jobs"] += batch.jobs
            out["instructions"] += batch.instructions
            out["wall"] += wall
            out["cpu"] += cpu
            out["calls_ms"] += [ms * wall / batch.wall for ms in batch.calls_ms]
        for batch in self.warm:
            wall, _ = clocks(batch)
            out["warm_rounds"].append((batch.jobs, wall))
            out["warm_calls_ms"] += [ms * wall / batch.wall for ms in batch.calls_ms]
        return out

    def headline(self, metric: str) -> float:
        totals = self.totals()
        if metric == "sim_instr_per_cpu_s":
            return totals["instructions"] / totals["cpu"]
        return totals["jobs"] / totals["wall"]


# ---------------------------------------------------------------------------
# Host-side measurement helpers
# ---------------------------------------------------------------------------
#: Yardstick time of the 2-vCPU sandbox this benchmark was defined on,
#: when quiet. It only fixes the unit of calibrated seconds; what matters
#: is that every commit is measured against the same constant.
YARDSTICK_REF_S = 0.030


class _Line:
    __slots__ = ("tag", "last")

    def __init__(self, tag: int, last: int) -> None:
        self.tag = tag
        self.last = last


def yardstick() -> float:
    """CPU seconds for a fixed pure-Python loop: how fast is the host *now*?

    The sandbox's vCPUs speed up and slow down by tens of percent over
    seconds to minutes, invisibly (no steal time is reported), which
    would put the host, not the program, into every quartile. The loop
    is shaped like the simulator's inner loops — dict probes, small
    ``__slots__`` objects, an LRU scan, a heap — so it slows down when
    they do, and it imports nothing from the program, so no commit can
    change it. It runs between timed calls, never inside one.
    """
    started = time.process_time()
    sets: list = [dict() for _ in range(512)]
    heap: list = []
    x, clock = 12345, 0
    for _ in range(20_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = x % 20_000
        ways, tag = sets[addr % 512], addr // 512
        line = ways.get(tag)
        clock += 1
        if line is None:
            if len(ways) >= 8:
                victim = min(ways.values(), key=lambda ln: ln.last)
                del ways[victim.tag]
            ways[tag] = _Line(tag, clock)
            heapq.heappush(heap, (clock + 200, addr))
        else:
            line.last = clock
        if heap and heap[0][0] <= clock:
            heapq.heappop(heap)
    return time.process_time() - started


_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_stat(pid: int) -> "tuple[str, int, float] | None":
    """``(state, ppid, cpu seconds)`` of a process, zombies included."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    rest = text[text.rindex(")") + 2:].split()
    return rest[0], int(rest[1]), (int(rest[11]) + int(rest[12])) / _TICKS


def child_processes() -> dict:
    """pid -> cpu seconds for every direct child of this process."""
    me = os.getpid()
    out = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == me:
                out[int(entry)] = stat[2]
    return out


def cpu_seconds() -> float:
    """CPU seconds of this process plus every worker it has started.

    Reaped children are in ``RUSAGE_CHILDREN``, live ones in ``/proc``;
    a child reaped between the two reads would be in neither, so read
    until the reaped total holds still.
    """
    while True:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        live = sum(child_processes().values())
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if (before.ru_utime, before.ru_stime) == (after.ru_utime, after.ru_stime):
            return time.process_time() + after.ru_utime + after.ru_stime + live


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _still_running(pid: int) -> bool:
    """True while ``pid`` is a live process this workload started: a
    child of ours that has not exited, or a reparented ``repro`` worker
    (the command-line test guards against a recycled pid)."""
    stat = _proc_stat(pid)
    if stat is None or stat[0] in "ZX":
        return False
    if stat[1] == os.getpid():
        return True
    try:
        return b"repro" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------
class Workload:
    """Shared bookkeeping: attempted / failed operations, run-table
    rows, per-layer numbers, the checker and the tracer."""

    name = ""
    #: End-to-end metric used for ``trace.overhead_frac``.
    headline = "jobs_per_s"
    #: Report times in reference-host seconds (Batch.on_reference_host).
    #: Only for single-threaded in-process work, where the yardstick
    #: measures the process that does the work: calibrating the
    #: multi-process workloads doubled their spread (README.md).
    calibrated = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.tracer = NullTracer()
        self.checker = Checker(perturb_first=ctx.perturb)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rows: list[dict] = []
        self.layer: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.seen_children: set[int] = set()
        self.yardsticks: list[float] = []

    def yardstick(self) -> float:
        """Take one yardstick between two timed calls. The median of
        all of them is the run's host slowdown; the pair around a call
        goes into that call's run-table rows."""
        self.yardsticks.append(yardstick())
        return self.yardsticks[-1]

    def host_slowdown(self) -> float:
        return statistics.median(self.yardsticks) / YARDSTICK_REF_S

    def row(self, **fields) -> None:
        self.rows.append({"workload": self.name, "seed": self.ctx.seed,
                          "traced": int(self.tracer.enabled), **fields})

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(what)

    def note_children(self) -> None:
        self.seen_children.update(child_processes())

    # -- the five steps, in the order child_main drives them -------------
    def setup(self) -> None:
        raise NotImplementedError

    def run_cycle(self, index: int) -> Cycle:
        raise NotImplementedError

    def probe(self, traced: Cycle) -> None:
        """Traced run only: per-layer numbers for this workload."""

    def finish(self) -> None:
        """Untimed checks that need more than the timed cycles."""

    def teardown(self) -> None:
        """Stop everything ``setup`` started."""


# ---------------------------------------------------------------------------
# lb_ext / base_default / base_vector
# ---------------------------------------------------------------------------
class EngineWorkload(Workload):
    """Direct ``resolve(arch).runner(config, kernel)`` calls."""

    headline = "sim_instr_per_cpu_s"
    calibrated = True
    arch = "baseline"
    backend: "str | None" = None

    def setup(self) -> None:
        from repro.engine import BackendFallbackWarning
        from repro.runner.registry import resolve

        self._fallback_warning = BackendFallbackWarning
        self.config = jobgen.engine_config()
        self.jobs = jobgen.engine_jobs(self.name, self.ctx.seed)
        self.runner = resolve(self.arch).runner
        # No backend argument at all on the default-engine workloads.
        self.kwargs = {"backend": self.backend} if self.backend else {}
        self.fallbacks = 0
        self.results: dict[str, object] = {}
        self.job_cpu: dict[str, list] = {}
        # Warm-up: the seeded tail once (lazy imports, opcode templates,
        # allocator growth). The Table-2 jobs need no separate warm-up:
        # the engine keeps nothing between calls.
        for job in self.jobs:
            if job.workload is not None:
                self._simulate(self.runner, job, self.kwargs)

    def _simulate(self, runner, job, kwargs):
        """One blocking call; returns ``(result, wall, cpu)``."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with self.tracer.span("workloads.build", "workloads", job=job.name):
                kernel = job.build()
            layer = "engine" if kwargs.get("backend") == "vector" else "gpu"
            with self.tracer.span(f"{layer}.run", layer, job=job.name):
                result = runner(self.config, kernel, **kwargs)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if any(issubclass(w.category, self._fallback_warning) for w in caught):
            self.fallbacks += 1
            self.fail(f"{job.name}: fell back from the pinned backend")
        return result, wall, cpu

    def run_cycle(self, index: int) -> Cycle:
        cycle = Cycle()
        before = self.yardstick()
        for job in self.jobs:
            self.attempted += 1
            try:
                with self.tracer.span("job", "harness", job=job.name):
                    result, wall, cpu = self._simulate(self.runner, job, self.kwargs)
            except Exception as exc:  # a failed operation, not a harness crash
                self.fail(f"{job.name}: {type(exc).__name__}: {exc}")
                continue
            after = self.yardstick()
            cell = f"{self.arch}:{job.app}" if job.app in jobgen.GOLDEN_APPS else None
            fp = self.checker.observe(job.name, result, golden_cell=cell)
            self.results[job.name] = result
            self.job_cpu.setdefault(job.name, []).append(cpu)
            cycle.cold.append(Batch(1, wall, cpu, [1e3 * wall], fp["instructions"]))
            self.row(cycle=index, phase="cold", executor=self.backend or "default",
                     job=job.name, arch=self.arch, wall_s=wall, cpu_s=cpu,
                     host_slowdown=(before + after) / (2 * YARDSTICK_REF_S),
                     **{f"sim_{k}": fp[k] for k in RUN_TABLE_COUNTS})
            before = after
        # The bare runner keeps no result, so asking again is simulating
        # again: every pass after the first doubles as the repeat side.
        if index > 0 or self.ctx.sizes.min_cycles == 1:
            cycle.cold_is_also_warm()
        return cycle

    # -- traced run -------------------------------------------------------
    def probe(self, traced: Cycle) -> None:
        results = list(self.results.values())
        fps = [self.checker.fingerprints[name] for name in self.results]
        instructions = sum(fp["instructions"] for fp in fps)
        cycles = sum(fp["cycles"] for fp in fps)
        mem_requests = sum(fp["mem_requests"] for fp in fps)
        served = sum(fp["l1_hits"] + fp["l1_misses"] + fp["victim_hits"] + fp["bypasses"]
                     for fp in fps)
        own = name_self_seconds(self.tracer.spans)
        self.layer.update({
            "workloads.build_ms": 1e3 * sum(own.get("workloads.build", [])),
            "engine.fallbacks": self.fallbacks,
            "gpu.instructions": instructions,
            "gpu.cycles": cycles,
            "gpu.mem_requests": mem_requests,
            "gpu.sim_ipc_geomean": geomean([fp["instructions"] / fp["cycles"] for fp in fps]),
            "memory.l1_hit_ratio": sum(fp["l1_hits"] for fp in fps) / max(1, served),
            "memory.l1_misses": sum(fp["l1_misses"] for fp in fps),
            "memory.dram_reads": sum(fp["dram_reads"] for fp in fps),
            "memory.dram_writes": sum(fp["dram_writes"] for fp in fps),
            "memory.demand_read_lines": sum(fp["demand_read_lines"] for fp in fps),
        })
        gpu_seconds = sum(own.get("gpu.run", []))
        if gpu_seconds:
            self.layer.update({
                "gpu.host_us_per_instr": 1e6 * gpu_seconds / instructions,
                "gpu.host_us_per_cycle": 1e6 * gpu_seconds / cycles,
                "gpu.host_us_per_mem_request": 1e6 * gpu_seconds / mem_requests,
            })
        vector_seconds = sum(own.get("engine.run", []))
        if vector_seconds:
            self.layer["engine.vector.host_us_per_instr"] = 1e6 * vector_seconds / instructions
        self.layer.update(core_counts(results))
        kernels = {job.name: job.build() for job in self.jobs}
        self.layer.update(probes.materialize_probe(self.tracer, kernels))
        self.probe_engine(kernels)

    def probe_engine(self, kernels: dict) -> None:
        """Workload-specific probes."""

    def _cpu_per_instr(self, names, cpu_by_job: dict) -> float:
        instructions = sum(self.checker.fingerprints[n]["instructions"] for n in names)
        return 1e6 * sum(cpu_by_job[n] for n in names) / instructions

    def _compare_run(self, arch: str, kwargs: dict, jobs: list, prefix: str) -> dict:
        """Run ``jobs`` once on another architecture/backend (untimed
        side work); returns name -> cpu seconds. Results are checked
        under ``prefix`` labels."""
        from repro.runner.registry import resolve

        runner = resolve(arch).runner
        cpu_by_job = {}
        with self.tracer.span(f"compare.{prefix.rstrip(':')}", "harness"):
            for job in jobs:
                result, _, cpu = self._simulate(runner, job, kwargs)
                self.checker.observe(f"{prefix}{job.name}", result)
                cpu_by_job[job.name] = cpu
        return cpu_by_job

    def finish(self) -> None:
        # generate_corpus(seed, 4): multi-tenant / phase-shift shapes the
        # timed tail does not have. Simulated once, checked, never timed
        # (their cost varies ninefold with the seed).
        for job in jobgen.canary_jobs(self.ctx.seed):
            self.attempted += 1
            try:
                result, _, _ = self._simulate(self.runner, job, self.kwargs)
            except Exception as exc:
                self.fail(f"{job.name}: {type(exc).__name__}: {exc}")
                continue
            self.checker.observe(job.name, result)
            self.results[job.name] = result


def core_counts(results: list) -> dict:
    """``core.*`` counts from the extension snapshots of Linebacker runs."""
    stats = [e.stats for r in results for e in r.extensions
             if getattr(e, "stats", None) is not None and hasattr(e.stats, "victim_inserts")]
    vtts = [e.vtt.stats for r in results for e in r.extensions
            if getattr(e, "vtt", None) is not None]
    monitors = [e.load_monitor for r in results for e in r.extensions
                if getattr(e, "load_monitor", None) is not None]
    lookups = sum(v.lookups for v in vtts)
    return {
        "core.victim_hits": sum(s.victim_hits for s in stats),
        "core.victim_inserts": sum(s.victim_inserts for s in stats),
        "core.vtt_lookups": lookups,
        "core.vtt_hit_ratio": sum(v.hits for v in vtts) / lookups if lookups else 0.0,
        "core.throttle_events": sum(s.throttle_events for s in stats),
        "core.reactivate_events": sum(s.reactivate_events for s in stats),
        "core.monitoring_windows": sum(s.monitoring_windows for s in stats),
        "core.selected_loads": sum(len(m.selected_hpcs) for m in monitors),
        "core.backup_write_lines": sum(r.traffic.backup_write_lines for r in results),
        "core.restore_read_lines": sum(r.traffic.restore_read_lines for r in results),
    }


class LbExt(EngineWorkload):
    name = "lb_ext"
    arch = "linebacker"

    def probe_engine(self, kernels: dict) -> None:
        self.layer.update(probes.core_probes(self.tracer, self.ctx.seed, self.config))
        table2 = [job for job in self.jobs if job.app]
        names = [job.name for job in table2]
        lb_cpu = {n: statistics.median(self.job_cpu[n]) for n in names}
        base_cpu = self._compare_run("baseline", {}, table2, "baseline:")
        lb, base = self._cpu_per_instr(names, lb_cpu), self._cpu_per_instr(names, base_cpu)
        self.layer["gpu.ext_cost_ratio"] = lb / base
        self.notes["gpu.ext_cost_ratio"] = (
            f"linebacker {lb:.2f} / baseline {base:.2f} host us per instr on {','.join(names)}")
        # Window recording on vs off for linebacker:S2.
        from repro.runner.registry import resolve

        s2 = next(job for job in table2 if job.app == "S2")
        cpu0 = time.process_time()
        with self.tracer.span("metrics.timeseries_run", "metrics", job="S2"):
            recorded = resolve("linebacker").runner(self.config, s2.build(), timeseries=True)
        on = time.process_time() - cpu0
        off = lb_cpu["S2"]
        self.checker.observe("S2", recorded)  # recording must not move a statistic
        self.layer["metrics.timeseries_cost_ratio"] = on / off
        self.layer["metrics.timeseries_rows"] = sum(len(s) for s in recorded.timeseries)
        self.notes["metrics.timeseries_cost_ratio"] = (
            f"linebacker:S2 {on:.3f} cpu s recording / {off:.3f} cpu s not recording")


class BaseDefault(EngineWorkload):
    name = "base_default"

    def probe_engine(self, kernels: dict) -> None:
        from repro.runner.registry import resolve

        self.layer.update(probes.memory_probes(self.tracer, self.ctx.seed, self.config.gpu))
        ge = next(job for job in self.jobs if job.app == "GE")
        for arch in ("cerf", "pcal"):
            cpu = self._compare_run(arch, {}, [ge], f"{arch}:")
            self.layer[f"baselines.{arch}_host_us_per_instr"] = (
                1e6 * cpu["GE"] / self.checker.fingerprints[f"{arch}:GE"]["instructions"])
        started = time.perf_counter()
        with self.tracer.span("baselines.best_swl", "baselines", job="GE"):
            resolve("best_swl").runner(self.config, ge.build())
        self.layer["baselines.best_swl_s"] = time.perf_counter() - started


class BaseVector(EngineWorkload):
    name = "base_vector"
    backend = "vector"

    def probe_engine(self, kernels: dict) -> None:
        from repro.runner.registry import resolve

        self.layer.update(probes.vector_compile_probe(self.tracer, kernels))
        ge = next(job for job in self.jobs if job.app == "GE")
        started = time.perf_counter()
        with self.tracer.span("baselines.best_swl_vector", "baselines", job="GE"):
            resolve("best_swl").runner(self.config, ge.build(), backend="vector")
        self.layer["baselines.best_swl_vector_s"] = time.perf_counter() - started
        default_cpu = self._against_default(self.jobs)
        names = [job.name for job in self.jobs]
        vector_cpu = {n: statistics.median(self.job_cpu[n]) for n in names}
        vector = 1e6 / self._cpu_per_instr(names, vector_cpu)
        default = 1e6 / self._cpu_per_instr(names, default_cpu)
        self.layer["engine.vector_speedup"] = geomean(
            [default_cpu[n] / vector_cpu[n] for n in names])
        self.notes["engine.vector_speedup"] = (
            f"geomean of per-job ratios; totals: vector {vector:.0f} / default "
            f"{default:.0f} instr per cpu s over {len(names)} jobs")

    def _against_default(self, jobs: list) -> dict:
        """Rule (c): the default engine on the same jobs, job for job."""
        cpu = self._compare_run("baseline", {}, jobs, "default:")
        for job in jobs:
            self.checker.expect_equal(
                job.name, self.checker.fingerprints.get(f"default:{job.name}"),
                "the default engine")
        return cpu

    def finish(self) -> None:
        super().finish()
        # Untraced runs cross-check the seeded jobs only: S2 and LI are
        # pinned by the golden file, and run.py compares all seven jobs
        # with base_default whenever both workloads ran. The traced run
        # has already compared every timed job in probe_engine.
        timed = [] if self.ctx.trace else [j for j in self.jobs if j.workload is not None]
        self._against_default(timed + jobgen.canary_jobs(self.ctx.seed))


# ---------------------------------------------------------------------------
# sweep_local
# ---------------------------------------------------------------------------
RUNNER_COUNTS = ("simulated", "cache_hits", "memo_hits", "coalesced", "dispatched",
                 "retried", "requeued", "worker_deaths", "pool_fallbacks")
RUNNER_FAULTS = ("retried", "requeued", "worker_deaths", "pool_fallbacks")


class SweepLocal(Workload):
    """``Session.local(...).run_many`` over each of the four executors."""

    name = "sweep_local"

    def setup(self) -> None:
        from repro.api import Session

        self.Session = Session
        self.counts = dict.fromkeys(RUNNER_COUNTS, 0)
        self.sim_seconds = 0.0
        #: executor -> (cold wall, seconds simulating) of the latest cycle.
        self.cold: dict[str, tuple] = {}
        self.last: "tuple[list, list] | None" = None
        # Warm-up: a few jobs through every executor (imports the wire
        # and pool machinery, forks one pool, boots two workers once).
        specs = jobgen.tiny_jobs("swu", self.ctx.seed, self.ctx.sizes.warmup_jobs)
        for executor in EXECUTORS:
            self._run_many(executor, specs, self.ctx.tempdir(f"warmup-{executor}"), "warmup")

    def _run_many(self, executor: str, specs: list, cache_dir: str, phase: str):
        """A new ``Session`` and one ``run_many``, timed from outside.

        Returns ``(results, stats, wall, cpu)``; the CPU seconds cover
        this process and every worker the executor started.
        """
        cpu0, started = cpu_seconds(), time.perf_counter()
        with self.tracer.span(f"runner.run_many.{phase}", "runner", job=executor):
            with self.Session.local(workers=WORKERS, executor=executor,
                                    cache_dir=cache_dir, job_timeout=CALL_TIMEOUT) as session:
                handles = session.run_many(specs)
                results = [h.result() for h in handles]
                stats = session.stats
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu0
        self.note_children()
        for name in RUNNER_COUNTS:
            self.counts[name] += getattr(stats, name)
        self.sim_seconds += stats.sim_seconds
        return results, stats, wall, cpu

    def _phase(self, cycle_index: int, executor: str, specs: list, cache_dir: str,
               phase: str, expect: str):
        """Run, account and check one batch.

        Returns ``(Batch, results, stats)``, or None when the whole
        call failed."""
        n = len(specs)
        self.attempted += n
        try:
            results, stats, wall, cpu = self._run_many(executor, specs, cache_dir, phase)
        except Exception as exc:  # the whole batch is n failed operations
            self.fail(f"{executor} {phase}: {type(exc).__name__}: {exc}", n)
            return None
        served = getattr(stats, expect)
        faults = sum(getattr(stats, name) for name in RUNNER_FAULTS)
        if served != n or faults:
            self.fail(f"{executor} {phase}: {served}/{n} {expect}, {faults} faults",
                      max(n - served, faults))
        simulated = {r.label: r.seconds for r in stats.records if r.source == "run"}
        for spec, result in zip(specs, results):
            label = f"{executor}:{spec.app}"
            fp = self.checker.observe(label, result)
            self.row(cycle=cycle_index, phase=phase, executor=executor, job=spec.app,
                     arch=spec.arch, wall_s=wall / n, cpu_s=simulated.get(spec.label, 0.0),
                     host_slowdown=self.cycle_slowdown,
                     **{f"sim_{k}": fp[k] for k in RUN_TABLE_COUNTS})
            if executor != "inline":
                self.checker.expect_equal(
                    label, self.checker.fingerprints.get(f"inline:{spec.app}"),
                    "the inline result")
        return Batch(n, wall, cpu, [1e3 * wall]), results, stats

    def run_cycle(self, index: int) -> Cycle:
        sizes = self.ctx.sizes
        specs = jobgen.tiny_jobs("sw", self.ctx.seed, sizes.sweep_batch,
                                 start=index * sizes.sweep_batch)
        cycle = Cycle()
        self.cycle_slowdown = self.yardstick() / YARDSTICK_REF_S
        for executor in EXECUTORS:
            # A fresh directory per executor: the same specs are cold again.
            cache_dir = self.ctx.tempdir(f"cache-{index}-{executor}")
            cold = self._phase(index, executor, specs, cache_dir, "cold", "simulated")
            if cold is None:
                continue
            batch, results, stats = cold
            batch.instructions = sum(r.instructions for r in results)
            cycle.cold.append(batch)
            self.cold[executor] = (batch.wall, stats.sim_seconds)
            self.last = (specs, results)
            for _ in range(sizes.warm_rounds):
                warm = self._phase(index, executor, specs, cache_dir, "warm", "cache_hits")
                if warm is not None:
                    cycle.warm.append(warm[0])
        return cycle

    def probe(self, traced: Cycle) -> None:
        n = self.ctx.sizes.sweep_batch
        measured = traced.totals()
        for executor, (cold, sim) in self.cold.items():
            self.layer[f"runner.cold_s.{executor}"] = cold
            self.layer[f"runner.overhead_ms_per_job.{executor}"] = (
                1e3 * (cold - sim / PARALLELISM[executor]) / n)
            self.notes[f"runner.overhead_ms_per_job.{executor}"] = (
                f"({cold:.3f} s cold wall - {sim:.3f} s simulating / "
                f"{PARALLELISM[executor]} in parallel) / {n} jobs")
        self.layer["runner.warm_ms_per_job"] = 1e3 * statistics.median(
            wall / jobs for jobs, wall in measured["warm_rounds"])
        self.layer["runner.sim_seconds"] = self.sim_seconds
        for name in RUNNER_COUNTS:
            self.layer[f"runner.{name}"] = self.counts[name]
        self.layer["gpu.instructions"] = measured["instructions"]
        specs, payloads = self.last
        self.layer.update(probes.runner_probes(
            self.tracer, specs, payloads, self.ctx.tempdir("probe-cache")))


# ---------------------------------------------------------------------------
# serve_http
# ---------------------------------------------------------------------------
FLEET_FAULTS = ("retried", "requeued", "worker_deaths", "give_ups")


class ServeHttp(Workload):
    """``serve()`` on a thread, two closed-loop HTTP clients."""

    name = "serve_http"

    def setup(self) -> None:
        from repro.api import Session
        from repro.service import ServiceClient, serve

        started = time.perf_counter()
        self.server = serve(port=0, workers=WORKERS, cache_dir=self.ctx.tempdir("cache"),
                            job_timeout=CALL_TIMEOUT)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.session = Session.connect(f"http://{host}:{port}", timeout=30.0)
        self.client = ServiceClient(f"http://{host}:{port}", timeout=30.0)  # for the probes
        self.submitted: list = []
        self.cold_records: list[dict] = []
        self.faults_seen = 0
        # Warm-up: the first result waits for both workers to boot and
        # import; then the batch twice, so the dedup path has run too.
        specs = jobgen.tiny_jobs("svu", self.ctx.seed, self.ctx.sizes.warmup_jobs)
        self._round_trip(specs[0], None)
        self.fleet_spawn_s = time.perf_counter() - started
        for _ in range(2):
            self._clients(specs, -1, "warmup")
        self.attempted = 0
        self.note_children()

    def _round_trip(self, spec, parent) -> dict:
        """One client operation: submit, then block for the result."""
        t0 = time.perf_counter()
        with self.tracer.span("service.submit", "service", job=spec.app, parent=parent):
            handle = self.session.submit(spec)
        t1 = time.perf_counter()
        with self.tracer.span("service.result", "service", job=spec.app, parent=parent):
            result = handle.result(timeout=CALL_TIMEOUT)
        t2 = time.perf_counter()
        return {"spec": spec, "job_id": handle.job_id, "result": result,
                "submit_ms": 1e3 * (t1 - t0), "latency_ms": 1e3 * (t2 - t0)}

    def _clients(self, specs: list, cycle_index: int, phase: str):
        """Closed loop: each client takes the next spec when its last
        result is in hand. Returns ``(records, wall, cpu)``."""
        todo = deque(specs)
        done: list[dict] = []
        lock = threading.Lock()

        def client(parent) -> None:
            while True:
                try:
                    spec = todo.popleft()
                except IndexError:
                    return
                try:
                    record = self._round_trip(spec, parent)
                except Exception as exc:  # a failed operation
                    with lock:
                        self.fail(f"{phase} {spec.app}: {type(exc).__name__}: {exc}")
                    continue
                with lock:
                    done.append(record)

        self.attempted += len(specs)
        cpu0, started = cpu_seconds(), time.perf_counter()
        with self.tracer.span(f"service.clients.{phase}", "harness") as span:
            parent = span["id"] if span else None
            threads = [threading.Thread(target=client, args=(parent,), daemon=True)
                       for _ in range(WORKERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=4 * CALL_TIMEOUT)
                if thread.is_alive():
                    self.fail(f"{phase}: a client thread is stuck", len(todo) + 1)
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu0
        return done, wall, cpu

    def _phase(self, cycle_index: int, specs: list, phase: str):
        """One closed-loop pass over ``specs``, checked and tabulated.

        Returns ``(records, Batch)``."""
        done, wall, cpu = self._clients(specs, cycle_index, phase)
        for record in done:
            spec = record["spec"]
            fp = self.checker.observe(f"http:{spec.app}", record["result"])
            record["instructions"] = fp["instructions"]
            self.row(cycle=cycle_index, phase=phase, executor="http", job=spec.app,
                     arch=spec.arch, wall_s=record["latency_ms"] / 1e3, cpu_s=0.0,
                     host_slowdown=self.cycle_slowdown,
                     **{f"sim_{k}": fp[k] for k in RUN_TABLE_COUNTS})
        return done, Batch(len(done), wall, cpu, [r["latency_ms"] for r in done],
                           sum(r["instructions"] for r in done))

    def _fleet_faults(self) -> None:
        report = self.session.stats
        faults = report["degraded"] + sum(report["fleet"][k] for k in FLEET_FAULTS)
        if faults > self.faults_seen:
            self.fail(f"fleet reports {faults - self.faults_seen} retried / requeued / "
                      "dead / given-up / degraded jobs", faults - self.faults_seen)
            self.faults_seen = faults

    def run_cycle(self, index: int) -> Cycle:
        sizes = self.ctx.sizes
        specs = jobgen.tiny_jobs("sv", self.ctx.seed, sizes.serve_batch,
                                 start=index * sizes.serve_batch)
        self.submitted.extend(specs)
        cycle = Cycle()
        self.cycle_slowdown = self.yardstick() / YARDSTICK_REF_S
        self.cold_records, batch = self._phase(index, specs, "cold")
        cycle.cold.append(batch)
        for _ in range(sizes.warm_rounds):
            cycle.warm.append(self._phase(index, specs, "warm")[1])
        self._fleet_faults()
        return cycle

    def probe(self, traced: Cycle) -> None:
        measured = traced.totals()
        client, coordinator = self.client, self.server.coordinator
        status = [client.status(r["job_id"]) for r in self.cold_records]
        waits = [r["latency_ms"] - r["submit_ms"] - 1e3 * s["seconds"]
                 for r, s in zip(self.cold_records, status)]
        report = self.session.stats
        self.layer.update({
            "service.fleet_spawn_s": self.fleet_spawn_s,
            "service.job_seconds_p50": statistics.median(s["seconds"] for s in status),
            "service.poll_wait_ms_p50": statistics.median(waits),
            "service.submit_to_result_ms_p95": percentile(measured["calls_ms"], 0.95),
            "service.completed": report["fleet"]["completed"],
            "service.coalesced": report["coalesced"],
            "service.cached": sum(1 for s in status if s["source"] == "cache"),
            "service.degraded": report["degraded"],
            "gpu.instructions": measured["instructions"],
        })
        for name in FLEET_FAULTS:
            self.layer[f"service.{name}"] = report["fleet"][name]
        done = [r["spec"] for r in self.cold_records]
        fresh = jobgen.tiny_jobs("svp", self.ctx.seed, 20)
        self.layer.update(probes.service_probes(self.tracer, client, coordinator, done, fresh))

    def finish(self) -> None:
        # Rule (d): every HTTP result equals the in-process result.
        from repro.runner.engine import execute_job

        for spec in self.submitted:
            payload, _ = execute_job(spec)
            self.checker.observe(f"inline:{spec.app}", payload)
            self.checker.expect_equal(
                f"http:{spec.app}", self.checker.fingerprints[f"inline:{spec.app}"],
                "the inline result")

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        self.note_children()
        server.shutdown()
        server.server_close()
        server.coordinator.shutdown()
        self.thread.join(timeout=10)



WORKLOADS = {cls.name: cls for cls in (LbExt, BaseDefault, BaseVector, SweepLocal, ServeHttp)}


# ---------------------------------------------------------------------------
# Driving one workload
# ---------------------------------------------------------------------------
def measure(workload: Workload, seconds: float, min_cycles: int) -> list:
    """Whole cycles while the next still fits in ``seconds``."""
    cycles: list[Cycle] = []
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        cycles.append(workload.run_cycle(len(cycles)))
        now = time.perf_counter()
        enough = len(cycles) >= min_cycles
        if enough and (now - started) + (now - cycle_started) > seconds:
            return cycles


def end_to_end(cycles: list, slowdown: "float | None", setup_s: float) -> dict:
    """Metric name -> {median, q1, q3, n}, as the clocks read them
    (``slowdown=None``) or in reference-host seconds. See README.md."""
    usable = [t for t in (c.totals(slowdown) for c in cycles) if t["jobs"] and t["cpu"] > 0]
    warm = [jobs / wall for t in usable for jobs, wall in t["warm_rounds"] if jobs]
    if not usable or not warm:
        return {}
    return {
        "setup_s": summarise([setup_s]),
        "sim_instr_per_cpu_s": summarise(t["instructions"] / t["cpu"] for t in usable),
        "jobs_per_s": summarise(t["jobs"] / t["wall"] for t in usable),
        "warm_jobs_per_s": summarise(warm),
        "submit_to_result_ms_p50": summarise([ms for t in usable for ms in t["calls_ms"]]),
        "warm_submit_to_result_ms_p50": summarise(
            [ms for t in usable for ms in t["warm_calls_ms"]]),
        "peak_rss_mb": summarise([peak_rss_mb()]),
    }


def audit_orphans(workload: Workload, work_dir: Path) -> list:
    """After teardown: no child process left, no temp dir left."""
    problems = []
    deadline = time.monotonic() + 10.0
    while True:
        alive = [pid for pid in set(child_processes()) | workload.seen_children
                 if _still_running(pid)]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    if alive:
        problems.append(f"orphaned worker processes: {sorted(alive)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    if work_dir.exists():
        problems.append(f"temp dir {work_dir} could not be removed")
    return problems


def run_child(ctx: Context, spawned_at: float, setup_only: bool) -> dict:
    calib_start = min(yardstick() for _ in range(3))
    workload = WORKLOADS[ctx.workload](ctx)
    report = {"workload": ctx.workload, "seed": ctx.seed, "trace": int(ctx.trace)}
    cycles: list[Cycle] = []
    try:
        workload.setup()
        report["setup_s"] = time.time() - spawned_at
        if not setup_only and ctx.trace:
            cycles = [workload.run_cycle(0)]
            workload.tracer = Tracer(ctx.workload)
            with workload.tracer.span("traced_cycle", "harness"):
                traced = workload.run_cycle(1)
            with workload.tracer.span("probes", "harness"):
                workload.probe(traced)
            untraced, slowed = cycles[0].headline(workload.headline), traced.headline(workload.headline)
            workload.layer["trace.overhead_frac"] = 1.0 - slowed / untraced
            workload.finish()
        elif not setup_only:
            cycles = measure(workload, ctx.seconds, ctx.sizes.min_cycles)
            workload.finish()
    finally:
        workload.teardown()
    orphans = audit_orphans(workload, ctx.work_dir)
    for problem in orphans:
        workload.fail(problem)
    calib_end = min(yardstick() for _ in range(3))
    timed = bool(cycles) and not ctx.trace
    host = workload.host_slowdown() if workload.yardsticks else 1.0
    applied = host if workload.calibrated else None
    check = workload.checker.summary()
    attempted = max(1, workload.attempted)
    workload.layer.update({
        "host.calib_loop_s": calib_start,
        "host.calib_drift_frac": calib_end / calib_start - 1.0,
        "host.slowdown": host,
        "host.nproc": os.cpu_count() or 1,
        "check.failed_frac": workload.failed / attempted,
        "check.result_mismatch_frac": check["mismatched"] / max(1, check["checked"]),
    })
    for row in workload.rows:
        row["host.calib_loop_s"] = calib_start
    report.update({
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures[:20],
        "check": check,
        "cycles": len(cycles),
        "host_slowdown": host,
        "calibrated": workload.calibrated,
        "end_to_end": end_to_end(cycles, applied, report["setup_s"]) if timed else {},
        "end_to_end_raw": end_to_end(cycles, None, report["setup_s"]) if timed else {},
        "per_layer": workload.layer if ctx.trace else {},
        "notes": workload.notes,
        "rows": workload.rows,
        "spans": workload.tracer.spans,
        "fingerprints": workload.checker.fingerprints,
    })
    return report


def child_main(args) -> int:
    """Entry point of the per-workload child process."""
    work_dir = Path(args.work_dir)
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), sizes=SMOKE if args.smoke else FULL,
        work_dir=work_dir, perturb=args.perturb,
    )
    report = run_child(ctx, args.spawned_at, args.setup_only)
    Path(args.report).write_text(json.dumps(report))
    return 0
