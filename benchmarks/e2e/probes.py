"""Per-layer probes: a layer's public functions timed in isolation.

A simulation's host time cannot be split by layer from outside the
program, so each layer that does per-access work is also driven on its
own: a seeded access stream through the layer's public class, or the
real payloads of the workload through its public functions. Every probe
runs under a span and returns ``{metric name: value}``.

Probes run only in the traced pass; end-to-end numbers never include
them.
"""

from __future__ import annotations

import pickle
import random
import time

from repro.config import KB

PROBE_ACCESSES = 100_000


def _timed(tracer, name: str, layer: str, fn) -> float:
    with tracer.span(name, layer):
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started


# ---------------------------------------------------------------------------
# workloads / engine.vector
# ---------------------------------------------------------------------------
def materialize_probe(tracer, kernels: dict) -> dict:
    """Drain every warp of every kernel via ``KernelTrace.materialize``."""
    instructions = 0
    seconds = 0.0
    for name, kernel in kernels.items():
        with tracer.span("workloads.materialize", "workloads", job=name):
            started = time.perf_counter()
            for cta in range(kernel.num_ctas):
                for warp in range(kernel.warps_per_cta):
                    instructions += len(kernel.materialize(cta, warp))
            seconds += time.perf_counter() - started
    return {
        "workloads.trace_instructions": instructions,
        "workloads.materialize_us_per_instr": 1e6 * seconds / max(1, instructions),
    }


def vector_compile_probe(tracer, kernels: dict) -> dict:
    """``CompiledKernel(kernel)`` + ``warp_streams`` for every CTA."""
    from repro.engine.vector.compile import CompiledKernel

    seconds = 0.0
    for name, kernel in kernels.items():
        with tracer.span("engine.vector.compile", "engine", job=name):
            started = time.perf_counter()
            compiled = CompiledKernel(kernel)
            for cta in range(kernel.num_ctas):
                compiled.warp_streams(cta)
            seconds += time.perf_counter() - started
    return {"engine.vector.compile_ms": 1e3 * seconds}


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------
def memory_probes(tracer, seed: int, gpu_config) -> dict:
    from repro.memory.cache import SetAssociativeCache
    from repro.memory.mshr import MSHRFile
    from repro.memory.subsystem import MemorySubsystem

    rng = random.Random(seed)
    n = PROBE_ACCESSES
    l1_lines = 48 * KB // gpu_config.l1_line_bytes
    # Twice the L1's capacity: roughly half the lookups miss and fill.
    l1_addrs = [rng.randrange(2 * l1_lines) for _ in range(n)]
    l2_lines = gpu_config.l2_size_bytes // gpu_config.l1_line_bytes
    l2_addrs = [rng.randrange(2 * l2_lines) for _ in range(n)]

    cache = SetAssociativeCache(48 * KB, gpu_config.l1_assoc, gpu_config.l1_line_bytes)

    def l1() -> None:
        lookup, fill = cache.lookup, cache.fill
        for addr in l1_addrs:
            if lookup(addr) is None:
                fill(addr)

    mshr = MSHRFile(gpu_config.l1_mshrs)

    def mshrs() -> None:
        depth = gpu_config.l1_mshrs // 2
        for i, addr in enumerate(l1_addrs):
            if mshr.can_allocate(addr):
                mshr.allocate(addr, i)
            if i >= depth:
                mshr.release(l1_addrs[i - depth])

    memory = MemorySubsystem(gpu_config)

    def fetch() -> None:
        fetch_line = memory.fetch_line
        for i, addr in enumerate(l2_addrs):
            fetch_line(addr, 4 * i)

    return {
        "memory.l1_lookup_fill_us": 1e6 * _timed(tracer, "memory.l1_lookup_fill", "memory", l1) / n,
        "memory.mshr_alloc_release_us": 1e6 * _timed(tracer, "memory.mshr_alloc_release", "memory", mshrs) / n,
        "memory.fetch_line_us": 1e6 * _timed(tracer, "memory.fetch_line", "memory", fetch) / n,
    }


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------
def core_probes(tracer, seed: int, config) -> dict:
    from repro.core.load_monitor import LoadMonitor
    from repro.core.victim_tag_table import VictimTagTable

    rng = random.Random(seed + 1)
    n = PROBE_ACCESSES
    lb = config.linebacker
    vtt = VictimTagTable(
        num_sets=config.gpu.l1_num_sets,
        ways=lb.vtt_ways,
        max_partitions=lb.max_vtt_partitions,
        register_offset=lb.register_offset,
        vp_access_latency=lb.vp_access_latency,
        total_registers=config.gpu.num_warp_registers,
    )
    for index in range(4):
        vtt.activate(index)
    capacity = vtt.active_capacity_lines()
    addrs = [rng.randrange(2 * capacity) for _ in range(n)]

    def vtt_stream() -> None:
        lookup, insert = vtt.lookup, vtt.insert
        for addr in addrs:
            if lookup(addr) is None:
                insert(addr)

    monitor = LoadMonitor(
        num_entries=lb.lm_entries,
        hpc_bits=lb.hpc_bits,
        hit_ratio_threshold=lb.hit_ratio_threshold,
        min_accesses=lb.min_accesses,
    )
    pcs = [0x100 + 0x104 * slot for slot in range(8)]
    # The high-locality half of the PCs swaps every window, so the
    # monitor never sees the same set twice and keeps monitoring (a
    # selected or disabled monitor would turn record_access into a no-op).
    window = lb.window_cycles
    accesses = []
    for i in range(n):
        slot = rng.randrange(len(pcs))
        favoured = (slot < 4) == ((i // window) % 2 == 0)
        accesses.append((pcs[slot], favoured and rng.random() < 0.6))

    def lm_stream() -> None:
        record = monitor.record_access
        for i, (pc, hit) in enumerate(accesses):
            record(pc, hit)
            if i % window == window - 1:
                monitor.close_window()

    out = {
        "core.vtt_lookup_insert_us": 1e6 * _timed(tracer, "core.vtt_lookup_insert", "core", vtt_stream) / n,
        "core.lm_record_us": 1e6 * _timed(tracer, "core.lm_record", "core", lm_stream) / n,
    }
    if not monitor.monitoring:
        raise RuntimeError("load-monitor probe left the monitoring state")
    return out


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------
def runner_probes(tracer, specs: list, payloads: list, cache_dir: str) -> dict:
    """Spec hashing, portability, wire codec and cache I/O on the real
    specs and results of the traced sweep."""
    from repro.runner import wire
    from repro.runner.cache import MISS, ResultCache
    from repro.runner.registry import resolve
    from repro.runner.snapshot import portable
    from repro.workloads.spec import build_workload

    n = len(specs)

    def keys() -> None:
        for spec in specs:
            spec.key

    live = [
        resolve(spec.arch).runner(spec.config, build_workload(spec.workload, spec.scale))
        for spec in specs[:8]
    ]

    def make_portable() -> None:
        for value in live:
            portable(value)

    job_lines: list = []
    result_lines: list = []

    def job_rt() -> None:
        for spec in specs:
            line = wire.encode_job(spec.key, spec)
            job_lines.append(len(line))
            wire.decode_job(line)

    def result_rt() -> None:
        for spec, payload in zip(specs, payloads):
            line = wire.encode_result(spec.key, payload, 0.0)
            result_lines.append(len(line))
            wire.decode_result(line)

    cache = ResultCache(cache_dir)
    cache_keys = [cache.key_for(spec) for spec in specs]

    def put() -> None:
        for key, payload in zip(cache_keys, payloads):
            cache.put(key, payload)

    def get() -> None:
        for key in cache_keys:
            if cache.get(key) is MISS:
                raise RuntimeError("cache probe read back a miss")

    spec_key = _timed(tracer, "runner.spec_key", "runner", keys)
    # spec.key is hashed once more per encode_job call; take it out.
    job_seconds = _timed(tracer, "runner.wire_job_rt", "runner", job_rt) - spec_key
    return {
        "runner.spec_key_us": 1e6 * spec_key / n,
        "runner.portable_ms": 1e3 * _timed(tracer, "runner.portable", "runner", make_portable) / len(live),
        "runner.payload_bytes": sum(len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)) for p in payloads) / n,
        "runner.wire_job_rt_us": 1e6 * max(0.0, job_seconds) / n,
        "runner.wire_result_rt_ms": 1e3 * _timed(tracer, "runner.wire_result_rt", "runner", result_rt) / n,
        "runner.cache_put_ms": 1e3 * _timed(tracer, "runner.cache_put", "runner", put) / n,
        "runner.cache_get_ms": 1e3 * _timed(tracer, "runner.cache_get", "runner", get) / n,
    }


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------
def service_probes(tracer, client, coordinator, done_specs: list, fresh_specs: list) -> dict:
    """HTTP floor, schema codec, warm submit / result GETs, and the
    coordinator without HTTP (on jobs it has not seen)."""
    from repro.service.schema import decode_jobspec, encode_jobspec

    def healthz() -> None:
        for _ in range(50):
            client.healthz()

    def schema_rt() -> None:
        for spec in done_specs:
            decode_jobspec(encode_jobspec(spec))

    job_ids: list = []

    def submit() -> None:
        for spec in done_specs:
            job_ids.append(client.submit(spec)["job_id"])

    def result() -> None:
        for job_id in job_ids:
            client.result(job_id, timeout=30)

    def coordinator_rt() -> None:
        for spec in fresh_specs:
            job, _, _ = coordinator.submit(spec)
            settled = coordinator.wait(job.id, timeout=30)
            if settled is None or settled.status != "done":
                raise RuntimeError(f"coordinator probe job ended {settled and settled.status}")

    n = len(done_specs)
    return {
        "service.healthz_ms": 1e3 * _timed(tracer, "service.healthz", "service", healthz) / 50,
        "service.schema_rt_us": 1e6 * _timed(tracer, "service.schema_rt", "service", schema_rt) / n,
        "service.http_submit_ms": 1e3 * _timed(tracer, "service.http_submit", "service", submit) / n,
        "service.http_result_ms": 1e3 * _timed(tracer, "service.http_result", "service", result) / n,
        "service.coordinator_rt_ms": 1e3 * _timed(tracer, "service.coordinator_rt", "service", coordinator_rt) / len(fresh_specs),
    }
