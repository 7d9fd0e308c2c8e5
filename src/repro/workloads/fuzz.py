"""Seeded scenario fuzzer with paper-rule classification gates.

The 20 Table-2 apps pin the *published* operating points; this module
generates workloads the suite never visits — LRU-adversarial
thrashers, phase-shifting working sets, multi-kernel sequences,
co-resident multi-tenant kernels, and register-pressure extremes — and
holds every one of them to two bars:

1. **Classification gates** (:func:`check_gates`, the one
   published-class rule: the 20 Table-2 apps are held to it too): a
   fuzzed spec is a *real* scenario, not noise. The analytic
   classifier must re-derive exactly what the spec declares, per
   static load: streaming PCs classify streaming (and never revisit a
   line in the sampled prefix), reuse/divergent PCs do not, coalescing
   and sharing scopes match, and per-warp locality is consistent
   (paper Section 2.3).
   The JSON document round-trips bit-exactly, and trace generation is
   deterministic.
2. **Engine invariants** (:func:`differential_check`): simulating the
   spec under Linebacker, Best-SWL and the baseline must preserve the
   conservation laws of the memory pipeline (every load line is
   exactly one of L1 hit / victim hit / miss / bypass; cold +
   capacity misses = probe misses), the VTT structural properties
   from ``tests/test_properties.py`` (valid entries hold unique
   register numbers inside their *active* partition's range, and the
   occupancy masks match the tag maps), backup/restore
   conservation (no restore without a backup), inline-vs-loopback
   executor **bit-identity** on the full statistics fingerprint, and,
   against every other registered engine, the same fingerprint and
   per-SM MSHR-stall replay counts.

Generation is deterministic per ``(seed, index)`` — a CI failure
reproduces locally from the seed alone — and every generated spec
validates under :func:`repro.workloads.spec.validate_workload`. The
generator deliberately constrains itself so the gates are *provably*
reachable (e.g. a REUSE working set never exceeds 3/4 of the lines a
warp touches, so it can never straddle the streaming threshold; a
DIVERGENT region is at most a third of a warp's draws, so birthday
statistics keep per-warp locality tightly clustered).

``python -m repro fuzz`` drives this end to end; ``minimize`` shrinks
a failing spec greedily while the caller's predicate keeps failing.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Callable, Optional

from repro.config import scaled_config
from repro.workloads.classify import WorkloadClassification, classify_workload
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec
from repro.workloads.spec import (
    KernelPhase,
    TenantSpec,
    WorkloadSpec,
    WorkloadSpecError,
    build_workload,
    decode_workload,
    encode_workload,
    validate_workload,
    workload_hash,
)

#: Scenario families, cycled by corpus index so every corpus of >= 4
#: specs exercises all of them.
FAMILIES = ("thrash", "phase_shift", "multi_tenant", "mixed")

# Suite-style PC spacing (avoids hashed-PC collisions within a spec).
_PC_BASE = 0x100
_PC_STEP = 0x104
_STORE_PC_BASE = 0x1510


def _load_pc(slot: int) -> int:
    return _PC_BASE + _PC_STEP * slot


def _store_pc(slot: int) -> int:
    return _STORE_PC_BASE + _PC_STEP * slot


# ---------------------------------------------------------------------------
# Constrained load generators (gate-reachable by construction)
# ---------------------------------------------------------------------------
def _coprime_ws(rng: random.Random, stride: int, lo: int, hi: int) -> int:
    """A working-set size in [lo, hi] coprime with ``stride``, so a
    strided REUSE sweep covers the whole region (sharing scopes stay
    observable and coverage analysis stays exact)."""
    hi = max(lo, hi)
    ws = rng.randint(lo, hi)
    while ws > 1 and math.gcd(stride, ws) != 1:
        ws -= 1
    return max(1, ws)


def _reuse_load(
    rng: random.Random,
    pc: int,
    scope: Scope,
    iterations: int,
    *,
    thrash: bool = False,
) -> LoadSpec:
    burst = 1 if thrash else rng.choice((1, 2, 4))
    weight = rng.choice((1, 2))
    # Cap: a warp's sweep must wrap the region (ws <= 3/4 of distinct
    # offsets), so the load can never classify as streaming and every
    # sharing scope overlap is guaranteed, not probabilistic.
    cap = max(4, (3 * (iterations // burst)) // 4)
    lo = min(cap, 48 if thrash else 4)
    stride = rng.choice((1, 1, 1, 2, 3, 5))
    ws = _coprime_ws(rng, stride, lo, cap)
    return LoadSpec(pc=pc, pattern=Pattern.REUSE, working_set_lines=ws,
                    scope=scope, stride=stride, weight=weight,
                    reuse_burst=burst)


def _divergent_load(
    rng: random.Random, pc: int, scope: Scope, iterations: int
) -> LoadSpec:
    weight = rng.choice((1, 2))
    lines_per_access = rng.choice((1, 1, 2, 4))
    draws = iterations * weight * lines_per_access
    # Region at most a third of a warp's draws: pooled cold ratio
    # lands far below the streaming threshold and per-warp ratios
    # cluster (birthday statistics with lambda >= 3).
    ws = rng.randint(8, max(8, draws // 3))
    return LoadSpec(pc=pc, pattern=Pattern.DIVERGENT, working_set_lines=ws,
                    scope=scope, lines_per_access=lines_per_access,
                    weight=weight)


def _stream_load(rng: random.Random, pc: int) -> LoadSpec:
    return LoadSpec(pc=pc, pattern=Pattern.STREAM, working_set_lines=0,
                    weight=rng.choice((1, 2)))


def _any_scope(rng: random.Random) -> Scope:
    return rng.choice((Scope.GLOBAL, Scope.CTA, Scope.WARP))


def _maybe_store(rng: random.Random, slot: int) -> tuple[StoreSpec, ...]:
    if rng.random() < 0.4:
        return (StoreSpec(pc=_store_pc(slot),
                          every_iterations=rng.choice((4, 8, 16))),)
    return ()


# ---------------------------------------------------------------------------
# Scenario families
# ---------------------------------------------------------------------------
def _fuzz_thrash(rng: random.Random) -> tuple[int, int, tuple[TenantSpec, ...]]:
    """LRU-adversarial cyclic sweeps: burst-1 REUSE with working sets
    sized against the 384-line L1, multiple resident CTAs."""
    iterations = rng.randint(96, 160)
    loads = [_reuse_load(rng, _load_pc(0), rng.choice((Scope.CTA, Scope.GLOBAL)),
                         iterations, thrash=True)]
    if rng.random() < 0.5:
        loads.append(_stream_load(rng, _load_pc(1)))
    phase = KernelPhase(iterations=iterations, loads=tuple(loads),
                        stores=_maybe_store(rng, 0),
                        alu_per_iteration=rng.randint(1, 4))
    num_ctas = rng.randint(8, 16)
    warps = rng.randint(2, 4)
    return num_ctas, warps, (TenantSpec(name="thrash", phases=(phase,)),)


def _fuzz_phase_shift(
    rng: random.Random,
) -> tuple[int, int, tuple[TenantSpec, ...]]:
    """Multi-kernel sequences whose working sets shift phase to phase:
    the same static loads (fixed pattern/scope per PC) re-rolled with
    new sizes/strides, defeating any one-shot window selection."""
    num_phases = rng.randint(2, 4)
    slots = []
    for slot in range(rng.randint(1, 3)):
        pattern = rng.choice((Pattern.REUSE, Pattern.REUSE, Pattern.DIVERGENT))
        scope = _any_scope(rng)
        # CTA/WARP scopes carve per-entity sub-regions of size ws
        # (base + entity * ws): re-rolling ws across phases would alias
        # one entity's phase-2 region onto another's phase-1 region and
        # turn a declared-private load into observed sharing. Scoped
        # slots therefore pin ws for the whole sequence; only GLOBAL
        # slots get genuinely phase-shifting working sets.
        if scope is Scope.GLOBAL:
            fixed_ws = None
        elif pattern is Pattern.REUSE:
            fixed_ws = rng.randint(4, 16)
        else:
            fixed_ws = 8  # <= min draws (24 iterations) / 3
        slots.append((slot, pattern, scope, fixed_ws))
    stream_slot = len(slots)
    phases = []
    for pi in range(num_phases):
        iterations = rng.randint(24, 64)
        loads = []
        for slot, pattern, scope, fixed_ws in slots:
            if pattern is Pattern.REUSE:
                if fixed_ws is None:
                    loads.append(_reuse_load(rng, _load_pc(slot), scope,
                                             iterations,
                                             thrash=rng.random() < 0.3))
                else:
                    stride = rng.choice([s for s in (1, 2, 3, 5)
                                         if math.gcd(s, fixed_ws) == 1])
                    loads.append(LoadSpec(
                        pc=_load_pc(slot), pattern=Pattern.REUSE,
                        working_set_lines=fixed_ws, scope=scope,
                        stride=stride, weight=rng.choice((1, 2)),
                        reuse_burst=1,
                    ))
            elif fixed_ws is None:
                loads.append(_divergent_load(rng, _load_pc(slot), scope,
                                             iterations))
            else:
                loads.append(LoadSpec(
                    pc=_load_pc(slot), pattern=Pattern.DIVERGENT,
                    working_set_lines=fixed_ws, scope=scope,
                    lines_per_access=rng.choice((1, 2)),
                    weight=rng.choice((1, 2)),
                ))
        if rng.random() < 0.3:
            # Streams touch each line once, so each phase gets its own PC.
            loads.append(_stream_load(rng, _load_pc(stream_slot + pi)))
        phases.append(KernelPhase(
            iterations=iterations, loads=tuple(loads),
            stores=_maybe_store(rng, pi),
            alu_per_iteration=rng.randint(1, 6),
        ))
    num_ctas = rng.randint(6, 16)
    warps = rng.randint(2, 4)
    return num_ctas, warps, (TenantSpec(name="phases", phases=tuple(phases)),)


def _fuzz_multi_tenant(
    rng: random.Random,
) -> tuple[int, int, tuple[TenantSpec, ...]]:
    """Co-resident kernels with contrasting locality: a cache-friendly
    tenant sharing the L1 with a polluting one — the regime where
    victim-line preservation must not corrupt the friendly tenant."""
    num_tenants = rng.randint(2, 3)
    tenants = []
    slot = 0
    for ti in range(num_tenants):
        iterations = rng.randint(32, 80)
        friendly = ti == 0 or rng.random() < 0.4
        loads = []
        if friendly:
            loads.append(_reuse_load(rng, _load_pc(slot),
                                     rng.choice((Scope.CTA, Scope.GLOBAL)),
                                     iterations))
            slot += 1
            if rng.random() < 0.4:
                loads.append(_divergent_load(rng, _load_pc(slot),
                                             _any_scope(rng), iterations))
                slot += 1
        else:
            loads.append(rng.choice((
                _stream_load(rng, _load_pc(slot)),
                _reuse_load(rng, _load_pc(slot), _any_scope(rng), iterations,
                            thrash=True),
            )))
            slot += 1
            if rng.random() < 0.5:
                loads.append(_stream_load(rng, _load_pc(slot)))
                slot += 1
        tenants.append(TenantSpec(
            name=f"t{ti}",
            phases=(KernelPhase(iterations=iterations, loads=tuple(loads),
                                stores=_maybe_store(rng, ti),
                                alu_per_iteration=rng.randint(1, 6)),),
        ))
    num_ctas = num_tenants * rng.randint(2, 6)
    warps = rng.randint(2, 4)
    return num_ctas, warps, tuple(tenants)


def _fuzz_mixed(rng: random.Random) -> tuple[int, int, tuple[TenantSpec, ...]]:
    """Unstructured draw over the whole constrained space."""
    iterations = rng.randint(24, 96)
    loads = []
    for slot in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4:
            loads.append(_reuse_load(rng, _load_pc(slot), _any_scope(rng),
                                     iterations, thrash=rng.random() < 0.25))
        elif kind < 0.7:
            loads.append(_divergent_load(rng, _load_pc(slot), _any_scope(rng),
                                         iterations))
        else:
            loads.append(_stream_load(rng, _load_pc(slot)))
    phase = KernelPhase(iterations=iterations, loads=tuple(loads),
                        stores=_maybe_store(rng, 0),
                        alu_per_iteration=rng.randint(1, 8))
    num_ctas = rng.randint(4, 24)
    warps = rng.randint(2, 4)
    return num_ctas, warps, (TenantSpec(name="main", phases=(phase,)),)


_FAMILY_FNS = {
    "thrash": _fuzz_thrash,
    "phase_shift": _fuzz_phase_shift,
    "multi_tenant": _fuzz_multi_tenant,
    "mixed": _fuzz_mixed,
}


def fuzz_workload(
    seed: int, index: int = 0, family: Optional[str] = None
) -> WorkloadSpec:
    """Generate one validated workload, deterministic per (seed, index)."""
    rng = random.Random(seed * 1_000_003 + index)
    family = family or FAMILIES[index % len(FAMILIES)]
    num_ctas, warps, tenants = _FAMILY_FNS[family](rng)
    spec = WorkloadSpec(
        name=f"fz-{seed:x}-{index:03d}-{family.replace('_', '')}",
        description=f"fuzzed {family} scenario (seed={seed}, index={index})",
        num_ctas=num_ctas,
        warps_per_cta=warps,
        # Register-pressure regimes from near-zero slack to >50% SUR
        # (the RegDem/compiler-RF-cache motivation): rankings flip here.
        regs_per_thread=rng.choice((8, 16, 16, 24, 32, 48, 64)),
        tenants=tenants,
    )
    return validate_workload(spec)


def generate_corpus(seed: int, count: int) -> list[WorkloadSpec]:
    """``count`` deterministic workloads for ``seed``."""
    return [fuzz_workload(seed, index) for index in range(count)]


# ---------------------------------------------------------------------------
# Gate 1: classification invariants
# ---------------------------------------------------------------------------
def _declared_loads(spec: WorkloadSpec) -> dict[int, tuple[Pattern, Scope, bool, int]]:
    """Per static load PC: its declared pattern and scope, whether any
    phase issues it uncoalesced, and the tenant that issues it."""
    out: dict[int, tuple[Pattern, Scope, bool, int]] = {}
    for ti, tenant in enumerate(spec.tenants):
        for phase in tenant.phases:
            for ld in phase.loads:
                prev = out.get(ld.pc)
                uncoalesced = ld.lines_per_access > 1 or (prev is not None and prev[2])
                out[ld.pc] = (ld.pattern, ld.scope, uncoalesced, ti)
    return out


def _expected_sharing(
    spec: WorkloadSpec, pattern: Pattern, scope: Scope, ctas_in_tenant: int
) -> str:
    if pattern is Pattern.STREAM or scope is Scope.WARP:
        return "private"
    if scope is Scope.CTA:
        return "intra-cta" if spec.warps_per_cta >= 2 else "private"
    if ctas_in_tenant >= 2:
        return "inter-cta"
    return "intra-cta" if spec.warps_per_cta >= 2 else "private"


def check_gates(
    spec: WorkloadSpec, scale: float = 1.0
) -> tuple[list[str], Optional[WorkloadClassification]]:
    """Classification gates; returns (problems, classification)."""
    problems: list[str] = []
    try:
        validate_workload(spec)
    except WorkloadSpecError as exc:
        return [f"validation: {exc}"], None

    # Document round trip must be exact, including the content hash.
    round_trip = decode_workload(encode_workload(spec))
    if round_trip != spec or workload_hash(round_trip) != workload_hash(spec):
        problems.append("encode/decode round trip is not the identity")

    # Trace generation must be deterministic across materializations.
    k1, k2 = build_workload(spec, scale), build_workload(spec, scale)
    probe_warp = (spec.num_ctas - 1, spec.warps_per_cta - 1)
    for cta, warp in ((0, 0), probe_warp):
        if list(k1.warp_trace(cta, warp)) != list(k2.warp_trace(cta, warp)):
            problems.append(f"trace for cta={cta} warp={warp} is not deterministic")

    classification = classify_workload(spec, scale)
    measured = {lc.pc: lc for lc in classification.loads}
    for pc, (pattern, scope, uncoalesced, ti) in sorted(_declared_loads(spec).items()):
        lc = measured.get(pc)
        if lc is None:
            problems.append(f"pc {pc}: never observed in the sampled prefix")
            continue
        want_streaming = pattern is Pattern.STREAM
        if lc.streaming != want_streaming:
            problems.append(
                f"pc {pc}: declared {pattern.value} but classifier says "
                f"streaming={lc.streaming} (cold ratio "
                f"{lc.infinite_miss_ratio:.3f})"
            )
        if want_streaming and lc.unique_lines != lc.line_touches:
            problems.append(
                f"pc {pc}: STREAM revisited a line "
                f"({lc.line_touches - lc.unique_lines} repeats)"
            )
        if lc.uncoalesced != uncoalesced:
            problems.append(
                f"pc {pc}: uncoalesced={lc.uncoalesced}, declared "
                f"lines_per_access {'>1' if uncoalesced else '==1'}"
            )
        ctas_in_tenant = len(range(ti, spec.num_ctas, len(spec.tenants)))
        want_sharing = _expected_sharing(spec, pattern, scope, ctas_in_tenant)
        if lc.sharing != want_sharing:
            problems.append(
                f"pc {pc}: sharing={lc.sharing!r}, expected {want_sharing!r} "
                f"({scope.value} scope)"
            )
        if not lc.consistent_across_warps:
            problems.append(
                f"pc {pc}: per-warp locality inconsistent (Section 2.3)"
            )
    return problems, classification


# ---------------------------------------------------------------------------
# Gate 2: engine invariants + executor bit-identity
# ---------------------------------------------------------------------------
def _fingerprint(value) -> dict:
    """Full statistics fingerprint (mirrors the golden matrix's)."""
    stats = value.sm_stats
    return {
        "instructions": value.instructions,
        "cycles": value.cycles,
        "loads": sum(s.loads for s in stats),
        "stores": sum(s.stores for s in stats),
        "l1_hits": sum(s.l1_hits for s in stats),
        "l1_misses": sum(s.l1_misses for s in stats),
        "victim_hits": sum(s.victim_hits for s in stats),
        "bypasses": sum(s.bypasses for s in stats),
        "mem_requests": sum(s.mem_requests for s in stats),
        "dram_reads": value.dram_reads,
        "dram_writes": value.dram_writes,
        "backup_write_lines": value.traffic.backup_write_lines,
        "restore_read_lines": value.traffic.restore_read_lines,
        "per_sm_instructions": [s.instructions for s in stats],
    }


def _conservation_problems(result, label: str) -> list[str]:
    """Memory-pipeline conservation laws on one simulation result."""
    problems = []
    for sm_id, (stats, l1) in enumerate(zip(result.sm_stats, result.l1_stats)):
        if l1.cold_misses + l1.capacity_conflict_misses != l1.misses:
            problems.append(
                f"{label}: SM{sm_id}: cold({l1.cold_misses}) + "
                f"2C({l1.capacity_conflict_misses}) != probe misses "
                f"({l1.misses})"
            )
        if stats.l1_hits != l1.hits:
            problems.append(
                f"{label}: SM{sm_id}: SM-level l1_hits ({stats.l1_hits}) != "
                f"cache-level hits ({l1.hits})"
            )
        if stats.victim_hits + stats.l1_misses != l1.misses:
            problems.append(
                f"{label}: SM{sm_id}: victim_hits({stats.victim_hits}) + "
                f"l1_misses({stats.l1_misses}) != probe misses ({l1.misses})"
            )
        store_lines = l1.write_hits + l1.write_misses
        served = (stats.l1_hits + stats.victim_hits + stats.l1_misses
                  + stats.bypasses)
        if served + store_lines != stats.mem_requests:
            problems.append(
                f"{label}: SM{sm_id}: hits+victim+miss+bypass ({served}) + "
                f"store lines ({store_lines}) != mem_requests "
                f"({stats.mem_requests})"
            )
    if result.traffic.restore_read_lines > result.traffic.backup_write_lines:
        problems.append(
            f"{label}: restored {result.traffic.restore_read_lines} lines "
            f"but only {result.traffic.backup_write_lines} were backed up"
        )
    return problems


def _vtt_problems(extensions, label: str) -> list[str]:
    """VTT structural invariants on the live Linebacker extensions."""
    problems = []
    for sm_id, ext in enumerate(extensions):
        vtt = getattr(ext, "vtt", None)
        if vtt is None:
            continue
        rns = []
        slots_by_set = [0] * vtt.num_sets
        for _line, partition, s, w in vtt.valid_lines():
            vp = vtt.partitions[partition]
            valid_range = vp.register_range
            rn = vp.register_number(s, w)
            rns.append(rn)
            slots_by_set[s] |= 1 << (partition * vtt.ways + w)
            if rn not in valid_range:
                problems.append(
                    f"{label}: SM{sm_id}: VP{vp.index} register "
                    f"{rn} outside its partition range "
                    f"[{valid_range.start}, {valid_range.stop})"
                )
            if not vp.active:
                problems.append(
                    f"{label}: SM{sm_id}: valid VTT entry (set {s}, way {w}) "
                    f"in inactive VP{vp.index}"
                )
        if len(rns) != len(set(rns)):
            problems.append(
                f"{label}: SM{sm_id}: two valid VTT entries share a register"
            )
        if slots_by_set != vtt.occupancy_masks():
            problems.append(
                f"{label}: SM{sm_id}: VTT occupancy masks disagree with the "
                f"slots held in the tag maps"
            )
    return problems


def differential_check(
    spec: WorkloadSpec, *, scale: float = 1.0, sms: int = 1
) -> list[str]:
    """Simulate ``spec`` under Linebacker, Best-SWL and the baseline;
    check every engine invariant plus inline-vs-loopback bit-identity.

    The Linebacker and baseline legs are then run again on every *other*
    registered engine and compared bit for bit: nothing in production,
    the reference engine wherever a test or the CI fuzz job registered
    it (``tests/reference_engine``) — so a fuzzed workload on which the
    machine and its oracle diverge, hooks included, fails the harness.
    The per-SM MSHR-stall replay counts (``sm.mshr_stalls`` off the
    live SMs) are compared too: a miscounted replay moves no result.
    """
    from repro.engine import backend_names
    from repro.runner.engine import ExperimentRunner, execute_job
    from repro.runner.registry import resolve
    from repro.runner.spec import JobSpec

    problems: list[str] = []
    config = scaled_config(num_sms=sms)
    kernel = build_workload(spec, scale)

    # Linebacker: conservation + VTT structure + backups. The engine
    # legs keep their live SMs, whose MSHR-stall replay counts no
    # result carries.
    unpinned = resolve("linebacker").runner(config, kernel, keep_objects=True)
    problems += _conservation_problems(unpinned, "linebacker")
    problems += _vtt_problems(unpinned.extensions, "linebacker")

    # Baseline conservation (no victim path: victim_hits must be 0).
    base = resolve("baseline").runner(config, kernel, keep_objects=True)
    problems += _conservation_problems(base, "baseline")
    if sum(s.victim_hits for s in base.sm_stats):
        problems.append("baseline: non-zero victim hits without a VTT")

    for other in backend_names():
        if other == "vector":
            continue
        for arch, machine in (("linebacker", unpinned), ("baseline", base)):
            reference = resolve(arch).runner(config, kernel, backend=other, keep_objects=True)
            label = f"{arch}[{other}]"
            problems += _conservation_problems(reference, label)
            problems += _vtt_problems(reference.extensions, label)
            machine_fp, reference_fp = _fingerprint(machine), _fingerprint(reference)
            if machine_fp != reference_fp:
                diff = [k for k in reference_fp if reference_fp[k] != machine_fp.get(k)]
                problems.append(f"{arch}: the machine diverges from {other} on {diff}")
            ours = [sm.mshr_stalls for sm in machine.sms]
            theirs = [sm.mshr_stalls for sm in reference.sms]
            if ours != theirs:
                problems.append(
                    f"{arch}: MSHR-stall replays per SM are {ours} on the machine, "
                    f"{theirs} on {other}"
                )

    # Best-SWL: conservation of the winner. Its max-occupancy leg is the
    # plain baseline job, sound only if a cap at the occupancy is a no-op.
    swl = resolve("best_swl").runner(config, kernel)
    problems += _conservation_problems(swl.best_result, "best_swl")
    capped = resolve("baseline").runner(config, kernel, max_concurrent_ctas=max(swl.sweep_ipc))
    if _fingerprint(capped) != _fingerprint(base):
        problems.append("baseline: a CTA limit at the hardware occupancy changes it")

    # Executor bit-identity: the same job inline and through the full
    # wire-protocol loopback must produce identical statistics.
    job = JobSpec.build(app=spec.name, arch="linebacker", config=config,
                        scale=scale, workload=spec)
    inline_fp = _fingerprint(execute_job(job)[0])
    if inline_fp != _fingerprint(unpinned):
        problems.append("linebacker: direct run and execute_job run diverge")
    runner = ExperimentRunner(workers=1, use_cache=False, executor="loopback")
    loopback_fp = _fingerprint(runner.run_many([job])[0])
    if loopback_fp != inline_fp:
        diff = [k for k in inline_fp if inline_fp[k] != loopback_fp.get(k)]
        problems.append(
            f"executor divergence: loopback != inline on {diff}"
        )
    return problems


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------
def _spec_size(spec: WorkloadSpec) -> int:
    work = sum(
        phase.iterations * len(phase.loads)
        for tenant in spec.tenants
        for phase in tenant.phases
    ) * spec.num_ctas * spec.warps_per_cta
    footprint = sum(
        ld.working_set_lines
        for tenant in spec.tenants
        for phase in tenant.phases
        for ld in phase.loads
    )
    return work + footprint


def _shrink_candidates(spec: WorkloadSpec):
    """Structurally smaller variants, coarsest cuts first."""
    if len(spec.tenants) > 1:
        for i in range(len(spec.tenants)):
            yield replace(spec, tenants=spec.tenants[:i] + spec.tenants[i + 1:])
    for ti, tenant in enumerate(spec.tenants):
        if len(tenant.phases) > 1:
            for pi in range(len(tenant.phases)):
                phases = tenant.phases[:pi] + tenant.phases[pi + 1:]
                tenants = (spec.tenants[:ti]
                           + (replace(tenant, phases=phases),)
                           + spec.tenants[ti + 1:])
                yield replace(spec, tenants=tenants)
    for ti, tenant in enumerate(spec.tenants):
        for pi, phase in enumerate(tenant.phases):
            variants = []
            if len(phase.loads) > 1:
                variants += [
                    replace(phase, loads=phase.loads[:li] + phase.loads[li + 1:])
                    for li in range(len(phase.loads))
                ]
            if phase.stores:
                variants.append(replace(phase, stores=()))
            if phase.iterations > 8:
                variants.append(replace(phase, iterations=phase.iterations // 2))
            variants += [
                replace(phase, loads=tuple(
                    ld if ld is not target or ld.working_set_lines <= 8
                    else replace(ld, working_set_lines=ld.working_set_lines // 2)
                    for ld in phase.loads
                ))
                for target in phase.loads
                if target.working_set_lines > 8
            ]
            for variant in variants:
                phases = tenant.phases[:pi] + (variant,) + tenant.phases[pi + 1:]
                tenants = (spec.tenants[:ti]
                           + (replace(tenant, phases=phases),)
                           + spec.tenants[ti + 1:])
                yield replace(spec, tenants=tenants)
    if spec.num_ctas > 2 * len(spec.tenants):
        yield replace(spec, num_ctas=max(2 * len(spec.tenants),
                                         spec.num_ctas // 2))
    if spec.warps_per_cta > 2:
        yield replace(spec, warps_per_cta=spec.warps_per_cta // 2)


def minimize(
    spec: WorkloadSpec,
    still_fails: Callable[[WorkloadSpec], bool],
    max_steps: int = 200,
) -> WorkloadSpec:
    """Greedy shrink: keep the smallest variant that still fails.

    ``still_fails`` decides reproduction (typically: the same gate or
    invariant check still reports a problem). Invalid shrink variants
    are skipped, so the result is always a valid spec.
    """
    current = spec
    for _ in range(max_steps):
        improved = False
        for candidate in _shrink_candidates(current):
            try:
                validate_workload(candidate)
            except WorkloadSpecError:
                continue
            if _spec_size(candidate) >= _spec_size(current):
                continue
            try:
                if still_fails(candidate):
                    current = candidate
                    improved = True
                    break
            except Exception:
                # A shrink that crashes the checker still reproduces a
                # defect, but not necessarily the one under study;
                # skip it to keep the reduction on-topic.
                continue
        if not improved:
            break
    return current
