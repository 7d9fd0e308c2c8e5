"""The per-instruction trace generator, kept as the oracle's stream source.

:func:`warp_stream` reads a :class:`~repro.workloads.spec.WorkloadSpec`
and emits one ``Instruction`` per generator step. It derives the
iteration scaling, each tenant's address-region window and its store
region with its own code, so the reference engine (``sm.py``) reads
its streams from code independent of the compiled
``repro.workloads.generator.Program`` the machine runs, and machine ==
oracle also holds that program's relocation arithmetic to this one.
"""

from __future__ import annotations

from typing import Iterator

from repro.gpu.isa import Instruction, Op, alu, exit_inst, hashed_pc, store
from repro.workloads.generator import Pattern, Scope
from repro.workloads.spec import KernelPhase, WorkloadSpec

_MIX = 0x9E3779B1  # Fibonacci hashing constant for address scrambling.
_MASK32 = 0xFFFFFFFF


def _scramble(t: int, lane: int, j: int) -> int:
    """Murmur-style avalanche hash of (iteration, warp, line slot).

    DIVERGENT accesses must look i.i.d.-uniform over the region. A
    plain ``(t * odd_constant) % ws`` is a *permutation* of the region
    — a warp would never revisit a line within ``ws`` iterations, so a
    nominally random pattern would behave like streaming. The
    finalizer below destroys that structure, giving birthday-rate
    collisions and therefore a hit ratio that scales smoothly with
    (resident capacity / region size).
    """
    h = (t * _MIX + lane * 0xC2B2AE35 + j * 0x27D4EB2F) & _MASK32
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def warp_stream(
    workload: WorkloadSpec, scale: float, cta_id: int, warp: int
) -> Iterator[Instruction]:
    """One warp's stream: its CTA's tenant's phases end to end, one EXIT.

    CTA ``i`` runs tenant ``i % T``. Address space is cut into slots of
    ``1 << 22`` lines; a tenant takes (widest phase's load count + 3)
    slots after every earlier tenant's: one unused, one per load index
    (the same region in every phase), one unused, then its stores.
    """
    tenants = workload.tenants
    first_slot = 0
    for tenant in tenants[: cta_id % len(tenants)]:
        first_slot += max(len(phase.loads) for phase in tenant.phases) + 3
    tenant = tenants[cta_id % len(tenants)]
    store_slot = first_slot + max(len(phase.loads) for phase in tenant.phases) + 2
    for phase in tenant.phases:
        iterations = phase.iterations if scale == 1.0 else max(8, int(phase.iterations * scale))
        yield from _phase_stream(
            phase, iterations, workload.warps_per_cta, first_slot, store_slot << 22, cta_id, warp
        )
    yield exit_inst()


def _phase_stream(
    phase: KernelPhase,
    iterations: int,
    warps_per_cta: int,
    first_slot: int,
    store_base: int,
    cta_id: int,
    warp: int,
) -> Iterator[Instruction]:
    """One phase of one warp's stream, without the final EXIT."""
    global_warp = cta_id * warps_per_cta + warp
    alu_ops = phase.alu_per_iteration

    # Pre-compute a flat per-load plan (base address, hashed PC,
    # pattern-specific offsets) so the emission loop reads locals and
    # tuple slots instead of dataclass attributes per access. The
    # XOR fold, scope phase and stream base are all per-static-load
    # constants for a given warp.
    stream_p = Pattern.STREAM
    divergent_p = Pattern.DIVERGENT
    plan = []
    for idx, ld in enumerate(phase.loads):
        base = (first_slot + idx + 1) << 22
        if ld.scope is Scope.CTA:
            base += cta_id * ld.working_set_lines
        elif ld.scope is Scope.WARP:
            base += global_warp * ld.working_set_lines
        ws = max(1, ld.working_set_lines)
        pattern = ld.pattern
        if pattern is stream_p:
            # Unique line per dynamic access across the grid: the warp's
            # stream region starts at a per-warp offset, advanced by the
            # running counter (plan slot "extra" = region start).
            extra = base + global_warp * iterations * ld.weight
        elif pattern is divergent_p:
            extra = 0
        else:  # REUSE: per-warp phase shift within the working set
            phase_warp = global_warp if ld.scope is Scope.GLOBAL else warp
            extra = phase_warp * (ws // max(1, warps_per_cta))
        plan.append(
            (
                pattern,
                ld.pc,
                hashed_pc(ld.pc),
                ld.weight,
                ld.lines_per_access,
                ws,
                ld.stride,
                max(1, ld.reuse_burst),
                base,
                extra,
                idx,
            )
        )
    op_load = Op.LOAD
    # One interned ALU instruction emitted alu_per_iteration times per
    # loop body: a pre-built block avoids the memo probe per emission.
    alu_block = (alu(pc=0x10),) * alu_ops
    stream_counters = [0] * len(phase.loads)

    for t in range(iterations):
        yield from alu_block
        for pattern, pc, hpc, weight, lpa, ws, stride, burst, base, extra, idx in plan:
            for rep in range(weight):
                if pattern is stream_p:
                    seq = stream_counters[idx]
                    stream_counters[idx] = seq + 1
                    first = extra + seq
                    if lpa == 1:
                        lines = (first,)
                    else:
                        lines = tuple(first + j for j in range(lpa))
                elif pattern is divergent_p:
                    # Hash the *global* warp id: warp k of different
                    # CTAs must not generate identical streams
                    # (lockstep duplicates would merge in the MSHRs
                    # and never produce a hit).
                    if lpa == 1:
                        lines = (
                            base + _scramble(t * stride + rep, global_warp, 0) % ws,
                        )
                    else:
                        lines = tuple(
                            base + (_scramble(t * stride + rep, global_warp, j) % ws)
                            for j in range(lpa)
                        )
                else:  # REUSE
                    offset = ((t // burst) * stride + rep + extra) % ws
                    if lpa == 1:
                        lines = (base + offset,)
                    else:
                        lines = tuple(
                            base + ((offset + j * 17) % ws) for j in range(lpa)
                        )
                # Direct construction (not the load() wrapper): the
                # emission loop is the hot path of trace generation.
                yield Instruction(
                    op=op_load, pc=pc, line_addrs=lines, operands=2, hpc=hpc
                )
        for st in phase.stores:
            if st.every_iterations > 0 and t % st.every_iterations == 0:
                addr = store_base + global_warp * iterations + t
                yield store(pc=st.pc, line_addrs=(addr,))
