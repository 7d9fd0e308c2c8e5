"""Synthetic kernel generator.

The paper evaluates on 20 CUDA applications (Table 2). Without the
binaries or a PTX front end, we synthesize each application as a
parameterized kernel model whose *load-level characteristics* match
what the paper's motivational study measures per app:

* a small set of static loads, each with its own working-set size,
  sharing scope (global / per-CTA / per-warp), stride and divergence
  (paper Section 2.3: locality behaviour is a property of the static
  load and is consistent across warps);
* streaming loads that touch every line exactly once (>95% miss ratio
  with an infinite cache — the paper's streaming criterion);
* per-thread register counts that determine statically unused register
  space, and CTA grids sized so every SM gets work.

Addresses are line-granular integers. The pseudo-random components use
fixed multiplicative hashing so traces are deterministic without
per-instruction RNG overhead.

Every kernel :func:`repro.workloads.spec.build_workload` compiles
carries its :class:`Program`, the one implementation of that address
arithmetic: it compiles a warp straight to the machine's
struct-of-arrays form, and the kernel's ``Instruction`` view is decoded
from the same streams.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.gpu.isa import (
    OP_ALU,
    OP_EXIT,
    OP_LOAD,
    OP_STORE,
    Instruction,
    Op,
    alu,
    exit_inst,
    hashed_pc,
    store,
)

if TYPE_CHECKING:
    from repro.workloads.spec import TenantSpec, WorkloadSpec


class Scope(enum.Enum):
    """How a load's working set is shared."""

    GLOBAL = "global"   # one region shared by every warp (e.g. centroids)
    CTA = "cta"         # one region per CTA (e.g. a tile)
    WARP = "warp"       # one region per warp (e.g. private rows)


class Pattern(enum.Enum):
    REUSE = "reuse"       # wraps around the working set: high locality
    STREAM = "stream"     # monotone, never revisits a line
    DIVERGENT = "divergent"  # irregular within the region (graph-like)


@dataclass(frozen=True)
class LoadSpec:
    """One static load instruction's behaviour."""

    pc: int
    pattern: Pattern
    working_set_lines: int = 64
    scope: Scope = Scope.GLOBAL
    stride: int = 1
    lines_per_access: int = 1   # >1 models uncoalesced (divergent) access
    weight: int = 1             # issues per loop iteration
    #: REUSE loads revisit the same line for this many consecutive
    #: iterations before advancing — short temporal bursts, the
    #: realistic middle ground between pure streaming and the
    #: LRU-adversarial cyclic sweep.
    reuse_burst: int = 2


@dataclass(frozen=True)
class StoreSpec:
    """Output traffic: stores stream into a per-CTA output region."""

    pc: int
    every_iterations: int = 8


_MIX = 0x9E3779B1  # Fibonacci hashing constant for address scrambling.
_MASK32 = 0xFFFFFFFF
_SLOT_ONE = (1).to_bytes(8, "little")


def _scramble(t: int, lane: int, j: int) -> int:
    """Murmur-style avalanche hash of (iteration, warp, line slot).

    DIVERGENT accesses must look i.i.d.-uniform over the region. A
    plain ``(t * odd_constant) % ws`` is a *permutation* of the region
    — a warp would never revisit a line within ``ws`` iterations, so a
    nominally random pattern would behave like streaming. The
    finalizer in :func:`_scramble_packed` destroys that structure,
    giving birthday-rate collisions and therefore a hit ratio that
    scales smoothly with (resident capacity / region size).
    """
    return _scramble_packed(_pack_terms((t,)), lane, j)[0]


def _pack_terms(ts) -> tuple:
    """A DIVERGENT column's iteration terms ``t * _MIX``, packed one per
    64-bit slot of a single int, with the slot mask and the codec that
    unpacks a result."""
    codec = struct.Struct(f"<{len(ts)}Q")
    packed = int.from_bytes(codec.pack(*[(t * _MIX) & _MASK32 for t in ts]), "little")
    ones = int.from_bytes(_SLOT_ONE * len(ts), "little")
    return packed, ones, ones * _MASK32, codec


def _scramble_packed(terms: tuple, lane: int, j: int) -> tuple[int, ...]:
    """``_scramble(t, lane, j)`` for every packed ``t`` at once.

    Each step is one big-int operation over all slots. A slot holds a
    32-bit value, so a sum of two stays below 2**33 and a product with
    a 32-bit constant below 2**64: nothing carries into the next slot,
    and the slot mask drops what a right shift brings in from it.
    """
    packed, ones, mask, codec = terms
    h = (packed + ((lane * 0xC2B2AE35 + j * 0x27D4EB2F) & _MASK32) * ones) & mask
    h ^= (h >> 16) & mask
    h = (h * 0x85EBCA6B) & mask
    h ^= (h >> 13) & mask
    h = (h * 0xC2B2AE35) & mask
    h ^= (h >> 16) & mask
    return codec.unpack(h.to_bytes(codec.size, "little"))


def scaled_iterations(iterations: int, scale: float) -> int:
    """The one scaling rule: iterations shrink, the CTA grid does not.

    The grid keeps its multi-wave shape so CTA turnover and drain
    behaviour stay realistic at any scale.
    """
    if scale == 1.0:
        return iterations
    return max(8, int(iterations * scale))


#: PC of every generated ALU instruction (the decode view rebuilds it).
_ALU_PC = 0x10


class Program:
    """What a generator kernel is built from, compiled one warp at a time.

    ``workload`` is the :class:`~repro.workloads.spec.WorkloadSpec` the
    kernel was built from and ``scale`` its iteration scale. CTA ``i``
    runs tenant ``i % len(workload.tenants)``, whose phases each of its
    warps runs back to back. A Table-2 kernel is one tenant of one phase.

    :meth:`warp_streams` returns one warp's struct-of-arrays form, what
    the machine executes: the tenant's opcode / operand-count / load-PC
    templates, shared by all its warps, and the warp's own load- and
    store-address queues. Phases are concatenated with one final EXIT.
    A queue entry is an int for a one-line access and a tuple for a
    divergent multi-line one. :meth:`instructions` decodes the same
    streams back into :class:`~repro.gpu.isa.Instruction` objects — the
    ``warp_trace`` of a generator kernel.
    """

    __slots__ = ("workload", "scale", "_plans")

    def __init__(self, workload: "WorkloadSpec", scale: float) -> None:
        self.workload = workload
        self.scale = scale
        self._plans: list = [None] * len(workload.tenants)

    def _plan(self, cta_id: int) -> tuple:
        k = cta_id % len(self._plans)
        plan = self._plans[k]
        if plan is None:
            plan = self._plans[k] = _tenant_plan(self.workload, k, self.scale)
        return plan

    def warp_streams(self, cta_id: int, warp: int) -> tuple:
        """``(ops, opnds, loads, stores, load_pcs)`` of one warp."""
        ops, opnds, load_pcs, _, phases = self._plan(cta_id)
        loads, stores = _warp_queues(phases, cta_id, warp)
        return ops, opnds, loads, stores, load_pcs

    def instructions(self, cta_id: int, warp: int) -> Iterator[Instruction]:
        """One warp's stream as ``Instruction`` objects (a decode view)."""
        ops, _, load_pcs, store_pcs, phases = self._plan(cta_id)
        loads, stores = _warp_queues(phases, cta_id, warp)
        op_load = Op.LOAD
        alu_inst = alu(pc=_ALU_PC)
        li = si = 0
        for code in ops:
            if code == OP_ALU:
                yield alu_inst
            elif code == OP_LOAD:
                entry = loads[li]
                pc, hpc = load_pcs[li]
                li += 1
                lines = (entry,) if type(entry) is int else entry
                yield Instruction(op=op_load, pc=pc, line_addrs=lines, operands=2, hpc=hpc)
            elif code == OP_STORE:
                yield store(pc=store_pcs[si], line_addrs=(stores[si],))
                si += 1
            else:
                yield exit_inst()


def _widest(tenant: "TenantSpec") -> int:
    return max(len(phase.loads) for phase in tenant.phases)


def _tenant_plan(workload: "WorkloadSpec", k: int, scale: float) -> tuple:
    """The warp-independent part of tenant ``k``'s program.

    Region layout, in ``1 << 22``-line slots: tenant ``k`` owns the
    ``L_k + 3`` slots after every earlier tenant's, ``L_k`` its widest
    phase's load count; ``base_slot`` is the first. Its load ``i`` sits at
    slot ``base_slot + i + 1`` in every phase (phase-shifting working sets
    operate on the same data structure), its stores at
    ``base_slot + L_k + 2``.

    Per iteration ``t`` a phase emits its ALU block, one LOAD per
    (static load, weight repeat) — the load *columns* — then one STORE
    per store spec whose period divides ``t``. ALU and EXIT carry 3
    operands, memory ops 2. Each column's iteration terms are computed
    here once, for all warps.
    """
    tenants = workload.tenants
    base_slot = sum(_widest(tenant) + 3 for tenant in tenants[:k])
    store_base = (base_slot + _widest(tenants[k]) + 2) << 22
    warps_per_cta = workload.warps_per_cta
    ops: list[int] = []
    opnds: list[int] = []
    load_pcs: list[tuple[int, int]] = []
    store_pcs: list[int] = []
    phases = []
    for phase in tenants[k].phases:
        iterations = scaled_iterations(phase.iterations, scale)
        n_alu = phase.alu_per_iteration
        n_loads = sum(ld.weight for ld in phase.loads)
        body_ops = [OP_ALU] * n_alu + [OP_LOAD] * n_loads
        body_opnds = [3] * n_alu + [2] * n_loads
        store_ts: list[int] = []
        for t in range(iterations):
            ops += body_ops
            opnds += body_opnds
            for st in phase.stores:
                if st.every_iterations > 0 and t % st.every_iterations == 0:
                    ops.append(OP_STORE)
                    opnds.append(2)
                    store_pcs.append(st.pc)
                    store_ts.append(t)
        load_pcs += [
            (ld.pc, hashed_pc(ld.pc)) for ld in phase.loads for _ in range(ld.weight)
        ] * iterations
        columns = []
        for idx, ld in enumerate(phase.loads):
            ws = max(1, ld.working_set_lines)
            # A CTA- or WARP-scoped load addresses its entity's sub-region.
            cta_step = ld.working_set_lines if ld.scope is Scope.CTA else 0
            warp_step = ld.working_set_lines if ld.scope is Scope.WARP else 0
            for rep in range(ld.weight):
                if ld.pattern is Pattern.STREAM:
                    terms = (rep, ld.weight, iterations * ld.weight)
                elif ld.pattern is Pattern.DIVERGENT:
                    terms = _pack_terms(range(rep, rep + iterations * ld.stride, ld.stride))
                else:  # REUSE revisits a line for reuse_burst iterations
                    burst = max(1, ld.reuse_burst)
                    ks = [(t // burst) * ld.stride + rep for t in range(iterations)]
                    shift = ws // max(1, warps_per_cta)
                    terms = (ks, shift, ld.scope is Scope.GLOBAL)
                columns.append(
                    (ld.pattern, (base_slot + idx + 1) << 22, cta_step, warp_step,
                     ld.lines_per_access, ws, terms)
                )
        phases.append((iterations, warps_per_cta, store_base, columns, store_ts))
    ops.append(OP_EXIT)
    opnds.append(3)
    return ops, opnds, load_pcs, store_pcs, phases


def _warp_queues(phases: list, cta_id: int, warp: int) -> tuple[list, list]:
    """One warp's load- and store-address queues over all its phases."""
    parts = [_phase_queues(phase, cta_id, warp) for phase in phases]
    if len(parts) == 1:
        return parts[0]
    return (
        [entry for loads, _ in parts for entry in loads],
        [entry for _, stores in parts for entry in stores],
    )


def _phase_queues(phase: tuple, cta_id: int, warp: int) -> tuple[list, list]:
    iterations, warps_per_cta, store_base, columns, store_ts = phase
    global_warp = cta_id * warps_per_cta + warp
    n = len(columns)
    if n == 1:
        queue = _column(columns[0], cta_id, warp, global_warp)
    else:
        queue = [None] * (iterations * n)
        for c, column in enumerate(columns):
            queue[c::n] = _column(column, cta_id, warp, global_warp)
    store_base += global_warp * iterations
    return queue, [store_base + t for t in store_ts]


def _column(column: tuple, cta_id: int, warp: int, global_warp: int) -> list:
    """One load column's address entries for one warp, in iteration order."""
    pattern, base, cta_step, warp_step, lpa, ws, terms = column
    base += cta_id * cta_step + global_warp * warp_step
    if pattern is Pattern.STREAM:
        # A unique line per dynamic access across the grid: each warp
        # streams from its own offset, one line per emission.
        rep, step, span = terms
        first = base + global_warp * span + rep
        lines = [list(range(first + j, first + j + span, step)) for j in range(lpa)]
    elif pattern is Pattern.DIVERGENT:
        # Hash the *global* warp id: warp k of different CTAs must not
        # generate identical streams (lockstep duplicates would merge in
        # the MSHRs and never produce a hit).
        lines = [
            [base + h % ws for h in _scramble_packed(terms, global_warp, j)] for j in range(lpa)
        ]
    else:  # REUSE: a per-warp phase shift within the working set
        ks, shift, by_global_warp = terms
        extra = (global_warp if by_global_warp else warp) * shift
        lines = [[base + (k + extra + j * 17) % ws for k in ks] for j in range(lpa)]
    return lines[0] if lpa == 1 else list(zip(*lines))
