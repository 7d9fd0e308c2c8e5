"""The ``vector`` backend's execution core.

A lean re-implementation of the extension-free simulation path —
the exact semantics of the object engine's tick and next-event scan
(:meth:`repro.gpu.sm.SM.tick`), event delivery, CTA lifecycle, L1/MSHR
behaviour and the shared L2/DRAM servers — over struct-of-arrays
state:

* per-warp state lives in parallel arrays indexed by warp id
  (``state``/``ready_cycle``/``pending``/instruction pointers), not in
  ``Warp`` objects;
* instruction streams are the pre-compiled SoA buffers from
  :mod:`repro.engine.vector.compile` (one shared opcode template plus
  per-warp address queues) — no ``Instruction`` objects and no
  generator frames on the hot path;
* cache lines are bare LRU-ordered dict keys (the object engine's
  ``CacheLine`` token/hpc/owner/last-use fields are write-only in
  baseline runs, so dropping them cannot change any reported
  statistic);
* the register file keeps only what is observable — the owner map
  (allocation is first-fit, bit-for-bit), and bank-conflict epochs.

The scheduler scans read a single array: ``w_rc[w]`` holds the real
ready cycle while a warp is READY and ``inf`` otherwise, so "state is
READY and ready_cycle <= cycle" collapses to one comparison. The
encoding is exact because an unblocking memory response always carries
a ready time >= the ready cycle the warp blocked with: a warp blocks
only from a load issue (which sets ``ready_cycle = cycle + 1``), and
every event at or before that cycle was delivered before the issue, so
the unblocking event's time is >= cycle + 1 and the object engine's
``max(ready_cycle, event_time)`` is always just ``event_time``.

Decoupled SM clocks
-------------------

Each SM runs as an independent coroutine (:meth:`VectorSM.run_gen`)
with every piece of hot state bound once into frame locals — no
per-tick prologue, no method-call overhead, no global tick heap. This
is exact, not an approximation, because in the object engine's run
loop an SM's tick times are a pure function of its *own* hint chain::

    t_{n+1} = max(t_n + 1, h_n)

Proof sketch: the global loop executes a popped entry at
``max(global_prev + 1, h)``, and batches every pending entry whose
hint is <= that cycle into the same ``due`` list. If the global clock
could ever reach ``max(h, own_prev + 1)`` while this SM's entry (hint
``h``) was still pending, the tick that got it there would have
absorbed the entry into its own due-batch first — so the cycle an
entry actually executes at always equals the SM-local value, and the
heap contributes nothing but same-cycle ordering by ``sm_id``.

SMs therefore interact only through the shared L2/DRAM float servers
and the grid CTA dispenser. The coroutine yields its current cycle
immediately before each such interaction and the device coordinator
(:meth:`VectorGPU.run`) resumes whichever SM has the globally smallest
pending ``(cycle, sm_id)`` sync point, reproducing the object engine's
interleaving of shared-state mutations exactly. The only divergence is
for runs truncated by ``max_cycles``: each SM stops at its own wall,
which matches the object engine's global wall (all due entries <= the
wall are batched before the loop exits), including the reported final
cycle.

Everything observable through :class:`~repro.gpu.gpu.SimulationResult`
is reproduced exactly; ``tests/test_backends.py`` pins the golden
fingerprints against the object engine. State with no path into a
result (scheduler issue counts, L2 tag-array statistics, MSHR
allocation counters, DRAM busy cycles, the L1 touch clock) is
deliberately not modeled.
"""

from __future__ import annotations

import gc
import heapq
from typing import Optional

from repro.config import GPUConfig, SimulationConfig
from repro.engine.vector.compile import CompiledKernel
from repro.gpu.gpu import SimulationResult
from repro.gpu.register_file import RegisterFileStats
from repro.gpu.sm import SM
from repro.gpu.snapshot import ExtensionSnapshot, L1Snapshot, SMSnapshot
from repro.gpu.stats import SMStats
from repro.gpu.trace import KernelTrace
from repro.memory.cache import CacheStats
from repro.memory.subsystem import TrafficStats

_INF = float("inf")

# Event kinds (same encoding as repro.gpu.sm).
_EV_FILL = 0
_EV_WAKE = 1

# Warp states. INACTIVE does not exist here: throttling extensions are
# not vectorizable, so a warp is only ever ready, blocked, or done.
_READY = 0
_BLOCKED = 1
_FINISHED = 2

# Indices into the rf_stat accumulator list.
_RF_READS = 0
_RF_WRITES = 1
_RF_CONFLICTS = 2


class _VectorMemory:
    """Shared L2 + DRAM, inlined.

    Replicates the float arithmetic of ``L2Cache.read_demand``/
    ``L2Cache.write`` and ``DRAMModel.access`` exactly (port/channel
    float servers, ``int()`` truncation, left-associative sums) and the
    L2 tag array's LRU-dict behaviour, without CacheLine objects or the
    statistics nothing reads (L2 hit/miss classification, queue delays,
    busy cycles).
    """

    __slots__ = (
        "l2_sets",
        "l2_num_sets",
        "l2_assoc",
        "l2_svc",
        "l2_lat",
        "l2_port_free",
        "dram_svc",
        "dram_lat",
        "dram_free",
        "dram_reads",
        "dram_writes",
        "demand_read_lines",
        "store_write_lines",
    )

    def __init__(self, config: GPUConfig) -> None:
        self.l2_num_sets = config.l2_size_bytes // (config.l2_assoc * config.l1_line_bytes)
        self.l2_sets: list[dict] = [dict() for _ in range(self.l2_num_sets)]
        self.l2_assoc = config.l2_assoc
        self.l2_svc = 1.0 / config.l2_lines_per_cycle
        self.l2_lat = config.l2_latency
        self.l2_port_free = 0.0
        self.dram_svc = 1.0 / config.dram_lines_per_cycle
        self.dram_lat = config.dram_latency
        self.dram_free = 0.0
        self.dram_reads = 0
        self.dram_writes = 0
        self.demand_read_lines = 0
        self.store_write_lines = 0

    def fetch_line(self, line_addr: int, cycle: int) -> int:
        start = self.l2_port_free
        if cycle > start:
            start = float(cycle)
        self.l2_port_free = start + self.l2_svc
        ns = self.l2_num_sets
        ways = self.l2_sets[line_addr % ns]
        tag = line_addr // ns
        if tag in ways:
            del ways[tag]
            ways[tag] = True
            return int(start + self.l2_lat)
        arrive = float(int(start + self.l2_lat))
        dstart = self.dram_free
        if arrive > dstart:
            dstart = arrive
        self.dram_free = dstart + self.dram_svc
        self.dram_reads += 1
        if len(ways) >= self.l2_assoc:
            del ways[next(iter(ways))]
        ways[tag] = True
        self.demand_read_lines += 1
        return int(dstart + self.dram_svc + self.dram_lat)

    def write_line(self, line_addr: int, cycle: int) -> None:
        self.store_write_lines += 1
        start = self.l2_port_free
        fc = float(cycle)
        if fc > start:
            start = fc
        self.l2_port_free = start + self.l2_svc
        ns = self.l2_num_sets
        self.l2_sets[line_addr % ns].pop(line_addr // ns, None)
        arrive = float(int(start + self.l2_lat))
        dstart = self.dram_free
        if arrive > dstart:
            dstart = arrive
        self.dram_free = dstart + self.dram_svc
        self.dram_writes += 1


class VectorSM:
    """One SM's struct-of-arrays state and fused tick coroutine."""

    __slots__ = (
        "sm_id",
        "config",
        "kernel",
        "memory",
        "cta_source",
        "compiled",
        # Per-warp SoA, indexed by warp id (slot * warps_per_cta + w).
        # w_rc holds the ready cycle for READY warps and inf otherwise
        # (see module docstring); w_state holds the precise state.
        "w_state",
        "w_rc",
        "w_pend",
        "w_ip",
        "w_lp",
        "w_sp",
        "w_base",
        "w_slot",
        "w_ops",
        "w_opnds",
        "w_loads",
        "w_stores",
        "w_len",
        "w_banks2",
        "w_banks3",
        # Schedulers.
        "nsched",
        "sched_warps",
        "sched_greedy",
        "sched_hint",
        "sched_hint_valid",
        # CTA bookkeeping.
        "ctas",
        "next_slot",
        "occupancy_limit",
        "warps_per_cta",
        "regs_per_cta",
        "regs_per_warp",
        # Register file. rf_win is the mutable [usage_cycle, epoch]
        # pair and rf_stat the [reads, writes, conflicts] accumulator —
        # lists, so the coroutine's local bindings and the CTA-launch
        # path share one copy of the state with no write-back
        # choreography.
        "rf_owner",
        "rf_banks",
        "rf_ports",
        "rf_win",
        "bank_epoch",
        "bank_cnt",
        "rf_stat",
        # L1 + MSHR.
        "l1_sets",
        "l1_num_sets",
        "l1_assoc",
        "l1_ever",
        "l1_evictions",
        "l1_cold",
        "l1_write_hits",
        "l1_write_misses",
        "mshr",
        "mshr_capacity",
        "mshr_stalls",
        # Stall certificates. fill_gen counts L1 fill deliveries;
        # a warp whose load failed MSHR admission records the fill
        # generation (w_sgen) and its admission margin (w_smargin =
        # distinct missing lines minus free entries). The
        # margin can only shrink by one per fill: non-fill activity
        # moves it the safe way (admitted loads consume free entries
        # at least as fast as they satisfy this warp's lines, stores
        # only evict, a fill itself frees exactly one MSHR entry and
        # never reduces the needed count — the filled line moves from
        # MSHR to L1, satisfying the same addresses). So while
        # w_smargin[w] > fill_gen - w_sgen[w] the warp's retry
        # provably fails and is counted without rescanning its
        # addresses.
        "fill_gen",
        "w_sgen",
        "w_smargin",
        # Events.
        "events",
        "eseq",
        # Latencies.
        "alu_latency",
        "l1_hit_latency",
        "max_outstanding",
        # Counters (SMStats).
        "instructions",
        "loads",
        "stores",
        "l1_hits",
        "l1_misses",
        "mem_requests",
        "cta_dirty",
        "truncated",
        "final_cycle",
    )

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        kernel: KernelTrace,
        memory: _VectorMemory,
        cta_source,
        compiled: CompiledKernel,
        max_concurrent_ctas: Optional[int] = None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.kernel = kernel
        self.memory = memory
        self.cta_source = cta_source
        self.compiled = compiled

        self.w_state: list[int] = []
        self.w_rc: list = []
        self.w_pend: list[int] = []
        self.w_ip: list[int] = []
        self.w_lp: list[int] = []
        self.w_sp: list[int] = []
        self.w_base: list[int] = []
        self.w_slot: list[int] = []
        self.w_ops: list = []
        self.w_opnds: list = []
        self.w_loads: list = []
        self.w_stores: list = []
        self.w_len: list[int] = []
        self.w_banks2: list[tuple] = []
        self.w_banks3: list[tuple] = []

        self.nsched = config.num_schedulers
        self.sched_warps: list[list[int]] = [[] for _ in range(self.nsched)]
        self.sched_greedy: list[int] = [-1] * self.nsched
        self.sched_hint: list[float] = [0.0] * self.nsched
        self.sched_hint_valid: list[bool] = [False] * self.nsched

        self.ctas: dict[int, tuple] = {}
        self.next_slot = 0
        self.warps_per_cta = kernel.warps_per_cta
        self.regs_per_cta = kernel.warp_registers_per_cta
        self.regs_per_warp = kernel.warp_registers_per_warp

        num_regs = config.register_file_bytes // 128
        self.rf_owner: list[Optional[int]] = [None] * num_regs
        self.rf_banks = config.register_banks
        self.rf_ports = config.register_bank_ports
        self.rf_win: list[int] = [-1, 0]
        self.bank_epoch = [-1] * self.rf_banks
        self.bank_cnt = [0] * self.rf_banks
        self.rf_stat: list[int] = [0, 0, 0]

        self.l1_num_sets = config.l1_size_bytes // (config.l1_assoc * config.l1_line_bytes)
        self.l1_sets: list[dict] = [dict() for _ in range(self.l1_num_sets)]
        self.l1_assoc = config.l1_assoc
        self.l1_ever: set[int] = set()
        self.l1_evictions = 0
        self.l1_cold = 0
        self.l1_write_hits = 0
        self.l1_write_misses = 0
        self.mshr: dict[int, list[int]] = {}
        self.mshr_capacity = config.l1_mshrs
        self.mshr_stalls = 0
        self.fill_gen = 0
        self.w_sgen: list[int] = []
        self.w_smargin: list[int] = []

        self.events: list[tuple] = []
        self.eseq = 0

        self.alu_latency = config.alu_latency
        self.l1_hit_latency = config.l1_hit_latency
        self.max_outstanding = config.max_outstanding_loads

        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.l1_hits = 0
        self.l1_misses = 0
        self.mem_requests = 0
        self.cta_dirty = False
        self.truncated = False
        self.final_cycle = 0

        self.occupancy_limit = SM.hardware_occupancy(config, kernel)
        if max_concurrent_ctas is not None:
            self.occupancy_limit = min(self.occupancy_limit, max_concurrent_ctas)
        while len(self.ctas) < self.occupancy_limit:
            if not self._launch_next_cta():
                break

    # ------------------------------------------------------------------
    # CTA lifecycle
    # ------------------------------------------------------------------
    def _allocate_registers(self, num_regs: int, owner: int) -> Optional[range]:
        # First-fit over free runs, identical to RegisterFile.allocate.
        rf_owner = self.rf_owner
        run_start = None
        run_len = 0
        for idx in range(len(rf_owner)):
            if rf_owner[idx] is None:
                if run_start is None:
                    run_start = idx
                run_len += 1
                if run_len == num_regs:
                    rng = range(run_start, run_start + num_regs)
                    for r in rng:
                        rf_owner[r] = owner
                    return rng
            else:
                run_start = None
                run_len = 0
        return None

    def _launch_next_cta(self) -> bool:
        self.cta_dirty = True
        hint_valid = self.sched_hint_valid
        for s in range(self.nsched):
            hint_valid[s] = False
        grid_id = self.cta_source()
        if grid_id is None:
            return False
        slot = self.next_slot
        self.next_slot += 1
        regs = self._allocate_registers(self.regs_per_cta, owner=slot)
        if regs is None:
            raise RuntimeError(
                f"SM{self.sm_id}: register allocation failed for CTA slot {slot}"
            )
        # Launch-time register token writes: the token values are
        # unobservable here, but each write accounts one bank access at
        # cycle -1 — launches bursting within one window do produce
        # bank conflicts, exactly as in RegisterFile.write.
        nb = self.rf_banks
        ports = self.rf_ports
        rf_win = self.rf_win
        epoch = rf_win[1]
        if rf_win[0] != -1:
            rf_win[0] = -1
            rf_win[1] = epoch = epoch + 1
        bank_epoch = self.bank_epoch
        bank_cnt = self.bank_cnt
        conflicts = 0
        for r in regs:
            bank = r % nb
            if bank_epoch[bank] != epoch:
                bank_epoch[bank] = epoch
                bank_cnt[bank] = 1
            else:
                c = bank_cnt[bank]
                if c >= ports:
                    conflicts += 1
                bank_cnt[bank] = c + 1
        rf_stat = self.rf_stat
        rf_stat[_RF_CONFLICTS] += conflicts
        rf_stat[_RF_WRITES] += len(regs)

        streams = self.compiled.warp_streams(grid_id)
        wpc = self.warps_per_cta
        nsched = self.nsched
        base0 = regs.start
        rpw = self.regs_per_warp
        w_state = self.w_state
        warp_ids = []
        for w in range(wpc):
            warp_id = slot * wpc + w
            ops, opnds, lds, sts = streams[w]
            while len(w_state) <= warp_id:
                self._grow_warp_arrays()
            self.w_ops[warp_id] = ops
            self.w_opnds[warp_id] = opnds
            self.w_loads[warp_id] = lds
            self.w_stores[warp_id] = sts
            self.w_len[warp_id] = len(ops)
            if ops:
                w_state[warp_id] = _READY
                self.w_rc[warp_id] = 0
            else:
                w_state[warp_id] = _FINISHED
                self.w_rc[warp_id] = _INF
            self.w_sgen[warp_id] = -1
            self.w_smargin[warp_id] = 0
            self.w_pend[warp_id] = 0
            self.w_ip[warp_id] = 0
            self.w_lp[warp_id] = 0
            self.w_sp[warp_id] = 0
            base = base0 + w * rpw
            self.w_base[warp_id] = base
            self.w_slot[warp_id] = slot
            self.w_banks2[warp_id] = (base % nb, (base + 1) % nb)
            self.w_banks3[warp_id] = (base % nb, (base + 1) % nb, (base + 2) % nb)
            self.sched_warps[warp_id % nsched].append(warp_id)
            warp_ids.append(warp_id)
        self.ctas[slot] = (warp_ids, regs)
        return True

    def _grow_warp_arrays(self) -> None:
        self.w_state.append(_FINISHED)
        self.w_rc.append(_INF)
        self.w_sgen.append(-1)
        self.w_smargin.append(0)
        self.w_pend.append(0)
        self.w_ip.append(0)
        self.w_lp.append(0)
        self.w_sp.append(0)
        self.w_base.append(0)
        self.w_slot.append(-1)
        self.w_ops.append(())
        self.w_opnds.append(())
        self.w_loads.append(())
        self.w_stores.append(())
        self.w_len.append(0)
        self.w_banks2.append(())
        self.w_banks3.append(())

    def _complete_cta(self, slot: int) -> None:
        self.cta_dirty = True
        hint_valid = self.sched_hint_valid
        for s in range(self.nsched):
            hint_valid[s] = False
        warp_ids, regs = self.ctas.pop(slot)
        rf_owner = self.rf_owner
        for r in regs:
            rf_owner[r] = None
        w_state = self.w_state
        sched_warps = self.sched_warps
        greedy = self.sched_greedy
        for s in range(self.nsched):
            sched_warps[s] = [w for w in sched_warps[s] if w_state[w] != _FINISHED]
            g = greedy[s]
            if g >= 0 and w_state[g] == _FINISHED:
                greedy[s] = -1
        self._launch_next_cta()

    # ------------------------------------------------------------------
    # Operand bank accounting (RegisterFile.account_operand_traffic)
    # ------------------------------------------------------------------
    def _account(self, num_operands: int, base: int, cycle: int) -> None:
        rf_win = self.rf_win
        epoch = rf_win[1]
        if cycle != rf_win[0]:
            rf_win[0] = cycle
            rf_win[1] = epoch = epoch + 1
        nb = self.rf_banks
        ports = self.rf_ports
        bank_epoch = self.bank_epoch
        bank_cnt = self.bank_cnt
        rf_stat = self.rf_stat
        for i in range(num_operands):
            bank = (base + i) % nb
            if bank_epoch[bank] != epoch:
                bank_epoch[bank] = epoch
                bank_cnt[bank] = 1
            else:
                c = bank_cnt[bank]
                if c >= ports:
                    rf_stat[_RF_CONFLICTS] += 1
                bank_cnt[bank] = c + 1
        rf_stat[_RF_READS] += num_operands

    # ------------------------------------------------------------------
    # The SM coroutine: fused tick loop over the SM-local clock
    # ------------------------------------------------------------------
    def run_gen(self, max_cycles: int):
        """Run this SM to completion as a coroutine.

        Yields the current cycle immediately before every interaction
        with shared device state — an L2/DRAM access (load-miss fetch,
        store write-through) or a CTA fetch from the grid dispenser —
        and performs that interaction right after being resumed. The
        device coordinator resumes coroutines in global
        ``(cycle, sm_id)`` order, which reproduces the object engine's
        interleaving of shared-state mutations exactly; everything else
        the SM touches is private, so between sync points it may run
        arbitrarily far ahead of its siblings (see the module docstring
        for why the tick times themselves are SM-local).

        All hot state is bound into frame locals once, for the whole
        run; every bound object is mutated in place (never rebound), so
        the references stay valid across the CTA-lifecycle calls.
        ``sched_warps`` inner lists ARE rebound by ``_complete_cta`` —
        indexed via the outer list each time. Scalar counters live as
        plain locals and are written back in the ``finally`` block.
        """
        events = self.events
        w_state = self.w_state
        w_rc = self.w_rc
        w_pend = self.w_pend
        w_ip = self.w_ip
        w_lp = self.w_lp
        w_sp = self.w_sp
        w_base = self.w_base
        w_slot = self.w_slot
        w_ops = self.w_ops
        w_opnds = self.w_opnds
        w_loads = self.w_loads
        w_stores = self.w_stores
        w_len = self.w_len
        w_banks2 = self.w_banks2
        w_banks3 = self.w_banks3
        w_sgen = self.w_sgen
        w_smargin = self.w_smargin
        nsched = self.nsched
        scheds = range(nsched)
        sched_warps = self.sched_warps
        greedy = self.sched_greedy
        cached_hint = self.sched_hint
        hint_valid = self.sched_hint_valid
        ctas = self.ctas
        mshr = self.mshr
        mshr_capacity = self.mshr_capacity
        l1_sets = self.l1_sets
        num_sets = self.l1_num_sets
        l1_assoc = self.l1_assoc
        l1_ever = self.l1_ever
        rf_win = self.rf_win
        bank_epoch = self.bank_epoch
        bank_cnt = self.bank_cnt
        rf_stat = self.rf_stat
        rf_ports = self.rf_ports
        nb = self.rf_banks
        alu_latency = self.alu_latency
        hit_latency = self.l1_hit_latency
        max_out = self.max_outstanding
        memory = self.memory
        fetch_line = memory.fetch_line
        write_line = memory.write_line
        heappush = heapq.heappush
        heappop = heapq.heappop

        instructions = 0
        loads = 0
        stores = 0
        l1_hits = 0
        l1_misses = 0
        l1_cold = 0
        l1_wh = 0
        l1_wm = 0
        l1_evictions = 0
        mem_requests = 0
        mshr_stalls = 0
        eseq = self.eseq
        fill_gen = self.fill_gen

        if not ctas and not events:
            return

        t = 0
        h: float = 0
        dirty = False
        try:
            while True:
                cycle = t + 1
                if h > cycle:
                    cycle = h
                if cycle > max_cycles:
                    self.truncated = True
                    break
                t = cycle

                # ---- event delivery ----
                if events and events[0][0] <= cycle:
                    while True:
                        ready, _, kind, payload = heappop(events)
                        if kind == _EV_WAKE:
                            pend = w_pend[payload] - 1
                            if pend < 0:
                                raise RuntimeError(
                                    "memory response for warp with none pending"
                                )
                            w_pend[payload] = pend
                            if w_state[payload] == _BLOCKED and pend < max_out:
                                w_state[payload] = _READY
                                w_rc[payload] = ready
                                hint_valid[payload % nsched] = False
                        else:  # _EV_FILL
                            # The only event that can improve MSHR
                            # admission: age every stall certificate.
                            fill_gen += 1
                            waiters = mshr.pop(payload, ())
                            # L1 fill (SetAssociativeCache.fill, minus
                            # CacheLine fields).
                            l1_ever.add(payload)
                            ways = l1_sets[payload % num_sets]
                            tag = payload // num_sets
                            if tag in ways:
                                del ways[tag]
                            elif len(ways) >= l1_assoc:
                                del ways[next(iter(ways))]
                                l1_evictions += 1
                            ways[tag] = True
                            for widx in waiters:
                                pend = w_pend[widx] - 1
                                if pend < 0:
                                    raise RuntimeError(
                                        "memory response for warp with none pending"
                                    )
                                w_pend[widx] = pend
                                if w_state[widx] == _BLOCKED and pend < max_out:
                                    w_state[widx] = _READY
                                    w_rc[widx] = ready
                                hint_valid[widx % nsched] = False
                        if not events or events[0][0] > cycle:
                            break

                # ---- scheduler scans + issue ----
                hint: float = _INF
                for sidx in scheds:
                    if hint_valid[sidx]:
                        ch = cached_hint[sidx]
                        if ch > cycle:
                            if ch < hint:
                                hint = ch
                            continue
                        hint_valid[sidx] = False
                    g = greedy[sidx]
                    if g >= 0 and w_rc[g] <= cycle:
                        pick = g
                        if hint > cycle:
                            for w in sched_warps[sidx]:
                                if w != g:
                                    rc = w_rc[w]
                                    if rc <= cycle:
                                        hint = cycle
                                        break
                                    if rc < hint:
                                        hint = rc
                    else:
                        pick = -1
                        sched_min: float = _INF
                        for w in sched_warps[sidx]:
                            rc = w_rc[w]
                            if rc <= cycle:
                                if pick < 0:
                                    greedy[sidx] = pick = w
                                    if hint <= cycle:
                                        break
                                else:
                                    hint = cycle
                                    break
                            elif rc < sched_min:
                                sched_min = rc
                        if sched_min < hint:
                            hint = sched_min
                        if pick < 0:
                            cached_hint[sidx] = sched_min
                            hint_valid[sidx] = True
                            continue
                    ip = w_ip[pick]
                    if ip >= w_len[pick]:
                        # Defensive, as in the object engine: a READY
                        # warp without an instruction reports as
                        # issuable.
                        hint = cycle
                        continue
                    op = w_ops[pick][ip]
                    if op == 0:  # ALU
                        instructions += 1
                        nops = w_opnds[pick][ip]
                        if nops:
                            # Inlined operand bank accounting (hottest
                            # path).
                            epoch = rf_win[1]
                            if cycle != rf_win[0]:
                                rf_win[0] = cycle
                                rf_win[1] = epoch = epoch + 1
                            if nops == 3:
                                banks = w_banks3[pick]
                            elif nops == 2:
                                banks = w_banks2[pick]
                            else:
                                base = w_base[pick]
                                banks = tuple((base + i) % nb for i in range(nops))
                            for bank in banks:
                                if bank_epoch[bank] != epoch:
                                    bank_epoch[bank] = epoch
                                    bank_cnt[bank] = 1
                                else:
                                    c = bank_cnt[bank]
                                    if c >= rf_ports:
                                        rf_stat[_RF_CONFLICTS] += 1
                                    bank_cnt[bank] = c + 1
                            rf_stat[_RF_READS] += nops
                        ip += 1
                        w_ip[pick] = ip
                        if ip >= w_len[pick]:
                            w_state[pick] = _FINISHED
                            w_rc[pick] = _INF
                        else:
                            rc = cycle + alu_latency
                            w_rc[pick] = rc
                            if rc < hint:
                                hint = rc
                    elif op == 1:  # LOAD
                        entry = w_loads[pick][w_lp[pick]]
                        if type(entry) is int:
                            addrs = (entry,)
                        else:
                            addrs = entry
                        n_addrs = len(addrs)
                        if len(mshr) + n_addrs > mshr_capacity:
                            sg = w_sgen[pick]
                            if sg >= 0 and w_smargin[pick] > fill_gen - sg:
                                # Certified: the recorded admission
                                # margin shrinks by at most one per
                                # fill (see __slots__ comment), so it
                                # still exceeds zero — fail without
                                # rescanning the addresses.
                                stalled = True
                            else:
                                # The admission verdict counts address
                                # occurrences (object semantics); the
                                # certificate margin counts distinct
                                # lines, because one admitted insert
                                # satisfies every duplicate occurrence
                                # at once but consumes one free entry.
                                needed = 0
                                dneed = 0
                                seen = None
                                for a in addrs:
                                    if (
                                        a not in mshr
                                        and (a // num_sets) not in l1_sets[a % num_sets]
                                    ):
                                        needed += 1
                                        if seen is None:
                                            seen = {a}
                                            dneed = 1
                                        elif a not in seen:
                                            seen.add(a)
                                            dneed += 1
                                free = mshr_capacity - len(mshr)
                                stalled = needed > free
                                if stalled:
                                    margin = dneed - free
                                    if margin > 0:
                                        w_sgen[pick] = fill_gen
                                        w_smargin[pick] = margin
                                    else:
                                        w_sgen[pick] = -1
                            if stalled:
                                mshr_stalls += 1
                                rc = cycle + 4
                                w_rc[pick] = rc
                                if rc < hint:
                                    hint = rc
                                continue
                        # _execute_load, inlined.
                        loads += 1
                        mem_requests += n_addrs
                        hit_ready = cycle + hit_latency
                        for a in addrs:
                            ways = l1_sets[a % num_sets]
                            tag = a // num_sets
                            if tag in ways:
                                # LRU touch: move to the end of the set
                                # dict.
                                del ways[tag]
                                ways[tag] = True
                                l1_hits += 1
                                heappush(events, (hit_ready, eseq, _EV_WAKE, pick))
                                eseq += 1
                                continue
                            if a not in l1_ever:
                                l1_cold += 1
                            l1_misses += 1
                            waiters = mshr.get(a)
                            if waiters is not None:
                                waiters.append(pick)
                            else:
                                mshr[a] = [pick]
                                yield cycle  # sync: shared L2/DRAM access
                                ready = fetch_line(a, cycle)
                                heappush(events, (ready, eseq, _EV_FILL, a))
                                eseq += 1
                        # Retire + scoreboard (Warp.block_on_memory).
                        instructions += 1
                        nops = w_opnds[pick][ip]
                        if nops:
                            epoch = rf_win[1]
                            if cycle != rf_win[0]:
                                rf_win[0] = cycle
                                rf_win[1] = epoch = epoch + 1
                            if nops == 2:
                                banks = w_banks2[pick]
                            elif nops == 3:
                                banks = w_banks3[pick]
                            else:
                                base = w_base[pick]
                                banks = tuple((base + i) % nb for i in range(nops))
                            for bank in banks:
                                if bank_epoch[bank] != epoch:
                                    bank_epoch[bank] = epoch
                                    bank_cnt[bank] = 1
                                else:
                                    c = bank_cnt[bank]
                                    if c >= rf_ports:
                                        rf_stat[_RF_CONFLICTS] += 1
                                    bank_cnt[bank] = c + 1
                            rf_stat[_RF_READS] += nops
                        ip += 1
                        w_ip[pick] = ip
                        w_lp[pick] += 1
                        state = _READY if ip < w_len[pick] else _FINISHED
                        pend = w_pend[pick] + n_addrs
                        w_pend[pick] = pend
                        if pend >= max_out:
                            state = _BLOCKED
                        w_state[pick] = state
                        if state == _READY:
                            rc = cycle + 1
                            w_rc[pick] = rc
                            if rc < hint:
                                hint = rc
                        else:
                            w_rc[pick] = _INF
                    elif op == 2:  # STORE
                        entry = w_stores[pick][w_sp[pick]]
                        if type(entry) is int:
                            addrs = (entry,)
                        else:
                            addrs = entry
                        stores += 1
                        for a in addrs:
                            mem_requests += 1
                            # L1 write_access: write-evict on hit,
                            # no-allocate.
                            ways = l1_sets[a % num_sets]
                            tag = a // num_sets
                            if tag in ways:
                                del ways[tag]
                                l1_wh += 1
                            else:
                                l1_wm += 1
                            yield cycle  # sync: shared L2/DRAM access
                            write_line(a, cycle)
                        instructions += 1
                        nops = w_opnds[pick][ip]
                        if nops:
                            self._account(nops, w_base[pick], cycle)
                        ip += 1
                        w_ip[pick] = ip
                        w_sp[pick] += 1
                        if ip >= w_len[pick]:
                            w_state[pick] = _FINISHED
                            w_rc[pick] = _INF
                        else:
                            w_rc[pick] = rc = cycle + 1
                            if rc < hint:
                                hint = rc
                    else:  # EXIT
                        instructions += 1
                        nops = w_opnds[pick][ip]
                        if nops:
                            self._account(nops, w_base[pick], cycle)
                        w_ip[pick] = ip + 1
                        w_state[pick] = _FINISHED
                        w_rc[pick] = _INF
                        slot = w_slot[pick]
                        cta = ctas.get(slot)
                        if cta is not None:
                            for w in cta[0]:
                                if w_state[w] != _FINISHED:
                                    break
                            else:
                                yield cycle  # sync: grid CTA dispenser
                                self._complete_cta(slot)
                                dirty = True

                # ---- next own-clock hint ----
                if dirty:
                    dirty = False
                    h = self.next_event_cycle(cycle)
                    if h == _INF:
                        break
                else:
                    if events:
                        first = events[0][0]
                        if first < hint:
                            hint = first
                    elif not ctas:
                        break
                    h = hint if hint != _INF else cycle + 1
        finally:
            self.instructions = instructions
            self.loads = loads
            self.stores = stores
            self.l1_hits = l1_hits
            self.l1_misses = l1_misses
            self.l1_cold = l1_cold
            self.l1_write_hits = l1_wh
            self.l1_write_misses = l1_wm
            self.l1_evictions = l1_evictions
            self.mem_requests = mem_requests
            self.mshr_stalls = mshr_stalls
            self.eseq = eseq
            self.fill_gen = fill_gen
            self.final_cycle = t

    # ------------------------------------------------------------------
    # Clocking interface (mirrors SM.next_event_cycle / SM.done)
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> float:
        events = self.events
        if not self.ctas and not events:
            return _INF
        best: float = _INF
        w_rc = self.w_rc
        for sidx in range(self.nsched):
            broke = False
            for w in self.sched_warps[sidx]:
                rc = w_rc[w]
                if rc <= cycle:
                    best = cycle
                    broke = True
                    break
                if rc < best:
                    best = rc
            if broke:
                break
        if events:
            first = events[0][0]
            if first < best:
                best = first
        if best == _INF:
            best = cycle + 1
        return best

    @property
    def done(self) -> bool:
        return not self.ctas and not self.events

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def sm_stats(self) -> SMStats:
        return SMStats(
            instructions=self.instructions,
            loads=self.loads,
            stores=self.stores,
            l1_hits=self.l1_hits,
            l1_misses=self.l1_misses,
            victim_hits=0,
            bypasses=0,
            mem_requests=self.mem_requests,
            cycles=self.final_cycle,
        )

    def l1_stats(self) -> CacheStats:
        # Baseline invariant: cache-level hits/misses equal the
        # SM-level l1_hits/l1_misses (no victim path, no bypasses).
        return CacheStats(
            hits=self.l1_hits,
            misses=self.l1_misses,
            cold_misses=self.l1_cold,
            capacity_conflict_misses=self.l1_misses - self.l1_cold,
            evictions=self.l1_evictions,
            write_hits=self.l1_write_hits,
            write_misses=self.l1_write_misses,
        )

    def rf_stats(self) -> RegisterFileStats:
        return RegisterFileStats(
            reads=self.rf_stat[_RF_READS],
            writes=self.rf_stat[_RF_WRITES],
            bank_conflicts=self.rf_stat[_RF_CONFLICTS],
        )

    def snapshot(self) -> SMSnapshot:
        config = self.config
        return SMSnapshot(
            sm_id=self.sm_id,
            done=self.done,
            l1=L1Snapshot(
                num_sets=self.l1_num_sets,
                size_bytes=self.l1_num_sets * self.l1_assoc * config.l1_line_bytes,
                assoc=self.l1_assoc,
            ),
        )


class VectorGPU:
    """Whole-device coordinator over :class:`VectorSM` coroutines.

    Mirrors ``GPU.run``'s observable behaviour without its global tick
    heap: each SM free-runs on its own clock (exact — see the module
    docstring) and blocks at shared-state sync points, which the
    coordinator commits in global ``(cycle, sm_id)`` order.
    """

    def __init__(
        self,
        config: SimulationConfig,
        kernel: KernelTrace,
        max_concurrent_ctas: Optional[int] = None,
    ) -> None:
        self.config = config
        self.kernel = kernel
        self.memory = _VectorMemory(config.gpu)
        self._next_grid_cta = 0
        compiled = CompiledKernel(kernel)

        def cta_source() -> Optional[int]:
            if self._next_grid_cta >= kernel.num_ctas:
                return None
            cta = self._next_grid_cta
            self._next_grid_cta += 1
            return cta

        self.sms = [
            VectorSM(
                sm_id=i,
                config=config.gpu,
                kernel=kernel,
                memory=self.memory,
                cta_source=cta_source,
                compiled=compiled,
                max_concurrent_ctas=max_concurrent_ctas,
            )
            for i in range(config.gpu.num_sms)
        ]

    def run(self) -> SimulationResult:
        max_cycles = self.config.max_cycles
        sms = self.sms
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            # Advance every SM to its first sync point, then commit
            # sync points in (cycle, sm_id) order. Once a single SM
            # remains there is nothing to order against — drain it.
            pending: list[tuple] = []
            for sm in sms:
                gen = sm.run_gen(max_cycles)
                try:
                    c = next(gen)
                except StopIteration:
                    continue
                pending.append((c, sm.sm_id, gen))
            heapq.heapify(pending)
            heappush, heappop = heapq.heappush, heapq.heappop
            while len(pending) > 1:
                c, sm_id, gen = heappop(pending)
                try:
                    c = next(gen)
                except StopIteration:
                    continue
                heappush(pending, (c, sm_id, gen))
            if pending:
                for _ in pending[0][2]:
                    pass
        finally:
            if gc_was_enabled:
                gc.enable()
        if any(sm.truncated for sm in sms):
            cycle = max_cycles
        else:
            cycle = max((sm.final_cycle for sm in sms), default=0)
        memory = self.memory
        traffic = TrafficStats(
            demand_read_lines=memory.demand_read_lines,
            store_write_lines=memory.store_write_lines,
            backup_write_lines=0,
            restore_read_lines=0,
        )
        for sm in sms:
            sm.final_cycle = cycle
        return SimulationResult(
            kernel_name=self.kernel.name,
            cycles=cycle,
            sm_stats=[sm.sm_stats() for sm in sms],
            traffic=traffic,
            dram_reads=memory.dram_reads,
            dram_writes=memory.dram_writes,
            l1_stats=[sm.l1_stats() for sm in sms],
            rf_stats=[sm.rf_stats() for sm in sms],
            extensions=[ExtensionSnapshot(kind="SMExtension") for _ in sms],
            sms=[sm.snapshot() for sm in sms],
        )
