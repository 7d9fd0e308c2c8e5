"""The machine: the one cycle engine, which every request runs on.

Its semantics are those of the oracle kept in ``tests/reference_engine``
(one ``Warp`` object per warp, ``SM.tick`` per SM per interesting cycle
under one global clock loop) — tick and next-event scan, event
delivery, CTA lifecycle, L1/MSHR behaviour, the shared L2/DRAM servers
and the whole :class:`~repro.gpu.extension.SMExtension` hook contract —
over struct-of-arrays state:

* per-warp state lives in parallel arrays indexed by warp id
  (``state``/``ready_cycle``/``pending``/instruction pointers), not in
  ``Warp`` objects;
* instruction streams are the pre-compiled SoA buffers from
  :mod:`repro.engine.vector.compile` (shared opcode and load-PC
  templates plus per-warp address queues) — no ``Instruction`` objects
  and no generator frames on the hot path;
* cache lines are bare LRU-ordered dict keys. The value is the line's
  ``(hpc, owner)`` — refreshed on every hit, handed to
  ``on_l1_eviction`` as a ``CacheLine`` — only when the extension wants
  evictions, else ``True``: the oracle's token/last-use fields are
  write-only everywhere;
* the register file is a real :class:`~repro.gpu.register_file.
  RegisterFile`. The coroutine inlines operand accounting over that
  object's own bank-window lists, so operand traffic, launch-time
  token writes and an extension's reads and writes at one cycle share
  one window (``bank_conflicts`` is in the golden fingerprint).

Hosting the extension
---------------------

:class:`VectorSM` is the ``sm`` its extension is attached to, and its
``ctas`` are real :class:`~repro.gpu.cta.CTA` records over
:class:`WarpView` views, so the classes in ``core/`` and ``baselines/``
run unedited. The eight capability flags and the bound hooks are
frame locals of the one coroutine like the rest of its state: an inert
``SMExtension`` costs a local-bool test per tick, per fill and per load
line. Three pieces of coroutine state are visible to a hook and kept
honest: ``sm.stats.instructions`` is written back before every
``on_tick`` (where Linebacker reads it), event sequence numbers come
from one counter shared with ``schedule_event``, and a warp view's
``deactivate`` / ``reactivate`` drop the scheduler's memoised hint and
set ``dirty`` so the next tick time is recomputed in full — a hook may
throttle any warp from anywhere, the issuing warp from its own load's
hook included.

The two opt-in recorders ride the same frame. A ``LoadTracker``
(``track_loads``) is put in front of the bound ``on_load_outcome`` once,
at frame set-up, so it records at exactly the four outcome sites and an
untracked run pays nothing. A ``WindowRecorder`` (``timeseries``) is one
compare per tick against the next window boundary (a local-bool test
when off), placed after ``on_tick`` so a row shows the post-boundary
mechanism state; at a boundary the frame-local counters are written
back to ``stats`` and, when the extension contributes to the row
(``timeseries_sample`` may read ``sm.memory.traffic``), the SM syncs
first.

The memory model is chosen from the request's configuration: the
inlined :class:`_VectorMemory` for the simple DRAM model without a NoC,
otherwise the general :class:`~repro.memory.subsystem.MemorySubsystem`
(bank-level timing DRAM, interconnect) under the same names. Both are
shared state the coroutine only touches right after a sync point.

Ready cycles
------------

The scheduler scans read a single array: ``w_rc[w]`` holds the real
ready cycle while a warp is READY and ``inf`` otherwise, so "state is
READY and ready_cycle <= cycle" collapses to one comparison. A warp
leaves READY two ways, and the oracle's
``ready_cycle = max(ready_cycle, t)`` on the way back is reproduced for
both. *Blocking on its own load*: the issue set ``ready_cycle = cycle +
1`` and every event at or before ``cycle`` was delivered before the
issue, so the unblocking response (an L1 or victim hit latency, a fill,
a bypass fetch — all >= 1 cycle) carries a time >= ``cycle + 1`` and
the max is just the event time. *Throttling* breaks that argument — a
READY warp parked mid-ALU-latency or mid-backoff can be reactivated
before its ready cycle — so the true value is kept in ``w_true_rc``
beside the ``inf``: written when a READY warp goes INACTIVE, when a
throttled BLOCKED warp's response arrives (it goes INACTIVE, not
READY, with the event time), and read by ``reactivate``.

Decoupled SM clocks
-------------------

Each SM runs as an independent coroutine (:meth:`VectorSM.run_gen`)
with every piece of hot state bound once into frame locals — no
per-tick prologue, no method-call overhead, no global tick heap. This
is exact, not an approximation, because in the oracle's global run
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
pending ``(cycle, sm_id)`` sync point, reproducing the oracle's
interleaving of shared-state mutations exactly. A hook is such an
interaction when it can reach ``sm.memory``: a bypassed load's fetch,
an ``EV_CALLBACK`` delivery (a backup completing may start a restore),
the CTA lifecycle hooks, which share the dispenser's yield
(``try_reactivate_cta`` restores), and ``on_tick`` on the first tick at
or past each multiple of ``extension.shared_tick_period()`` — the
window close that backs up or restores registers. The period is the
extension's own (``lb_config`` may carry a window the machine's config
does not); without one every tick syncs. Extra sync points never hurt
correctness — the coordinator orders ``(cycle, sm_id)`` and an SM may
sync several times in one cycle. Every other hook call
(``should_bypass``, ``lookup_victim``, ``on_load_outcome``,
``on_l1_eviction``, ``on_store``, ``allocate_fill``, ``on_tick``
between windows) runs unsynced and must keep to the SM's own state,
which is all it can reach through the ``sm`` it was given except
``sm.memory`` — and both memory models refuse a register stream from
anywhere but a synced hook, so breaking the rule is an error, not a
divergence.

The only divergence is for runs truncated by ``max_cycles``: each SM
stops at its own wall, which matches the oracle's global wall
(all due entries <= the wall are batched before the loop exits),
including the reported final cycle.

Stall certificates
------------------

A load that fails MSHR admission replays every 4 cycles, and in the
replay storm the probe loop over its addresses is the hottest code in
the oracle. Here a failed admission records the fill generation
and its *margin* — distinct missing lines minus free MSHR entries —
and while ``margin > fills since`` the retry is counted as failed
without rescanning. That is sound because the margin shrinks by at
most one per ``EV_FILL`` and by nothing else: an admitted load consumes
free entries at least as fast as it satisfies this warp's lines; a
store, or an eviction, only removes lines from L1 (the margin grows); a
victim hit or a bypass allocates no entry and fills no line; and a
fill frees exactly one entry while the filled line moves from MSHR to
L1, still satisfying the same addresses — or, when ``allocate_fill``
returns False, goes nowhere, which makes one more of this warp's lines
missing at the same moment one more entry is free. Admission is judged
before ``should_bypass`` and ``lookup_victim`` are asked, exactly as
in the oracle's ``SM._execute_load``, so what those hooks would have
said never enters the verdict. Throttling a stalled warp leaves its
certificate valid: it is a statement about MSHR and L1 contents, not
about the warp.

Everything observable through :class:`~repro.gpu.gpu.SimulationResult`
is reproduced exactly; ``tests/test_backends.py`` holds all nine
extension rows, a probe extension that stresses every hook, and each
option above to the oracle — full fingerprint, every per-SM statistic
and a deep comparison of every ``ExtensionSnapshot``. State with no
path into a result (scheduler issue counts, L2 tag-array statistics,
MSHR allocation counters, DRAM busy cycles, the L1 touch clock) is
deliberately not modeled.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Callable, Optional

from repro.config import GPUConfig, SimulationConfig
from repro.engine.vector.compile import CompiledKernel
from repro.gpu.cta import CTA, CTAState
from repro.gpu.extension import EV_FILL, EV_WAKE, SMExtension
from repro.gpu.gpu import SimulationResult
from repro.gpu.register_file import RegisterFile, register_tokens
from repro.gpu.snapshot import snapshot_extension, snapshot_sm
from repro.gpu.stats import SM_STATS, LoadTracker, SMStats
from repro.gpu.trace import KernelTrace, hardware_occupancy
from repro.memory.cache import CacheLine, CacheStats
from repro.memory.subsystem import MemorySubsystem, TrafficStats
from repro.metrics import WindowRecorder

_INF = float("inf")

# Warp states (the oracle's WarpState, as ints).
_READY = 0
_BLOCKED = 1
_FINISHED = 2
_INACTIVE = 3


def _require_sync(memory) -> None:
    """Registers stream to shared DRAM only from a hook the running SM
    called right after a sync point."""
    if not memory.hook_synced:
        raise RuntimeError(
            "an extension reached sm.memory from a hook the vector engine "
            "does not order across SMs (see SMExtension, 'Shared state')"
        )


class _VectorMemory:
    """Shared L2 + DRAM, inlined.

    Replicates the float arithmetic of ``L2Cache.read_demand``/
    ``L2Cache.write`` and ``DRAMModel.access`` exactly (port/channel
    float servers, ``int()`` truncation, left-associative sums) and the
    L2 tag array's LRU-dict behaviour, without CacheLine objects or the
    statistics nothing reads (L2 hit/miss classification, queue delays,
    busy cycles). It is also the ``sm.memory`` an extension sees:
    ``traffic``, ``backup_registers`` and ``restore_registers``.
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
        "backup_write_lines",
        "restore_read_lines",
        # True while the running SM is inside a hook it called right
        # after a sync point — the only time a hook may stream registers.
        "hook_synced",
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
        self.backup_write_lines = 0
        self.restore_read_lines = 0
        self.hook_synced = False

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

    def ports(self, sm_id: int) -> tuple:
        """``(fetch_line, write_line)`` as SM ``sm_id`` calls them; this
        model keeps nothing per SM."""
        return self.fetch_line, self.write_line

    def _stream(self, num_lines: int, cycle: int) -> int:
        """``num_lines`` back-to-back ``DRAMModel.access`` calls that all
        arrive at ``cycle`` (the register backup region bypasses L2);
        returns when the last one completes."""
        _require_sync(self)
        arrive = float(cycle)
        ready = cycle
        for _ in range(num_lines):
            start = self.dram_free
            if arrive > start:
                start = arrive
            self.dram_free = start + self.dram_svc
            ready = int(start + self.dram_svc + self.dram_lat)
        return ready

    def backup_registers(self, num_lines: int, cycle: int) -> int:
        self.dram_writes += num_lines
        self.backup_write_lines += num_lines
        return self._stream(num_lines, cycle)

    def restore_registers(self, num_lines: int, cycle: int) -> int:
        self.dram_reads += num_lines
        self.restore_read_lines += num_lines
        return self._stream(num_lines, cycle)

    @property
    def traffic(self) -> TrafficStats:
        return TrafficStats(
            demand_read_lines=self.demand_read_lines,
            store_write_lines=self.store_write_lines,
            backup_write_lines=self.backup_write_lines,
            restore_read_lines=self.restore_read_lines,
        )


class _SubsystemMemory(MemorySubsystem):
    """The general hierarchy — bank-level timing DRAM, the SM-to-L2
    interconnect, the backup-region cursor — under the names the machine
    calls. The models are shared state behind ``fetch_line`` /
    ``write_line`` / ``backup_registers`` / ``restore_registers``, which
    the coroutine only reaches right after a sync point, so they see the
    oracle's call order and need no arithmetic of their own here."""

    hook_synced = False

    def ports(self, sm_id: int) -> tuple:
        return (
            functools.partial(self.fetch_line, sm_id=sm_id),
            functools.partial(self.write_line, sm_id=sm_id),
        )

    def backup_registers(self, num_lines: int, cycle: int) -> int:
        _require_sync(self)
        return super().backup_registers(num_lines, cycle)

    def restore_registers(self, num_lines: int, cycle: int) -> int:
        _require_sync(self)
        return super().restore_registers(num_lines, cycle)

    @property
    def dram_reads(self) -> int:
        return self.dram.stats.reads

    @property
    def dram_writes(self) -> int:
        return self.dram.stats.writes


class _L1:
    """The L1 as an extension sees it (geometry and occupancy) plus the
    statistics a result reports. ``sets[i]`` maps tag -> line metadata
    in LRU order; the metadata is the line's ``(hpc, owner)`` when the
    extension wants evictions (it reads them off the evicted line) and
    a bare ``True`` otherwise."""

    __slots__ = ("sets", "num_sets", "assoc", "line_bytes", "stats")

    def __init__(self, config: GPUConfig) -> None:
        self.assoc = config.l1_assoc
        self.line_bytes = config.l1_line_bytes
        self.num_sets = config.l1_size_bytes // (self.assoc * self.line_bytes)
        self.sets: list[dict] = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self.sets)


class WarpView:
    """One warp as an extension sees it: a view over the SM's arrays
    with the throttling transitions of the oracle's ``Warp``."""

    __slots__ = ("sm", "warp_id", "launch_order")

    def __init__(self, sm: "VectorSM", warp_id: int, launch_order: int) -> None:
        self.sm = sm
        self.warp_id = warp_id
        self.launch_order = launch_order

    @property
    def base_register(self) -> int:
        return self.sm.w_base[self.warp_id]

    @base_register.setter
    def base_register(self, base: int) -> None:
        self.sm.rebase(self.warp_id, base)

    @property
    def finished(self) -> bool:
        return self.sm.w_state[self.warp_id] == _FINISHED

    def deactivate(self) -> None:
        sm, w = self.sm, self.warp_id
        state = sm.w_state[w]
        if state == _FINISHED:
            return
        sm.w_throttled[w] = True
        if state == _READY:
            sm.w_state[w] = _INACTIVE
            sm.w_true_rc[w] = sm.w_rc[w]
            sm.w_rc[w] = _INF
            sm.rescan(w % sm.nsched)

    def reactivate(self, cycle: int) -> None:
        sm, w = self.sm, self.warp_id
        sm.w_throttled[w] = False
        if sm.w_state[w] == _INACTIVE:
            sm.w_state[w] = _READY
            sm.w_rc[w] = max(sm.w_true_rc[w], cycle)
            sm.rescan(w % sm.nsched)


def _tracked_outcome(record: Callable, on_load_outcome: Optional[Callable]) -> Callable:
    """``on_load_outcome`` with the load tracker's ``record`` in front.
    Built here, not inside ``run_gen``, so no local of that frame
    becomes a closure cell."""
    if on_load_outcome is None:
        def outcome(pc, hpc, line_addr, hit, cycle, warp):
            record(pc, line_addr, hit, cycle)
    else:
        def outcome(pc, hpc, line_addr, hit, cycle, warp):
            record(pc, line_addr, hit, cycle)
            on_load_outcome(pc, hpc, line_addr, hit, cycle, warp)
    return outcome


class VectorSM:
    """One SM's struct-of-arrays state and fused tick coroutine.

    Also the ``sm`` its extension is attached to: ``sm_id``, ``config``,
    ``kernel``, ``memory``, ``l1``, ``register_file``, ``ctas`` (real
    :class:`~repro.gpu.cta.CTA` records over :class:`WarpView` views),
    ``stats`` and ``schedule_event`` are the surface ``core/`` and
    ``baselines/`` touch.
    """

    __slots__ = (
        "sm_id",
        "config",
        "kernel",
        "memory",
        "cta_source",
        "compiled",
        "extension",
        "register_file",
        "l1",
        "stats",
        # Opt-in recorders (None when off): per-PC load behaviour for
        # Figs 2-3, and per-window counter rows.
        "load_tracker",
        "recorder",
        # Per-warp SoA, indexed by warp id (slot * warps_per_cta + w).
        # w_rc holds the ready cycle for READY warps and inf otherwise
        # (see module docstring); w_state holds the precise state,
        # w_throttled Warp.throttled, and w_true_rc the ready cycle a
        # warp went INACTIVE with.
        "w_state",
        "w_rc",
        "w_true_rc",
        "w_throttled",
        "w_view",
        "w_pend",
        "w_ip",
        "w_lp",
        "w_sp",
        "w_base",
        "w_ops",
        "w_opnds",
        "w_loads",
        "w_stores",
        "w_load_pcs",
        "w_len",
        "w_banks2",
        "w_banks3",
        # Schedulers. dirty[0] asks the coroutine to recompute its next
        # tick from scratch (a CTA or a warp changed scheduling state
        # somewhere the fused scan may already have passed).
        "nsched",
        "sched_warps",
        "sched_greedy",
        "sched_hint",
        "sched_hint_valid",
        "dirty",
        # CTA bookkeeping.
        "ctas",
        "next_slot",
        "launched",
        "occupancy_limit",
        "warps_per_cta",
        # L1 line metadata of in-flight misses + MSHR.
        "l1_ever",
        "fill_meta",
        "mshr",
        "mshr_capacity",
        "mshr_stalls",
        # Stall certificates. fill_gen counts L1 fill deliveries;
        # a warp whose load failed MSHR admission records the fill
        # generation (w_sgen) and its admission margin (w_smargin =
        # distinct missing lines minus free entries). The margin can
        # only shrink by one per fill event (module docstring), so
        # while w_smargin[w] > fill_gen - w_sgen[w] the warp's retry
        # provably fails and is counted without rescanning its
        # addresses.
        "fill_gen",
        "w_sgen",
        "w_smargin",
        # Events: heap of (ready_cycle, seq, kind, payload).
        "events",
        "event_seq",
        # Latencies.
        "alu_latency",
        "l1_hit_latency",
        "max_outstanding",
        "truncated",
        "final_cycle",
    )

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        kernel: KernelTrace,
        memory: "_VectorMemory | _SubsystemMemory",
        cta_source,
        compiled: CompiledKernel,
        extension: Optional[SMExtension] = None,
        max_concurrent_ctas: Optional[int] = None,
        load_tracker: Optional[LoadTracker] = None,
        recorder: Optional[WindowRecorder] = None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.kernel = kernel
        self.memory = memory
        self.cta_source = cta_source
        self.compiled = compiled
        self.extension = extension or SMExtension()
        self.load_tracker = load_tracker
        self.recorder = recorder
        self.register_file = RegisterFile(
            config.register_file_bytes,
            num_banks=config.register_banks,
            ports_per_bank=config.register_bank_ports,
        )
        self.l1 = _L1(config)
        self.stats = SMStats()

        self.w_state: list[int] = []
        self.w_rc: list = []
        self.w_true_rc: list[int] = []
        self.w_throttled: list[bool] = []
        self.w_view: list = []
        self.w_pend: list[int] = []
        self.w_ip: list[int] = []
        self.w_lp: list[int] = []
        self.w_sp: list[int] = []
        self.w_base: list[int] = []
        self.w_ops: list = []
        self.w_opnds: list = []
        self.w_loads: list = []
        self.w_stores: list = []
        self.w_load_pcs: list = []
        self.w_len: list[int] = []
        self.w_banks2: list[tuple] = []
        self.w_banks3: list[tuple] = []

        self.nsched = config.num_schedulers
        self.sched_warps: list[list[int]] = [[] for _ in range(self.nsched)]
        self.sched_greedy: list[int] = [-1] * self.nsched
        self.sched_hint: list[float] = [0.0] * self.nsched
        self.sched_hint_valid: list[bool] = [False] * self.nsched
        self.dirty = [False]

        self.ctas: dict[int, CTA] = {}
        self.next_slot = 0
        self.launched = 0
        self.warps_per_cta = kernel.warps_per_cta

        self.l1_ever: set[int] = set()
        self.fill_meta: dict[int, tuple] = {}
        self.mshr: dict[int, list[int]] = {}
        self.mshr_capacity = config.l1_mshrs
        self.mshr_stalls = 0
        self.fill_gen = 0
        self.w_sgen: list[int] = []
        self.w_smargin: list[int] = []

        self.events: list[tuple] = []
        self.event_seq = itertools.count()

        self.alu_latency = config.alu_latency
        self.l1_hit_latency = config.l1_hit_latency
        self.max_outstanding = config.max_outstanding_loads
        self.truncated = False
        self.final_cycle = 0

        self.occupancy_limit = hardware_occupancy(config, kernel)
        if max_concurrent_ctas is not None:
            self.occupancy_limit = min(self.occupancy_limit, max_concurrent_ctas)
        # SMs are built, and finalized, one after another in sm_id
        # order: hooks may reach shared memory there too.
        memory.hook_synced = True
        self.extension.attach(self)
        self.extension.resolve_flags()
        while len(self.ctas) < self.occupancy_limit:
            if not self._launch_next_cta(0):
                break
        memory.hook_synced = False

    # ------------------------------------------------------------------
    # What the extension calls back into
    # ------------------------------------------------------------------
    def schedule_event(self, ready_cycle: int, kind: int, payload: object) -> None:
        """Queue an event (``repro.gpu.extension.EV_*``); an
        ``EV_CALLBACK`` payload is called with its ready cycle."""
        heapq.heappush(self.events, (ready_cycle, next(self.event_seq), kind, payload))

    def rescan(self, sidx: int) -> None:
        """A warp of scheduler ``sidx`` changed scheduling state outside
        the issue path: drop the scheduler's memoised hint and have the
        coroutine recompute its next tick in full."""
        self.sched_hint_valid[sidx] = False
        self.dirty[0] = True

    def rebase(self, warp_id: int, base: int) -> None:
        """Point a warp's operand accounting at a (new) register base."""
        nb = self.register_file.num_banks
        self.w_base[warp_id] = base
        self.w_banks2[warp_id] = (base % nb, (base + 1) % nb)
        self.w_banks3[warp_id] = (base % nb, (base + 1) % nb, (base + 2) % nb)

    # ------------------------------------------------------------------
    # Timeseries recording
    # ------------------------------------------------------------------
    @property
    def timeseries(self):
        """The recorded :class:`~repro.metrics.WindowSeries`, or None
        when this run did not record timeseries."""
        return self.recorder.series if self.recorder is not None else None

    def _ts_sample(self, cycle: int, boundary: int, counters: tuple) -> int:
        """Capture every window boundary the clock has crossed and
        return the next one. ``counters`` are the coroutine's
        frame-local statistics, written back here because the recorder
        differences ``stats``.

        Event fast-forward can jump several windows at once; the loop
        emits one row per boundary (intermediate rows carry zero
        counter deltas, matching the extension's own catch-up loop).
        """
        stats = self.stats
        (stats.instructions, stats.loads, stats.stores, stats.l1_hits, stats.l1_misses,
         stats.victim_hits, stats.bypasses, stats.mem_requests) = counters
        rec = self.recorder
        window = rec.series.window_cycles
        ext = self.extension
        while cycle >= boundary:
            extra = ext.timeseries_sample(boundary) if ext.wants_timeseries else None
            active = 0
            for cta in self.ctas.values():
                if cta.state is CTAState.ACTIVE:
                    active += 1
            rec.capture(boundary, stats, active, len(self.ctas) - active, extra)
            boundary += window
        return boundary

    # ------------------------------------------------------------------
    # CTA lifecycle
    # ------------------------------------------------------------------
    def _launch_next_cta(self, cycle: int) -> bool:
        for s in range(self.nsched):
            self.rescan(s)
        grid_id = self.cta_source()
        if grid_id is None:
            return False
        slot = self.next_slot
        self.next_slot += 1
        kernel = self.kernel
        regs = self.register_file.allocate(kernel.warp_registers_per_cta, owner=slot)
        if regs is None:
            raise RuntimeError(
                f"SM{self.sm_id}: register allocation failed for CTA slot {slot}"
            )
        # Launches bursting within one window do produce bank conflicts.
        self.register_file.write_range(regs, register_tokens(slot, regs), cycle=-1)
        streams = self.compiled.warp_streams(grid_id)
        wpc = self.warps_per_cta
        w_state = self.w_state
        warps = []
        for w in range(wpc):
            warp_id = slot * wpc + w
            ops, opnds, lds, sts, load_pcs = streams[w]
            while len(w_state) <= warp_id:
                self._grow_warp_arrays()
            self.w_ops[warp_id] = ops
            self.w_opnds[warp_id] = opnds
            self.w_loads[warp_id] = lds
            self.w_stores[warp_id] = sts
            self.w_load_pcs[warp_id] = load_pcs
            self.w_len[warp_id] = len(ops)
            if ops:
                w_state[warp_id] = _READY
                self.w_rc[warp_id] = 0
            else:
                w_state[warp_id] = _FINISHED
                self.w_rc[warp_id] = _INF
            self.w_throttled[warp_id] = False
            self.w_sgen[warp_id] = -1
            self.w_smargin[warp_id] = 0
            self.w_pend[warp_id] = 0
            self.w_ip[warp_id] = 0
            self.w_lp[warp_id] = 0
            self.w_sp[warp_id] = 0
            self.rebase(warp_id, regs.start + w * kernel.warp_registers_per_warp)
            self.w_view[warp_id] = view = WarpView(self, warp_id, self.launched)
            self.launched += 1
            warps.append(view)
            self.sched_warps[warp_id % self.nsched].append(warp_id)
        self.ctas[slot] = CTA(slot=slot, grid_cta_id=grid_id, warps=warps, register_range=regs)
        self.extension.on_cta_launched(slot, cycle)
        return True

    def _grow_warp_arrays(self) -> None:
        self.w_state.append(_FINISHED)
        self.w_rc.append(_INF)
        self.w_true_rc.append(0)
        self.w_throttled.append(False)
        self.w_view.append(None)
        self.w_sgen.append(-1)
        self.w_smargin.append(0)
        self.w_pend.append(0)
        self.w_ip.append(0)
        self.w_lp.append(0)
        self.w_sp.append(0)
        self.w_base.append(0)
        self.w_ops.append(())
        self.w_opnds.append(())
        self.w_loads.append(())
        self.w_stores.append(())
        self.w_load_pcs.append(())
        self.w_len.append(0)
        self.w_banks2.append(())
        self.w_banks3.append(())

    def _complete_cta(self, slot: int, cycle: int) -> None:
        for s in range(self.nsched):
            self.rescan(s)
        cta = self.ctas[slot]
        cta.state = CTAState.FINISHED
        self.extension.on_cta_finished(slot, cycle)
        if cta.register_range is not None:
            self.register_file.free(cta.register_range)
            cta.register_range = None
        del self.ctas[slot]
        w_state = self.w_state
        sched_warps = self.sched_warps
        greedy = self.sched_greedy
        for s in range(self.nsched):
            sched_warps[s] = [w for w in sched_warps[s] if w_state[w] != _FINISHED]
            g = greedy[s]
            if g >= 0 and w_state[g] == _FINISHED:
                greedy[s] = -1
        # Paper Section 3.2: a throttled CTA is re-scheduled in priority;
        # only if there is none is a new CTA fetched.
        if not self.extension.try_reactivate_cta(cycle):
            self._launch_next_cta(cycle)

    # ------------------------------------------------------------------
    # The SM coroutine: fused tick loop over the SM-local clock
    # ------------------------------------------------------------------
    def run_gen(self, max_cycles: int):
        """Run this SM to completion as a coroutine.

        Yields the current cycle immediately before every step that can
        touch shared device state — an L2/DRAM access (load-miss or
        bypass fetch, store write-through), a CTA fetch from the grid
        dispenser, and every hook that may reach ``sm.memory``
        (``on_tick`` at a window boundary, a timeseries sample, an
        ``EV_CALLBACK`` delivery, the CTA lifecycle hooks) — and
        performs that step right after being resumed. The device
        coordinator resumes coroutines in global
        ``(cycle, sm_id)`` order, which reproduces the oracle's
        interleaving of shared-state mutations exactly; everything else
        the SM touches is private, so between sync points it may run
        arbitrarily far ahead of its siblings (see the module docstring
        for why the tick times themselves are SM-local).

        All hot state — the extension's capability flags and bound
        hooks included — is bound into frame locals once, for the whole
        run; every bound object is mutated in place (never rebound), so
        the references stay valid across hook and CTA-lifecycle calls.
        ``sched_warps`` inner lists ARE rebound by ``_complete_cta`` —
        indexed via the outer list each time. Scalar counters live as
        plain locals and are written back in the ``finally`` block
        (``stats.instructions`` also before every ``on_tick``, which is
        where an extension reads it).
        """
        events = self.events
        next_seq = self.event_seq.__next__
        w_state = self.w_state
        w_rc = self.w_rc
        w_true_rc = self.w_true_rc
        w_throttled = self.w_throttled
        w_view = self.w_view
        w_pend = self.w_pend
        w_ip = self.w_ip
        w_lp = self.w_lp
        w_sp = self.w_sp
        w_base = self.w_base
        w_ops = self.w_ops
        w_opnds = self.w_opnds
        w_loads = self.w_loads
        w_stores = self.w_stores
        w_load_pcs = self.w_load_pcs
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
        dirty = self.dirty
        ctas = self.ctas
        wpc = self.warps_per_cta
        mshr = self.mshr
        mshr_capacity = self.mshr_capacity
        fill_meta = self.fill_meta
        l1_sets = self.l1.sets
        num_sets = self.l1.num_sets
        l1_assoc = self.l1.assoc
        l1_ever = self.l1_ever
        rf = self.register_file
        rf_account = rf.account_operand_traffic
        rf_window = rf._window
        bank_epoch = rf._bank_epoch
        bank_count = rf._bank_count
        rf_ports = rf.ports_per_bank
        nb = rf.num_banks
        alu_latency = self.alu_latency
        hit_latency = self.l1_hit_latency
        max_out = self.max_outstanding
        memory = self.memory
        fetch_line, write_line = memory.ports(self.sm_id)
        heappush = heapq.heappush
        heappop = heapq.heappop
        stats = self.stats

        ext = self.extension
        wants_ticks = ext.wants_ticks
        wants_outcomes = ext.wants_load_outcomes
        has_victim = ext.has_victim_cache
        may_bypass = ext.may_bypass
        wants_stores = ext.wants_store_events
        controls_fill = ext.controls_fill
        wants_evictions = ext.wants_evictions
        wants_timeseries = ext.wants_timeseries
        tick_period = ext.shared_tick_period() or 1
        shared_tick = 0
        on_tick = ext.on_tick
        on_load_outcome = ext.on_load_outcome
        if self.load_tracker is not None:
            # The tracker records exactly where on_load_outcome fires.
            on_load_outcome = _tracked_outcome(
                self.load_tracker.record, on_load_outcome if wants_outcomes else None
            )
            wants_outcomes = True
        hooked_loads = wants_outcomes or has_victim or may_bypass or wants_evictions
        # The next window boundary to record. Off, the per-tick cost is
        # one local-bool test.
        recording = self.recorder is not None
        ts_next = self.recorder.series.window_cycles if recording else 0
        lookup_victim = ext.lookup_victim
        should_bypass = ext.should_bypass
        on_store = ext.on_store
        allocate_fill = ext.allocate_fill
        on_l1_eviction = ext.on_l1_eviction

        instructions = 0
        loads = 0
        stores = 0
        l1_hits = 0
        l1_misses = 0
        victim_hits = 0
        bypasses = 0
        l1_cold = 0
        l1_wh = 0
        l1_wm = 0
        l1_evictions = 0
        mem_requests = 0
        mshr_stalls = 0
        rf_reads = 0
        rf_conflicts = 0
        fill_gen = self.fill_gen
        # L1 line metadata of the load being issued, and its identity
        # for the hooks (bound per load only when a hook wants them).
        line_meta: object = True
        pc = hpc = 0
        warp = None

        if not ctas and not events:
            return

        t = 0
        h: float = 0
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
                        if kind == EV_WAKE:
                            pend = w_pend[payload] - 1
                            if pend < 0:
                                raise RuntimeError(
                                    "memory response for warp with none pending"
                                )
                            w_pend[payload] = pend
                            if w_state[payload] == _BLOCKED and pend < max_out:
                                if w_throttled[payload]:
                                    w_state[payload] = _INACTIVE
                                    w_true_rc[payload] = ready
                                else:
                                    w_state[payload] = _READY
                                    w_rc[payload] = ready
                                    hint_valid[payload % nsched] = False
                        elif kind == EV_FILL:
                            # The only event that can improve MSHR
                            # admission: age every stall certificate.
                            fill_gen += 1
                            waiters = mshr.pop(payload, ())
                            meta = fill_meta.pop(payload) if wants_evictions else True
                            if not controls_fill or allocate_fill(payload):
                                # SetAssociativeCache.fill over bare
                                # metadata.
                                l1_ever.add(payload)
                                set_idx = payload % num_sets
                                ways = l1_sets[set_idx]
                                tag = payload // num_sets
                                victim = None
                                if tag in ways:
                                    del ways[tag]
                                elif len(ways) >= l1_assoc:
                                    vtag = next(iter(ways))
                                    victim = ways.pop(vtag)
                                    l1_evictions += 1
                                ways[tag] = meta
                                if wants_evictions and victim is not None:
                                    vaddr = vtag * num_sets + set_idx
                                    on_l1_eviction(
                                        vaddr,
                                        CacheLine(vtag, vaddr, victim[0], victim[1]),
                                        ready,
                                    )
                            for widx in waiters:
                                pend = w_pend[widx] - 1
                                if pend < 0:
                                    raise RuntimeError(
                                        "memory response for warp with none pending"
                                    )
                                w_pend[widx] = pend
                                if w_state[widx] == _BLOCKED and pend < max_out:
                                    if w_throttled[widx]:
                                        w_state[widx] = _INACTIVE
                                        w_true_rc[widx] = ready
                                    else:
                                        w_state[widx] = _READY
                                        w_rc[widx] = ready
                                hint_valid[widx % nsched] = False
                        else:  # EV_CALLBACK, e.g. a backup/restore step
                            yield cycle  # sync: may reach sm.memory
                            memory.hook_synced = True
                            payload(ready)
                            memory.hook_synced = False
                        if not events or events[0][0] > cycle:
                            break

                if wants_ticks:
                    stats.instructions = instructions
                    if cycle >= shared_tick:
                        # The first tick at or past a multiple of the
                        # extension's period: a window close may back
                        # up or restore registers.
                        shared_tick = (cycle // tick_period + 1) * tick_period
                        yield cycle  # sync: may reach sm.memory
                        memory.hook_synced = True
                        on_tick(cycle)
                        memory.hook_synced = False
                    else:
                        on_tick(cycle)

                if recording and cycle >= ts_next:
                    # After on_tick: the extension has closed its windows
                    # up to this cycle, so the sampled mechanism state
                    # (monitor phase, throttle ladder, VPs) is the
                    # post-boundary state.
                    if wants_timeseries:
                        yield cycle  # sync: a sample may read sm.memory.traffic
                    ts_next = self._ts_sample(cycle, ts_next, (
                        instructions, loads, stores, l1_hits, l1_misses,
                        victim_hits, bypasses, mem_requests,
                    ))

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
                        # Defensive, as in the oracle: a READY warp
                        # without an instruction reports as issuable.
                        hint = cycle
                        continue
                    op = w_ops[pick][ip]
                    if op == 0:  # ALU
                        instructions += 1
                        nops = w_opnds[pick][ip]
                        if nops:
                            # Inlined RegisterFile.account_operand_traffic
                            # (hottest path) over the register file's
                            # own window.
                            epoch = rf_window[1]
                            if cycle != rf_window[0]:
                                rf_window[0] = cycle
                                rf_window[1] = epoch = epoch + 1
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
                                    bank_count[bank] = 1
                                else:
                                    c = bank_count[bank]
                                    if c >= rf_ports:
                                        rf_conflicts += 1
                                    bank_count[bank] = c + 1
                            rf_reads += nops
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
                        lp = w_lp[pick]
                        entry = w_loads[pick][lp]
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
                                # fill (module docstring), so it still
                                # exceeds zero — fail without
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
                        if hooked_loads:
                            pc, hpc = w_load_pcs[pick][lp]
                            warp = w_view[pick]
                            if wants_evictions:
                                line_meta = (hpc, pick)
                        for a in addrs:
                            if may_bypass and should_bypass(warp, a, cycle):
                                bypasses += 1
                                yield cycle  # sync: shared L2/DRAM access
                                ready = fetch_line(a, cycle)
                                heappush(events, (ready, next_seq(), EV_WAKE, pick))
                                if wants_outcomes:
                                    on_load_outcome(pc, hpc, a, False, cycle, warp)
                                continue
                            ways = l1_sets[a % num_sets]
                            tag = a // num_sets
                            if tag in ways:
                                # LRU touch: move to the end of the set
                                # dict, refreshing (hpc, owner).
                                del ways[tag]
                                ways[tag] = line_meta
                                l1_hits += 1
                                heappush(events, (hit_ready, next_seq(), EV_WAKE, pick))
                                if wants_outcomes:
                                    on_load_outcome(pc, hpc, a, True, cycle, warp)
                                continue
                            if a not in l1_ever:
                                l1_cold += 1
                            if has_victim:
                                latency = lookup_victim(a, hpc, cycle)
                                if latency is not None:
                                    victim_hits += 1
                                    heappush(
                                        events, (cycle + latency, next_seq(), EV_WAKE, pick)
                                    )
                                    if wants_outcomes:
                                        on_load_outcome(pc, hpc, a, True, cycle, warp)
                                    continue
                            l1_misses += 1
                            if wants_outcomes:
                                on_load_outcome(pc, hpc, a, False, cycle, warp)
                            waiters = mshr.get(a)
                            if waiters is not None:
                                waiters.append(pick)
                            else:
                                mshr[a] = [pick]
                                if wants_evictions:
                                    fill_meta[a] = line_meta
                                yield cycle  # sync: shared L2/DRAM access
                                ready = fetch_line(a, cycle)
                                heappush(events, (ready, next_seq(), EV_FILL, a))
                        # Retire + scoreboard (Warp.block_on_memory).
                        instructions += 1
                        nops = w_opnds[pick][ip]
                        if nops:
                            epoch = rf_window[1]
                            if cycle != rf_window[0]:
                                rf_window[0] = cycle
                                rf_window[1] = epoch = epoch + 1
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
                                    bank_count[bank] = 1
                                else:
                                    c = bank_count[bank]
                                    if c >= rf_ports:
                                        rf_conflicts += 1
                                    bank_count[bank] = c + 1
                            rf_reads += nops
                        ip += 1
                        w_ip[pick] = ip
                        w_lp[pick] = lp + 1
                        # READY — or INACTIVE, when one of this load's
                        # own hooks throttled the issuer.
                        state = w_state[pick] if ip < w_len[pick] else _FINISHED
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
                            if state == _INACTIVE:
                                w_true_rc[pick] = cycle + 1
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
                            if wants_stores:
                                on_store(a, cycle)
                            write_line(a, cycle)
                        instructions += 1
                        nops = w_opnds[pick][ip]
                        if nops:
                            rf_account(nops, w_base[pick], cycle)
                        ip += 1
                        w_ip[pick] = ip
                        w_sp[pick] += 1
                        if ip >= w_len[pick]:
                            w_state[pick] = _FINISHED
                            w_rc[pick] = _INF
                        elif w_state[pick] == _READY:
                            w_rc[pick] = rc = cycle + 1
                            if rc < hint:
                                hint = rc
                        else:  # on_store throttled the issuer
                            w_true_rc[pick] = cycle + 1
                    else:  # EXIT
                        instructions += 1
                        nops = w_opnds[pick][ip]
                        if nops:
                            rf_account(nops, w_base[pick], cycle)
                        w_ip[pick] = ip + 1
                        w_state[pick] = _FINISHED
                        w_rc[pick] = _INF
                        slot = pick // wpc
                        if slot in ctas:
                            for w in range(slot * wpc, slot * wpc + wpc):
                                if w_state[w] != _FINISHED:
                                    break
                            else:
                                # sync: grid CTA dispenser, lifecycle hooks
                                yield cycle
                                memory.hook_synced = True
                                self._complete_cta(slot, cycle)
                                memory.hook_synced = False

                # ---- next own-clock hint ----
                if dirty[0]:
                    dirty[0] = False
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
            stats.instructions = instructions
            stats.loads = loads
            stats.stores = stores
            stats.l1_hits = l1_hits
            stats.l1_misses = l1_misses
            stats.victim_hits = victim_hits
            stats.bypasses = bypasses
            stats.mem_requests = mem_requests
            # Cache-level view: every probe miss, victim hits included;
            # bypassed lines never probe.
            l1_stats = self.l1.stats
            l1_stats.hits = l1_hits
            l1_stats.misses = l1_misses + victim_hits
            l1_stats.cold_misses = l1_cold
            l1_stats.capacity_conflict_misses = l1_misses + victim_hits - l1_cold
            l1_stats.evictions = l1_evictions
            l1_stats.write_hits = l1_wh
            l1_stats.write_misses = l1_wm
            rf.stats.reads += rf_reads
            rf.stats.bank_conflicts += rf_conflicts
            self.mshr_stalls = mshr_stalls
            self.fill_gen = fill_gen
            self.final_cycle = t

    # ------------------------------------------------------------------
    # Clocking interface
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
            # Deadlock guard: inactive CTAs with nothing pending.
            best = cycle + 1
        return best

    @property
    def done(self) -> bool:
        return not self.ctas and not self.events


class VectorGPU:
    """Whole-device coordinator over :class:`VectorSM` coroutines.

    There is no global tick heap: each SM free-runs on its own clock
    (exact — see the module docstring) and blocks at shared-state sync
    points, which the coordinator commits in global ``(cycle, sm_id)``
    order.
    """

    def __init__(
        self,
        config: SimulationConfig,
        kernel: KernelTrace,
        extension_factory: Optional[Callable[[], SMExtension]] = None,
        max_concurrent_ctas: Optional[int] = None,
        track_loads: bool = False,
        timeseries: bool = False,
    ) -> None:
        self.config = config
        self.kernel = kernel
        gpu = config.gpu
        # The memory model is read off the request's own configuration:
        # the inlined float servers are the simple model and nothing else.
        general = gpu.dram_model != "simple" or gpu.noc_enable
        self.memory = _SubsystemMemory(gpu) if general else _VectorMemory(gpu)
        # Load tracking and timeseries rows share the mechanism's window
        # grid.
        window = config.linebacker.window_cycles
        compiled = CompiledKernel(kernel)
        # The grid dispenser: the next unlaunched CTA id, or None.
        cta_source = functools.partial(next, iter(range(kernel.num_ctas)), None)
        self.sms = [
            VectorSM(
                sm_id=i,
                config=config.gpu,
                kernel=kernel,
                memory=self.memory,
                cta_source=cta_source,
                compiled=compiled,
                extension=extension_factory() if extension_factory else None,
                max_concurrent_ctas=max_concurrent_ctas,
                load_tracker=LoadTracker(window) if track_loads else None,
                recorder=(
                    WindowRecorder(window, SM_STATS.counter_names()) if timeseries else None
                ),
            )
            for i in range(config.gpu.num_sms)
        ]

    def run(self, keep_objects: bool = False) -> SimulationResult:
        """Run the kernel to completion (or the cycle cap).
        ``keep_objects`` hands back the live SMs and extensions instead
        of their snapshots."""
        max_cycles = self.config.max_cycles
        sms = self.sms
        # Advance every SM to its first sync point, then commit sync
        # points in (cycle, sm_id) order. Once a single SM remains
        # there is nothing to order against — drain it.
        pending: list[tuple] = []
        for sm in sms:
            gen = sm.run_gen(max_cycles)
            try:
                c = next(gen)
            except StopIteration:
                continue
            pending.append((c, sm.sm_id, gen))
        heapq.heapify(pending)
        heappop, heappushpop = heapq.heappop, heapq.heappushpop
        while len(pending) > 1:
            c, sm_id, gen = heappop(pending)
            try:
                while True:
                    # Park this SM at its next sync point and take
                    # whichever is now earliest (often itself).
                    c, sm_id, gen = heappushpop(pending, (next(gen), sm_id, gen))
            except StopIteration:
                pass
        if pending:
            for _ in pending[0][2]:
                pass
        if any(sm.truncated for sm in sms):
            cycle = max_cycles
        else:
            cycle = max((sm.final_cycle for sm in sms), default=0)
        memory = self.memory
        memory.hook_synced = True
        for sm in sms:
            sm.stats.cycles = cycle
            if sm.load_tracker is not None:
                sm.load_tracker.close_window()
            sm.extension.finalize(cycle)
        return SimulationResult(
            kernel_name=self.kernel.name,
            cycles=cycle,
            sm_stats=[sm.stats for sm in sms],
            traffic=memory.traffic,
            dram_reads=memory.dram_reads,
            dram_writes=memory.dram_writes,
            l1_stats=[sm.l1.stats for sm in sms],
            rf_stats=[sm.register_file.stats for sm in sms],
            extensions=[
                sm.extension if keep_objects else snapshot_extension(sm.extension) for sm in sms
            ],
            sms=list(sms) if keep_objects else [snapshot_sm(sm) for sm in sms],
        )
