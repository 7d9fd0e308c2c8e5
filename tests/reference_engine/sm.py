"""Streaming multiprocessor (SM) model.

The SM executes resident CTAs' warps through four GTO schedulers,
a banked register file, and an L1 data cache with MSHRs in front of
the shared memory subsystem. Memory-path policies (Linebacker, PCAL,
CERF) plug in through :class:`repro.gpu.extension.SMExtension`.

The clock is cycle-driven with event fast-forward: when no warp can
issue, the SM's next interesting cycle is the earliest pending memory
response, so memory-bound regions cost O(events), not O(cycles).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.config import GPUConfig
from repro.gpu.cta import CTA, CTAState
from repro.gpu.extension import EV_CALLBACK, EV_FILL, EV_WAKE, SMExtension
from repro.gpu.isa import Instruction, Op
from repro.gpu.register_file import RegisterFile, register_tokens
from repro.gpu.stats import SM_STATS, LoadTracker, SMStats
from repro.gpu.trace import KernelTrace, hardware_occupancy
from repro.memory.cache import SetAssociativeCache
from repro.memory.mshr import MSHRFile
from repro.metrics import WindowRecorder

from .generator import warp_stream
from .memory import MemorySubsystem
from .scheduler import GTOScheduler
from .warp import Warp, WarpState

#: A source of grid CTA ids: returns the next unlaunched CTA id or None.
CTASource = Callable[[], Optional[int]]

_NO_EVENT = float("inf")

# Hot enum members hoisted to module level: `inst.op is _OP_ALU` skips
# the Op class attribute lookup on every issued instruction.
_OP_ALU = Op.ALU
_OP_LOAD = Op.LOAD
_OP_EXIT = Op.EXIT
_OP_STORE = Op.STORE
_READY = WarpState.READY
_BLOCKED = WarpState.BLOCKED
_INACTIVE = WarpState.INACTIVE
_FINISHED = WarpState.FINISHED


class SM:
    """One streaming multiprocessor."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        kernel: KernelTrace,
        memory: MemorySubsystem,
        cta_source: CTASource,
        extension: Optional[SMExtension] = None,
        max_concurrent_ctas: Optional[int] = None,
        track_loads: bool = False,
        load_window: int = 50_000,
        record_timeseries: bool = False,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.kernel = kernel
        self.memory = memory
        self.cta_source = cta_source
        self.extension = extension or SMExtension()

        self.register_file = RegisterFile(
            config.register_file_bytes,
            num_banks=config.register_banks,
            ports_per_bank=config.register_bank_ports,
        )
        self.l1 = SetAssociativeCache(
            config.l1_size_bytes,
            config.l1_assoc,
            config.l1_line_bytes,
        )
        self.mshr = MSHRFile(config.l1_mshrs)
        self.schedulers = [GTOScheduler(i) for i in range(config.num_schedulers)]
        self.stats = SMStats()
        self.load_tracker = LoadTracker(load_window) if track_loads else None
        # Opt-in per-window timeseries. When off, the per-tick cost is
        # one float compare against the infinite sentinel (the same
        # trick the event fast-forward uses).
        self._ts_recorder: Optional[WindowRecorder] = None
        self._ts_next: float = _NO_EVENT
        if record_timeseries:
            # ``load_window`` is the mechanism window (the GPU passes
            # config.linebacker.window_cycles) — timeseries rows share
            # its boundary grid.
            self._ts_recorder = WindowRecorder(load_window, SM_STATS.counter_names())
            self._ts_next = load_window

        self.ctas: dict[int, CTA] = {}
        self._next_slot = 0
        self._launch_counter = itertools.count()
        self._event_seq = itertools.count()
        #: Heap of (ready_cycle, seq, kind, payload).
        self._events: list[tuple[int, int, int, object]] = []
        self.cycle = 0
        self._drained = False

        self.occupancy_limit = hardware_occupancy(config, kernel)
        if max_concurrent_ctas is not None:
            self.occupancy_limit = min(self.occupancy_limit, max_concurrent_ctas)

        self.extension.attach(self)
        # Eight real bools on the extension from here on; the hot paths
        # read them instead of making dynamic no-op calls per line.
        self.extension.resolve_flags()
        # on_tick's grid (SMExtension docstring): the first tick at or
        # past each multiple of the period, every tick without one.
        self._tick_period = self.extension.shared_tick_period() or 1
        self._next_on_tick = 0
        # Stable sub-objects of the L1/MSHR, hoisted once. The cache
        # never rebinds ``_sets`` and the MSHR file never rebinds
        # ``_entries`` (both mutate in place), so the load path can
        # skip two levels of attribute traversal per call.
        self._l1_sets = self.l1._sets
        self._l1_num_sets = self.l1.num_sets
        self._mshr_entries = self.mshr._entries
        self._mshr_capacity = self.mshr.capacity
        self._alu_latency = config.alu_latency
        self._l1_hit_latency = config.l1_hit_latency
        self._fill_occupancy(cycle=0)

    # ------------------------------------------------------------------
    # Occupancy and CTA lifecycle
    # ------------------------------------------------------------------
    def _fill_occupancy(self, cycle: int) -> None:
        while len(self.ctas) < self.occupancy_limit:
            if not self._launch_next_cta(cycle):
                break

    def _launch_next_cta(self, cycle: int) -> bool:
        grid_id = self.cta_source()
        if grid_id is None:
            return False
        slot = self._next_slot
        self._next_slot += 1
        regs = self.register_file.allocate(self.kernel.warp_registers_per_cta, owner=slot)
        if regs is None:
            raise RuntimeError(
                f"SM{self.sm_id}: register allocation failed for CTA slot {slot}"
            )
        self.register_file.write_range(regs, register_tokens(slot, regs), cycle=-1)
        warps = []
        # A generator kernel's streams come from the oracle's own
        # per-instruction generator, not from the program the machine
        # compiles: machine == oracle then also checks the generator.
        program = self.kernel.program
        for w in range(self.kernel.warps_per_cta):
            if program is None:
                trace = self.kernel.warp_trace(grid_id, w)
            else:
                trace = warp_stream(program.workload, program.scale, grid_id, w)
            warp = Warp(
                warp_id=slot * self.kernel.warps_per_cta + w,
                cta_slot=slot,
                launch_order=next(self._launch_counter),
                trace=trace,
                base_register=regs.start + w * self.kernel.warp_registers_per_warp,
                max_outstanding=self.config.max_outstanding_loads,
            )
            warps.append(warp)
            self.schedulers[warp.warp_id % len(self.schedulers)].add_warp(warp)
        self.ctas[slot] = CTA(
            slot=slot, grid_cta_id=grid_id, warps=warps, register_range=regs
        )
        self.extension.on_cta_launched(slot, cycle)
        return True

    def _complete_cta(self, cta: CTA, cycle: int) -> None:
        cta.state = CTAState.FINISHED
        self.extension.on_cta_finished(cta.slot, cycle)
        if cta.register_range is not None:
            self.register_file.free(cta.register_range)
            cta.register_range = None
        del self.ctas[cta.slot]
        for scheduler in self.schedulers:
            scheduler.remove_finished()
        # Paper Section 3.2: when an active CTA finishes, a previously
        # throttled CTA is re-scheduled in priority; only if there is
        # none is a new CTA fetched.
        if not self.extension.try_reactivate_cta(cycle):
            self._launch_next_cta(cycle)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def schedule_event(self, ready_cycle: int, kind: int, payload: object) -> None:
        """Queue an event. ``kind`` is one of :data:`EV_FILL`,
        :data:`EV_WAKE`, :data:`EV_CALLBACK`."""
        heapq.heappush(self._events, (ready_cycle, next(self._event_seq), kind, payload))

    def _process_events(self, cycle: int) -> None:
        events = self._events
        if not events or events[0][0] > cycle:
            return
        heappop = heapq.heappop
        handle_fill = self._handle_fill
        ready_state = _READY
        blocked = _BLOCKED
        inactive = _INACTIVE
        while events and events[0][0] <= cycle:
            ready, _, kind, payload = heappop(events)
            if kind == EV_WAKE:
                # Inlined Warp.memory_response — one wake event arrives
                # per load line, making this the busiest event kind.
                pending = payload.pending_responses - 1
                if pending < 0:
                    raise RuntimeError("memory response for warp with none pending")
                payload.pending_responses = pending
                if payload.state is blocked and pending < payload.max_outstanding:
                    if payload.throttled:
                        payload.state = inactive
                    else:
                        payload.state = ready_state
                    if payload.ready_cycle < ready:
                        payload.ready_cycle = ready
            elif kind == EV_FILL:
                handle_fill(payload, ready)
            elif kind == EV_CALLBACK:
                payload(ready)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown event kind {kind!r}")

    def _handle_fill(self, line_addr: int, cycle: int) -> None:
        # Inlined mshr.release(); the extension hooks are gated on the
        # capability flags (allocate_fill defaults to True, eviction
        # notification to a no-op).
        waiters = self._mshr_entries.pop(line_addr, [])
        if not self.extension.controls_fill or self.extension.allocate_fill(line_addr):
            hpc = waiters[0][1] if waiters else 0
            owner = waiters[0][0].warp_id if waiters else -1
            evicted = self.l1.fill(line_addr, token=line_addr, hpc=hpc, owner=owner)
            if evicted is not None and self.extension.wants_evictions:
                self.extension.on_l1_eviction(evicted[0], evicted[1], cycle)
        for warp, _hpc in waiters:
            warp.memory_response(cycle)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Advance the SM to ``cycle``: deliver responses, then issue.

        The per-scheduler issue loop inlines both the GTO pick (greedy
        warp first, else oldest ready — identical to
        :meth:`GTOScheduler.pick`) and the ALU retire path, the two
        most frequent call chains in the simulator. The caller asks
        :meth:`next_event_cycle` for the SM's next interesting cycle.
        """
        self.cycle = cycle
        events = self._events
        if events and events[0][0] <= cycle:
            self._process_events(cycle)
        if self.extension.wants_ticks and cycle >= self._next_on_tick:
            period = self._tick_period
            self._next_on_tick = (cycle // period + 1) * period
            self.extension.on_tick(cycle)
        if cycle >= self._ts_next:
            # After on_tick: the extension has closed its windows up to
            # this cycle, so the sampled mechanism state (monitor
            # phase, throttle ladder, VPs) is the post-boundary state —
            # exactly what the per-window log used to capture.
            self._ts_sample(cycle)
        ready = _READY
        stats = self.stats
        rf_account = self.register_file.account_operand_traffic
        alu_ready = cycle + self._alu_latency
        issue = self._issue
        execute_load = self._execute_load
        for scheduler in self.schedulers:
            warp = scheduler._greedy
            if warp is None or warp.state is not ready or warp.ready_cycle > cycle:
                warp = None
                for w in scheduler.warps:
                    if w.state is ready and w.ready_cycle <= cycle:
                        scheduler._greedy = warp = w
                        break
                if warp is None:
                    continue
            inst = warp._next_inst
            if inst is None:
                continue
            op = inst.op
            if op is _OP_ALU:
                warp.ready_cycle = alu_ready
                stats.instructions += 1
                if inst.operands:
                    rf_account(inst.operands, warp.base_register, cycle)
                warp.instructions_retired += 1
                nxt = next(warp._trace, None)
                warp._next_inst = nxt
                if nxt is None:
                    warp.state = _FINISHED
                scheduler.issues += 1
            elif op is _OP_LOAD:
                # Loads (and their MSHR-stall replays) skip the _issue
                # dispatch frame.
                if execute_load(warp, inst, cycle):
                    scheduler.issues += 1
            elif issue(warp, inst, cycle):
                scheduler.issues += 1

    def _issue(self, warp: Warp, inst: Instruction, cycle: int) -> bool:
        """Execute one instruction; returns False when it must retry."""
        op = inst.op
        if op is _OP_ALU:
            warp.ready_cycle = cycle + self._alu_latency
            self._retire(warp, inst, cycle)
            return True
        if op is _OP_EXIT:
            self._retire(warp, inst, cycle)
            warp.state = WarpState.FINISHED
            cta = self.ctas.get(warp.cta_slot)
            if cta is not None and cta.all_warps_finished():
                self._complete_cta(cta, cycle)
            return True
        if op is _OP_STORE:
            self._execute_store(warp, inst, cycle)
            return True
        return self._execute_load(warp, inst, cycle)

    def _retire(self, warp: Warp, inst: Instruction, cycle: int) -> None:
        # Inlines warp.retire_current()/_advance(); ``inst`` is the
        # warp's current instruction, so the "nothing to retire" guard
        # is unreachable here.
        self.stats.instructions += 1
        if inst.operands:
            self.register_file.account_operand_traffic(
                inst.operands, warp.base_register, cycle
            )
        warp.instructions_retired += 1
        nxt = next(warp._trace, None)
        warp._next_inst = nxt
        if nxt is None:
            warp.state = _FINISHED

    def _execute_store(self, warp: Warp, inst: Instruction, cycle: int) -> None:
        stats = self.stats
        stats.stores += 1
        wants_stores = self.extension.wants_store_events
        for line_addr in inst.line_addrs:
            stats.mem_requests += 1
            self.l1.write_access(line_addr)
            if wants_stores:
                self.extension.on_store(line_addr, cycle)
            self.memory.write_line(line_addr, cycle, sm_id=self.sm_id)
        # Stores do not block the warp (fire and forget down the
        # write-through path); a small issue cost applies.
        warp.ready_cycle = cycle + 1
        self._retire(warp, inst, cycle)

    def _execute_load(self, warp: Warp, inst: Instruction, cycle: int) -> bool:
        """Issue a load; may block the warp on outstanding lines.

        This is the hottest function in the simulator (every load line,
        *plus* every MSHR-stall replay, lands here), so it reaches into
        the L1/MSHR internals directly instead of going through their
        probe/lookup helpers, and gates every extension hook on the
        capability flags resolved at attach time.
        """
        mshr_entries = self._mshr_entries
        addrs = inst.line_addrs
        # Every line must be admissible (MSHR space) or the instruction
        # replays without partial side effects. The replay backoff
        # models the LSU's replay-queue interval and avoids burning an
        # issue slot every cycle while the MSHRs drain. Fast accept:
        # with enough free entries for the worst case (every line a
        # fresh miss), no per-line probing is needed — which makes the
        # non-stalled path one comparison, and confines the probing to
        # the replay storm where MSHRs are (nearly) full.
        if len(mshr_entries) + len(addrs) > self._mshr_capacity:
            num_sets = self._l1_num_sets
            l1_sets = self._l1_sets
            free_mshrs = self._mshr_capacity - len(mshr_entries)
            for a in addrs:
                # A line needs a fresh MSHR entry unless it merges into
                # an in-flight miss or hits in L1; bail at the first
                # line past the free-entry budget.
                if (
                    a not in mshr_entries
                    and l1_sets[a % num_sets].get(a // num_sets) is None
                ):
                    free_mshrs -= 1
                    if free_mshrs < 0:
                        self.mshr.stalls += 1
                        warp.ready_cycle = cycle + 4
                        return False

        stats = self.stats
        extension = self.extension
        tracker = self.load_tracker
        events = self._events
        event_seq = self._event_seq
        heappush = heapq.heappush
        l1 = self.l1
        l1_stats = l1.stats
        l1_ever_seen = l1._ever_seen
        l1_sets = self._l1_sets
        num_sets = self._l1_num_sets
        mshr = self.mshr
        fetch_line = self.memory.fetch_line
        sm_id = self.sm_id
        may_bypass = extension.may_bypass
        has_victim = extension.has_victim_cache
        wants_outcomes = extension.wants_load_outcomes
        pc = inst.pc
        hpc = inst.hpc
        warp_id = warp.warp_id
        hit_ready = cycle + self._l1_hit_latency
        stats.loads += 1
        stats.mem_requests += len(addrs)
        for line_addr in addrs:
            if may_bypass and extension.should_bypass(warp, line_addr, cycle):
                stats.bypasses += 1
                ready = fetch_line(line_addr, cycle, sm_id=sm_id)
                heappush(events, (ready, next(event_seq), EV_WAKE, warp))
                if tracker is not None:
                    tracker.record(pc, line_addr, False, cycle)
                if wants_outcomes:
                    extension.on_load_outcome(pc, hpc, line_addr, False, cycle, warp)
                continue

            # Inlined SetAssociativeCache.lookup (tag probe + LRU/stats
            # update): bypassed lines above never touch the LRU clock,
            # matching the out-of-line path. A hit moves the line to
            # the end of its set dict — the ways are kept in LRU order
            # so fill() evicts the first key without scanning.
            clock = l1._clock + 1
            l1._clock = clock
            ways = l1_sets[line_addr % num_sets]
            tag = line_addr // num_sets
            line = ways.get(tag)
            if line is not None:
                del ways[tag]
                ways[tag] = line
                line.last_use = clock
                line.hpc = hpc
                line.owner = warp_id
                l1_stats.hits += 1
                stats.l1_hits += 1
                heappush(events, (hit_ready, next(event_seq), EV_WAKE, warp))
                if tracker is not None:
                    tracker.record(pc, line_addr, True, cycle)
                if wants_outcomes:
                    extension.on_load_outcome(pc, hpc, line_addr, True, cycle, warp)
                continue
            l1_stats.misses += 1
            if line_addr in l1_ever_seen:
                l1_stats.capacity_conflict_misses += 1
            else:
                l1_stats.cold_misses += 1

            if has_victim:
                victim_latency = extension.lookup_victim(line_addr, hpc, cycle)
                if victim_latency is not None:
                    stats.victim_hits += 1
                    heappush(
                        events, (cycle + victim_latency, next(event_seq), EV_WAKE, warp)
                    )
                    if tracker is not None:
                        tracker.record(pc, line_addr, True, cycle)
                    if wants_outcomes:
                        extension.on_load_outcome(pc, hpc, line_addr, True, cycle, warp)
                    continue

            stats.l1_misses += 1
            if tracker is not None:
                tracker.record(pc, line_addr, False, cycle)
            if wants_outcomes:
                extension.on_load_outcome(pc, hpc, line_addr, False, cycle, warp)
            # Inlined MSHRFile.allocate. The admissibility gate above
            # guarantees space for every fresh miss of this instruction,
            # so allocate's full-file error path is unreachable here.
            waiters = mshr_entries.get(line_addr)
            if waiters is not None:
                waiters.append((warp, hpc))
                mshr.merged_requests += 1
            else:
                mshr_entries[line_addr] = [(warp, hpc)]
                mshr.allocations += 1
                ready = fetch_line(line_addr, cycle, sm_id=sm_id)
                heappush(events, (ready, next(event_seq), EV_FILL, line_addr))

        self._retire(warp, inst, cycle)
        # Scoreboarding: every line (hit or miss) is an outstanding
        # response; the warp only blocks past its outstanding limit,
        # so hit-latency loads pipeline instead of serializing.
        warp.block_on_memory(len(addrs))
        if warp.ready_cycle <= cycle:
            warp.ready_cycle = cycle + 1
        return True

    # ------------------------------------------------------------------
    # Timeseries recording
    # ------------------------------------------------------------------
    def _ts_sample(self, cycle: int) -> None:
        """Capture every window boundary the clock has crossed.

        Event fast-forward can jump several windows at once; the loop
        emits one row per boundary (intermediate rows carry zero
        counter deltas, matching the extension's own catch-up loop).
        """
        rec = self._ts_recorder
        boundary = self._ts_next
        window = rec.series.window_cycles
        wants_extra = self.extension.wants_timeseries
        while cycle >= boundary:
            extra = self.extension.timeseries_sample(int(boundary)) if wants_extra else None
            active = 0
            for cta in self.ctas.values():
                if cta.state is CTAState.ACTIVE:
                    active += 1
            rec.capture(int(boundary), self.stats, active, len(self.ctas) - active, extra)
            boundary += window
        self._ts_next = boundary

    @property
    def timeseries(self):
        """The recorded :class:`~repro.metrics.WindowSeries`, or None
        when this run did not record timeseries."""
        rec = self._ts_recorder
        return rec.series if rec is not None else None

    # ------------------------------------------------------------------
    # Clocking interface for the GPU-level loop
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> float:
        """Earliest cycle at which this SM has work to do.

        Inlines :meth:`GTOScheduler.next_ready_cycle` across all
        schedulers with a global short-circuit: ``cycle`` (the old
        per-scheduler ``floor``) is the smallest value any scheduler
        can contribute, so the first already-issuable warp ends the
        scan.
        """
        events = self._events
        if not self.ctas and not events:  # done
            return _NO_EVENT
        best: float = _NO_EVENT
        floor = cycle  # == (cycle - 1) + 1 in the old per-scheduler probe
        ready = _READY
        for scheduler in self.schedulers:
            for w in scheduler.warps:
                if w.state is ready:
                    rc = w.ready_cycle
                    if rc <= floor:
                        best = floor
                        break
                    if rc < best:
                        best = rc
            else:
                continue
            break
        if events:
            first = events[0][0]
            if first < best:
                best = first
        if best == _NO_EVENT:
            # Deadlock guard: inactive CTAs with nothing pending.
            # (Equality, not identity — the sentinel is a float and
            # object reuse through min() was never guaranteed.)
            best = cycle + 1
        return best

    @property
    def done(self) -> bool:
        return not self.ctas and not self._events

    @property
    def mshr_stalls(self) -> int:
        """MSHR-stall replays, under the machine's name (no result
        carries them; a live SM is read through ``keep_objects``)."""
        return self.mshr.stalls

    def finalize(self, cycle: int) -> None:
        self.stats.cycles = cycle
        if self.load_tracker is not None:
            self.load_tracker.close_window()
        if not self._drained:
            self.extension.finalize(cycle)
            self._drained = True
