"""The Linebacker SM extension: the paper's primary contribution.

Wires together the Load Monitor (per-load locality classification),
the Victim Tag Table (victim line tracking over idle register space),
the CTA Throttling Logic (IPC-driven throttling with register
backup/restore) and the backup engine, behind the SM extension hooks.

Feature flags reproduce the paper's Figure 11 ablation:

* ``enable_victim_cache=False``              -> plain CTA throttling.
* ``enable_selective=False``                 -> "Victim Caching"
  (preserve every evicted line, streaming data included).
* ``enable_throttling=False``                -> "Selective Victim
  Caching" over statically unused register space only.
* all three enabled                          -> full Linebacker.

An optional PCAL-style bypass throttler supports the paper's
Figure 15 combinations (PCAL+SVC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import WARP_REGISTER_BYTES, LinebackerConfig
from repro.core.backup import BackupRecord, RegisterBackupEngine
from repro.core.cta_throttle import (
    CTAManager,
    CTAThrottleController,
    ThrottleDecision,
)
from repro.core.load_monitor import LoadMonitor, MonitorState
from repro.core.victim_tag_table import VictimTagTable
from repro.gpu.extension import EV_CALLBACK, SMExtension
from repro.memory.cache import CacheLine
from repro.metrics import Metric, MetricSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.vector.machine import VectorSM as SM
    from repro.engine.vector.machine import WarpView as Warp


class BypassThrottler:
    """PCAL-style token pool: warps beyond the token count bypass L1.

    The token count starts at "everyone allocates" and is tuned by the
    same fractional-IPC feedback loop as CTA throttling: if shrinking
    the allocating set improved IPC by more than the upper bound,
    shrink further; if IPC regressed below the lower bound, grow it.
    """

    def __init__(self, upper_bound: float = 0.10, lower_bound: float = -0.10) -> None:
        self.controller = CTAThrottleController(upper_bound, lower_bound)
        self.tokens: Optional[int] = None
        self._warmup_windows = 2

    def should_bypass(self, warp: "Warp") -> bool:
        if self.tokens is None:
            return False
        return warp.launch_order >= self.tokens

    def on_window(self, instructions: int, window_cycles: int, resident_warps: int) -> None:
        if self._warmup_windows > 0:
            self._warmup_windows -= 1
            self.controller.monitor.record_window(instructions, window_cycles)
            if self._warmup_windows == 0:
                self.tokens = max(1, resident_warps - 2)
            return
        assert self.tokens is not None
        decision = self.controller.decide(
            instructions, window_cycles, active_ctas=self.tokens, inactive_ctas=1
        )
        if decision is ThrottleDecision.THROTTLE:
            self.tokens = max(1, self.tokens - 2)
        elif decision is ThrottleDecision.REACTIVATE:
            self.tokens = min(resident_warps, self.tokens + 2)


#: Per-SM Linebacker mechanism accounting (Figures 9, 10 and 17).
#: None participate in the golden fingerprint — it pins the SM-level
#: victim_hits and the subsystem backup/restore traffic instead.
LINEBACKER_STATS = MetricSet(
    "LinebackerStats",
    owner="core.linebacker",
    metrics=(
        Metric("victim_inserts", description="lines preserved into victim registers"),
        Metric("victim_hits", description="loads served from victim registers"),
        Metric("victim_reads_corrupt", description="victim entries dropped on value mismatch"),
        Metric("throttle_events", description="CTAs throttled by the IPC ladder"),
        Metric("reactivate_events", description="CTAs reactivated by the IPC ladder"),
        Metric("monitoring_windows", description="windows spent in the monitoring phase"),
        Metric("windows_sampled", description="windows with register-space samples"),
        Metric("idle_register_bytes_sum", description="summed idle register bytes"),
        Metric("victim_capacity_bytes_sum", description="summed active VP capacity bytes"),
        Metric("dynamic_unused_bytes_sum", description="summed backed-up register bytes"),
    ),
)

_LinebackerStatsBase = LINEBACKER_STATS.build()


class LinebackerStats(_LinebackerStatsBase):
    """Per-SM Linebacker accounting used by Figures 9, 10 and 17."""

    __slots__ = ()

    @property
    def mean_idle_register_bytes(self) -> float:
        return self.idle_register_bytes_sum / max(1, self.windows_sampled)

    @property
    def mean_victim_capacity_bytes(self) -> float:
        return self.victim_capacity_bytes_sum / max(1, self.windows_sampled)

    @property
    def mean_dynamic_unused_bytes(self) -> float:
        return self.dynamic_unused_bytes_sum / max(1, self.windows_sampled)

    @property
    def register_utilization(self) -> float:
        """Fraction of idle register space covered by active VPs (Fig 10)."""
        if self.idle_register_bytes_sum == 0:
            return 0.0
        return self.victim_capacity_bytes_sum / self.idle_register_bytes_sum


class LinebackerExtension(SMExtension):
    """Linebacker attached to one SM."""

    def __init__(
        self,
        config: Optional[LinebackerConfig] = None,
        enable_bypass_throttling: bool = False,
    ) -> None:
        self.config = config or LinebackerConfig()
        self.enable_bypass = enable_bypass_throttling
        self.bypass = BypassThrottler(
            self.config.ipc_upper_bound, self.config.ipc_lower_bound
        ) if enable_bypass_throttling else None
        self.stats = LinebackerStats()
        self._window_end = 0
        self._last_window_instructions = 0
        self._pending_reactivations = 0
        self._cta_turnover_this_window = False
        self._transition_window = False
        self._last_l1_occupancy = 0
        self._restoring: set[int] = set()
        self._backup_records: dict[int, BackupRecord] = {}
        self._throttle_order: list[int] = []
        self._last_vtt_tag_hit = False

    # ------------------------------------------------------------------
    def attach(self, sm: "SM") -> None:
        super().attach(sm)
        cfg = self.config
        self.load_monitor = LoadMonitor(
            num_entries=cfg.lm_entries,
            hpc_bits=cfg.hpc_bits,
            hit_ratio_threshold=cfg.hit_ratio_threshold,
            min_accesses=cfg.min_accesses,
        )
        self.vtt = VictimTagTable(
            num_sets=sm.l1.num_sets,
            ways=cfg.vtt_ways,
            max_partitions=cfg.max_vtt_partitions,
            register_offset=cfg.register_offset,
            vp_access_latency=cfg.vp_access_latency,
            total_registers=sm.register_file.num_registers,
        )
        self.controller = CTAThrottleController(
            cfg.ipc_upper_bound, cfg.ipc_lower_bound
        )
        self.manager = CTAManager(regs_per_cta=sm.kernel.warp_registers_per_cta)
        self.engine = RegisterBackupEngine(
            sm.memory, buffer_entries=cfg.backup_buffer_entries
        )
        self._window_end = cfg.window_cycles
        # During the monitoring period the VTT only tracks tags (no
        # data), so every partition participates regardless of idle
        # register space.
        if cfg.enable_victim_cache:
            for vp in self.vtt.partitions:
                self.vtt.activate(vp.index)
        # Capability flags for the SM's hot load path: ablation
        # variants with the victim cache disabled skip the
        # lookup_victim/on_store hooks entirely, and only the PCAL
        # combination ever bypasses.
        self.has_victim_cache = cfg.enable_victim_cache
        self.wants_store_events = cfg.enable_victim_cache
        self.may_bypass = self.bypass is not None

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def on_tick(self, cycle: int) -> None:
        while cycle >= self._window_end:
            self._close_window(self._window_end)
            self._window_end += self.config.window_cycles

    def timeseries_sample(self, cycle: int) -> dict:
        """Mechanism state folded into each timeseries window row."""
        return {
            "vps": len(self.vtt.active_partitions()),
            "state": self.load_monitor.state.value,
            "phase": self.controller.phase.value,
            "vp_hits": [vp.hits for vp in self.vtt.partitions],
            "backup_write_lines": self.sm.memory.traffic.backup_write_lines,
            "restore_read_lines": self.sm.memory.traffic.restore_read_lines,
        }

    def _close_window(self, cycle: int) -> None:
        cfg = self.config
        instructions = self.sm.stats.instructions - self._last_window_instructions
        self._last_window_instructions = self.sm.stats.instructions
        self._sample_space()

        if self.bypass is not None:
            resident = sum(len(c.warps) for c in self.sm.ctas.values())
            self.bypass.on_window(instructions, cfg.window_cycles, resident)

        if self.load_monitor.monitoring:
            self.stats.monitoring_windows += 1
            if self._still_warming():
                # Cold caches produce nothing but cold misses; deciding
                # cache-insensitivity from them would be wrong. The
                # paper's 50k-cycle windows absorb warmup; the scaled
                # config must skip warmup windows explicitly.
                self.load_monitor.discard_window()
                return
            state = self.load_monitor.close_window()
            if state is MonitorState.SELECTED:
                self._enter_victim_mode()
                # Paper: Linebacker proactively throttles one CTA
                # immediately after the monitoring period ends. The
                # monitoring window's IPC seeds the search reference.
                self.controller.monitor.record_window(instructions, cfg.window_cycles)
                self.controller.best_ipc = self.controller.monitor.current_ipc
                self.controller.best_active = len(self.manager.active_slots())
                if cfg.enable_throttling:
                    self._throttle_one(cycle)
                    self._transition_window = True
            elif state is MonitorState.DISABLED:
                # Cache-insensitive kernel: turn victim tracking off.
                for vp in self.vtt.partitions:
                    self.vtt.deactivate(vp.index)
            return

        if self.load_monitor.state is MonitorState.SELECTED and cfg.enable_throttling:
            # The first window after a throttle/reactivate is a
            # transition (register backup traffic, warp drain); judging
            # the action on it would read noise as signal.
            record_only = self._cta_turnover_this_window or self._transition_window
            decision = self.controller.decide(
                instructions,
                cfg.window_cycles,
                active_ctas=len(self.manager.active_slots()),
                inactive_ctas=len(self.manager.inactive_slots()),
                record_only=record_only,
            )
            self._cta_turnover_this_window = False
            self._transition_window = False
            if decision is ThrottleDecision.THROTTLE:
                self._throttle_one(cycle)
                self._transition_window = True
            elif decision is ThrottleDecision.REACTIVATE:
                self._reactivate_one(cycle)
                self._transition_window = True

    def _still_warming(self) -> bool:
        """True while the L1 is still filling (bounded to 10 windows).

        Warm means the resident footprint stopped growing — either the
        cache filled or the kernel's working set fit entirely. Cold
        windows are all cold misses and would misclassify every load.
        """
        if self.stats.monitoring_windows > 10:
            return False
        l1 = self.sm.l1
        occupancy = l1.occupancy()
        grew = occupancy - self._last_l1_occupancy
        self._last_l1_occupancy = occupancy
        if occupancy == 0:
            # Nothing has filled yet (first misses still in flight).
            return True
        # Warm once the resident footprint growth is small relative to
        # the footprint itself (steady state), whether that footprint
        # is the full cache or a small working set that fits.
        return grew > 0.1 * occupancy

    def _sample_space(self) -> None:
        self.stats.windows_sampled += 1
        idle = self.sm.register_file.unused_bytes()
        self.stats.idle_register_bytes_sum += idle
        self.stats.victim_capacity_bytes_sum += (
            self.vtt.active_capacity_lines() * WARP_REGISTER_BYTES
            if not self.load_monitor.monitoring
            else 0
        )
        dyn = sum(
            len(rec.values) * WARP_REGISTER_BYTES
            for rec in self._backup_records.values()
            if rec.complete
        )
        self.stats.dynamic_unused_bytes_sum += dyn

    def _enter_victim_mode(self) -> None:
        """Monitoring done: switch the VTT from tag-only tracking to
        real victim caching over genuinely idle registers.

        Every partition is invalidated first — monitoring-phase tags
        have no data behind them, so carrying them over would alias
        stale register contents."""
        self.vtt.invalidate_all()
        self._sync_partitions()

    def _sync_partitions(self) -> None:
        if not self.config.enable_victim_cache or self.load_monitor.monitoring:
            return
        self.vtt.sync_with_free_registers(self.sm.register_file.is_range_free)

    # ------------------------------------------------------------------
    # Memory-path hooks
    # ------------------------------------------------------------------
    def should_bypass(self, warp: "Warp", line_addr: int, cycle: int) -> bool:
        return self.bypass is not None and self.bypass.should_bypass(warp)

    def lookup_victim(self, line_addr: int, hpc: int, cycle: int) -> Optional[int]:
        if not self.config.enable_victim_cache:
            return None
        self._last_vtt_tag_hit = False
        if self.load_monitor.monitoring:
            # Tag-only phase: a VTT hit counts as a hit for the Load
            # Monitor but the data is not present, so the load still
            # fetches from L2/DRAM. Tags are recorded at L1 eviction.
            if self.vtt.lookup(line_addr) is not None:
                self._last_vtt_tag_hit = True
            return None
        if self.load_monitor.state is not MonitorState.SELECTED:
            return None
        hit = self.vtt.lookup(line_addr)
        if hit is None:
            return None
        register_number, search_latency = hit
        value = self.sm.register_file.read(register_number, cycle)
        if value != line_addr:
            # Never expected: a victim entry must map to the register
            # holding exactly the preserved line. Drop the stale entry.
            self.stats.victim_reads_corrupt += 1
            self.vtt.invalidate(line_addr)
            return None
        self.stats.victim_hits += 1
        # Reg hit latency: L1 tag check happened already; add the
        # sequential VTT search, arbitration and the register read.
        arbitration = 2
        return self.sm.config.l1_hit_latency + search_latency + arbitration

    def on_load_outcome(self, pc, hpc, line_addr, hit, cycle, warp=None) -> None:
        lm_hit = hit or self._last_vtt_tag_hit
        self._last_vtt_tag_hit = False
        self.load_monitor.record_access(pc, lm_hit)

    def on_l1_eviction(self, line_addr: int, line: CacheLine, cycle: int) -> None:
        if not self.config.enable_victim_cache:
            return
        if self.load_monitor.monitoring:
            # Keep only the tag of the evicted line (no data) so the
            # Load Monitor can credit re-accesses to it as hits.
            self.vtt.insert(line_addr)
            return
        if self.load_monitor.state is not MonitorState.SELECTED:
            return
        if self.config.enable_selective and not self.load_monitor.is_selected(line.hpc):
            return
        register_number = self.vtt.insert(line_addr)
        if register_number is None:
            return
        # Register-register move of the evicted line into victim space.
        self.sm.register_file.write(register_number, line_addr, cycle)
        self.stats.victim_inserts += 1

    def on_store(self, line_addr: int, cycle: int) -> None:
        if not self.config.enable_victim_cache:
            return
        register_number = self.vtt.invalidate(line_addr)
        if register_number is not None and not self.load_monitor.monitoring:
            self.sm.register_file.write(register_number, None, cycle)

    # ------------------------------------------------------------------
    # CTA lifecycle
    # ------------------------------------------------------------------
    def on_cta_launched(self, slot: int, cycle: int) -> None:
        cta = self.sm.ctas[slot]
        assert cta.register_range is not None
        self.manager.register_launch(slot, cta.register_range.start)
        self._sync_partitions()

    def on_cta_finished(self, slot: int, cycle: int) -> None:
        self.manager.register_finish(slot)
        # CTA turnover moves IPC for reasons unrelated to throttling;
        # the controller must not credit/blame its last action for it.
        self._cta_turnover_this_window = True

    def try_reactivate_cta(self, cycle: int) -> bool:
        """A CTA finished: re-schedule a throttled CTA in priority."""
        if not self._throttle_order:
            return False
        self._reactivate_one(cycle)
        return True

    # ------------------------------------------------------------------
    # Throttle / reactivate mechanics
    # ------------------------------------------------------------------
    def _throttle_one(self, cycle: int) -> None:
        candidates = [
            slot
            for slot in self.manager.active_slots()
            if slot in self.sm.ctas and slot not in self._restoring
        ]
        if len(candidates) <= 1:
            return
        slot = max(candidates)
        cta = self.sm.ctas[slot]
        if cta.register_range is None:
            return
        cta.deactivate()
        self.stats.throttle_events += 1
        self._throttle_order.append(slot)
        registers = cta.register_range

        def on_backup_done(done_cycle: int) -> None:
            # C bit set: the register space becomes victim storage.
            if slot not in self.manager.table:
                return
            self.manager.mark_backup_complete(slot)
            live = self.sm.ctas.get(slot)
            if live is not None and live.register_range is not None:
                self.sm.register_file.free(live.register_range)
                live.register_range = None
            self._sync_partitions()
            if self._pending_reactivations > 0:
                self._pending_reactivations -= 1
                self._reactivate_one(done_cycle)

        record = self.engine.backup(
            self.sm.register_file,
            registers,
            cycle,
            on_complete=on_backup_done,
            schedule=self._schedule_callback,
        )
        self._backup_records[slot] = record
        self.manager.mark_throttled(slot, record.backup_address)

    def _reactivate_one(self, cycle: int) -> None:
        while self._throttle_order:
            slot = self._throttle_order[-1]
            if slot in self.sm.ctas and slot not in self._restoring:
                break
            self._throttle_order.pop()
        else:
            return
        record = self._backup_records.get(slot)
        if record is None:
            return
        if not record.complete:
            # Backup still in flight; restore as soon as the C bit
            # sets (the slot stays queued in _throttle_order).
            self._pending_reactivations += 1
            return
        self._throttle_order.pop()
        self._restoring.add(slot)
        cta = self.sm.ctas[slot]
        num_regs = len(record.values)
        # Give the partitions back before reallocating registers.
        registers = self.sm.register_file.allocate(num_regs, owner=slot)
        if registers is None:
            # Should not happen: the backed-up space is at least as
            # large as the allocation we need.
            self._restoring.discard(slot)
            self._throttle_order.append(slot)
            return
        self._sync_partitions()

        def on_restore_done(done_cycle: int) -> None:
            self._restoring.discard(slot)
            self._backup_records.pop(slot, None)
            live = self.sm.ctas.get(slot)
            if live is None:
                self.sm.register_file.free(registers)
                self._sync_partitions()
                return
            live.register_range = registers
            for w, warp in enumerate(live.warps):
                warp.base_register = (
                    registers.start + w * self.sm.kernel.warp_registers_per_warp
                )
            live.reactivate(done_cycle)
            self.manager.mark_reactivated(slot, registers.start)
            self.stats.reactivate_events += 1

        self.engine.restore(
            record,
            self.sm.register_file,
            registers,
            cycle,
            on_complete=on_restore_done,
            schedule=self._schedule_callback,
        )

    def _schedule_callback(self, ready_cycle: int, callback) -> None:
        self.sm.schedule_event(ready_cycle, EV_CALLBACK, callback)

    # ------------------------------------------------------------------
    def finalize(self, cycle: int) -> None:
        if self.stats.windows_sampled == 0:
            self._sample_space()


@dataclass(frozen=True)
class LinebackerFactory:
    """Picklable ExtensionFactory for :func:`repro.gpu.gpu.run_kernel`.

    A frozen dataclass (not a closure) so the parallel experiment
    runner can reconstruct it from a :class:`~repro.runner.JobSpec` in
    a worker process and hash it into stable cache keys.
    """

    config: Optional[LinebackerConfig] = None
    enable_bypass_throttling: bool = False

    def __call__(self) -> LinebackerExtension:
        return LinebackerExtension(
            config=self.config,
            enable_bypass_throttling=self.enable_bypass_throttling,
        )


def linebacker_factory(
    config: Optional[LinebackerConfig] = None,
    enable_bypass_throttling: bool = False,
) -> LinebackerFactory:
    """ExtensionFactory for :func:`repro.gpu.gpu.run_kernel`."""
    return LinebackerFactory(
        config=config, enable_bypass_throttling=enable_bypass_throttling
    )
