"""Whole-GPU model: SMs sharing one memory subsystem, plus the kernel
launcher that distributes the CTA grid across SMs.

The global loop advances a shared clock to the earliest interesting
cycle across SMs (each SM fast-forwards through cycles where no warp
can issue), which keeps memory-bound simulation tractable in Python.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import WARP_REGISTER_BYTES, GPUConfig, SimulationConfig
from repro.gpu.extension import SMExtension
from repro.options import RunOptions
from repro.gpu.sm import SM
from repro.gpu.snapshot import snapshot_extension, snapshot_sm
from repro.gpu.stats import SMStats
from repro.gpu.trace import KernelTrace, hardware_occupancy
from repro.memory.subsystem import MemorySubsystem, TrafficStats

#: Builds one extension instance per SM (policies keep per-SM state).
ExtensionFactory = Callable[[], SMExtension]


@dataclass
class SimulationResult:
    """Outcome of one kernel simulation."""

    kernel_name: str
    cycles: int
    sm_stats: list[SMStats]
    traffic: TrafficStats
    dram_reads: int
    dram_writes: int
    l1_stats: list
    rf_stats: list
    extensions: list[SMExtension]
    sms: list[SM] = field(default_factory=list, repr=False)

    @property
    def timeseries(self) -> "list | None":
        """Per-SM :class:`~repro.metrics.WindowSeries` list, or None
        when the run did not record timeseries. Works on both live SMs
        and snapshots."""
        series = [getattr(sm, "timeseries", None) for sm in self.sms]
        if any(s is not None for s in series):
            return series
        return None

    @property
    def instructions(self) -> int:
        return sum(s.instructions for s in self.sm_stats)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_hit_ratio(self) -> float:
        hits = sum(s.l1_hits for s in self.sm_stats)
        total = sum(
            s.l1_hits + s.l1_misses + s.victim_hits + s.bypasses for s in self.sm_stats
        )
        return hits / total if total else 0.0

    @property
    def victim_hit_ratio(self) -> float:
        """Fraction of requests served from the register file (Fig 13)."""
        reg = sum(s.victim_hits for s in self.sm_stats)
        total = sum(
            s.l1_hits + s.l1_misses + s.victim_hits + s.bypasses for s in self.sm_stats
        )
        return reg / total if total else 0.0

    @property
    def request_breakdown(self) -> dict[str, float]:
        """GPU-wide Figure 13 breakdown."""
        keys = ("hit", "miss", "bypass", "reg_hit")
        sums = dict.fromkeys(keys, 0)
        for s in self.sm_stats:
            sums["hit"] += s.l1_hits
            sums["miss"] += s.l1_misses
            sums["bypass"] += s.bypasses
            sums["reg_hit"] += s.victim_hits
        total = sum(sums.values())
        if total == 0:
            return dict.fromkeys(keys, 0.0)
        return {k: v / total for k, v in sums.items()}

    @property
    def bank_conflicts(self) -> int:
        return sum(rf.bank_conflicts for rf in self.rf_stats)

    @property
    def cold_miss_ratio(self) -> float:
        accesses = sum(c.accesses for c in self.l1_stats)
        cold = sum(c.cold_misses for c in self.l1_stats)
        return cold / accesses if accesses else 0.0

    @property
    def capacity_conflict_miss_ratio(self) -> float:
        accesses = sum(c.accesses for c in self.l1_stats)
        cc = sum(c.capacity_conflict_misses for c in self.l1_stats)
        return cc / accesses if accesses else 0.0


class GPU:
    """The full device: N SMs over a shared L2/DRAM."""

    def __init__(
        self,
        config: SimulationConfig,
        kernel: KernelTrace,
        extension_factory: Optional[ExtensionFactory] = None,
        max_concurrent_ctas: Optional[int] = None,
        track_loads: bool = False,
        timeseries: bool = False,
    ) -> None:
        self.config = config
        self.kernel = kernel
        self.memory = MemorySubsystem(config.gpu)
        self._next_grid_cta = 0

        def cta_source() -> Optional[int]:
            if self._next_grid_cta >= kernel.num_ctas:
                return None
            cta = self._next_grid_cta
            self._next_grid_cta += 1
            return cta

        self.sms = [
            SM(
                sm_id=i,
                config=config.gpu,
                kernel=kernel,
                memory=self.memory,
                cta_source=cta_source,
                extension=extension_factory() if extension_factory else None,
                max_concurrent_ctas=max_concurrent_ctas,
                track_loads=track_loads,
                load_window=config.linebacker.window_cycles,
                record_timeseries=timeseries,
            )
            for i in range(config.gpu.num_sms)
        ]

    def run(self, keep_objects: bool = True) -> SimulationResult:
        """Run the kernel to completion (or the cycle cap).

        Each SM caches its next interesting cycle ("hint"); an SM is
        only ticked when the global clock reaches its hint, so fully
        stalled SMs cost nothing per cycle. Hints can only change when
        the owning SM ticks (all of an SM's events live on its own
        heap), which makes the caching sound.

        The hints live on a min-heap of ``(hint, sm_id)`` so advancing
        the clock is O(log SMs) instead of a dict scan per iteration.
        Every SM holds exactly one live heap entry (its entry is popped
        before it ticks and re-pushed after), so entries never go
        stale; a finished SM simply is not re-pushed. Due SMs are
        ticked in ascending ``sm_id`` order — the same order the old
        dict scan used — because tick order is visible through the
        shared L2/DRAM timing state.

        ``keep_objects=False`` returns a result carrying lightweight
        SM/extension snapshots instead of the live object graph.
        """
        cycle = 0
        max_cycles = self.config.max_cycles
        # SMs are constructed with sm_id == index, so the list doubles
        # as the id -> SM map.
        sms = self.sms
        heap = [(0.0, sm.sm_id) for sm in sms if not sm.done]
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        inf = float("inf")
        # The run loop allocates heavily (instructions, event tuples,
        # cache lines) but creates no cycles that must die mid-run, so
        # the generational collector only adds pauses — pause it for
        # the duration and restore the caller's setting after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._run_loop(cycle, max_cycles, sms, heap, heappush, heappop, inf)
        finally:
            if gc_was_enabled:
                gc.enable()
        cycle = self._final_cycle
        for sm in self.sms:
            sm.finalize(cycle)
        return SimulationResult(
            kernel_name=self.kernel.name,
            cycles=cycle,
            sm_stats=[sm.stats for sm in self.sms],
            traffic=self.memory.traffic,
            dram_reads=self.memory.dram.stats.reads,
            dram_writes=self.memory.dram.stats.writes,
            l1_stats=[sm.l1.stats for sm in self.sms],
            rf_stats=[sm.register_file.stats for sm in self.sms],
            extensions=(
                [sm.extension for sm in self.sms]
                if keep_objects
                else [snapshot_extension(sm.extension) for sm in self.sms]
            ),
            sms=(
                list(self.sms)
                if keep_objects
                else [snapshot_sm(sm) for sm in self.sms]
            ),
        )

    def _run_loop(self, cycle, max_cycles, sms, heap, heappush, heappop, inf):
        while heap and cycle < max_cycles:
            next_cycle = heap[0][0]
            if next_cycle == inf:
                break
            cycle = max(cycle + 1, int(next_cycle))
            if cycle > max_cycles:
                cycle = max_cycles
                break
            first_id = heappop(heap)[1]
            if not heap or heap[0][0] > cycle:
                # Fast path: exactly one SM due, no ordering concerns.
                sm = sms[first_id]
                sm.tick(cycle)
                if not sm.done:
                    heappush(heap, (sm.next_event_cycle(cycle), first_id))
                continue
            due = [first_id]
            while heap and heap[0][0] <= cycle:
                due.append(heappop(heap)[1])
            due.sort()
            for sm_id in due:
                sm = sms[sm_id]
                sm.tick(cycle)
                if not sm.done:
                    heappush(heap, (sm.next_event_cycle(cycle), sm_id))
        self._final_cycle = cycle


def statically_unused_register_bytes(config: GPUConfig, kernel: KernelTrace) -> int:
    """SUR: register space no CTA ever occupies at full occupancy."""
    occupancy = hardware_occupancy(config, kernel)
    used = occupancy * kernel.warp_registers_per_cta * WARP_REGISTER_BYTES
    return max(0, config.register_file_bytes - used)


def dynamically_unused_register_bytes(
    config: GPUConfig, kernel: KernelTrace, active_ctas: int
) -> int:
    """DUR: register space of CTAs a throttling scheme keeps inactive."""
    occupancy = hardware_occupancy(config, kernel)
    inactive = max(0, occupancy - active_ctas)
    return inactive * kernel.warp_registers_per_cta * WARP_REGISTER_BYTES


def run_kernel(
    config: SimulationConfig,
    kernel: KernelTrace,
    extension_factory: Optional[ExtensionFactory] = None,
    options: RunOptions = RunOptions(),
) -> SimulationResult:
    """Convenience wrapper: run one kernel on the selected backend.

    ``options.backend`` pins the execution engine; ``None`` chooses it
    from the request (``vector`` unless an option it declines is set,
    else ``object``). A pinned backend that cannot run the request
    exactly falls back with a
    :class:`~repro.engine.base.BackendFallbackWarning`.

    By default the result carries SM/extension *snapshots* (every
    statistic, the load tracker, Linebacker's monitor/VTT) rather than
    the live simulator graph, so sweeps holding thousands of results
    don't keep every SM — and through it the whole memory hierarchy —
    alive. ``RunOptions(keep_objects=True)`` retains the live SMs and
    extensions (tests that poke at MSHRs or register files need this);
    the GPU object itself is discarded either way.
    """
    limit = options.max_concurrent_ctas
    if limit is not None and limit < 1:
        raise ValueError("CTA limit must be at least 1")
    # Imported lazily: repro.engine registers backends whose object
    # implementation imports this module (acyclic at import time).
    from repro.engine import EngineRequest, dispatch

    request = EngineRequest(
        config=config,
        kernel=kernel,
        extension_factory=extension_factory,
        max_concurrent_ctas=limit,
        track_loads=options.track_loads,
        keep_objects=options.keep_objects,
        timeseries=options.timeseries,
    )
    return dispatch(options.backend, request)
