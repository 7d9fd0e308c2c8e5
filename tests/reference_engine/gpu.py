"""Whole-GPU reference model: SMs sharing one memory subsystem, plus
the kernel launcher that distributes the CTA grid across SMs.

The global loop advances a shared clock to the earliest interesting
cycle across SMs (each SM fast-forwards through cycles where no warp
can issue), which keeps memory-bound simulation tractable in Python.

``class GPU`` is lifted verbatim from ``src/repro/gpu/gpu.py``, where it
was the production device until the vector machine hosted every option.
"""

from __future__ import annotations

import gc
import heapq
from typing import Optional

from repro.config import SimulationConfig
from repro.gpu.gpu import ExtensionFactory, SimulationResult
from repro.gpu.snapshot import snapshot_extension, snapshot_sm
from repro.gpu.trace import KernelTrace
from repro.memory.subsystem import MemorySubsystem

from .sm import SM


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
