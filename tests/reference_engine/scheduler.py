"""Greedy-Then-Oldest (GTO) warp scheduler.

The baseline GPU has four warp schedulers per SM (Table 1), each owning
a quarter of the resident warps. GTO keeps issuing from the same warp
while it remains ready ("greedy"), and when it stalls falls back to the
oldest ready warp by launch order ("then oldest"). GTO is the standard
locality-friendly baseline scheduler used by CCWS and its successors.
"""

from __future__ import annotations

from typing import Optional

from .warp import Warp, WarpState

#: Hoisted: `warp.state is _READY` in the pick/next-ready loops skips
#: the WarpState class attribute lookup per scanned warp.
_READY = WarpState.READY


class GTOScheduler:
    """One of the SM's warp schedulers."""

    __slots__ = ("scheduler_id", "warps", "_greedy", "issues")

    def __init__(self, scheduler_id: int) -> None:
        self.scheduler_id = scheduler_id
        self.warps: list[Warp] = []
        self._greedy: Optional[Warp] = None
        self.issues = 0

    def add_warp(self, warp: Warp) -> None:
        self.warps.append(warp)

    def remove_finished(self) -> None:
        self.warps = [w for w in self.warps if not w.finished]
        if self._greedy is not None and self._greedy.finished:
            self._greedy = None

    def pick(self, cycle: int) -> Optional[Warp]:
        """Select the warp to issue this cycle, or None when all stall.

        ``warps`` is kept in launch order, so the first ready warp in
        the list *is* the oldest — the scan stops at the first hit.
        """
        ready = _READY
        greedy = self._greedy
        if greedy is not None and greedy.state is ready and greedy.ready_cycle <= cycle:
            return greedy
        for warp in self.warps:
            if warp.state is ready and warp.ready_cycle <= cycle:
                self._greedy = warp
                return warp
        return None

    def next_ready_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which some warp becomes issuable,
        considering only warps that are READY with a future ready_cycle.
        Blocked warps wake via memory responses, not the clock."""
        ready = _READY
        floor = cycle + 1
        best: Optional[int] = None
        for warp in self.warps:
            if warp.state is ready:
                rc = warp.ready_cycle
                if rc <= floor:
                    return floor
                if best is None or rc < best:
                    best = rc
        return best
