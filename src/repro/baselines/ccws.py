"""CCWS: Cache-Conscious Wavefront Scheduling (Rogers et al., MICRO
2012), the dynamic warp-throttling scheme the paper's Best-SWL oracle
is calibrated against (Section 2.4: Best-SWL "has been shown to
provide better performance than dynamic warp throttling techniques
such as CCWS").

The mechanism, reproduced at the level this substrate models:

* A **victim tag array** (VTA, tag-only) records lines evicted from
  L1 together with the warp that owned them.
* When a warp misses in L1 and finds its *own* tag in the VTA, it
  "lost locality" — the line would have hit had fewer warps shared the
  cache. Its lost-locality score jumps.
* Scores decay linearly over time. The aggregate score above a
  threshold determines how many of the *lowest-scoring* warps are
  descheduled: warps that lost locality get the cache to themselves
  until their scores recover.

The original prioritizes at issue granularity; here throttled warps
are deactivated between monitoring windows, the same mechanism the
CTA-level throttler uses, which preserves the feedback loop.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.config import LinebackerConfig
from repro.gpu.extension import SMExtension
from repro.memory.cache import SetAssociativeCache

#: Score added when a warp re-references a line it lost (the paper's
#: "base locality score" KTHROTTLE analog).
LOST_LOCALITY_SCORE = 64.0
#: Linear decay per monitoring window, as a fraction of the score.
SCORE_DECAY = 0.5
#: Aggregate score that blocks one warp from scheduling.
SCORE_PER_BLOCKED_WARP = 192.0
#: Never block below this many schedulable warps per SM.
MIN_ACTIVE_WARPS = 8


class CCWSExtension(SMExtension):
    """CCWS attached to one SM."""

    def __init__(self, config: Optional[LinebackerConfig] = None) -> None:
        self.config = config or LinebackerConfig()
        self.scores: dict[int, float] = defaultdict(float)
        self._window_end = 0
        self.lost_locality_events = 0
        self.max_blocked = 0
        self._blocked: set[int] = set()

    def attach(self, sm) -> None:
        super().attach(sm)
        # VTA: same sets as L1, half the ways, tag-only.
        self.vta = SetAssociativeCache(
            sm.l1.num_sets * (sm.l1.assoc // 2) * sm.l1.line_bytes,
            max(1, sm.l1.assoc // 2),
            sm.l1.line_bytes,
        )
        self._window_end = self.config.window_cycles

    # -- lost-locality detection -------------------------------------------
    def on_l1_eviction(self, line_addr, line, cycle) -> None:
        self.vta.fill(line_addr, token=line.owner)

    def on_load_outcome(self, pc, hpc, line_addr, hit, cycle, warp=None) -> None:
        if hit or warp is None:
            return
        tag = self.vta.probe(line_addr)
        if tag is not None and tag.token == warp.warp_id:
            self.scores[warp.warp_id] += LOST_LOCALITY_SCORE
            self.lost_locality_events += 1
            self.vta.invalidate(line_addr)

    # -- windowed throttling -------------------------------------------------
    def on_tick(self, cycle: int) -> None:
        while cycle >= self._window_end:
            self._close_window(cycle)
            self._window_end += self.config.window_cycles

    def _close_window(self, cycle: int) -> None:
        total = sum(self.scores.values())
        resident = [w for cta in self.sm.ctas.values() for w in cta.warps
                    if not w.finished]
        max_blockable = max(0, len(resident) - MIN_ACTIVE_WARPS)
        n_block = min(max_blockable, int(total / SCORE_PER_BLOCKED_WARP))
        self.max_blocked = max(self.max_blocked, n_block)

        # Block the lowest-scoring warps: the ones that lost locality
        # keep running with more cache to themselves.
        by_score = sorted(resident, key=lambda w: self.scores[w.warp_id])
        to_block = {w.warp_id for w in by_score[:n_block]}
        for warp in resident:
            if warp.warp_id in to_block and warp.warp_id not in self._blocked:
                warp.deactivate()
            elif warp.warp_id not in to_block and warp.warp_id in self._blocked:
                warp.reactivate(cycle)
        self._blocked = to_block

        for warp_id in list(self.scores):
            self.scores[warp_id] *= 1.0 - SCORE_DECAY
            if self.scores[warp_id] < 1.0:
                del self.scores[warp_id]

    def on_cta_finished(self, slot: int, cycle: int) -> None:
        # Warps of the finished CTA disappear; drop their state.
        live = {
            w.warp_id for cta in self.sm.ctas.values() for w in cta.warps
        }
        self._blocked &= live

    def finalize(self, cycle: int) -> None:
        # Release any warps still blocked so nothing dangles.
        for cta in self.sm.ctas.values():
            for warp in cta.warps:
                if warp.warp_id in self._blocked:
                    warp.reactivate(cycle)
        self._blocked.clear()


@dataclass(frozen=True)
class CCWSFactory:
    """Picklable ExtensionFactory (constructible from a JobSpec)."""

    config: Optional[LinebackerConfig] = None

    def __call__(self) -> CCWSExtension:
        return CCWSExtension(self.config)


def ccws_factory(config: Optional[LinebackerConfig] = None) -> CCWSFactory:
    return CCWSFactory(config)
