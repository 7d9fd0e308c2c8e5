"""Static Warp Limiting (SWL) and the Best-SWL oracle.

The paper's main comparison point is Best-SWL (Section 2.4): for each
application, an oracle picks the static CTA limit that maximizes
performance; this idealized static throttling was shown to beat
dynamic schemes like CCWS. It is a *derived* registry row: its legs
are ``baseline`` jobs, one per candidate CTA limit, which the job table
runs as jobs of their own (in parallel, memoized, cached), and its
reduction keeps the best of their results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SimulationConfig
from repro.gpu.gpu import SimulationResult
from repro.gpu.trace import KernelTrace, hardware_occupancy


@dataclass
class BestSWLResult:
    """Outcome of the Best-SWL oracle sweep."""

    best_limit: int
    best_result: SimulationResult
    sweep_ipc: dict[int, float]

    @property
    def ipc(self) -> float:
        return self.best_result.ipc


def sweep_limits(max_occupancy: int) -> list[int]:
    """Candidate static limits: dense at the low end where throttling
    matters, sparse above."""
    candidates = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, max_occupancy}
    return sorted(c for c in candidates if 1 <= c <= max_occupancy)


def best_swl_legs(config: SimulationConfig, kernel: KernelTrace) -> dict:
    """One ``baseline`` leg per candidate limit, keyed by the limit. The
    machine caps residency at the hardware occupancy anyway, so the
    max-occupancy leg is spelled as plain ``baseline``: it *is* that job."""
    max_occ = hardware_occupancy(config.gpu, kernel)
    return {
        limit: ("baseline", config, {} if limit == max_occ else {"max_concurrent_ctas": limit})
        for limit in sweep_limits(max_occ)
    }


def best_swl_reduce(results: dict[int, SimulationResult]) -> BestSWLResult:
    """The oracle's pick: the highest IPC, the lowest limit on a tie."""
    limits = sorted(results)
    best = max(limits, key=lambda limit: results[limit].ipc)  # first of equals
    sweep_ipc = {limit: results[limit].ipc for limit in limits}
    return BestSWLResult(best_limit=best, best_result=results[best], sweep_ipc=sweep_ipc)
