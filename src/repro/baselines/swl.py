"""Static Warp Limiting (SWL) and the Best-SWL oracle.

The paper's main comparison point is Best-SWL (Section 2.4): for each
application, an oracle picks the static CTA limit that maximizes
performance; this idealized static throttling was shown to beat
dynamic schemes like CCWS. We reproduce it as a sweep over concurrent
CTA limits per SM; the experiment runner's memo and persistent cache
keep it to one sweep per (app, config).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SimulationConfig
from repro.gpu.gpu import SimulationResult, run_kernel
from repro.gpu.trace import KernelTrace, hardware_occupancy
from repro.options import RunOptions


@dataclass
class BestSWLResult:
    """Outcome of the Best-SWL oracle sweep."""

    best_limit: int
    best_result: SimulationResult
    sweep_ipc: dict[int, float]

    @property
    def ipc(self) -> float:
        return self.best_result.ipc


def run_swl(
    config: SimulationConfig,
    kernel: KernelTrace,
    cta_limit: int,
    options: RunOptions = RunOptions(),
) -> SimulationResult:
    """Run with a static per-SM concurrent-CTA limit."""
    return run_kernel(
        config, kernel, options=options.replace(max_concurrent_ctas=cta_limit)
    )


def sweep_limits(max_occupancy: int) -> list[int]:
    """Candidate static limits: dense at the low end where throttling
    matters, sparse above."""
    candidates = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, max_occupancy}
    return sorted(c for c in candidates if 1 <= c <= max_occupancy)


def best_swl(
    config: SimulationConfig,
    kernel: KernelTrace,
    options: RunOptions = RunOptions(),
) -> BestSWLResult:
    """The Best-SWL oracle: try every candidate limit, keep the best.

    ``options`` apply to every leg of the sweep (the CTA limit is the
    sweep's own variable).
    """
    max_occ = hardware_occupancy(config.gpu, kernel)
    sweep: dict[int, float] = {}
    best_limit = max_occ
    best_result: Optional[SimulationResult] = None
    for limit in sweep_limits(max_occ):
        result = run_swl(config, kernel, limit, options)
        sweep[limit] = result.ipc
        if best_result is None or result.ipc > best_result.ipc:
            best_result = result
            best_limit = limit
    assert best_result is not None
    return BestSWLResult(best_limit=best_limit, best_result=best_result, sweep_ipc=sweep)
