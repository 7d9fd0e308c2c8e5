"""What one kernel simulation takes and gives back: :func:`run_kernel`,
:class:`SimulationResult` and the unused-register accounting (SUR/DUR).
The device itself is :class:`repro.engine.vector.machine.VectorGPU`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import WARP_REGISTER_BYTES, GPUConfig, SimulationConfig
from repro.gpu.extension import SMExtension
from repro.gpu.register_file import RegisterFileStats
from repro.gpu.snapshot import ExtensionSnapshot, SMSnapshot
from repro.gpu.stats import SMStats
from repro.gpu.trace import KernelTrace, hardware_occupancy
from repro.memory.cache import CacheStats
from repro.memory.subsystem import TrafficStats
from repro.options import RunOptions

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
    l1_stats: list[CacheStats]
    rf_stats: list[RegisterFileStats]
    #: Per-SM extension snapshots — the live extensions under
    #: ``RunOptions(keep_objects=True)``.
    extensions: list[ExtensionSnapshot]
    #: Per-SM SM snapshots — the live SMs under ``keep_objects``.
    sms: list[SMSnapshot] = field(default_factory=list, repr=False)

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
    """Convenience wrapper: run one kernel on the machine
    (``options.backend`` names another registered engine; see
    :mod:`repro.engine.base`).

    By default the result carries SM/extension *snapshots* (every
    statistic, the load tracker, the summaries of Linebacker's Load
    Monitor and Victim Tag Table) rather than the live simulator graph,
    so sweeps holding thousands of results don't keep every SM — and
    through it the whole memory hierarchy — alive.
    ``RunOptions(keep_objects=True)`` retains the live SMs and
    extensions (tests that poke at MSHRs or register files need this);
    the device object itself is discarded either way.
    """
    limit = options.max_concurrent_ctas
    if limit is not None and limit < 1:
        raise ValueError("CTA limit must be at least 1")
    # Imported lazily: the machine imports this module for
    # SimulationResult (acyclic at import time).
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
