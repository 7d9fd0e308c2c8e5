"""Off-chip DRAM model: fixed access latency plus a bandwidth server.

The paper's baseline provides 352.5 GB/s of off-chip bandwidth
(Table 1). We model DRAM as a single shared server: each 128-byte line
transfer occupies the channel for ``line_bytes / bytes_per_cycle``
cycles, and a request completes at

    max(arrival, channel_free) + access_latency + service_time.

This captures the two behaviours the evaluation depends on: long
memory latency when the channel is idle, and queueing delay when many
SMs saturate bandwidth (which is what makes extreme warp throttling
hurt — see paper Section 3.2, "If too few warps run, GPUs may suffer
from slowdown due to the underutilization of DRAM bandwidth").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    busy_cycles: float = 0.0

    @property
    def bytes_transferred(self) -> int:
        return (self.reads + self.writes) * 128

    def utilization(self, total_cycles: int) -> float:
        return self.busy_cycles / total_cycles if total_cycles else 0.0


class DRAMModel:
    """Shared bandwidth/latency server for all SMs."""

    def __init__(
        self,
        lines_per_cycle: float,
        access_latency: int = 220,
        line_bytes: int = 128,
    ) -> None:
        if lines_per_cycle <= 0:
            raise ValueError("DRAM bandwidth must be positive")
        self.service_cycles = 1.0 / lines_per_cycle
        self.access_latency = access_latency
        self.line_bytes = line_bytes
        self._channel_free: float = 0.0
        self.stats = DRAMStats()

    def access(self, cycle: int, is_write: bool = False, line_addr: int = 0) -> int:
        """Issue one line transfer at ``cycle``; returns completion cycle.

        ``line_addr`` is accepted for API compatibility with the
        bank-level :class:`~repro.memory.dram_timing.TimingDRAMModel`;
        the simple model is address-blind.
        """
        svc = self.service_cycles
        start = self._channel_free
        if cycle > start:
            start = float(cycle)
        self._channel_free = start + svc
        stats = self.stats
        stats.busy_cycles += svc
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        return int(start + svc + self.access_latency)

    def queue_delay(self, cycle: int) -> float:
        """Current queueing delay seen by a request arriving at ``cycle``."""
        return max(0.0, self._channel_free - cycle)
