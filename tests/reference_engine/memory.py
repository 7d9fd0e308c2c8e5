"""The composed shared L2 + DRAM the oracle runs on.

``L2Cache`` — a ``SetAssociativeCache`` tag array behind a port
bandwidth server, over a ``DRAMModel`` or ``TimingDRAMModel`` — and the
``MemorySubsystem`` that adds the interconnect, the register backup
region and the traffic accounting were ``src/repro/memory/l2.py`` and
``src/repro/memory/subsystem.py`` until the flat
:class:`repro.memory.subsystem.MemorySubsystem` became the one memory
model of ``src/``. They live here, code unchanged, so every
machine-vs-oracle comparison also holds the machine's L2/DRAM
arithmetic to an independent implementation of it.

The L2 port is a bandwidth server: every access (hit or miss) occupies
it for ``1/lines_per_cycle`` cycles, so under heavy load requests queue
behind each other and the effective miss latency grows with traffic
(paper Section 2.2).
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import DRAMModel
from repro.memory.subsystem import TrafficStats


class L2Cache:
    """Shared L2: a set-associative tag array + port bandwidth over DRAM."""

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        latency: int,
        dram: DRAMModel,
        line_bytes: int = 128,
        lines_per_cycle: float = 4.0,
    ) -> None:
        if lines_per_cycle <= 0:
            raise ValueError("L2 bandwidth must be positive")
        self.cache = SetAssociativeCache(size_bytes, assoc, line_bytes)
        self.latency = latency
        self.dram = dram
        self.service_cycles = 1.0 / lines_per_cycle
        self._port_free: float = 0.0
        self.queue_delay_sum: float = 0.0
        self.accesses: int = 0

    def _occupy_port(self, cycle: int) -> float:
        """Claim the L2 port; returns the cycle service starts."""
        start = max(float(cycle), self._port_free)
        self._port_free = start + self.service_cycles
        self.queue_delay_sum += start - cycle
        self.accesses += 1
        return start

    def read(self, line_addr: int, cycle: int) -> int:
        """Read one line; returns the cycle the data is back at the SM."""
        return self.read_demand(line_addr, cycle)[0]

    def read_demand(self, line_addr: int, cycle: int) -> tuple[int, bool]:
        """Read one line; returns ``(ready_cycle, was_hit)``.

        The combined form lets the memory subsystem account off-chip
        traffic without a separate tag probe in front of the read.
        Port occupancy is inlined (one call per L1 miss).
        """
        start = self._port_free
        if cycle > start:
            start = float(cycle)
        self._port_free = start + self.service_cycles
        self.queue_delay_sum += start - cycle
        self.accesses += 1
        if self.cache.lookup(line_addr) is not None:
            return int(start + self.latency), True
        ready = self.dram.access(int(start + self.latency), line_addr=line_addr)
        self.cache.fill(line_addr, token=line_addr)
        return ready, False

    def write(self, line_addr: int, cycle: int) -> int:
        """Write one line through to DRAM; returns completion cycle."""
        # Write-through, no-allocate at L2 for modeling simplicity; the
        # line is invalidated so a later read refetches fresh data.
        start = self._occupy_port(cycle)
        self.cache.invalidate(line_addr)
        return self.dram.access(
            int(start + self.latency), is_write=True, line_addr=line_addr
        )

    @property
    def mean_queue_delay(self) -> float:
        return self.queue_delay_sum / self.accesses if self.accesses else 0.0

    @property
    def stats(self):
        return self.cache.stats


class MemorySubsystem:
    """Shared L2 + DRAM with traffic accounting.

    All latencies returned are absolute cycles at which the requesting
    SM observes completion.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        if config.dram_model == "timing":
            from repro.memory.dram_timing import TimingDRAMModel

            self.dram = TimingDRAMModel(
                lines_per_cycle=config.dram_lines_per_cycle,
                access_latency=config.dram_latency,
                line_bytes=config.l1_line_bytes,
                num_channels=config.dram_channels,
                banks_per_channel=config.dram_banks_per_channel,
            )
        elif config.dram_model == "simple":
            self.dram = DRAMModel(
                lines_per_cycle=config.dram_lines_per_cycle,
                access_latency=config.dram_latency,
                line_bytes=config.l1_line_bytes,
            )
        else:
            raise ValueError(f"unknown dram_model {config.dram_model!r}")
        self.l2 = L2Cache(
            size_bytes=config.l2_size_bytes,
            assoc=config.l2_assoc,
            latency=config.l2_latency,
            dram=self.dram,
            line_bytes=config.l1_line_bytes,
            lines_per_cycle=config.l2_lines_per_cycle,
        )
        self.traffic = TrafficStats()
        self._backup_cursor = 0
        self.noc = None
        if config.noc_enable:
            from repro.memory.interconnect import Interconnect

            self.noc = Interconnect(
                num_sms=config.num_sms,
                latency=config.noc_latency,
                injection_interval=config.noc_injection_interval,
                crossbar_lines_per_cycle=config.noc_crossbar_lines_per_cycle,
            )

    # -- demand path -----------------------------------------------------
    def fetch_line(self, line_addr: int, cycle: int, sm_id: int = 0) -> int:
        """Demand read after an L1 (and victim cache) miss."""
        if self.noc is not None:
            cycle = self.noc.traverse(sm_id, cycle)
        ready, l2_hit = self.l2.read_demand(line_addr, cycle)
        if not l2_hit:
            self.traffic.demand_read_lines += 1
        return ready

    def write_line(self, line_addr: int, cycle: int, sm_id: int = 0) -> int:
        """Store write-through from an SM."""
        if self.noc is not None:
            cycle = self.noc.traverse(sm_id, cycle)
        self.traffic.store_write_lines += 1
        return self.l2.write(line_addr, cycle)

    # -- Linebacker register backup/restore path --------------------------
    #: Line-granular base of the dedicated register backup region.
    BACKUP_REGION_BASE = 1 << 40

    def backup_registers(self, num_lines: int, cycle: int) -> int:
        """Write ``num_lines`` warp registers to the backup region.

        Returns the cycle at which the last write completes. Register
        backup bypasses L2 (the backup region is not demand data) and
        streams sequential addresses, so under the bank-level DRAM
        model it enjoys row-buffer locality.
        """
        ready = cycle
        base = self.BACKUP_REGION_BASE + self._backup_cursor
        for i in range(num_lines):
            ready = self.dram.access(cycle, is_write=True, line_addr=base + i)
        self._backup_cursor += num_lines
        self.traffic.backup_write_lines += num_lines
        return ready

    def restore_registers(self, num_lines: int, cycle: int) -> int:
        """Read ``num_lines`` warp registers back from the backup region."""
        ready = cycle
        base = self.BACKUP_REGION_BASE + max(0, self._backup_cursor - num_lines)
        for i in range(num_lines):
            ready = self.dram.access(cycle, line_addr=base + i)
        self.traffic.restore_read_lines += num_lines
        return ready
