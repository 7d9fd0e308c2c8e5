"""The memory hierarchy shared by all SMs — L2, interconnect, DRAM —
and the off-chip traffic accounting used by the paper's Figure 17.

All SMs share one L2 (2 MB, 8-way in the baseline, Table 1), modeled as
a tag array plus a *bandwidth server*: every access (hit or miss)
occupies the L2 port for ``1/l2_lines_per_cycle`` cycles, so under
heavy load requests queue behind each other and the effective miss
latency grows with traffic. This congestion is what makes cache
thrashing expensive on real GPUs (paper Section 2.2: "Congestion of
such long-latency memory operations increases stalls in the memory
system") and what makes warp throttling profitable at all. L2 misses
and stores go on to the configured DRAM model; the optional SM-to-L2
interconnect sits in front of the L2 port.

Traffic is accounted in 128-byte line transfers, split into demand
reads, store writes, and Linebacker's register backup/restore traffic
(the "Linebacker overhead" series in Figure 17).
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.memory.dram import DRAMModel
from repro.metrics import Metric, MetricSet

#: Off-chip traffic counters (line = 128 B granularity).
TRAFFIC_STATS = MetricSet(
    "TrafficStats",
    owner="memory.subsystem",
    metrics=(
        Metric("demand_read_lines", description="demand reads missing L2", fingerprint=True),
        Metric("store_write_lines", description="store write-throughs", fingerprint=True),
        Metric("backup_write_lines", description="register backup writes", fingerprint=True),
        Metric("restore_read_lines", description="register restore reads", fingerprint=True),
    ),
)

_TrafficStatsBase = TRAFFIC_STATS.build()


class TrafficStats(_TrafficStatsBase):
    """Off-chip traffic in line (128 B) granularity."""

    __slots__ = ()

    @property
    def total_lines(self) -> int:
        return (
            self.demand_read_lines
            + self.store_write_lines
            + self.backup_write_lines
            + self.restore_read_lines
        )

    @property
    def register_overhead_lines(self) -> int:
        return self.backup_write_lines + self.restore_read_lines

    @property
    def total_bytes(self) -> int:
        return self.total_lines * 128


def _require_sync(memory) -> None:
    """Registers stream to shared DRAM only from a hook the running SM
    called right after a sync point."""
    if not memory.hook_synced:
        raise RuntimeError(
            "an extension reached sm.memory from a hook the vector engine "
            "does not order across SMs (see SMExtension, 'Shared state')"
        )


class MemorySubsystem:
    """Shared L2 + DRAM with traffic accounting: the ``sm.memory`` of
    every SM of a device, and all an extension may reach of it.

    The L2 tag array is one LRU-ordered dict per set (tag -> ``True``)
    with the port server inlined; every L2 miss and every store is one
    ``dram.access`` call, whichever DRAM model the configuration names.
    All latencies returned are absolute cycles at which the requesting
    SM observes completion. The oracle's composed L2 (a
    ``SetAssociativeCache`` behind a port server, in
    ``tests/reference_engine/memory.py``) is what this is held to.
    """

    __slots__ = (
        "config",
        "dram",
        "noc",
        "_dram_access",
        "_l2_sets",
        "_l2_num_sets",
        "_l2_assoc",
        "_l2_svc",
        "_l2_lat",
        "_l2_port_free",
        "_backup_cursor",
        "traffic",
        # True while the running SM is inside a hook it called right
        # after a sync point — the only time a hook may stream registers.
        "hook_synced",
    )

    #: Line-granular base of the dedicated register backup region.
    BACKUP_REGION_BASE = 1 << 40

    def __init__(self, config: GPUConfig) -> None:
        self.config = config.check()
        if config.dram_model == "timing":
            from repro.memory.dram_timing import TimingDRAMModel

            self.dram = TimingDRAMModel(
                lines_per_cycle=config.dram_lines_per_cycle,
                access_latency=config.dram_latency,
                line_bytes=config.l1_line_bytes,
                num_channels=config.dram_channels,
                banks_per_channel=config.dram_banks_per_channel,
            )
        else:
            self.dram = DRAMModel(
                lines_per_cycle=config.dram_lines_per_cycle,
                access_latency=config.dram_latency,
                line_bytes=config.l1_line_bytes,
            )
        self._dram_access = self.dram.access
        self._l2_num_sets = config.l2_num_sets
        self._l2_sets: list[dict] = [dict() for _ in range(self._l2_num_sets)]
        self._l2_assoc = config.l2_assoc
        self._l2_svc = 1.0 / config.l2_lines_per_cycle
        self._l2_lat = config.l2_latency
        self._l2_port_free = 0.0
        self._backup_cursor = 0
        self.traffic = TrafficStats()
        self.hook_synced = False
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
    def fetch_line(self, line_addr: int, cycle: int) -> int:
        """Demand read after an L1 (and victim cache) miss, arriving at
        the L2 port at ``cycle``."""
        start = self._l2_port_free
        if cycle > start:
            start = float(cycle)
        self._l2_port_free = start + self._l2_svc
        ns = self._l2_num_sets
        ways = self._l2_sets[line_addr % ns]
        tag = line_addr // ns
        if tag in ways:
            del ways[tag]
            ways[tag] = True
            return int(start + self._l2_lat)
        ready = self._dram_access(int(start + self._l2_lat), False, line_addr)
        if len(ways) >= self._l2_assoc:
            del ways[next(iter(ways))]
        ways[tag] = True
        self.traffic.demand_read_lines += 1
        return ready

    def write_line(self, line_addr: int, cycle: int) -> int:
        """Store write-through, arriving at the L2 port at ``cycle``.

        Write-through, no-allocate at L2: the line is invalidated so a
        later read refetches fresh data. Returns the DRAM completion.
        """
        self.traffic.store_write_lines += 1
        start = self._l2_port_free
        if cycle > start:
            start = float(cycle)
        self._l2_port_free = start + self._l2_svc
        ns = self._l2_num_sets
        self._l2_sets[line_addr % ns].pop(line_addr // ns, None)
        return self._dram_access(int(start + self._l2_lat), True, line_addr)

    def ports(self, sm_id: int) -> tuple:
        """``(fetch_line, write_line)`` as SM ``sm_id`` calls them: the
        two above, behind its interconnect injection port when there is
        one."""
        fetch_line, write_line = self.fetch_line, self.write_line
        if self.noc is None:
            return fetch_line, write_line
        traverse = self.noc.traverse

        def noc_fetch_line(line_addr: int, cycle: int) -> int:
            return fetch_line(line_addr, traverse(sm_id, cycle))

        def noc_write_line(line_addr: int, cycle: int) -> int:
            return write_line(line_addr, traverse(sm_id, cycle))

        return noc_fetch_line, noc_write_line

    # -- Linebacker register backup/restore path --------------------------
    def backup_registers(self, num_lines: int, cycle: int) -> int:
        """Write ``num_lines`` warp registers to the backup region.

        Returns the cycle at which the last write completes. Register
        backup bypasses L2 (the backup region is not demand data) and
        streams sequential addresses, so under the bank-level DRAM
        model it enjoys row-buffer locality.
        """
        _require_sync(self)
        access = self._dram_access
        ready = cycle
        base = self.BACKUP_REGION_BASE + self._backup_cursor
        for i in range(num_lines):
            ready = access(cycle, True, base + i)
        self._backup_cursor += num_lines
        self.traffic.backup_write_lines += num_lines
        return ready

    def restore_registers(self, num_lines: int, cycle: int) -> int:
        """Read ``num_lines`` warp registers back from the backup region."""
        _require_sync(self)
        access = self._dram_access
        ready = cycle
        base = self.BACKUP_REGION_BASE + max(0, self._backup_cursor - num_lines)
        for i in range(num_lines):
            ready = access(cycle, False, base + i)
        self.traffic.restore_read_lines += num_lines
        return ready

    # -- what a result reports ---------------------------------------------
    @property
    def dram_reads(self) -> int:
        return self.dram.stats.reads

    @property
    def dram_writes(self) -> int:
        return self.dram.stats.writes
