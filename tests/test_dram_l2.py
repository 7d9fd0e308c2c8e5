"""Unit tests for the DRAM bandwidth server and the shared L2, and the
machine's memory model held to the oracle's composed one."""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KB, GPUConfig
from repro.memory.dram import DRAMModel
from repro.memory.subsystem import MemorySubsystem

sys.path.insert(0, str(Path(__file__).parent))
from reference_engine import memory as reference  # noqa: E402


class TestDRAM:
    def test_idle_access_latency(self):
        dram = DRAMModel(lines_per_cycle=1.0, access_latency=100)
        assert dram.access(0) == 101

    def test_bandwidth_serializes_requests(self):
        dram = DRAMModel(lines_per_cycle=0.5, access_latency=0)
        first = dram.access(0)
        second = dram.access(0)
        assert second - first == pytest.approx(2, abs=1)

    def test_queue_delay_grows_under_load(self):
        dram = DRAMModel(lines_per_cycle=0.25, access_latency=10)
        for _ in range(10):
            dram.access(0)
        assert dram.queue_delay(0) == pytest.approx(40, abs=1)

    def test_channel_drains_over_time(self):
        dram = DRAMModel(lines_per_cycle=0.5, access_latency=0)
        dram.access(0)
        assert dram.queue_delay(1000) == 0.0

    def test_read_write_accounting(self):
        dram = DRAMModel(lines_per_cycle=1.0)
        dram.access(0)
        dram.access(0, is_write=True)
        assert dram.stats.reads == 1
        assert dram.stats.writes == 1
        assert dram.stats.bytes_transferred == 256

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            DRAMModel(lines_per_cycle=0)

    def test_paper_bandwidth_conversion(self):
        """Table 1: 352.5 GB/s at 1126 MHz is ~2.45 lines/cycle."""
        cfg = GPUConfig()
        assert cfg.dram_lines_per_cycle == pytest.approx(2.446, abs=0.01)


class TestL2:
    """The shared L2 in front of DRAM, observed through the cycles
    :class:`MemorySubsystem` returns (L2 latency 100, DRAM latency 200)."""

    def make(self, lines_per_cycle=4.0, size=64 * KB):
        return MemorySubsystem(
            GPUConfig(
                l2_size_bytes=size,
                l2_assoc=8,
                l2_latency=100,
                l2_lines_per_cycle=lines_per_cycle,
                dram_latency=200,
            )
        )

    def test_miss_goes_to_dram_then_hits(self):
        mem = self.make()
        miss_ready = mem.fetch_line(42, 0)
        hit_ready = mem.fetch_line(42, 1000)
        assert miss_ready >= 100 + 200  # L2 latency + DRAM
        assert hit_ready == 1000 + 100
        assert mem.traffic.demand_read_lines == mem.dram_reads == 1

    def test_write_through_invalidates(self):
        mem = self.make()
        mem.fetch_line(7, 0)
        assert mem.fetch_line(7, 1000) == 1000 + 100  # resident
        assert mem.write_line(7, 2000) >= 2000 + 100 + 200  # through to DRAM
        assert mem.fetch_line(7, 3000) >= 3000 + 100 + 200  # refetched
        assert mem.traffic.demand_read_lines == 2
        assert (mem.dram_reads, mem.dram_writes) == (2, 1)

    def test_port_bandwidth_queues_requests(self):
        """The L2 port serializes: heavy traffic sees growing delay
        (the congestion that makes thrashing expensive, Section 2.2)."""
        mem = self.make(lines_per_cycle=0.5)
        mem.fetch_line(0, 0)
        completions = [mem.fetch_line(0, 0) for _ in range(20)]
        # Every hit waits out the two port cycles of the one before.
        assert completions == [2 * (i + 1) + 100 for i in range(20)]

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="l2_lines_per_cycle"):
            self.make(lines_per_cycle=0)


def test_register_streams_wait_for_a_synced_hook():
    memory = MemorySubsystem(GPUConfig())  # the guard starts closed
    for stream in (memory.backup_registers, memory.restore_registers):
        with pytest.raises(RuntimeError, match="does not order across SMs"):
            stream(4, 0)
    assert memory.traffic.total_lines == memory.dram_reads + memory.dram_writes == 0


# ---------------------------------------------------------------------------
# An oracle for the machine's memory model that needs no engine at all:
# ``MemorySubsystem`` inlines the L2's LRU tag array and port server;
# the oracle's composed ``MemorySubsystem`` (``L2Cache`` over the same
# DRAM model, the NoC inside ``fetch_line``) is driven with the same
# calls and must agree on every returned cycle and every counter after
# every one of them — for both DRAM models, with and without the NoC.
# ---------------------------------------------------------------------------
_MEM_OPS = ["fetch_line"] * 8 + ["write_line"] * 4 + ["backup_registers", "restore_registers"]
_mem_stream = st.lists(
    st.tuples(
        st.sampled_from(_MEM_OPS),
        st.integers(min_value=0, max_value=1 << 16),  # which line / how many
        st.integers(min_value=0, max_value=40),  # cycles since the last call
        st.integers(min_value=0, max_value=2),  # the calling SM
    ),
    min_size=30,
    max_size=200,
)

#: Small L2s, so sets fill and evict; bandwidths with inexact binary
#: reciprocals (1/4.9, 1/0.3), so float order of operations matters.
_GEOMETRIES = {
    "tiny-direct": dict(l2_size_bytes=1 * KB, l2_assoc=1, l2_lines_per_cycle=0.3,
                        l2_latency=7, dram_bandwidth_gbps=20.0, dram_latency=31),
    "small-2way": dict(l2_size_bytes=2 * KB, l2_assoc=2, l2_lines_per_cycle=4.9,
                       l2_latency=200, dram_bandwidth_gbps=352.5, dram_latency=220),
    "4way-slow-dram": dict(l2_size_bytes=8 * KB, l2_assoc=4, l2_lines_per_cycle=1.0,
                           l2_latency=3, dram_bandwidth_gbps=3.0, dram_latency=1),
}


class TestMemoryAgainstReference:
    @pytest.mark.parametrize("noc", [False, True], ids=["no-noc", "noc"])
    @pytest.mark.parametrize("dram_model", ["simple", "timing"])
    @pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
    @given(stream=_mem_stream)
    @settings(max_examples=100, deadline=None)
    def test_every_cycle_and_counter_agrees_after_every_call(
        self, geometry, dram_model, noc, stream
    ):
        config = GPUConfig(
            num_sms=3, dram_model=dram_model, noc_enable=noc, **_GEOMETRIES[geometry]
        )
        memory, oracle = MemorySubsystem(config), reference.MemorySubsystem(config)
        memory.hook_synced = True  # as inside a synced hook
        ports = [memory.ports(sm_id) for sm_id in range(config.num_sms)]
        lines = 3 * config.l2_num_sets * config.l2_assoc // 2  # more than fit
        cycle = 0
        for step, (op, arg, advance, sm_id) in enumerate(stream):
            cycle += advance
            if op.endswith("registers"):
                value = arg % 9
                got = getattr(memory, op)(value, cycle)
                want = getattr(oracle, op)(value, cycle)
            else:
                value = arg % lines
                got = ports[sm_id][op == "write_line"](value, cycle)
                want = getattr(oracle, op)(value, cycle, sm_id=sm_id)
            call = f"step {step}: SM {sm_id} {op}({value}, {cycle})"
            assert got == want, f"{call} -> {got}, oracle {want}"
            assert dataclasses.asdict(memory.traffic) == dataclasses.asdict(oracle.traffic), call
            assert (memory.dram_reads, memory.dram_writes) == (
                oracle.dram.stats.reads, oracle.dram.stats.writes
            ), f"{call}: DRAM counters diverged"
