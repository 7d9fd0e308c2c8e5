"""Unit tests for the DRAM bandwidth server and the shared L2, and the
machine's inlined copy of both held to them."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KB, GPUConfig
from repro.engine.vector.machine import _VectorMemory
from repro.memory.dram import DRAMModel
from repro.memory.l2 import L2Cache
from repro.memory.subsystem import MemorySubsystem


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
    def make(self, lines_per_cycle=4.0, size=64 * 1024):
        dram = DRAMModel(lines_per_cycle=2.0, access_latency=200)
        return L2Cache(size, 8, latency=100, dram=dram, lines_per_cycle=lines_per_cycle)

    def test_miss_goes_to_dram_then_hits(self):
        l2 = self.make()
        miss_ready = l2.read(42, 0)
        hit_ready = l2.read(42, 1000)
        assert miss_ready > 100  # L2 latency + DRAM
        assert hit_ready == 1000 + 100

    def test_write_through_invalidates(self):
        l2 = self.make()
        l2.read(7, 0)
        l2.write(7, 10)
        assert l2.cache.probe(7) is None

    def test_port_bandwidth_queues_requests(self):
        """The L2 port serializes: heavy traffic sees growing delay
        (the congestion that makes thrashing expensive, Section 2.2)."""
        l2 = self.make(lines_per_cycle=0.5)
        l2.read(0, 0)
        completions = [l2.read(0, 0) for _ in range(20)]
        assert completions[-1] > completions[0]
        assert l2.mean_queue_delay > 0

    def test_rejects_zero_bandwidth(self):
        dram = DRAMModel(lines_per_cycle=1.0)
        with pytest.raises(ValueError):
            L2Cache(64 * 1024, 8, 100, dram, lines_per_cycle=0)


# ---------------------------------------------------------------------------
# An oracle for the machine's fast path that needs no engine at all:
# ``_VectorMemory`` inlines the float arithmetic of ``L2Cache`` +
# ``DRAMModel`` and the L2's LRU tag array; the composed
# ``MemorySubsystem`` is driven with the same calls and must agree on
# every returned cycle and every counter after every one of them.
# ---------------------------------------------------------------------------
_MEM_OPS = ["fetch_line"] * 8 + ["write_line"] * 4 + ["backup_registers", "restore_registers"]
_mem_stream = st.lists(
    st.tuples(
        st.sampled_from(_MEM_OPS),
        st.integers(min_value=0, max_value=1 << 16),  # which line / how many
        st.integers(min_value=0, max_value=40),  # cycles since the last call
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


class TestVectorMemoryAgainstSubsystem:
    @pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
    @given(stream=_mem_stream)
    @settings(max_examples=100, deadline=None)
    def test_every_cycle_and_counter_agrees_after_every_call(self, geometry, stream):
        config = GPUConfig(**_GEOMETRIES[geometry])
        fast, general = _VectorMemory(config), MemorySubsystem(config)
        fast.hook_synced = True  # as inside a synced hook
        lines = 3 * config.l2_num_sets * config.l2_assoc // 2  # more than fit
        cycle = 0
        for step, (op, arg, advance) in enumerate(stream):
            cycle += advance
            value = arg % 9 if op.endswith("registers") else arg % lines
            got = getattr(fast, op)(value, cycle)
            want = getattr(general, op)(value, cycle)
            if op != "write_line":  # the machine never reads a store's completion
                assert got == want, f"step {step}: {op}({value}, {cycle}) -> {got}, oracle {want}"
            assert dataclasses.asdict(fast.traffic) == dataclasses.asdict(general.traffic), step
            assert (fast.dram_reads, fast.dram_writes) == (
                general.dram.stats.reads, general.dram.stats.writes
            ), f"step {step}: DRAM counters diverged after {op}({value}, {cycle})"
