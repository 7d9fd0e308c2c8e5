"""Failure-injection and edge-path tests: MSHR exhaustion, cycle caps,
grids larger/smaller than the machine, and degenerate kernels."""

import sys
from dataclasses import replace
from pathlib import Path

from repro.config import scaled_config
from repro.core.linebacker import linebacker_factory
from repro.gpu.gpu import run_kernel
from repro.gpu.isa import alu, exit_inst, load, store
from repro.gpu.trace import from_instruction_lists
from repro.options import RunOptions

sys.path.insert(0, str(Path(__file__).parent))
from reference_engine import GPU  # noqa: E402


def cfg(**kw):
    base = scaled_config(num_sms=1, window_cycles=500)
    if kw:
        base = replace(base, gpu=replace(base.gpu, **kw))
    return base


class TestMSHRExhaustion:
    def test_run_completes_with_tiny_mshr_file(self):
        """With 2 MSHRs, most loads must retry; the run still finishes
        and counts stalls."""
        config = cfg(l1_mshrs=2)
        per_warp = [[[load(0x100, [w * 50 + i]) for i in range(20)] for w in range(4)]]
        kernel = from_instruction_lists("mshr", per_warp, regs_per_thread=8)
        result = run_kernel(config, kernel, options=RunOptions(keep_objects=True))
        assert result.instructions == 4 * 21
        assert result.sms[0].mshr_stalls > 0

    def test_divergent_load_wider_than_mshr_file(self):
        """A single load touching more lines than there are MSHRs can
        never fully reserve entries; the (warp-wide) request must still
        complete rather than livelock."""
        config = cfg(l1_mshrs=4)
        kernel = from_instruction_lists(
            "wide", [[[load(0x100, list(range(16)))]]], regs_per_thread=8
        )
        result = run_kernel(config, kernel)
        # The run ends (possibly via the cycle cap guard) and the warp
        # either completed or the simulator terminated cleanly.
        assert result.cycles > 0

    def test_mshr_stall_does_not_lose_instructions(self):
        config = cfg(l1_mshrs=1)
        per_warp = [[[load(0x100, [i]) for i in range(10)] for _ in range(2)]]
        kernel = from_instruction_lists("stall", per_warp, regs_per_thread=8)
        result = run_kernel(config, kernel)
        assert result.instructions == 2 * 11


class TestCycleCap:
    def test_max_cycles_bounds_runaway(self):
        config = scaled_config(num_sms=1)
        config = replace(config, max_cycles=200)
        per_warp = [[[load(0x100, [i]) for i in range(5000)]]]
        kernel = from_instruction_lists("long", per_warp, regs_per_thread=8)
        result = run_kernel(config, kernel)
        assert result.cycles <= 200


class TestDegenerateGrids:
    def test_single_warp_single_instruction(self):
        kernel = from_instruction_lists("tiny", [[[exit_inst()]]], regs_per_thread=8)
        result = run_kernel(cfg(), kernel)
        assert result.instructions == 1

    def test_more_sms_than_ctas(self):
        config = scaled_config(num_sms=4, window_cycles=500)
        kernel = from_instruction_lists("small", [[[alu()]]], regs_per_thread=8)
        result = run_kernel(config, kernel)
        assert result.instructions == 2
        # Three SMs never received work and must still drain cleanly.
        assert all(sm.done for sm in result.sms)

    def test_store_only_kernel(self):
        per_warp = [[[store(0x200, [i]) for i in range(10)]]]
        kernel = from_instruction_lists("stores", per_warp, regs_per_thread=8)
        result = run_kernel(cfg(), kernel)
        assert result.traffic.store_write_lines == 10

    def test_linebacker_on_degenerate_kernel(self):
        """Linebacker attached to a kernel too short for even one
        monitoring window must not throttle or corrupt anything."""
        config = scaled_config(num_sms=1, window_cycles=5000)
        kernel = from_instruction_lists(
            "short", [[[load(0x100, [1]), alu()]]], regs_per_thread=8
        )
        result = run_kernel(
            config, kernel, extension_factory=linebacker_factory(config.linebacker)
        )
        ext = result.extensions[0]
        assert result.instructions == 3
        assert ext.stats.throttle_events == 0
        assert ext.stats.victim_reads_corrupt == 0


class TestRegisterPressureEdge:
    def test_kernel_using_entire_register_file(self):
        """regs/thread x warps = the whole file: occupancy 1 CTA."""
        kernel = from_instruction_lists(
            "fat", [[[alu()] for _ in range(8)] for _ in range(3)],
            regs_per_thread=256,
        )
        config = cfg()
        gpu = GPU(config, kernel)
        assert all(len(sm.ctas) <= 1 for sm in gpu.sms)
        result = gpu.run()
        assert result.instructions == 3 * 8 * 2  # ALU + EXIT per warp
