"""Integration tests: SM pipeline, GPU clock loop, CTA lifecycle.
``run_kernel`` cases run on the machine; the cases that build a device
and look inside it before or after the run build the reference ``GPU``."""

import sys
from pathlib import Path

from repro.config import GPUConfig, scaled_config
from repro.gpu.gpu import run_kernel, statically_unused_register_bytes
from repro.gpu.isa import alu, exit_inst, load, store
from repro.gpu.trace import from_instruction_lists, hardware_occupancy

sys.path.insert(0, str(Path(__file__).parent))
from reference_engine import GPU  # noqa: E402


def tiny_config(**kw):
    cfg = scaled_config(num_sms=1, window_cycles=500)
    return cfg


def one_warp_kernel(insts, regs=8):
    return from_instruction_lists("k", [[list(insts)]], regs_per_thread=regs)


class TestBasicExecution:
    def test_alu_only_kernel_completes(self):
        cfg = tiny_config()
        result = run_kernel(cfg, one_warp_kernel([alu() for _ in range(10)]))
        assert result.instructions == 11  # 10 ALU + EXIT
        assert result.cycles > 0

    def test_load_hits_after_fill(self):
        # max_outstanding_loads=1 forces blocking semantics so the
        # second load runs after the first one's fill.
        from dataclasses import replace

        cfg = tiny_config()
        cfg = replace(cfg, gpu=replace(cfg.gpu, max_outstanding_loads=1))
        insts = [load(0x100, [5]), load(0x100, [5])]
        result = run_kernel(cfg, one_warp_kernel(insts))
        stats = result.sm_stats[0]
        assert stats.l1_misses == 1
        assert stats.l1_hits == 1

    def test_scoreboarded_loads_merge_in_mshr(self):
        """With the default outstanding limit, back-to-back loads to
        the same line issue before the fill and merge in the MSHR."""
        cfg = tiny_config()
        insts = [load(0x100, [5]), load(0x100, [5])]
        result = run_kernel(cfg, one_warp_kernel(insts))
        assert result.sm_stats[0].l1_misses == 2
        assert result.dram_reads <= 1

    def test_store_does_not_allocate(self):
        cfg = tiny_config()
        insts = [store(0x200, [7]), load(0x100, [7])]
        result = run_kernel(cfg, one_warp_kernel(insts))
        assert result.sm_stats[0].l1_misses == 1
        assert result.traffic.store_write_lines == 1

    def test_write_evict_policy(self):
        """A store to a resident line evicts it (write-evict)."""
        cfg = tiny_config()
        insts = [load(0x100, [3]), store(0x200, [3]), load(0x100, [3])]
        result = run_kernel(cfg, one_warp_kernel(insts))
        assert result.sm_stats[0].l1_misses == 2

    def test_ipc_bounded_by_issue_width(self):
        cfg = tiny_config()
        result = run_kernel(cfg, one_warp_kernel([alu() for _ in range(50)]))
        per_sm_ipc = result.ipc
        assert per_sm_ipc <= cfg.gpu.num_schedulers

    def test_divergent_load_fetches_all_lines(self):
        cfg = tiny_config()
        result = run_kernel(cfg, one_warp_kernel([load(0x100, [1, 2, 3, 4])]))
        assert result.sm_stats[0].mem_requests == 4


class TestMultiWarpMultiCTA:
    def make_kernel(self, n_ctas=4, warps=2, loads_per_warp=6):
        per_warp = [
            [
                [load(0x100, [cta * 100 + w * 10 + i]) for i in range(loads_per_warp)]
                for w in range(warps)
            ]
            for cta in range(n_ctas)
        ]
        return from_instruction_lists("multi", per_warp, regs_per_thread=16)

    def test_all_ctas_complete(self):
        cfg = tiny_config()
        kernel = self.make_kernel(n_ctas=6)
        result = run_kernel(cfg, kernel)
        expected = 6 * 2 * (6 + 1)  # loads + exit per warp
        assert result.instructions == expected

    def test_cta_limit_respected(self):
        cfg = tiny_config()
        kernel = self.make_kernel(n_ctas=8)
        gpu = GPU(cfg, kernel, max_concurrent_ctas=2)
        assert all(len(sm.ctas) <= 2 for sm in gpu.sms)
        result = gpu.run()
        assert result.instructions == 8 * 2 * 7

    def test_mshr_merging_counts(self):
        """Several warps missing on the same line share one fetch."""
        cfg = tiny_config()
        per_warp = [[[load(0x100, [42])] for _ in range(4)]]
        kernel = from_instruction_lists("merge", per_warp, regs_per_thread=8)
        gpu = GPU(cfg, kernel)
        result = gpu.run()
        assert result.dram_reads <= 2  # one demand fetch (plus none extra)
        assert result.sm_stats[0].l1_misses >= 1


class TestOccupancy:
    def test_thread_limit(self):
        cfg = GPUConfig()
        kernel = from_instruction_lists(
            "k", [[[alu()]] * 8 for _ in range(2)], regs_per_thread=8
        )
        # 8 warps/CTA = 256 threads; 2048/256 = 8 CTAs.
        assert hardware_occupancy(cfg, kernel) == 8

    def test_register_limit(self):
        cfg = GPUConfig()
        kernel = from_instruction_lists(
            "k", [[[alu()]] * 8 for _ in range(2)], regs_per_thread=64
        )
        # 8 x 64 = 512 warp-regs per CTA; 2048/512 = 4 CTAs.
        assert hardware_occupancy(cfg, kernel) == 4

    def test_statically_unused_registers(self):
        cfg = GPUConfig()
        kernel = from_instruction_lists(
            "k", [[[alu()]] * 8 for _ in range(2)], regs_per_thread=16
        )
        # Occupancy 8 (threads), 8x16x8 = 1024 regs used -> 128 KB SUR.
        assert statically_unused_register_bytes(cfg, kernel) == 128 * 1024

    def test_shared_memory_limit(self):
        cfg = GPUConfig()
        from repro.gpu.trace import KernelTrace

        kernel = KernelTrace(
            name="k",
            num_ctas=4,
            warps_per_cta=1,
            regs_per_thread=8,
            warp_trace=lambda c, w: iter([exit_inst()]),
            shared_mem_per_cta=48 * 1024,
        )
        assert hardware_occupancy(cfg, kernel) == 2


class TestDeterminism:
    def test_same_kernel_same_result(self):
        cfg = tiny_config()
        kernel_a = self.kernel()
        kernel_b = self.kernel()
        r1 = run_kernel(cfg, kernel_a)
        r2 = run_kernel(cfg, kernel_b)
        assert r1.cycles == r2.cycles
        assert r1.instructions == r2.instructions

    @staticmethod
    def kernel():
        per_warp = [
            [[load(0x100, [w * 7 + i]) for i in range(5)] for w in range(3)]
            for _ in range(2)
        ]
        return from_instruction_lists("det", per_warp, regs_per_thread=8)


class TestRegisterTokens:
    def test_launch_initializes_register_contents(self):
        cfg = tiny_config()
        kernel = one_warp_kernel([alu()], regs=16)
        gpu = GPU(cfg, kernel)
        sm = gpu.sms[0]
        cta = next(iter(sm.ctas.values()))
        assert cta.register_range is not None
        for r in cta.register_range:
            assert sm.register_file.peek(r) is not None

    def test_registers_freed_on_completion(self):
        cfg = tiny_config()
        kernel = one_warp_kernel([alu()], regs=16)
        gpu = GPU(cfg, kernel)
        gpu.run()
        assert gpu.sms[0].register_file.allocated_count() == 0
