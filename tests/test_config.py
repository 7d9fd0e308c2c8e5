"""Tests for the configuration layer (Tables 1 and 3)."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import (
    KB,
    LINE_SIZE,
    WARP_REGISTER_BYTES,
    GPUConfig,
    LinebackerConfig,
    paper_config,
    scaled_config,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestGPUConfig:
    def test_table1_defaults(self):
        gpu = GPUConfig()
        assert gpu.num_sms == 16
        assert gpu.clock_mhz == 1126.0
        assert gpu.max_threads_per_sm == 2048
        assert gpu.max_warps_per_sm == 64
        assert gpu.max_ctas_per_sm == 32
        assert gpu.num_schedulers == 4
        assert gpu.register_file_bytes == 256 * KB
        assert gpu.shared_memory_bytes == 96 * KB
        assert gpu.l1_size_bytes == 48 * KB
        assert gpu.l1_assoc == 8
        assert gpu.l1_line_bytes == 128
        assert gpu.l1_mshrs == 64
        assert gpu.l2_size_bytes == 2048 * KB
        assert gpu.dram_bandwidth_gbps == 352.5

    def test_warp_register_equals_line_size(self):
        """The size match Linebacker exploits: one warp register holds
        exactly one cache line (32 threads x 4 B = 128 B)."""
        assert WARP_REGISTER_BYTES == LINE_SIZE == 128

    def test_l1_geometry(self):
        gpu = GPUConfig()
        assert gpu.l1_num_sets == 48
        assert gpu.num_warp_registers == 2048

    def test_with_l1_size(self):
        gpu = GPUConfig().with_l1_size(128 * KB)
        assert gpu.l1_size_bytes == 128 * KB
        assert gpu.l1_num_sets == 128

    def test_frozen(self):
        with pytest.raises(AttributeError):
            GPUConfig().num_sms = 4


class TestLinebackerConfig:
    def test_table3_defaults(self):
        lb = LinebackerConfig()
        assert lb.window_cycles == 50_000
        assert lb.hit_ratio_threshold == 0.20
        assert lb.ipc_upper_bound == 0.10
        assert lb.ipc_lower_bound == -0.10
        assert lb.vtt_ways == 4
        assert lb.max_vtt_partitions == 8
        assert lb.vp_access_latency == 3
        assert lb.vp_granularity_bytes == 24 * KB

    def test_lines_per_partition(self):
        """24 KB / 128 B = 192 victim lines per partition."""
        assert LinebackerConfig().lines_per_partition == 192

    def test_with_ways_scales_granularity(self):
        lb = LinebackerConfig().with_ways(1)
        assert lb.vtt_ways == 1
        assert lb.vp_granularity_bytes == 6 * KB
        assert lb.max_vtt_partitions == 32
        lb16 = LinebackerConfig().with_ways(16)
        assert lb16.vp_granularity_bytes == 96 * KB
        assert lb16.max_vtt_partitions == 2

    def test_total_victim_capacity_constant_across_ways(self):
        """Sweeping associativity changes granularity, not the total
        mappable victim space (Figure 10 compares like with like)."""
        for ways in (1, 4, 16):
            lb = LinebackerConfig().with_ways(ways)
            total = lb.vp_granularity_bytes * lb.max_vtt_partitions
            assert total == 192 * KB


class TestScaledConfig:
    def test_shared_resources_scale_with_sms(self):
        full = GPUConfig()
        cfg = scaled_config(num_sms=4)
        assert cfg.gpu.num_sms == 4
        share = 4 / 16
        assert cfg.gpu.l2_size_bytes == int(full.l2_size_bytes * share)
        assert cfg.gpu.dram_bandwidth_gbps == pytest.approx(
            full.dram_bandwidth_gbps * share
        )
        assert cfg.gpu.l2_lines_per_cycle == pytest.approx(
            full.l2_lines_per_cycle * share
        )

    def test_per_sm_structures_stay_paper_sized(self):
        cfg = scaled_config(num_sms=4)
        assert cfg.gpu.l1_size_bytes == 48 * KB
        assert cfg.gpu.register_file_bytes == 256 * KB
        assert cfg.gpu.num_schedulers == 4

    def test_paper_config_is_full_size(self):
        cfg = paper_config()
        assert cfg.gpu.num_sms == 16
        assert cfg.linebacker.window_cycles == 50_000


class TestSeed:
    """``SimulationConfig.seed`` keys jobs but varies nothing yet
    (DESIGN.md, "Determinism"; a seed that does is ROADMAP item 3)."""

    @pytest.mark.parametrize("package", ["engine", "core", "gpu", "memory", "workloads"])
    def test_no_simulation_package_reads_the_seed(self, package):
        readers = [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for path in sorted((SRC / package).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "seed"
        ]
        assert readers == []

    def test_two_seeds_simulate_identically(self):
        from repro.api import Session

        cfg = scaled_config(num_sms=1, window_cycles=600)
        results = []
        for seed in (cfg.seed, cfg.seed + 1):
            with Session.local(
                use_cache=False, config=replace(cfg, seed=seed), scale=0.1
            ) as session:
                results.append(session.run("S2", "linebacker").result())
        a, b = results
        assert (a.cycles, a.instructions) == (b.cycles, b.instructions)
