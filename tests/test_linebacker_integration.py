"""Integration tests for the full Linebacker extension on an SM.

These drive small kernels end-to-end and assert the paper's mechanism
invariants: selection happens for high-locality loads, victim hits
return exactly the data that was evicted (token correctness), streams
are filtered, throttled CTAs round-trip their registers, and disabled
mode leaves the baseline untouched.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import SimulationConfig, scaled_config
from repro.core.linebacker import linebacker_factory
from repro.core.load_monitor import MonitorState
from repro.gpu.gpu import run_kernel
from repro.gpu.isa import load
from repro.options import RunOptions
from repro.workloads.generator import LoadSpec, Pattern, Scope
from repro.workloads.spec import build_workload

sys.path.insert(0, str(Path(__file__).parent))
from workload_helpers import make_app  # noqa: E402


def config(window=400):
    return scaled_config(num_sms=1, window_cycles=window)


def locality_kernel(n_ctas=4, warps=4, iters=120, ws=64, regs=16):
    """Warps hammering a small shared region: a high-locality load."""
    return build_workload(make_app(
        LoadSpec(0x100, Pattern.DIVERGENT, ws, Scope.GLOBAL, lines_per_access=1),
        iters=iters, warps=warps, ctas=n_ctas, alu=1, regs=regs, name="loc",
    ))


def streaming_kernel(n_ctas=4, warps=4, iters=150):
    return build_workload(make_app(
        LoadSpec(0x100, Pattern.STREAM, 0),
        iters=iters, warps=warps, ctas=n_ctas, alu=1, regs=16, name="stream",
    ))


def run_lb(cfg, kernel, lb_config=None):
    result = run_kernel(
        cfg,
        kernel,
        extension_factory=linebacker_factory(lb_config or cfg.linebacker),
        options=RunOptions(keep_objects=True),
    )
    return result, result.extensions[0]


class TestSelection:
    def test_high_locality_load_selected(self):
        cfg = config()
        result, ext = run_lb(cfg, locality_kernel())
        assert ext.load_monitor.state is MonitorState.SELECTED

    def test_streaming_kernel_disables_linebacker(self):
        """Paper: no high-locality load within the first two windows
        -> the application is not cache sensitive, LB turns off."""
        cfg = config()
        result, ext = run_lb(cfg, streaming_kernel())
        assert ext.load_monitor.state is MonitorState.DISABLED
        assert ext.stats.victim_hits == 0
        assert ext.stats.throttle_events == 0

    def test_disabled_linebacker_matches_baseline_perf(self):
        cfg = config()
        kernel = streaming_kernel()
        base = run_kernel(cfg, kernel)
        lb, _ = run_lb(cfg, kernel)
        assert lb.cycles == base.cycles
        assert lb.instructions == base.instructions


class TestVictimCacheCorrectness:
    def test_victim_hits_occur_and_are_never_corrupt(self):
        cfg = config()
        result, ext = run_lb(cfg, locality_kernel(ws=512))
        assert ext.stats.victim_hits > 0
        assert ext.stats.victim_reads_corrupt == 0

    def test_victim_hits_counted_as_reg_hits(self):
        cfg = config()
        result, ext = run_lb(cfg, locality_kernel(ws=512))
        assert result.sm_stats[0].victim_hits == ext.stats.victim_hits
        assert result.request_breakdown["reg_hit"] > 0

    def test_victim_space_respects_register_offset(self):
        """Victim lines may only live in registers >= the offset
        (RN 512-2047, paper Section 4.1)."""
        cfg = config()
        result, ext = run_lb(cfg, locality_kernel(ws=512))
        for vp in ext.vtt.active_partitions():
            assert vp.base_rn >= cfg.linebacker.register_offset

    def test_no_partition_overlaps_live_cta_registers(self):
        cfg = config()
        result, ext = run_lb(cfg, locality_kernel(ws=512))
        sm = result.sms[0]
        for vp in ext.vtt.active_partitions():
            for rn in vp.register_range:
                assert sm.register_file.owner_of(rn) is None


class TestStoreInvalidation:
    def test_store_invalidates_victim_copy(self):
        cfg = config(window=200)
        # One warp: monitored load gets selected, then a store to a
        # victim-resident line must invalidate the copy.
        insts = []
        for i in range(600):
            insts.append(load(0x100, [i % 48]))
        kernel_spec = locality_kernel(ws=48, iters=200)
        result, ext = run_lb(cfg, kernel_spec)
        before = ext.vtt.stats.store_invalidations
        # Directly exercise the hook against a line known to be cached.
        victims = list(ext.vtt.valid_lines())
        if not victims:
            pytest.skip("no victim lines at end of run")
        line_addr, partition, set_idx, way = victims[0]
        ext.on_store(line_addr, cycle=result.cycles)
        assert ext.vtt.stats.store_invalidations == before + 1
        rn = ext.vtt.partitions[partition].register_number(set_idx, way)
        assert result.sms[0].register_file.peek(rn) is None


class TestThrottlingRoundTrip:
    def make(self):
        cfg = config(window=300)
        kernel = locality_kernel(n_ctas=12, warps=4, iters=200, ws=1024, regs=16)
        return cfg, kernel

    def test_throttle_backs_up_and_restores(self):
        cfg, kernel = self.make()
        result, ext = run_lb(cfg, kernel)
        if ext.stats.throttle_events == 0:
            pytest.skip("controller chose not to throttle this kernel")
        assert result.traffic.backup_write_lines > 0
        # Every backup eventually restored or its CTA finished.
        assert not ext._restoring

    def test_all_instructions_complete_despite_throttling(self):
        cfg, kernel = self.make()
        base = run_kernel(cfg, kernel)
        result, ext = run_lb(cfg, kernel)
        assert result.instructions == base.instructions

    def test_register_tokens_survive_roundtrip(self):
        """After the run, no register corruption was ever observed and
        every CTA retired all warps."""
        cfg, kernel = self.make()
        result, ext = run_lb(cfg, kernel)
        assert ext.stats.victim_reads_corrupt == 0
        assert result.sms[0].done


class TestAblationFlags:
    def test_victim_cache_disabled_never_reg_hits(self):
        cfg = config()
        lb = replace(cfg.linebacker, enable_victim_cache=False)
        result, ext = run_lb(cfg, locality_kernel(), lb)
        assert result.request_breakdown["reg_hit"] == 0

    def test_throttling_disabled_never_throttles(self):
        cfg = config()
        lb = replace(cfg.linebacker, enable_throttling=False)
        result, ext = run_lb(cfg, locality_kernel(ws=1024), lb)
        assert ext.stats.throttle_events == 0

    def test_unselective_mode_preserves_streams_too(self):
        """Figure 11's 'Victim Caching' keeps everything, so a pure
        streaming kernel still fills victim space."""
        cfg = config()
        lb = replace(
            cfg.linebacker, enable_selective=False, enable_throttling=False
        )
        # Mixed kernel: locality load selects LB, stream pollutes.
        spec = make_app(
            (
                LoadSpec(0x100, Pattern.DIVERGENT, 64, Scope.GLOBAL, lines_per_access=1),
                LoadSpec(0x204, Pattern.STREAM, 0),
            ),
            iters=150, warps=4, ctas=4, alu=1, regs=16, name="mix",
        )
        unselective, ext_u = run_lb(cfg, build_workload(spec), lb)
        selective, ext_s = run_lb(
            cfg, build_workload(spec), replace(lb, enable_selective=True)
        )
        if ext_s.load_monitor.state is not MonitorState.SELECTED:
            pytest.skip("locality load not selected in this configuration")
        # Selective mode must insert no more victim lines than the
        # unselective mode (stream evictions are filtered out).
        assert ext_s.stats.victim_inserts <= ext_u.stats.victim_inserts


class TestPaperMachine:
    def test_ga_ends_inside_one_window_so_linebacker_equals_baseline(self):
        """The CI native smoke's configuration (Table 1/3, scale 1.0):
        GA finishes before the first 50 000-cycle LM window closes, so
        Linebacker never selects a load (EXPERIMENTS.md)."""
        from repro.api import Session

        cfg = SimulationConfig()
        with Session.local(use_cache=False, config=cfg, scale=1.0) as session:
            base, lb = (session.run("GA", arch).result() for arch in ("baseline", "linebacker"))
        assert base.cycles == 16_742
        assert base.cycles < cfg.linebacker.window_cycles
        assert (lb.cycles, lb.instructions) == (base.cycles, base.instructions)
