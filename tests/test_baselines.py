"""Tests for the comparison architectures: SWL/Best-SWL, PCAL, CERF,
and the idealized CacheExt configurations."""

import pytest

from repro.baselines.cache_ext import config_with_cache_ext, extended_l1_bytes
from repro.baselines.cerf import CERFExtension
from repro.baselines.pcal import PCALExtension
from repro.baselines.swl import best_swl, run_swl, sweep_limits
from repro.config import scaled_config
from repro.core.load_monitor import MonitorState
from repro.gpu.gpu import run_kernel
from repro.runner.registry import resolve
from repro.workloads.generator import AppSpec, LoadSpec, Pattern, Scope, build_kernel

#: Every comparison architecture runs through its registry row.
run_pcal = resolve("pcal").runner
run_cerf = resolve("cerf").runner
run_cache_ext = resolve("cache_ext").runner


def config():
    return scaled_config(num_sms=1, window_cycles=400)


def kernel(ws=256, ctas=8, warps=4, iters=80):
    spec = AppSpec(
        name="k", description="t", cache_sensitive=True,
        num_ctas=ctas, warps_per_cta=warps, regs_per_thread=16,
        iterations=iters, alu_per_iteration=2,
        loads=(
            LoadSpec(0x100, Pattern.DIVERGENT, ws, Scope.GLOBAL, lines_per_access=1),
            LoadSpec(0x204, Pattern.STREAM, 0),
        ),
    )
    return build_kernel(spec)


class TestSWL:
    def test_sweep_limits_sorted_and_bounded(self):
        limits = sweep_limits(16)
        assert limits == sorted(limits)
        assert limits[0] == 1 and limits[-1] == 16

    def test_run_swl_respects_limit(self):
        cfg = config()
        result = run_swl(cfg, kernel(), cta_limit=2)
        assert result.instructions > 0

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            run_swl(config(), kernel(), cta_limit=0)

    def test_best_swl_picks_max_ipc(self):
        cfg = config()
        outcome = best_swl(cfg, kernel())
        assert outcome.ipc == max(outcome.sweep_ipc.values())
        assert outcome.sweep_ipc[outcome.best_limit] == outcome.ipc


class TestPCAL:
    def test_pcal_disables_victim_caching(self):
        ext = PCALExtension()
        assert not ext.config.enable_victim_cache
        assert not ext.config.enable_throttling
        assert ext.bypass is not None

    def test_pcal_produces_bypasses(self):
        cfg = config()
        result = run_pcal(cfg, kernel(iters=160))
        bypasses = sum(s.bypasses for s in result.sm_stats)
        assert bypasses > 0
        assert result.request_breakdown["bypass"] > 0

    def test_pcal_never_reg_hits(self):
        cfg = config()
        result = run_pcal(cfg, kernel())
        assert result.request_breakdown["reg_hit"] == 0

    def test_pcal_completes_all_work(self):
        cfg = config()
        k = kernel()
        base = run_kernel(cfg, k)
        pcal = run_pcal(cfg, k)
        assert pcal.instructions == base.instructions


class TestCERF:
    def test_cerf_active_from_start(self):
        """CERF has no monitoring phase: register-space caching is on
        from the first cycle."""
        ext = CERFExtension()

        class _SMStub:
            pass

        # attach() requires a real SM; exercise the flags directly.
        assert not ext.config.enable_selective
        assert not ext.config.enable_throttling

    def test_cerf_produces_reg_hits_on_locality(self):
        cfg = config()
        result = run_cerf(cfg, kernel(ws=512, iters=160))
        assert result.request_breakdown["reg_hit"] > 0

    def test_cerf_caches_streaming_data_too(self):
        """No selectivity: stream evictions land in register space,
        the weakness Linebacker's Load Monitor fixes (Section 5.2)."""
        cfg = config()
        result = run_cerf(cfg, kernel(iters=120))
        ext = result.extensions[0]
        assert ext.stats.victim_inserts > 0
        assert ext.load_monitor.state is MonitorState.SELECTED

    def test_cerf_completes_all_work(self):
        cfg = config()
        k = kernel()
        base = run_kernel(cfg, k)
        cerf = run_cerf(cfg, k)
        assert cerf.instructions == base.instructions

    def test_cerf_uses_more_register_traffic_than_baseline(self):
        cfg = config()
        k = kernel(ws=512, iters=120)
        base = run_kernel(cfg, k)
        cerf = run_cerf(cfg, k)
        base_rf = sum(rf.reads + rf.writes for rf in base.rf_stats)
        cerf_rf = sum(rf.reads + rf.writes for rf in cerf.rf_stats)
        assert cerf_rf > base_rf


class TestCacheExt:
    def test_extended_size_aligned_to_sets(self):
        cfg = config()
        k = kernel()
        size = extended_l1_bytes(cfg, k, extra_bytes=100_000)
        assert size % (cfg.gpu.l1_assoc * cfg.gpu.l1_line_bytes) == 0
        assert size > cfg.gpu.l1_size_bytes

    def test_config_with_cache_ext_grows_l1(self):
        cfg = config()
        k = kernel()  # regs 16 x 4 warps -> plenty of SUR
        ext_cfg = config_with_cache_ext(cfg, k)
        assert ext_cfg.gpu.l1_size_bytes > cfg.gpu.l1_size_bytes

    def test_cache_ext_improves_thrashing_kernel(self):
        cfg = config()
        k = kernel(ws=1024, iters=120)
        base = run_kernel(cfg, k)
        ext = run_cache_ext(cfg, k)
        assert ext.l1_hit_ratio >= base.l1_hit_ratio

    def test_dur_included_for_swl_limit(self):
        cfg = config()
        k = kernel()
        sur_only = config_with_cache_ext(cfg, k)
        with_dur = config_with_cache_ext(cfg, k, include_dur_for_limit=2)
        assert with_dur.gpu.l1_size_bytes >= sur_only.gpu.l1_size_bytes
