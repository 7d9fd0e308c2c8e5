"""Tests for the comparison architectures: SWL/Best-SWL, PCAL, CERF,
and the idealized CacheExt configurations."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.baselines.cache_ext import config_with_cache_ext, extended_l1_bytes
from repro.baselines.cerf import CERFExtension
from repro.baselines.pcal import PCALExtension
from repro.baselines.swl import best_swl_reduce, sweep_limits
from repro.config import scaled_config
from repro.core.load_monitor import MonitorState
from repro.gpu.gpu import run_kernel
from repro.options import RunOptions
from repro.runner.registry import resolve
from repro.workloads.generator import LoadSpec, Pattern, Scope
from repro.workloads.spec import build_workload

sys.path.insert(0, str(Path(__file__).parent))
from workload_helpers import make_app  # noqa: E402

#: Every comparison architecture runs through its registry row.
run_pcal = resolve("pcal").runner
run_cerf = resolve("cerf").runner
run_cache_ext = resolve("cache_ext").runner
run_baseline = resolve("baseline").runner
best_swl = resolve("best_swl").runner


def config():
    return scaled_config(num_sms=1, window_cycles=400)


def kernel(ws=256, ctas=8, warps=4, iters=80):
    return build_workload(make_app(
        (
            LoadSpec(0x100, Pattern.DIVERGENT, ws, Scope.GLOBAL, lines_per_access=1),
            LoadSpec(0x204, Pattern.STREAM, 0),
        ),
        iters=iters, warps=warps, ctas=ctas, regs=16, name="k",
    ))


class TestSWL:
    def test_sweep_limits_sorted_and_bounded(self):
        limits = sweep_limits(16)
        assert limits == sorted(limits)
        assert limits[0] == 1 and limits[-1] == 16

    def test_static_limit_leg_runs(self):
        cfg = config()
        result = run_baseline(cfg, kernel(), max_concurrent_ctas=2)
        assert result.instructions > 0

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            run_kernel(config(), kernel(), options=RunOptions(max_concurrent_ctas=0))
        with pytest.raises(TypeError, match="integer >= 1"):
            run_baseline(config(), kernel(), max_concurrent_ctas=0)

    def test_reduce_keeps_the_lowest_limit_of_the_best_ipc(self):
        def result(instructions):
            return SimpleNamespace(ipc=instructions / 100)

        legs = {8: result(50), 2: result(70), 4: result(70), 1: result(10)}
        outcome = best_swl_reduce(legs)
        assert (outcome.best_limit, outcome.best_result) == (2, legs[2])
        assert list(outcome.sweep_ipc) == [1, 2, 4, 8]

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
