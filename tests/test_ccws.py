"""Tests for the CCWS baseline (lost-locality warp throttling)."""

import sys
from pathlib import Path

from repro.baselines.ccws import LOST_LOCALITY_SCORE
from repro.config import scaled_config
from repro.gpu.gpu import run_kernel
from repro.runner.registry import resolve
from repro.workloads.generator import LoadSpec, Pattern, Scope
from repro.workloads.spec import build_workload

sys.path.insert(0, str(Path(__file__).parent))
from workload_helpers import make_app  # noqa: E402


#: CCWS is a registry row like every other architecture.
run_ccws = resolve("ccws").runner


def config():
    return scaled_config(num_sms=1, window_cycles=400)


def thrashing_kernel(ws=1024, ctas=8, warps=8, iters=100):
    return build_workload(make_app(
        LoadSpec(0x100, Pattern.DIVERGENT, ws, Scope.GLOBAL, lines_per_access=1),
        iters=iters, warps=warps, ctas=ctas, regs=16, name="thrash",
    ))


class TestLostLocalityDetection:
    def test_own_reference_scores(self):
        cfg = config()
        result = run_ccws(cfg, thrashing_kernel(), keep_objects=True)
        ext = result.extensions[0]
        assert ext.lost_locality_events > 0

    def test_scores_decay(self):
        cfg = config()
        result = run_ccws(cfg, thrashing_kernel(iters=40), keep_objects=True)
        ext = result.extensions[0]
        # By the drain, decay has collapsed most scores.
        assert sum(ext.scores.values()) < ext.lost_locality_events * LOST_LOCALITY_SCORE


class TestThrottling:
    def test_blocks_warps_under_thrash(self):
        cfg = config()
        result = run_ccws(cfg, thrashing_kernel(), keep_objects=True)
        ext = result.extensions[0]
        assert ext.max_blocked > 0

    def test_all_work_completes(self):
        cfg = config()
        kernel = thrashing_kernel()
        base = run_kernel(cfg, kernel)
        ccws = run_ccws(cfg, kernel)
        assert ccws.instructions == base.instructions

    def test_no_warps_left_blocked_at_end(self):
        cfg = config()
        result = run_ccws(cfg, thrashing_kernel(), keep_objects=True)
        ext = result.extensions[0]
        assert not ext._blocked

    def test_cache_friendly_kernel_barely_throttled(self):
        cfg = config()
        result = run_ccws(cfg, thrashing_kernel(ws=64), keep_objects=True)
        ext = result.extensions[0]
        # Working set fits the L1: few lost-locality events, little
        # blocking pressure.
        assert ext.max_blocked <= 8


class TestPaperClaim:
    def test_best_swl_at_least_matches_ccws(self):
        """Paper Section 2.4: the Best-SWL oracle outperforms dynamic
        schemes like CCWS (it is the stronger baseline by design)."""
        from repro.runner.registry import resolve

        cfg = config()
        kernel = thrashing_kernel(iters=60)
        oracle = resolve("best_swl").runner(cfg, kernel)
        ccws = run_ccws(cfg, thrashing_kernel(iters=60))
        assert oracle.ipc >= ccws.ipc * 0.9
