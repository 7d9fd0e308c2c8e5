"""Tests for the SM extension interface and the PCAL bypass throttler."""

import sys
from pathlib import Path

from repro.core.linebacker import BypassThrottler
from repro.gpu.extension import SMExtension
from repro.gpu.isa import alu, exit_inst

sys.path.insert(0, str(Path(__file__).parent))
from reference_engine import Warp  # noqa: E402


def make_warp(launch_order):
    return Warp(
        warp_id=launch_order,
        cta_slot=0,
        launch_order=launch_order,
        trace=iter([alu(), exit_inst()]),
    )


class TestDefaultExtension:
    def test_all_hooks_are_noops(self):
        ext = SMExtension()
        assert ext.should_bypass(make_warp(0), 1, 0) is False
        assert ext.lookup_victim(1, 0, 0) is None
        assert ext.allocate_fill(1) is True
        assert ext.try_reactivate_cta(0) is False
        # The remaining hooks must simply not raise.
        ext.on_tick(0)
        ext.on_store(1, 0)
        ext.on_load_outcome(0, 0, 1, True, 0)
        ext.on_cta_launched(0, 0)
        ext.on_cta_finished(0, 0)
        ext.finalize(0)


class TestBypassThrottler:
    def test_no_bypass_during_warmup(self):
        bt = BypassThrottler()
        assert not bt.should_bypass(make_warp(50))

    def test_tokens_assigned_after_warmup(self):
        bt = BypassThrottler()
        bt.on_window(1000, 1000, resident_warps=32)
        bt.on_window(1000, 1000, resident_warps=32)
        assert bt.tokens == 30
        assert bt.should_bypass(make_warp(31))
        assert not bt.should_bypass(make_warp(0))

    def test_tokens_shrink_when_bypassing_helps(self):
        bt = BypassThrottler()
        bt.on_window(1000, 1000, 32)
        bt.on_window(1000, 1000, 32)
        before = bt.tokens
        bt.on_window(1300, 1000, 32)  # IPC jumped +30%
        assert bt.tokens < before

    def test_tokens_never_below_one(self):
        bt = BypassThrottler()
        bt.on_window(100, 1000, 4)
        bt.on_window(100, 1000, 4)
        for growth in range(2, 12):
            bt.on_window(100 * growth, 1000, 4)
        assert bt.tokens >= 1

    def test_tokens_capped_at_resident_warps(self):
        bt = BypassThrottler()
        bt.on_window(1000, 1000, 8)
        bt.on_window(1000, 1000, 8)
        for shrink in range(10):
            bt.on_window(max(1, 1000 - 300 * shrink), 1000, 8)
        assert bt.tokens <= 8
