"""Unit tests for the reference engine's warps and GTO scheduler."""

import sys
from pathlib import Path

import pytest

from repro.gpu.isa import alu, exit_inst

sys.path.insert(0, str(Path(__file__).parent))
from reference_engine import GTOScheduler, Warp, WarpState  # noqa: E402


def make_warp(insts=None, launch_order=0, max_outstanding=4):
    insts = insts if insts is not None else [alu(), exit_inst()]
    return Warp(
        warp_id=launch_order,
        cta_slot=0,
        launch_order=launch_order,
        trace=iter(insts),
        max_outstanding=max_outstanding,
    )


class TestWarpLifecycle:
    def test_starts_ready_with_instruction(self):
        w = make_warp()
        assert w.state is WarpState.READY
        assert w.peek().op.value == "alu"

    def test_empty_trace_finishes_immediately(self):
        w = make_warp(insts=[])
        assert w.finished

    def test_retire_advances(self):
        w = make_warp([alu(), exit_inst()])
        w.retire_current()
        assert w.peek().op.value == "exit"
        assert w.instructions_retired == 1

    def test_retire_past_end_raises(self):
        w = make_warp([])
        with pytest.raises(RuntimeError):
            w.retire_current()


class TestMemoryBlocking:
    def test_blocks_only_beyond_outstanding_limit(self):
        """Scoreboarding: a warp keeps issuing until it has
        max_outstanding lines in flight."""
        w = make_warp(max_outstanding=2)
        w.block_on_memory(1)
        assert w.state is WarpState.READY
        w.block_on_memory(1)
        assert w.state is WarpState.BLOCKED

    def test_unblocks_when_below_limit(self):
        w = make_warp(max_outstanding=2)
        w.block_on_memory(2)
        w.memory_response(cycle=50)
        assert w.state is WarpState.READY
        assert w.ready_cycle == 50

    def test_response_without_pending_raises(self):
        w = make_warp()
        with pytest.raises(RuntimeError):
            w.memory_response(0)

    def test_throttled_warp_wakes_inactive(self):
        """A CTA throttled mid-flight must not re-enter scheduling when
        its memory responses arrive."""
        w = make_warp(max_outstanding=1)
        w.block_on_memory(1)
        w.deactivate()
        w.memory_response(cycle=10)
        assert w.state is WarpState.INACTIVE

    def test_reactivation_restores_ready(self):
        w = make_warp()
        w.deactivate()
        assert w.state is WarpState.INACTIVE
        w.reactivate(cycle=99)
        assert w.state is WarpState.READY
        assert w.ready_cycle >= 99

    def test_deactivate_finished_warp_is_noop(self):
        w = make_warp([])
        w.deactivate()
        assert w.finished


class TestGTOScheduler:
    def test_greedy_sticks_with_same_warp(self):
        sched = GTOScheduler(0)
        a, b = make_warp(launch_order=0), make_warp(launch_order=1)
        sched.add_warp(a)
        sched.add_warp(b)
        first = sched.pick(0)
        assert sched.pick(0) is first

    def test_falls_back_to_oldest_when_greedy_stalls(self):
        sched = GTOScheduler(0)
        a = make_warp([alu(), alu(), exit_inst()], launch_order=0)
        b = make_warp([alu(), exit_inst()], launch_order=1)
        c = make_warp([alu(), exit_inst()], launch_order=2)
        for w in (a, b, c):
            sched.add_warp(w)
        assert sched.pick(0) is a
        a.ready_cycle = 100  # a stalls
        assert sched.pick(1) is b  # oldest ready, not c

    def test_none_when_all_stalled(self):
        sched = GTOScheduler(0)
        w = make_warp()
        w.ready_cycle = 50
        sched.add_warp(w)
        assert sched.pick(0) is None

    def test_inactive_warps_skipped(self):
        sched = GTOScheduler(0)
        w = make_warp()
        w.deactivate()
        sched.add_warp(w)
        assert sched.pick(0) is None

    def test_next_ready_cycle_immediate(self):
        sched = GTOScheduler(0)
        sched.add_warp(make_warp())
        assert sched.next_ready_cycle(5) == 6

    def test_next_ready_cycle_future(self):
        sched = GTOScheduler(0)
        w = make_warp()
        w.ready_cycle = 42
        sched.add_warp(w)
        assert sched.next_ready_cycle(5) == 42

    def test_next_ready_cycle_none_when_blocked(self):
        sched = GTOScheduler(0)
        w = make_warp(max_outstanding=1)
        w.block_on_memory(1)
        sched.add_warp(w)
        assert sched.next_ready_cycle(5) is None

    def test_remove_finished_drops_warps(self):
        sched = GTOScheduler(0)
        done = make_warp([])
        live = make_warp(launch_order=1)
        sched.add_warp(done)
        sched.add_warp(live)
        sched.remove_finished()
        assert sched.warps == [live]
