"""Unit tests for the reference engine's warps and GTO scheduler, and
the same GTO cases on the machine."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.gpu.extension import EV_CALLBACK, SMExtension
from repro.gpu.gpu import run_kernel
from repro.gpu.isa import alu, exit_inst, load
from repro.gpu.trace import from_instruction_lists
from repro.options import RunOptions

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


# ---------------------------------------------------------------------------
# The same cases on the machine, read off its issue order
# ---------------------------------------------------------------------------
class IssueLog(SMExtension):
    """Which warp issued in which tick. ``on_tick`` runs after event
    delivery and before the scan, so a warp whose instruction pointer
    moved between two calls issued in the tick between them; with one
    scheduler that is at most one warp."""

    def attach(self, sm) -> None:
        super().attach(sm)
        self.ticks: list[int] = []
        self.order: list[int] = []
        self.seen: list[int] = []

    def settle(self) -> None:
        ips = self.sm.w_ip
        self.seen += [0] * (len(ips) - len(self.seen))
        self.order += [w for w, ip in enumerate(ips) if ip != self.seen[w]]
        self.seen = list(ips)

    def on_tick(self, cycle: int) -> None:
        self.settle()
        self.ticks.append(cycle)

    def finalize(self, cycle: int) -> None:
        self.settle()


def issue_log(per_warp, extension=IssueLog, **gpu) -> IssueLog:
    """Run one CTA of ``per_warp`` on a one-SM, one-scheduler machine."""
    config = scaled_config(num_sms=1)
    config = replace(config, gpu=replace(config.gpu, num_schedulers=1, **gpu))
    kernel = from_instruction_lists("gto", [per_warp], regs_per_thread=8)
    return run_kernel(config, kernel, extension, RunOptions(keep_objects=True)).extensions[0]


class TestMachineGTO:
    def test_greedy_keeps_issuing(self):
        # Ready again the next cycle, the greedy warp keeps the slot
        # through its EXIT; round-robin would alternate.
        log = issue_log([[alu()] * 3, [alu()] * 3], alu_latency=1)
        assert log.order == [0] * 4 + [1] * 4

    def test_oldest_ready_wins_when_greedy_stalls(self):
        # While warp 1 waits out its latency warp 0 is ready again, and
        # it wins over the younger warp 2 that has waited all along.
        log = issue_log([[alu()] * 3] * 3, alu_latency=2)
        assert log.order == [0, 1] * 4 + [2] * 4

    def test_nothing_ready_fast_forwards(self):
        # No tick while the only warp waits out an ALU latency...
        log = issue_log([[alu(), alu()]], alu_latency=50)
        assert log.ticks == [1, 51, 101] and log.order == [0, 0, 0]
        # ...or is blocked on memory: its fill is the next tick.
        log = issue_log([[load(0x100, [0]), alu()]], max_outstanding_loads=1)
        assert len(log.ticks) == 3 and log.order == [0, 0, 0]

    def test_inactive_warp_is_skipped(self):
        class ThrottleOldest(IssueLog):
            def on_cta_launched(self, slot: int, cycle: int) -> None:
                oldest = self.sm.ctas[slot].warps[0]
                oldest.deactivate()
                self.sm.schedule_event(10, EV_CALLBACK, oldest.reactivate)

        # Warp 0 is back at cycle 10, but greedy warp 1 keeps the slot.
        log = issue_log([[alu()] * 3, [alu()] * 20], ThrottleOldest, alu_latency=1)
        assert log.order == [1] * 21 + [0] * 4
