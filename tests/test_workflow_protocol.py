"""Protocol-level integration tests following the paper's Figure 6
workflow: monitoring -> selection -> proactive throttle -> backup ->
victim caching -> reactivation on CTA completion."""

import pytest

from repro.config import scaled_config
from repro.core.cta_throttle import SearchPhase
from repro.core.linebacker import LinebackerExtension
from repro.gpu.gpu import run_kernel
from repro.options import RunOptions
from repro.workloads.generator import AppSpec, LoadSpec, Pattern, Scope, build_kernel


class RecordingLinebacker(LinebackerExtension):
    """Logs state transitions for protocol assertions."""

    instances: list["RecordingLinebacker"] = []

    def __init__(self):
        super().__init__(scaled_config(window_cycles=400).linebacker)
        self.events: list[tuple] = []
        RecordingLinebacker.instances.append(self)

    def _enter_victim_mode(self):
        self.events.append(("selected", tuple(sorted(self.load_monitor.selected_hpcs))))
        super()._enter_victim_mode()

    def _throttle_one(self, cycle):
        before = self.stats.throttle_events
        super()._throttle_one(cycle)
        if self.stats.throttle_events > before:
            self.events.append(("throttle", cycle))

    def _reactivate_one(self, cycle):
        super()._reactivate_one(cycle)

    def try_reactivate_cta(self, cycle):
        result = super().try_reactivate_cta(cycle)
        if result:
            self.events.append(("completion_reactivate", cycle))
        return result


@pytest.fixture(scope="module")
def run():
    RecordingLinebacker.instances.clear()
    spec = AppSpec(
        name="proto", description="t", cache_sensitive=True,
        num_ctas=24, warps_per_cta=4, regs_per_thread=16,
        iterations=220, alu_per_iteration=2,
        loads=(
            LoadSpec(0x100, Pattern.DIVERGENT, 1024, Scope.GLOBAL, lines_per_access=1),
            LoadSpec(0x204, Pattern.STREAM, 0),
        ),
    )
    cfg = scaled_config(num_sms=1, window_cycles=400)
    result = run_kernel(
        cfg, build_kernel(spec), extension_factory=RecordingLinebacker,
        options=RunOptions(keep_objects=True),
    )
    return result, result.extensions[0]


class TestFigure6Workflow:
    def test_selection_happens_before_any_throttle(self, run):
        _, ext = run
        kinds = [e[0] for e in ext.events]
        if "throttle" in kinds:
            assert kinds.index("selected") < kinds.index("throttle")

    def test_stream_load_not_selected(self, run):
        _, ext = run
        from repro.gpu.isa import hashed_pc

        assert not ext.load_monitor.is_selected(hashed_pc(0x204))

    def test_locality_load_selected(self, run):
        _, ext = run
        from repro.gpu.isa import hashed_pc

        assert ext.load_monitor.is_selected(hashed_pc(0x100))

    def test_proactive_throttle_after_selection(self, run):
        """The paper throttles one CTA immediately when monitoring ends."""
        _, ext = run
        assert ext.stats.throttle_events >= 1

    def test_backup_precedes_victim_partition_growth(self, run):
        result, ext = run
        # Backup traffic exists for every throttle event.
        assert result.traffic.backup_write_lines > 0

    def test_no_cta_left_inactive_at_drain(self, run):
        result, ext = run
        for sm in result.sms:
            assert not sm.ctas  # everything retired

    def test_controller_reached_a_stable_phase(self, run):
        _, ext = run
        assert ext.controller.phase in (
            SearchPhase.SEARCHING, SearchPhase.RECOVERING, SearchPhase.SETTLED
        )

    def test_all_backups_resolved(self, run):
        _, ext = run
        # Records remain only for CTAs that finished while throttled
        # (impossible: throttled CTAs don't run) — so none remain.
        assert not ext._restoring
        assert ext.engine.outstanding_backups == len(ext._backup_records)
