"""Tests for the ``repro.api`` Session facade (local transport) and the
consolidated :class:`~repro.options.RunOptions`.

The remote transport (``Session.connect``) is exercised end-to-end in
``tests/test_service.py`` against a live coordinator; everything here
runs in-process, pinning the facade's contract: spec identity is
preserved exactly (options or legacy kwargs, facade or engine — same
content hash, same cache entries), and handles behave the same way
they do over HTTP.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from repro.api import JobHandle, Session, run_many_results  # noqa: E402
from repro.config import scaled_config  # noqa: E402
from repro.gpu import run_kernel  # noqa: E402
from repro.options import RUN_OPTION_FIELDS, RunOptions  # noqa: E402
from repro.runner import JobSpec  # noqa: E402
from repro.workloads import kernel_for  # noqa: E402

CFG = scaled_config(num_sms=1, window_cycles=600)
TINY = 0.05


@pytest.fixture(scope="module")
def session():
    with Session.local(workers=1, config=CFG, scale=TINY) as s:
        yield s


class TestRunOptions:
    def test_defaults_serialize_to_nothing(self):
        assert RunOptions().to_overrides() == {}

    def test_only_non_defaults_serialize(self):
        opts = RunOptions(timeseries=True, max_concurrent_ctas=4)
        assert opts.to_overrides() == {
            "timeseries": True,
            "max_concurrent_ctas": 4,
        }

    def test_from_overrides_splits_leftovers(self):
        opts, rest = RunOptions.from_overrides(
            {"track_loads": True, "lb_config": None}
        )
        assert opts.track_loads is True
        assert rest == {"lb_config": None}

    def test_replace_is_functional(self):
        base = RunOptions()
        assert base.replace(timeseries=True).timeseries is True
        assert base.timeseries is False

    def test_field_registry_matches_dataclass(self):
        assert set(RUN_OPTION_FIELDS) == {
            "track_loads",
            "keep_objects",
            "timeseries",
            "max_concurrent_ctas",
            "backend",
        }

    def test_spec_key_identical_for_options_and_legacy_kwargs(self):
        legacy = JobSpec.build(
            app="S2", arch="baseline", config=CFG, scale=TINY,
            overrides={"track_loads": True},
        )
        typed = JobSpec.build(
            app="S2", arch="baseline", config=CFG, scale=TINY,
            options=RunOptions(track_loads=True),
        )
        assert legacy.key == typed.key

    def test_spec_options_property_reads_back(self):
        spec = JobSpec.build(
            app="S2", arch="linebacker", config=CFG, scale=TINY,
            options=RunOptions(timeseries=True),
        )
        assert spec.options == RunOptions(timeseries=True)

    def test_run_kernel_accepts_options_object(self):
        kernel = kernel_for("S2", TINY)
        tracked = run_kernel(CFG, kernel, options=RunOptions(track_loads=True))
        assert tracked.instructions == run_kernel(CFG, kernel).instructions
        assert tracked.sms[0].load_tracker is not None

    def test_run_kernel_has_one_option_spelling(self):
        with pytest.raises(TypeError):
            run_kernel(CFG, kernel_for("S2", TINY), track_loads=True)


class TestSessionLocal:
    def test_run_returns_handle_with_result(self, session):
        handle = session.run("S2", "baseline")
        assert isinstance(handle, JobHandle)
        assert handle.status() == "done"
        assert handle.result().instructions > 0

    def test_results_are_memo_shared(self, session):
        first = session.run("S2", "baseline").result()
        second = session.run("S2", "baseline").result()
        assert first is second

    def test_run_many_accepts_tuples_and_specs(self, session):
        spec = session.spec("LI", "baseline")
        handles = session.run_many(
            [("S2", "baseline"), ("S2", "linebacker"), spec]
        )
        assert [h.job_id for h in handles] == [
            session.spec("S2", "baseline").key,
            session.spec("S2", "linebacker").key,
            spec.key,
        ]
        results = [h.result() for h in handles]
        assert all(r.instructions > 0 for r in results)

    def test_run_many_results_helper_orders_like_input(self, session):
        results = run_many_results(
            session, [("S2", "baseline"), ("LI", "baseline")]
        )
        assert len(results) == 2
        assert results[0] is session.run("S2", "baseline").result()

    def test_trace_forces_timeseries_and_streams(self, session):
        handle = session.trace("S2", "linebacker")
        assert handle.spec.options.timeseries is True
        rows = list(handle.stream_timeseries())
        assert rows and all("ipc" in row for row in rows)

    def test_trace_rejects_unsupported_arch(self, session):
        with pytest.raises(ValueError, match="timeseries"):
            session.trace("S2", "best_swl")

    def test_stream_on_plain_run_is_an_error(self, session):
        handle = session.run("S2", "baseline")
        with pytest.raises(ValueError, match="timeseries"):
            list(handle.stream_timeseries())

    def test_spec_uses_session_defaults(self, session):
        spec = session.spec("S2", "baseline")
        assert spec.scale == TINY
        assert spec.config is CFG or spec.config == CFG

    def test_facade_spec_matches_engine_spec(self, session):
        direct = JobSpec.build(
            app="KM", arch="linebacker", config=CFG, scale=TINY
        )
        assert session.spec("KM", "linebacker").key == direct.key

    def test_stats_exposes_runner_counters(self, session):
        session.run("S2", "baseline").result()
        assert session.stats.simulated + session.stats.memo_hits >= 1

    def test_constructor_demands_exactly_one_transport(self):
        with pytest.raises(ValueError, match="exactly one"):
            Session()

    def test_close_is_idempotent(self):
        s = Session.local(workers=1, config=CFG, scale=TINY)
        s.close()
        s.close()
