"""Tests for the ``repro.api`` Session facade and the consolidated
:class:`~repro.options.RunOptions`.

Most of this runs in-process, pinning the facade's contract: spec
identity is preserved exactly (options or legacy kwargs, facade or
engine — same content hash, same cache entries). ``TestTransportParity``
then runs one set of assertions over every transport — ``Session.local``
on the ``inline``, ``loopback`` and ``remote`` executors and
``Session.connect`` against a live coordinator — so a handle behaves
the same wherever its job ran. The HTTP layer itself is exercised in
``tests/test_service.py``.
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from fault_injection import unsimulatable_registered  # noqa: E402
from golden import fingerprint_value  # noqa: E402
from repro.api import JobHandle, Session, run_many_results  # noqa: E402
from repro.config import scaled_config  # noqa: E402
from repro.gpu import run_kernel  # noqa: E402
from repro.options import RUN_OPTION_FIELDS, RunOptions  # noqa: E402
from repro.runner import JOB_SOURCES, JOB_STATES, JobSpec, RemoteJobError, execute_job  # noqa: E402
from repro.service import serve  # noqa: E402
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
        assert handle.result().instructions > 0
        assert handle.status() == "done"

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
        # A name or scale no job can run is refused here, not in a worker.
        with pytest.raises(ValueError, match="unknown app 'NOPE'.*S2"):
            session.spec("NOPE", "baseline")
        for bad in (float("nan"), float("inf"), 0, -1):
            with pytest.raises(ValueError, match="scale"):
                session.spec("S2", "baseline", scale=bad)

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


# ---------------------------------------------------------------------------
# Transport parity: the same assertions over every transport
# ---------------------------------------------------------------------------
TRANSPORTS = ("inline", "loopback", "remote", "http")


@pytest.fixture(scope="module", autouse=True)
def unsimulatable():
    """Registered before any worker of this module is forked, so that
    every transport's workers know the row."""
    with unsimulatable_registered():
        yield


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live coordinator (one worker) for the ``http`` transport."""
    server = serve(
        host="127.0.0.1", port=0, workers=1,
        cache_dir=str(tmp_path_factory.mktemp("parity-cache")),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    server.coordinator.shutdown()
    thread.join(timeout=10)


@pytest.fixture(params=TRANSPORTS)
def any_session(request):
    if request.param == "http":
        session = Session.connect(request.getfixturevalue("served"), config=CFG, scale=TINY)
    else:
        session = Session.local(
            workers=1, executor=request.param, use_cache=False, config=CFG, scale=TINY
        )
    with session:
        yield session


def source_of(session, handle):
    return session._transport.status(handle.job_id)["source"]


class TestTransportParity:
    def test_handle_verbs_behave_the_same(self, any_session):
        handle = any_session.trace("S2", "linebacker")
        assert handle.job_id == handle.spec.key  # identity is content
        assert handle.status() in JOB_STATES
        result = handle.result(timeout=120)
        assert handle.status() == "done"
        rows = list(handle.stream_timeseries(timeout=120))
        assert rows and all("ipc" in row for row in rows)
        assert rows == list(result.timeseries[0])
        plain = any_session.run("S2", "baseline")
        with pytest.raises(ValueError, match="timeseries"):
            plain.stream_timeseries()

    def test_simulation_error_surfaces_from_result(self, any_session):
        handle = any_session.run("S2", "unsimulatable")
        assert handle.status() in JOB_STATES
        with pytest.raises(RemoteJobError, match="InjectedSimulationError"):
            handle.result(timeout=120)
        assert handle.status() == "failed"

    def test_sources_come_from_the_one_tuple(self, any_session):
        spec = any_session.spec("LI", "baseline")
        first, again = any_session.run_many([spec, spec])
        assert first.result(timeout=120).instructions == again.result(timeout=120).instructions
        assert source_of(any_session, first) in JOB_SOURCES
        if isinstance(any_session.stats, dict):  # the service's /v1/fleet report
            assert any_session.stats["coalesced"] >= 1
        else:
            records = [r for r in any_session.stats.records if r.key == spec.key]
            assert [r.source for r in records] == ["coalesced", "run"]

    def test_result_fingerprints_equal_across_transports(self, any_session):
        spec = any_session.spec("KM", "linebacker")
        served = any_session.submit(spec).result(timeout=120)
        here, _ = execute_job(spec)
        assert fingerprint_value("linebacker", served) == fingerprint_value("linebacker", here)


def test_local_remote_session_serves_successive_runs_from_one_fleet(tmp_path):
    launches = tmp_path / "launches"
    shim = tmp_path / "counting_worker.py"
    shim.write_text(
        f"open({str(launches)!r}, 'a').write('x\\n')\n"
        "import sys\n"
        "from repro.runner.worker import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    with Session.local(
        workers=1, executor="remote", use_cache=False,
        worker_command=f"{{python}} -u {shim}", config=CFG, scale=TINY,
    ) as session:
        first = session.run("S2", "baseline").result(timeout=120)
        second = session.run("LI", "baseline").result(timeout=120)
    assert first.instructions > 0 and second.instructions > 0
    assert launches.read_text().split() == ["x"]  # one boot, two jobs
