"""The worker fleet (`repro.runner.fleet`), at three levels.

* **The core, driven by hand** — ``WorkerFleet.step()`` against
  ``tests/stub_worker.py`` processes that speak the wire protocol and
  simulate nothing: the policy (hello-gated dispatch, backoff, deadlines,
  launch budget, reaping) without a simulator in the loop.
* **One fault matrix, two drivers** — every one-shot fault of
  ``tests/fault_injection.py`` through ``RemoteExecutor`` (the
  synchronous driver) and through ``Coordinator`` (the threaded one):
  the same fleet must heal the same way under both.
* **Permanent launch failures on both drivers** — a command that never
  greets must cost a bounded number of processes and still settle the
  job with the inline answer.
"""

import contextlib
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from fault_injection import FAULT_MODES, flaky_worker_command  # noqa: E402
from golden import fingerprint_value  # noqa: E402
from repro.config import scaled_config  # noqa: E402
from repro.runner import (  # noqa: E402
    ExperimentRunner,
    JobSpec,
    RemoteExecutor,
    WorkerFleet,
)
from repro.runner.wire import _unpack  # noqa: E402
from repro.service import Coordinator  # noqa: E402

STUB = Path(__file__).with_name("stub_worker.py")
SPEC = JobSpec.build(
    app="S2", arch="baseline",
    config=scaled_config(num_sms=1, window_cycles=600), scale=0.05,
)


def stub_command(mode, path=""):
    return f"{{python}} -u {STUB} {mode} {path}".rstrip()


def key(n):
    return f"{n:064x}"


def step_until(fleet, done, seconds=20.0, timeout=0.05):
    """Drive ``fleet`` until ``done(outcomes so far)``; returns them."""
    outcomes = []
    deadline = time.monotonic() + seconds
    while not done(outcomes):
        assert time.monotonic() < deadline, f"fleet stalled: {fleet.stats()}"
        outcomes += fleet.step(timeout)
    return outcomes


def all_greeted(fleet):
    stats = fleet.stats()
    return stats["alive"] == stats["size"] and all(w["greeted"] for w in stats["workers"])


def process_state(pid):
    """The one-letter state from ``/proc``, ``None`` once the pid is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@pytest.fixture
def fleets():
    """Build fleets that are shut down whatever the test does."""
    made = []

    def make(mode="echo", path="", hosts=("a",), command=None, **kwargs):
        fleet = WorkerFleet(list(hosts), command or stub_command(mode, path), **kwargs)
        made.append(fleet)
        return fleet

    yield make
    for fleet in made:
        fleet.shutdown(grace=0.2)


# ---------------------------------------------------------------------------
# The core, driven by hand
# ---------------------------------------------------------------------------
class TestFleetCore:
    def test_job_round_trip_and_counters(self, fleets):
        fleet = fleets()
        fleet.submit(key(1), SPEC)
        (outcome,) = step_until(fleet, lambda seen: seen)
        assert outcome.ok and outcome.payload == {"echo": key(1)}
        stats = fleet.stats()
        assert (stats["dispatched"], stats["completed"], stats["backlog"]) == (1, 1, 0)
        assert stats["workers"][0]["jobs_done"] == 1

    def test_nothing_is_sent_before_hello(self, fleets, tmp_path):
        go = tmp_path / "go"
        fleet = fleets("late-hello", go)
        fleet.submit(key(1), SPEC)
        for _ in range(10):
            assert fleet.step(0.02) == []
        stats = fleet.stats()
        assert stats["alive"] == 1 and not stats["workers"][0]["greeted"]
        assert (stats["dispatched"], stats["backlog"]) == (0, 1)
        go.touch()
        (outcome,) = step_until(fleet, lambda seen: seen)
        assert outcome.ok and fleet.stats()["dispatched"] == 1

    def test_backoff_is_honoured_without_an_intervening_event(self, fleets, tmp_path):
        # The requeued job is the only thing left to do and nothing else
        # will happen: step() must wake itself when the backoff runs out,
        # not when an (here: 30 s) idle tick does.
        fleet = fleets("die-once", tmp_path / "marker", backoff=0.8)
        fleet.submit(key(1), SPEC)
        while fleet.stats()["requeued"] == 0:
            before_requeue = time.monotonic()
            assert fleet.step(30.0) == []
        step_until(fleet, lambda _: all_greeted(fleet), timeout=30.0)
        assert fleet.stats()["dispatched"] == 1  # the respawn is idle, the job waits
        (outcome,) = step_until(fleet, lambda seen: seen, timeout=30.0)
        waited = time.monotonic() - before_requeue
        assert outcome.ok and 0.8 <= waited < 10.0
        stats = fleet.stats()
        assert (stats["retried"], stats["worker_deaths"]) == (1, 1)

    def test_deadline_recycles_a_wedged_worker(self, fleets):
        fleet = fleets("hang", job_timeout=1.5, max_attempts=1)
        fleet.submit(key(1), SPEC)
        started = time.monotonic()
        (outcome,) = step_until(fleet, lambda seen: seen, timeout=30.0)
        assert outcome.give_up and "exceeded timeout" in outcome.error
        assert time.monotonic() - started < 10.0
        stats = fleet.stats()
        assert (stats["worker_deaths"], stats["give_ups"]) == (1, 1)

    def test_hello_must_arrive_within_job_timeout(self, fleets, tmp_path):
        fleet = fleets("late-hello", tmp_path / "never", job_timeout=0.3, max_attempts=2)
        fleet.submit(key(1), SPEC)
        (outcome,) = step_until(fleet, lambda seen: seen, timeout=30.0)
        assert outcome.give_up and "no hello within 0.3s" in outcome.error
        assert fleet.exhausted and fleet.stats()["worker_deaths"] == 2

    def test_result_for_an_unexpected_key_is_a_fault(self, fleets):
        fleet = fleets("wrong-key", max_attempts=2, backoff=0.01)
        fleet.submit(key(1), SPEC)
        (outcome,) = step_until(fleet, lambda seen: seen)
        assert outcome.key == key(1) and outcome.give_up
        assert "unexpected key" in outcome.error
        assert fleet.stats()["worker_deaths"] == 2

    def test_submit_from_another_thread_wakes_a_blocked_step(self, fleets):
        fleet = fleets()
        step_until(fleet, lambda _: all_greeted(fleet))
        threading.Timer(0.2, fleet.submit, args=(key(1), SPEC)).start()
        started = time.monotonic()
        (outcome,) = step_until(fleet, lambda seen: seen, timeout=30.0)
        assert outcome.ok and time.monotonic() - started < 10.0

    def test_exhausted_fleet_gives_up_queued_and_later_jobs_at_once(self, fleets):
        fleet = fleets(
            hosts=("a", "b"), max_attempts=2, command='{python} -c "raise SystemExit(3)"'
        )
        fleet.submit(key(1), SPEC)
        (first,) = step_until(fleet, lambda seen: seen)
        assert first.give_up and "exited before hello" in first.error
        assert fleet.exhausted
        stats = fleet.stats()
        assert stats["alive"] == 0 and stats["worker_deaths"] == 4  # hosts x attempts
        assert stats["last_error"] == "worker exited before hello"
        fleet.submit(key(2), SPEC)
        (later,) = fleet.step(0.0)
        assert later.key == key(2) and later.give_up
        assert fleet.stats()["worker_deaths"] == 4  # and nothing more was launched

    def test_a_hello_resets_the_launch_budget(self, fleets):
        # A worker that greets and then dies on every job is bounded by
        # the per-job attempts, never by the launch budget.
        fleet = fleets("die", max_attempts=2, backoff=0.01)
        for n in range(3):
            fleet.submit(key(n), SPEC)
            (outcome,) = step_until(fleet, lambda seen: seen)
            assert outcome.give_up and "gave up after 2 attempts" in outcome.error
        stats = fleet.stats()
        assert (stats["worker_deaths"], stats["give_ups"]) == (6, 3)
        assert not fleet.exhausted and stats["last_error"] == ""

    def test_killed_workers_are_reaped_and_forgotten(self, fleets):
        fleet = fleets(hosts=("a", "b"))
        seen = []
        for _ in range(3):
            step_until(fleet, lambda _: all_greeted(fleet))
            pids = fleet.worker_pids()
            seen += pids
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            step_until(fleet, lambda _: not set(pids) & set(fleet.worker_pids()))
        step_until(fleet, lambda _: all_greeted(fleet))
        assert [process_state(pid) for pid in seen] == [None] * 6  # no zombie
        stats = fleet.stats()
        assert len(stats["workers"]) == 2 and len(fleet.worker_pids()) == 2
        assert stats["worker_deaths"] == 6

    def test_shutdown_leaves_no_live_child(self, fleets):
        fleet = fleets("hang", hosts=("a", "b"))
        fleet.submit(key(1), SPEC)
        step_until(fleet, lambda _: fleet.stats()["dispatched"] == 1)
        pids = fleet.worker_pids()
        assert len(pids) == 2
        fleet.shutdown(grace=0.2)
        assert [process_state(pid) for pid in pids] == [None, None]
        assert fleet.closed and fleet.worker_pids() == []
        assert fleet.step(0.0) == []  # and a late step launches nothing
        assert fleet.worker_pids() == []

    def test_concurrent_submitters_lose_no_job(self, fleets):
        fleet = fleets(hosts=("a", "b", "c"))
        submitters = [
            threading.Thread(
                target=lambda base=base: [fleet.submit(key(base + n), SPEC) for n in range(40)]
            )
            for base in (0, 100, 200, 300)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in submitters:
                thread.start()
            outcomes = step_until(fleet, lambda seen: len(seen) >= 160, seconds=60.0)
        finally:
            sys.setswitchinterval(interval)
            for thread in submitters:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in submitters)
        assert sorted(o.key for o in outcomes) == sorted(
            key(base + n) for base in (0, 100, 200, 300) for n in range(40)
        )
        stats = fleet.stats()
        assert (stats["dispatched"], stats["completed"], stats["backlog"]) == (160, 160, 0)


# ---------------------------------------------------------------------------
# Two drivers over the same fleet
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def inline_fingerprint():
    result = ExperimentRunner(workers=1, use_cache=False, executor="inline").run(SPEC)
    return fingerprint_value("baseline", result)


def run_remote(tmp_path, **fleet_kwargs):
    """SPEC through the synchronous driver → (result, fleet, degraded?)."""
    runner = ExperimentRunner(use_cache=False)
    runner.executor = RemoteExecutor(hosts=["a"], stats=runner.stats, **fleet_kwargs)
    result = runner.run(SPEC)
    mirrored = {n: getattr(runner.stats, n) for n in ("retried", "requeued", "worker_deaths")}
    stats = runner.executor.fleet.stats()
    assert mirrored == {n: stats[n] for n in mirrored}
    return result, runner.executor.fleet, runner.stats.pool_fallbacks == 1


def run_service(tmp_path, command=None, **fleet_kwargs):
    """SPEC through the threaded driver → (result, fleet, degraded?)."""
    coordinator = Coordinator(
        workers=1, cache_dir=str(tmp_path / "cache"), worker_command=command, **fleet_kwargs
    )
    coordinator.start()
    try:
        job, _, _ = coordinator.submit(SPEC)
        assert coordinator.wait(job.id, timeout=60).status == "done"
        result = _unpack(coordinator.result_box(job))
        return result, coordinator.fleet, job.source == "degraded"
    finally:
        coordinator.shutdown()


DRIVERS = {"remote": run_remote, "service": run_service}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
class TestFaultMatrix:
    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_one_shot_fault_heals(self, driver, mode, tmp_path, inline_fingerprint):
        marker = tmp_path / "marker"
        result, fleet, degraded = DRIVERS[driver](
            tmp_path,
            command=flaky_worker_command(mode, marker),
            job_timeout=2.0 if mode == "hang" else None,
            backoff=0.01,
        )
        assert fingerprint_value("baseline", result) == inline_fingerprint
        assert marker.exists() and not degraded
        stats = fleet.stats()
        assert stats["worker_deaths"] == 1 and stats["give_ups"] == 0
        if mode in ("banner", "exit", "proto"):
            # The fault came before hello, so no job was ever sent to it.
            assert (stats["requeued"], stats["retried"]) == (0, 0)
            cause = {"banner": "garbage instead of hello", "exit": "exited before hello",
                     "proto": "wire protocol 999"}[mode]
            assert cause in stats["last_error"]
        else:
            assert (stats["requeued"], stats["retried"]) == (1, 1)
            assert stats["last_error"] == ""

    @pytest.mark.parametrize("fault", ["exit", "proto"])
    def test_worker_that_never_greets_costs_a_bounded_launch_count(
        self, driver, fault, tmp_path, inline_fingerprint
    ):
        # At the parent commit the service forked ~80 workers a second
        # here, for ever, and the job stayed "running".
        launches = tmp_path / "launches"
        shim = tmp_path / "shim.py"
        hello = "{'v': 999, 'type': 'hello', 'proto': 999, 'pid': 1}"
        shim.write_text(
            f"open({str(launches)!r}, 'a').write('x\\n')\n"
            + ("raise SystemExit(1)\n" if fault == "exit" else
               f"import json, sys\nprint(json.dumps({hello}), flush=True)\nsys.stdin.readline()\n")
        )
        # The batch engine says so once; the service just degrades.
        warns = pytest.warns(RuntimeWarning, match="no worker could be started")
        with warns if driver == "remote" else contextlib.nullcontext():
            result, fleet, degraded = DRIVERS[driver](
                tmp_path, command=f"{{python}} -u {shim}", max_attempts=2
            )
        assert fingerprint_value("baseline", result) == inline_fingerprint
        assert degraded and fleet.exhausted
        assert len(launches.read_text().split()) == 2  # len(hosts) x max_attempts
        stats = fleet.stats()
        assert stats["alive"] == 0 and stats["worker_deaths"] == 2
        assert {"exit": "exited before hello", "proto": "wire protocol 999"}[fault] in (
            stats["last_error"]
        )


def test_exhausted_service_keeps_answering_from_the_degrade_tier(tmp_path):
    coordinator = Coordinator(
        workers=1, cache_dir=str(tmp_path / "cache"),
        worker_command="/nonexistent/worker-binary",
    )
    coordinator.start()
    try:
        assert coordinator.fleet.exhausted  # found out at start, before any job
        assert "cannot launch a worker" in coordinator.fleet.stats()["last_error"]
        for app in ("S2", "LI"):
            spec = JobSpec.build(app=app, arch="baseline", config=SPEC.config, scale=0.05)
            job, _, _ = coordinator.submit(spec)
            assert coordinator.wait(job.id, timeout=60).status == "done"
            assert job.source == "degraded"
        assert coordinator.stats()["degraded"] == 2
        assert coordinator.fleet.stats()["give_ups"] == 2
    finally:
        coordinator.shutdown()
