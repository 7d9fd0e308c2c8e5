"""Service-layer tests: the HTTP coordinator over a real worker fleet.

Every end-to-end scenario runs against an actual ``ThreadingHTTPServer``
on a loopback socket with genuine ``python -m repro worker``
subprocesses behind it — no mocked transports. The invariants mirror
the distributed suite's: a submission either completes with results
bit-identical to in-process execution (pinned via the golden
fingerprint helpers) or surfaces a *simulation* error; no
infrastructure fault may wedge the service or smuggle in a wrong
payload, and no worker process may outlive its fleet.
"""

import http.client
import json
import socket
import socketserver
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import repro.service.coordinator as coordinator_module  # noqa: E402
from fault_injection import FlakyBackend, flaky_worker_command  # noqa: E402
from golden import fingerprint_value  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.config import scaled_config  # noqa: E402
from repro.options import RunOptions  # noqa: E402
from repro.runner import ExperimentRunner, JobSpec, RemoteJobError  # noqa: E402
from repro.service import (  # noqa: E402
    JOB_SCHEMA_VERSION,
    Coordinator,
    SchemaError,
    ServiceClient,
    ServiceError,
    ServiceHandler,
    decode_jobspec,
    encode_jobspec,
    serve,
)

CFG = scaled_config(num_sms=1, window_cycles=600)
TINY = 0.05


def make_spec(app="S2", arch="baseline", config=CFG, scale=TINY, **overrides):
    return JobSpec.build(
        app=app, arch=arch, config=config, scale=scale, overrides=overrides
    )


def counting_handler():
    """A fresh :class:`ServiceHandler` subclass that counts the TCP
    connections it is given and the ``.../result`` requests it serves."""

    class Counting(ServiceHandler):
        lock = threading.Lock()
        connections = 0
        result_requests = 0

        def setup(self):
            with Counting.lock:
                Counting.connections += 1
            super().setup()

        def do_GET(self):  # noqa: N802
            if self.path.partition("?")[0].endswith("/result"):
                with Counting.lock:
                    Counting.result_requests += 1
            super().do_GET()

    return Counting


def start_service(tmpdir, port=0, handler=None, **coordinator_kwargs):
    """Boot a coordinator + HTTP server on a (free) loopback port."""
    coordinator_kwargs.setdefault("workers", 2)
    coordinator_kwargs.setdefault("cache_dir", str(tmpdir))
    coordinator = Coordinator(**coordinator_kwargs)
    server = serve(host="127.0.0.1", port=port, coordinator=coordinator)
    if handler is not None:
        server.RequestHandlerClass = handler
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    return server, coordinator, url


def stop_service(server, coordinator):
    server.shutdown()
    server.server_close()
    coordinator.shutdown()


def slow_worker_command(tmp_path, delay):
    """A genuine worker that sits on every job line for ``delay`` seconds
    first (and, like any custom command, carries no ``--cache-dir``)."""
    shim = tmp_path / "slow_worker.py"
    shim.write_text(
        "import sys, time\n"
        "from repro.runner.worker import serve\n"
        "def lines():\n"
        "    for line in sys.stdin:\n"
        f"        time.sleep({delay})\n"
        "        yield line\n"
        "raise SystemExit(serve(lines(), sys.stdout))\n"
    )
    return f"{{python}} -u {shim}"


def raw_request(url, method, path, body=None, headers=None, conn=None):
    """One request outside :class:`ServiceClient`; returns
    ``(status, document, connection)``."""
    if conn is None:
        conn = http.client.HTTPConnection(url.split("//")[1], timeout=30)
    conn.request(method, path, body=body, headers=headers or {})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read()), conn


# ---------------------------------------------------------------------------
# JSON job schema
# ---------------------------------------------------------------------------
class TestSchema:
    def test_roundtrip_preserves_content_hash(self):
        spec = make_spec("S2", "linebacker", track_loads=True)
        doc = encode_jobspec(spec)
        assert doc["schema"] == JOB_SCHEMA_VERSION
        assert decode_jobspec(doc).key == spec.key

    def test_roundtrip_is_pure_json(self):
        doc = encode_jobspec(make_spec("LI", "best_swl"))
        again = json.loads(json.dumps(doc))
        assert decode_jobspec(again).key == decode_jobspec(doc).key

    def test_options_travel_through_document(self):
        spec = make_spec("S2", "linebacker", timeseries=True)
        decoded = decode_jobspec(encode_jobspec(spec))
        assert decoded.options == RunOptions(timeseries=True)

    def test_schema_version_mismatch_rejected(self):
        doc = encode_jobspec(make_spec())
        doc["schema"] = JOB_SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="upgrade the older peer"):
            decode_jobspec(doc)

    def test_unknown_field_rejected(self):
        doc = encode_jobspec(make_spec())
        doc["frobnicate"] = 1
        with pytest.raises(SchemaError, match="frobnicate"):
            decode_jobspec(doc)

    def test_unknown_app_and_arch_rejected(self):
        doc = encode_jobspec(make_spec())
        doc["app"] = "NOPE"
        with pytest.raises(SchemaError, match="NOPE"):
            decode_jobspec(doc)
        doc = encode_jobspec(make_spec())
        doc["arch"] = "warp9"
        with pytest.raises(SchemaError, match="warp9"):
            decode_jobspec(doc)

    def test_nested_config_override_roundtrips(self):
        from repro.config import LinebackerConfig

        spec = make_spec(
            "S2", "linebacker", lb_config=LinebackerConfig(vtt_ways=2)
        )
        decoded = decode_jobspec(encode_jobspec(spec))
        assert decoded.key == spec.key
        assert decoded.overrides["lb_config"].vtt_ways == 2


# ---------------------------------------------------------------------------
# End to end over HTTP
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    server, coordinator, url = start_service(
        tmp_path_factory.mktemp("service-cache"), workers=2
    )
    yield {"server": server, "coordinator": coordinator, "url": url}
    stop_service(server, coordinator)


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service["url"])


class TestServiceEndToEnd:
    def test_healthz_reports_versions_and_fleet(self, client):
        doc = client.healthz()
        assert doc["ok"] is True
        assert doc["schema"] == JOB_SCHEMA_VERSION
        assert doc["workers_alive"] >= 1

    def test_submit_poll_result_matches_inline_fingerprint(self, client):
        spec = make_spec("S2", "linebacker")
        doc = client.submit(spec)
        assert doc["job_id"] == spec.key
        served = client.result(doc["job_id"], timeout=120)
        inline = ExperimentRunner(
            workers=1, use_cache=False, executor="inline"
        ).run(spec)
        assert fingerprint_value("linebacker", served) == fingerprint_value(
            "linebacker", inline
        )

    def test_duplicate_submission_coalesces(self, client):
        spec = make_spec("LI", "baseline")
        first = client.submit(spec)
        second = client.submit(spec)
        assert second["job_id"] == first["job_id"]
        assert second["coalesced"] or second["cached"]

    def test_concurrent_clients_share_one_job(self, service):
        spec = make_spec("KM", "baseline")
        docs = [None, None]

        def submit(slot):
            docs[slot] = ServiceClient(service["url"]).submit(spec)

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert docs[0]["job_id"] == docs[1]["job_id"]
        results = [
            ServiceClient(service["url"]).result(d["job_id"], timeout=120)
            for d in docs
        ]
        assert results[0].instructions == results[1].instructions
        stats = service["coordinator"].stats()
        assert stats["coalesced"] >= 1

    def test_status_endpoint_carries_provenance(self, client):
        spec = make_spec("S2", "linebacker")
        doc = client.submit(spec)
        client.result(doc["job_id"], timeout=120)
        status = client.status(doc["job_id"])
        assert status["status"] == "done"
        assert status["source"] in ("fleet", "cache", "degraded")
        assert status["app"] == "S2" and status["arch"] == "linebacker"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("f" * 64)
        assert err.value.status == 404

    def test_malformed_submission_is_400(self, service):
        req = urllib.request.Request(
            service["url"] + "/v1/jobs",
            data=json.dumps({"schema": JOB_SCHEMA_VERSION}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_simulation_error_is_final_and_surfaces(self, client):
        spec = make_spec("S2", "baseline", max_concurrent_ctas=-3)
        doc = client.submit(spec)
        with pytest.raises(RemoteJobError):
            client.result(doc["job_id"], timeout=120)

    def test_fleet_endpoint_counts_work(self, client):
        doc = client.fleet()
        assert doc["fleet"]["size"] == 2
        assert doc["submits"] >= doc["unique_jobs"]
        assert set(doc["jobs"]) == {"queued", "running", "done", "failed"}

    def test_timeseries_endpoint_streams_rows_once(self, client):
        spec = make_spec("S2", "linebacker", timeseries=True)
        doc = client.submit(spec)
        rows = list(client.stream_timeseries(doc["job_id"], timeout=120))
        assert rows
        assert all("ipc" in row for row in rows)
        # The cursor is drained: a fresh stream re-yields, `since` does not.
        tail = client.timeseries(doc["job_id"], since=len(rows))
        assert tail["rows"] == []

    def test_timeseries_on_plain_run_is_409(self, client):
        spec = make_spec("LI", "baseline")
        doc = client.submit(spec)
        client.result(doc["job_id"], timeout=120)
        with pytest.raises(ServiceError) as err:
            client.timeseries(doc["job_id"])
        assert err.value.status == 409

    def test_session_connect_runs_against_service(self, service):
        with Session.connect(service["url"], config=CFG, scale=TINY) as s:
            handle = s.run("S2", "linebacker")
            result = handle.result(timeout=120)
            assert result.instructions > 0
            assert handle.status() == "done"
            assert s.stats["fleet"]["size"] == 2


# ---------------------------------------------------------------------------
# Shared cache as the read-through result store
# ---------------------------------------------------------------------------
class TestSharedCache:
    def test_results_survive_coordinator_restart(self, tmp_path):
        spec = make_spec("S2", "baseline")
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            doc = ServiceClient(url).submit(spec)
            first = ServiceClient(url).result(doc["job_id"], timeout=120)
        finally:
            stop_service(server, coordinator)
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            doc = ServiceClient(url).submit(spec)
            assert doc["cached"] is True
            assert doc["status"] == "done"
            again = ServiceClient(url).result(doc["job_id"], timeout=30)
            assert fingerprint_value("baseline", again) == fingerprint_value(
                "baseline", first
            )
        finally:
            stop_service(server, coordinator)


# ---------------------------------------------------------------------------
# Fault tiers behind the HTTP facade
# ---------------------------------------------------------------------------
class TestFaultTolerance:
    def test_worker_death_mid_job_requeues_to_respawn(self, tmp_path):
        marker = tmp_path / "died-once"
        server, coordinator, url = start_service(
            tmp_path / "cache",
            workers=1,
            worker_command=flaky_worker_command("die", marker),
        )
        try:
            spec = make_spec("S2", "baseline")
            doc = ServiceClient(url).submit(spec)
            result = ServiceClient(url).result(doc["job_id"], timeout=120)
            inline = ExperimentRunner(
                workers=1, use_cache=False, executor="inline"
            ).run(spec)
            assert fingerprint_value("baseline", result) == fingerprint_value(
                "baseline", inline
            )
            assert marker.exists()  # the fault really fired
            fleet = coordinator.fleet.stats()
            assert fleet["worker_deaths"] >= 1
            assert fleet["requeued"] >= 1
        finally:
            stop_service(server, coordinator)

    def test_exhausted_attempts_degrade_to_in_process(self, tmp_path):
        # Every spawn dies before answering: the fleet gives up and the
        # coordinator's degrade tier still produces a correct result.
        shim = tmp_path / "always_die.py"
        shim.write_text(
            "import sys\n"
            "from repro.runner.wire import encode_hello\n"
            "sys.stdout.write(encode_hello() + '\\n')\n"
            "sys.stdout.flush()\n"
            "sys.stdin.readline()\n"
            "raise SystemExit(1)\n"
        )
        handler = counting_handler()
        server, coordinator, url = start_service(
            tmp_path / "cache",
            handler=handler,
            workers=1,
            worker_command=f"{{python}} -u {shim}",
            max_attempts=2,
            backoff=0.01,
        )
        try:
            spec = make_spec("LI", "baseline")
            doc = ServiceClient(url).submit(spec)
            result = ServiceClient(url).result(doc["job_id"], timeout=120)
            assert result.instructions > 0
            # The degrade tier's settle woke the one parked request.
            assert handler.result_requests == 1
            assert coordinator.degraded >= 1
            assert coordinator.job(doc["job_id"]).source == "degraded"
            assert coordinator.fleet.stats()["give_ups"] >= 1
        finally:
            stop_service(server, coordinator)

    def test_protocol_mismatch_parks_worker_with_reason(self, tmp_path):
        shim = tmp_path / "old_proto.py"
        shim.write_text(
            "import json, sys\n"
            "print(json.dumps({'v': 999, 'type': 'hello',"
            " 'proto': 999, 'pid': 1}))\n"
            "sys.stdout.flush()\n"
            "sys.stdin.readline()\n"
        )
        server, coordinator, url = start_service(
            tmp_path / "cache",
            workers=1,
            worker_command=f"{{python}} -u {shim}",
        )
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if coordinator.fleet.stats()["last_error"]:
                    break
                time.sleep(0.05)
            assert "wire protocol" in coordinator.fleet.stats()["last_error"]
        finally:
            stop_service(server, coordinator)

    def test_shutdown_leaves_no_orphan_workers(self, tmp_path):
        server, coordinator, url = start_service(tmp_path, workers=2)
        doc = ServiceClient(url).submit(make_spec("S2", "baseline"))
        ServiceClient(url).result(doc["job_id"], timeout=120)
        pids = coordinator.fleet.worker_pids()
        assert pids
        stop_service(server, coordinator)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if not any(Path(f"/proc/{pid}").exists() for pid in pids):
                return
            time.sleep(0.05)
        alive = [pid for pid in pids if Path(f"/proc/{pid}").exists()]
        assert not alive, f"orphaned workers: {alive}"


# ---------------------------------------------------------------------------
# Event-driven result delivery: long-poll, one wake-up per settle
# ---------------------------------------------------------------------------
class TestLongPoll:
    def test_slow_job_arrives_in_one_result_request(self, tmp_path):
        handler = counting_handler()
        server, coordinator, url = start_service(
            tmp_path / "cache",
            handler=handler,
            workers=1,
            worker_command=slow_worker_command(tmp_path, 0.4),
        )
        try:
            client = ServiceClient(url)
            spec = make_spec("S2", "baseline")
            doc = client.submit(spec)
            result = client.result(doc["job_id"], timeout=120)
            assert result.instructions > 0
            assert client.status(doc["job_id"])["source"] == "fleet"
            assert handler.result_requests == 1
            # This worker carries no --cache-dir: the coordinator's own
            # store write (after the waiters are woken) is what makes the
            # result outlive a restart.
            entry = coordinator.cache.path_for(coordinator.cache.key_for(spec))
            deadline = time.monotonic() + 10
            while not entry.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert entry.exists()
        finally:
            stop_service(server, coordinator)

    def test_simulation_error_wakes_the_parked_request(self, tmp_path):
        handler = counting_handler()
        server, coordinator, url = start_service(
            tmp_path / "cache",
            handler=handler,
            workers=1,
            worker_command=slow_worker_command(tmp_path, 0.3),
        )
        try:
            client = ServiceClient(url)
            doc = client.submit(make_spec("S2", "baseline", max_concurrent_ctas=-3))
            with pytest.raises(RemoteJobError):
                client.result(doc["job_id"], timeout=120)
            assert handler.result_requests == 1
        finally:
            stop_service(server, coordinator)

    def test_worker_written_entry_is_not_pickled_again(self, tmp_path):
        # Default workers land the entry in the shared store before they
        # answer; the dispatcher thread must not serialise it a second time.
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            backend = FlakyBackend(coordinator.cache.backend, fail_on=0)
            coordinator.cache.backend = backend
            client = ServiceClient(url)
            # Outcomes are handled one at a time, store write last: once
            # the second result is out, the first was handled in full.
            for spec in (make_spec("LI", "baseline"), make_spec("S2", "baseline")):
                client.result(client.submit(spec)["job_id"], timeout=120)
                assert backend.path_for(coordinator.cache.key_for(spec)).exists()
            assert backend.calls["write"] == 0
        finally:
            stop_service(server, coordinator)

    def test_racing_submits_of_one_key_share_one_job(self, tmp_path):
        server, coordinator, _ = start_service(tmp_path, workers=1)
        spec = make_spec("LI", "baseline")
        barrier = threading.Barrier(8)
        outcomes = []

        def submit():
            barrier.wait(timeout=30)
            outcomes.append(coordinator.submit(spec))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len({id(job) for job, _, _ in outcomes}) == 1
            assert sorted(coalesced for _, coalesced, _ in outcomes) == [False] + [True] * 7
            assert coordinator.wait(spec.key, timeout=120).status == "done"
            stats = coordinator.stats()
            assert stats["unique_jobs"] == 1 and stats["submits"] == 8
            assert stats["fleet"]["dispatched"] == 1
        finally:
            sys.setswitchinterval(interval)
            stop_service(server, coordinator)


def start_hung_service(tmp):
    """A service whose only worker never answers, and one job on it."""
    server, coordinator, url = start_service(
        tmp / "cache",
        workers=1,
        worker_command=flaky_worker_command("hang", tmp / "marker"),
    )
    job_id = ServiceClient(url).submit(make_spec("S2", "baseline"))["job_id"]
    return server, coordinator, url, job_id


@pytest.fixture(scope="class")
def hung(tmp_path_factory):
    server, coordinator, url, job_id = start_hung_service(
        tmp_path_factory.mktemp("hung")
    )
    yield {"coordinator": coordinator, "url": url, "job_id": job_id}
    stop_service(server, coordinator)


class TestWaitParameter:
    def test_no_wait_and_zero_wait_answer_202_at_once(self, hung):
        for query in ("", "?wait=0", "?wait=-1"):
            started = time.monotonic()
            status, doc, _ = raw_request(
                hung["url"], "GET", f"/v1/jobs/{hung['job_id']}/result{query}"
            )
            assert status == 202 and doc["status"] == "running"
            assert time.monotonic() - started < 2.0

    def test_malformed_wait_is_400(self, hung):
        status, doc, _ = raw_request(
            hung["url"], "GET", f"/v1/jobs/{hung['job_id']}/result?wait=abc"
        )
        assert status == 400 and "wait" in doc["error"]

    def test_wait_above_the_cap_is_clamped(self, hung, monkeypatch):
        monkeypatch.setattr(coordinator_module, "MAX_WAIT_SECONDS", 0.2)
        started = time.monotonic()
        status, _, _ = raw_request(
            hung["url"], "GET", f"/v1/jobs/{hung['job_id']}/result?wait=3600"
        )
        assert status == 202
        assert 0.2 <= time.monotonic() - started < 5.0

    def test_client_timeout_bounds_the_long_poll(self, hung):
        client = ServiceClient(hung["url"])
        client.status(hung["job_id"])  # connection open before the clock starts
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            client.result(hung["job_id"], timeout=0.2)
        assert 0.2 <= time.monotonic() - started < 0.5
        assert hung["coordinator"].stats()["waiters"] == 0

    def test_old_server_without_wait_is_polled_not_spun(self, hung):
        # A coordinator that predates ?wait= answers 202 at once; the
        # client must then pace itself with ``poll`` as it used to.
        handler = counting_handler()

        class Old(handler):
            def _job_result(self, job, query):
                super()._job_result(job, {})

        coordinator = hung["coordinator"]
        server = serve(host="127.0.0.1", port=0, coordinator=coordinator)
        server.RequestHandlerClass = Old
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
            with pytest.raises(TimeoutError):
                client.result(hung["job_id"], timeout=0.5, poll=0.1)
            assert 2 <= handler.result_requests <= 7
        finally:
            server.shutdown()
            server.server_close()

    def test_shutdown_releases_parked_clients(self, tmp_path):
        server, coordinator, url, job_id = start_hung_service(tmp_path)
        client = ServiceClient(url)
        outcomes = []

        def fetch():
            try:
                outcomes.append(client.result(job_id, timeout=60))
            except Exception as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=fetch, daemon=True) for _ in range(3)]
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30
            while coordinator.stats()["waiters"] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert coordinator.stats()["waiters"] == 3
            coordinator.shutdown()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert [type(o) for o in outcomes] == [ServiceError] * 3
            assert coordinator.stats()["waiters"] == 0
        finally:
            stop_service(server, coordinator)


# ---------------------------------------------------------------------------
# Encode once, bounded residency
# ---------------------------------------------------------------------------
class TestResidency:
    def test_evicted_result_is_reread_through_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(coordinator_module, "RESIDENT_RESULTS", 4)
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            client = ServiceClient(url)
            oldest = make_spec("S2", "linebacker", timeseries=True)
            job_id = client.submit(oldest)["job_id"]
            served = client.result(job_id, timeout=120)
            # RESIDENT + 10 more jobs settle, straight from the store.
            cache = coordinator.cache
            for i in range(4 + 10):
                filler = make_spec("S2", "baseline", scale=TINY + 0.001 * (i + 1))
                cache.put(cache.key_for(filler), served)
                assert client.submit(filler)["cached"] is True
            report = client.fleet()
            assert report["resident_results"] == 4
            assert report["jobs"]["done"] == 15
            assert getattr(coordinator.job(job_id), "payload", None) is None

            backend = FlakyBackend(cache.backend, fail_on=0)
            cache.backend = backend
            again = client.result(job_id, timeout=30)
            assert backend.calls["read"] == 1
            client.result(job_id, timeout=30)  # resident again: no second read
            assert backend.calls["read"] == 1
            inline = ExperimentRunner(
                workers=1, use_cache=False, executor="inline"
            ).run(oldest)
            assert fingerprint_value("linebacker", again) == fingerprint_value(
                "linebacker", inline
            )
            # Evict it once more; the timeseries view decodes on demand.
            for i in range(4):
                client.result(make_spec(
                    "S2", "baseline", scale=TINY + 0.001 * (i + 1)).key, timeout=30)
            assert client.timeseries(job_id)["rows"]
            assert backend.calls["read"] == 6
        finally:
            stop_service(server, coordinator)

    def test_store_that_lost_an_evicted_result_simulates_again(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(coordinator_module, "RESIDENT_RESULTS", 1)
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            client = ServiceClient(url)
            specs = [make_spec("LI", "baseline"), make_spec("S2", "baseline")]
            first = [client.result(client.submit(s)["job_id"], timeout=120) for s in specs]
            assert coordinator.cache.clear() == 2
            again = client.result(specs[0].key, timeout=120)
            assert fingerprint_value("baseline", again) == fingerprint_value(
                "baseline", first[0]
            )
            assert coordinator.fleet.stats()["dispatched"] == 3
        finally:
            stop_service(server, coordinator)

    def test_without_a_store_nothing_is_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(coordinator_module, "RESIDENT_RESULTS", 1)
        server, coordinator, url = start_service(tmp_path, workers=2, use_cache=False)
        try:
            client = ServiceClient(url)
            specs = [make_spec(app, "baseline") for app in ("S2", "LI", "KM")]
            ids = [client.submit(spec)["job_id"] for spec in specs]
            first = [client.result(job_id, timeout=120) for job_id in ids]
            assert client.fleet()["resident_results"] == 3
            again = [client.result(job_id, timeout=30) for job_id in ids]
            assert [r.instructions for r in again] == [r.instructions for r in first]
        finally:
            stop_service(server, coordinator)


# ---------------------------------------------------------------------------
# Persistent connections and request framing
# ---------------------------------------------------------------------------
class TestConnections:
    def test_threads_reuse_their_connections(self, tmp_path):
        handler = counting_handler()
        server, coordinator, url = start_service(tmp_path, handler=handler, workers=1)
        client = ServiceClient(url)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    assert client.healthz()["ok"] is True
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert 1 <= handler.connections <= 8
        finally:
            sys.setswitchinterval(interval)
            stop_service(server, coordinator)

    def test_restart_reconnects_once_or_fails_typed(self, tmp_path):
        server, coordinator, url = start_service(tmp_path / "a", workers=1)
        port = server.server_address[1]
        client = ServiceClient(url)
        client.healthz()
        stop_service(server, coordinator)
        # Restarted on the same port between two calls: the kept-alive
        # socket is stale, and one transparent reconnect finds the new one.
        handler = counting_handler()
        server, coordinator, _ = start_service(
            tmp_path / "b", port=port, handler=handler, workers=1
        )
        try:
            assert client.healthz()["ok"] is True
            assert handler.connections == 1
        finally:
            stop_service(server, coordinator)
        # Nothing listens there any more: a typed error, not http.client's.
        with pytest.raises(ServiceError) as err:
            client.healthz()
        assert err.value.status == 0

    def test_misframed_requests_get_an_answer_and_keep_the_stream_in_step(
        self, service
    ):
        url = service["url"]
        # Content-Length that is not a length: 400, and the connection
        # (whose next request boundary is unknowable) is closed.
        status, doc, conn = raw_request(
            url, "POST", "/v1/jobs", headers={"Content-Length": "abc"}
        )
        assert status == 400 and "Content-Length" in doc["error"]
        assert conn.sock is None
        # A length above the cap is refused before any of it is read.
        conn = http.client.HTTPConnection(url.split("//")[1], timeout=30)
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Length", str(1 << 30))
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 413
        resp.read()
        conn.close()
        # A wrong path still consumes its body: the same socket then
        # carries the next request.
        status, _, conn = raw_request(url, "POST", "/v1/nope", body=b'{"x": 1}')
        assert status == 404
        sock = conn.sock
        assert sock is not None
        status, doc, conn = raw_request(url, "GET", "/v1/healthz", conn=conn)
        assert status == 200 and doc["ok"] is True and conn.sock is sock
        conn.close()

    @pytest.mark.parametrize(
        "answer",
        [
            b"",  # hangs up without a word: RemoteDisconnected
            b"220 mail.example.com ESMTP\r\n\r\n",  # BadStatusLine
            b"HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\n<html>",  # not JSON
        ],
    )
    def test_broken_peer_is_a_service_error(self, answer):
        class Peer(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.recv(65536)
                self.request.sendall(answer)
                self.request.shutdown(socket.SHUT_RDWR)

        with socketserver.TCPServer(("127.0.0.1", 0), Peer) as peer:
            threading.Thread(target=peer.serve_forever, daemon=True).start()
            try:
                client = ServiceClient(f"http://127.0.0.1:{peer.server_address[1]}")
                for _ in range(2):  # fresh connection, then after a failure
                    with pytest.raises(ServiceError):
                        client.healthz()
            finally:
                peer.shutdown()
