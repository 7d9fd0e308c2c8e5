"""Service-layer tests: the HTTP coordinator over a real worker fleet.

Every end-to-end scenario runs against an actual ``ThreadingHTTPServer``
on a loopback socket with genuine worker processes behind it (forks
of the test process, or exec'd ``python -m repro worker`` shims where
a test gives a command) — no mocked transports. The invariants mirror
the distributed suite's: a submission either completes with results
bit-identical to in-process execution (pinned via the golden
fingerprint helpers) or surfaces a *simulation* error; no
infrastructure fault may wedge the service or smuggle in a wrong
payload, and no worker process may outlive its fleet.
"""

import base64
import dataclasses
import http.client
import json
import pickle
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
import repro.runner.engine as engine_module  # noqa: E402
import repro.runner.fleet as fleet_module  # noqa: E402
import repro.service.coordinator as coordinator_module  # noqa: E402
from fault_injection import (  # noqa: E402
    FlakyCache,
    flaky_worker_command,
    stored_entry,
    unsimulatable_registered,
)
from golden import fingerprint_value  # noqa: E402
from repro.api import Session  # noqa: E402
from document_helpers import dataclass_nodes, field_slots, node_at, wrong_values  # noqa: E402
from repro.config import LinebackerConfig, SimulationConfig, scaled_config  # noqa: E402
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
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec  # noqa: E402
from repro.workloads.spec import WorkloadSpec  # noqa: E402
from workload_helpers import make_app  # noqa: E402

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


def flaky_store(coordinator, **kwargs):
    """Put a :class:`FlakyCache` over the coordinator's own store file
    in place of its cache, and return it."""
    cache = FlakyCache(coordinator.cache.root, **kwargs)
    coordinator.runner.cache = coordinator.cache = cache
    return cache


def slow_worker_command(tmp_path, delay):
    """A genuine worker, with the ``unsimulatable`` rows registered, that
    sits on every job line for ``delay`` seconds first."""
    shim = tmp_path / "slow_worker.py"
    shim.write_text(
        "import sys, time\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from fault_injection import unsimulatable_registered\n"
        "from repro.runner.worker import serve\n"
        "def lines():\n"
        "    for line in sys.stdin:\n"
        f"        time.sleep({delay})\n"
        "        yield line\n"
        "with unsimulatable_registered():\n"
        "    raise SystemExit(serve(lines(), sys.stdout))\n"
    )
    return f"{{python}} -u {shim}"


@pytest.fixture(scope="module", autouse=True)
def unsimulatable():
    """Registered before any worker of this module is forked, so that
    every fleet's workers know the row."""
    with unsimulatable_registered():
        yield


def until(predicate, timeout=10.0):
    """Wait for ``predicate()`` (the store write follows the wake-up)."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


def recorded_result_bytes(monkeypatch):
    """key -> the sealed bytes of every result line the fleet decodes."""
    seen = {}
    decode = fleet_module.decode_result

    def recording(line):
        result = decode(line)
        seen[result.key] = result.sealed
        return result

    monkeypatch.setattr(fleet_module, "decode_result", recording)
    return seen


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

    def test_a_float_field_sent_as_an_int_gives_one_key(self):
        spec = make_spec()
        docs = []
        for clock in (1126, 1126.0):
            doc = json.loads(json.dumps(encode_jobspec(spec)))
            doc["config"]["gpu"]["clock_mhz"] = clock
            docs.append(decode_jobspec(doc))
        as_int, as_float = docs
        assert type(as_int.config.gpu.clock_mhz) is float
        assert as_int == as_float and as_int.key == as_float.key == spec.key

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
        for bad in ("NaN", "Infinity", "-Infinity", "0", "-1"):
            doc = dict(encode_jobspec(make_spec()), scale="SCALE")
            text = json.dumps(doc).replace('"SCALE"', bad)  # bare JSON tokens
            with pytest.raises(SchemaError, match="scale"):
                decode_jobspec(json.loads(text))

    def test_nested_config_override_roundtrips(self):
        from repro.config import LinebackerConfig

        spec = make_spec(
            "S2", "linebacker", lb_config=LinebackerConfig(vtt_ways=2)
        )
        decoded = decode_jobspec(encode_jobspec(spec))
        assert decoded.key == spec.key
        assert decoded.overrides["lb_config"].vtt_ways == 2

    def test_a_field_of_the_wrong_json_type_is_refused(self):
        for path, value in ((("config", "gpu", "num_sms"), "2"),
                            (("config", "gpu", "noc_enable"), 1),
                            (("config", "linebacker", "hit_ratio_threshold"), None),
                            (("config", "seed"), 1.5),
                            (("config", "max_cycles"), "9")):
            doc = encode_jobspec(make_spec())
            node_at(doc, path[:-1])[path[-1]] = value
            with pytest.raises(SchemaError, match=".".join(path)):
                decode_jobspec(doc)

    @pytest.mark.parametrize("field, value", [
        ("num_sms", 0), ("num_sms", -4), ("dram_model", "x"), ("l2_assoc", 0),
        ("l2_lines_per_cycle", 0.0), ("dram_bandwidth_gbps", -1.0),
        ("l2_size_bytes", 512), ("num_schedulers", 0), ("register_banks", 0),
        ("clock_mhz", 0.0), ("l1_assoc", 0), ("l1_assoc", -2), ("l1_line_bytes", 0),
        ("l1_size_bytes", 100),
    ])
    def test_a_machine_no_job_runs_on_is_refused(self, field, value):
        doc = encode_jobspec(make_spec())
        doc["config"]["gpu"][field] = value
        with pytest.raises(SchemaError, match=f"GPUConfig.{field}"):
            decode_jobspec(doc)
        with pytest.raises(ValueError, match=f"GPUConfig.{field}"):
            Session.local(executor="inline").spec(
                "S2", "baseline", config=SimulationConfig(
                    gpu=dataclasses.replace(CFG.gpu, **{field: value})))

    @pytest.mark.parametrize("window", [0, -5])
    def test_a_window_that_never_ends_is_refused(self, window):
        doc = encode_jobspec(make_spec("S2", "linebacker"))
        doc["config"]["linebacker"]["window_cycles"] = window
        with pytest.raises(SchemaError, match="LinebackerConfig.window_cycles"):
            decode_jobspec(doc)
        lb = dataclasses.replace(CFG.linebacker, window_cycles=window)
        session = Session.local(executor="inline")
        for config, options in ((SimulationConfig(linebacker=lb), {}),
                                (CFG, {"lb_config": lb})):
            with pytest.raises(ValueError, match="LinebackerConfig.window_cycles"):
                session.spec("S2", "linebacker", config=config, **options)


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
        assert status["source"] in ("run", "cache", "degraded")
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
        spec = make_spec("S2", "unsimulatable")
        doc = client.submit(spec)
        with pytest.raises(RemoteJobError, match="InjectedSimulationError"):
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
            assert coordinator.stats()["degraded"] >= 1
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
            assert client.status(doc["job_id"])["source"] == "run"
            assert handler.result_requests == 1
            # The coordinator's store write (after the waiters are woken)
            # is what makes the result outlive a restart.
            cache = coordinator.cache
            until(lambda: stored_entry(cache, cache.key_for(spec)) is not None)
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
            doc = client.submit(make_spec("S2", "unsimulatable"))
            with pytest.raises(RemoteJobError, match="InjectedSimulationError"):
                client.result(doc["job_id"], timeout=120)
            assert handler.result_requests == 1
        finally:
            stop_service(server, coordinator)

    def test_one_store_write_per_settled_job_carrying_the_wire_bytes(
        self, tmp_path, monkeypatch
    ):
        # Workers never touch the store: the coordinator writes each
        # distinct settled job once, with the bytes its worker sealed.
        off_wire = recorded_result_bytes(monkeypatch)
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            assert coordinator.fleet.command is None  # forked workers
            store = flaky_store(coordinator, fail_on=0)
            client = ServiceClient(url)
            specs = [make_spec("LI", "baseline"), make_spec("S2", "baseline")]
            for spec in specs + specs:  # the second round is memo hits
                client.result(client.submit(spec)["job_id"], timeout=120)
            until(lambda: len(store.writes) >= len(specs))
            cache = coordinator.cache
            assert sorted(store.writes) == sorted(
                (cache.key_for(spec), off_wire[spec.key]) for spec in specs
            )
        finally:
            stop_service(server, coordinator)

    def test_store_entry_wire_and_http_carry_one_sealing(self, tmp_path, monkeypatch):
        off_wire = recorded_result_bytes(monkeypatch)
        sealed_types = []
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda value, *a, **k: (
            sealed_types.append(type(value).__name__) or dumps(value, *a, **k)))
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            spec = make_spec("S2", "linebacker", timeseries=True)
            body = json.dumps(encode_jobspec(spec))
            assert raw_request(url, "POST", "/v1/jobs", body=body)[0] == 201
            path = f"/v1/jobs/{spec.key}/result?wait=20"
            status, doc, conn = raw_request(url, "GET", path)
            assert status == 200 and doc["source"] == "run"
            assert raw_request(url, "GET", path, conn=conn)[1] == doc
            served = bytes.fromhex(doc["payload"]["sha"]) + base64.b64decode(doc["payload"]["b64"])
            cache = coordinator.cache
            until(lambda: stored_entry(cache, cache.key_for(spec)) is not None)
            assert stored_entry(cache, cache.key_for(spec)) == off_wire[spec.key] == served
            # The job line's spec is the one value this process pickles:
            # not the result, for its store write or either GET.
            assert sealed_types == ["JobSpec"]
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
        monkeypatch.setattr(engine_module, "RESIDENT_RESULTS", 4)
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

            store = flaky_store(coordinator, fail_on=0)
            again = client.result(job_id, timeout=30)
            assert store.calls["read"] == 1
            client.result(job_id, timeout=30)  # resident again: no second read
            assert store.calls["read"] == 1
            inline = ExperimentRunner(
                workers=1, use_cache=False, executor="inline"
            ).run(oldest)
            assert fingerprint_value("linebacker", again) == fingerprint_value(
                "linebacker", inline
            )
            # Evict it once more; the timeseries view decodes on demand.
            # (A client that kept no submit reply, so each is a GET.)
            reader = ServiceClient(url)
            for i in range(4):
                reader.result(make_spec(
                    "S2", "baseline", scale=TINY + 0.001 * (i + 1)).key, timeout=30)
            assert client.timeseries(job_id)["rows"]
            assert store.calls["read"] == 6
        finally:
            stop_service(server, coordinator)

    def test_store_that_lost_an_evicted_result_simulates_again(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "RESIDENT_RESULTS", 1)
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            client = ServiceClient(url)
            specs = [make_spec("LI", "baseline"), make_spec("S2", "baseline")]
            first = [client.result(client.submit(s)["job_id"], timeout=120) for s in specs]
            # The dispatcher writes each result after waking its waiters.
            until(lambda: coordinator.cache.info().entries == 2)
            assert coordinator.cache.clear() == 2
            again = client.result(specs[0].key, timeout=120)
            assert fingerprint_value("baseline", again) == fingerprint_value(
                "baseline", first[0]
            )
            assert coordinator.fleet.stats()["dispatched"] == 3
        finally:
            stop_service(server, coordinator)

    def test_without_a_store_nothing_is_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_module, "RESIDENT_RESULTS", 1)
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


# ---------------------------------------------------------------------------
# Job documents: the client's body cache, the coordinator's memo, and
# malformed input. The coordinator is never started: no worker runs,
# every accepted job stays "running", and only the request path is
# exercised.
# ---------------------------------------------------------------------------
def start_idle_service(tmp):
    coordinator = Coordinator(workers=1, cache_dir=str(tmp), use_cache=False)
    server = coordinator_module.ServiceServer(("127.0.0.1", 0), coordinator)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, coordinator, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture
def idle(tmp_path):
    server, coordinator, url = start_idle_service(tmp_path)
    yield {"coordinator": coordinator, "url": url}
    stop_service(server, coordinator)


def body_of(spec):
    return json.dumps(encode_jobspec(spec)).encode("utf-8")


def post(url, body, headers=None, timeout=10.0):
    """One POST /v1/jobs on a fresh connection: ``(status, document)``."""
    conn = http.client.HTTPConnection(url.split("//")[1], timeout=timeout)
    try:
        conn.putrequest("POST", "/v1/jobs")
        if headers is None:
            headers = {"Content-Length": str(len(body))}
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.putheader("Connection", "close")
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so its calls are counted in the returned list."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestDocumentMemo:
    def test_identical_resubmission_decodes_once(self, idle, monkeypatch):
        decodes = counting(monkeypatch, coordinator_module, "decode_jobspec")
        spec = make_spec("S2", "linebacker", track_loads=True)
        answers = [post(idle["url"], body_of(spec)) for _ in range(3)]
        assert len(decodes) == 1
        assert [doc["job_id"] for _, doc in answers] == [spec.key] * 3
        assert [status for status, _ in answers] == [201, 200, 200]
        assert idle["coordinator"].stats()["documents"] == {
            "decoded": 1, "reused": 2, "kept": 1}
        assert ServiceClient(idle["url"]).fleet()["documents"]["reused"] == 2

    def test_a_hit_accounts_like_a_fresh_decode(self, tmp_path, monkeypatch):
        """The same bodies, posted to one coordinator with the memo and
        to one that keeps nothing, give the same answers and counts."""
        specs = [make_spec("S2", "baseline"), make_spec("LI", "best_swl")]
        bodies = [body_of(specs[i]) for i in (0, 0, 1, 0, 1, 1)]
        seen = []
        for kept in (coordinator_module.DOCUMENTS_KEPT, 0):
            monkeypatch.setattr(coordinator_module, "DOCUMENTS_KEPT", kept)
            coordinator = Coordinator(workers=1, use_cache=False)
            try:
                answers = [
                    (job.id, coalesced, cached, job.submits)
                    for job, coalesced, cached in map(coordinator.submit_document, bodies)
                ]
                table = coordinator.runner.table_stats()
                sources = [r.source for r in coordinator.runner.stats.records]
                seen.append((answers, table, sources))
                assert coordinator.stats()["documents"]["kept"] == min(kept, 2)
            finally:
                coordinator.shutdown()
        assert seen[0] == seen[1]
        assert seen[0][1]["coalesced"] == 4

    def test_a_reregistered_workload_name_is_decoded_again(self, idle):
        from repro.workloads.spec import register_workload, unregister_workload
        from repro.workloads.suite import APP_SPECS

        first = dataclasses.replace(APP_SPECS["S2"], name="memo_probe")
        second = dataclasses.replace(first, num_ctas=first.num_ctas + 1)
        body = json.dumps({"schema": JOB_SCHEMA_VERSION, "app": "memo_probe",
                           "arch": "baseline", "scale": TINY}).encode()
        try:
            ids = []
            for workload in (first, second):
                register_workload(workload, replace=True)
                status, doc = post(idle["url"], body)
                assert status == 201
                ids.append(doc["job_id"])
                assert doc["job_id"] == make_spec("memo_probe", config=SimulationConfig()).key
            assert ids[0] != ids[1]
            assert idle["coordinator"].stats()["documents"] == {
                "decoded": 2, "reused": 0, "kept": 0}
        finally:
            unregister_workload("memo_probe")

    def test_a_hit_the_architecture_now_refuses_is_400(self, idle):
        import reference_engine

        spec_doc = encode_jobspec(make_spec())
        spec_doc["options"] = {"backend": "object"}
        body = json.dumps(spec_doc).encode()
        with reference_engine.registered():
            status, doc = post(idle["url"], body)
            assert status == 201
            assert post(idle["url"], body)[0] == 200  # a memo hit
        status, doc = post(idle["url"], body)
        assert status == 400 and "'object' backend" in doc["error"]
        assert idle["coordinator"].stats()["documents"]["reused"] == 1

    def test_a_malformed_body_is_never_memoized(self, idle):
        doc = encode_jobspec(make_spec())
        doc["overrides"] = {"cta_limit": 2}  # baseline takes no cta_limit
        for body in (json.dumps(doc).encode(), b'{"schema": 3, "app": '):
            for _ in range(2):
                assert post(idle["url"], body)[0] == 400
        assert idle["coordinator"].stats()["documents"] == {
            "decoded": 4, "reused": 0, "kept": 0}

    def test_racing_posts_lose_no_count(self, tmp_path):
        """More posting threads than cores, switching often: every post
        is counted once as decoded or reused, and joins its job."""
        bodies = [body_of(make_spec(app)) for app in ("S2", "LI", "KM")]
        threads, rounds = 8, 30
        coordinator = Coordinator(workers=1, use_cache=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def poster(slot):
                for i in range(rounds):
                    coordinator.submit_document(bodies[(slot + i) % len(bodies)])

            workers = [threading.Thread(target=poster, args=(slot,))
                       for slot in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
            documents = coordinator.stats()["documents"]
            assert documents["decoded"] + documents["reused"] == threads * rounds
            assert documents["kept"] == len(bodies)
            assert coordinator.runner.table_stats()["submits"] == threads * rounds
        finally:
            sys.setswitchinterval(interval)
            coordinator.shutdown()

    def test_client_encodes_each_spec_once(self, idle, monkeypatch):
        from repro.service import client as client_module

        encodes = counting(monkeypatch, client_module, "encode_jobspec")
        client = ServiceClient(idle["url"])
        specs = [make_spec("S2"), make_spec("LI")]
        ids = [client.submit(spec)["job_id"] for spec in specs + specs]
        assert ids == [spec.key for spec in specs + specs]
        assert len(encodes) == 2
        assert idle["coordinator"].stats()["documents"]["reused"] == 2
        monkeypatch.setattr(client_module, "BODIES_KEPT", 1)
        client.submit(make_spec("KM"))
        assert list(client._bodies) == [make_spec("KM").key]


# ---------------------------------------------------------------------------
# A job done when it is submitted answers with its result in the reply
# ---------------------------------------------------------------------------
class TestResultInSubmitReply:
    def test_a_warm_resubmission_makes_no_result_request(self, tmp_path):
        handler = counting_handler()
        server, coordinator, url = start_service(tmp_path, handler=handler, workers=1)
        try:
            with Session.connect(url, config=CFG, scale=TINY) as s:
                s.run("S2", "linebacker").result(timeout=120)
                assert handler.result_requests == 1  # cold: one long-poll
                handle = s.run("S2", "linebacker")
                warm = handle.result(timeout=120)
            assert handler.result_requests == 1
            assert coordinator.stats()["submit_results"] == 1
            served = ServiceClient(url).result(handle.job_id, timeout=30)
            assert handler.result_requests == 2
            inline, _ = engine_module.execute_job(handle.spec)
            pinned = fingerprint_value("linebacker", inline)
            assert fingerprint_value("linebacker", warm) == pinned
            assert fingerprint_value("linebacker", served) == pinned
        finally:
            stop_service(server, coordinator)

    def test_cold_and_in_flight_replies_carry_no_result(self, tmp_path):
        handler = counting_handler()
        server, coordinator, url = start_service(
            tmp_path / "cache", handler=handler, workers=1,
            worker_command=slow_worker_command(tmp_path, 0.4),
        )
        try:
            spec = make_spec("S2", "baseline")
            cold = post(url, body_of(spec))
            in_flight = post(url, body_of(spec))
            assert cold[0] == 201 and in_flight[0] == 200
            assert in_flight[1]["coalesced"] is True
            assert "payload" not in cold[1] and "payload" not in in_flight[1]
            client = ServiceClient(url)
            assert client.submit(spec)["status"] == "running"
            assert client.result(spec.key, timeout=120).instructions > 0
            assert handler.result_requests == 1
            assert coordinator.stats()["submit_results"] == 0
        finally:
            stop_service(server, coordinator)

    def test_a_failed_job_resubmitted_still_raises(self, tmp_path):
        handler = counting_handler()
        server, coordinator, url = start_service(tmp_path, handler=handler, workers=1)
        try:
            spec = make_spec("LI", "unsimulatable")
            client = ServiceClient(url)
            with pytest.raises(RemoteJobError, match="InjectedSimulationError"):
                client.result(client.submit(spec)["job_id"], timeout=120)
            status, doc = post(url, body_of(spec))
            assert status == 200 and doc["status"] == "failed"
            assert "payload" not in doc
            client.submit(spec)
            with pytest.raises(RemoteJobError, match="InjectedSimulationError"):
                client.result(spec.key, timeout=30)
            assert handler.result_requests == 2
            assert coordinator.stats()["submit_results"] == 0
        finally:
            stop_service(server, coordinator)

    def test_a_result_the_store_lost_is_simulated_again(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_module, "RESIDENT_RESULTS", 1)
        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            client = ServiceClient(url)
            specs = [make_spec("LI", "baseline"), make_spec("S2", "baseline")]
            first = [client.result(client.submit(s)["job_id"], timeout=120) for s in specs]
            until(lambda: coordinator.cache.info().entries == 2)
            assert coordinator.cache.clear() == 2
            # LI is done, evicted, and gone from the store: no result to
            # carry, and the reply has started it again.
            status, doc = post(url, body_of(specs[0]))
            assert status == 200 and "payload" not in doc
            again = client.result(specs[0].key, timeout=120)
            assert fingerprint_value("baseline", again) == fingerprint_value(
                "baseline", first[0]
            )
            assert coordinator.fleet.stats()["dispatched"] == 3
            assert coordinator.stats()["submit_results"] == 0
        finally:
            stop_service(server, coordinator)

    def test_a_reply_without_the_result_is_read_either_way(self, tmp_path):
        handler = counting_handler()

        class Old(handler):
            """A service that predates results in submit replies."""

            def _send_json(self, doc, status=200):
                if self.command == "POST":
                    doc.pop("payload", None)
                super()._send_json(doc, status)

        server, coordinator, url = start_service(tmp_path, handler=Old, workers=1)
        try:
            spec = make_spec("KM", "baseline")
            client = ServiceClient(url)
            first = client.result(client.submit(spec)["job_id"], timeout=120)
            client.submit(spec)
            again = client.result(spec.key, timeout=30)
            assert handler.result_requests == 2 and not client._settled
            assert fingerprint_value("baseline", again) == fingerprint_value(
                "baseline", first
            )
            # This service does carry it; a caller that ignores the field
            # reads the reply it always did and GETs the same box.
            server.RequestHandlerClass = handler
            status, doc = post(url, body_of(spec))
            assert status == 200 and doc["status"] == "done"
            assert {"job_id", "status", "coalesced", "cached", "schema"} < set(doc)
            got, served, _ = raw_request(url, "GET", f"/v1/jobs/{spec.key}/result")
            assert got == 200 and served["payload"] == doc["payload"]
        finally:
            stop_service(server, coordinator)

    def test_threads_sharing_a_client_lose_no_result(self, tmp_path):
        """More threads than cores on one client, switching often: every
        reply carries its result, each is taken at most once, and a
        thread whose box another took GETs instead."""
        handler = counting_handler()
        server, coordinator, url = start_service(tmp_path, handler=handler, workers=1)
        specs = [make_spec(app) for app in ("S2", "LI", "KM")]
        threads, rounds = 8, 20
        interval = sys.getswitchinterval()
        try:
            client = ServiceClient(url)
            expected = {
                spec.key: client.result(client.submit(spec)["job_id"], timeout=120).instructions
                for spec in specs
            }
            before = handler.result_requests
            errors = []

            def worker(slot):
                try:
                    for i in range(rounds):
                        spec = specs[(slot + i) % len(specs)]
                        client.submit(spec)
                        result = client.result(spec.key, timeout=30)
                        assert result.instructions == expected[spec.key]
                except Exception as exc:
                    errors.append(exc)

            sys.setswitchinterval(1e-6)
            pool = [threading.Thread(target=worker, args=(slot,)) for slot in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in pool)
            assert errors == []
            assert coordinator.stats()["submit_results"] == threads * rounds
            assert handler.result_requests - before < threads * rounds
            assert not client._settled
        finally:
            sys.setswitchinterval(interval)
            stop_service(server, coordinator)

    def test_results_nobody_asks_for_are_kept_bounded(self, tmp_path, monkeypatch):
        from repro.service import client as client_module

        server, coordinator, url = start_service(tmp_path, workers=1)
        try:
            specs = [make_spec(app) for app in ("S2", "LI", "KM")]
            warm_up = ServiceClient(url)
            for spec in specs:
                warm_up.result(warm_up.submit(spec)["job_id"], timeout=120)
            monkeypatch.setattr(client_module, "BODIES_KEPT", 2)
            client = ServiceClient(url)
            for spec in specs:
                client.submit(spec)
            assert list(client._settled) == [specs[1].key, specs[2].key]
            assert coordinator.stats()["submit_results"] == 3
        finally:
            stop_service(server, coordinator)


def malformed_dsl_spec():
    """A DSL job whose document carries every decoded dataclass: the
    config, options, an ``lb_config`` override and a workload tree with
    loads of every kind and a store."""
    loads = (LoadSpec(0x100, Pattern.REUSE, 8, Scope.CTA), LoadSpec(0x204, Pattern.STREAM, 0))
    workload = make_app(loads, iters=4, name="malformed-dsl", stores=(StoreSpec(0x510),))
    return JobSpec.build(
        app=workload.name, arch="linebacker", config=CFG, scale=TINY,
        overrides={"lb_config": LinebackerConfig(vtt_ways=2)},
        options=RunOptions(track_loads=True), workload=workload,
    )


#: The dataclass each object member of a job document decodes into.
JOB_MEMBERS = {("config",): SimulationConfig, ("options",): RunOptions,
               ("overrides", "lb_config"): LinebackerConfig, ("workload",): WorkloadSpec}


def job_field_slots(doc):
    """``(path, field, annotation)`` for each member of the job document
    ``doc`` and every field of every dataclass object it carries."""
    slots = [((), "app", str), ((), "arch", str), ((), "scale", float),
             ((), "overrides", "object")]
    slots += [((), path[0], cls) for path, cls in JOB_MEMBERS.items() if len(path) == 1]
    for path, cls in JOB_MEMBERS.items():
        if node_at(doc, path[:-1]).get(path[-1]) is not None:
            slots += field_slots(cls, node_at(doc, path), path)
    return slots


def wrong_type_mutants(doc, rng):
    """``(field, document)`` pairs: every field of ``doc`` given a value
    of the wrong type, down to each load of the workload tree."""
    for path, name, hint in job_field_slots(doc):
        mutant = json.loads(json.dumps(doc))
        node_at(mutant, path)[name] = rng.choice(wrong_values(hint))
        yield name, mutant


def wrong_value_mutants(doc, rng):
    """``(field, document)`` pairs: a value of the right type that no
    job could run with — a machine :meth:`GPUConfig.check` or a window
    :meth:`LinebackerConfig.check` refuses, or a workload
    :func:`validate_workload` refuses."""
    cases = [
        (("config", "gpu"), "num_sms", rng.choice([0, -1, -16])),
        (("config", "gpu"), "dram_model", rng.choice(["x", "", "Timing"])),
        (("config", "gpu"), "l2_assoc", 0),
        (("config", "gpu"), "l2_lines_per_cycle", rng.choice([0, -1.0])),
        (("config", "gpu"), "dram_bandwidth_gbps", rng.choice([0.0, -352.5])),
        (("config", "gpu"), "l2_size_bytes", rng.randrange(1, 1024)),
        (("config", "gpu"), "num_schedulers", 0),
        (("config", "gpu"), "register_banks", 0),
        (("config", "gpu"), "clock_mhz", 0.0),
        (("config", "gpu"), "l1_assoc", rng.choice([0, -8])),
        (("config", "gpu"), "l1_size_bytes", rng.randrange(1, 1024)),
        (("config", "linebacker"), "window_cycles", 0),
        (("workload",), "num_ctas", 0),
        (("workload",), "regs_per_thread", rng.choice([0, 4096])),
        (("workload", "tenants", 0, "phases", 0), "iterations", 0),
        (("workload", "tenants", 0, "phases", 0, "loads", 0), "pc", rng.choice([0, -256])),
        (("workload", "tenants", 0, "phases", 0, "stores", 0), "every_iterations", 0),
    ]
    for path, name, value in cases:
        mutant = json.loads(json.dumps(doc))
        node_at(mutant, path)[name] = value
        yield name, mutant


class TestMalformedDocuments:
    """Seeded mutations of a valid document: each gets a 4xx JSON error
    within the client timeout, and the service still accepts the
    original afterwards under its job id."""

    SEED = 2019

    def test_mutated_documents_are_refused_and_the_original_still_runs(
        self, idle, monkeypatch
    ):
        import random

        monkeypatch.setattr(ServiceHandler, "body_stall_seconds", 0.5)
        rng = random.Random(self.SEED)
        spec = malformed_dsl_spec()
        doc = encode_jobspec(spec)
        body = json.dumps(doc).encode()
        cases = []  # (what, body, headers, the field its error must name)
        for cut in sorted(rng.sample(range(len(body)), 12)):
            cases.append((f"truncated at {cut}", body[:cut], None, None))
        cases.append(("not UTF-8", b"\xff\xfe" + body, None, None))
        cases.append(("nested too deep", b"[" * 100_000, None, None))
        named = list(wrong_type_mutants(doc, rng)) + list(wrong_value_mutants(doc, rng))
        objects = [()] + [path for root, cls in JOB_MEMBERS.items()
                          for path, _, _ in dataclass_nodes(cls, node_at(doc, root), root)]
        for path in objects:
            mutant = json.loads(body)
            unknown = f"x{rng.randrange(1 << 16)}"
            node_at(mutant, path)[unknown] = rng.choice([1, "x", None])
            named.append((unknown, mutant))
        for name, mutant in named:
            cases.append((f"field {name}", json.dumps(mutant).encode(), None, name))
        for version in (0, 1, 2, JOB_SCHEMA_VERSION + 1, str(JOB_SCHEMA_VERSION), None):
            cases.append((f"schema {version!r}",
                          json.dumps({**doc, "schema": version}).encode(), None, None))
        unversioned = {k: v for k, v in doc.items() if k != "schema"}
        cases.append(("no schema", json.dumps(unversioned).encode(), None, None))
        for other in ([doc], "job", 3, None, True):
            cases.append((f"non-object {other!r:.20}", json.dumps(other).encode(), None, None))
        for length in ("abc", "-1", "", "1e3", str(coordinator_module.MAX_BODY_BYTES + 1)):
            cases.append((f"Content-Length {length!r}", b"", {"Content-Length": length}, None))
        cases.append(("no Content-Length", b"", {}, None))
        cases.append(("Content-Length past the body", body[:100],
                      {"Content-Length": str(len(body))}, None))
        rng.shuffle(cases)

        for what, raw, headers, field in cases:
            started = time.monotonic()
            status, answer = post(idle["url"], raw, headers)
            assert 400 <= status < 500, (what, status, answer)
            assert isinstance(answer.get("error"), str) and answer["error"], what
            assert field is None or field in answer["error"], (what, answer)
            assert time.monotonic() - started < 5.0, what
        status, answer = post(idle["url"], body)
        assert status == 201 and answer["job_id"] == spec.key
        assert idle["coordinator"].stats()["documents"]["kept"] == 1
