"""Distributed-execution tests: the wire protocol, the four executors,
fault injection (dead/hung/corrupting workers, flaky cache backends),
the shared cache backend under concurrent writers, and cross-process
key stability.

Every scenario here must end in one of exactly two states: the sweep
completes with results bit-identical to in-process execution, or a
*simulation* error propagates. No infrastructure fault — however
rude — may crash the engine or smuggle in a wrong payload.
"""

import io
import json
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from fault_injection import (  # noqa: E402
    FlakyBackend,
    corrupt_always,
    corrupt_once,
    flaky_worker_command,
)
from repro.config import scaled_config  # noqa: E402
from repro.runner import (  # noqa: E402
    CACHE_SCHEMA_VERSION,
    DirectoryBackend,
    ExperimentRunner,
    JobSpec,
    LoopbackExecutor,
    MISS,
    RemoteJobError,
    ResultCache,
    RunnerStats,
    SharedDirectoryBackend,
    WireError,
)
from repro.runner.fleet import worker_env  # noqa: E402
from repro.runner.wire import (  # noqa: E402
    PROTOCOL_VERSION,
    decode_hello,
    decode_job,
    decode_result,
    encode_error,
    encode_hello,
    encode_job,
    encode_result,
)
from repro.runner.worker import serve  # noqa: E402

CFG = scaled_config(num_sms=1, window_cycles=600)
TINY = 0.05


def make_spec(app="S2", arch="baseline", config=CFG, scale=TINY, **overrides):
    return JobSpec.build(
        app=app, arch=arch, config=config, scale=scale, overrides=overrides
    )


SPECS = [make_spec("S2"), make_spec("LI"), make_spec("KM")]


@pytest.fixture(scope="module")
def inline_results():
    """Reference results, computed once, in-process, uncached."""
    runner = ExperimentRunner(workers=1, use_cache=False, executor="inline")
    return runner.run_many(SPECS)


def assert_matches_inline(results, inline_results):
    assert len(results) == len(inline_results)
    for got, want in zip(results, inline_results):
        assert got.instructions == want.instructions
        assert got.cycles == want.cycles
        assert got.ipc == want.ipc
        assert got.request_breakdown == want.request_breakdown


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
class TestWireProtocol:
    def test_job_round_trip(self):
        spec = make_spec(track_loads=True)
        key, clone = decode_job(encode_job(spec.key, spec))
        assert key == spec.key
        assert clone == spec
        assert clone.key == spec.key

    def test_result_round_trip(self):
        payload = {"stats": [1, 2, 3], "nested": {"ipc": 0.5}}
        result = decode_result(encode_result("k" * 8, payload, 1.25))
        assert result.ok
        assert result.key == "k" * 8
        assert result.payload == payload
        assert result.seconds == 1.25

    def test_error_round_trip(self):
        result = decode_result(encode_error("deadbeef", "Traceback: boom"))
        assert not result.ok
        assert result.error == "Traceback: boom"
        assert result.payload is None

    def test_hello_round_trip(self):
        assert decode_hello(encode_hello()) > 0

    def test_hello_carries_proto_version(self):
        msg = json.loads(encode_hello())
        assert msg["proto"] == PROTOCOL_VERSION

    def test_hello_proto_mismatch_is_protocol_mismatch(self):
        from repro.runner.wire import ProtocolMismatch

        msg = json.loads(encode_hello())
        msg["proto"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolMismatch, match="upgrade the older peer"):
            decode_hello(json.dumps(msg))

    def test_hello_without_proto_falls_back_to_envelope(self):
        # A pre-``proto`` peer of the *same* envelope revision is still
        # compatible (it predates the field, not the protocol); a
        # different envelope revision is a mismatch either way.
        from repro.runner.wire import ProtocolMismatch

        msg = json.loads(encode_hello())
        del msg["proto"]
        assert decode_hello(json.dumps(msg)) > 0
        msg["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolMismatch):
            decode_hello(json.dumps(msg))

    def test_not_json_is_wire_error(self):
        for line in ("%%% garbage %%%", "", "42", '"a string"', "[1,2]"):
            with pytest.raises(WireError):
                decode_result(line)

    def test_version_mismatch_is_wire_error(self):
        line = encode_job("abc", make_spec())
        msg = json.loads(line)
        msg["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_job(json.dumps(msg))

    def test_wrong_message_type_is_wire_error(self):
        with pytest.raises(WireError, match="expected"):
            decode_result(encode_job("abc", make_spec()))

    def test_truncated_line_is_wire_error(self):
        line = encode_job("abc", make_spec())
        with pytest.raises(WireError):
            decode_job(line[: len(line) // 2])

    def test_bit_flip_caught_by_digest(self):
        """A corrupted payload that still parses as JSON must be caught
        by the SHA-256 digest, never silently unpickled."""
        line = encode_job("abc", make_spec())
        msg = json.loads(line)
        b64 = msg["spec"]["b64"]
        msg["spec"]["b64"] = ("A" if b64[0] != "A" else "B") + b64[1:]
        with pytest.raises(WireError, match="digest|base64"):
            decode_job(json.dumps(msg))

    def test_malformed_payload_box_is_wire_error(self):
        line = encode_result("abc", {"x": 1}, 0.1)
        msg = json.loads(line)
        msg["payload"] = {"b64": msg["payload"]["b64"]}  # digest dropped
        with pytest.raises(WireError):
            decode_result(json.dumps(msg))


# ---------------------------------------------------------------------------
# Worker loop (driven directly, no subprocess)
# ---------------------------------------------------------------------------
class TestWorkerServe:
    def run_worker(self, lines, cache=None):
        stdout = io.StringIO()
        code = serve(io.StringIO("".join(lines)), stdout, cache=cache)
        assert code == 0
        out = stdout.getvalue().splitlines()
        assert decode_hello(out[0]) > 0  # first line is always the greeting
        return out[1:]

    def test_serves_one_job(self):
        spec = make_spec()
        replies = self.run_worker([encode_job(spec.key, spec) + "\n"])
        assert len(replies) == 1
        result = decode_result(replies[0])
        assert result.ok
        assert result.key == spec.key
        assert result.payload.instructions > 0
        assert result.seconds > 0.0

    def test_bad_line_answered_and_loop_continues(self):
        spec = make_spec()
        replies = self.run_worker(
            ["%%% not protocol %%%\n", encode_job(spec.key, spec) + "\n"]
        )
        assert len(replies) == 2
        bad = decode_result(replies[0])
        assert not bad.ok and bad.key == "?"
        assert decode_result(replies[1]).ok

    def test_simulation_error_becomes_error_result(self):
        spec = make_spec(app="NOPE")
        replies = self.run_worker([encode_job(spec.key, spec) + "\n"])
        result = decode_result(replies[0])
        assert not result.ok
        assert "NOPE" in result.error

    def test_cache_read_through(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(tmp_path / "cache")
        warm = ExperimentRunner(cache=cache, use_cache=True)
        expected = warm.run(spec)

        replies = self.run_worker(
            [encode_job(spec.key, spec) + "\n"],
            cache=ResultCache(tmp_path / "cache"),
        )
        result = decode_result(replies[0])
        assert result.ok
        assert result.seconds == 0.0  # served from cache, not simulated
        assert result.payload.instructions == expected.instructions

    def test_cache_populated_by_worker(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(tmp_path / "cache")
        self.run_worker([encode_job(spec.key, spec) + "\n"], cache=cache)
        assert cache.get(cache.key_for(spec)) is not MISS


# ---------------------------------------------------------------------------
# Loopback executor: the wire protocol without the network
# ---------------------------------------------------------------------------
class TestLoopbackExecutor:
    def test_matches_inline(self, inline_results):
        runner = ExperimentRunner(use_cache=False, executor="loopback")
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        assert runner.stats.dispatched == len(SPECS)
        assert runner.stats.simulated == len(SPECS)
        assert runner.stats.retried == 0

    @pytest.mark.parametrize("hook", ["mutate_job", "mutate_result"])
    @pytest.mark.parametrize("kind", ["truncate", "flip"])
    def test_single_corruption_is_retried(self, hook, kind, inline_results):
        runner = ExperimentRunner(use_cache=False)
        executor = LoopbackExecutor(
            stats=runner.stats, **{hook: corrupt_once(kind)}
        )
        runner.executor = executor
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        assert runner.stats.retried >= 1
        assert runner.stats.requeued >= 1

    def test_persistent_corruption_degrades_in_process(self, inline_results):
        runner = ExperimentRunner(use_cache=False)
        runner.executor = LoopbackExecutor(
            stats=runner.stats, mutate_result=corrupt_always("truncate")
        )
        with pytest.warns(RuntimeWarning, match="gave up"):
            results = runner.run_many(SPECS)
        assert_matches_inline(results, inline_results)
        # Every job exhausted its wire attempts, then ran in-process.
        assert runner.stats.simulated == len(SPECS)

    def test_simulation_error_propagates(self):
        runner = ExperimentRunner(use_cache=False, executor="loopback")
        with pytest.raises(RemoteJobError, match="NOPE"):
            runner.run(make_spec(app="NOPE"))


# ---------------------------------------------------------------------------
# Pool executor (explicit)
# ---------------------------------------------------------------------------
class TestPoolExecutor:
    def test_matches_inline(self, inline_results):
        runner = ExperimentRunner(
            workers=2, use_cache=False, executor="pool"
        )
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        assert runner.stats.dispatched == len(SPECS)

    def test_auto_choice_still_uses_pool(self, inline_results):
        """executor=None + workers>1 keeps the historical pool path."""
        runner = ExperimentRunner(workers=2, use_cache=False, executor=None)
        runner.executor = None  # force auto even under $REPRO_EXECUTOR
        assert_matches_inline(runner.run_many(SPECS), inline_results)

    def test_unknown_executor_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ExperimentRunner(use_cache=False, executor="carrier-pigeon")


# ---------------------------------------------------------------------------
# Remote executor: real worker subprocesses over the wire
# ---------------------------------------------------------------------------
class TestRemoteExecutor:
    def remote_runner(self, **kwargs):
        kwargs.setdefault("use_cache", False)
        kwargs.setdefault("executor", "remote")
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("backoff", 0.01)
        return ExperimentRunner(**kwargs)

    def test_matches_inline(self, inline_results):
        runner = self.remote_runner()
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        assert runner.stats.dispatched == len(SPECS)
        assert runner.stats.worker_deaths == 0

    def test_worker_killed_mid_job(self, tmp_path, inline_results):
        runner = self.remote_runner(
            hosts=["a"],
            worker_command=flaky_worker_command("die", tmp_path / "marker"),
        )
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        assert runner.stats.worker_deaths >= 1
        assert runner.stats.requeued >= 1
        assert runner.stats.retried >= 1

    def test_response_timeout_requeues(self, tmp_path, inline_results):
        runner = self.remote_runner(
            hosts=["a"],
            job_timeout=2.0,
            worker_command=flaky_worker_command("hang", tmp_path / "marker"),
        )
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        assert runner.stats.worker_deaths >= 1
        assert runner.stats.retried >= 1

    def test_corrupted_worker_output(self, tmp_path, inline_results):
        runner = self.remote_runner(
            hosts=["a"],
            worker_command=flaky_worker_command("garbage", tmp_path / "marker"),
        )
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        assert runner.stats.worker_deaths >= 1

    def test_banner_instead_of_hello(self, tmp_path, inline_results):
        """An SSH-style banner on stdout must recycle the worker, not
        be mistaken for protocol."""
        runner = self.remote_runner(
            hosts=["a"],
            worker_command=flaky_worker_command("banner", tmp_path / "marker"),
        )
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        assert runner.stats.worker_deaths >= 1

    def test_unlaunchable_command_degrades(self, inline_results):
        runner = self.remote_runner(
            worker_command="/nonexistent/worker-binary --serve"
        )
        with pytest.warns(RuntimeWarning, match="unavailable"):
            results = runner.run_many(SPECS)
        assert_matches_inline(results, inline_results)
        assert runner.stats.pool_fallbacks == 1

    def test_permanently_broken_worker_degrades(self, inline_results):
        """A command that speaks garbage forever must never wedge the
        sweep: retries exhaust, the engine finishes in-process."""
        runner = self.remote_runner(
            hosts=["a"],
            worker_command='{python} -c "print(42)"',
        )
        with pytest.warns(RuntimeWarning):
            results = runner.run_many(SPECS)
        assert_matches_inline(results, inline_results)
        assert runner.stats.simulated == len(SPECS)

    def test_simulation_error_propagates(self):
        runner = self.remote_runner(hosts=["a"])
        with pytest.raises(RemoteJobError, match="NOPE"):
            runner.run(make_spec(app="NOPE"))

    def test_worker_side_cache_read_through(self, tmp_path, inline_results):
        """Workers launched with --cache-dir serve hits without
        simulating; the record's 0.0s wall-clock is the tell."""
        cache_dir = tmp_path / "shared-cache"
        warm = ExperimentRunner(cache=ResultCache(cache_dir), use_cache=True)
        warm.run_many(SPECS)

        runner = self.remote_runner(
            hosts=["a"],
            worker_command=(
                "{python} -u -m repro worker --cache-dir " + str(cache_dir)
            ),
        )
        assert_matches_inline(runner.run_many(SPECS), inline_results)
        run_records = [r for r in runner.stats.records if r.source == "run"]
        assert run_records and all(r.seconds == 0.0 for r in run_records)


# ---------------------------------------------------------------------------
# Cache backends under fault injection
# ---------------------------------------------------------------------------
class TestSharedCacheBackend:
    def shared_cache(self, tmp_path) -> ResultCache:
        return ResultCache(backend=SharedDirectoryBackend(tmp_path / "cache"))

    def test_round_trip(self, tmp_path):
        cache = self.shared_cache(tmp_path)
        cache.put("ab" * 16, {"payload": 1})
        assert cache.get("ab" * 16) == {"payload": 1}

    def test_first_writer_wins(self, tmp_path):
        """Read-through under the lock: a key that already landed is
        never rewritten (deterministic payloads make this sound)."""
        cache = self.shared_cache(tmp_path)
        cache.put("cd" * 16, "first")
        cache.put("cd" * 16, "second")
        assert cache.get("cd" * 16) == "first"

    def test_concurrent_writers_race_one_key(self, tmp_path):
        cache = self.shared_cache(tmp_path)
        key = "ef" * 16
        barrier = threading.Barrier(2)
        errors = []

        def writer(tag):
            try:
                barrier.wait(timeout=5)
                for _ in range(20):
                    ResultCache(
                        backend=SharedDirectoryBackend(tmp_path / "cache")
                    ).put(key, {"writer": tag, "blob": "x" * 4096})
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        value = cache.get(key)
        assert value is not MISS
        assert value["writer"] in ("a", "b")  # a complete entry, never torn

    def test_truncated_entry_degrades_to_miss(self, tmp_path):
        cache = self.shared_cache(tmp_path)
        key = "12" * 16
        cache.put(key, {"x": 1})
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(key) is MISS
        assert not path.exists()  # discarded, will be rewritten cleanly

    def test_stale_schema_version_is_miss(self, tmp_path):
        cache = self.shared_cache(tmp_path)
        key = "34" * 16
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps(
                {"schema": CACHE_SCHEMA_VERSION - 1, "key": key, "payload": 1}
            )
        )
        assert cache.get(key) is MISS

    def test_salt_mismatch_misses_and_resimulates(self, tmp_path, monkeypatch):
        spec = make_spec()
        first = ExperimentRunner(cache=self.shared_cache(tmp_path))
        first.run(spec)
        assert first.stats.simulated == 1

        monkeypatch.setenv("REPRO_CACHE_SALT", "different-epoch")
        second = ExperimentRunner(cache=self.shared_cache(tmp_path))
        second.run(spec)
        assert second.stats.simulated == 1  # salted key changed: clean miss
        assert second.stats.cache_hits == 0

    def test_read_only_cache_dir_degrades(self, tmp_path):
        """Writes into an unwritable cache warn and continue."""
        backend = FlakyBackend(
            SharedDirectoryBackend(tmp_path / "cache"),
            fail_on=1,
            method="write",
            exc=PermissionError("read-only filesystem"),
        )
        runner = ExperimentRunner(cache=ResultCache(backend=backend))
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            result = runner.run(make_spec())
        assert result.instructions > 0
        assert runner.stats.simulated == 1

    def test_flaky_write_on_nth_call(self, tmp_path):
        """Cache-write failure on the 2nd job: that entry is simply not
        cached; every other entry lands and no job is lost."""
        backend = FlakyBackend(
            SharedDirectoryBackend(tmp_path / "cache"), fail_on=2, method="write"
        )
        runner = ExperimentRunner(cache=ResultCache(backend=backend))
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            results = runner.run_many(SPECS)
        assert len(results) == len(SPECS)
        assert runner.stats.simulated == len(SPECS)
        assert ResultCache(backend=backend.inner).info().entries == len(SPECS) - 1

    def test_flaky_read_degrades_to_resimulation(self, tmp_path):
        backend = FlakyBackend(
            SharedDirectoryBackend(tmp_path / "cache"), fail_on=1, method="read"
        )
        warm = ExperimentRunner(cache=ResultCache(backend=backend.inner))
        expected = warm.run(make_spec())

        runner = ExperimentRunner(cache=ResultCache(backend=backend))
        result = runner.run(make_spec())
        assert runner.stats.simulated == 1  # read failed -> re-simulated
        assert result.instructions == expected.instructions

    def test_lock_files_do_not_pollute_info(self, tmp_path):
        cache = self.shared_cache(tmp_path)
        cache.put("ab" * 16, 1)
        assert cache.info().entries == 1
        assert cache.clear() == 1


# ---------------------------------------------------------------------------
# Key stability (property-style)
# ---------------------------------------------------------------------------
class TestKeyStability:
    def canonical_spec(self):
        return make_spec(track_loads=True, max_concurrent_ctas=4)

    def test_key_identical_in_child_process(self):
        """stable_hash must not depend on PYTHONHASHSEED, interning, or
        any other per-process state: a child computes the same key."""
        child = (
            "from repro.config import scaled_config\n"
            "from repro.runner import JobSpec\n"
            "spec = JobSpec.build('S2', 'baseline',"
            " scaled_config(num_sms=1, window_cycles=600), scale=0.05,"
            " overrides={'track_loads': True, 'max_concurrent_ctas': 4})\n"
            "print(spec.key)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env=worker_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == self.canonical_spec().key

    def test_key_invariant_under_override_insertion_order(self):
        items = [("track_loads", True), ("max_concurrent_ctas", 2), ("backend", "vector")]
        keys = {
            JobSpec.build("S2", "baseline", CFG, overrides=dict(perm)).key
            for perm in permutations(items)
        }
        assert len(keys) == 1

    def test_key_survives_pickle_round_trip(self):
        spec = self.canonical_spec()
        assert pickle.loads(pickle.dumps(spec)).key == spec.key

    def test_every_single_field_mutation_changes_key(self):
        base = self.canonical_spec()
        mutations = {
            "app": make_spec(app="LI", track_loads=True, max_concurrent_ctas=4),
            "arch": make_spec(arch="linebacker", track_loads=True, max_concurrent_ctas=4),
            "scale": make_spec(scale=0.06, track_loads=True, max_concurrent_ctas=4),
            "seed": make_spec(
                config=replace(CFG, seed=CFG.seed + 1),
                track_loads=True,
                max_concurrent_ctas=4,
            ),
            "deep config": make_spec(
                config=replace(CFG, gpu=CFG.gpu.with_l1_size(16 * 1024)),
                track_loads=True,
                max_concurrent_ctas=4,
            ),
            "override value": make_spec(track_loads=True, max_concurrent_ctas=5),
            "override removed": make_spec(track_loads=True),
            "override added": make_spec(
                track_loads=True, max_concurrent_ctas=4, timeseries=True
            ),
        }
        keys = {"base": base.key}
        for name, mutant in mutations.items():
            keys[name] = mutant.key
        assert len(set(keys.values())) == len(keys), (
            "key collision between field mutations: "
            f"{ {k: v[:8] for k, v in keys.items()} }"
        )


# ---------------------------------------------------------------------------
# RunnerStats report
# ---------------------------------------------------------------------------
class TestRunnerStatsReport:
    def test_to_dict_is_json_serializable(self):
        runner = ExperimentRunner(use_cache=False, executor="loopback")
        runner.run_many([SPECS[0], SPECS[0]])
        report = json.loads(json.dumps(runner.stats.to_dict()))
        assert report["simulated"] == 1
        assert report["coalesced"] == 1
        assert report["dispatched"] == 1
        assert len(report["records"]) == 2
        assert {r["source"] for r in report["records"]} == {"run", "coalesced"}

    def test_counters_default_zero(self):
        stats = RunnerStats()
        report = stats.to_dict(include_records=False)
        assert "records" not in report
        assert report["retried"] == 0
        assert report["requeued"] == 0
        assert report["worker_deaths"] == 0


# ---------------------------------------------------------------------------
# Directory backend keeps historical behaviour
# ---------------------------------------------------------------------------
class TestDirectoryBackendCompat:
    def test_default_cache_uses_directory_backend(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert isinstance(cache.backend, DirectoryBackend)
        assert not isinstance(cache.backend, SharedDirectoryBackend)
        assert cache.root == tmp_path / "cache"

    def test_root_and_backend_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            ResultCache(tmp_path, backend=DirectoryBackend(tmp_path))

    def test_last_writer_wins_without_lock(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" * 16, "first")
        cache.put("ab" * 16, "second")
        assert cache.get("ab" * 16) == "second"
