"""Tests for the parallel experiment engine (`repro.runner`):
content hashing, the persistent result cache, process-pool execution,
the architecture registry, and corrupted-cache recovery."""

import json
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.config
from repro.analysis import ExperimentContext
from repro.config import canonical_tokens, scaled_config, stable_hash
from repro.core.victim_tag_table import VictimTagTable
from repro.runner import (
    ARCHITECTURES,
    CACHE_SCHEMA_VERSION,
    MISS,
    ExperimentRunner,
    JobSpec,
    ResultCache,
    execute_job,
    resolve,
    wire,
)
from repro.runner.fleet import worker_env
from repro.runner.snapshot import portable
from repro.service.schema import encode_jobspec
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec
from repro.workloads.spec import KernelPhase, TenantSpec, WorkloadSpec

sys.path.insert(0, str(Path(__file__).parent))
from golden import fingerprint_value  # noqa: E402

CFG = scaled_config(num_sms=1, window_cycles=600)
#: Every registry row that builds an extension factory.
HOOKED_ROWS = sorted(name for name, row in ARCHITECTURES.items() if row.extension)


def make_spec(app="S2", arch="baseline", config=CFG, scale=0.1, **overrides):
    return JobSpec.build(
        app=app, arch=arch, config=config, scale=scale, overrides=overrides
    )


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))
    return ExperimentRunner(**kwargs)


class TestStableHash:
    def test_equal_values_hash_equal(self):
        a = make_spec()
        b = make_spec(config=scaled_config(num_sms=1, window_cycles=600))
        assert a.config is not b.config
        assert a.key == b.key

    def test_any_field_variation_changes_hash(self):
        base = make_spec()
        variants = [
            make_spec(app="LI"),
            make_spec(arch="linebacker"),
            make_spec(scale=0.2),
            make_spec(config=replace(CFG, seed=7)),
            make_spec(config=replace(CFG, max_cycles=CFG.max_cycles + 1)),
            make_spec(config=replace(CFG, gpu=CFG.gpu.with_l1_size(16 * 1024))),
            make_spec(
                config=replace(
                    CFG, linebacker=replace(CFG.linebacker, vtt_ways=8)
                )
            ),
            make_spec(track_loads=True),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_hash_ignores_override_order(self):
        a = JobSpec.build(
            "S2", "baseline", CFG, overrides={"track_loads": True, "timeseries": True}
        )
        b = JobSpec.build(
            "S2", "baseline", CFG, overrides={"timeseries": True, "track_loads": True}
        )
        assert a.key == b.key

    def test_canonical_rejects_unencodable(self):
        with pytest.raises(TypeError):
            canonical_tokens(object())

    def test_stable_hash_is_content_not_identity(self):
        assert stable_hash(CFG) == stable_hash(replace(CFG))
        assert stable_hash(CFG) != stable_hash(replace(CFG, seed=CFG.seed + 1))


class TestRegistry:
    def test_all_paper_architectures_registered(self):
        assert set(ARCHITECTURES) >= {
            "baseline",
            "best_swl",
            "linebacker",
            "victim_caching",
            "selective_victim_caching",
            "pcal",
            "cerf",
            "pcal_svc",
            "pcal_cerf",
            "cache_ext",
            "best_swl_cache_ext",
            "lb_cache_ext",
        }

    def test_resolve_unknown_is_helpful(self):
        with pytest.raises(KeyError, match="linebacker"):
            resolve("not_an_arch")

    def test_ctx_run_unknown_arch(self, tmp_path):
        ctx = ExperimentContext(
            config=CFG, scale=0.1, apps=("S2",), runner=make_runner(tmp_path)
        )
        # Refused when the spec is built, before anything is dispatched.
        with pytest.raises(ValueError, match="unknown architecture 'not_an_arch'"):
            ctx.run("S2", "not_an_arch")

    @pytest.mark.parametrize("arch", HOOKED_ROWS)
    def test_factories_are_picklable(self, arch):
        # What a row hands a worker: no lambda, closure or local class.
        factory = ARCHITECTURES[arch].extension(CFG)
        clone = pickle.loads(pickle.dumps(factory))
        assert type(clone()) is type(factory())

    def test_factories_hash_the_same_in_a_fresh_process(self):
        code = (
            "from repro.config import scaled_config, stable_hash\n"
            "from repro.runner import ARCHITECTURES\n"
            "cfg = scaled_config(num_sms=1, window_cycles=600)\n"
            f"print([stable_hash(ARCHITECTURES[a].extension(cfg)) for a in {HOOKED_ROWS!r}])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=worker_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        here = [stable_hash(ARCHITECTURES[arch].extension(CFG)) for arch in HOOKED_ROWS]
        assert done.stdout.strip() == repr(here)


class TestCacheRoundTrip:
    def test_hit_after_process_restart(self, tmp_path):
        spec = make_spec()
        first = make_runner(tmp_path)
        cold = first.run(spec)
        assert first.stats.simulated == 1

        # A fresh runner over the same directory models a new process:
        # the in-memory memo is empty, only the disk cache persists.
        warm_runner = make_runner(tmp_path)
        warm = warm_runner.run(spec)
        assert warm_runner.stats.simulated == 0
        assert warm_runner.stats.cache_hits == 1
        assert warm.ipc == cold.ipc
        assert warm.instructions == cold.instructions
        assert warm.request_breakdown == cold.request_breakdown

    def test_memo_preserves_identity(self, tmp_path):
        runner = make_runner(tmp_path)
        spec = make_spec()
        assert runner.run(spec) is runner.run(spec)

    def test_corrupted_entry_recovers(self, tmp_path):
        spec = make_spec()
        runner = make_runner(tmp_path)
        runner.run(spec)
        cache = runner.cache
        path = cache.path_for(cache.key_for(spec))
        assert path.is_file()
        path.write_bytes(b"this is not a pickle")

        recovered = make_runner(tmp_path)
        result = recovered.run(spec)
        assert recovered.stats.simulated == 1  # fell back to re-simulation
        assert result.instructions > 0
        # The entry was rewritten and is healthy again.
        assert make_runner(tmp_path).run(spec).ipc == result.ipc

    def test_foreign_schema_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for(make_spec())
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        for schema in (-1, CACHE_SCHEMA_VERSION - 1):
            path.write_bytes(pickle.dumps({"schema": schema, "key": key, "payload": 3}))
            assert cache.get(key) is MISS
            assert not path.exists()  # discarded, not resurrected

    def test_no_cache_runner_never_touches_disk(self):
        runner = ExperimentRunner(use_cache=False)
        assert runner.cache is None
        runner.run(make_spec())
        assert runner.stats.simulated == 1

    def test_info_and_clear(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.run(make_spec())
        info = runner.cache.info()
        assert info.entries == 1
        assert info.total_bytes > 0
        assert runner.cache.clear() == 1
        assert runner.cache.info().entries == 0


class TestParallelEquivalence:
    SPECS = [
        make_spec(app="S2", arch="baseline"),
        make_spec(app="LI", arch="baseline"),
        make_spec(app="S2", arch="linebacker"),
    ]

    def test_workers2_matches_serial(self):
        serial = ExperimentRunner(workers=1, use_cache=False)
        parallel = ExperimentRunner(workers=2, use_cache=False)
        serial_results = serial.run_many(self.SPECS)
        parallel_results = parallel.run_many(self.SPECS)
        for s, p in zip(serial_results, parallel_results):
            assert s.ipc == p.ipc
            assert s.instructions == p.instructions
            assert s.cycles == p.cycles
            assert s.request_breakdown == p.request_breakdown

    def test_cached_matches_fresh(self, tmp_path):
        spec = make_spec(app="LI")
        fresh = ExperimentRunner(use_cache=False).run(spec)
        make_runner(tmp_path).run(spec)
        cached = make_runner(tmp_path).run(spec)
        assert cached.ipc == fresh.ipc
        assert cached.instructions == fresh.instructions

    def test_duplicate_specs_coalesce(self, tmp_path):
        runner = make_runner(tmp_path)
        spec = make_spec()
        a, b = runner.run_many([spec, spec])
        assert a is b
        assert runner.stats.simulated == 1

    def test_duplicate_specs_each_get_a_record(self, tmp_path):
        """Regression: duplicates coalesced within one ``run_many``
        batch used to vanish from ``stats.records`` entirely, so the
        record count silently disagreed with the input count. Every
        input spec must yield exactly one record."""
        runner = make_runner(tmp_path)
        spec_a, spec_b = make_spec(), make_spec(app="LI")
        batch = [spec_a, spec_b, spec_a, spec_a]
        results = runner.run_many(batch)
        assert len(results) == len(batch)
        assert len(runner.stats.records) == len(batch)
        sources = [r.source for r in runner.stats.records if r.key == spec_a.key]
        assert sorted(sources) == ["coalesced", "coalesced", "run"]
        assert runner.stats.coalesced == 2
        assert runner.stats.simulated == 2


class TestContextDelegation:
    def test_best_swl_keyed_by_content_not_identity(self, tmp_path):
        """Regression: the old memo keyed Best-SWL on ``id(config)``,
        which aliases across equal-valued configs. Two contexts built
        from *distinct but equal* configs must share one sweep."""
        runner = make_runner(tmp_path)
        ctx_a = ExperimentContext(
            config=scaled_config(num_sms=1, window_cycles=600),
            scale=0.1,
            apps=("S2",),
            runner=runner,
        )
        ctx_b = ExperimentContext(
            config=scaled_config(num_sms=1, window_cycles=600),
            scale=0.1,
            apps=("S2",),
            runner=runner,
        )
        assert ctx_a.config is not ctx_b.config
        first = ctx_a.run("S2", "best_swl")
        second = ctx_b.run("S2", "best_swl")
        assert first is second  # one sweep, memo-shared by content hash

    def test_removed_wrapper_methods_are_gone(self, tmp_path):
        # The one-method-per-architecture API was deprecated in PR 1 and
        # removed in PR 6; the registry spelling is the only one left.
        ctx = ExperimentContext(
            config=CFG, scale=0.1, apps=("S2",), runner=make_runner(tmp_path)
        )
        for legacy in ("baseline", "linebacker", "pcal_svc", "cache_ext"):
            assert not hasattr(ctx, legacy)
        assert ctx.run("S2", "baseline") is ctx.run("S2", "baseline")

    def test_portable_results_support_analysis_surface(self, tmp_path):
        ctx = ExperimentContext(
            config=CFG, scale=0.1, apps=("S2",), runner=make_runner(tmp_path)
        )
        result = ctx.run("S2", "linebacker")
        assert result.sms[0].done
        assert result.sms[0].l1.num_sets >= 1
        for ext in result.extensions:
            assert ext.stats is not None
            assert ext.load_monitor.windows_elapsed >= 0
            assert ext.vtt is not None
        tracked = ctx.run("S2", "baseline", track_loads=True)
        assert tracked.sms[0].load_tracker is not None
        assert tracked.sms[0].load_tracker.mean_streaming_bytes() >= 0.0


class TestExecuteJob:
    def test_execute_job_is_self_contained(self):
        spec = make_spec(scale=0.05)
        payload, seconds = execute_job(spec)
        assert payload.instructions > 0
        assert seconds > 0.0

    def test_spec_is_picklable(self):
        spec = make_spec(arch="linebacker", lb_config=CFG.linebacker)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key == spec.key


def tiny_linebacker_spec(name="wl-tiny-lb"):
    """A few-millisecond Linebacker job (the benchmark's tiny-job shape)."""
    phase = KernelPhase(
        iterations=12,
        loads=(
            LoadSpec(0x100, Pattern.REUSE, 8, Scope.CTA),
            LoadSpec(0x204, Pattern.STREAM, 0),
        ),
        stores=(StoreSpec(0x510, every_iterations=4),),
    )
    workload = WorkloadSpec(
        name=name, description="tiny linebacker job", num_ctas=3,
        warps_per_cta=2, regs_per_thread=16,
        tenants=(TenantSpec(name="main", phases=(phase,)),),
    )
    return JobSpec.build(app=name, arch="linebacker", config=CFG, workload=workload)


class TestPayloadBudget:
    """A Linebacker result must stay small: it is pickled on the worker,
    unpickled on the client, pickled again by the cache and unpickled
    on every warm read. The dense VTT made it 46,135 bytes."""

    def test_tiny_linebacker_payload_under_8_kib(self, tmp_path):
        spec = tiny_linebacker_spec()
        payload, seconds = execute_job(spec)
        assert len(pickle.dumps(portable(payload))) < 8 * 1024
        want = fingerprint_value("linebacker", payload)

        over_wire = wire.decode_result(wire.encode_result(spec.key, payload, seconds))
        assert fingerprint_value("linebacker", over_wire.payload) == want

        cache = ResultCache(tmp_path / "cache")
        cache.put(cache.key_for(spec), payload)
        assert fingerprint_value("linebacker", cache.get(cache.key_for(spec))) == want

    def test_pickled_vtt_grows_with_valid_entries_not_geometry(self):
        vtt = VictimTagTable(num_sets=48, ways=4, max_partitions=8)
        assert len(vtt.partitions) == 8
        empty = len(pickle.dumps(vtt))
        assert empty < 1536  # 43,729 bytes as a dense entry array
        for vp in vtt.partitions:
            vtt.activate(vp.index)
        sizes = []
        for line in range(1536):
            vtt.insert(line)
            if vtt.valid_entries() in (256, 1536):
                sizes.append(len(pickle.dumps(vtt)))
        assert empty < sizes[0] < sizes[1]
        assert (sizes[1] - empty) / (sizes[0] - empty) == pytest.approx(6, rel=0.2)
        clone = pickle.loads(pickle.dumps(vtt))
        assert set(clone.valid_lines()) == set(vtt.valid_lines())
        assert clone.lookup(7) == vtt.lookup(7)


class TestHashOnce:
    @pytest.fixture
    def spec_hashes(self, monkeypatch):
        """Count top-level ``canonical_tokens(JobSpec)`` calls."""
        counts = []
        real = repro.config.canonical_tokens

        def counting(obj):
            if isinstance(obj, JobSpec):
                counts.append(obj)
            return real(obj)

        monkeypatch.setattr(repro.config, "canonical_tokens", counting)
        return counts

    def test_cold_plus_warm_run_many_hashes_each_spec_once(self, tmp_path, spec_hashes):
        specs = [make_spec(app=app, scale=0.05) for app in ("S2", "LI", "KM")]
        cold = make_runner(tmp_path)
        cold.run_many(specs)
        assert cold.stats.simulated == len(specs)
        warm = make_runner(tmp_path)
        warm.run_many(specs)
        assert warm.stats.cache_hits == len(specs)
        assert len(spec_hashes) == len(specs)
        assert {id(s) for s in spec_hashes} == {id(s) for s in specs}

    def test_replace_gets_a_fresh_key(self):
        spec = make_spec()
        other = replace(spec, scale=0.2)
        assert other.key != spec.key
        assert other.key == make_spec(scale=0.2).key

    def test_pickled_spec_carries_its_key(self, spec_hashes):
        spec = make_spec()
        key = spec.key
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key == key
        assert len(spec_hashes) == 1  # the clone did not re-hash

    def test_key_is_not_part_of_the_spec_content(self):
        fresh, hashed = make_spec(), make_spec()
        key = hashed.key
        assert fresh == hashed
        assert canonical_tokens(fresh) == canonical_tokens(hashed)
        assert key not in canonical_tokens(hashed)
        assert key not in json.dumps(encode_jobspec(hashed))
        assert stable_hash(hashed) == key


class TestCacheSchemaV4:
    def test_v3_entry_is_resimulated_and_rewritten_as_v4(self, tmp_path):
        """The sparse-VTT payload bumped the schema 3 -> 4; that a v3
        entry is a discarded miss is checked by
        ``test_foreign_schema_entry_is_a_miss``."""
        assert CACHE_SCHEMA_VERSION == 4
        spec = make_spec(scale=0.05)
        runner = make_runner(tmp_path)
        key = runner.cache.key_for(spec)
        path = runner.cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"schema": 3, "key": key, "payload": "stale"}))
        result = runner.run(spec)
        assert runner.stats.simulated == 1
        entry = pickle.loads(path.read_bytes())
        assert entry["schema"] == 4
        assert entry["payload"].instructions == result.instructions
