"""The pluggable execution-backend layer (``repro.engine``).

Five contracts, mirroring the ISSUE's acceptance bars:

* **Registry**: name resolution, unknown names, duplicate
  registration, and the per-arch ``supports_backends`` capability,
  computed from the registry row.
* **Selection**: with no backend named, the engine is chosen from the
  request — ``vector`` for extension-free snapshot runs, ``object``
  otherwise — silently, and without moving any cache key.
* **Golden differential**: the vector engine is bit-identical to the
  object engine — every reported statistic — across the extension-free
  architectures, a pinned app matrix, the committed fuzz-corpus specs,
  and every executor path (inline, loopback).
* **Loud fallback**: a backend that cannot run a request warns with
  :class:`BackendFallbackWarning` and runs on ``object``; a supported
  request never warns.
* **Cache identity**: ``backend`` participates in job content hashes
  when set and stays hash-neutral when unset, across the in-process
  spec builder and the HTTP job schema (v3 validation included).
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines.swl import BestSWLResult
from repro.config import scaled_config
from repro.engine import (
    BACKENDS,
    BackendError,
    BackendFallbackWarning,
    EngineBackend,
    EngineRequest,
    backend_names,
    dispatch,
    register_backend,
    resolve_backend,
    select_backend,
)
from repro.gpu.extension import SMExtension
from repro.options import RunOptions
from repro.runner import ExperimentRunner, JobSpec, ResultCache
from repro.runner.registry import ARCHITECTURES, resolve
from repro.service.schema import (
    JOB_SCHEMA_VERSION,
    SchemaError,
    decode_jobspec,
    encode_jobspec,
)
from repro.workloads.spec import build_workload, load_workload_file
from repro.workloads.suite import kernel_for

CORPUS = Path(__file__).parent / "fuzz_corpus"

#: The pinned golden matrix: extension-free archs x apps with distinct
#: memory behaviour (streaming, reuse-heavy, divergent, mixed).
GOLDEN_ARCHS = ("baseline", "best_swl", "cache_ext")
GOLDEN_APPS = ("S2", "LI", "BG")
SCALE = 0.05
SMS = 2


def fingerprint(result) -> dict:
    """Every reported statistic of a simulation result."""
    stats = result.sm_stats
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "loads": sum(s.loads for s in stats),
        "stores": sum(s.stores for s in stats),
        "l1_hits": sum(s.l1_hits for s in stats),
        "l1_misses": sum(s.l1_misses for s in stats),
        "victim_hits": sum(s.victim_hits for s in stats),
        "bypasses": sum(s.bypasses for s in stats),
        "mem_requests": sum(s.mem_requests for s in stats),
        "dram_reads": result.dram_reads,
        "dram_writes": result.dram_writes,
        "per_sm_instructions": [s.instructions for s in stats],
    }


def arch_fingerprint(result) -> dict:
    """Fingerprint for either return shape (result | Best-SWL sweep)."""
    if isinstance(result, BestSWLResult):
        fp = fingerprint(result.best_result)
        fp["best_limit"] = result.best_limit
        fp["sweep_ipc"] = result.sweep_ipc
        return fp
    return fingerprint(result)


def run_arch(arch: str, kernel, backend=None, sms=SMS):
    config = scaled_config(num_sms=sms)
    return resolve(arch).runner(config, kernel, backend=backend)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_are_registered(self):
        assert backend_names() == ("object", "vector")
        for name in backend_names():
            assert isinstance(BACKENDS[name], EngineBackend)
            assert BACKENDS[name].name == name

    def test_explicit_names_resolve(self):
        assert resolve_backend("object").name == "object"
        assert resolve_backend("vector").name == "vector"

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(BackendError, match="object.*vector"):
            resolve_backend("cuda")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend(BACKENDS["object"])

    def test_supports_backends_capability_table(self):
        for name, spec in ARCHITECTURES.items():
            assert "object" in spec.supports_backends, name
            for backend in spec.supports_backends:
                assert backend in backend_names(), (name, backend)
        # Extension-attaching archs are object-only; extension-free
        # ones advertise the vector engine.
        assert ARCHITECTURES["linebacker"].supports_backends == ("object",)
        assert "vector" in ARCHITECTURES["baseline"].supports_backends
        assert "vector" in ARCHITECTURES["best_swl"].supports_backends
        assert "vector" in ARCHITECTURES["cache_ext"].supports_backends

    def test_vector_declines_unsupported_features(self):
        kernel = kernel_for("S2", SCALE)
        config = scaled_config(num_sms=1)
        vector = BACKENDS["vector"]
        base = dict(config=config, kernel=kernel)
        assert vector.supports(EngineRequest(**base)) is None
        declined = (
            dict(extension_factory=lambda: None),
            dict(track_loads=True),
            dict(keep_objects=True),
            dict(timeseries=True),
        )
        for knobs in declined:
            reason = vector.supports(EngineRequest(**base, **knobs))
            assert reason is not None, knobs


# ---------------------------------------------------------------------------
# Selection: backend=None picks the engine from the request
# ---------------------------------------------------------------------------
class _Counting:
    """A registered backend that counts the jobs it is handed."""

    def __init__(self, inner):
        self.inner, self.name, self.runs = inner, inner.name, 0

    def supports(self, request):
        return self.inner.supports(request)

    def run(self, request):
        self.runs += 1
        return self.inner.run(request)


def _request(gpu=None, **knobs) -> EngineRequest:
    config = scaled_config(num_sms=1)
    if gpu:
        config = replace(config, gpu=replace(config.gpu, **gpu))
    return EngineRequest(config=config, kernel=kernel_for("S2", SCALE), **knobs)


class TestSelection:
    #: ``_request`` knobs -> the engine an unpinned request runs on.
    TABLE = {
        "plain": ({}, "vector"),
        "cta_limit": ({"max_concurrent_ctas": 2}, "vector"),
        "extension": ({"extension_factory": SMExtension}, "object"),
        "track_loads": ({"track_loads": True}, "object"),
        "keep_objects": ({"keep_objects": True}, "object"),
        "timeseries": ({"timeseries": True}, "object"),
        "timing_dram": ({"gpu": {"dram_model": "timing"}}, "object"),
        "noc": ({"gpu": {"noc_enable": True}}, "object"),
    }

    @pytest.mark.parametrize("case", sorted(TABLE))
    def test_request_selects_engine(self, case):
        knobs, expected = self.TABLE[case]
        assert select_backend(_request(**knobs)).name == expected

    @pytest.mark.parametrize("case", ["plain", "timeseries"])
    def test_unpinned_dispatch_runs_the_selected_engine_silently(
        self, case, monkeypatch
    ):
        knobs, expected = self.TABLE[case]
        for name in backend_names():
            monkeypatch.setitem(BACKENDS, name, _Counting(BACKENDS[name]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any category, not only fallback
            dispatch(None, _request(**knobs))
        assert {n: b.runs for n, b in BACKENDS.items()} == {
            n: int(n == expected) for n in BACKENDS
        }

    def test_bench_labels_entries_with_the_engine_that_runs(self):
        from repro.bench import SimThroughput

        def label(backend=None):
            harness = SimThroughput(apps=("S2",), scale=SCALE, backend=backend)
            return harness.engine

        assert label() == "vector"
        assert label("object") == "object"

    def test_unpinned_key_is_the_parent_commits(self):
        # Computed at 314abe9, before selection existed: choosing the
        # engine must not move the identity of an unpinned job.
        spec = JobSpec.build(
            app="S2", arch="baseline", config=scaled_config(), scale=SCALE
        )
        assert spec.key == (
            "f3ac9671dbd5b935ea35e4db75371ad5f47dc33e8659105ba93e76836bac76a0"
        )

    def test_object_written_cache_entry_equals_a_fresh_default_run(self, tmp_path):
        def spec(backend):
            return JobSpec.build(
                app="S2", arch="baseline", config=scaled_config(num_sms=SMS),
                scale=SCALE, options=RunOptions(backend=backend),
            )

        def runner():
            return ExperimentRunner(
                cache=ResultCache(tmp_path), use_cache=True, executor="inline"
            )

        runner().run(spec("object"))
        warm = runner()
        stored = warm.run(spec("object"))
        assert warm.stats.cache_hits == 1 and warm.stats.simulated == 0
        fresh = ExperimentRunner(use_cache=False, executor="inline").run(spec(None))
        assert fingerprint(stored) == fingerprint(fresh)


# ---------------------------------------------------------------------------
# Golden differential: vector == object, bit for bit
# ---------------------------------------------------------------------------
class TestGoldenDifferential:
    @pytest.mark.parametrize("arch", GOLDEN_ARCHS)
    @pytest.mark.parametrize("app", GOLDEN_APPS)
    def test_vector_matches_object(self, arch, app):
        kernel = kernel_for(app, SCALE)
        obj = arch_fingerprint(run_arch(arch, kernel, backend="object"))
        vec = arch_fingerprint(run_arch(arch, kernel, backend="vector"))
        assert vec == obj

    @pytest.mark.parametrize(
        "corpus_file", sorted(p.name for p in CORPUS.glob("*.json"))
    )
    def test_vector_matches_object_on_fuzz_corpus(self, corpus_file):
        spec = load_workload_file(CORPUS / corpus_file)
        kernel = build_workload(spec, scale=1.0)
        obj = fingerprint(run_arch("baseline", kernel, "object", sms=1))
        vec = fingerprint(run_arch("baseline", kernel, "vector", sms=1))
        assert vec == obj

    def test_corpus_is_present(self):
        # The parametrization above must never silently become empty.
        assert len(list(CORPUS.glob("*.json"))) >= 3


# ---------------------------------------------------------------------------
# Executor paths: the backend override rides the job spec everywhere
# ---------------------------------------------------------------------------
class TestExecutors:
    @pytest.fixture(scope="class")
    def inline_object(self):
        runner = ExperimentRunner(use_cache=False, executor="inline")
        return runner.run(self._spec(backend="object")).ipc

    def _spec(self, backend):
        options = RunOptions(backend=backend)
        return JobSpec.build(
            app="S2",
            arch="baseline",
            config=scaled_config(num_sms=SMS),
            scale=SCALE,
            options=options,
        )

    @pytest.mark.parametrize("executor", ["inline", "loopback"])
    def test_vector_matches_object_via_executor(self, executor, inline_object):
        runner = ExperimentRunner(use_cache=False, executor=executor)
        result = runner.run(self._spec(backend="vector"))
        assert result.ipc == inline_object


# ---------------------------------------------------------------------------
# Fallback semantics
# ---------------------------------------------------------------------------
class TestFallback:
    def test_unsupported_request_warns_and_matches_object(self):
        kernel = kernel_for("S2", SCALE)
        config = scaled_config(num_sms=1)
        with pytest.warns(BackendFallbackWarning, match="extension"):
            vec = resolve("linebacker").runner(config, kernel, backend="vector")
        obj = resolve("linebacker").runner(config, kernel)
        assert fingerprint(vec) == fingerprint(obj)

    def test_supported_request_never_warns(self):
        kernel = kernel_for("S2", SCALE)
        config = scaled_config(num_sms=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            resolve("baseline").runner(config, kernel, backend="vector")

    def test_dispatch_object_never_warns(self):
        kernel = kernel_for("S2", SCALE)
        request = EngineRequest(
            config=scaled_config(num_sms=1), kernel=kernel, timeseries=True
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            dispatch("object", request)

    def test_dispatch_unknown_backend_raises(self):
        kernel = kernel_for("S2", SCALE)
        request = EngineRequest(config=scaled_config(num_sms=1), kernel=kernel)
        with pytest.raises(BackendError):
            dispatch("cuda", request)


# ---------------------------------------------------------------------------
# Cache identity
# ---------------------------------------------------------------------------
class TestCacheIdentity:
    def _spec(self, **options):
        return JobSpec.build(
            app="S2",
            arch="baseline",
            config=scaled_config(),
            scale=SCALE,
            options=RunOptions(**options) if options else None,
        )

    def test_backend_separates_cache_keys(self):
        assert self._spec(backend="vector").key != self._spec().key
        assert (
            self._spec(backend="vector").key != self._spec(backend="object").key
        )

    def test_none_backend_is_hash_neutral(self):
        # A default-constructed RunOptions must hash like no options at
        # all, so pre-backend cache entries stay valid.
        assert self._spec(backend=None).key == self._spec().key

    def test_backend_rides_in_params(self):
        spec = self._spec(backend="vector")
        assert ("backend", "vector") in spec.params


# ---------------------------------------------------------------------------
# HTTP job schema v3
# ---------------------------------------------------------------------------
class TestSchema:
    def _doc(self, arch="baseline", backend="vector"):
        spec = JobSpec.build(
            app="S2",
            arch=arch,
            config=scaled_config(),
            scale=SCALE,
            options=RunOptions(backend=backend),
        )
        return encode_jobspec(spec), spec

    def test_round_trip_preserves_backend_and_key(self):
        doc, spec = self._doc()
        assert doc["schema"] == JOB_SCHEMA_VERSION == 3
        assert doc["options"] == {"backend": "vector"}
        decoded = decode_jobspec(doc)
        assert decoded == spec
        assert decoded.key == spec.key

    def test_unknown_backend_rejected(self):
        doc, _ = self._doc()
        doc["options"]["backend"] = "cuda"
        with pytest.raises(SchemaError, match="does not support the 'cuda' backend"):
            decode_jobspec(doc)

    def test_arch_backend_mismatch_rejected(self):
        doc = {
            "schema": JOB_SCHEMA_VERSION,
            "app": "S2",
            "arch": "linebacker",
            "options": {"backend": "vector"},
        }
        with pytest.raises(SchemaError, match="does not support"):
            decode_jobspec(doc)

    def test_object_backend_is_wire_legal_everywhere(self):
        doc = {
            "schema": JOB_SCHEMA_VERSION,
            "app": "S2",
            "arch": "linebacker",
            "options": {"backend": "object"},
        }
        spec = decode_jobspec(doc)
        assert ("backend", "object") in spec.params
