"""Workload description language: document round trips, validation,
registry semantics, and first-class integration with JobSpec, the HTTP
job schema and the execution engine."""

import ast
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import repro.service.schema as schema_module
import repro.workloads.spec as workload_spec_module
from repro.config import (
    GPUConfig,
    LinebackerConfig,
    SimulationConfig,
    from_doc,
    scaled_config,
    stable_hash,
    to_doc,
)
from repro.engine.vector.compile import compile_warp_iter
from repro.runner.engine import execute_job
from repro.runner.spec import JobSpec
from repro.service.schema import SchemaError, decode_jobspec, encode_jobspec
from repro.workloads.fuzz import generate_corpus
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec
from repro.workloads.spec import (
    WORKLOAD_SPEC_VERSION,
    KernelPhase,
    TenantSpec,
    WorkloadSpec,
    WorkloadSpecError,
    build_workload,
    decode_workload,
    encode_workload,
    load_workload_file,
    register_workload,
    registered_workload,
    save_workload_file,
    unregister_workload,
    validate_workload,
    workload_hash,
)
from repro.workloads.suite import ALL_APPS, APP_SPECS, kernel_for

sys.path.insert(0, str(Path(__file__).parent))
from document_helpers import dataclass_nodes, json_path, node_at  # noqa: E402
from reference_engine.generator import warp_stream  # noqa: E402

CORPUS = Path(__file__).parent / "fuzz_corpus"


def simple_workload(name="wl-test", **kw):
    phase = KernelPhase(
        iterations=16,
        loads=(
            LoadSpec(0x100, Pattern.REUSE, 12, Scope.CTA),
            LoadSpec(0x204, Pattern.STREAM, 0),
        ),
        stores=(StoreSpec(0x510, every_iterations=4),),
        alu_per_iteration=2,
    )
    defaults = dict(
        name=name, description="test workload", num_ctas=4,
        warps_per_cta=2, regs_per_thread=16,
        tenants=(TenantSpec(name="main", phases=(phase,)),),
    )
    defaults.update(kw)
    return WorkloadSpec(**defaults)


def multi_tenant_workload(name="wl-mt"):
    friendly = TenantSpec(name="friendly", phases=(
        KernelPhase(iterations=12,
                    loads=(LoadSpec(0x100, Pattern.REUSE, 8, Scope.CTA),)),
    ))
    streamer = TenantSpec(name="streamer", phases=(
        KernelPhase(iterations=12, loads=(LoadSpec(0x300, Pattern.STREAM, 0),)),
        KernelPhase(iterations=8,
                    loads=(LoadSpec(0x404, Pattern.DIVERGENT, 32),)),
    ))
    return WorkloadSpec(
        name=name, description="two tenants", num_ctas=6, warps_per_cta=2,
        regs_per_thread=24, tenants=(friendly, streamer),
    )


@pytest.fixture(autouse=True)
def clean_registry():
    yield
    for name in ("wl-test", "wl-mt", "wl-reg", "wl-file", "wl-job", "LI-copy"):
        unregister_workload(name)


class TestDocumentRoundTrip:
    def test_round_trip_is_identity(self):
        spec = multi_tenant_workload()
        doc = encode_workload(spec)
        assert doc["spec"] == WORKLOAD_SPEC_VERSION
        back = decode_workload(doc)
        assert back == spec
        assert workload_hash(back) == workload_hash(spec)

    def test_json_serializable(self):
        doc = encode_workload(simple_workload())
        assert decode_workload(json.loads(json.dumps(doc))) == simple_workload()

    def test_version_mismatch_rejected(self):
        doc = encode_workload(simple_workload())
        doc["spec"] = WORKLOAD_SPEC_VERSION + 1
        with pytest.raises(WorkloadSpecError, match="version"):
            decode_workload(doc)

    @pytest.mark.parametrize(
        "path", [path for path, _, _ in dataclass_nodes(
            WorkloadSpec, encode_workload(simple_workload()))],
        ids=lambda path: json_path(path) or "top",
    )
    def test_unknown_fields_rejected_at_every_level(self, path):
        doc = encode_workload(simple_workload())
        node_at(doc, path)["surprise"] = 1
        with pytest.raises(WorkloadSpecError, match="unknown") as refused:
            decode_workload(doc)
        assert json_path(("workload",) + path) in str(refused.value)

    def test_description_may_be_left_out(self):
        doc = encode_workload(simple_workload(description=""))
        del doc["description"]
        assert decode_workload(doc) == simple_workload(description="")

    def test_no_field_name_is_spelled_out_by_a_codec(self):
        """The document fields are the dataclass fields: neither the
        workload module nor the job schema names one as a string."""
        names = {f.name for cls in (WorkloadSpec, TenantSpec, KernelPhase, LoadSpec,
                                    StoreSpec, GPUConfig, LinebackerConfig)
                 for f in fields(cls)}
        for module in (workload_spec_module, schema_module):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            literals = {node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
            assert not literals & names, module.__name__

    def test_unknown_pattern_named_in_error(self):
        doc = encode_workload(simple_workload())
        doc["tenants"][0]["phases"][0]["loads"][0]["pattern"] = "zigzag"
        with pytest.raises(WorkloadSpecError, match="zigzag"):
            decode_workload(doc)

    def test_file_round_trip(self, tmp_path):
        spec = simple_workload(name="wl-file")
        path = tmp_path / "wl.json"
        save_workload_file(spec, path)
        assert load_workload_file(path) == spec
        assert registered_workload("wl-file") is None
        loaded = load_workload_file(path, register=True)
        assert registered_workload("wl-file") == loaded

    def test_bad_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(WorkloadSpecError):
            load_workload_file(path)


def round_trip_specs():
    """The 20 Table-2 apps, a 200-spec seeded fuzz corpus and the
    committed corpus, as ``(id, spec)``."""
    specs = list(APP_SPECS.items())
    specs += [(spec.name, spec) for spec in generate_corpus(2019, 200)]
    specs += [(path.stem, load_workload_file(path)) for path in sorted(CORPUS.glob("*.json"))]
    return specs


class TestCodecRoundTrip:
    def test_every_workload_round_trips_with_its_hash_and_job_key(self):
        config = scaled_config(num_sms=1)
        for what, spec in round_trip_specs():
            doc = encode_workload(spec)
            back = decode_workload(json.loads(json.dumps(doc)))
            assert back == spec, what
            assert encode_workload(back) == doc, what
            assert workload_hash(back) == workload_hash(spec), what
            if spec.name in APP_SPECS:
                job = JobSpec.build(app=spec.name, arch="linebacker", config=config)
            else:
                job = JobSpec.build(app=spec.name, arch="linebacker", config=config,
                                    workload=spec)
            again = decode_jobspec(json.loads(json.dumps(encode_jobspec(job))))
            assert again == job and again.key == job.key, what

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_committed_documents_re_encode_to_themselves(self, path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert encode_workload(decode_workload(doc)) == doc

    def test_every_config_round_trips(self):
        for config in (SimulationConfig(), scaled_config(num_sms=2, window_cycles=700)):
            doc = json.loads(json.dumps(to_doc(config)))
            back = from_doc(SimulationConfig, doc, "config")
            assert back == config and stable_hash(back) == stable_hash(config)


class TestValidation:
    def test_phase_needs_loads(self):
        with pytest.raises(WorkloadSpecError, match="load"):
            validate_workload(simple_workload(tenants=(
                TenantSpec(name="main", phases=(
                    KernelPhase(iterations=4, loads=()),
                )),
            )))

    def test_pc_keeps_one_pattern_across_phases(self):
        tenants = (TenantSpec(name="main", phases=(
            KernelPhase(iterations=4,
                        loads=(LoadSpec(0x100, Pattern.REUSE, 8),)),
            KernelPhase(iterations=4,
                        loads=(LoadSpec(0x100, Pattern.DIVERGENT, 8),)),
        )),)
        with pytest.raises(WorkloadSpecError, match="pattern"):
            validate_workload(simple_workload(tenants=tenants))

    def test_stream_pc_single_phase_per_tenant(self):
        tenants = (TenantSpec(name="main", phases=(
            KernelPhase(iterations=4,
                        loads=(LoadSpec(0x100, Pattern.STREAM, 0),)),
            KernelPhase(iterations=4,
                        loads=(LoadSpec(0x100, Pattern.STREAM, 0),)),
        )),)
        with pytest.raises(WorkloadSpecError, match="STREAM|stream"):
            validate_workload(simple_workload(tenants=tenants))

    def test_bounds_enforced(self):
        with pytest.raises(WorkloadSpecError):
            validate_workload(simple_workload(num_ctas=1 << 20))
        with pytest.raises(WorkloadSpecError):
            validate_workload(simple_workload(regs_per_thread=4096))

    def test_store_pc_must_not_collide_with_loads(self):
        tenants = (TenantSpec(name="main", phases=(
            KernelPhase(
                iterations=4,
                loads=(LoadSpec(0x100, Pattern.REUSE, 8),),
                stores=(StoreSpec(0x100, every_iterations=2),),
            ),
        )),)
        with pytest.raises(WorkloadSpecError, match="store"):
            validate_workload(simple_workload(tenants=tenants))


class TestRegistry:
    def test_register_and_lookup(self):
        spec = simple_workload(name="wl-reg")
        register_workload(spec)
        assert registered_workload("wl-reg") == spec
        register_workload(spec)  # idempotent for an equal spec
        changed = simple_workload(name="wl-reg", num_ctas=8)
        with pytest.raises(WorkloadSpecError):
            register_workload(changed)
        register_workload(changed, replace=True)
        assert registered_workload("wl-reg") == changed

    def test_builtin_names_shadowing_rejected(self):
        with pytest.raises(WorkloadSpecError, match="built-in"):
            register_workload(simple_workload(name="S2"))


def _assert_matches_oracle(kernel, ctas):
    """Per warp: the compiled SoA streams and the ``warp_trace`` decode
    view equal the oracle's per-instruction generator, which derives
    scaling and region layout from the workload on its own."""
    program = kernel.program
    for cta in ctas:
        for warp in range(kernel.warps_per_cta):
            reference = list(warp_stream(program.workload, program.scale, cta, warp))
            where = (kernel.name, cta, warp)
            assert program.warp_streams(cta, warp) == compile_warp_iter(reference), where
            assert list(kernel.warp_trace(cta, warp)) == reference, where


class TestTraceEquivalence:
    @pytest.mark.parametrize("scale", [0.125, 0.25, 1.0])
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_table2_app_matches_oracle_generator(self, app, scale):
        kernel = kernel_for(app, scale)
        last = kernel.num_ctas - 1
        _assert_matches_oracle(kernel, sorted({0, 1, last // 2, last}))

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_corpus_spec_matches_oracle_generator(self, path, scale):
        kernel = build_workload(load_workload_file(path), scale)
        _assert_matches_oracle(kernel, range(kernel.num_ctas))

    def test_single_tenant_matches_plain_generator(self):
        """A registered copy of a Table-2 app builds the app's trace:
        both names go through one lookup into one build path."""
        register_workload(replace(APP_SPECS["LI"], name="LI-copy"))
        k_app = kernel_for("LI", scale=0.1)
        k_wl = kernel_for("LI-copy", scale=0.1)
        for cta, warp in ((0, 0), (1, 3), (k_app.num_ctas - 1, 0)):
            assert list(k_wl.warp_trace(cta, warp)) == list(
                k_app.warp_trace(cta, warp)
            )

    def test_tenants_interleave_round_robin(self):
        spec = multi_tenant_workload()
        kernel = build_workload(spec)
        # CTA 0 runs tenant 0 (reuse only); CTA 1 runs tenant 1
        # (stream then divergent): their PC sets must not mix.
        pcs0 = {i.pc for i in kernel.materialize(0, 0) if i.is_memory}
        pcs1 = {i.pc for i in kernel.materialize(1, 0) if i.is_memory}
        assert not (pcs0 & pcs1)


class TestJobIntegration:
    def test_jobspec_auto_attaches_registered_workload(self):
        spec = simple_workload(name="wl-job")
        register_workload(spec)
        job = JobSpec.build(app="wl-job", arch="baseline",
                            config=scaled_config(num_sms=1))
        assert job.workload == spec

    def test_builtin_jobs_carry_no_workload(self):
        job = JobSpec.build(app="S2", arch="baseline",
                            config=scaled_config(num_sms=1), scale=0.1)
        assert job.workload is None

    def test_mismatched_attachment_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            JobSpec.build(app="other", arch="baseline",
                          config=scaled_config(num_sms=1),
                          workload=simple_workload(name="wl-job"))

    def test_http_schema_transports_workload(self):
        job = JobSpec.build(app="wl-job", arch="baseline",
                            config=scaled_config(num_sms=1),
                            workload=simple_workload(name="wl-job"))
        doc = encode_jobspec(job)
        assert doc["workload"]["name"] == "wl-job"
        back = decode_jobspec(json.loads(json.dumps(doc)))
        assert back == job
        assert back.key == job.key

    def test_builtin_app_with_workload_doc_rejected(self):
        job = JobSpec.build(app="wl-job", arch="baseline",
                            config=scaled_config(num_sms=1),
                            workload=simple_workload(name="wl-job"))
        doc = encode_jobspec(job)
        doc["app"] = "S2"
        doc["workload"]["name"] = "S2"
        with pytest.raises(SchemaError, match="built-in"):
            decode_jobspec(doc)
        with pytest.raises(ValueError, match="built-in"):
            JobSpec.build(app="S2", arch="baseline", config=scaled_config(num_sms=1),
                          workload=APP_SPECS["S2"])

    def test_unknown_app_without_doc_rejected(self):
        job = JobSpec.build(app="S2", arch="baseline",
                            config=scaled_config(num_sms=1), scale=0.1)
        doc = encode_jobspec(job)
        doc["app"] = "wl-not-registered"
        with pytest.raises(SchemaError, match="workload"):
            decode_jobspec(doc)

    def test_engine_executes_attached_workload(self):
        job = JobSpec.build(app="wl-job", arch="baseline",
                            config=scaled_config(num_sms=1),
                            workload=simple_workload(name="wl-job"))
        result, seconds = execute_job(job)
        assert result.instructions > 0
        assert seconds >= 0
