"""The option x architecture matrix, and proof that no job key moved.

One cell per (registered architecture, ``RunOptions`` field at a
non-default value) and per (architecture, declared parameter). Every
cell goes through the three places a job is made — ``JobSpec.build``,
``Session.spec`` and ``decode_jobspec`` — and must end one of two ways
on all of them:

* **refused at construction**, with a message naming the architecture
  and the field (over HTTP: a 400, never a 500), or
* **accepted**, and then ``execute_job`` completes.

No cell may be accepted and then raise in the runner: before the
registry became rows with one generic runner, 38 of the 60 cells did
(``TypeError: _run_cache_ext() got an unexpected keyword argument
'timeseries'`` inside a worker).

``PINNED_KEYS`` holds ``JobSpec.key`` values computed at the parent
commit (5d7a675): the one check added to ``JobSpec.build`` and the
generic runner must not move a content hash, a cache entry or a golden
fingerprint.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import Session
from repro.config import scaled_config
from repro.options import RUN_OPTION_FIELDS, RunOptions
from repro.runner import JobSpec, execute_job
from repro.runner.registry import ARCHITECTURES
from repro.service import (
    JOB_SCHEMA_VERSION,
    SchemaError,
    ServiceClient,
    decode_jobspec,
    serve,
)
from repro.service.schema import encode_config
from repro.workloads.spec import load_workload_file

CFG = scaled_config(num_sms=1, window_cycles=600)
#: GA is the cheapest Table-2 app to simulate; a cell that is accepted
#: and then dies does so before the first cycle, whatever the app.
APP, SCALE = "GA", 0.05

#: One non-default value per ``RunOptions`` field; for ``backend`` the
#: machine's own name and ``object`` — the retired reference engine's,
#: registered by no production process: an unregistered engine name.
OPTION_VALUES = (
    ("track_loads", True),
    ("keep_objects", True),
    ("timeseries", True),
    ("max_concurrent_ctas", 2),
    ("backend", "object"),
    ("backend", "vector"),
)
PARAM_VALUES = {
    "lb_config": replace(CFG.linebacker, vtt_ways=2),
    "cta_limit": 3,
}

CELLS = [
    (arch, name, value)
    for arch in sorted(ARCHITECTURES)
    for name, value in OPTION_VALUES
] + [
    (arch, name, PARAM_VALUES[name])
    for arch, row in sorted(ARCHITECTURES.items())
    for name in row.params
]

#: The cells that must be refused, written out independently of the
#: code under test: the rule is small enough to state twice.
SWEEPS = {"best_swl", "best_swl_cache_ext"}


def expect_refused(arch: str, name: str, value) -> bool:
    if name == "keep_objects":
        return True  # live objects never cross the cache or the wire
    if name in ("timeseries", "max_concurrent_ctas"):
        return arch in SWEEPS
    return (name, value) == ("backend", "object")  # unregistered: a 400


def cell_id(cell) -> str:
    arch, name, value = cell
    return f"{arch}+{name}" + (f"={value}" if name == "backend" else "")


def job_document(arch: str, name: str, value) -> dict:
    """The JSON a remote client would POST for this cell."""
    doc = {
        "schema": JOB_SCHEMA_VERSION,
        "app": APP,
        "arch": arch,
        "scale": SCALE,
        "config": encode_config(CFG),
    }
    if name in RUN_OPTION_FIELDS:
        doc["options"] = {name: value}
    elif dataclasses.is_dataclass(value):
        doc["overrides"] = {name: dataclasses.asdict(value)}
    else:
        doc["overrides"] = {name: value}
    return doc


def test_matrix_covers_every_row_and_field():
    assert {name for name, _ in OPTION_VALUES} == set(RUN_OPTION_FIELDS)
    assert all(value != getattr(RunOptions(), name) for name, value in OPTION_VALUES)
    declared = {name for row in ARCHITECTURES.values() for name in row.params}
    assert declared == set(PARAM_VALUES)
    assert len(CELLS) == len(ARCHITECTURES) * len(OPTION_VALUES) + 2


@pytest.fixture(scope="module")
def session():
    with Session.local(workers=1, config=CFG, scale=SCALE) as s:
        yield s


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_is_refused_at_construction_or_runs(cell, session):
    arch, name, value = cell
    surfaces = {
        "JobSpec.build": lambda: JobSpec.build(
            APP, arch, CFG, SCALE, overrides={name: value}
        ),
        "Session.spec": lambda: session.spec(APP, arch, **{name: value}),
        "decode_jobspec": lambda: decode_jobspec(job_document(arch, name, value)),
    }
    if expect_refused(arch, name, value):
        for surface, build in surfaces.items():
            # The schema's refusal must be the error the service maps to 400.
            error = SchemaError if surface == "decode_jobspec" else ValueError
            with pytest.raises(error) as err:
                build()
            assert repr(arch) in str(err.value), (surface, str(err.value))
            assert name in str(err.value), (surface, str(err.value))
        return
    specs = {surface: build() for surface, build in surfaces.items()}
    assert len({spec.key for spec in specs.values()}) == 1, specs
    payload, _ = execute_job(specs["decode_jobspec"])
    assert payload.ipc > 0


def test_direct_runner_call_names_what_the_architecture_accepts():
    kernel_args = (CFG, None)  # refused before the kernel is touched
    with pytest.raises(TypeError, match="'baseline' takes no parameter 'cta_limit'"):
        ARCHITECTURES["baseline"].runner(*kernel_args, cta_limit=2)
    with pytest.raises(TypeError, match="accepted: lb_config, track_loads"):
        ARCHITECTURES["linebacker"].runner(*kernel_args, window=5)
    with pytest.raises(TypeError, match="'best_swl'.*'timeseries'"):
        ARCHITECTURES["best_swl"].runner(*kernel_args, timeseries=True)


def test_unknown_architecture_is_refused_everywhere():
    with pytest.raises(ValueError, match="unknown architecture 'warp9'.*linebacker"):
        JobSpec.build(APP, "warp9", CFG)
    doc = job_document("warp9", "track_loads", True)
    with pytest.raises(SchemaError, match="warp9"):
        decode_jobspec(doc)


# ---------------------------------------------------------------------------
# Over HTTP: a refusal is the client's 400, never the worker's 500
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def url(tmp_path_factory):
    server = serve(
        host="127.0.0.1", port=0, workers=1,
        cache_dir=str(tmp_path_factory.mktemp("matrix-cache")),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    server.coordinator.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_refused_cells_are_http_400(url):
    refused = [cell for cell in CELLS if expect_refused(*cell)]
    assert len(refused) >= len(ARCHITECTURES)  # keep_objects alone
    for arch, name, value in refused:
        req = urllib.request.Request(
            url + "/v1/jobs",
            data=json.dumps(job_document(arch, name, value)).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400, (arch, name, err.value.code)
        message = json.loads(err.value.read())["error"]
        assert repr(arch) in message and name in message, message


@pytest.mark.parametrize(
    "arch,name,value",
    [
        ("cache_ext", "timeseries", True),
        ("linebacker", "track_loads", True),
        ("baseline", "max_concurrent_ctas", 2),
    ],
)
def test_cells_that_died_in_the_worker_now_run_over_http(url, arch, name, value):
    client = ServiceClient(url)
    spec = decode_jobspec(job_document(arch, name, value))
    result = client.result(client.submit(spec)["job_id"], timeout=120)
    assert result.ipc > 0
    assert client.status(spec.key)["status"] == "done"


# ---------------------------------------------------------------------------
# Identity: every key is the parent commit's
# ---------------------------------------------------------------------------
PIN_CFG = scaled_config()
CORPUS = Path(__file__).parent / "fuzz_corpus"

#: The pinned jobs that are not a bare architecture: label -> (arch,
#: overrides). Every other label of ``PINNED_KEYS`` is the architecture
#: itself with no overrides.
PINNED_VARIANTS = {
    "baseline+track_loads": ("baseline", {"track_loads": True}),
    "baseline+timeseries": ("baseline", {"timeseries": True}),
    "baseline+backend=vector": ("baseline", {"backend": "vector"}),
    "linebacker+lb_config": (
        "linebacker", {"lb_config": replace(PIN_CFG.linebacker, window_cycles=1000)}
    ),
    "best_swl_cache_ext+cta_limit": ("best_swl_cache_ext", {"cta_limit": 3}),
}

#: label -> ``JobSpec.key`` at 5d7a675, for app S2 at scale 0.05 under
#: ``scaled_config()``. ``ccws`` is new in this table's commit and has
#: no parent value.
PINNED_KEYS = {
    "baseline": "f3ac9671dbd5b935ea35e4db75371ad5f47dc33e8659105ba93e76836bac76a0",
    "best_swl": "733455d679ce54ad9fa2033899aad80597fa5ecff966412b5e1d6ddf6565facf",
    "best_swl_cache_ext": "76c5730dafb961ef793cade6c1654e8a597cc04008499606b7576a574640672f",
    "cache_ext": "6692792853c196424ed3e9741fb986375ede45f5224d6e9ee1514b762931190d",
    "cerf": "20a8cf0aa98ae3b694c44e4bf6c96233da91a0f4bddae2a00fbfbabd7eb4489f",
    "lb_cache_ext": "b3148d6852649e22c83572ae90e22672223320463f38a6f4f7e1e8b4b17aa914",
    "linebacker": "c1299e300a19bc47ce8d627ca2b5f1a959442b77002d18244af96f0a268b4dfa",
    "pcal": "44423499ab745b640019d3b9b9600c38b71a47d826cde54df757f6e4717fb5ba",
    "pcal_cerf": "1ee6d12d221143c357dc8340245d8eb6f930c28537f9fab7fc2391b6a3189a9d",
    "pcal_svc": "4cf1836114262f7b377a9cc8e1f2fdb90ded2dce85e803ce2978210b3456c962",
    "selective_victim_caching":
        "322be77449d02b1751cf3deb2791a56ecb431d8874e3a637f21c10c0fe0fef7c",
    "victim_caching": "6808cd47af778603897300d151538149a4a15add8d42fb85ebf386cccc5ba29a",
    "baseline+track_loads":
        "1d01cb900e6713be8b42ed2f4a20d8d142538b4ec82d5e1e4f19eeb2d521372e",
    "baseline+timeseries":
        "cff9b0e311b6867f83f7529d4c860a9c6d662239b607768f180253ddf9519299",
    "baseline+backend=vector":
        "407f712b041411fc822cbed7b935217b7f2288f7c3fe092ed6f431e65889bfbf",
    "linebacker+lb_config":
        "2c8d3c0fad10888c828332d6a31efd8bf3498f77656d4356d134bd5136869fb4",
    "best_swl_cache_ext+cta_limit":
        "6e953e83a585d16629b7e44e09c330b2fa1ec17d5c03830c2a586ae30779b599",
}


@pytest.mark.parametrize("label", sorted(PINNED_KEYS))
def test_job_key_is_the_parent_commits(label):
    arch, overrides = PINNED_VARIANTS.get(label, (label, {}))
    by_overrides = JobSpec.build("S2", arch, PIN_CFG, SCALE, overrides=overrides)
    assert by_overrides.key == PINNED_KEYS[label]
    with Session.local(workers=1, config=PIN_CFG, scale=SCALE) as pinned:
        assert pinned.spec("S2", arch, **overrides).key == PINNED_KEYS[label]


def test_every_parent_architecture_is_pinned():
    assert set(PINNED_KEYS) - set(PINNED_VARIANTS) == set(ARCHITECTURES) - {"ccws"}


def test_dsl_workload_job_key_is_the_parent_commits():
    workload = load_workload_file(CORPUS / "multikernel.json")
    spec = JobSpec.build(
        workload.name, "linebacker", PIN_CFG, SCALE, workload=workload
    )
    assert spec.key == (
        "3aa873c2c9261b782729f1af650fbf475178c8aec7fc7ffd625265231de34399"
    )
