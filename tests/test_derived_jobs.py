"""Derived registry rows: Best-SWL is a reduction over ``baseline`` jobs.

``best_swl`` and ``best_swl_cache_ext`` run no machine of their own:
their legs are ordinary jobs, so the job table runs each distinct leg
once — in parallel, memoized and cached — and the max-occupancy leg of
the sweep *is* the plain ``baseline`` job every figure also asks for.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from fault_injection import unsimulatable_registered  # noqa: E402
from golden import (  # noqa: E402
    GOLDEN_APPS,
    GOLDEN_PATH,
    fingerprint_value,
    golden_spec,
)
from repro.baselines import BestSWLResult, sweep_limits  # noqa: E402
from repro.config import scaled_config  # noqa: E402
from repro.runner import ExperimentRunner, JobSpec, RemoteJobError, execute_job  # noqa: E402
from repro.runner.registry import resolve  # noqa: E402
from repro.service import SchemaError, ServiceClient, decode_jobspec, encode_jobspec, serve  # noqa: E402

CFG = scaled_config(num_sms=1, window_cycles=600)
TINY = 0.05


def spec(arch, app="S2", config=CFG, **overrides):
    return JobSpec.build(app, arch, config, TINY, overrides=overrides)


@pytest.mark.parametrize("app", (*GOLDEN_APPS, "thrasher"))
def test_max_occupancy_leg_is_the_plain_baseline_job(app):
    legs = golden_spec(app, "best_swl").legs()
    top = max(legs)
    assert list(legs) == sweep_limits(top)
    baseline = golden_spec(app, "baseline")
    assert legs[top].key == baseline.key
    # ...and that spelling is sound: the machine caps residency at the
    # hardware occupancy, so naming the cap changes no statistic.
    capped = JobSpec.build(
        baseline.app, "baseline", baseline.config, baseline.scale,
        overrides={"max_concurrent_ctas": top}, workload=baseline.workload,
    )
    payload, _ = execute_job(capped)
    pinned = json.loads(GOLDEN_PATH.read_text())[f"baseline:{app}"]
    assert fingerprint_value("baseline", payload) == pinned


def test_cold_baseline_and_best_swl_simulate_each_leg_once():
    runner = ExperimentRunner(workers=2, executor="pool", use_cache=False)
    try:
        base, best = runner.run_many([spec("baseline"), spec("best_swl")])
    finally:
        runner.close()
    assert isinstance(best, BestSWLResult)
    assert runner.stats.simulated == runner.stats.dispatched == len(sweep_limits(16)) == 8
    assert best.sweep_ipc[16] == base.ipc
    # A record per submission; the derived job's own adds to no counter.
    def sources(job):
        return sorted(r.source for r in runner.stats.records if r.key == job.key)

    assert sources(spec("best_swl")) == ["run"]
    assert sources(spec("baseline")) == ["coalesced", "run"]


def test_table_and_direct_runner_agree_and_a_resubmission_is_a_memo_hit():
    runner = ExperimentRunner(use_cache=False, executor="inline")
    best_spec = spec("best_swl", app="GA")
    first = runner.run(best_spec)
    assert runner.run(best_spec) is first
    assert runner.stats.memo_hits == 1
    assert runner.status(best_spec.key)["status"] == "done"
    for backend in (None, "vector"):
        direct = resolve("best_swl").runner(CFG, best_spec.kernel(), backend=backend)
        assert isinstance(direct, BestSWLResult)
        assert fingerprint_value("best_swl", direct) == fingerprint_value("best_swl", first)


def test_best_swl_cache_ext_is_one_leg_and_needs_its_limit():
    legs = spec("best_swl_cache_ext", cta_limit=2).legs()
    assert [(label, leg.arch, leg.overrides) for label, leg in legs.items()] == [
        (2, "baseline", {"max_concurrent_ctas": 2})
    ]
    assert legs[2].config.gpu.l1_size_bytes > CFG.gpu.l1_size_bytes
    with pytest.raises(ValueError, match="'best_swl_cache_ext'.*'cta_limit'"):
        spec("best_swl_cache_ext")
    doc = encode_jobspec(spec("best_swl_cache_ext", cta_limit=2))
    del doc["overrides"]
    with pytest.raises(SchemaError, match="cta_limit"):
        decode_jobspec(doc)
    with pytest.raises(TypeError, match="cta_limit"):
        resolve("best_swl_cache_ext").runner(CFG, None)


@pytest.fixture
def unsimulatable():
    with unsimulatable_registered():
        yield


@pytest.mark.usefixtures("unsimulatable")
def test_a_failed_job_is_recorded_and_a_failed_leg_fails_its_derived_job():
    runner = ExperimentRunner(use_cache=False, executor="inline")
    plain = spec("unsimulatable")
    with pytest.raises(RemoteJobError, match="InjectedSimulationError"):
        runner.run(plain)
    assert [r.source for r in runner.stats.records] == ["failed"]
    assert runner.stats.to_dict()["failed"] == 1

    best = spec("unsimulatable_swl")
    with pytest.raises(RemoteJobError, match=r"leg \d+ \(unsimulatable:S2"):
        runner.run(best)
    assert runner.status(best.key)["status"] == "failed"
    records = [r.source for r in runner.stats.records if r.key == best.key]
    assert records == ["failed"]
    # The max-occupancy leg is ``plain``, already failed: memo, not rerun.
    assert runner.stats.memo_hits == 1
    assert runner.stats.simulated == 0


def test_concurrent_http_clients_share_every_leg(tmp_path):
    server = serve(host="127.0.0.1", port=0, workers=2, cache_dir=str(tmp_path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    specs = [spec("best_swl", app="LI"), spec("baseline", app="LI")]
    barrier = threading.Barrier(len(specs))
    results = {}

    def client(job):
        remote = ServiceClient(url)
        try:
            barrier.wait()
            results[job.arch] = remote.result(remote.submit(job)["job_id"], timeout=120)
        finally:
            remote.close()

    try:
        clients = [threading.Thread(target=client, args=(job,)) for job in specs]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=180)
        stats = server.coordinator.runner.stats
        legs = specs[0].legs()
        assert stats.simulated == len({leg.key for leg in legs.values()}) == len(legs)
        assert results["best_swl"].sweep_ipc[max(legs)] == results["baseline"].ipc
    finally:
        server.shutdown()
        server.server_close()
        server.coordinator.shutdown()
        thread.join(timeout=10)
