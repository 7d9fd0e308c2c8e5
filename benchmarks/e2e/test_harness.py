"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They hold the harness to ``BENCHMARK.json``: every declared name comes
out with its unit, names and counts stay inside the limits, a result
compares clean with itself, and a corrupted fingerprint turns into a
non-zero exit.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: The cheapest workload that still crosses process boundaries.
SMOKE_WORKLOAD = "sweep_local"


def run_benchmark(*argv: str, cwd: Path = REPO_ROOT, script: Path = HERE / "run.py",
                  env: "dict | None" = None):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_stays_inside_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 5
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_self_time_subtracts_covered_children():
    from tracing import Tracer, self_seconds

    tracer = Tracer("t")
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b"):
            pass
        with tracer.span("inner", "b"):
            pass
    own = self_seconds(tracer.spans)
    outer = next(s for s in tracer.spans if s["name"] == "outer")
    inner = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "inner")
    assert own[outer["id"]] == pytest.approx(outer["end"] - outer["start"] - inner)
    assert sum(own.values()) == pytest.approx(outer["end"] - outer["start"])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-out")
    runs = {}
    for trace in ("0", "1"):
        proc = run_benchmark("--smoke", "--workload", SMOKE_WORKLOAD, "--seed", "5",
                             "--trace", trace, "--out", str(out / trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs[trace] = result_of(proc)
    return out, runs


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(smoke, trace, kind):
    result = smoke[1][trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_writes_the_flat_outputs(smoke):
    out = smoke[0] / "1"
    spans = json.loads((out / "trace.json").read_text())["spans"]
    assert spans and set(spans[0]) == {"id", "name", "layer", "start", "end",
                                       "parent", "workload", "job"}
    header = (out / "run_table.csv").read_text().splitlines()[0].split(",")
    documented = re.findall(r"^\| `([^`]+)` \|", (HERE / "COLUMNS.md").read_text(), re.M)
    assert header == documented
    layer = json.loads((out / "results.json").read_text())["workloads"][SMOKE_WORKLOAD]
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(layer["per_layer"]) <= declared


def test_compare_of_a_result_with_itself_passes(smoke):
    results = str(smoke[0] / "0" / "results.json")
    proc = run_benchmark("--compare", results, results)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 regression(s)" in proc.stdout


def test_a_perturbed_fingerprint_exits_non_zero(tmp_path):
    proc = run_benchmark("--smoke", "--workload", SMOKE_WORKLOAD, "--perturb",
                         "--out", str(tmp_path))
    assert proc.returncode != 0
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] == 0


def test_outside_a_checkout_there_is_no_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    # Whatever made ``repro`` importable for this test session must not
    # leak into the bare directory.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = run_benchmark("--workload", SMOKE_WORKLOAD, "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path, env=env,
                         script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
