"""Golden equivalence: the hot-path engine work must be invisible.

Every optimization in the cycle engines (int event kinds, the vector
machine's fused issue/hint scan, inlined L1/MSHR fast paths, the
lazy-deletion clock heap, dict-ordered LRU) claims to be *semantically
neutral*. This test holds that claim to a bit-identical standard: the
full statistics fingerprint of a small (app, architecture) matrix — one
cache-sensitive app and one insensitive app under the baseline, the
Best-SWL oracle and Linebacker — must match the values pinned in
``golden_stats.json``.

If this test fails after an engine change, the change altered
simulation semantics. Either fix the change, or — only for an
*intentional* model change — regenerate the file with::

    PYTHONPATH=src python tests/golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import reference_engine  # noqa: E402
from golden import (  # noqa: E402
    GOLDEN_APPS,
    GOLDEN_ARCHS,
    GOLDEN_FUZZ_SPECS,
    GOLDEN_PATH,
    fingerprint,
    fingerprint_value,
    golden_spec,
)
from repro.runner import ExperimentRunner  # noqa: E402


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        "golden_stats.json missing; generate it with "
        "`PYTHONPATH=src python tests/golden.py --write`"
    )
    return json.loads(GOLDEN_PATH.read_text())


def _assert_pinned(golden: dict, key: str, current: dict, what: str) -> None:
    assert key in golden, f"{key} not pinned; regenerate the golden file"
    expected = golden[key]
    mismatches = {
        stat: (expected.get(stat), current.get(stat))
        for stat in set(expected) | set(current)
        if expected.get(stat) != current.get(stat)
    }
    assert not mismatches, f"{key}: {what} (golden, current): {mismatches}"


@pytest.mark.parametrize("arch", GOLDEN_ARCHS)
@pytest.mark.parametrize("app", GOLDEN_APPS)
def test_statistics_bit_identical(golden, app: str, arch: str) -> None:
    _assert_pinned(
        golden, f"{arch}:{app}", fingerprint(app, arch),
        "engine change shifted simulation semantics",
    )


@pytest.mark.parametrize("arch", GOLDEN_ARCHS)
@pytest.mark.parametrize("name", GOLDEN_FUZZ_SPECS)
def test_fuzz_corpus_statistics_bit_identical(golden, name: str, arch: str) -> None:
    """The committed fuzz-corpus specs are pinned exactly like the
    suite apps: the declarative-workload build path (spec document ->
    compiled tenants -> trace) must stay semantically frozen too."""
    _assert_pinned(
        golden, f"{arch}:{name}", fingerprint(name, arch),
        "workload-spec path shifted simulation semantics",
    )


@pytest.mark.parametrize("arch", GOLDEN_ARCHS)
@pytest.mark.parametrize("app", (*GOLDEN_APPS, *GOLDEN_FUZZ_SPECS))
def test_object_engine_statistics_bit_identical(golden, app: str, arch: str) -> None:
    """Every cell above runs on the machine; registering the reference
    engine and pinning it holds its ``tick`` + ``next_event_cycle`` path
    — Linebacker's hooks included — to the same file."""
    with reference_engine.registered():
        current = fingerprint(app, arch, backend="object")
    _assert_pinned(golden, f"{arch}:{app}", current, "object engine diverges from the goldens")


def test_golden_file_covers_matrix(golden) -> None:
    expected_keys = {
        f"{arch}:{app}"
        for app in (*GOLDEN_APPS, *GOLDEN_FUZZ_SPECS)
        for arch in GOLDEN_ARCHS
    }
    assert expected_keys <= set(golden)


@pytest.mark.parametrize("executor", ["pool", "loopback", "remote"])
def test_executor_differential_bit_identical(golden, executor: str) -> None:
    """Every executor must reproduce the pinned golden matrix exactly.

    ``test_statistics_bit_identical`` already pins the in-process
    fingerprints, so matching the *same pinned values* through the
    pool, the wire loopback, and real (forked) worker processes proves
    4-way inline/pool/loopback/remote equivalence by transitivity —
    "where a job runs" must be semantically invisible, down to the
    last counter, for the distributed runner to be sound.
    """
    specs = [
        golden_spec(app, arch) for app in GOLDEN_APPS for arch in GOLDEN_ARCHS
    ]
    # One corpus spec per executor leg: the attached WorkloadSpec must
    # survive pickling across the pool / wire / worker boundary intact.
    specs += [golden_spec(name, "linebacker") for name in GOLDEN_FUZZ_SPECS]
    runner = ExperimentRunner(workers=2, use_cache=False, executor=executor)
    results = runner.run_many(specs)
    mismatches = {}
    for spec, value in zip(specs, results):
        key = f"{spec.arch}:{spec.app}"
        current = fingerprint_value(spec.arch, value)
        expected = golden[key]
        for stat in set(expected) | set(current):
            if expected.get(stat) != current.get(stat):
                mismatches[f"{key}.{stat}"] = (
                    expected.get(stat),
                    current.get(stat),
                )
    assert not mismatches, (
        f"{executor} executor shifted simulation statistics "
        f"(golden, current): {mismatches}"
    )
    # Best-SWL's legs are jobs of their own, its max-occupancy leg the
    # plain baseline job: one dispatch per distinct leaf job.
    leaves = [leg.key for spec in specs for leg in list(spec.legs().values()) or [spec]]
    assert runner.stats.dispatched == len(set(leaves)) == len(leaves) - len(GOLDEN_APPS)
