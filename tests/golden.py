"""Golden simulation statistics: capture and comparison helpers.

The hot-path work on the cycle engine (int event kinds, capability
flags, the lazy-deletion clock heap, ``__slots__``) is only legal if it
is *semantically invisible*: every ``SimulationResult`` statistic must
stay bit-identical. This module pins those statistics for a small
(app, architecture) matrix so any engine change that shifts semantics
fails loudly in ``tests/test_golden_equivalence.py``.

Regenerate the golden file (only when an *intentional* semantic change
lands) with::

    PYTHONPATH=src python tests/golden.py --write
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import scaled_config
from repro.runner.registry import resolve
from repro.workloads.suite import kernel_for

GOLDEN_PATH = Path(__file__).parent / "golden_stats.json"
FUZZ_CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"

#: Two suite apps: one cache-sensitive (S2), one insensitive (LI).
GOLDEN_APPS = ("S2", "LI")
#: Committed fuzz-corpus specs (one per adversarial family): file-defined
#: workloads exercising the declarative spec path end to end, pinned at
#: full scale (their grids are already small by construction).
GOLDEN_FUZZ_SPECS = ("thrasher", "multikernel", "multitenant")
#: Every cell is pinned twice: machine ≡ file, reference engine ≡ file.
GOLDEN_ARCHS = ("baseline", "best_swl", "linebacker")
GOLDEN_SCALE = 0.25
GOLDEN_SMS = 2


def corpus_workload(name: str):
    """Load one committed fuzz-corpus spec by stable name."""
    from repro.workloads.spec import load_workload_file

    return load_workload_file(FUZZ_CORPUS_DIR / f"{name}.json")


def result_fingerprint(result) -> dict:
    """Every statistic the golden test pins, as plain JSON types."""
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
        "demand_read_lines": result.traffic.demand_read_lines,
        "store_write_lines": result.traffic.store_write_lines,
        "backup_write_lines": result.traffic.backup_write_lines,
        "restore_read_lines": result.traffic.restore_read_lines,
        "bank_conflicts": result.bank_conflicts,
        "per_sm_instructions": [s.instructions for s in stats],
    }


def fingerprint_value(arch: str, value) -> dict:
    """Fingerprint an already-computed runner payload.

    Works on live results and on portable snapshots alike, so the
    executor-differential test can fingerprint whatever came over the
    wire / out of a process pool and compare it against the pinned
    values that :func:`fingerprint` produces in-process.
    """
    if arch == "best_swl":
        fp = result_fingerprint(value.best_result)
        fp["best_limit"] = value.best_limit
        fp["sweep_ipc"] = {str(k): round(v, 12) for k, v in value.sweep_ipc.items()}
        return fp
    return result_fingerprint(value)


def golden_spec(app: str, arch: str):
    """The golden matrix cell as an engine :class:`JobSpec`."""
    from repro.runner import JobSpec

    if app in GOLDEN_FUZZ_SPECS:
        return JobSpec.build(
            app=app,
            arch=arch,
            config=scaled_config(num_sms=GOLDEN_SMS),
            workload=corpus_workload(app),
        )
    return JobSpec.build(
        app=app,
        arch=arch,
        config=scaled_config(num_sms=GOLDEN_SMS),
        scale=GOLDEN_SCALE,
    )


def fingerprint(app: str, arch: str, backend=None) -> dict:
    """Run one (app, arch) simulation and fingerprint its statistics.

    ``backend=None`` runs the machine; ``"object"`` pins the reference
    engine (the caller has registered it, see ``tests/reference_engine``)
    so its ``tick`` path is held to the same file.
    """
    config = scaled_config(num_sms=GOLDEN_SMS)
    if app in GOLDEN_FUZZ_SPECS:
        from repro.workloads.spec import build_workload

        kernel = build_workload(corpus_workload(app))
    else:
        kernel = kernel_for(app, GOLDEN_SCALE)
    value = resolve(arch).runner(config, kernel, backend=backend)
    return fingerprint_value(arch, value)


def collect() -> dict:
    return {
        f"{arch}:{app}": fingerprint(app, arch)
        for app in (*GOLDEN_APPS, *GOLDEN_FUZZ_SPECS)
        for arch in GOLDEN_ARCHS
    }


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    parser.add_argument(
        "--check", action="store_true", help="compare against the golden file"
    )
    args = parser.parse_args()
    data = collect()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    elif args.check:
        golden = json.loads(GOLDEN_PATH.read_text())
        if data == golden:
            print("IDENTICAL")
        else:
            for key in sorted(set(golden) | set(data)):
                if golden.get(key) != data.get(key):
                    print(f"DIFF {key}:")
                    for stat in sorted(
                        set(golden.get(key, {})) | set(data.get(key, {}))
                    ):
                        g, d = golden.get(key, {}).get(stat), data.get(key, {}).get(stat)
                        if g != d:
                            print(f"  {stat}: golden={g} current={d}")
            raise SystemExit(1)
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
