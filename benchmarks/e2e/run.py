#!/usr/bin/env python3
"""The repo benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                       # all workloads
    python3 benchmarks/e2e/run.py --trace               # + traced runs
    python3 benchmarks/e2e/run.py --workload lb_ext --seed 7 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --smoke               # < 60 s sanity run
    python3 benchmarks/e2e/run.py --compare A.json B.json

Names, units, directions and regression bounds come from
``BENCHMARK.json`` at the repo root; definitions are in ``README.md``
beside this file. With ``--workload`` the last line of standard output
is one JSON object (``correct`` / ``attempted`` / ``failed`` /
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The exit code is non-zero when an operation
failed or a result did not check.

Every workload runs in its own child interpreter (this file again, with
``--child``); see ``harness.py``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import summarise

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"

#: Environment the harness never lets through to the program.
ENV_CLEARED = ("REPRO_WORKERS", "REPRO_EXECUTOR", "REPRO_NO_CACHE", "REPRO_CACHE_DIR")
#: Set-up is run this many times per measurement (fresh process each)
#: and reported as the median.
SETUP_REPEATS = 3
CHILD_TIMEOUT = 170.0
UNVALIDATED = ("model unvalidated against hardware: the repo holds no per-app "
               "reference IPCs, so simulated numbers carry no error figure")


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
def _child_env(work_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ENV_CLEARED}
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    # Anything that asks tempfile for a directory stays inside the run's
    # own work dir (and so inside the checkout).
    env["TMPDIR"] = str(work_dir)
    return env


def spawn_child(args, workload: str, trace: int, setup_only: bool, tag: str) -> dict:
    """Run one workload process to completion and return its report."""
    work_dir = Path(args.out).resolve() / "work" / f"{workload}-{os.getpid()}-{tag}"
    work_dir.mkdir(parents=True)
    report_path = work_dir.with_suffix(".json")
    argv = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--work-dir", str(work_dir), "--report", str(report_path),
        "--spawned-at", repr(time.time()),
    ]
    argv += ["--smoke"] if args.smoke else []
    argv += ["--setup-only"] if setup_only else []
    argv += ["--perturb"] if args.perturb and not setup_only else []
    # Its own session, so a stuck run (and any worker it left) can be
    # stopped as a group.
    proc = subprocess.Popen(argv, env=_child_env(work_dir), start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0 or not report_path.exists():
        report_path.unlink(missing_ok=True)
        what = "timed out" if code is None else f"exited with code {code}"
        raise SystemExit(f"run.py: workload {workload!r} child {what}")
    report = json.loads(report_path.read_text())
    report_path.unlink()
    try:
        work_dir.parent.rmdir()  # empty unless another run shares --out
    except OSError:
        pass
    return report


def run_workload(args, workload: str, trace: int) -> dict:
    """One measurement of one workload: set up ``SETUP_REPEATS`` times
    (untraced runs), measure once."""
    repeats = 1 if (trace or args.smoke) else SETUP_REPEATS
    setups = [spawn_child(args, workload, trace, True, f"setup{i}")["setup_s"]
              for i in range(repeats - 1)]
    report = spawn_child(args, workload, trace, False, "measure")
    setups.append(report["setup_s"])
    for kind in ("end_to_end", "end_to_end_raw"):
        if report[kind]:
            report[kind]["setup_s"] = summarise(setups)
    return report


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
def is_correct(report: dict) -> bool:
    return report["failed"] == 0 and report["check"]["mismatched"] == 0


def metrics_of(spec: dict, report: dict) -> dict:
    """Every declared metric of the report's kind, with its unit."""
    if report["trace"]:
        return {m["name"]: {"value": report["per_layer"].get(m["name"], 0.0),
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": report["end_to_end"][m["name"]]["median"],
                        "unit": m["unit"]} for m in spec["end_to_end"]}


def result_line(spec: dict, report: dict) -> str:
    return json.dumps({
        "correct": is_correct(report),
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": metrics_of(spec, report),
    })


def print_report(spec: dict, report: dict) -> None:
    check = report["check"]
    attempted = max(1, report["attempted"])
    kind = "traced run" if report["trace"] else f"{report['cycles']} cycles"
    print(f"== {report['workload']}  seed {report['seed']}  ({kind})")
    print(f"   failed_frac {report['failed'] / attempted:.4f} fraction "
          f"({report['failed']} of {attempted} operations)   "
          f"result_mismatch_frac {check['mismatched'] / max(1, check['checked']):.4f} fraction "
          f"({check['mismatched']} of {check['checked']} jobs; golden cells: "
          f"{', '.join(check['golden_cells']) or 'none'})")
    for line in report["failures"] + check["problems"]:
        print(f"   !! {line}")
    if report["trace"]:
        unknown = sorted(set(report["per_layer"]) - {m["name"] for m in spec["per_layer"]})
        if unknown:
            print(f"   !! per-layer names not declared in BENCHMARK.json: {unknown}")
        for m in spec["per_layer"]:
            value = report["per_layer"].get(m["name"])
            if value is None:
                continue  # a layer this workload does not exercise
            note = report["notes"].get(m["name"])
            print(f"   {m['name']:<36} {value:>14.6g} {m['unit']:<11}"
                  + (f" [{note}]" if note else ""))
    else:
        bounds = {m["name"]: m for m in spec["end_to_end"]}
        for name, stats in report["end_to_end"].items():
            m = bounds[name]
            print(f"   {name:<30} {stats['median']:>12.6g} {m['unit']:<8} "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}  "
                  f"uncalibrated {report['end_to_end_raw'][name]['median']:.6g}  "
                  f"({m['better']} is better, bound {100 * m['bound']:.0f}%)")


RUN_TABLE_COLUMNS = (
    "workload", "seed", "traced", "cycle", "phase", "executor", "job", "arch",
    "wall_s", "cpu_s", "host_slowdown", "sim_instructions", "sim_cycles", "sim_mem_requests",
    "sim_l1_hits", "sim_l1_misses", "sim_victim_hits", "sim_dram_reads",
    "sim_dram_writes", "host.calib_loop_s",
)


def write_outputs(spec: dict, args, reports: list, cross: list) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "run_table.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=RUN_TABLE_COLUMNS)
        writer.writeheader()
        for report in reports:
            writer.writerows(report["rows"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads: dict = {}
    for report in reports:
        entry = workloads.setdefault(report["workload"], {})
        check = report["check"]
        kind = "traced" if report["trace"] else "untraced"
        entry[kind] = {
            "cycles": report["cycles"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "failed_frac": report["failed"] / max(1, report["attempted"]),
            "checked": check["checked"],
            "mismatched": check["mismatched"],
            "result_mismatch_frac": check["mismatched"] / max(1, check["checked"]),
            "golden_cells": check["golden_cells"],
            "problems": report["failures"] + check["problems"],
        }
        if report["trace"]:
            entry["per_layer"] = {
                name: {"value": value, "unit": units.get(name, "")}
                for name, value in report["per_layer"].items()}
            entry["notes"] = report["notes"]
        else:
            for kind in ("end_to_end", "end_to_end_raw"):
                entry[kind] = {name: dict(stats, unit=units[name])
                               for name, stats in report[kind].items()}
    (out / "results.json").write_text(json.dumps({
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
        "host": {"platform": platform.platform(), "python": platform.python_version(),
                 "nproc": os.cpu_count()},
        "note": UNVALIDATED,
        "cross_checks": cross,
        "workloads": workloads,
    }, indent=1) + "\n")
    spans = [span for report in reports for span in report["spans"]]
    if spans:
        (out / "trace.json").write_text(json.dumps({"spans": spans}) + "\n")


def cross_check(reports: list) -> list:
    """Rule (c) at harness level: once both engine workloads have run
    on the same seed, ``base_vector`` equals ``base_default`` job for job."""
    by_name = {r["workload"]: r for r in reports if not r["trace"]}
    problems = []
    if "base_default" in by_name and "base_vector" in by_name:
        default = by_name["base_default"]["fingerprints"]
        vector = by_name["base_vector"]["fingerprints"]
        for job in sorted(set(default) & set(vector)):
            if default[job] != vector[job]:
                problems.append(f"base_vector != base_default on {job}")
    return problems


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def compare(spec: dict, parent_path: str, change_path: str) -> int:
    """Apply each metric's bound to two ``results.json`` files.

    A metric regresses when the change's median is worse than the
    parent's by more than the bound. It is *unresolved* when the
    parent's own inter-quartile distance is wider than the bound (one
    results.json holds one run per workload, so that is the quartiles
    of its cycles; compare ten runs per side before claiming a gain,
    see README.md).
    """
    parent = json.loads(Path(parent_path).read_text())["workloads"]
    change = json.loads(Path(change_path).read_text())["workloads"]
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            a = parent[workload].get("end_to_end", {}).get(m["name"])
            b = change[workload].get("end_to_end", {}).get(m["name"])
            if not a or not b:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = (a["q3"] - a["q1"]) / a["median"]
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > m["bound"]:
                verdict = "unresolved (parent spread wider than bound)"
            print(f"{workload:<13} {m['name']:<30} {a['median']:>12.6g} -> "
                  f"{b['median']:>12.6g} {m['unit']:<8} {100 * worse:+7.2f}% worse "
                  f"(bound {100 * m['bound']:.0f}%)  {verdict}")
        for side, results in (("parent", parent), ("change", change)):
            untraced = results[workload].get("untraced", {})
            if untraced.get("failed") or untraced.get("mismatched"):
                print(f"{workload:<13} {side} had failed operations or mismatched results")
                regressions += 1
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end with a JSON result line")
    parser.add_argument("--seed", type=int, default=2019,
                        help="drives the generated inputs only; the program never sees it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics, writes trace.json")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for run_table.csv, results.json, trace.json")
    parser.add_argument("--smoke", action="store_true",
                        help="one small cycle per workload; checks the harness, not the speed")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT.json", "CHANGE.json"),
                        help="apply the bounds to two results.json files")
    # Harness self-test: corrupt the first result the checker sees; the
    # run must then report a mismatch and exit non-zero.
    parser.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    for flag in ("--child", "--setup-only"):
        parser.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    for flag in ("--work-dir", "--report"):
        parser.add_argument(flag, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        from harness import child_main  # imports repro: fails outside a checkout

        return child_main(args)
    # A terminated run still stops its child and the child's workers:
    # SystemExit unwinds through spawn_child's ``finally``.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; known: {', '.join(names)}")

    print(UNVALIDATED)
    reports = []
    for workload in [args.workload] if args.workload else names:
        kinds = [args.trace] if args.workload else ([0, 1] if args.trace else [0])
        for trace in kinds:
            report = run_workload(args, workload, trace)
            print_report(spec, report)
            reports.append(report)
    cross = cross_check(reports)
    for problem in cross:
        print(f"!! {problem}")
    write_outputs(spec, args, reports, cross)
    ok = all(is_correct(r) for r in reports) and not cross
    if args.workload:
        print(result_line(spec, reports[0]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
