"""Cold-run simulator throughput harness.

Runs each suite application through :func:`repro.gpu.gpu.run_kernel`
with a stopwatch around the call and reports simulated instructions
per host-CPU second and simulated cycles per host-CPU second, plus the
geometric means across apps. CPU time (``time.process_time``) is the
primary metric — it is far less sensitive to background load than wall
clock — and each app takes the *minimum* over ``reps`` repetitions,
since contention only ever slows a run down.

The report is JSON-serializable; ``BENCH_sim.json`` at the repo root
is the committed reference produced by ``python -m repro bench``. The
file is an **append-only history** (``{"history": [entry, ...]}``):
every recorded run appends one entry tagged with its engine, scale,
SM count and commit, so throughput trends stay plottable across the
project's life. Every new entry is labelled ``vector``, the one engine;
the ``object`` entries are history taken on the retired reference
engine. The regression gate compares against the *newest* ``vector``
entry. CI re-runs the harness at a reduced scale
and fails when an app's throughput regresses more than the tolerance
against that reference.
"""

from __future__ import annotations

import gc
import json
import math
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.config import scaled_config
from repro.gpu.gpu import run_kernel
from repro.workloads import ALL_APPS
from repro.workloads.suite import kernel_for

#: Schema version of one report entry, bumped on incompatible changes.
#: v2: entries carry ``backend``/``window_cycles``/``recorded``/
#: ``commit`` and live inside an append-only ``{"history": [...]}``
#: envelope.
REPORT_VERSION = 2


@dataclass
class AppThroughput:
    """Throughput of one application's cold simulation."""

    app: str
    instructions: int
    cycles: int
    cpu_seconds: float
    wall_seconds: float
    reps: int

    @property
    def instructions_per_second(self) -> float:
        return self.instructions / self.cpu_seconds if self.cpu_seconds else 0.0

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.cpu_seconds if self.cpu_seconds else 0.0

    def to_json(self) -> dict:
        d = asdict(self)
        d["instructions_per_second"] = round(self.instructions_per_second, 1)
        d["cycles_per_second"] = round(self.cycles_per_second, 1)
        return d


@dataclass
class BenchReport:
    """One harness invocation over a set of apps."""

    scale: float
    num_sms: int
    reps: int
    apps: list[AppThroughput] = field(default_factory=list)
    python: str = ""
    platform: str = ""
    backend: str = "vector"
    window_cycles: int = 2_000

    @property
    def geomean_instructions_per_second(self) -> float:
        return _geomean([a.instructions_per_second for a in self.apps])

    @property
    def geomean_cycles_per_second(self) -> float:
        return _geomean([a.cycles_per_second for a in self.apps])

    @property
    def total_cpu_seconds(self) -> float:
        return sum(a.cpu_seconds for a in self.apps)

    def to_json(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "backend": self.backend,
            "scale": self.scale,
            "num_sms": self.num_sms,
            "window_cycles": self.window_cycles,
            "reps": self.reps,
            "python": self.python,
            "platform": self.platform,
            "geomean_instructions_per_second": round(
                self.geomean_instructions_per_second, 1
            ),
            "geomean_cycles_per_second": round(self.geomean_cycles_per_second, 1),
            "total_cpu_seconds": round(self.total_cpu_seconds, 3),
            "apps": [a.to_json() for a in self.apps],
        }


def _geomean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


class SimThroughput:
    """Cold-run throughput harness over the workload suite.

    Every measured run constructs the kernel trace fresh and goes
    straight through ``run_kernel`` (which never consults the
    persistent result cache), so repeated invocations measure the
    cycle engine, not memoization. The generational GC is collected
    before each timed run so one app's garbage is not charged to the
    next.
    """

    def __init__(
        self,
        apps: tuple[str, ...] = ALL_APPS,
        scale: float = 0.25,
        num_sms: int = 2,
        reps: int = 1,
        window_cycles: int = 2_000,
    ) -> None:
        if reps < 1:
            raise ValueError("reps must be at least 1")
        unknown = set(apps) - set(ALL_APPS)
        if unknown:
            raise ValueError(f"unknown apps: {sorted(unknown)}")
        self.apps = tuple(apps)
        self.scale = scale
        self.num_sms = num_sms
        self.reps = reps
        self.window_cycles = window_cycles

    def _config(self):
        return scaled_config(
            num_sms=self.num_sms, window_cycles=self.window_cycles
        )

    def run_app(self, app: str) -> AppThroughput:
        config = self._config()
        best_cpu = best_wall = float("inf")
        instructions = cycles = 0
        for _ in range(self.reps):
            kernel = kernel_for(app, self.scale)
            gc.collect()
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            result = run_kernel(config, kernel)
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
            instructions = result.instructions
            cycles = result.cycles
            if cpu < best_cpu:
                best_cpu = cpu
            if wall < best_wall:
                best_wall = wall
        return AppThroughput(
            app=app,
            instructions=instructions,
            cycles=cycles,
            cpu_seconds=best_cpu,
            wall_seconds=best_wall,
            reps=self.reps,
        )

    def run(self, progress=None) -> BenchReport:
        """Benchmark every app; ``progress(app, result)`` is called
        after each app completes (used by the CLI for live output)."""
        report = BenchReport(
            scale=self.scale,
            num_sms=self.num_sms,
            reps=self.reps,
            python=platform.python_version(),
            platform=platform.platform(),
            window_cycles=self.window_cycles,
        )
        for app in self.apps:
            result = self.run_app(app)
            report.apps.append(result)
            if progress is not None:
                progress(app, result)
        return report


# -- persistence and regression gating --------------------------------
def write_report(report: BenchReport, path: str) -> None:
    """Write one standalone report document (a CI artifact)."""
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _current_commit() -> str:
    """Best-effort short commit hash for history provenance."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def load_history(path: str) -> list[dict]:
    """The entry list of a ``{"history": [...]}`` file, oldest first."""
    doc = load_report(path)
    if isinstance(doc, dict) and isinstance(doc.get("history"), list):
        return doc["history"]
    raise ValueError(
        f"{path} is not a bench history (expected a {{\"history\": [...]}} "
        "document, as `python -m repro bench --record` writes)"
    )


def latest_entry(history: list[dict], backend: Optional[str] = None) -> Optional[dict]:
    """The newest entry, optionally restricted to one backend.

    Entries predating the ``backend`` field (v1) were all produced by
    the retired reference engine and match ``backend="object"``.
    """
    for entry in reversed(history):
        if backend is None or entry.get("backend", "object") == backend:
            return entry
    return None


def append_history(report: BenchReport, path: str) -> dict:
    """Append ``report`` to the history file at ``path`` (append-only:
    existing entries are never rewritten). Returns the new entry."""
    import os

    history = load_history(path) if os.path.exists(path) else []
    entry = report.to_json()
    entry["recorded"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    commit = _current_commit()
    if commit:
        entry["commit"] = commit
    history.append(entry)
    with open(path, "w") as fh:
        json.dump({"history": history}, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return entry


def compare_reports(
    current: BenchReport,
    baseline: dict,
    tolerance: float = 0.30,
    geomean_tolerance: "float | None" = None,
) -> list[str]:
    """Regressions of ``current`` against a saved ``baseline`` report.

    Returns one message per app whose instructions-per-second dropped
    by more than ``tolerance`` (fractional), comparing only apps
    present in both reports. Absolute throughput depends on the host,
    so the tolerance must absorb machine-to-machine variance as well
    as noise; 30% is the CI gate from the issue.

    ``geomean_tolerance``, when given, additionally gates the suite
    geomean instructions-per-second — a much tighter aggregate check
    (per-app noise averages out across the suite), used to hold the
    engine's overhead budget (e.g. 2% for timeseries-off recording).
    """
    base_by_app = {a["app"]: a for a in baseline.get("apps", [])}
    problems = []
    for result in current.apps:
        base = base_by_app.get(result.app)
        if base is None:
            continue
        base_ips = base.get("instructions_per_second", 0.0)
        if base_ips <= 0:
            continue
        ratio = result.instructions_per_second / base_ips
        if ratio < 1.0 - tolerance:
            problems.append(
                f"{result.app}: {result.instructions_per_second:,.0f} instr/s "
                f"vs baseline {base_ips:,.0f} ({ratio:.2f}x, "
                f"tolerance {1.0 - tolerance:.2f}x)"
            )
    if geomean_tolerance is not None:
        base_gm = baseline.get("geomean_instructions_per_second", 0.0)
        if base_gm > 0:
            gm = current.geomean_instructions_per_second
            gm_ratio = gm / base_gm
            if gm_ratio < 1.0 - geomean_tolerance:
                problems.append(
                    f"geomean: {gm:,.0f} instr/s vs baseline {base_gm:,.0f} "
                    f"({gm_ratio:.3f}x, tolerance "
                    f"{1.0 - geomean_tolerance:.3f}x)"
                )
    return problems
