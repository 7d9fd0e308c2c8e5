"""The parallel experiment-execution engine.

:class:`ExperimentRunner` turns content-hashed
:class:`~repro.runner.spec.JobSpec`\\ s into portable results through
three layers, cheapest first:

1. an **in-process memo** (same object returned for the same spec —
   the identity guarantee the old ``ExperimentContext._memo`` gave),
2. the **persistent on-disk cache** (survives process restarts; a warm
   figure rerun is almost pure unpickling), and
3. **execution** through a pluggable
   :class:`~repro.runner.executors.Executor` — in-process (inline),
   fanned out over a ``ProcessPoolExecutor`` (pool), shipped to worker
   subprocesses over the wire protocol (remote), or round-tripped
   through that protocol in-process (loopback). Infrastructure
   failures at any executor — a broken pool, a dead worker after its
   retry budget, an unlaunchable worker command — degrade to
   in-process execution; job-level simulation errors propagate.

Every execution is timed and counted in :class:`RunnerStats` so the
CLI and benchmarks can report per-job wall-clock, hit ratios and
distributed-execution health (dispatched / retried / requeued /
worker deaths).

Simulations are deterministic given ``config.seed``, so serial,
parallel, remote and cached executions of the same spec produce
identical statistics — the engine only changes *where and when* a job
runs.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.runner.cache import MISS, ResultCache
from repro.runner.executors import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorUnavailable,
    RemoteJobError,
    build_executor,
)
from repro.runner.fleet import DEFAULT_BACKOFF, DEFAULT_MAX_ATTEMPTS
from repro.runner.registry import resolve
from repro.runner.snapshot import portable
from repro.runner.spec import JobSpec
from repro.workloads.suite import kernel_for


def default_workers() -> int:
    """Worker-count default: ``$REPRO_WORKERS`` or 1 (in-process)."""
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", "1")))
    except ValueError:
        return 1


def default_executor() -> Optional[str]:
    """Executor default: ``$REPRO_EXECUTOR`` or ``None`` (auto).

    ``None`` preserves the historical behaviour: a process pool when
    ``workers > 1`` and more than one job is pending, in-process
    otherwise.
    """
    name = os.environ.get("REPRO_EXECUTOR", "").strip()
    return name or None


def execute_job(spec: JobSpec) -> tuple[Any, float]:
    """Run one job to completion; the worker-side entry point.

    Rebuilds the kernel trace from (app, scale) and resolves the
    architecture runner by name, so only the plain-data spec ever
    crosses a process boundary. Returns ``(portable payload, seconds)``.
    """
    started = time.perf_counter()
    arch = resolve(spec.arch)
    if spec.workload is not None:
        from repro.workloads.spec import build_workload

        kernel = build_workload(spec.workload, spec.scale)
    else:
        kernel = kernel_for(spec.app, spec.scale)
    value = arch.runner(spec.config, kernel, **spec.overrides)
    return portable(value), time.perf_counter() - started


@dataclass
class JobRecord:
    """Timing/provenance of one resolved job."""

    label: str
    key: str
    seconds: float
    source: str  # "run" | "cache" | "memo" | "coalesced"


@dataclass
class RunnerStats:
    """Observability counters for one runner's lifetime."""

    simulated: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    coalesced: int = 0
    pool_fallbacks: int = 0
    sim_seconds: float = 0.0
    # Executor-path counters: jobs handed to an executor, redispatches
    # after an infrastructure fault, jobs put back on the backlog, and
    # worker subprocesses declared dead (crash, timeout, garbage).
    dispatched: int = 0
    retried: int = 0
    requeued: int = 0
    worker_deaths: int = 0
    records: list[JobRecord] = field(default_factory=list)

    def record(self, spec: JobSpec, seconds: float, source: str) -> None:
        self.records.append(
            JobRecord(label=spec.label, key=spec.key, seconds=seconds, source=source)
        )
        if source == "run":
            self.simulated += 1
            self.sim_seconds += seconds
        elif source == "cache":
            self.cache_hits += 1
        elif source == "coalesced":
            self.coalesced += 1
        else:
            self.memo_hits += 1

    def summary(self) -> str:
        base = (
            f"{self.simulated} simulated ({self.sim_seconds:.1f}s), "
            f"{self.cache_hits} cache hits, {self.memo_hits} memo hits"
        )
        if self.dispatched:
            base += (
                f"; {self.dispatched} dispatched, {self.retried} retried, "
                f"{self.requeued} requeued, {self.worker_deaths} worker deaths"
            )
        return base

    def to_dict(self, include_records: bool = True) -> dict:
        """JSON-ready report (the CI artifact / ``--stats-report``)."""
        report = {
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "memo_hits": self.memo_hits,
            "coalesced": self.coalesced,
            "pool_fallbacks": self.pool_fallbacks,
            "sim_seconds": self.sim_seconds,
            "dispatched": self.dispatched,
            "retried": self.retried,
            "requeued": self.requeued,
            "worker_deaths": self.worker_deaths,
        }
        if include_records:
            report["records"] = [
                {
                    "label": r.label,
                    "key": r.key,
                    "seconds": r.seconds,
                    "source": r.source,
                }
                for r in self.records
            ]
        return report


class ExperimentRunner:
    """Fan-out + memoization front-end for experiment jobs.

    Parameters
    ----------
    workers:
        Process count for fan-out; ``None`` reads ``$REPRO_WORKERS``
        (default 1 = run in-process, no pool).
    cache:
        A :class:`ResultCache`, or ``None`` for the default directory.
    use_cache:
        Disable the persistent layer entirely with ``False`` (the
        in-process memo always stays on). ``None`` honours
        ``$REPRO_NO_CACHE``.
    executor:
        ``"inline" | "pool" | "remote" | "loopback"``, an
        :class:`~repro.runner.executors.Executor` instance, or ``None``
        for the historical auto choice (pool iff ``workers > 1`` and
        more than one job is pending). ``None`` honours
        ``$REPRO_EXECUTOR``.
    hosts / worker_command / job_timeout / max_attempts / backoff:
        Remote-executor tuning; see
        :class:`~repro.runner.executors.RemoteExecutor`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        use_cache: Optional[bool] = None,
        executor: Union[str, Executor, None] = None,
        hosts: Optional[list] = None,
        worker_command: Optional[str] = None,
        job_timeout: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF,
    ) -> None:
        self.workers = workers if workers is not None else default_workers()
        if use_cache is None:
            use_cache = not os.environ.get("REPRO_NO_CACHE")
        self.cache = (cache or ResultCache()) if use_cache else None
        self.executor = executor if executor is not None else default_executor()
        if isinstance(self.executor, str) and self.executor not in EXECUTOR_NAMES:
            known = ", ".join(EXECUTOR_NAMES)
            raise ValueError(
                f"unknown executor {self.executor!r}; known: {known}"
            )
        self.hosts = hosts
        self.worker_command = worker_command
        self.job_timeout = job_timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.stats = RunnerStats()
        self._memo: dict[str, Any] = {}

    # -- public API ------------------------------------------------------
    def run(self, spec: JobSpec) -> Any:
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[JobSpec]) -> list[Any]:
        """Resolve every spec, exploiting memo, cache and parallelism.

        Duplicate specs are coalesced; results come back in input
        order. Repeated calls with a spec return the *same object*
        (in-process memo), preserving the old context's identity
        semantics. Every input spec gets exactly one
        :class:`JobRecord` — duplicates coalesced within one batch are
        recorded with source ``"coalesced"``.
        """
        specs = list(specs)
        pending: dict[str, JobSpec] = {}
        for spec in specs:
            key = spec.key
            if key in self._memo:
                self.stats.record(spec, 0.0, "memo")
            elif key in pending:
                self.stats.record(spec, 0.0, "coalesced")
            elif not self._load_cached(spec, key):
                pending[key] = spec
        if pending:
            self._execute(pending)
        return [self._memo[spec.key] for spec in specs]

    # -- internals -------------------------------------------------------
    def _load_cached(self, spec: JobSpec, key: str) -> bool:
        if self.cache is None:
            return False
        payload = self.cache.get(self.cache.key_for(spec))
        if payload is MISS:
            return False
        self._memo[key] = payload
        self.stats.record(spec, 0.0, "cache")
        return True

    def _store(self, spec: JobSpec, key: str, payload: Any, seconds: float) -> None:
        self._memo[key] = payload
        self.stats.record(spec, seconds, "run")
        if self.cache is not None:
            try:
                self.cache.put(self.cache.key_for(spec), payload)
            except Exception as exc:  # cache write failure is never fatal
                warnings.warn(f"result cache write failed: {exc}", RuntimeWarning)

    def _make_executor(self, n_pending: int) -> Optional[Executor]:
        """Build the executor for this batch; ``None`` means inline.

        The auto choice (``executor=None``) reproduces the historical
        engine exactly: a process pool only when it can actually help.
        """
        choice = self.executor
        if choice is None:
            if self.workers > 1 and n_pending > 1:
                choice = "pool"
            else:
                return None
        if not isinstance(choice, str):
            return choice  # a pre-built Executor instance
        if choice == "inline":
            return None
        return build_executor(
            choice,
            workers=self.workers,
            hosts=self.hosts,
            command=self.worker_command,
            job_timeout=self.job_timeout,
            max_attempts=self.max_attempts,
            backoff=self.backoff,
            stats=self.stats,
        )

    def _execute(self, pending: dict[str, JobSpec]) -> None:
        executor = self._make_executor(len(pending))
        remaining = pending if executor is None else self._drive(executor, pending)
        for key, spec in remaining.items():
            payload, seconds = execute_job(spec)
            self._store(spec, key, payload, seconds)

    def _drive(
        self, executor: Executor, pending: dict[str, JobSpec]
    ) -> dict[str, JobSpec]:
        """Run pending jobs through an executor.

        Returns the jobs that still need in-process execution: all of
        them when the executor infrastructure is unavailable, the
        retry-exhausted stragglers otherwise. Job-level simulation
        errors propagate (as :class:`RemoteJobError` when the failure
        happened on the other side of the wire).
        """
        remaining = dict(pending)
        name = getattr(executor, "name", type(executor).__name__)
        try:
            try:
                for key, spec in pending.items():
                    executor.submit(key, spec)
                    self.stats.dispatched += 1
                finished = 0
                while finished < len(pending):
                    for outcome in executor.poll():
                        finished += 1
                        spec = pending[outcome.key]
                        if outcome.ok:
                            self._store(
                                spec, outcome.key, outcome.payload, outcome.seconds
                            )
                            del remaining[outcome.key]
                        elif outcome.give_up:
                            warnings.warn(
                                f"{spec.label}: {name} execution gave up "
                                f"({outcome.error}); running in-process",
                                RuntimeWarning,
                            )
                        else:
                            raise RemoteJobError(
                                f"{spec.label} failed on the {name} executor:\n"
                                f"{outcome.error}"
                            )
            except ExecutorUnavailable as exc:
                self.stats.pool_fallbacks += 1
                warnings.warn(
                    f"{name} executor unavailable ({exc}); "
                    "finishing jobs in-process",
                    RuntimeWarning,
                )
        finally:
            executor.shutdown()
        return remaining
