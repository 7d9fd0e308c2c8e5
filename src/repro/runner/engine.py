"""The job table: every simulation a process resolves, keyed by content.

:class:`ExperimentRunner` turns content-hashed
:class:`~repro.runner.spec.JobSpec`\\ s into portable results through
four tiers, cheapest first:

1. the **table** itself — a key already submitted shares its job
   (``memo`` once it is done: the same object comes back; ``coalesced``
   while it is still running),
2. the **persistent cache** (read-through: a hit settles the job at
   once, ``cache``; survives process restarts),
3. **execution** through a pluggable
   :class:`~repro.runner.executors.Executor` — in-process (inline),
   fanned out over a ``ProcessPoolExecutor`` (pool), shipped to worker
   processes over the wire protocol (remote), or round-tripped
   through that protocol in-process (loopback) — ``run``,
4. the **degrade** tier: a job the executor gives up on, and every job
   in flight when the executor becomes unavailable, runs in this
   process instead — ``degraded``.

A simulation error is final on every tier: the job is ``failed`` and
asking for its result raises :class:`RemoteJobError`.

A *derived* job (``best_swl``) runs nothing itself: its legs are jobs
of their own, and its value, their ``reduce``, is never stored.

The table is driven in one of two ways. Caller-driven — ``run_many``
and ``result`` call :meth:`ExperimentRunner.step` themselves until the
job settles (the CLI, ``Session.local``, ``ExperimentContext``).
Thread-driven — the service's coordinator loops ``step()`` on its
``fleet-dispatch`` thread while HTTP threads ``submit``, ``wait`` and
``fetch``. Either way one lock guards the table, and no store I/O,
pickling or simulation happens while it is held.

The table is the persistent cache's one writer: it stores each result
as the sealed bytes (:func:`~repro.runner.wire.seal`) a worker or pool
child sent, or sealed here once, and :meth:`ExperimentRunner.fetch_sealed`
serves the same bytes.

Only the :data:`RESIDENT_RESULTS` most recently used results stay in
memory; an evicted one is re-read through the cache when next asked
for, and run again if the cache has lost it. Without a cache nothing is
evicted.

A simulation draws no random number and reads no clock: its statistics
are a function of the spec alone (architecture, configuration, options,
workload and scale; ``config.seed`` is part of the key but read by
nothing). So every tier and executor produces identical statistics for
one spec — the table only changes *where and when* a job runs.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
import weakref
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterator, Optional, Sequence, Union

from repro.runner.cache import MISS, ResultCache
from repro.runner.executors import (
    Executor,
    ExecutorUnavailable,
    RemoteJobError,
    build_executor,
    run_job,
)
from repro.runner.fleet import DEFAULT_BACKOFF, DEFAULT_MAX_ATTEMPTS, JobOutcome
from repro.runner.registry import resolve
from repro.runner.spec import JobSpec
from repro.runner.wire import seal, unseal

#: Where a result came from. ``JobRecord.source``, ``Job.source`` and
#: the HTTP job ``source`` all take their values from this tuple: the
#: first three name the tier that resolved a job, the last two a
#: submission whose key was already in the table ("failed": no result).
JOB_SOURCES = ("run", "degraded", "cache", "memo", "coalesced")
#: ``Job.status`` values.
JOB_STATES = ("queued", "running", "done", "failed")
#: Settled results kept in memory (most recently used first to stay).
RESIDENT_RESULTS = 128
#: Infrastructure-fault counters an executor may keep (``RunnerStats``).
FAULT_COUNTERS = ("retried", "requeued", "worker_deaths")
#: Submissions a ``RunnerStats`` keeps a record of (the latest): a
#: figure is a few hundred, a long-lived service submits without end.
RECORDS_KEPT = 10_000


def default_workers() -> int:
    """Worker-count default: ``$REPRO_WORKERS`` or 1 (in-process)."""
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", "1")))
    except ValueError:
        return 1


def execute_job(spec: JobSpec) -> tuple[Any, float]:
    """Run one job to completion; the worker-side entry point.

    Rebuilds the kernel trace from (app, scale) and resolves the
    architecture runner by name, so only the plain-data spec ever
    crosses a process boundary. Returns ``(payload, seconds)``; the
    payload is portable as it comes, since ``run_kernel`` snapshots by
    default and a job refuses ``keep_objects``.
    """
    started = time.perf_counter()
    value = resolve(spec.arch).runner(spec.config, spec.kernel(), **spec.overrides)
    return value, time.perf_counter() - started


@dataclass
class JobRecord:
    """Timing/provenance of one submission."""

    label: str
    key: str
    seconds: float
    source: str  # one of JOB_SOURCES


@dataclass
class RunnerStats:
    """Observability counters for one runner's lifetime."""

    simulated: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    coalesced: int = 0
    failed: int = 0  # jobs whose simulation (or a leg's) raised
    #: Of ``simulated``, the jobs the degrade tier ran in-process.
    degraded: int = 0
    pool_fallbacks: int = 0
    sim_seconds: float = 0.0
    # Executor-path counters: jobs handed to an executor, redispatches
    # after an infrastructure fault, jobs put back on the backlog, and
    # worker processes declared dead (crash, timeout, garbage).
    dispatched: int = 0
    retried: int = 0
    requeued: int = 0
    worker_deaths: int = 0
    records: "deque[JobRecord]" = field(
        default_factory=lambda: deque(maxlen=RECORDS_KEPT)
    )

    def record(self, spec: JobSpec, seconds: float, source: str) -> None:
        self.records.append(
            JobRecord(label=spec.label, key=spec.key, seconds=seconds, source=source)
        )
        if source == "failed":
            self.failed += 1
        elif source in ("run", "degraded"):
            self.simulated += 1
            self.sim_seconds += seconds
            self.degraded += source == "degraded"
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
        report = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        if include_records:
            report["records"] = [asdict(record) for record in self.records]
        return report


@dataclass
class Job:
    """One logical simulation, however many times it was submitted."""

    id: str
    spec: JobSpec
    status: str = "queued"  # one of JOB_STATES
    error: str = ""
    source: str = ""  # "run" | "degraded" | "cache", once done
    seconds: float = 0.0
    submits: int = 1
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None
    legs: dict = field(default_factory=dict)  # a derived job's: label -> id

    def summary(self) -> dict:
        return {
            "job_id": self.id,
            "label": self.spec.label,
            "app": self.spec.app,
            "arch": self.spec.arch,
            "scale": self.spec.scale,
            "status": self.status,
            "source": self.source,
            "seconds": self.seconds,
            "submits": self.submits,
            "error": self.error,
            "created": self.created,
            "finished": self.finished,
        }


class ExperimentRunner:
    """The job table: memo → cache → executor → degrade.

    Parameters
    ----------
    workers:
        Process count for the ``pool`` and ``remote`` executors;
        ``None`` reads ``$REPRO_WORKERS`` (default 1).
    cache:
        A :class:`ResultCache`, or ``None`` for the default directory.
    use_cache:
        Disable the persistent layer entirely with ``False`` (the table
        always stays on). ``None`` honours ``$REPRO_NO_CACHE``.
    executor:
        ``"inline" | "pool" | "remote" | "loopback"``, an
        :class:`~repro.runner.executors.Executor` instance (the runner
        takes it over), or ``None``: ``pool`` when ``workers > 1``, else
        ``inline``.
    hosts / worker_command / job_timeout / max_attempts / backoff:
        Remote-executor tuning; see
        :class:`~repro.runner.executors.RemoteExecutor`.

    The runner owns its executor until :meth:`close` (or until it is
    garbage-collected). ``submit``, ``wait``, ``fetch``, ``fetch_sealed``,
    ``job``, ``status``, ``table_stats`` and ``close`` may be called from
    any thread; ``step`` — and ``run``, ``run_many``, ``result`` and
    ``stream_timeseries``, which call it — from one thread at a time.
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
        if executor is None:
            executor = "pool" if self.workers > 1 else "inline"
        if isinstance(executor, str):
            executor = build_executor(
                executor,
                workers=self.workers,
                hosts=hosts,
                command=worker_command,
                job_timeout=job_timeout,
                max_attempts=max_attempts,
                backoff=backoff,
            )
        self.executor = executor
        self.stats = RunnerStats()
        self.closed = False
        #: Threads parked in :meth:`wait`.
        self.waiters = 0
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        #: Jobs handed to the executor and not settled yet.
        self._running: dict[str, Job] = {}
        #: Running leg id -> the derived jobs waiting for it.
        self._parents: dict[str, list[Job]] = {}
        #: Results of settled jobs, least recently used first (:meth:`_admit`).
        self._results: "OrderedDict[str, list]" = OrderedDict()
        #: Why the executor refused a submit; the next step degrades.
        self._unavailable: Optional[ExecutorUnavailable] = None
        self._shutdown = weakref.finalize(self, executor.shutdown)

    # -- submission ------------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[Job, bool, bool]:
        """Enter ``spec`` in the table; returns ``(job, coalesced, cached)``.

        A key already in the table shares its job; a new key is read
        through the cache (settled at once) or handed to the executor —
        a derived one's legs are submitted instead, and its job settles
        with them. Never waits for a simulation.
        """
        key = spec.key
        with self._lock:
            job = self._jobs.get(key)
            if job is not None:
                return self._join(job), True, job.source == "cache"
        legs = {label: self.submit(leg)[0].id for label, leg in spec.legs().items()}
        # The store read runs unlocked (waiters and other submits queue
        # on ``_lock``); the table is re-checked below, so two racing
        # submits of one key still share one job.
        stored = self._read_store(spec) if not legs else MISS
        with self._lock:
            job = self._jobs.get(key)
            if job is not None:
                return self._join(job), True, job.source == "cache"
            if stored is not MISS:
                job = Job(id=key, spec=spec, status="done", source="cache",
                          finished=time.time())
                self._jobs[key] = job
                self._admit(key, *stored)
                self.stats.record(spec, 0.0, "cache")
                return job, False, True
            job = self._jobs[key] = Job(id=key, spec=spec, legs=legs)
            if legs:
                job.status = "running"
                for leg_id in legs.values():
                    if self._jobs[leg_id].status == "running":
                        self._parents.setdefault(leg_id, []).append(job)
                self._settle_derived(job)
                return job, False, False
            self._start(job)
        self._send(job)
        return job, False, False

    def _settle_derived(self, job: Job) -> None:
        """Settle a running derived job once a leg has failed or every leg
        is done, its source then the costliest of theirs (``_lock`` held)."""
        if job.status != "running":
            return
        legs = {label: self._jobs[leg_id] for label, leg_id in job.legs.items()}
        failed = [(label, leg) for label, leg in legs.items() if leg.status == "failed"]
        if failed:
            label, leg = failed[0]
            job.status, job.error = "failed", f"leg {label} ({leg.spec.label}) failed:\n{leg.error}"
            self.stats.record(job.spec, 0.0, "failed")
        elif all(leg.status == "done" for leg in legs.values()):
            sources = {leg.source for leg in legs.values()}
            job.status, job.seconds = "done", sum(leg.seconds for leg in legs.values())
            job.source = next(s for s in ("degraded", "run", "cache") if s in sources)
            # A record, but no count: its legs' submissions were counted.
            self.stats.records.append(JobRecord(job.spec.label, job.id, job.seconds, job.source))
        else:
            return
        job.finished = time.time()
        self._settled.notify_all()

    def _join(self, job: Job) -> Job:
        """Count another submission of ``job``'s key (``_lock`` held)."""
        job.submits += 1
        source = "coalesced" if job.status == "running" else "memo"
        self.stats.record(job.spec, 0.0, source)
        return job

    def _start(self, job: Job) -> None:
        """Mark ``job`` in flight (``_lock`` held); :meth:`_send` next."""
        job.status = "running"
        self._running[job.id] = job
        self.stats.dispatched += 1

    def _send(self, job: Job) -> None:
        try:
            self.executor.submit(job.id, job.spec)
        except ExecutorUnavailable as exc:
            with self._lock:
                self._unavailable = exc

    # -- settling --------------------------------------------------------
    def step(self) -> None:
        """Advance the executor once and settle what it finished.

        A ``give_up`` outcome, and every job in flight that nobody
        answers for once the executor is unavailable, is run in this
        process instead (degrade tier).
        """
        with self._lock:
            unavailable, self._unavailable = self._unavailable, None
        outcomes = None  # None: nobody answers for the jobs in flight
        if unavailable is None:
            try:
                outcomes = self.executor.poll()
            except ExecutorUnavailable as exc:
                unavailable, outcomes = exc, exc.outcomes
        with self._lock:
            for counter in FAULT_COUNTERS:
                setattr(self.stats, counter, getattr(self.executor, counter, 0))
            stranded = list(self._running.values()) if outcomes is None else []
            outcomes = outcomes or []
            fell_back = bool(stranded) or (
                unavailable is not None and any(o.give_up for o in outcomes)
            )
            self.stats.pool_fallbacks += fell_back
        if fell_back:
            warnings.warn(
                f"{self.executor.name} executor unavailable ({unavailable}); "
                "finishing jobs in-process",
                RuntimeWarning,
            )
        for job in stranded:
            self._settle(run_job(job.id, job.spec), "degraded")
        for outcome in outcomes:
            source = "run"
            if outcome.give_up:
                with self._lock:
                    job = self._running.get(outcome.key)
                if job is None:
                    continue  # the degrade tier settled it already
                warnings.warn(
                    f"{job.spec.label}: {self.executor.name} execution gave up "
                    f"({outcome.error}); running in-process",
                    RuntimeWarning,
                )
                outcome, source = run_job(job.id, job.spec), "degraded"
            self._settle(outcome, source)

    def _settle(self, outcome: JobOutcome, source: str) -> None:
        """Record one finished job and wake its waiters; then, unlocked,
        write its result to the store (this table is its one writer)."""
        entry = None
        with self._lock:
            job = self._running.pop(outcome.key, None)
            if job is None:
                return  # the degrade tier settled it first
            job.finished = time.time()
            if outcome.ok:
                job.status, job.source, job.seconds = "done", source, outcome.seconds
                entry = self._admit(job.id, outcome.payload, outcome.sealed)
                self.stats.record(job.spec, outcome.seconds, source)
            else:
                job.status, job.error = "failed", outcome.error
                self.stats.record(job.spec, outcome.seconds, "failed")
            for parent in self._parents.pop(job.id, ()):
                self._settle_derived(parent)
            self._settled.notify_all()
        if entry is not None and self.cache is not None:
            try:
                self.cache.write(self.cache.key_for(job.spec), self._sealed(entry))
            except Exception as exc:  # a write failure only costs a re-simulation
                warnings.warn(f"result cache write failed: {exc}", RuntimeWarning)

    # -- results ---------------------------------------------------------
    def _read_store(self, spec: JobSpec) -> Any:
        """``spec``'s ``(payload, sealed bytes)`` through the cache, or
        :data:`MISS` (disk I/O and unpickling: never call with ``_lock``
        held)."""
        if self.cache is None:
            return MISS
        return self.cache.read(self.cache.key_for(spec))

    def _admit(self, key: str, payload: Any, sealed: Optional[bytes] = None) -> list:
        """Make ``payload`` the most recently used result (``_lock``
        held) and return its entry, ``[payload, sealed bytes or None]``
        (:meth:`_sealed`), or ``[None, sealed bytes]`` once served. Without
        a store nothing can be re-read, so nothing is evicted."""
        entry = self._results[key] = [payload, sealed]
        self._results.move_to_end(key)
        while self.cache is not None and len(self._results) > RESIDENT_RESULTS:
            self._results.popitem(last=False)
        return entry

    def _sealed(self, entry: list) -> bytes:
        """``entry``'s sealed bytes. A result computed in this process
        is sealed here, the first time it is written or served (never
        with ``_lock`` held)."""
        if entry[1] is None:
            sealed = seal(entry[0])
            with self._lock:
                if entry[1] is None:
                    entry[1] = sealed
        return entry[1]

    def fetch(self, job_id: str) -> Any:
        """A done job's result, or :data:`MISS` while it is not done —
        or was evicted and the store lost it too: it is then running
        again. Never waits."""
        entry = self._entry(job_id)
        if entry is MISS:
            return MISS
        payload = entry[0]
        return unseal(entry[1]) if payload is None else payload

    def fetch_sealed(self, job_id: str) -> Optional[bytes]:
        """:meth:`fetch`'s result as sealed bytes, never pickled again, or
        ``None``. The entry then keeps only the bytes, all that HTTP
        serves (:meth:`fetch` unseals them on demand)."""
        entry = self._entry(job_id)
        if entry is MISS:
            return None
        sealed = self._sealed(entry)
        with self._lock:
            entry[0] = None
        return sealed

    def _entry(self, job_id: str) -> Any:
        """The resident entry of a done job (:meth:`_admit`), re-read
        from the store or reduced from its legs when evicted; :data:`MISS`
        as :meth:`fetch` says."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "done":
                return MISS
            entry = self._results.get(job_id)
            if entry is not None:
                self._results.move_to_end(job_id)
                return entry
        if job.legs:  # derived: reduced from its legs' results, never stored
            results = {label: self.fetch(leg_id) for label, leg_id in job.legs.items()}
            if any(result is MISS for result in results.values()):
                return MISS  # a leg evicted, and lost by the store, runs again
            payload = resolve(job.spec.arch).reduce(results)
            with self._lock:
                return self._admit(job_id, payload)
        stored = self._read_store(job.spec)
        with self._lock:
            if stored is not MISS:
                return self._admit(job_id, *stored)
            rerun = job.status == "done" and job_id not in self._results
            if rerun:
                self._start(job)
        if not rerun:
            return self._entry(job_id)  # a concurrent fetch got here first
        self._send(job)
        return MISS

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until ``job_id`` settles (done/failed), the timeout
        elapses or the runner closes; never drives the executor."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self.waiters += 1
            try:
                while True:
                    job = self._jobs.get(job_id)
                    if job is None or job.status in ("done", "failed"):
                        return job
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if self.closed or (remaining is not None and remaining <= 0):
                        return job
                    self._settled.wait(timeout=remaining)
            finally:
                self.waiters -= 1

    def result(self, job_id: str, timeout: Optional[float] = None) -> Any:
        """Drive the table until ``job_id`` settles; returns its result.

        Raises :class:`RemoteJobError` when the simulation failed, and
        ``TimeoutError`` when ``timeout`` elapses first (checked between
        steps).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            payload = self.fetch(job_id)
            if payload is not MISS:
                return payload
            with self._lock:
                job, closed = self._jobs.get(job_id), self.closed
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.status == "failed":
                raise RemoteJobError(
                    f"{job.spec.label} failed on the {self.executor.name} executor:\n"
                    f"{job.error}"
                )
            if closed:  # the executor is gone: nothing will settle it
                raise RuntimeError(f"runner closed before job {job_id[:12]} settled")
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id[:12]} still {job.status!r} after {timeout}s")
            self.step()

    def run(self, spec: JobSpec) -> Any:
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[JobSpec]) -> list[Any]:
        """Submit every spec, then drive the table until each has
        settled; results come back in input order.

        Every input spec gets exactly one :class:`JobRecord`, and
        repeated specs share one job: the *same object* comes back for
        each (while it stays resident).
        """
        jobs = [self.submit(spec)[0] for spec in specs]
        return [self.result(job.id) for job in jobs]

    def stream_timeseries(
        self, job_id: str, sm: int = 0, poll: float = 0.1, timeout: Optional[float] = None
    ) -> Iterator[dict]:
        """Per-window rows of a ``timeseries=True`` job once it has
        settled (``poll`` is :class:`~repro.service.ServiceClient`'s;
        this table drives itself)."""
        series = self.result(job_id, timeout).timeseries
        yield from series[sm] if series else ()

    # -- queries ---------------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> dict:
        """The job's status document (:meth:`Job.summary`)."""
        with self._lock:
            return self._jobs[job_id].summary()

    def table_stats(self) -> dict:
        """Jobs per state, submissions, parked waiters and resident
        results (the service's ``/v1/fleet`` report is built on it)."""
        with self._lock:
            jobs = list(self._jobs.values())
            report = {
                "degraded": self.stats.degraded,
                "waiters": self.waiters,
                "resident_results": len(self._results),
            }
        counts = dict.fromkeys(JOB_STATES, 0)
        submits = 0
        for job in jobs:
            counts[job.status] += 1
            submits += job.submits
        report.update(
            jobs=counts, submits=submits, unique_jobs=len(jobs), coalesced=submits - len(jobs)
        )
        return report

    def close(self) -> None:
        """Release every waiter, shut the executor down and close the
        store's connection (a later read reopens it); idempotent."""
        with self._lock:
            self.closed = True
            self._settled.notify_all()
        self._shutdown()
        if self.cache is not None:
            self.cache.close()
