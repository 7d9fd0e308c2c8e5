"""Pluggable job executors: *where* a simulation runs.

The job table (:class:`~repro.runner.engine.ExperimentRunner`) resolves
every :class:`~repro.runner.spec.JobSpec` through itself and the
persistent cache; whatever survives is handed to the one **executor**
it owns, behind a three-method protocol:

* ``submit(key, spec)`` — enqueue one job,
* ``poll()``            — block until progress, return finished
  :class:`JobOutcome`\\ s (possibly none, when the call only advanced
  internal state such as a respawn),
* ``shutdown()``        — release workers/pools; idempotent.

An executor may also count its infrastructure faults as ``retried``,
``requeued`` and ``worker_deaths`` attributes; the engine reports them
in :class:`~repro.runner.engine.RunnerStats`. Only ``RemoteExecutor``
takes ``submit`` from any thread; the others are driven from one.

Four implementations cover the deployment spectrum:

=================  ========================================================
``InlineExecutor``   runs jobs on ``poll()`` in the calling process — the
                     zero-infrastructure reference semantics.
``PoolExecutor``     a ``ProcessPoolExecutor`` fan-out.
``LoopbackExecutor`` round-trips every spec through the full wire
                     protocol (encode → decode → execute → encode →
                     decode) *in-process*: every byte that would cross a
                     network crosses a string, deterministically, which
                     is what makes protocol faults unit-testable.
``RemoteExecutor``   one worker process per host entry — forked from this
                     process by default, or exec'd from a command
                     template such as ``ssh {host} python -m repro
                     worker`` for real remote hosts — fed over
                     line-delimited stdin/stdout by the
                     :class:`~repro.runner.fleet.WorkerFleet` it drives.
=================  ========================================================

Failure semantics are uniform and deliberate:

* a **simulation error** (the job itself raised) is final — it comes
  back as ``JobOutcome(ok=False, error=...)`` on every executor and the
  engine raises :class:`RemoteJobError`, because deterministic failures
  do not heal on retry;
* an **infrastructure fault** (worker death, response timeout, a
  corrupted wire line) requeues the job with bounded retries and
  linear backoff; a job that exhausts its attempts is returned with
  ``give_up=True`` and the engine finishes it in-process;
* a **dead executor** (nothing can run at all: unlaunchable command,
  launch budget spent with no worker left, broken pool) raises
  :class:`ExecutorUnavailable` and the engine degrades to in-process
  execution for everything still pending.
"""

from __future__ import annotations

import traceback
from collections import deque
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.runner.fleet import (
    DEFAULT_BACKOFF,
    DEFAULT_MAX_ATTEMPTS,
    JobOutcome,
    WorkerFleet,
)
from repro.runner.spec import JobSpec
from repro.runner.wire import (
    WireError,
    decode_job,
    decode_result,
    encode_error,
    encode_job,
    encode_result,
    seal,
    unseal,
)

#: Executor names accepted by the engine and the CLI.
EXECUTOR_NAMES = ("inline", "pool", "remote", "loopback")


class ExecutorUnavailable(RuntimeError):
    """The executor cannot run anything; degrade to in-process.

    Without ``outcomes`` every job in flight is run in-process at once.
    With them (from ``poll``) the executor still answers for each job it
    holds, by giving it up: this poll's outcomes, then later polls'.
    """

    def __init__(self, message: str, outcomes: "Optional[list[JobOutcome]]" = None) -> None:
        super().__init__(message)
        self.outcomes = outcomes


class RemoteJobError(RuntimeError):
    """A job raised wherever it ran; carries that side's traceback."""


@runtime_checkable
class Executor(Protocol):
    """The pluggable "where does a job run" surface."""

    name: str

    def submit(self, key: str, spec: JobSpec) -> None: ...

    def poll(self) -> "list[JobOutcome]": ...

    def shutdown(self) -> None: ...


def run_job(key: str, spec: JobSpec) -> JobOutcome:
    """Run one job in this process; a simulation error is a failed outcome."""
    from repro.runner.engine import execute_job

    try:
        payload, seconds = execute_job(spec)
    except Exception:
        return JobOutcome(key=key, ok=False, error=traceback.format_exc())
    return JobOutcome(key=key, ok=True, payload=payload, seconds=seconds)


def sealed_job(spec: JobSpec) -> tuple[bytes, float]:
    """A pool child's job: the payload sealed where it was computed."""
    from repro.runner.engine import execute_job

    payload, seconds = execute_job(spec)
    return seal(payload), seconds


# ---------------------------------------------------------------------------
# Inline
# ---------------------------------------------------------------------------
class InlineExecutor:
    """Run each job in the calling process, one per ``poll()``."""

    name = "inline"

    def __init__(self) -> None:
        self._queue: deque[tuple[str, JobSpec]] = deque()

    def submit(self, key: str, spec: JobSpec) -> None:
        self._queue.append((key, spec))

    def poll(self) -> list[JobOutcome]:
        if not self._queue:
            return []
        return [run_job(*self._queue.popleft())]

    def shutdown(self) -> None:
        self._queue.clear()


# ---------------------------------------------------------------------------
# Process pool
# ---------------------------------------------------------------------------
class PoolExecutor:
    """``ProcessPoolExecutor`` fan-out with infra-fault translation.

    Pool-infrastructure failures (broken pool, sandboxed semaphores,
    unpicklable payloads, fork unavailable) surface as
    :class:`ExecutorUnavailable`; any other exception is the job's own
    and comes back as a failed outcome.
    """

    name = "pool"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._pool = None
        self._futures: dict[Any, str] = {}

    def _ensure_pool(self):
        import concurrent.futures as cf

        if self._pool is None:
            try:
                self._pool = cf.ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ValueError, ImportError) as exc:
                raise ExecutorUnavailable(f"cannot create process pool: {exc}")
        return self._pool

    def submit(self, key: str, spec: JobSpec) -> None:
        import pickle

        pool = self._ensure_pool()
        try:
            future = pool.submit(sealed_job, spec)
        except (RuntimeError, OSError, pickle.PicklingError) as exc:
            raise ExecutorUnavailable(f"pool submit failed: {exc}")
        self._futures[future] = key

    def poll(self) -> list[JobOutcome]:
        import concurrent.futures as cf
        import pickle

        if not self._futures:
            return []
        done, _ = cf.wait(self._futures, return_when=cf.FIRST_COMPLETED)
        outcomes = []
        for future in done:
            key = self._futures.pop(future)
            try:
                sealed, seconds = future.result()
                payload = unseal(sealed)
            except cf.process.BrokenProcessPool as exc:
                raise ExecutorUnavailable(f"process pool died: {exc}")
            except (OSError, ImportError, pickle.PicklingError) as exc:
                raise ExecutorUnavailable(f"process pool unusable: {exc}")
            except Exception as exc:
                error = "".join(traceback.format_exception(exc))
                outcomes.append(JobOutcome(key=key, ok=False, error=error))
                continue
            outcomes.append(
                JobOutcome(key=key, ok=True, payload=payload, seconds=seconds, sealed=sealed)
            )
        return outcomes

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._futures.clear()


# ---------------------------------------------------------------------------
# Loopback
# ---------------------------------------------------------------------------
class LoopbackExecutor:
    """Full wire-protocol round trip, in-process and deterministic.

    Each job is encoded to a job line, decoded as a worker would,
    executed, encoded to a result line, and decoded back. The
    ``mutate_job`` / ``mutate_result`` hooks let tests corrupt either
    line and watch the retry/give-up machinery react — the exact
    behaviour a flipped bit on a real socket would trigger, with none
    of the nondeterminism.
    """

    name = "loopback"

    def __init__(
        self,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        mutate_job: Optional[Callable[[str], str]] = None,
        mutate_result: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.max_attempts = max(1, max_attempts)
        self.mutate_job = mutate_job
        self.mutate_result = mutate_result
        self.retried = 0
        self.requeued = 0
        self._queue: deque[tuple[str, JobSpec]] = deque()

    def submit(self, key: str, spec: JobSpec) -> None:
        self._queue.append((key, spec))

    def _round_trip(self, key: str, spec: JobSpec) -> JobOutcome:
        """One attempt through the full encode/decode/execute cycle."""
        from repro.runner.engine import execute_job

        job_line = encode_job(key, spec)
        if self.mutate_job is not None:
            job_line = self.mutate_job(job_line)
        wire_key, wire_spec = decode_job(job_line)  # may raise WireError

        try:
            payload, seconds = execute_job(wire_spec)
            result_line = encode_result(wire_key, payload, seconds)
        except Exception as exc:
            result_line = encode_error(wire_key, f"{type(exc).__name__}: {exc}")
        if self.mutate_result is not None:
            result_line = self.mutate_result(result_line)
        return decode_result(result_line)  # may raise WireError

    def poll(self) -> list[JobOutcome]:
        if not self._queue:
            return []
        key, spec = self._queue.popleft()
        for attempt in range(1, self.max_attempts + 1):
            try:
                return [self._round_trip(key, spec)]
            except WireError:
                self.requeued += 1
                self.retried += attempt < self.max_attempts
        return [JobOutcome(key=key, ok=False, give_up=True,
                           error="wire corruption persisted across retries")]

    def shutdown(self) -> None:
        self._queue.clear()


# ---------------------------------------------------------------------------
# Remote (a worker process per host)
# ---------------------------------------------------------------------------
class RemoteExecutor:
    """Ship jobs to worker processes: the synchronous driver of a
    :class:`~repro.runner.fleet.WorkerFleet`, one ``step()`` per ``poll()``.

    Parameters
    ----------
    hosts:
        One worker per entry (names interpolated into ``command``);
        ``None`` runs ``workers`` local workers.
    command / job_timeout / max_attempts / backoff:
        See :class:`~repro.runner.fleet.WorkerFleet`; ``command=None``
        forks each worker from this process.
    """

    name = "remote"

    retried = property(lambda self: self.fleet.retried)
    requeued = property(lambda self: self.fleet.requeued)
    worker_deaths = property(lambda self: self.fleet.worker_deaths)

    def __init__(
        self,
        hosts: Optional[list] = None,
        workers: int = 2,
        command: Optional[str] = None,
        job_timeout: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF,
    ) -> None:
        self.fleet = WorkerFleet(
            hosts=hosts or ["local"] * max(1, workers),
            command=command or None,
            job_timeout=job_timeout,
            max_attempts=max_attempts,
            backoff=backoff,
        )

    def submit(self, key: str, spec: JobSpec) -> None:
        if self.fleet.closed:
            raise ExecutorUnavailable("executor already shut down")
        self.fleet.submit(key, spec)

    def poll(self) -> list[JobOutcome]:
        outcomes = self.fleet.step()
        if self.fleet.exhausted:
            # An exhausted fleet gives every job it holds up, now or at
            # the step after its submit: each is run in-process once.
            command = self.fleet.command
            launcher = "a fork" if command is None else f"template {command!r}"
            raise ExecutorUnavailable(
                f"no worker could be started from {launcher}: {self.fleet.last_error}",
                outcomes,
            )
        return outcomes

    def shutdown(self) -> None:
        self.fleet.shutdown()


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------
def build_executor(
    name: str,
    *,
    workers: int = 1,
    hosts: Optional[list] = None,
    command: Optional[str] = None,
    job_timeout: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff: float = DEFAULT_BACKOFF,
) -> Executor:
    """Construct a named executor with the engine's tuning knobs."""
    if name == "inline":
        return InlineExecutor()
    if name == "pool":
        return PoolExecutor(workers=workers)
    if name == "loopback":
        return LoopbackExecutor(max_attempts=max_attempts)
    if name == "remote":
        return RemoteExecutor(
            hosts=hosts,
            workers=workers,
            command=command,
            job_timeout=job_timeout,
            max_attempts=max_attempts,
            backoff=backoff,
        )
    known = ", ".join(EXECUTOR_NAMES)
    raise ValueError(f"unknown executor {name!r}; known: {known}")
