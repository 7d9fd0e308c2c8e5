"""The worker fleet: worker processes behind one core.

:class:`WorkerFleet` owns everything about running jobs on worker
processes over the wire protocol of :mod:`repro.runner.wire`: the
worker table, the backlog, launching, the per-worker reader threads,
hello and result handling, recycling, requeue with backoff, and
deadlines. It starts no thread that makes decisions; its one driver,
:class:`~repro.runner.executors.RemoteExecutor`, calls
:meth:`WorkerFleet.step` once per ``poll()``. The job table above it is
stepped by whoever asks a batch for its results, or — in the service —
by the coordinator's ``fleet-dispatch`` thread, while HTTP handler
threads reach :meth:`~WorkerFleet.submit` and read
:meth:`~WorkerFleet.stats`.

One policy, with no option selecting between variants:

=================  ========================================================
hello-gated        a job is only written to a worker that has greeted, so
                   version skew is seen before any work is sent
launch budget      ``len(hosts) * max_attempts`` launches may go
                   unanswered by a hello in a row; any hello resets the
                   count. Once it is spent and the last worker is gone the
                   fleet is :attr:`~WorkerFleet.exhausted`: it launches
                   nothing more and turns every queued and every later
                   job into a ``give_up`` outcome at once
per-job attempts   a job whose worker dies, hangs past ``job_timeout`` or
                   answers garbage is requeued ``backoff * attempt``
                   seconds later, ``max_attempts`` dispatches in all,
                   then comes back ``give_up``
deadlines          ``job_timeout`` bounds a dispatched job and, equally,
                   a launched worker's wait for its hello
=================  ========================================================

A worker is launched one of two ways. With no command template (the
default) it is an ``os.fork()`` of this process, which has already
imported the simulator: the child serves the wire protocol on two pipes
(:func:`repro.runner.worker.serve_forked`) and answers its hello within
milliseconds. With a template — ``ssh {host} python -m repro worker``,
or a test's fault shim — the command is exec'd through
:class:`subprocess.Popen`, which pays an interpreter boot and the
simulator's imports on every launch. Where ``os.fork`` does not exist
the default is the exec'd :data:`DEFAULT_WORKER_COMMAND`. Both kinds
look alike to everything below the launch: a handle with ``pid``,
``stdin``, ``stdout``, ``kill()`` and ``wait()``.

A remote *simulation* error is final: it comes back as a failed
outcome, never retried. A ``give_up`` outcome asks the owner to run the
job in-process (the job table's degrade tier).
"""

from __future__ import annotations

import os
import queue
import shlex
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Optional, Union

from repro.runner.spec import JobSpec
from repro.runner.wire import (
    JobOutcome,
    ProtocolMismatch,
    WireError,
    decode_hello,
    decode_result,
    encode_job,
)
from repro.runner.worker import serve_forked

#: The exec'd worker's launch template; ``{python}`` and ``{host}`` are
#: substituted. A fleet with no template forks its workers instead,
#: except where ``os.fork`` does not exist, where it runs this one.
#: Swap for e.g. ``ssh {host} python -m repro worker`` to cross real
#: machines — the fleet is identical.
DEFAULT_WORKER_COMMAND = "{python} -u -m repro worker"
#: Default per-job dispatch budget, and per-host launch budget.
DEFAULT_MAX_ATTEMPTS = 3
#: Default seconds of delay per attempt before a requeued job goes out again.
DEFAULT_BACKOFF = 0.05
#: Longest ``step()`` blocks when no event, deadline or backoff is due.
IDLE_TICK = 0.1
#: Longest a killed worker is waited for before it is left to the OS.
REAP_SECONDS = 2.0

_WAKE = (-1, "wake", "")


def worker_env() -> dict:
    """Subprocess environment with the installed ``repro`` importable."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    return env


class _ForkedWorker:
    """A forked worker behind the slice of :class:`subprocess.Popen` the
    fleet uses: ``pid``, ``stdin``, ``stdout``, ``kill()``, ``wait()``."""

    def __init__(self, pid: int, stdin: IO[str], stdout: IO[str]) -> None:
        self.pid, self.stdin, self.stdout = pid, stdin, stdout
        self.returncode: Optional[int] = None

    def kill(self) -> None:
        # Until it is reaped the child's pid cannot be reused.
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)

    def wait(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:  # reaped by someone else
                pid, status = self.pid, 0
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
            elif time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"worker {self.pid}", timeout)
            else:
                time.sleep(delay)
                delay = min(2 * delay, 0.05)
        return self.returncode


def _fork_worker() -> _ForkedWorker:
    """Fork a worker from this process, wired to two fresh pipes."""
    job_r, job_w = os.pipe()
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (job_r, job_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        serve_forked(job_r, result_w)
    os.close(job_r)
    os.close(result_w)
    return _ForkedWorker(
        pid,
        open(job_w, "w", encoding="utf-8", buffering=1),
        open(result_r, encoding="utf-8"),
    )


@dataclass
class _Job:
    key: str
    spec: JobSpec
    attempt: int = 1
    not_before: float = 0.0


@dataclass
class _Worker:
    """Book-keeping for one worker process in the table."""

    wid: int
    host: str
    proc: Union[subprocess.Popen, _ForkedWorker]
    #: When to give up on the hello (until greeted) or on ``job``.
    deadline: Optional[float]
    job: Optional[_Job] = None
    greeted: bool = False
    jobs_done: int = 0
    launched_at: float = field(default_factory=time.monotonic)


class WorkerFleet:
    """Worker processes, their backlog, and the policy between them.

    Parameters
    ----------
    hosts:
        One worker per entry. Entries are only *names* interpolated
        into ``command``; with forked workers they are cosmetic, with
        an SSH template they select machines.
    command:
        Launch template, exec'd per worker; ``{python}`` →
        ``sys.executable``, ``{host}`` → the host entry. Split with
        :func:`shlex.split`. ``None`` (the default) forks each worker
        from this process.
    job_timeout / max_attempts / backoff:
        The policy table in the module docstring; ``job_timeout=None``
        sets no deadline.

    ``submit``, ``stats``, ``worker_pids`` and ``shutdown`` may be
    called from any thread; ``step`` from one thread at a time.
    """

    def __init__(
        self,
        hosts: list,
        command: Optional[str] = None,
        job_timeout: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF,
    ) -> None:
        self.hosts = list(hosts)
        if command is None and not hasattr(os, "fork"):
            command = DEFAULT_WORKER_COMMAND
        self.command = command
        self.job_timeout = job_timeout
        self.max_attempts = max(1, max_attempts)
        self.backoff = backoff
        self._launch_budget = len(self.hosts) * self.max_attempts
        self._events: "queue.Queue[tuple[int, str, str]]" = queue.Queue()
        # ``_lock`` guards every field below. Blocking work — Popen,
        # pipe I/O, waiting for a killed process — happens outside it.
        self._lock = threading.Lock()
        self._workers: dict[int, _Worker] = {}
        self._backlog: deque[_Job] = deque()
        self._next_wid = 0
        self._closed = False
        #: Launches since the last hello (the launch budget's meter).
        self._unanswered = 0
        self.dispatched = 0
        self.completed = 0
        self.retried = 0
        self.requeued = 0
        self.worker_deaths = 0
        self.give_ups = 0
        #: Why the latest launch ended without a hello.
        self.last_error = ""

    # -- any thread ------------------------------------------------------
    def submit(self, key: str, spec: JobSpec) -> None:
        """Enqueue one job and wake a blocked :meth:`step`."""
        with self._lock:
            self._backlog.append(_Job(key=key, spec=spec))
        # A pending event already ends the driver's wait, and the step
        # after it sees this job; only an empty queue needs the nudge.
        if self._events.empty():
            self._events.put(_WAKE)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def exhausted(self) -> bool:
        """The launch budget is spent and no worker is left: nothing
        submitted here will ever run on a worker."""
        with self._lock:
            return self._exhausted()

    def _exhausted(self) -> bool:
        return not self._workers and self._unanswered >= self._launch_budget

    def stats(self) -> dict:
        now = time.monotonic()
        with self._lock:
            workers = [
                {
                    "wid": w.wid,
                    "host": w.host,
                    "pid": w.proc.pid,
                    "greeted": w.greeted,
                    "busy": w.job is not None,
                    "job": w.job.key if w.job is not None else None,
                    "jobs_done": w.jobs_done,
                    "uptime_seconds": round(now - w.launched_at, 3),
                }
                for w in self._workers.values()
            ]
            return {
                "size": len(self.hosts),
                "alive": len(workers),
                "backlog": len(self._backlog),
                "dispatched": self.dispatched,
                "completed": self.completed,
                "retried": self.retried,
                "requeued": self.requeued,
                "worker_deaths": self.worker_deaths,
                "give_ups": self.give_ups,
                "last_error": self.last_error,
                "workers": workers,
            }

    def worker_pids(self) -> list:
        """PIDs of every worker not yet reaped (the orphan audit)."""
        with self._lock:
            return [w.proc.pid for w in self._workers.values()]

    def shutdown(self, grace: float = 2.0) -> None:
        """Close every worker's stdin (EOF is the worker's shutdown
        signal), wait ``grace`` seconds, kill and reap the stragglers.
        Idempotent; a concurrent ``step`` launches nothing afterwards."""
        with self._lock:
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
        self._events.put(_WAKE)
        for worker in workers:
            try:
                worker.proc.stdin.close()
            except OSError:
                pass
        deadline = time.monotonic() + grace
        for worker in workers:
            try:
                worker.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self._reap(worker)

    # -- the driving entry point -----------------------------------------
    def step(self, timeout: float = IDLE_TICK) -> list[JobOutcome]:
        """Advance the fleet once and return the jobs that finished.

        Launch a worker for every host without one, write ready jobs to
        idle greeted workers, recycle workers past their deadline; then,
        unless that already produced an outcome, wait for one event —
        a line or EOF from a worker, or a ``submit`` — for at most
        ``timeout`` seconds or until the nearest deadline or backoff
        expiry, whichever is first, and handle it.
        """
        outcomes: list[JobOutcome] = []
        self._top_up(outcomes)
        wakes = [self._assign(outcomes), self._expire(outcomes)]
        if outcomes:
            return outcomes
        wake = min((t for t in wakes if t is not None), default=float("inf"))
        wait = min(timeout, wake - time.monotonic())
        try:
            wid, kind, line = self._events.get(timeout=max(0.0, wait))
        except queue.Empty:
            return outcomes
        self._handle(wid, kind, line, outcomes)
        return outcomes

    # -- launching -------------------------------------------------------
    def _top_up(self, outcomes: list[JobOutcome]) -> None:
        """One worker per host entry, within the launch budget; with
        the budget spent and nobody left, give the backlog up."""
        while True:
            with self._lock:
                host = self._host_to_launch()
                if host is None:
                    if self._exhausted():
                        reason = f"no worker could be started ({self.last_error})"
                        while self._backlog:
                            self._give_up(self._backlog.popleft(), reason, outcomes)
                    return
                self._unanswered += 1
                wid = self._next_wid
                self._next_wid += 1
            self._launch(wid, host)

    def _host_to_launch(self) -> Optional[str]:
        full = len(self._workers) == len(self.hosts)
        if full or self._closed or self._unanswered >= self._launch_budget:
            return None
        missing = list(self.hosts)
        for worker in self._workers.values():
            missing.remove(worker.host)
        return missing[0]

    def _launch(self, wid: int, host: str) -> None:
        try:
            if self.command is None:
                proc = _fork_worker()
            else:
                proc = subprocess.Popen(
                    shlex.split(self.command.format(python=sys.executable, host=host)),
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    text=True,
                    bufsize=1,
                    env=worker_env(),
                )
        except (OSError, ValueError, LookupError) as exc:
            with self._lock:
                self.last_error = f"cannot launch a worker for {host!r}: {exc}"
            return
        worker = _Worker(wid=wid, host=host, proc=proc, deadline=self._deadline())
        with self._lock:
            closed = self._closed
            if not closed:
                self._workers[wid] = worker
        if closed:  # shutdown() ran during the fork: it never saw this one
            self._reap(worker)
            return
        reader = threading.Thread(
            target=self._read_loop, args=(wid, proc), name=f"fleet-read-{wid}", daemon=True
        )
        reader.start()

    def _read_loop(self, wid: int, proc: Union[subprocess.Popen, _ForkedWorker]) -> None:
        try:
            with proc.stdout:
                for line in proc.stdout:
                    self._events.put((wid, "line", line))
        except (OSError, ValueError):
            pass
        self._events.put((wid, "eof", ""))

    def _deadline(self) -> Optional[float]:
        return time.monotonic() + self.job_timeout if self.job_timeout else None

    # -- dispatch --------------------------------------------------------
    def _assign(self, outcomes: list[JobOutcome]) -> Optional[float]:
        """Write ready jobs to idle greeted workers. Returns when the
        earliest backed-off job could go to a worker that is idle now."""
        now = time.monotonic()
        picked: list[_Worker] = []
        with self._lock:
            idle = deque(w for w in self._workers.values() if w.greeted and w.job is None)
            for _ in range(len(self._backlog)):
                if not idle:
                    break
                job = self._backlog.popleft()
                if job.not_before > now:
                    self._backlog.append(job)
                    continue
                worker = idle.popleft()
                worker.job = job
                worker.deadline = self._deadline()
                self.dispatched += 1
                self.retried += job.attempt > 1
                picked.append(worker)
            # A worker still idle means every job left is backing off.
            retry_at = min((j.not_before for j in self._backlog), default=None) if idle else None
        for worker in picked:
            try:
                # Pipe I/O stays outside the lock: a worker with a full
                # stdin buffer must not stall stats()/submit() callers.
                worker.proc.stdin.write(encode_job(worker.job.key, worker.job.spec) + "\n")
                worker.proc.stdin.flush()
            except (OSError, ValueError):
                self._recycle(worker, "worker pipe broke on dispatch", outcomes)
        return retry_at

    def _expire(self, outcomes: list[JobOutcome]) -> Optional[float]:
        """Recycle every worker past its deadline; returns the nearest
        deadline still ahead."""
        now = time.monotonic()
        with self._lock:
            timed = [w for w in self._workers.values() if w.deadline is not None]
        for worker in timed:
            if worker.deadline <= now:
                what = "job exceeded timeout of" if worker.greeted else "no hello within"
                self._recycle(worker, f"{what} {self.job_timeout}s", outcomes)
        return min((w.deadline for w in timed if w.deadline > now), default=None)

    # -- events ----------------------------------------------------------
    def _handle(self, wid: int, kind: str, line: str, outcomes: list[JobOutcome]) -> None:
        with self._lock:
            worker = self._workers.get(wid)
        if worker is None:
            return  # a wake-up, or the last words of a recycled worker
        if kind == "eof":
            reason = "worker died" if worker.greeted else "worker exited before hello"
            self._recycle(worker, reason, outcomes)
            return
        line = line.strip()
        if not line:
            return
        if not worker.greeted:
            try:
                decode_hello(line)
            except ProtocolMismatch as exc:
                self._recycle(worker, str(exc), outcomes)
            except WireError:
                reason = f"worker spoke garbage instead of hello: {line[:80]!r}"
                self._recycle(worker, reason, outcomes)
            else:
                with self._lock:
                    worker.greeted = True
                    worker.deadline = None
                    self._unanswered = 0
            return
        try:
            result = decode_result(line)
        except WireError as exc:
            self._recycle(worker, f"corrupted result line ({exc})", outcomes)
            return
        if worker.job is None or result.key != worker.job.key:
            self._recycle(worker, f"result for unexpected key {result.key[:12]!r}", outcomes)
            return
        with self._lock:
            worker.job = None
            worker.deadline = None
            worker.jobs_done += 1
            self.completed += 1
        outcomes.append(result)  # ok=False is a remote simulation error: final

    # -- faults ----------------------------------------------------------
    def _recycle(self, worker: _Worker, reason: str, outcomes: list[JobOutcome]) -> None:
        """Drop a faulted worker from the table, requeue its job (or
        give it up), then kill and reap the process."""
        with self._lock:
            if self._workers.pop(worker.wid, None) is None:
                return  # shutdown() took the table first
            self.worker_deaths += 1
            if not worker.greeted:
                self.last_error = reason
            job, worker.job = worker.job, None
            if job is not None and job.attempt >= self.max_attempts:
                self._give_up(job, f"{reason}; gave up after {job.attempt} attempts", outcomes)
            elif job is not None:
                self.requeued += 1
                job.not_before = time.monotonic() + self.backoff * job.attempt
                job.attempt += 1
                self._backlog.append(job)
        self._reap(worker)

    def _give_up(self, job: _Job, error: str, outcomes: list[JobOutcome]) -> None:
        self.give_ups += 1
        outcomes.append(JobOutcome(key=job.key, ok=False, give_up=True, error=error))

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Kill and wait for a worker already out of the table, so it is
        neither a zombie nor an orphan (never call with the lock held)."""
        try:
            worker.proc.stdin.close()
        except OSError:
            pass
        worker.proc.kill()
        try:
            worker.proc.wait(timeout=REAP_SECONDS)
        except subprocess.TimeoutExpired:
            pass
