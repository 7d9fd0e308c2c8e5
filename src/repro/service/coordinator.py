"""The simulation coordinator: one warm fleet, many concurrent clients.

:class:`Coordinator` owns three things:

* a **job table** keyed by the spec's content hash — the same hash the
  engine's memo and the persistent cache use, so *identity is content*:
  two clients submitting the same (app, arch, config, scale, options)
  get the same job id, and at most one simulation runs;
* a :class:`~repro.runner.fleet.WorkerFleet` of persistent
  ``python -m repro worker`` processes (the execute tier) and the one
  ``fleet-dispatch`` thread that drives it, plus the **degrade tier**:
  a job the fleet gives up on is run in-process on a fallback thread,
  mirroring the batch engine's ``ExecutorUnavailable`` path;
* a :class:`~repro.runner.cache.ResultCache` over
  :class:`~repro.runner.cache.SharedDirectoryBackend` as the
  **read-through result store** — a submit whose key is already cached
  completes instantly, and workers write the same store as they finish,
  so duplicates across coordinator restarts dedup too.

A settled job keeps no live result: its payload is encoded **once**
into the wire protocol's digest-protected box, and only the
:data:`RESIDENT_RESULTS` most recently used boxes stay in memory — an
evicted one is re-read through the store on demand (nothing is evicted
when the coordinator runs without a store).

:class:`ServiceHandler` exposes it over HTTP/1.1 + JSON (stdlib
``ThreadingHTTPServer``, one thread per *connection*, which stays open
between requests; handler threads only touch the lock-guarded job
table, never worker pipes):

========================================  ================================
``POST /v1/jobs``                           submit one schema-versioned
                                            JSON job document; returns
                                            ``{job_id, status, cached,
                                            coalesced}``
``GET  /v1/jobs/{id}``                      status/provenance summary
``GET  /v1/jobs/{id}/result``               the portable result payload,
                                            pickled + base64 + SHA-256
                                            (the wire protocol's
                                            digest-protected box);
                                            ``?wait=S`` parks the request
                                            until the job settles, 202
                                            after ``S`` seconds (capped at
                                            :data:`MAX_WAIT_SECONDS`)
``GET  /v1/jobs/{id}/timeseries``           per-window rows of a
                                            ``timeseries=True`` run;
                                            ``?sm=N&since=K`` for
                                            incremental consumption
``GET  /v1/fleet``                          fleet + coordinator health
``GET  /v1/healthz``                        liveness + protocol versions
========================================  ================================

Trust model: result payloads are *pickles* (digest-protected against
corruption, not against attackers), exactly like the worker wire
protocol. The service is for trusted networks — bind it to loopback or
a private interface, never the open internet.
"""

from __future__ import annotations

import json
import shlex
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from repro.runner.cache import MISS, ResultCache, SharedDirectoryBackend
from repro.runner.fleet import (
    DEFAULT_BACKOFF,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_WORKER_COMMAND,
    JobOutcome,
    WorkerFleet,
)
from repro.runner.spec import JobSpec
from repro.runner.wire import PROTOCOL_VERSION, _pack, _unpack
from repro.service.schema import JOB_SCHEMA_VERSION, SchemaError, decode_jobspec

#: Default TCP port; "VC" on a phone keypad would be a stretch — it is
#: simply a high port unlikely to collide with anything common.
DEFAULT_PORT = 8642

JOB_STATES = ("queued", "running", "done", "failed")

#: Encoded results kept in memory (most recently used first to stay).
RESIDENT_RESULTS = 128
#: Longest a ``GET .../result?wait=S`` request parks its handler thread.
MAX_WAIT_SECONDS = 20.0
#: Largest request body read; job documents are a few KB.
MAX_BODY_BYTES = 1 << 20


@dataclass
class Job:
    """One logical simulation, however many clients asked for it."""

    id: str
    spec: JobSpec
    status: str = "queued"
    error: str = ""
    source: str = ""  # "cache" | "fleet" | "degraded"
    seconds: float = 0.0
    submits: int = 1
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None

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


class Coordinator:
    """Job table + fleet + shared cache; the service's single brain."""

    def __init__(
        self,
        workers: int = 2,
        cache_dir: "str | None" = None,
        use_cache: bool = True,
        worker_command: Optional[str] = None,
        job_timeout: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF,
    ) -> None:
        backend = SharedDirectoryBackend(cache_dir)
        self.cache = ResultCache(backend=backend) if use_cache else None
        if worker_command is None:
            worker_command = DEFAULT_WORKER_COMMAND
            if use_cache:
                # Results land in the shared store as they are produced,
                # and a requeued duplicate is a worker-side cache hit.
                worker_command += (
                    f" --cache-dir {shlex.quote(str(backend.root))} --shared-cache"
                )
        self.fleet = WorkerFleet(
            hosts=["local"] * max(1, workers),
            command=worker_command,
            job_timeout=job_timeout,
            max_attempts=max_attempts,
            backoff=backoff,
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fleet-dispatch", daemon=True
        )
        self._jobs: dict[str, Job] = {}
        #: Encoded results of settled jobs, least recently used first.
        self._boxes: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._waiters = 0
        self.closed = False
        self.started_at = time.time()
        self.degraded = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Launch the workers and the thread that drives them (once)."""
        if self._dispatcher.ident is None:
            self._deliver(self.fleet.step(0.0))  # the workers are launched when this returns
            self._dispatcher.start()

    def shutdown(self) -> None:
        with self._lock:
            self.closed = True
            self._done.notify_all()  # release parked handlers
        self.fleet.shutdown()  # leaves no worker process behind
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=2.0)

    def _dispatch_loop(self) -> None:
        """The fleet's driver: all worker pipe I/O happens on this thread."""
        while not self.fleet.closed:
            self._deliver(self.fleet.step())

    def _deliver(self, outcomes: "list[JobOutcome]") -> None:
        for outcome in outcomes:
            self._on_outcome(outcome)  # takes ``_lock`` itself: none held here

    # -- encoded results -------------------------------------------------
    def _load_box(self, spec: JobSpec) -> Optional[dict]:
        """Read ``spec``'s result through the store and encode it (disk
        I/O and pickling: never call with ``_lock`` held)."""
        if self.cache is None:
            return None
        payload = self.cache.get(self.cache.key_for(spec))
        return None if payload is MISS else _pack(payload)

    def _admit(self, key: str, box: dict) -> None:
        """Make ``box`` the most recently used (``_lock`` held). Without
        a store nothing can be re-read, so nothing is evicted."""
        self._boxes[key] = box
        self._boxes.move_to_end(key)
        while self.cache is not None and len(self._boxes) > RESIDENT_RESULTS:
            self._boxes.popitem(last=False)

    def result_box(self, job: Job) -> Optional[dict]:
        """The encoded result of ``job``; ``None`` while it is not done —
        or was evicted and the store lost it too: it is then running again."""
        with self._lock:
            if job.status != "done":
                return None
            box = self._boxes.get(job.id)
            if box is not None:
                self._boxes.move_to_end(job.id)
                return box
        box = self._load_box(job.spec)
        with self._lock:
            if box is not None:
                self._admit(job.id, box)
                return box
            if job.status != "done" or job.id in self._boxes:
                return self._boxes.get(job.id)  # a concurrent request got here first
            job.status = "running"
        self.fleet.submit(job.id, job.spec)
        return None

    # -- submission ------------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[Job, bool, bool]:
        """Register one spec; returns ``(job, coalesced, cached)``.

        Content-hash identity does the dedup: a second submission of an
        in-flight or finished key only bumps ``submits``.
        """
        key = spec.key
        with self._lock:
            known = key in self._jobs
        # The store read-through runs unlocked (handlers and long-poll
        # wake-ups queue on ``_lock``); the table is re-checked below, so
        # two racing submits of one key still share one job.
        box = None if known else self._load_box(spec)
        with self._lock:
            job = self._jobs.get(key)
            if job is not None:
                job.submits += 1
                return job, True, job.source == "cache"
            if box is not None:
                job = Job(id=key, spec=spec, status="done", source="cache", finished=time.time())
                self._jobs[key] = job
                self._admit(key, box)
                return job, False, True
            job = Job(id=key, spec=spec, status="running")
            self._jobs[key] = job
        self.fleet.submit(key, spec)
        return job, False, False

    # -- completion ------------------------------------------------------
    def _on_outcome(self, outcome: JobOutcome) -> None:
        """Settle one job (dispatcher thread, or a degrade thread)."""
        if outcome.give_up:
            # Degrade tier: the fleet is out of attempts for this job;
            # run it in-process so the client still gets an answer.
            threading.Thread(
                target=self._run_degraded,
                args=(outcome.key,),
                name=f"degrade-{outcome.key[:8]}",
                daemon=True,
            ).start()
            return
        # Encode once, here and unlocked; the live result is not kept.
        box = _pack(outcome.payload) if outcome.ok else None
        with self._lock:
            job = self._jobs.get(outcome.key)
            if job is None or job.status == "done":
                return
            if box is not None:
                job.status = "done"
                self._admit(job.id, box)
                job.seconds = outcome.seconds
                job.source = job.source or "fleet"
            else:
                job.status = "failed"
                job.error = outcome.error
            job.finished = time.time()
            self._done.notify_all()
        if outcome.ok and self.cache is not None:
            try:
                # Workers launched with --cache-dir landed the entry before
                # answering; only the degrade tier and custom commands
                # without one still need this (dispatcher-thread) pickle.
                key = self.cache.key_for(job.spec)
                if not self.cache.path_for(key).exists():
                    self.cache.put(key, outcome.payload)
            except Exception:
                pass  # a miss re-simulates

    def _run_degraded(self, key: str) -> None:
        from repro.runner.engine import execute_job

        with self._lock:
            job = self._jobs.get(key)
            if job is None or job.status in ("done", "failed"):
                return
            spec = job.spec
            job.source = "degraded"
            self.degraded += 1
        try:
            payload, seconds = execute_job(spec)
        except Exception as exc:
            with self._lock:
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
                self._done.notify_all()
            return
        self._on_outcome(
            JobOutcome(key=key, ok=True, payload=payload, seconds=seconds)
        )

    # -- queries ---------------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until ``job_id`` settles (done/failed), the timeout
        elapses or the coordinator shuts down."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._waiters += 1
            try:
                while True:
                    job = self._jobs.get(job_id)
                    if job is None or job.status in ("done", "failed"):
                        return job
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if self.closed or (remaining is not None and remaining <= 0):
                        return job
                    self._done.wait(timeout=remaining)
            finally:
                self._waiters -= 1

    def stats(self) -> dict:
        with self._lock:
            jobs = list(self._jobs.values())
            degraded = self.degraded
            waiters, resident = self._waiters, len(self._boxes)
        counts = {state: 0 for state in JOB_STATES}
        submits = 0
        for job in jobs:
            counts[job.status] += 1
            submits += job.submits
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": counts,
            "submits": submits,
            "unique_jobs": len(jobs),
            "coalesced": submits - len(jobs),
            "degraded": degraded,
            "waiters": waiters,
            "resident_results": resident,
            "cache_dir": str(self.cache.root) if self.cache else None,
            "fleet": self.fleet.stats(),
        }


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------
class ServiceHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP view of the coordinator (``/v1/...``)."""

    #: Keep-alive: every response carries ``Content-Length``.
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY — headers and body leave as two segments, and on a
    #: connection that stays open Nagle holds the second until the
    #: client's delayed ACK of the first (a 40 ms stall per response).
    disable_nagle_algorithm = True

    #: Quieten the default per-request stderr logging.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def coordinator(self) -> Coordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    # -- plumbing --------------------------------------------------------
    def _send_json(self, doc: dict, status: int = 200) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def parse_request(self) -> bool:
        """Hang up, unanswered, once the coordinator has shut down: a
        connection that outlives its service must not keep answering from
        the dead job table; the client reconnects to whatever is there."""
        if self.coordinator.closed:
            self.close_connection = True
            return False
        return super().parse_request()

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after answering 400/413: a body
        of unknown length cannot be skipped, so the connection closes."""
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        self.close_connection = True
        if length < 0:
            self._error(400, "Content-Length must be a non-negative integer")
        else:
            self._error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        return None

    # -- routes ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        raw = self._read_body()  # before any answer: keeps the framing
        if raw is None:
            return
        if parsed.path != "/v1/jobs":
            self._error(404, f"no such endpoint: POST {parsed.path}")
            return
        try:
            spec = decode_jobspec(json.loads(raw))
        except json.JSONDecodeError as exc:
            self._error(400, f"request body is not JSON: {exc}")
            return
        except SchemaError as exc:
            self._error(400, str(exc))
            return
        job, coalesced, cached = self.coordinator.submit(spec)
        self._send_json(
            {
                "job_id": job.id,
                "status": job.status,
                "coalesced": coalesced,
                "cached": cached,
                "schema": JOB_SCHEMA_VERSION,
            },
            status=200 if coalesced or cached else 201,
        )

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["v1", "healthz"]:
            fleet = self.coordinator.fleet.stats()
            self._send_json(
                {
                    "ok": True,
                    "proto": PROTOCOL_VERSION,
                    "schema": JOB_SCHEMA_VERSION,
                    "workers_alive": fleet["alive"],
                }
            )
            return
        if parts == ["v1", "fleet"]:
            self._send_json(self.coordinator.stats())
            return
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job = self.coordinator.job(parts[2])
            if job is None:
                self._error(404, f"unknown job {parts[2]!r}")
                return
            rest = parts[3:]
            if not rest:
                self._send_json(job.summary())
                return
            if rest == ["result"]:
                self._job_result(job, query)
                return
            if rest == ["timeseries"]:
                self._job_timeseries(job, query)
                return
        self._error(404, f"no such endpoint: GET {parsed.path}")

    def _job_result(self, job: Job, query: dict) -> None:
        try:
            wait = min(float(query.get("wait", 0)), MAX_WAIT_SECONDS)
        except ValueError:
            self._error(400, "wait must be a number of seconds")
            return
        if wait > 0:
            # Parks this thread (one per connection, so nobody else is
            # held up) until the job settles: no client poll interval.
            self.coordinator.wait(job.id, wait)
        if job.status == "failed":
            self._error(500, job.error or "job failed")
            return
        box = self.coordinator.result_box(job)
        if box is None:
            self._send_json({"job_id": job.id, "status": job.status}, status=202)
            return
        self._send_json(
            {
                "job_id": job.id,
                "status": "done",
                "source": job.source,
                "seconds": job.seconds,
                "payload": box,
            }
        )

    def _job_timeseries(self, job: Job, query: dict) -> None:
        if job.status == "failed":
            self._error(500, job.error or "job failed")
            return
        box = self.coordinator.result_box(job)
        if box is None:
            # In-flight: nothing recorded yet on this side of the wire.
            # The contract is incremental (``since``), so clients just
            # keep polling until rows appear.
            self._send_json(
                {"job_id": job.id, "status": job.status, "rows": [],
                 "next": 0},
                status=202,
            )
            return
        try:
            sm = int(query.get("sm", 0))
            since = int(query.get("since", 0))
        except ValueError:
            self._error(400, "sm and since must be integers")
            return
        series_list = getattr(_unpack(box), "timeseries", None)
        if not series_list:
            self._error(
                409,
                "job did not record timeseries; submit with "
                '{"options": {"timeseries": true}}',
            )
            return
        if sm < 0 or sm >= len(series_list):
            self._error(400, f"sm must be in [0, {len(series_list)})")
            return
        series = series_list[sm]
        rows = list(series)[since:]
        self._send_json(
            {
                "job_id": job.id,
                "status": "done",
                "sm": sm,
                "window_cycles": series.window_cycles,
                "dropped": series.dropped,
                "rows": rows,
                "next": since + len(rows),
            }
        )


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its coordinator."""

    daemon_threads = True

    def __init__(self, address: tuple, coordinator: Coordinator) -> None:
        super().__init__(address, ServiceHandler)
        self.coordinator = coordinator


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    coordinator: Optional[Coordinator] = None,
    **coordinator_kwargs: Any,
) -> ServiceServer:
    """Build and start a service (fleet spawned, HTTP socket bound).

    Returns the server; call ``serve_forever()`` on it (or drive it
    from a thread in tests). The caller owns shutdown:
    ``server.shutdown(); server.coordinator.shutdown()``.
    """
    coordinator = coordinator or Coordinator(**coordinator_kwargs)
    server = ServiceServer((host, port), coordinator)
    coordinator.start()
    return server
