"""The simulation coordinator: one warm fleet, many concurrent clients.

:class:`Coordinator` is the batch engine's job table,
:class:`~repro.runner.engine.ExperimentRunner`, over a
:class:`~repro.runner.executors.RemoteExecutor`, plus two things:

* the one ``fleet-dispatch`` thread that loops the table's ``step()`` —
  all worker pipe I/O, settling and the in-process degrade tier happen
  there, so a slow or hostile client can never wedge the fleet;
* :class:`ServiceHandler`, which exposes the table over HTTP/1.1 + JSON
  (stdlib ``ThreadingHTTPServer``, one thread per *connection*, which
  stays open between requests; handler threads only ``submit``,
  ``wait`` on and ``fetch`` from the table, never touch worker pipes).

Identity is content: two clients submitting the same (app, arch,
config, scale, options) get the same job id — the spec's key — and at
most one simulation runs. The tiers, the ``source`` vocabulary and the
bounded residency of results are the table's (``repro.runner.engine``),
and so is the result store: the workers never touch it. The
dispatcher thread writes each result, as the sealed bytes its worker
sent, after waking the job's waiters, so duplicates across coordinator
restarts dedup too.

A resubmitted job document is decoded once: the document memo keeps the
spec of each of the last :data:`DOCUMENTS_KEPT` bodies by the SHA-256 of
the raw body, so a byte-identical one skips ``json.loads``,
``decode_jobspec`` and the spec hash (:meth:`Coordinator.submit_document`
has the exclusions). :class:`~repro.service.client.ServiceClient` posts
the same bytes for a resubmitted spec, so a warm round trip pays the
codec on neither side — and it is one request: a job already done when
its document arrives answers with its result in the submit reply.

========================================  ================================
``POST /v1/jobs``                           submit one schema-versioned
                                            JSON job document; returns
                                            ``{job_id, status, cached,
                                            coalesced}``, plus the
                                            ``payload`` box ``.../result``
                                            serves when the job is done
                                            already (optional: absent for
                                            a job in flight, failed or
                                            lost by the store, so neither
                                            version moves)
``GET  /v1/jobs/{id}``                      status/provenance summary
``GET  /v1/jobs/{id}/result``               the portable result payload,
                                            pickled + base64 + SHA-256
                                            (the wire protocol's
                                            digest-protected box of the
                                            bytes the worker sealed);
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

import hashlib
import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from repro.runner.cache import MISS, ResultCache
from repro.runner.engine import ExperimentRunner, Job
from repro.runner.fleet import DEFAULT_BACKOFF, DEFAULT_MAX_ATTEMPTS
from repro.runner.registry import resolve
from repro.runner.spec import JobSpec
from repro.runner.wire import PROTOCOL_VERSION, _pack
from repro.service.schema import JOB_SCHEMA_VERSION, SchemaError, decode_jobspec

#: Default TCP port; "VC" on a phone keypad would be a stretch — it is
#: simply a high port unlikely to collide with anything common.
DEFAULT_PORT = 8642

#: Longest a ``GET .../result?wait=S`` request parks its handler thread.
MAX_WAIT_SECONDS = 20.0
#: Largest request body read; job documents are a few KB.
MAX_BODY_BYTES = 1 << 20
#: Job documents whose spec the document memo keeps, by the SHA-256 of
#: the raw body (least recently used first out).
DOCUMENTS_KEPT = 1024


def _runnable(spec: JobSpec) -> bool:
    """Whether ``spec``'s architecture, as registered now, takes its
    params (what ``JobSpec.build`` checks)."""
    try:
        resolve(spec.arch).check(spec.overrides)
    except (KeyError, ValueError):
        return False
    return True


class Coordinator:
    """The job table over a warm worker fleet, and the thread driving it."""

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
        self.runner = ExperimentRunner(
            workers=max(1, workers),
            cache=ResultCache(cache_dir) if use_cache else None,
            use_cache=use_cache,
            executor="remote",
            worker_command=worker_command,
            job_timeout=job_timeout,
            max_attempts=max_attempts,
            backoff=backoff,
        )
        self.cache = self.runner.cache
        self.fleet = self.runner.executor.fleet
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fleet-dispatch", daemon=True
        )
        self.started_at = time.time()
        self._lock = threading.Lock()
        #: The document memo: body digest -> the spec it decoded to.
        self._documents: "OrderedDict[bytes, JobSpec]" = OrderedDict()
        self._decoded = 0
        self._reused = 0
        #: Submit replies that carried their job's result.
        self._submit_results = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Launch the workers and the thread that drives them (once)."""
        if self._dispatcher.ident is None:
            # Launch the workers before serve() returns, waiting for no
            # event. No worker has greeted yet, so this step can only give
            # jobs up if the fleet is already exhausted — and then the
            # table's first step degrades every job in flight anyway.
            self.fleet.step(0.0)
            self._dispatcher.start()

    def shutdown(self) -> None:
        """Release parked handlers, leave no worker process behind."""
        self.runner.close()
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=2.0)

    def _dispatch_loop(self) -> None:
        """The table's driver: all worker pipe I/O happens on this thread."""
        while not self.runner.closed:
            self.runner.step()

    @property
    def closed(self) -> bool:
        return self.runner.closed

    # -- the table -------------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[Job, bool, bool]:
        """Register one spec; returns ``(job, coalesced, cached)``."""
        return self.runner.submit(spec)

    def submit_document(self, body: bytes) -> tuple[Job, bool, bool]:
        """:meth:`submit` the spec a ``POST /v1/jobs`` body names;
        :class:`SchemaError` when it names none.

        A body byte-identical to one decoded before is answered from the
        document memo, keyed on its SHA-256 (never on the body), without
        ``json.loads``, ``decode_jobspec`` or the spec hash. A hit still
        re-checks the spec against today's architecture registry, and a
        refused one is decoded afresh, so its 400 is the one a first
        submission gets. Errors are never memoized, and neither is a
        document whose app resolves through the workload registry (no
        inline ``workload``): ``register_workload(..., replace=True)``
        can change what that name means.
        """
        digest = hashlib.sha256(body).digest()
        with self._lock:
            spec = self._documents.get(digest)
            if spec is not None:
                self._documents.move_to_end(digest)
        if spec is not None and _runnable(spec):
            with self._lock:
                self._reused += 1
            return self.submit(spec)
        with self._lock:
            self._decoded += 1
        try:
            doc = json.loads(body)
        except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
            raise SchemaError(f"request body is not JSON: {exc}") from None
        spec = decode_jobspec(doc)
        submitted = self.submit(spec)
        if spec.workload is None or "workload" in doc:
            with self._lock:
                # The table's own spec: an entry holds no second copy.
                self._documents[digest] = submitted[0].spec
                while len(self._documents) > DOCUMENTS_KEPT:
                    self._documents.popitem(last=False)
        return submitted

    def settled_result(self, job: Job) -> Optional[bytes]:
        """The sealed result of a job that is done when it is submitted,
        for the submit reply; ``None`` for one in flight or failed, and
        for one evicted and lost by the store, which is then running
        again (:meth:`ExperimentRunner.fetch_sealed`)."""
        if job.status != "done":
            return None
        sealed = self.runner.fetch_sealed(job.id)
        if sealed is not None:
            with self._lock:
                self._submit_results += 1
        return sealed

    def job(self, job_id: str) -> Optional[Job]:
        return self.runner.job(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until ``job_id`` settles, the timeout elapses or the
        coordinator shuts down."""
        return self.runner.wait(job_id, timeout)

    def stats(self) -> dict:
        with self._lock:
            documents = {"decoded": self._decoded, "reused": self._reused,
                         "kept": len(self._documents)}
            submit_results = self._submit_results
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            **self.runner.table_stats(),
            "documents": documents,
            "submit_results": submit_results,
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

    #: Longest silence while a request body is read, in seconds.
    body_stall_seconds = 5.0

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
            # A body shorter than its Content-Length would park this
            # thread for good: a stall this long ends the read.
            self.connection.settimeout(self.body_stall_seconds)
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                body = b""
            finally:
                self.connection.settimeout(self.timeout)
            if len(body) == length:
                return body
        self.close_connection = True
        if length < 0:
            self._error(400, "Content-Length must be a non-negative integer")
        elif length > MAX_BODY_BYTES:
            self._error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        else:
            self._error(400, f"request body ended before its Content-Length ({length} bytes)")
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
            job, coalesced, cached = self.coordinator.submit_document(raw)
        except SchemaError as exc:
            self._error(400, str(exc))
            return
        sealed = self.coordinator.settled_result(job)
        reply = {
            "job_id": job.id,
            "status": job.status,
            "coalesced": coalesced,
            "cached": cached,
            "schema": JOB_SCHEMA_VERSION,
        }
        if sealed is not None:
            # What ``GET .../result`` would serve: the warm round trip
            # needs no second request.
            reply["payload"] = _pack(sealed)
        self._send_json(reply, status=200 if coalesced or cached else 201)

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
        sealed = self.coordinator.runner.fetch_sealed(job.id)
        if sealed is None:
            self._send_json({"job_id": job.id, "status": job.status}, status=202)
            return
        self._send_json(
            {
                "job_id": job.id,
                "status": "done",
                "source": job.source,
                "seconds": job.seconds,
                "payload": _pack(sealed),
            }
        )

    def _job_timeseries(self, job: Job, query: dict) -> None:
        if job.status == "failed":
            self._error(500, job.error or "job failed")
            return
        payload = self.coordinator.runner.fetch(job.id)
        if payload is MISS:
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
        series_list = getattr(payload, "timeseries", None)
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
