"""Stdlib HTTP client for the simulation service.

:class:`ServiceClient` is the thin, dependency-free wire layer under
:meth:`repro.api.Session.connect`: it speaks the coordinator's JSON
endpoints over one persistent ``http.client`` connection per calling
thread, re-checks the payload digest on results (the same SHA-256 box
the worker wire protocol uses), and maps the service's error shapes
back onto the exceptions in-process callers already know — a failed
simulation raises :class:`~repro.runner.executors.RemoteJobError`; a
schema/version disagreement, a dropped connection or an unparseable
answer raises :class:`ServiceError`, never a raw ``http.client`` error.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Iterator, Optional
from urllib.parse import urlsplit

from repro.runner.executors import RemoteJobError
from repro.runner.spec import JobSpec
from repro.runner.wire import _unpack
from repro.service.schema import JOB_SCHEMA_VERSION, encode_jobspec


class ServiceError(RuntimeError):
    """The service refused or could not complete a request.

    ``status`` is the HTTP status code, or 0 when the request never
    reached the service at all (refused connection, DNS failure).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status
        self.message = message


class ServiceClient:
    """One coordinator endpoint, e.g. ``http://127.0.0.1:8642``."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self._target = urlsplit(self.url)
        #: ``.conn``: the calling thread's open connection, if any.
        self._local = threading.local()

    # -- plumbing --------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            https = self._target.scheme == "https"
            factory = http.client.HTTPSConnection if https else http.client.HTTPConnection
            conn = self._local.conn = factory(self._target.netloc, timeout=self.timeout)
        return conn

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        conn = self._connection()
        for reused in (conn.sock is not None, False):
            try:
                conn.request(
                    method, self._target.path + path, body=data,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                status, raw = resp.status, resp.read()
                break
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                # A kept-alive socket the server has since closed fails
                # only on use: reconnect once, transparently.
                if reused and isinstance(exc, ConnectionError):
                    continue
                raise ServiceError(
                    0,
                    f"cannot reach the simulation service at {self.url}: "
                    f"{exc!r} (is `python -m repro serve` running there?)",
                ) from None
        try:
            return status, json.loads(raw)
        except ValueError:
            raise ServiceError(
                status, f"the service answered with a non-JSON body: {raw[:80]!r}"
            ) from None

    def _get(self, path: str) -> tuple[int, Any]:
        return self._request("GET", path)

    @staticmethod
    def _raise_for(status: int, doc: Any) -> None:
        if status >= 400:
            message = (
                doc.get("error", "") if isinstance(doc, dict) else str(doc)
            )
            raise ServiceError(status, message)

    # -- API -------------------------------------------------------------
    def healthz(self) -> dict:
        status, doc = self._get("/v1/healthz")
        self._raise_for(status, doc)
        if doc.get("schema") != JOB_SCHEMA_VERSION:
            raise ServiceError(
                status,
                f"service speaks job schema {doc.get('schema')!r}, this "
                f"client speaks {JOB_SCHEMA_VERSION}; upgrade the older peer",
            )
        return doc

    def fleet(self) -> dict:
        status, doc = self._get("/v1/fleet")
        self._raise_for(status, doc)
        return doc

    def submit(self, spec: JobSpec) -> dict:
        """POST one spec; returns ``{job_id, status, cached, coalesced}``."""
        status, doc = self._request("POST", "/v1/jobs", encode_jobspec(spec))
        self._raise_for(status, doc)
        return doc

    def status(self, job_id: str) -> dict:
        status, doc = self._get(f"/v1/jobs/{job_id}")
        self._raise_for(status, doc)
        return doc

    def result(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.05
    ) -> Any:
        """Block until the job settles; returns the unpickled payload.

        Long-polls (``?wait=``) in slices no longer than half the socket
        timeout, so the service answers the moment the job settles;
        ``poll`` is only the sleep between requests to an older service
        that ignores ``wait`` and answers 202 at once.

        Raises :class:`RemoteJobError` when the *simulation* failed on
        the service (mirroring the remote executor's contract), and
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = self.timeout / 2
            if deadline is not None:
                wait = max(0.0, min(wait, deadline - time.monotonic()))
            asked = time.monotonic()
            status, doc = self._get(f"/v1/jobs/{job_id}/result?wait={wait:.3f}")
            if status == 200:
                return _unpack(doc["payload"])
            if status == 500:
                raise RemoteJobError(
                    f"job {job_id[:12]} failed on the service:\n"
                    f"{doc.get('error', '')}"
                )
            if status != 202:
                self._raise_for(status, doc)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id[:12]} still {doc.get('status')!r} "
                    f"after {timeout}s"
                )
            if time.monotonic() - asked < wait / 2:
                time.sleep(poll)

    def timeseries(self, job_id: str, sm: int = 0, since: int = 0) -> dict:
        status, doc = self._get(
            f"/v1/jobs/{job_id}/timeseries?sm={sm}&since={since}"
        )
        if status == 202:
            return doc
        self._raise_for(status, doc)
        return doc

    def stream_timeseries(
        self,
        job_id: str,
        sm: int = 0,
        poll: float = 0.1,
        timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """Yield per-window rows as the service exposes them.

        Uses the endpoint's ``since`` cursor, so rows are yielded
        exactly once; the iterator ends when the job is done and the
        cursor is drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        cursor = 0
        while True:
            doc = self.timeseries(job_id, sm=sm, since=cursor)
            for row in doc.get("rows", []):
                yield row
            cursor = doc.get("next", cursor)
            if doc.get("status") == "done":
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"timeseries for job {job_id[:12]} incomplete after "
                    f"{timeout}s"
                )
            time.sleep(poll)
