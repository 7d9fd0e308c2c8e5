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

A spec is encoded once: the JSON bytes of the last :data:`BODIES_KEPT`
submitted specs are kept by key and posted again on a resubmission,
which the coordinator's document memo then answers without decoding.

A warm round trip is one request: the reply to a job that is done when
it is submitted carries the result's ``payload`` box, which
:meth:`ServiceClient.submit` keeps (the last :data:`BODIES_KEPT` of
them) for :meth:`ServiceClient.result` to unseal without a ``GET``.
The field is optional both ways — a reply without it, from an older
service or for a job still in flight, makes ``result`` long-poll as
before, and a caller that ignores it loses nothing — so neither the job
schema nor the wire protocol version moves.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Iterator, Optional
from urllib.parse import urlsplit

from repro.runner.executors import RemoteJobError
from repro.runner.spec import JobSpec
from repro.runner.wire import _unpack, unseal
from repro.service.schema import JOB_SCHEMA_VERSION, encode_jobspec

#: Encoded job documents a client keeps for resubmission, by spec key,
#: and results its submit replies carried, by job id (least recently
#: used first out, each).
BODIES_KEPT = 128


def _keep(kept: OrderedDict, key: str, value: Any) -> None:
    """Keep ``value`` as ``kept``'s most recent entry, at most
    :data:`BODIES_KEPT` of them (the caller holds the lock)."""
    kept[key] = value
    kept.move_to_end(key)
    while len(kept) > BODIES_KEPT:
        kept.popitem(last=False)


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
        self._lock = threading.Lock()
        #: Spec key -> its JSON job document, encoded (:meth:`_body`).
        self._bodies: "OrderedDict[str, bytes]" = OrderedDict()
        #: Job id -> the ``payload`` box its submit reply carried, until
        #: :meth:`result` takes it.
        self._settled: "OrderedDict[str, dict]" = OrderedDict()

    # -- plumbing --------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            https = self._target.scheme == "https"
            factory = http.client.HTTPSConnection if https else http.client.HTTPConnection
            conn = self._local.conn = factory(self._target.netloc, timeout=self.timeout)
        return conn

    def _request(
        self, method: str, path: str, data: Optional[bytes] = None
    ) -> tuple[int, Any]:
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

    #: The service's ``/v1/fleet`` report, fetched on every read.
    stats = property(fleet)

    def close(self) -> None:
        """Close the calling thread's kept-alive connection, if any."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def _body(self, spec: JobSpec) -> bytes:
        """``spec``'s job document as JSON bytes, encoded once per key:
        a resubmission posts the same bytes again, which the
        coordinator's document memo answers without decoding."""
        key = spec.key
        with self._lock:
            body = self._bodies.get(key)
            if body is not None:
                self._bodies.move_to_end(key)
                return body
        body = json.dumps(encode_jobspec(spec)).encode("utf-8")
        with self._lock:
            _keep(self._bodies, key, body)
        return body

    def submit(self, spec: JobSpec) -> dict:
        """POST one spec; returns ``{job_id, status, cached, coalesced}``.

        The result a reply carries (the job was done already) is kept
        for :meth:`result`, not returned."""
        status, doc = self._request("POST", "/v1/jobs", self._body(spec))
        self._raise_for(status, doc)
        box = doc.pop("payload", None)
        if box is not None:
            with self._lock:
                _keep(self._settled, doc["job_id"], box)
        return doc

    def status(self, job_id: str) -> dict:
        status, doc = self._get(f"/v1/jobs/{job_id}")
        self._raise_for(status, doc)
        return doc

    def result(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.05
    ) -> Any:
        """Block until the job settles; returns the unpickled payload.

        A result this client's :meth:`submit` reply carried is taken
        (once) and unsealed without a request. Otherwise — a job in
        flight or failed at submit, a result the store lost, an older
        service, a second call — long-polls (``?wait=``) in slices no
        longer than half the socket timeout, so the service answers the
        moment the job settles; ``poll`` is only the sleep between
        requests to an older service that ignores ``wait`` and answers
        202 at once.

        Raises :class:`RemoteJobError` when the *simulation* failed on
        the service (mirroring the remote executor's contract), and
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        with self._lock:
            box = self._settled.pop(job_id, None)
        if box is not None:
            return unseal(_unpack(box))
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = self.timeout / 2
            if deadline is not None:
                wait = max(0.0, min(wait, deadline - time.monotonic()))
            asked = time.monotonic()
            status, doc = self._get(f"/v1/jobs/{job_id}/result?wait={wait:.3f}")
            if status == 200:
                return unseal(_unpack(doc["payload"]))
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
