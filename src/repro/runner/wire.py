"""Line-delimited wire protocol between the engine and remote workers.

One message per line, JSON envelope, pickled Python values carried as
base64 with a SHA-256 digest:

* ``hello``  — worker → engine, first line after startup; carries the
  protocol version and the worker pid so the engine can verify it is
  talking to a live ``repro`` worker and not, say, an SSH banner.
* ``job``    — engine → worker: a content-hashed key plus the pickled
  :class:`~repro.runner.spec.JobSpec`.
* ``result`` — worker → engine: ``ok=True`` with the pickled portable
  payload and the measured wall-clock seconds, or ``ok=False`` with a
  traceback string when the *simulation itself* raised (infrastructure
  failures never produce a result line — the worker just dies and the
  engine requeues).

Every decoding failure — malformed JSON, a foreign message type, a
protocol-version mismatch, undecodable base64, a digest mismatch, an
unpicklable body — raises :class:`WireError`. Callers treat a
``WireError`` as evidence the *transport* is compromised (a corrupted
line, a worker printing to stdout, an SSH warning interleaved) and
respond by killing/requeueing rather than guessing: the digest check
makes it impossible for a bit-flipped payload to be silently accepted.

The protocol is deliberately text-line based so a worker can sit
behind any byte pipe (``ssh host python -m repro worker``, a container
exec, a local subprocess) without framing negotiation.

Payloads are opaque to the protocol: a portable result may carry
opt-in extras such as per-window timeseries
(:class:`~repro.metrics.WindowSeries`) without a protocol change —
payload-shape versioning is owned by the result cache
(``CACHE_SCHEMA_VERSION``), not the wire.

A value is pickled once, by :func:`seal`, into *sealed bytes*
(``sha256(pickle) || pickle``), which :func:`unseal` checks and loads;
a result line, a result-cache entry and an HTTP result carry them.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Optional

#: Bump on any incompatible message-shape change; mismatched peers
#: refuse each other loudly instead of mis-parsing.
PROTOCOL_VERSION = 1


class WireError(ValueError):
    """A line on the wire could not be decoded as a protocol message."""


class ProtocolMismatch(WireError):
    """The peer speaks a *different version* of the wire protocol.

    Distinct from generic :class:`WireError` corruption: the line was a
    well-formed hello from a real ``repro`` worker, just one built
    against another protocol revision. Coordinators treat this as a
    permanent condition for that worker binary (retrying cannot heal a
    version skew) and report the actionable message instead of
    recycling forever.
    """


def seal(value: Any) -> bytes:
    """``value`` as sealed bytes, ``sha256(pickle) || pickle``: the one
    place a value is pickled."""
    data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(data).digest() + data


def unseal(sealed: bytes) -> Any:
    """The value in ``sealed``; :class:`WireError` unless the digest
    matches and the pickle loads."""
    data = memoryview(sealed)[32:]
    if hashlib.sha256(data).digest() != sealed[:32]:
        raise WireError("payload digest mismatch (corrupted in transit)")
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise WireError(f"unpicklable payload: {exc}") from None


def _pack(sealed: bytes) -> dict:
    """Sealed bytes as a JSON transport box: the pickle in base64, its digest in hex."""
    return {"b64": base64.b64encode(memoryview(sealed)[32:]).decode("ascii"),
            "sha": sealed[:32].hex()}


def _unpack(box: Any) -> bytes:
    """The sealed bytes in a :func:`_pack` box (:func:`unseal` checks them)."""
    if not isinstance(box, dict) or "b64" not in box or "sha" not in box:
        raise WireError("malformed payload box")
    try:
        return bytes.fromhex(box["sha"]) + base64.b64decode(box["b64"], validate=True)
    except (binascii.Error, ValueError, TypeError) as exc:
        raise WireError(f"undecodable payload box: {exc}") from None


def _decode_envelope(line: str, expect: str) -> dict:
    try:
        msg = json.loads(line)
    except (json.JSONDecodeError, TypeError) as exc:
        raise WireError(f"not a protocol line: {exc}") from None
    if not isinstance(msg, dict):
        raise WireError("protocol message is not an object")
    if msg.get("v") != PROTOCOL_VERSION:
        raise WireError(
            f"protocol version mismatch (got {msg.get('v')!r}, "
            f"want {PROTOCOL_VERSION})"
        )
    if msg.get("type") != expect:
        raise WireError(f"expected {expect!r} message, got {msg.get('type')!r}")
    return msg


# -- hello -----------------------------------------------------------------
def encode_hello() -> str:
    """The worker banner: envelope version, explicit ``proto``, pid.

    ``proto`` duplicates the envelope ``v`` *by design*: the envelope
    field guards every message against mis-parsing, while ``proto`` is
    the negotiated protocol revision a coordinator checks once at
    handshake so version skew between a long-lived coordinator and an
    independently upgraded worker fleet fails with a clear, actionable
    error instead of a generic corruption report on some later line.
    """
    return json.dumps(
        {
            "v": PROTOCOL_VERSION,
            "type": "hello",
            "proto": PROTOCOL_VERSION,
            "pid": os.getpid(),
        }
    )


def decode_hello(line: str) -> int:
    """Validate a hello line; returns the worker pid.

    Raises :class:`ProtocolMismatch` (before any envelope check) when
    the line *is* a hello but carries a different ``proto``, so the
    caller can distinguish "wrong software version" from "garbage on
    the pipe".
    """
    try:
        peek = json.loads(line)
    except (json.JSONDecodeError, TypeError):
        peek = None
    if isinstance(peek, dict) and peek.get("type") == "hello":
        proto = peek.get("proto", peek.get("v"))
        if proto != PROTOCOL_VERSION:
            raise ProtocolMismatch(
                f"worker speaks wire protocol {proto!r}, this side speaks "
                f"{PROTOCOL_VERSION}; upgrade the older peer (coordinator "
                "and worker fleets version independently of pickled payloads)"
            )
    msg = _decode_envelope(line, "hello")
    pid = msg.get("pid")
    if not isinstance(pid, int):
        raise WireError("hello without a pid")
    return pid


# -- jobs ------------------------------------------------------------------
def encode_job(key: str, spec: Any) -> str:
    return json.dumps(
        {"v": PROTOCOL_VERSION, "type": "job", "key": key, "spec": _pack(seal(spec))}
    )


def decode_job(line: str) -> tuple[str, Any]:
    msg = _decode_envelope(line, "job")
    key = msg.get("key")
    if not isinstance(key, str) or not key:
        raise WireError("job without a key")
    return key, unseal(_unpack(msg.get("spec")))


# -- results ---------------------------------------------------------------
@dataclass
class JobOutcome:
    """One finished job: a decoded result line, or what an executor or
    the fleet reports."""

    key: str
    ok: bool
    payload: Any = None
    seconds: float = 0.0
    error: str = ""
    #: True when infrastructure retries were exhausted: the owner
    #: should run this job in-process rather than raise.
    give_up: bool = False
    #: ``payload`` as the sealed bytes it crossed a process boundary
    #: in; ``None`` for a result computed in this process.
    sealed: Optional[bytes] = None


def encode_result(key: str, payload: Any, seconds: float) -> str:
    return json.dumps(
        {
            "v": PROTOCOL_VERSION,
            "type": "result",
            "key": key,
            "ok": True,
            "seconds": seconds,
            "payload": _pack(seal(payload)),
        }
    )


def encode_error(key: str, error: str) -> str:
    return json.dumps(
        {"v": PROTOCOL_VERSION, "type": "result", "key": key, "ok": False,
         "error": error}
    )


def decode_result(line: str) -> JobOutcome:
    msg = _decode_envelope(line, "result")
    key = msg.get("key")
    if not isinstance(key, str) or not key:
        raise WireError("result without a key")
    if msg.get("ok"):
        seconds = msg.get("seconds")
        if not isinstance(seconds, (int, float)):
            raise WireError("result without a wall-clock measurement")
        sealed = _unpack(msg.get("payload"))
        return JobOutcome(
            key=key, ok=True, payload=unseal(sealed), seconds=float(seconds),
            sealed=sealed,
        )
    error = msg.get("error")
    if not isinstance(error, str):
        raise WireError("failed result without an error string")
    return JobOutcome(key=key, ok=False, error=error)
