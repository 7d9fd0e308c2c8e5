"""Seeded schema drift for the protocol-drift pass.

Each encode/decode pair below disagrees about its field set, and the
``JobSpec`` mirror carries a field the HTTP surface never transports:

* wire hello: encoder emits ``pid`` the decoder never reads, decoder
  reads ``host`` the encoder never emits (two findings),
* ``JobSpec.priority`` never crosses the HTTP job surface,
* http job: encoder emits ``backend`` outside the decoder's closed
  world — the engine selector would be silently dropped on decode.
"""

import json
import os

PROTOCOL_VERSION = 3
JOB_SCHEMA_VERSION = 9


def encode_hello():
    return json.dumps(
        {
            "v": PROTOCOL_VERSION,
            "type": "hello",
            "pid": os.getpid(),  # schema-twin-drift: decoder never reads "pid"
        }
    )


def decode_hello(line):
    msg = json.loads(line)
    if msg.get("v") != PROTOCOL_VERSION:
        raise ValueError("protocol mismatch")
    if msg.get("type") != "hello":
        raise ValueError("expected a hello")
    return msg.get("host")  # schema-twin-drift: encoder never emits "host"


class JobSpec:
    app: str = ""
    arch: str = ""
    priority: int = 0  # schema-twin-drift: never transported over HTTP


def encode_jobspec(spec):
    doc = {
        "schema": JOB_SCHEMA_VERSION,
        "app": spec.app,
        "arch": spec.arch,
    }
    if spec.backend is not None:
        # schema-twin-drift: decoder's closed world never accepts "backend"
        doc["backend"] = spec.backend
    return doc


def decode_jobspec(doc):
    unknown = set(doc) - {"schema", "app", "arch"}
    if unknown:
        raise ValueError(f"unknown job fields: {sorted(unknown)}")
    return (doc.get("app"), doc.get("arch"))
