"""Twin of ``case_protocol_drift_bad.py`` with every surface in sync:
encoder and decoder agree on each field set, and every ``JobSpec``
field is either carried directly or folded into the ``options``
payload. Must lint clean."""

import json
import os

PROTOCOL_VERSION = 3
JOB_SCHEMA_VERSION = 9


def encode_hello():
    return json.dumps(
        {
            "v": PROTOCOL_VERSION,
            "type": "hello",
            "pid": os.getpid(),
        }
    )


def decode_hello(line):
    msg = json.loads(line)
    if msg.get("v") != PROTOCOL_VERSION:
        raise ValueError("protocol mismatch")
    if msg.get("type") != "hello":
        raise ValueError("expected a hello")
    return msg.get("pid")


class JobSpec:
    app: str = ""
    arch: str = ""
    params: tuple = ()  # transported via the "options" payload


def encode_jobspec(spec):
    doc = {
        "schema": JOB_SCHEMA_VERSION,
        "app": spec.app,
        "arch": spec.arch,
    }
    if spec.params:
        doc["options"] = dict(spec.params)
    if spec.backend is not None:
        doc["backend"] = spec.backend
    return doc


def decode_jobspec(doc):
    unknown = set(doc) - {"schema", "app", "arch", "options", "backend"}
    if unknown:
        raise ValueError(f"unknown job fields: {sorted(unknown)}")
    return (doc.get("app"), doc.get("arch"), doc.get("options"),
            doc.get("backend"))
