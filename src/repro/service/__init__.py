"""repro.service — simulation-as-a-service over HTTP/JSON.

A long-lived :class:`Coordinator` is the batch engine's job table
(:class:`~repro.runner.engine.ExperimentRunner`) over a warm fleet of
persistent ``python -m repro worker`` processes and a shared
read-through result store, driven by one thread and serving versioned
JSON ``JobSpec`` documents over a stdlib ``ThreadingHTTPServer``.
Start one with ``python -m repro serve``; talk to it with
``repro.api.Session.connect(url)``, ``python -m repro submit``, or
plain ``curl``.
"""

from repro.runner.engine import Job
from repro.service.client import ServiceClient, ServiceError
from repro.service.coordinator import (
    DEFAULT_PORT,
    Coordinator,
    ServiceHandler,
    ServiceServer,
    serve,
)
from repro.service.schema import (
    JOB_SCHEMA_VERSION,
    SchemaError,
    decode_jobspec,
    encode_jobspec,
)

__all__ = [
    "Coordinator",
    "DEFAULT_PORT",
    "JOB_SCHEMA_VERSION",
    "Job",
    "SchemaError",
    "ServiceClient",
    "ServiceError",
    "ServiceHandler",
    "ServiceServer",
    "decode_jobspec",
    "encode_jobspec",
    "serve",
]
