"""repro.service — simulation-as-a-service over HTTP/JSON.

A long-lived :class:`Coordinator` drives a
:class:`~repro.runner.fleet.WorkerFleet` of persistent ``python -m
repro worker`` processes (the batch engine's fleet, kept warm) and a
shared read-through result store, and serves versioned JSON
``JobSpec`` documents over a stdlib ``ThreadingHTTPServer``. Start one
with ``python -m repro serve``;
talk to it with ``repro.api.Session.connect(url)``, ``python -m repro
submit``, or plain ``curl``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.coordinator import (
    DEFAULT_PORT,
    Coordinator,
    Job,
    ServiceHandler,
    ServiceServer,
    serve,
)
from repro.service.schema import (
    JOB_SCHEMA_VERSION,
    SchemaError,
    decode_config,
    decode_jobspec,
    encode_config,
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
    "decode_config",
    "decode_jobspec",
    "encode_config",
    "encode_jobspec",
    "serve",
]
