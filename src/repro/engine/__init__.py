"""The execution-engine seam; see :mod:`repro.engine.base`. Importing
this package registers the one built-in engine, ``vector``.
"""

from repro.engine.base import (
    BACKENDS,
    BackendError,
    BackendFallbackWarning,
    EngineBackend,
    EngineRequest,
    backend_names,
    dispatch,
    register_backend,
    resolve_backend,
)
from repro.engine.vector import VectorBackend

register_backend(VectorBackend())

__all__ = [
    "BACKENDS",
    "BackendError",
    "BackendFallbackWarning",
    "EngineBackend",
    "EngineRequest",
    "backend_names",
    "dispatch",
    "register_backend",
    "resolve_backend",
]
