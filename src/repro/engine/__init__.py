"""Pluggable execution backends for the cycle engine.

See :mod:`repro.engine.base` for the architecture. Importing this
package registers the built-in ``object`` and ``vector`` backends.
"""

from repro.engine.base import (
    BACKENDS,
    SELECTION_ORDER,
    BackendError,
    BackendFallbackWarning,
    EngineBackend,
    EngineRequest,
    backend_names,
    dispatch,
    register_backend,
    resolve_backend,
    select_backend,
    _register_builtin_backends,
)

_register_builtin_backends()

__all__ = [
    "BACKENDS",
    "SELECTION_ORDER",
    "BackendError",
    "BackendFallbackWarning",
    "EngineBackend",
    "EngineRequest",
    "backend_names",
    "dispatch",
    "register_backend",
    "resolve_backend",
    "select_backend",
]
