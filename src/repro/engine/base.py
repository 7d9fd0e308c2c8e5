"""Backend-neutral execution-engine layer.

The simulation stack splits into two layers:

* a **frontend** — workload/trace generation, architecture and
  extension resolution, ``RunOptions``, result/snapshot assembly —
  that is backend-agnostic, and
* an **execution backend** that actually advances the machine state
  cycle by cycle and produces a
  :class:`~repro.gpu.gpu.SimulationResult`.

A backend is any object satisfying :class:`EngineBackend`: it has a
``name``, can say whether it ``supports`` a concrete request (returning
``None`` or a human-readable reason string), and can ``run`` it. Two
backends ship:

``object``
    The original event-driven ``GPU``/``SM`` engine, unchanged, behind
    the interface (:mod:`repro.engine.object_backend`). Supports every
    feature: extensions, load tracking, timeseries, live objects,
    timing DRAM, the NoC.

``vector``
    A lean engine over struct-of-arrays state with numpy bulk trace
    compilation (:mod:`repro.engine.vector`). Bit-identical to
    ``object`` on every reported statistic, extension hooks included,
    for the feature subset it declares (snapshot-result runs on the
    simple DRAM model, no load tracking, timeseries or NoC).

With ``RunOptions.backend=None`` :func:`select_backend` chooses the
engine from the request — the first of :data:`SELECTION_ORDER` that
supports it, so every architecture at default options takes
``vector`` — and, the two being bit-identical wherever both run, the
choice stays out of job cache identity. A named backend is pinned (differential tests, ``repro
bench``): it joins the cache key and falls back loudly (a
:class:`BackendFallbackWarning`) when it declines the request.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationConfig
    from repro.gpu.extension import SMExtension
    from repro.gpu.gpu import SimulationResult
    from repro.gpu.trace import KernelTrace

#: Engines tried in order when ``RunOptions.backend`` is None: the fast
#: one wherever it is exact, else the reference, which supports everything.
SELECTION_ORDER = ("vector", "object")


class BackendError(ValueError):
    """Unknown backend name or invalid backend request."""


class BackendFallbackWarning(RuntimeWarning):
    """A requested backend could not run the job and fell back.

    Loud by design (the ISSUE's "fall back loudly, never silently
    diverge"): tests that pin a backend can assert no fallback fired.
    """


@dataclass(frozen=True)
class EngineRequest:
    """One fully-resolved simulation request, backend-agnostic.

    This is exactly the parameter surface of
    :func:`repro.gpu.gpu.run_kernel` after option resolution — the
    frontend builds it once and hands it to whichever backend wins.
    """

    config: "SimulationConfig"
    kernel: "KernelTrace"
    extension_factory: Optional[Callable[[], "SMExtension"]] = None
    max_concurrent_ctas: Optional[int] = None
    track_loads: bool = False
    keep_objects: bool = False
    timeseries: bool = False


@runtime_checkable
class EngineBackend(Protocol):
    """The contract every execution backend implements."""

    name: str

    def supports(self, request: EngineRequest) -> Optional[str]:
        """Return None when this backend can run ``request`` exactly,
        else a short human-readable reason why not."""

    def run(self, request: EngineRequest) -> "SimulationResult":
        """Execute the request and return the standard result."""


#: Registered backends by name. Populated at import time by
#: :func:`_register_builtin_backends`; extensions could add more.
BACKENDS: dict[str, EngineBackend] = {}


def register_backend(backend: EngineBackend) -> None:
    if backend.name in BACKENDS:
        raise BackendError(f"backend {backend.name!r} already registered")
    BACKENDS[backend.name] = backend


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(BACKENDS))


def resolve_backend(name: str) -> EngineBackend:
    """Look up a registered backend by name."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise BackendError(f"unknown backend {name!r} (known: {known})") from None


def select_backend(request: EngineRequest) -> EngineBackend:
    """The engine an unpinned ``request`` runs on: the first registered
    member of :data:`SELECTION_ORDER` that supports it exactly."""
    for name in SELECTION_ORDER:
        backend = BACKENDS[name]
        if backend.supports(request) is None:
            return backend
    raise BackendError("no registered backend supports this job")


def dispatch(name: Optional[str], request: EngineRequest) -> "SimulationResult":
    """Run ``request`` on the selected backend (``None``: silently,
    choosing is not a fallback) or on the named one, which warns and
    hands the job to the selection rule when it declines it."""
    if name is None:
        return select_backend(request).run(request)
    backend = resolve_backend(name)
    reason = backend.supports(request)
    if reason is not None:
        fallback = select_backend(request)
        warnings.warn(
            f"backend {backend.name!r} cannot run this job ({reason}); "
            f"falling back to {fallback.name!r}",
            BackendFallbackWarning,
            stacklevel=2,
        )
        backend = fallback
    return backend.run(request)


def _register_builtin_backends() -> None:
    # Imported here (not at module top) to keep the layering acyclic:
    # the object backend imports repro.gpu.gpu, which imports this
    # module for dispatch.
    from repro.engine.object_backend import ObjectBackend
    from repro.engine.vector import VectorBackend

    if "object" not in BACKENDS:
        register_backend(ObjectBackend())
    if "vector" not in BACKENDS:
        register_backend(VectorBackend())
