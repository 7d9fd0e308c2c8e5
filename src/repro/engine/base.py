"""The execution-engine seam.

The simulation stack splits into a **frontend** — workload/trace
generation, architecture and extension resolution, ``RunOptions``,
result/snapshot assembly — and an **engine** that advances the machine
state cycle by cycle and produces a
:class:`~repro.gpu.gpu.SimulationResult`. There is one engine in
``src/``: ``vector`` (:mod:`repro.engine.vector`), the machine every
request runs on, whatever its options.

What is left of the pluggable layer is a name registry
(:data:`BACKENDS`, :func:`register_backend`, :func:`resolve_backend`,
:func:`backend_names`) and ``RunOptions.backend``: ``None`` means the
machine and stays out of job cache identity; a name pins a *registered*
engine and joins it, and an unregistered name is refused where the job
is built (``ArchSpec.refuses``). They stay for two callers. The oracle
test modules register ``tests/reference_engine`` as ``"object"`` for the
duration of a test — never globally — and reach it through the same
``backend=`` every executor already carries. And ``benchmarks/e2e``
passes ``backend="vector"`` and imports :class:`BackendFallbackWarning`,
and a benchmark's definition only changes in a PR of its own: the class
stays, raised by nothing, until the benchmark PR (ROADMAP item 2) drops
``base_vector``, the class and, if it chooses, the option.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationConfig
    from repro.gpu.extension import SMExtension
    from repro.gpu.gpu import SimulationResult
    from repro.gpu.trace import KernelTrace


class BackendError(ValueError):
    """Unknown backend name or invalid backend request."""


class BackendFallbackWarning(RuntimeWarning):
    """Raised by nothing: no engine declines a request any more. Kept
    because ``benchmarks/e2e/harness.py`` imports it (module docstring)."""


@dataclass(frozen=True)
class EngineRequest:
    """One fully-resolved simulation request, backend-agnostic.

    This is exactly the parameter surface of
    :func:`repro.gpu.gpu.run_kernel` after option resolution — the
    frontend builds it once and hands it to the engine.
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
    """The contract an execution engine implements."""

    name: str

    def run(self, request: EngineRequest) -> "SimulationResult":
        """Execute the request and return the standard result."""


#: Registered engines by name: ``vector`` at import, plus whatever a
#: test registers around itself.
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


def dispatch(name: Optional[str], request: EngineRequest) -> "SimulationResult":
    """Run ``request`` on the machine, or on the registered engine
    ``name`` pins."""
    return resolve_backend(name or "vector").run(request)
