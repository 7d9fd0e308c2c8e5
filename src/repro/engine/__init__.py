"""The cycle engine, by name.

An engine is a run function, ``run(config, kernel, extension_factory,
options) -> SimulationResult``, the signature of
:func:`repro.gpu.gpu.run_kernel`, which calls ``BACKENDS[options.backend
or "vector"]``. There is one in ``src/``, ``vector``
(:mod:`repro.engine.vector`): every architecture and every option runs
on it.

``RunOptions.backend`` pins a name; an unset name is the machine and
stays out of job cache identity. The dict has two other users. The
oracle tests set ``BACKENDS["object"]`` to ``tests/reference_engine``
for the length of a test (``reference_engine.registered()``), never
globally. ``benchmarks/e2e`` pins ``backend="vector"`` and imports
:class:`BackendFallbackWarning`; both stay until the benchmark PR
(ROADMAP item 1) redefines its workloads.
"""

from repro.engine.vector import run as _vector

#: Engine name -> run function: ``vector``, plus whatever a test sets
#: around itself.
BACKENDS = {"vector": _vector}


class BackendError(ValueError):
    """A direct runner call pinned an engine nothing registered."""


class BackendFallbackWarning(RuntimeWarning):
    """Raised by nothing: no engine declines a request. Kept because
    ``benchmarks/e2e/harness.py`` imports it."""


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(BACKENDS))


__all__ = ["BACKENDS", "BackendError", "BackendFallbackWarning", "backend_names"]
