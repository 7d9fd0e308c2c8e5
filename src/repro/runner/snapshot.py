"""Portable snapshots of simulation results.

A live :class:`~repro.gpu.gpu.SimulationResult` built with
``keep_objects=True`` drags the entire simulation graph behind it:
each SM holds its memory subsystem, the kernel trace, and a
``cta_source`` closure, none of which can cross a process boundary or
be written to the persistent result cache. The analysis layer,
however, only ever touches a narrow slice of that graph. The snapshot
classes (now defined in :mod:`repro.gpu.snapshot`, re-exported here)
capture exactly that slice — the self-contained stat objects
(``SMStats``, ``TrafficStats``, cache and register-file stats,
``LinebackerStats``, the ``LoadMonitor``, ``VictimTagTable`` and
``LoadTracker``, which hold no SM references) plus a few scalars — so
a "portable" result pickles in kilobytes and behaves identically for
every figure runner, test, and the energy model.

Since ``run_kernel`` snapshots by default, :func:`portable` is usually
a pass-through; it still guarantees portability for results produced
with ``keep_objects=True``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.swl import BestSWLResult
from repro.gpu.gpu import SimulationResult
from repro.gpu.snapshot import (
    ExtensionSnapshot,
    L1Snapshot,
    SMSnapshot,
    snapshot_extension,
    snapshot_sm,
)

__all__ = [
    "ExtensionSnapshot",
    "L1Snapshot",
    "SMSnapshot",
    "snapshot_extension",
    "snapshot_sm",
    "portable_result",
    "portable_best_swl",
    "portable",
]


def portable_result(result: SimulationResult) -> SimulationResult:
    """Strip a result down to picklable state.

    Idempotent: a result whose SMs are already snapshots passes
    through unchanged, so cached payloads can be re-portabilized
    safely.
    """
    if all(isinstance(sm, SMSnapshot) for sm in result.sms):
        return result
    return replace(
        result,
        sms=[snapshot_sm(sm) for sm in result.sms],
        extensions=[snapshot_extension(ext) for ext in result.extensions],
    )


def portable_best_swl(outcome: BestSWLResult) -> BestSWLResult:
    return BestSWLResult(
        best_limit=outcome.best_limit,
        best_result=portable_result(outcome.best_result),
        sweep_ipc=dict(outcome.sweep_ipc),
    )


def portable(value):
    """Portabilize any runner payload (simulation or Best-SWL sweep)."""
    if isinstance(value, BestSWLResult):
        return portable_best_swl(value)
    if isinstance(value, SimulationResult):
        return portable_result(value)
    return value
