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
``LinebackerStats`` and ``LoadTracker``, which hold no SM references),
the ``summary()`` of each Load Monitor and Victim Tag Table (never
their entries and tags) and a few scalars — so a "portable" result
pickles in about a kilobyte and behaves identically for every figure
runner, test, and the energy model.

Since ``run_kernel`` snapshots by default, :func:`portable` is usually
a pass-through; it still guarantees portability for results produced
with ``keep_objects=True``.
"""

from __future__ import annotations

from dataclasses import replace

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
    "portable",
]


def portable(value):
    """Strip a runner payload down to picklable state.

    Idempotent: a result whose SMs are already snapshots passes through
    unchanged, so cached payloads can be re-portabilized safely. A
    derived row's value (a Best-SWL sweep) is folded from leg results
    that are snapshots already, and passes through too.
    """
    if not isinstance(value, SimulationResult) or all(
        isinstance(sm, SMSnapshot) for sm in value.sms
    ):
        return value
    return replace(
        value,
        sms=[snapshot_sm(sm) for sm in value.sms],
        extensions=[snapshot_extension(ext) for ext in value.extensions],
    )
