"""Lightweight stand-ins for live SMs and extensions inside results.

A live :class:`~repro.gpu.gpu.SimulationResult` that carries its SMs
drags the entire simulation graph behind it: each SM holds its memory
subsystem, the kernel trace, and a ``cta_source`` closure. The
analysis layer only ever touches a narrow slice of that graph, so
:func:`repro.gpu.gpu.run_kernel` snapshots it by default — large
sweeps then hold kilobytes per result instead of every SM alive.

These classes used to live in :mod:`repro.runner.snapshot`; they moved
down to the GPU layer so the engine itself can produce light results
(``keep_objects=False``). The runner module re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class L1Snapshot:
    """The L1 attributes the analysis layer reads off ``sm.l1``."""

    num_sets: int
    size_bytes: int
    assoc: int


@dataclass
class SMSnapshot:
    """Stand-in for a live SM inside a portable result."""

    sm_id: int
    done: bool
    l1: L1Snapshot
    load_tracker: Optional[object] = None  # a self-contained LoadTracker
    timeseries: Optional[object] = None  # a WindowSeries when recorded


@dataclass
class ExtensionSnapshot:
    """Stand-in for a live SM extension inside a portable result.

    Carries the extension's self-contained stat structures under their
    original attribute names, so ``ext.stats``, ``ext.load_monitor``
    and ``ext.vtt`` keep working for Figures 9/10/17 and the energy
    model's ``getattr`` probes.
    """

    kind: str
    stats: Optional[object] = None  # LinebackerStats (or None for baseline)
    load_monitor: Optional[object] = None  # LoadMonitor
    vtt: Optional[object] = None  # VictimTagTable (tags only, no data)


def snapshot_extension(ext) -> ExtensionSnapshot:
    if isinstance(ext, ExtensionSnapshot):
        return ext
    return ExtensionSnapshot(
        kind=type(ext).__name__,
        stats=getattr(ext, "stats", None),
        load_monitor=getattr(ext, "load_monitor", None),
        vtt=getattr(ext, "vtt", None),
    )


def snapshot_sm(sm) -> SMSnapshot:
    if isinstance(sm, SMSnapshot):
        return sm
    return SMSnapshot(
        sm_id=sm.sm_id,
        done=sm.done,
        l1=L1Snapshot(
            num_sets=sm.l1.num_sets,
            size_bytes=sm.l1.num_sets * sm.l1.assoc * sm.l1.line_bytes,
            assoc=sm.l1.assoc,
        ),
        load_tracker=getattr(sm, "load_tracker", None),
        timeseries=getattr(sm, "timeseries", None),
    )
