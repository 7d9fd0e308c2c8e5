"""Lightweight stand-ins for live SMs and extensions inside results.

A live :class:`~repro.gpu.gpu.SimulationResult` that carries its SMs
drags the entire simulation graph behind it: each SM holds its memory
subsystem, the kernel trace, and a ``cta_source`` closure. The
analysis layer only ever touches a narrow slice of that graph, so
:func:`repro.gpu.gpu.run_kernel` snapshots it by default — large
sweeps then hold kilobytes per result instead of every SM alive.

An extension's Load Monitor and Victim Tag Table are kept as their
``summary()`` values (:class:`~repro.core.load_monitor.MonitorSummary`,
:class:`~repro.core.victim_tag_table.VTTSummary`), not as the tables
with every entry and tag: an in-process result, a store row, a wire
line and an HTTP payload all carry the same small objects, and only
``RunOptions(keep_objects=True)`` hands back the live tables.

These classes used to live in :mod:`repro.runner.snapshot`; they moved
down to the GPU layer so the engine itself can produce light results
(``keep_objects=False``). The runner module re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.load_monitor import MonitorSummary
from repro.core.victim_tag_table import VTTSummary
from repro.gpu.stats import LoadTracker
from repro.metrics import WindowSeries


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
    load_tracker: Optional[LoadTracker] = None  # self-contained, when tracked
    timeseries: Optional[WindowSeries] = None  # when recorded


@dataclass
class ExtensionSnapshot:
    """Stand-in for a live SM extension inside a portable result.

    Carries the extension's self-contained stats and the summaries of
    its tables under their original attribute names, so ``ext.stats``,
    ``ext.load_monitor.windows_elapsed`` and ``ext.vtt.stats`` keep
    working for Figures 9/10/17 and the energy model's ``getattr``
    probes.
    """

    kind: str
    stats: Optional[object] = None  # LinebackerStats (or another policy's)
    load_monitor: Optional[MonitorSummary] = None
    vtt: Optional[VTTSummary] = None


def snapshot_extension(ext) -> ExtensionSnapshot:
    if isinstance(ext, ExtensionSnapshot):
        return ext
    monitor = getattr(ext, "load_monitor", None)
    vtt = getattr(ext, "vtt", None)
    return ExtensionSnapshot(
        kind=type(ext).__name__,
        stats=getattr(ext, "stats", None),
        load_monitor=None if monitor is None else monitor.summary(),
        vtt=None if vtt is None else vtt.summary(),
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
