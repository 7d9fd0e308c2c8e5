"""The ``object`` engine's run function: the event-driven GPU/SM engine.

This is the original simulation core — per-warp ``Warp`` objects, a
per-SM event heap, live ``SetAssociativeCache``/``MSHRFile`` instances.
It hosts the full feature surface (extensions, load tracking,
timeseries, live result objects, timing DRAM, the NoC) and is the
reference the machine — hooks included — is held bit-identical to.
"""

from __future__ import annotations


def run(config, kernel, extension_factory, options):
    """Run ``kernel`` on the reference; the run-function signature of
    ``repro.engine.BACKENDS``."""
    from .gpu import GPU

    gpu = GPU(
        config,
        kernel,
        extension_factory=extension_factory,
        max_concurrent_ctas=options.max_concurrent_ctas,
        track_loads=options.track_loads,
        timeseries=options.timeseries,
    )
    return gpu.run(keep_objects=options.keep_objects)
