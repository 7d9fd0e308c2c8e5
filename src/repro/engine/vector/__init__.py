"""The ``vector`` engine: struct-of-arrays state over per-warp compiled
streams (:mod:`repro.engine.vector.compile`), hosting the whole
``SMExtension`` hook surface and every ``RunOptions`` field
(:mod:`repro.engine.vector.machine`).
"""

from __future__ import annotations

import gc

from repro.engine.vector.machine import VectorGPU

__all__ = ["VectorGPU", "run"]


def run(config, kernel, extension_factory, options):
    """Run ``kernel`` on the machine; the ``vector`` entry of
    :data:`repro.engine.BACKENDS`."""
    # The machine allocates heavily (compiled streams, event tuples)
    # but nothing cyclic has to die mid-run, so the collector only
    # adds pauses: pause it from construction until the machine —
    # whose SMs, extensions and warp views do reference each other —
    # is unreachable again. The first collection after that frees it
    # whole; re-enabled any earlier, the same collection would find
    # it alive and promote it to linger until a full collection.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return VectorGPU(
            config,
            kernel,
            extension_factory=extension_factory,
            max_concurrent_ctas=options.max_concurrent_ctas,
            track_loads=options.track_loads,
            timeseries=options.timeseries,
        ).run(keep_objects=options.keep_objects)
    finally:
        if gc_was_enabled:
            gc.enable()
