"""The ``vector`` engine: struct-of-arrays state plus numpy bulk trace
compilation, hosting the whole ``SMExtension`` hook surface and every
``RunOptions`` field (:mod:`repro.engine.vector.machine`).
"""

from __future__ import annotations

import gc

from repro.engine.base import EngineRequest
from repro.engine.vector.machine import VectorGPU

__all__ = ["VectorBackend", "VectorGPU"]


class VectorBackend:
    """The machine, behind the :class:`~repro.engine.base.EngineBackend`
    interface."""

    name = "vector"

    def run(self, request: EngineRequest):
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
                request.config,
                request.kernel,
                extension_factory=request.extension_factory,
                max_concurrent_ctas=request.max_concurrent_ctas,
                track_loads=request.track_loads,
                timeseries=request.timeseries,
            ).run(keep_objects=request.keep_objects)
        finally:
            if gc_was_enabled:
                gc.enable()
