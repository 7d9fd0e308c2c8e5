"""The ``vector`` execution backend.

Struct-of-arrays state plus numpy bulk trace compilation, hosting the
whole ``SMExtension`` hook surface; bit-identical to the ``object``
engine on every reported statistic for the feature subset it supports
(see :meth:`VectorBackend.supports`), and the engine every unpinned
request inside that subset — every architecture at default options —
runs on. Requests
outside it go to ``object`` — silently when the backend was left to
the selection rule, with a
:class:`~repro.engine.base.BackendFallbackWarning` when ``vector`` was
named explicitly.
"""

from __future__ import annotations

import gc
from typing import Optional

from repro.engine.base import EngineRequest
from repro.engine.vector.machine import VectorGPU

__all__ = ["VectorBackend", "VectorGPU"]


class VectorBackend:
    """Vectorized engine for snapshot-result runs, hooked or not."""

    name = "vector"

    def supports(self, request: EngineRequest) -> Optional[str]:
        """None when the request is vectorizable, else the reason.

        Each capability here corresponds to object-engine machinery
        (per-access recorders, a live-object surface, other memory
        models) the SoA core does not model; declaring them (instead of
        approximating) is what keeps the two backends bit-identical
        wherever both run.
        """
        if request.track_loads:
            return "per-PC load tracking is not vectorized"
        if request.keep_objects:
            return "live simulator objects exist only in the object engine"
        if request.timeseries:
            return "windowed timeseries recording is not vectorized"
        gpu = request.config.gpu
        if gpu.dram_model != "simple":
            return "the bank-level timing DRAM model is not vectorized"
        if gpu.noc_enable:
            return "the SM-to-L2 interconnect model is not vectorized"
        return None

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
            ).run()
        finally:
            if gc_was_enabled:
                gc.enable()
