"""The ``object`` backend: the event-driven GPU/SM engine.

This is the original simulation core — per-warp ``Warp`` objects, a
per-SM event heap, live ``SetAssociativeCache``/``MSHRFile`` instances
— extracted behind the :class:`~repro.engine.base.EngineBackend`
interface. It supports the full feature surface (extensions, load
tracking, timeseries, live result objects, timing DRAM, the NoC), so
it ends the selection order for any request the vector engine
declines, and is the reference the vector engine — hooks included — is
held bit-identical to.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.base import EngineRequest


class ObjectBackend:
    """Event-driven reference engine (supports everything)."""

    name = "object"

    def supports(self, request: EngineRequest) -> Optional[str]:
        return None

    def run(self, request: EngineRequest):
        from .gpu import GPU

        gpu = GPU(
            request.config,
            request.kernel,
            extension_factory=request.extension_factory,
            max_concurrent_ctas=request.max_concurrent_ctas,
            track_loads=request.track_loads,
            timeseries=request.timeseries,
        )
        return gpu.run(keep_objects=request.keep_objects)
