"""The ``vector`` execution backend.

Struct-of-arrays state plus numpy bulk trace compilation; bit-identical
to the ``object`` engine on every reported statistic for the feature
subset it supports (see :meth:`VectorBackend.supports`), and the
engine every unpinned request inside that subset runs on. Requests
outside it go to ``object`` — silently when the backend was left to
the selection rule, with a
:class:`~repro.engine.base.BackendFallbackWarning` when ``vector`` was
named explicitly.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.base import EngineRequest
from repro.engine.vector.machine import VectorGPU

__all__ = ["VectorBackend", "VectorGPU"]


class VectorBackend:
    """Vectorized engine for extension-free, snapshot-result runs."""

    name = "vector"

    def supports(self, request: EngineRequest) -> Optional[str]:
        """None when the request is vectorizable, else the reason.

        Each capability here corresponds to object-engine machinery
        with per-issue hooks or live-object surface the SoA core does
        not model; declaring them (instead of approximating) is what
        keeps the two backends bit-identical wherever both run.
        """
        if request.extension_factory is not None:
            return "architecture extensions (Linebacker/PCAL/CERF/VC) are not vectorized"
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
        return VectorGPU(
            request.config,
            request.kernel,
            max_concurrent_ctas=request.max_concurrent_ctas,
        ).run()
