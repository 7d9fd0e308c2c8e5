"""CacheExt: the idealized enhanced-L1 study of paper Section 2.4.

The motivational experiment assumes a design that magically reassigns
unused register space as a direct extension of the L1 data cache:

* ``CacheExt``            — baseline scheduling, L1 enlarged by the
  statically unused register space (SUR).
* ``Best-SWL + CacheExt`` — oracle static throttling, L1 enlarged by
  SUR plus the dynamically unused register space (DUR) the throttling
  leaves behind.
* ``LB + CacheExt``       — Figure 15's final bar: Linebacker running
  on top of the idealized enlarged cache.

The enlarged size is rounded down to a whole number of sets so the
8-way geometry stays valid.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.config import SimulationConfig
from repro.gpu.gpu import (
    SimulationResult,
    dynamically_unused_register_bytes,
    statically_unused_register_bytes,
)
from repro.gpu.trace import KernelTrace


def extended_l1_bytes(config: SimulationConfig, kernel: KernelTrace, extra_bytes: int) -> int:
    """L1 size grown by ``extra_bytes``, aligned to the set geometry."""
    gpu = config.gpu
    set_bytes = gpu.l1_assoc * gpu.l1_line_bytes
    total = gpu.l1_size_bytes + max(0, extra_bytes)
    return max(set_bytes, (total // set_bytes) * set_bytes)


def config_with_cache_ext(
    config: SimulationConfig,
    kernel: KernelTrace,
    include_dur_for_limit: Optional[int] = None,
) -> SimulationConfig:
    """Config whose L1 absorbs SUR (and DUR at a given CTA limit)."""
    extra = statically_unused_register_bytes(config.gpu, kernel)
    if include_dur_for_limit is not None:
        extra += dynamically_unused_register_bytes(
            config.gpu, kernel, active_ctas=include_dur_for_limit
        )
    new_size = extended_l1_bytes(config, kernel, extra)
    return replace(config, gpu=config.gpu.with_l1_size(new_size))


def best_swl_cache_ext_legs(
    config: SimulationConfig, kernel: KernelTrace, cta_limit: int
) -> dict:
    """One ``baseline`` leg at ``cta_limit`` on an L1 enlarged by SUR
    plus the DUR that limit leaves idle (Fig 5 passes Best-SWL's)."""
    ext_config = config_with_cache_ext(config, kernel, include_dur_for_limit=cta_limit)
    return {cta_limit: ("baseline", ext_config, {"max_concurrent_ctas": cta_limit})}


def only_leg(results: dict) -> SimulationResult:
    (result,) = results.values()
    return result
