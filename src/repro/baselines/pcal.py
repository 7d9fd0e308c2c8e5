"""PCAL: Priority-based Cache ALlocation (Li et al., HPCA 2015).

PCAL couples warp throttling with cache bypassing: only a subset of
warps ("token holders") may allocate lines in the L1; the rest bypass
it, fetching straight from L2/DRAM without polluting the cache. The
token count is tuned at runtime by monitoring performance variation
across time windows.

We reuse Linebacker's :class:`~repro.core.linebacker.BypassThrottler`
(the same fractional-IPC feedback loop the paper applies) as the
token-tuning policy, with the victim cache disabled — this is the
"combination of dynamic warp throttling and cache bypassing" the paper
evaluates in Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config import LinebackerConfig
from repro.core.linebacker import LinebackerExtension


class PCALExtension(LinebackerExtension):
    """PCAL = bypass-token throttling, no victim caching, no CTA
    throttling, no backup/restore."""

    def __init__(self, config: Optional[LinebackerConfig] = None) -> None:
        base = config or LinebackerConfig()
        pcal_config = replace(
            base,
            enable_victim_cache=False,
            enable_selective=False,
            enable_throttling=False,
        )
        super().__init__(config=pcal_config, enable_bypass_throttling=True)


@dataclass(frozen=True)
class PCALFactory:
    """Picklable ExtensionFactory (constructible from a JobSpec)."""

    config: Optional[LinebackerConfig] = None

    def __call__(self) -> PCALExtension:
        return PCALExtension(self.config)


def pcal_factory(config: Optional[LinebackerConfig] = None) -> PCALFactory:
    return PCALFactory(config)
