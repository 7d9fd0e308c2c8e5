"""Comparison architectures from the paper's evaluation: Best-SWL
(idealized warp throttling), PCAL (throttling + bypassing), CERF
(unified register-file/cache), CCWS (dynamic warp throttling) and the
idealized CacheExt study. Each is a policy or a configuration; running
one goes through its :mod:`repro.runner.registry` row."""

from repro.baselines.cache_ext import (
    best_swl_cache_ext,
    config_with_cache_ext,
    extended_l1_bytes,
)
from repro.baselines.ccws import CCWSExtension, ccws_factory
from repro.baselines.cerf import CERFExtension, cerf_factory
from repro.baselines.pcal import PCALExtension, pcal_factory
from repro.baselines.swl import BestSWLResult, best_swl, run_swl, sweep_limits

__all__ = [
    "BestSWLResult",
    "CCWSExtension",
    "CERFExtension",
    "PCALExtension",
    "best_swl",
    "best_swl_cache_ext",
    "ccws_factory",
    "cerf_factory",
    "config_with_cache_ext",
    "extended_l1_bytes",
    "pcal_factory",
    "run_swl",
    "sweep_limits",
]
