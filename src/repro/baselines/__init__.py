"""Comparison architectures from the paper's evaluation: Best-SWL
(idealized warp throttling), PCAL (throttling + bypassing), CERF
(unified register-file/cache), CCWS (dynamic warp throttling) and the
idealized CacheExt study. Each is a policy, a configuration or — for
the two oracle rows — legs and a reduction; running one goes through
its :mod:`repro.runner.registry` row."""

from repro.baselines.cache_ext import config_with_cache_ext, extended_l1_bytes
from repro.baselines.ccws import CCWSExtension, ccws_factory
from repro.baselines.cerf import CERFExtension, cerf_factory
from repro.baselines.pcal import PCALExtension, pcal_factory
from repro.baselines.swl import BestSWLResult, sweep_limits

__all__ = [
    "BestSWLResult",
    "CCWSExtension",
    "CERFExtension",
    "PCALExtension",
    "ccws_factory",
    "cerf_factory",
    "config_with_cache_ext",
    "extended_l1_bytes",
    "pcal_factory",
    "sweep_limits",
]
