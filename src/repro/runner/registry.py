"""String-keyed registry of every architecture the paper evaluates.

Every configuration of Figs 5, 11, 12 and 15 is the *same* SM with a
different policy plugged into the memory path and, for CacheExt, a
differently sized L1 — data, not code. ``ARCHITECTURES`` maps a name to
an :class:`ArchSpec` row; :meth:`ArchSpec.runner` is the one generic
run function and :meth:`ArchSpec.refuses` the one arch-versus-option
check. Workers look rows up *by name*, so a job stays plain data. A new
mechanism is an ``SMExtension`` subclass plus one row here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Optional

from repro.baselines.cache_ext import best_swl_cache_ext, config_with_cache_ext
from repro.baselines.ccws import ccws_factory
from repro.baselines.cerf import PCALCERFFactory, cerf_factory
from repro.baselines.pcal import pcal_factory
from repro.baselines.swl import best_swl
from repro.config import LinebackerConfig, SimulationConfig
from repro.core.linebacker import linebacker_factory
from repro.engine import backend_names
from repro.gpu.gpu import run_kernel
from repro.gpu.trace import KernelTrace
from repro.options import RUN_OPTION_FIELDS, RunOptions

_DEFAULTS = RunOptions()


@dataclass(frozen=True)
class ArchSpec:
    """One registered architecture, as data.

    ``extension(config, **arch_params)`` returns the picklable per-SM
    extension factory (absent: an extension-free machine);
    ``configure(config, kernel, **arch_params)`` returns the
    configuration the machine really runs (CacheExt's enlarged L1);
    ``params`` names the parameters a job may carry next to its
    :class:`~repro.options.RunOptions`. The two oracle sweeps instead
    set ``sweep(config, kernel, options, **arch_params)``, which owns
    the CTA limit of every leg it runs.
    """

    name: str
    description: str = ""
    extension: Optional[Callable] = None
    configure: Optional[Callable] = None
    params: tuple[str, ...] = ()
    sweep: Optional[Callable] = None

    def refuses(self, name: str, value: Any, job: bool = True) -> Optional[str]:
        """Why this architecture cannot take ``name=value`` (an option
        or a parameter); ``None`` when it can.

        ``job`` is true for anything that becomes a :class:`JobSpec`
        (cached, sent to workers, served over HTTP) and false for a
        direct :meth:`runner` call, which may hand back live objects and
        whose caller sees the ``BackendError`` an unregistered engine
        name raises.
        """
        why = None
        if name not in RUN_OPTION_FIELDS:
            if name not in self.params:
                accepted = ", ".join(self.params + RUN_OPTION_FIELDS)
                why = f"takes no parameter {name!r} (accepted: {accepted})"
        elif value == getattr(_DEFAULTS, name):
            pass
        elif self.sweep is not None and name in ("timeseries", "max_concurrent_ctas"):
            why = f"is an oracle sweep over CTA limits and does not support {name!r}"
        elif job and name == "keep_objects":
            why = (
                "hands back live objects ('keep_objects') only from a direct "
                "runner(...) call; they never cross the cache or the wire"
            )
        elif job and name == "backend" and value not in backend_names():
            supported = ", ".join(backend_names())
            why = f"does not support the {value!r} backend (supported: {supported})"
        return why and f"architecture {self.name!r} {why}"

    def runner(self, config: SimulationConfig, kernel: KernelTrace, **params: Any):
        """Run ``kernel`` on this architecture; ``params`` mixes
        ``RunOptions`` fields and the row's own, as a job's overrides do."""
        for name, value in params.items():
            reason = self.refuses(name, value, job=False)
            if reason is not None:
                raise TypeError(reason)
        options, arch_params = RunOptions.from_overrides(params)
        if self.sweep is not None:
            return self.sweep(config, kernel, options, **arch_params)
        if self.configure is not None:
            config = self.configure(config, kernel, **arch_params)
        factory = self.extension(config, **arch_params) if self.extension else None
        return run_kernel(config, kernel, factory, options)


def _linebacker(config, lb_config: Optional[LinebackerConfig] = None, bypass=False, **switches):
    """Linebacker over ``lb_config`` (default: the config's own) with
    the named ``LinebackerConfig`` feature switches overridden."""
    lb = replace(lb_config or config.linebacker, **switches)
    return linebacker_factory(lb, enable_bypass_throttling=bypass)


def _policy(factory, config):
    """A comparison policy parameterized by the Linebacker config."""
    return factory(config.linebacker)


_ROWS = (
    ArchSpec("baseline", "stock GPU, no memory-path policy"),
    ArchSpec("best_swl", "oracle static CTA-limit sweep", sweep=best_swl),
    ArchSpec(
        "linebacker",
        "full Linebacker (throttling + selective victim cache)",
        extension=_linebacker,
        params=("lb_config",),
    ),
    ArchSpec(
        "victim_caching",
        "Fig 11: keep every victim, no throttling",
        extension=partial(_linebacker, enable_selective=False, enable_throttling=False),
    ),
    ArchSpec(
        "selective_victim_caching",
        "Fig 11: SUR space only, no throttling",
        extension=partial(_linebacker, enable_throttling=False),
    ),
    ArchSpec(
        "pcal", "PCAL bypass-token throttling (HPCA 2015)", extension=partial(_policy, pcal_factory)
    ),
    ArchSpec(
        "cerf", "CERF unified RF/L1 caching (MICRO 2016)", extension=partial(_policy, cerf_factory)
    ),
    ArchSpec(
        "ccws",
        "CCWS dynamic warp throttling (MICRO 2012; Sec 2.4 ablation)",
        extension=partial(_policy, ccws_factory),
    ),
    ArchSpec(
        "pcal_svc",
        "Fig 15: PCAL bypass throttling + SUR victim cache",
        extension=partial(_linebacker, enable_throttling=False, bypass=True),
    ),
    ArchSpec(
        "pcal_cerf",
        "Fig 15: PCAL bypass throttling over a CERF cache",
        extension=partial(_policy, PCALCERFFactory),
    ),
    ArchSpec(
        "cache_ext", "Sec 2.4: idealized SUR-enlarged L1", configure=config_with_cache_ext
    ),
    ArchSpec(
        "best_swl_cache_ext",
        "Sec 2.4: oracle throttling + (SUR+DUR)-enlarged L1",
        sweep=best_swl_cache_ext,
        params=("cta_limit",),
    ),
    ArchSpec(
        "lb_cache_ext",
        "Fig 15: Linebacker over the idealized enlarged L1",
        extension=_linebacker,
        configure=config_with_cache_ext,
    ),
)

ARCHITECTURES: dict[str, ArchSpec] = {row.name: row for row in _ROWS}


def resolve(name: str) -> ArchSpec:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        known = ", ".join(sorted(ARCHITECTURES))
        raise KeyError(f"unknown architecture {name!r}; known: {known}") from None
