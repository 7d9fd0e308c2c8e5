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
from typing import Any, Callable, Mapping, Optional

from repro.baselines.cache_ext import best_swl_cache_ext_legs, config_with_cache_ext, only_leg
from repro.baselines.ccws import ccws_factory
from repro.baselines.cerf import PCALCERFFactory, cerf_factory
from repro.baselines.pcal import pcal_factory
from repro.baselines.swl import best_swl_legs, best_swl_reduce
from repro.config import LinebackerConfig, SimulationConfig
from repro.core.linebacker import linebacker_factory
from repro.engine import backend_names
from repro.gpu.gpu import run_kernel
from repro.gpu.trace import KernelTrace
from repro.options import RUN_OPTION_FIELDS, RunOptions

_DEFAULTS = RunOptions()
#: The on/off ``RunOptions`` fields.
_FLAGS = tuple(n for n in RUN_OPTION_FIELDS if type(getattr(_DEFAULTS, n)) is bool)
_CTA_LIMITS = ("max_concurrent_ctas", "cta_limit")


@dataclass(frozen=True)
class ArchSpec:
    """One registered architecture, as data.

    ``extension(config, **arch_params)`` returns the picklable per-SM
    extension factory (absent: an extension-free machine);
    ``configure(config, kernel, **arch_params)`` returns the
    configuration the machine really runs (CacheExt's enlarged L1);
    ``params`` names the parameters a job may carry next to its
    :class:`~repro.options.RunOptions`.

    A *derived* row runs no machine of its own: ``legs(config, kernel,
    **arch_params)`` names the jobs it is made of, ``{label: (arch,
    config, overrides)}``, and ``reduce({label: result})`` folds their
    results. Its legs own the CTA limit, and every job carries its
    ``params`` (they are arguments of ``legs``).
    """

    name: str
    description: str = ""
    extension: Optional[Callable] = None
    configure: Optional[Callable] = None
    params: tuple[str, ...] = ()
    legs: Optional[Callable] = None
    reduce: Optional[Callable] = None

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
        if name not in RUN_OPTION_FIELDS and name not in self.params:
            accepted = ", ".join(self.params + RUN_OPTION_FIELDS)
            why = f"takes no parameter {name!r} (accepted: {accepted})"
        elif name in RUN_OPTION_FIELDS and value == getattr(_DEFAULTS, name):
            pass
        elif name in _FLAGS and type(value) is not bool:
            why = f"takes {name!r} only as true or false, not {value!r}"
        elif self.legs is not None and name in ("timeseries", "max_concurrent_ctas"):
            why = f"is derived from jobs over CTA limits and does not support {name!r}"
        elif name in _CTA_LIMITS and (type(value) is not int or value < 1):
            why = f"takes {name!r} only as an integer >= 1, not {value!r}"
        elif job and name == "keep_objects":
            why = (
                "hands back live objects ('keep_objects') only from a direct "
                "runner(...) call; they never cross the cache or the wire"
            )
        elif job and name == "backend" and value not in backend_names():
            supported = ", ".join(backend_names())
            why = f"does not support the {value!r} backend (supported: {supported})"
        return why and f"architecture {self.name!r} {why}"

    def check(self, params: Mapping[str, Any], job: bool = True, error=ValueError) -> None:
        """Raise ``error`` with the first reason this row cannot run
        ``params``: a derived row's missing parameter, else :meth:`refuses`."""
        for name in self.params if self.legs else ():
            if name not in params:
                raise error(f"architecture {self.name!r} needs the parameter {name!r}")
        for name, value in params.items():
            reason = self.refuses(name, value, job)
            if reason is not None:
                raise error(reason)

    def expand(self, config: SimulationConfig, kernel: KernelTrace, params: Mapping) -> dict:
        """A derived row's legs, each with the job's options added."""
        options, arch_params = RunOptions.from_overrides(params)
        legs = self.legs(config, kernel, **arch_params)
        shared = options.to_overrides()
        return {label: (arch, c, {**shared, **o}) for label, (arch, c, o) in legs.items()}

    def runner(self, config: SimulationConfig, kernel: KernelTrace, **params: Any):
        """Run ``kernel`` on this architecture; ``params`` mixes
        ``RunOptions`` fields and the row's own, as a job's overrides do.
        A derived row runs its legs here, one after another."""
        self.check(params, job=False, error=TypeError)
        if self.legs is not None:
            legs = self.expand(config, kernel, params).items()
            return self.reduce({k: resolve(a).runner(c, kernel, **p) for k, (a, c, p) in legs})
        options, arch_params = RunOptions.from_overrides(params)
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
    ArchSpec("best_swl", "oracle static CTA-limit sweep",
             legs=best_swl_legs, reduce=best_swl_reduce),
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
        params=("cta_limit",),
        legs=best_swl_cache_ext_legs,
        reduce=only_leg,
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
