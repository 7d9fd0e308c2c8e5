"""Shared experiment context, fronted by the architecture registry.

Every figure in the paper's evaluation normalizes against some common
set of runs (baseline, Best-SWL, Linebacker, CERF, PCAL). The context
names those runs through the string-keyed
:data:`~repro.runner.registry.ARCHITECTURES` registry —
``ctx.run(app, arch, **overrides)`` — and delegates all execution and
memoization to a :class:`~repro.runner.engine.ExperimentRunner`, which
layers an in-process memo over the persistent on-disk result cache and
(optionally) a process pool. Regenerating all figures therefore
simulates each configuration at most once per process, and a warm
cache makes repeat runs near-instant.

The pre-registry one-method-per-architecture API (``ctx.baseline(app)``,
``ctx.pcal(app)``, ...) was deprecated in PR 1 and has been removed;
``ctx.run(app, arch)`` is the only spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.config import SimulationConfig, scaled_config
from repro.runner import ExperimentRunner, JobSpec
from repro.runner.registry import resolve
from repro.workloads.suite import ALL_APPS, kernel_for


@dataclass
class ExperimentContext:
    """Registry-driven simulation runs for one (config, scale) pair."""

    config: SimulationConfig = field(default_factory=scaled_config)
    scale: float = 1.0
    apps: tuple[str, ...] = ALL_APPS
    runner: ExperimentRunner = field(default_factory=ExperimentRunner)
    #: Overrides folded into every spec (``run --timeseries`` sets
    #: ``{"timeseries": True}`` here). Pairs an architecture refuses
    #: are dropped per-spec, so e.g. ``best_swl`` jobs keep their plain
    #: cache keys instead of failing a whole figure sweep.
    default_overrides: dict = field(default_factory=dict)
    _kernels: dict = field(default_factory=dict)

    def kernel(self, app: str):
        if app not in self._kernels:
            self._kernels[app] = kernel_for(app, self.scale)
        return self._kernels[app]

    # -- registry API --------------------------------------------------------
    def spec(self, app: str, arch: str, **overrides: Any) -> JobSpec:
        """The content-hashed job naming one (app, arch) simulation."""
        if self.default_overrides:
            row = resolve(arch)
            kept = {
                name: value
                for name, value in self.default_overrides.items()
                if row.refuses(name, value) is None
            }
            overrides = {**kept, **overrides}
        return JobSpec.build(
            app=app,
            arch=arch,
            config=self.config,
            scale=self.scale,
            overrides=overrides,
        )

    def run(self, app: str, arch: str, **overrides: Any):
        """Run (or recall) one architecture on one app.

        ``arch`` is a key of :data:`repro.runner.ARCHITECTURES`;
        ``overrides`` are forwarded to the architecture's run function
        (e.g. ``track_loads=True`` or ``lb_config=...``) and are part
        of the memo/cache key.
        """
        return self.runner.run(self.spec(app, arch, **overrides))

    def run_many(self, jobs: Iterable) -> list:
        """Resolve a batch of ``(app, arch)`` or ``(app, arch, overrides)``
        tuples at once — the fan-out point for parallel execution."""
        specs = []
        for job in jobs:
            app, arch, *rest = job
            overrides = rest[0] if rest else {}
            specs.append(self.spec(app, arch, **overrides))
        return self.runner.run_many(specs)

    def prefetch(self, archs: Iterable[str], apps: Optional[Iterable[str]] = None) -> None:
        """Warm the memo for ``archs`` x ``apps`` in one parallel wave."""
        targets = tuple(apps) if apps is not None else self.apps
        self.run_many([(app, arch) for app in targets for arch in archs])

def geomean(values) -> float:
    """Geometric mean (the paper's GM bars)."""
    import math

    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
