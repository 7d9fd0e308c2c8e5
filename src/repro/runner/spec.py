"""Content-hashed experiment job specifications.

A :class:`JobSpec` is the unit of work of the parallel experiment
engine: one (app, architecture, configuration, scale) simulation. It
is a frozen dataclass of frozen dataclasses, so it is

* **picklable** — it can be shipped to a ``ProcessPoolExecutor``
  worker, which rebuilds the kernel trace and extension factory from
  it (no closures cross the process boundary), and
* **content-hashable** — :func:`repro.config.stable_hash` folds every
  field into a key that is stable across processes and interpreter
  restarts, which is what makes the persistent result cache sound.

Overrides (e.g. ``track_loads=True`` or a ``LinebackerConfig`` ablation
variant) are carried as a sorted tuple of ``(name, value)`` pairs so
two specs built from the same keyword arguments always hash equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Mapping, Optional

from repro.config import LinebackerConfig, SimulationConfig, stable_hash
from repro.gpu.trace import KernelTrace
from repro.options import RunOptions
from repro.runner.registry import resolve
from repro.workloads.spec import WorkloadSpec, build_workload, validate_scale
from repro.workloads.suite import APP_SPECS, workload_for


@dataclass(frozen=True)
class JobSpec:
    """One simulation to run: app x architecture x config x scale.

    ``workload`` carries a declarative
    :class:`~repro.workloads.spec.WorkloadSpec` when ``app`` is not a
    built-in Table-2 name. The spec rides *inside* the job — plain
    frozen data, so it pickles to pool workers and encodes onto the
    HTTP job document — which means a fuzzed or file-defined workload
    runs on any executor with no registration step on the far side.
    """

    app: str
    arch: str
    config: SimulationConfig
    scale: float = 1.0
    params: tuple[tuple[str, Any], ...] = ()
    workload: Optional[WorkloadSpec] = None

    @classmethod
    def build(
        cls,
        app: str,
        arch: str,
        config: SimulationConfig,
        scale: float = 1.0,
        overrides: Mapping[str, Any] | None = None,
        options: Optional[RunOptions] = None,
        workload: Optional[WorkloadSpec] = None,
    ) -> "JobSpec":
        """Build a spec from overrides and/or a :class:`RunOptions`.

        ``options`` folds its **non-default** fields into the params,
        producing exactly the pairs the equivalent keyword overrides
        would — content hashes are identical either way. Explicit
        ``overrides`` win over ``options`` on key collisions.

        ``app`` is resolved here through the one name lookup
        (:func:`~repro.workloads.suite.workload_for`): a Table-2 app
        carries no document (its key is its name's), and a registered
        workload is attached so the job stays self-contained across
        process boundaries. An unknown name, a built-in name with a
        document, a scale that is not a finite number > 0, or a machine
        or Linebacker setting :meth:`~repro.config.GPUConfig.check` or
        :meth:`~repro.config.LinebackerConfig.check` refuses (the
        config's own, or an ``lb_config`` parameter) raises
        ``ValueError``.

        Every submission surface (``Session``, ``ExperimentContext``,
        the HTTP schema) ends here, so this is where a job is checked
        against its architecture: an unknown architecture, an option or
        parameter it :meth:`~repro.runner.registry.ArchSpec.refuses`, or
        a parameter it requires and the job lacks, raises ``ValueError``
        before anything is hashed, cached, expanded into legs or sent.
        """
        merged = dict(options.to_overrides()) if options is not None else {}
        merged.update(overrides or {})
        try:
            row = resolve(arch)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        row.check(merged)
        params = tuple(sorted(merged.items()))
        validate_scale(scale)
        config.gpu.check()
        for lb_config in (config.linebacker, merged.get("lb_config")):
            if isinstance(lb_config, LinebackerConfig):
                lb_config.check()
        if app in APP_SPECS:
            if workload is not None:
                raise ValueError(
                    f"app {app!r} is a built-in Table-2 app and cannot carry "
                    "a workload document"
                )
        elif workload is None:
            try:
                workload = workload_for(app)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
        elif workload.name != app:
            raise ValueError(
                f"job app {app!r} does not match its attached workload "
                f"{workload.name!r}"
            )
        return cls(app=app, arch=arch, config=config, scale=scale,
                   params=params, workload=workload)

    @property
    def overrides(self) -> dict[str, Any]:
        return dict(self.params)

    def kernel(self) -> KernelTrace:
        """This job's kernel trace (built lazily: nothing is simulated)."""
        return build_workload(self.workload or workload_for(self.app), self.scale)

    def legs(self) -> dict[Any, "JobSpec"]:
        """A derived job's legs by label (none for a plain job)."""
        row = resolve(self.arch)
        if row.legs is None:
            return {}
        legs = row.expand(self.config, self.kernel(), self.overrides).items()
        build = partial(JobSpec.build, self.app, scale=self.scale, workload=self.workload)
        return {label: build(arch, config, overrides=params)
                for label, (arch, config, params) in legs}

    @property
    def options(self) -> RunOptions:
        """The :class:`RunOptions` view of this spec's params."""
        opts, _ = RunOptions.from_overrides(self.overrides)
        return opts

    @cached_property
    def key(self) -> str:
        """Stable content hash identifying this job everywhere.

        Hashed once per spec: the value lands in the instance
        ``__dict__`` (not a dataclass field, so equality, hashing
        tokens, ``replace`` and the job document never see it) and
        travels with a pickled spec to pool workers.
        """
        return stable_hash(self)

    @property
    def label(self) -> str:
        """Short human-readable name for progress reporting."""
        extra = ",".join(k for k, _ in self.params)
        suffix = f"[{extra}]" if extra else ""
        return f"{self.arch}:{self.app}{suffix}"
