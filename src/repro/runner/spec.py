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
from functools import cached_property
from typing import Any, Mapping, Optional

from repro.config import SimulationConfig, stable_hash
from repro.options import RunOptions
from repro.runner.registry import resolve
from repro.workloads.spec import WorkloadSpec


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

        When ``app`` names a registered workload (and no explicit
        ``workload`` is given), the registered spec is attached so the
        job stays self-contained across process boundaries.

        Every submission surface (``Session``, ``ExperimentContext``,
        the HTTP schema) ends here, so this is where a job is checked
        against its architecture: an unknown architecture, or an option
        or parameter it :meth:`~repro.runner.registry.ArchSpec.refuses`,
        raises ``ValueError`` before anything is hashed, cached or sent.
        """
        merged = dict(options.to_overrides()) if options is not None else {}
        merged.update(overrides or {})
        try:
            row = resolve(arch)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        for name, value in merged.items():
            reason = row.refuses(name, value)
            if reason is not None:
                raise ValueError(reason)
        params = tuple(sorted(merged.items()))
        if workload is None:
            from repro.workloads.spec import registered_workload

            workload = registered_workload(app)
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
