"""Run options: the knobs of one simulation, as one frozen record.

:class:`RunOptions` is the single option surface shared by three
layers:

* :func:`~repro.gpu.gpu.run_kernel` takes ``options=RunOptions(...)``
  and nothing else;
* :meth:`repro.runner.spec.JobSpec.build` accepts ``options=`` and
  folds the **non-default** fields into the spec's sorted override
  params — the same pairs keyword overrides produce, so either
  spelling hashes (and therefore caches) identically;
* the HTTP job schema (:mod:`repro.service.schema`) carries the same
  fields under the ``"options"`` key, so a JSON job submitted over the
  wire names precisely the knobs an in-process call would.

Which fields an *architecture* can honour is decided in one place,
:meth:`repro.runner.registry.ArchSpec.refuses`.

The module sits below :mod:`repro.config` in the import graph (it
depends on nothing inside the package), so every layer can import it
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional


@dataclass(frozen=True)
class RunOptions:
    """Per-run simulation knobs, independent of app/arch/config.

    Every field default means "off": a default-constructed
    ``RunOptions()`` encodes to an empty override mapping, which keeps
    it invisible to content hashing.
    """

    #: Record per-load reuse/streaming classification (Figs 2-4 inputs).
    track_loads: bool = False
    #: Retain live SM/extension objects on the result instead of
    #: portable snapshots (tests that poke MSHRs need this).
    keep_objects: bool = False
    #: Record per-window :class:`~repro.metrics.WindowSeries` samples.
    timeseries: bool = False
    #: Static CTA-residency cap (SWL-style throttling); ``None`` = off.
    max_concurrent_ctas: Optional[int] = None
    #: A registered engine's name (:mod:`repro.engine.base`); ``None``
    #: is the machine, ``"vector"``. Participates in cache identity
    #: when set: results computed by pinned engines never alias, so a
    #: divergence from the test-side oracle can be bisected from cache.
    backend: Optional[str] = None

    def to_overrides(self) -> dict[str, Any]:
        """The non-default fields, as the override/kwarg mapping.

        Only non-defaults are emitted so that
        ``JobSpec.build(options=RunOptions())`` hashes identically to a
        spec built with no overrides at all.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_overrides(
        cls, overrides: Mapping[str, Any]
    ) -> tuple["RunOptions", dict[str, Any]]:
        """Split a mapping into ``(RunOptions, leftover)``.

        Keys that are not ``RunOptions`` fields (e.g. ``lb_config``,
        ``cta_limit``) pass through in ``leftover`` untouched.
        """
        known = {f.name for f in fields(cls)}
        ours = {k: v for k, v in overrides.items() if k in known}
        leftover = {k: v for k, v in overrides.items() if k not in known}
        return cls(**ours), leftover

    def replace(self, **changes: Any) -> "RunOptions":
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)


#: Field names of :class:`RunOptions`, for schema validation.
RUN_OPTION_FIELDS = tuple(f.name for f in fields(RunOptions))
