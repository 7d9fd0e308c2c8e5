"""Versioned JSON encoding of :class:`~repro.runner.spec.JobSpec`.

The HTTP coordinator accepts jobs as JSON documents::

    {
      "schema": 3,
      "app": "S2",
      "arch": "linebacker",
      "scale": 0.25,
      "config": {"gpu": {...}, "linebacker": {...},
                 "max_cycles": 400000, "seed": 2019},
      "options": {"timeseries": true},
      "overrides": {"cta_limit": 3},
      "workload": {"spec": 1, ...}
    }

Design rules:

* **Versioned**: ``schema`` is mandatory; an unknown version is
  rejected with a :class:`SchemaError` naming both versions, so the
  coordinator and clients can evolve independently (mirroring the wire
  protocol's ``proto`` handshake field).
* **Round-trip exact**: ``decode_jobspec(encode_jobspec(spec))``
  reproduces the spec *including its content hash*: the config, an
  ``lb_config`` override and the workload tree travel through the one
  dataclass codec (:func:`repro.config.to_doc` / ``from_doc``), JSON
  floats round-trip via shortest ``repr``, and
  :class:`~repro.options.RunOptions` fields fold into the same sorted
  override params the in-process path produces, so a job submitted
  over HTTP hits the cache entry an inline run would.
* **Closed world**: unknown fields at any level, a value not of its
  field's type, non-scalar override values, unregistered
  apps/architectures, a machine :meth:`~repro.config.GPUConfig.check`
  refuses and any option or parameter the architecture refuses
  (:meth:`~repro.runner.registry.ArchSpec.refuses`) are rejected at
  decode time with a message naming the field, never surfacing as a
  pickled traceback mid-simulation.

A missing ``config`` is ``SimulationConfig()`` (the paper machine) and
a missing config field takes its dataclass default; ``options`` and
``overrides`` default to empty.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.config import DocumentError, LinebackerConfig, SimulationConfig, from_doc, to_doc
from repro.options import RUN_OPTION_FIELDS, RunOptions
from repro.runner.spec import JobSpec

#: Bump on any incompatible change to the JSON job document shape.
#: v2: optional ``workload`` member carrying a declarative workload
#: document (``repro.workloads.spec``) for non-Table-2 apps.
#: v3: ``options.backend`` selects the execution engine.
JOB_SCHEMA_VERSION = 3

#: Every member a job document may carry; any other is refused.
JOB_FIELDS = frozenset({"schema", "app", "arch", "scale", "config",
                        "options", "overrides", "workload"})

#: Override keys whose values are dataclasses (encoded as field dicts).
_DATACLASS_OVERRIDES = {"lb_config": LinebackerConfig}

_SCALARS = (bool, int, float, str, type(None))


class SchemaError(ValueError):
    """A job document that cannot be (safely) decoded."""


def encode_jobspec(spec: JobSpec) -> dict:
    """The JSON job document for ``spec`` (schema-versioned)."""
    options, leftover = RunOptions.from_overrides(spec.overrides)
    overrides: dict[str, Any] = {}
    for name, value in leftover.items():
        cls = _DATACLASS_OVERRIDES.get(name)
        if cls is not None and isinstance(value, cls):
            overrides[name] = to_doc(value)
        elif isinstance(value, _SCALARS):
            overrides[name] = value
        else:
            raise SchemaError(
                f"override {name!r} carries a {type(value).__name__}, which "
                "the JSON job schema cannot transport"
            )
    doc = {
        "schema": JOB_SCHEMA_VERSION,
        "app": spec.app,
        "arch": spec.arch,
        "scale": spec.scale,
        "config": to_doc(spec.config),
    }
    opt_fields = options.to_overrides()
    if opt_fields:
        doc["options"] = opt_fields
    if overrides:
        doc["overrides"] = overrides
    if spec.workload is not None:
        from repro.workloads.spec import encode_workload

        doc["workload"] = encode_workload(spec.workload)
    return doc


def decode_jobspec(doc: Any) -> JobSpec:
    """Validate and decode one JSON job document into a :class:`JobSpec`."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"job: expected an object, got {type(doc).__name__}")
    version = doc.get("schema")
    if version != JOB_SCHEMA_VERSION:
        raise SchemaError(
            f"job schema version mismatch (got {version!r}, this service "
            f"speaks {JOB_SCHEMA_VERSION}); upgrade the older peer"
        )
    unknown = set(doc) - JOB_FIELDS
    if unknown:
        raise SchemaError(f"job: unknown field(s) {sorted(unknown)}")

    app = doc.get("app")
    arch = doc.get("arch")
    if not isinstance(app, str) or not isinstance(arch, str):
        raise SchemaError("job: 'app' and 'arch' must be strings")
    workload = None
    if "workload" in doc:
        from repro.workloads.spec import WorkloadSpecError, decode_workload

        try:
            workload = decode_workload(doc["workload"])
        except WorkloadSpecError as exc:  # names the workload and its path
            raise SchemaError(str(exc)) from None

    scale = doc.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool):
        raise SchemaError("job: 'scale' must be a number")

    # Option values are the architecture's to refuse (JobSpec.build),
    # so each refusal names the architecture as well as the option.
    opt_doc = doc.get("options", {})
    if not isinstance(opt_doc, Mapping):
        raise SchemaError("job: 'options' must be an object")
    unknown = set(opt_doc) - set(RUN_OPTION_FIELDS)
    if unknown:
        raise SchemaError(
            f"options: unknown field(s) {sorted(unknown)}; "
            f"known: {sorted(RUN_OPTION_FIELDS)}"
        )
    options = RunOptions(**opt_doc)

    over_doc = doc.get("overrides", {})
    if not isinstance(over_doc, Mapping):
        raise SchemaError("job: 'overrides' must be an object")
    try:
        config = (
            from_doc(SimulationConfig, doc["config"], "config")
            if "config" in doc
            else SimulationConfig()
        )
        overrides: dict[str, Any] = {}
        for name, value in over_doc.items():
            cls = _DATACLASS_OVERRIDES.get(name)
            if cls is not None:
                overrides[name] = from_doc(cls, value, f"overrides.{name}")
            elif isinstance(value, _SCALARS):
                overrides[name] = value
            else:
                raise SchemaError(
                    f"overrides.{name}: unsupported value type "
                    f"{type(value).__name__}"
                )
    except DocumentError as exc:
        raise SchemaError(str(exc)) from None

    # JobSpec.build resolves the app name, checks the scale and checks
    # the job against its architecture (unknown name, an option or
    # parameter it refuses): a 400 naming the fix, where a worker-side
    # traceback or fallback warning would be invisible to the remote
    # client.
    try:
        return JobSpec.build(
            app=app,
            arch=arch,
            config=config,
            scale=float(scale),
            overrides=overrides,
            options=options,
            workload=workload,
        )
    except ValueError as exc:
        raise SchemaError(f"job: {exc}") from None
