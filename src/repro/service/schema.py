"""Versioned JSON encoding of :class:`~repro.runner.spec.JobSpec`.

The HTTP coordinator accepts jobs as JSON documents::

    {
      "schema": 1,
      "app": "S2",
      "arch": "linebacker",
      "scale": 0.25,
      "config": {"gpu": {...}, "linebacker": {...},
                 "max_cycles": 400000, "seed": 2019},
      "options": {"timeseries": true},
      "overrides": {"cta_limit": 3}
    }

Design rules:

* **Versioned**: ``schema`` is mandatory; an unknown version is
  rejected with a :class:`SchemaError` naming both versions, so the
  coordinator and clients can evolve independently (mirroring the wire
  protocol's ``proto`` handshake field).
* **Round-trip exact**: ``decode_jobspec(encode_jobspec(spec))``
  reproduces the spec *including its content hash* — JSON floats
  round-trip via shortest ``repr`` in Python, dataclass fields are
  carried exhaustively, and :class:`~repro.options.RunOptions` fields
  fold into the same sorted override params the in-process path
  produces. A job submitted over HTTP therefore hits the same cache
  entry an inline run would.
* **Closed world**: unknown config fields, unknown option names, a
  config field whose JSON type is not its annotated type,
  non-scalar override values, unregistered apps/architectures and any
  option or parameter the architecture refuses
  (:meth:`~repro.runner.registry.ArchSpec.refuses`) are all rejected
  at decode time with a message a remote client can act on, instead of
  surfacing as a pickled traceback mid-simulation.

``config`` is optional (defaults to :func:`repro.config.scaled_config`
with the submitted ``sms`` hint, or its plain default); ``options`` and
``overrides`` default to empty.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Mapping

from repro.config import GPUConfig, LinebackerConfig, SimulationConfig
from repro.options import RUN_OPTION_FIELDS, RunOptions
from repro.runner.spec import JobSpec

#: Bump on any incompatible change to the JSON job document shape.
#: v2: optional ``workload`` member carrying a declarative workload
#: document (``repro.workloads.spec``) for non-Table-2 apps.
#: v3: ``options.backend`` selects the execution engine.
JOB_SCHEMA_VERSION = 3

#: Override keys whose values are dataclasses (encoded as field dicts).
_DATACLASS_OVERRIDES = {"lb_config": LinebackerConfig}

_NONE = type(None)
_SCALARS = (bool, int, float, str, _NONE)

#: The JSON value types a dataclass field of each annotated type takes
#: (the annotations are strings: every config module postpones them).
#: Matched by exact type, so a ``bool`` is no number here.
_FIELD_TYPES = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


class SchemaError(ValueError):
    """A job document that cannot be (safely) decoded."""


def _encode_dataclass(value: Any) -> dict:
    return dataclasses.asdict(value)


@functools.cache
def _field_types(cls: type) -> dict:
    """``cls``'s field names -> the JSON value types each one takes."""
    return {f.name: _FIELD_TYPES[f.type] for f in dataclasses.fields(cls)}


def _type_error(value: Any, types: tuple, where: str) -> SchemaError:
    names = " or ".join("null" if t is _NONE else t.__name__ for t in types)
    return SchemaError(f"{where}: expected {names}, got {value!r}")


def _check_fields(cls: type, doc: Mapping, where: str) -> None:
    """Refuse a field of ``doc`` that ``cls`` does not have, or whose
    value is not of the field's type."""
    types = _field_types(cls)
    unknown = doc.keys() - types.keys()
    if unknown:
        raise SchemaError(
            f"{where}: unknown field(s) {sorted(unknown)}; "
            f"known: {sorted(types)}"
        )
    for name, value in doc.items():
        if type(value) not in types[name]:
            raise _type_error(value, types[name], f"{where}.{name}")


def _decode_dataclass(cls: type, doc: Any, where: str) -> Any:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where}: expected an object, got {type(doc).__name__}")
    _check_fields(cls, doc, where)
    try:
        return cls(**doc)
    except TypeError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def encode_config(config: SimulationConfig) -> dict:
    return {
        "gpu": _encode_dataclass(config.gpu),
        "linebacker": _encode_dataclass(config.linebacker),
        "max_cycles": config.max_cycles,
        "seed": config.seed,
    }


def decode_config(doc: Any) -> SimulationConfig:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"config: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - {"gpu", "linebacker", "max_cycles", "seed"}
    if unknown:
        raise SchemaError(f"config: unknown field(s) {sorted(unknown)}")
    for name in ("max_cycles", "seed"):
        if name in doc and type(doc[name]) is not int:
            raise _type_error(doc[name], (int,), f"config.{name}")
    base = SimulationConfig()
    return SimulationConfig(
        gpu=(
            _decode_dataclass(GPUConfig, doc["gpu"], "config.gpu")
            if "gpu" in doc
            else base.gpu
        ),
        linebacker=(
            _decode_dataclass(
                LinebackerConfig, doc["linebacker"], "config.linebacker"
            )
            if "linebacker" in doc
            else base.linebacker
        ),
        max_cycles=doc.get("max_cycles", base.max_cycles),
        seed=doc.get("seed", base.seed),
    )


def encode_jobspec(spec: JobSpec) -> dict:
    """The JSON job document for ``spec`` (schema-versioned)."""
    options, leftover = RunOptions.from_overrides(spec.overrides)
    overrides: dict[str, Any] = {}
    for name, value in leftover.items():
        cls = _DATACLASS_OVERRIDES.get(name)
        if cls is not None and isinstance(value, cls):
            overrides[name] = _encode_dataclass(value)
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
        "config": encode_config(spec.config),
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
    unknown = set(doc) - {"schema", "app", "arch", "scale", "config",
                          "options", "overrides", "workload"}
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
        except WorkloadSpecError as exc:
            raise SchemaError(f"workload: {exc}") from None

    scale = doc.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool):
        raise SchemaError("job: 'scale' must be a number")

    config = (
        decode_config(doc["config"])
        if "config" in doc
        else SimulationConfig()
    )

    opt_doc = doc.get("options", {})
    if not isinstance(opt_doc, Mapping):
        raise SchemaError("job: 'options' must be an object")
    unknown = set(opt_doc) - set(RUN_OPTION_FIELDS)
    if unknown:
        raise SchemaError(
            f"options: unknown field(s) {sorted(unknown)}; "
            f"known: {sorted(RUN_OPTION_FIELDS)}"
        )
    try:
        options = RunOptions(**opt_doc)
    except TypeError as exc:
        raise SchemaError(f"options: {exc}") from None

    over_doc = doc.get("overrides", {})
    if not isinstance(over_doc, Mapping):
        raise SchemaError("job: 'overrides' must be an object")
    overrides: dict[str, Any] = {}
    for name, value in over_doc.items():
        cls = _DATACLASS_OVERRIDES.get(name)
        if cls is not None:
            overrides[name] = _decode_dataclass(cls, value, f"overrides.{name}")
        elif isinstance(value, _SCALARS):
            overrides[name] = value
        else:
            raise SchemaError(
                f"overrides.{name}: unsupported value type "
                f"{type(value).__name__}"
            )

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
