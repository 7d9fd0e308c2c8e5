"""Declarative workload documents: the one workload type, versioned.

Everything the mechanisms are judged on is a function of the
*generator knobs* a workload sets — grid shape, registers per thread,
and per-load pattern/scope/working-set parameters. This module makes
that parameter space a first-class, file-loadable document. The 20
Table-2 apps are values of it (:mod:`repro.workloads.suite`), and so is
every scenario from a fuzzer, an experiment sweep or a checked-in
corpus:

* :class:`WorkloadSpec` — a frozen tree of plain data (tenants →
  kernel phases → :class:`~repro.workloads.generator.LoadSpec`) that
  content-hashes stably via :func:`repro.config.stable_hash`, so a
  file-defined workload caches and coalesces exactly like a built-in
  app.
* ``encode_workload`` / ``decode_workload`` — the JSON document: the
  ``"spec"`` stamp (``WORKLOAD_SPEC_VERSION``) around the dataclass
  tree as :func:`repro.config.to_doc` / ``from_doc`` write and read
  it. Unknown fields and enum values are refused, naming their path.
* :func:`build_workload` — the one build path: compiles a spec at a
  scale to a :class:`~repro.gpu.trace.KernelTrace` whose generator
  :class:`~repro.workloads.generator.Program` runs each tenant's phases
  end to end, in tenant-disjoint address regions.
* a process-local **registry** (:func:`register_workload`) that lets
  :class:`~repro.runner.spec.JobSpec` / ``Session.run`` / the HTTP
  schema accept workload names that are not Table-2 apps.

A document is the ``"spec"`` stamp plus one key per dataclass field,
named as the field (``pattern`` is reuse|stream|divergent, ``scope``
global|cta|warp); a field with a default may be left out::

    {"spec": 1, "name": "thrash-small", "description": "...",
     "num_ctas": 16, "warps_per_cta": 2, "regs_per_thread": 24,
     "tenants": [{"name": "t0", "phases": [{
         "iterations": 32, "alu_per_iteration": 4,
         "loads": [{"pc": 256, "pattern": "reuse", "scope": "cta",
                    "working_set_lines": 64}],
         "stores": [{"pc": 1296, "every_iterations": 8}]}]}]}

Semantic rules enforced by :func:`validate_workload` (they are what
make the classifier's paper-rule gates sound):

* every phase has at least one load; PCs are unique within a phase;
* a PC keeps one (pattern, scope) across all phases and tenants —
  the paper's observation that locality is a property of the *static*
  load (Section 2.3) is an invariant of the format, not a hope;
* a STREAM PC appears in at most one phase per tenant (re-streaming
  the same array is a different static load — give it its own PC);
* grid and register bounds stay within what the modelled SM supports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.config import DocumentError, from_doc, stable_hash, to_doc
from repro.gpu.trace import KernelTrace
from repro.workloads.generator import LoadSpec, Pattern, Program, Scope, StoreSpec

#: Bump on any incompatible change to the workload document shape.
WORKLOAD_SPEC_VERSION = 1

# Validation bounds: generous enough for every scenario the fuzzer or
# a figure sweep wants, tight enough that a corrupt document cannot
# request a nonsensical simulation (e.g. more registers per thread
# than the modelled register file holds: 2048 regs / 32 lanes).
MAX_TENANTS = 16
MAX_PHASES = 16
MAX_LOADS_PER_PHASE = 8
MAX_CTAS = 4096
MAX_WARPS_PER_CTA = 32
MAX_REGS_PER_THREAD = 64
MAX_ITERATIONS = 1 << 20


class WorkloadSpecError(ValueError):
    """A workload document or spec that cannot be (safely) used."""


@dataclass(frozen=True)
class KernelPhase:
    """One kernel launch: a loop nest over a fixed set of static loads."""

    iterations: int
    loads: tuple[LoadSpec, ...]
    stores: tuple[StoreSpec, ...] = ()
    alu_per_iteration: int = 4


@dataclass(frozen=True)
class TenantSpec:
    """One co-resident kernel: its phases run back to back per warp."""

    name: str
    phases: tuple[KernelPhase, ...]


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative workload: grid shape plus tenant phase programs.

    CTAs are dealt round-robin to tenants (CTA ``i`` runs tenant
    ``i % len(tenants)``), so a multi-tenant spec co-schedules its
    kernels on every SM the way concurrent kernel launches would.
    """

    name: str
    #: Keyword-only so it may default while the fields after it keep
    #: their order (``canonical_tokens`` hashes in ``fields()`` order).
    description: str = field(default="", kw_only=True)
    num_ctas: int
    warps_per_cta: int
    regs_per_thread: int
    tenants: tuple[TenantSpec, ...]
    shared_mem_per_cta: int = 0


def workload_hash(spec: WorkloadSpec) -> str:
    """Stable content hash of a workload (corpus/cache identity)."""
    return stable_hash(spec)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def _check(cond: bool, message: str) -> None:
    if not cond:
        raise WorkloadSpecError(message)


def validate_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Check the semantic rules; returns ``spec`` for chaining.

    A refusal names the workload and the JSON path of the value under
    it (``workload 'x': tenants[0].phases[1].loads[2].pc ...``)."""
    _check(isinstance(spec.name, str) and spec.name != "",
           "workload: 'name' must be a non-empty string")
    top = f"workload {spec.name!r}:"
    _check(1 <= spec.num_ctas <= MAX_CTAS,
           f"{top} num_ctas must be in [1, {MAX_CTAS}]")
    _check(1 <= spec.warps_per_cta <= MAX_WARPS_PER_CTA,
           f"{top} warps_per_cta must be in [1, {MAX_WARPS_PER_CTA}]")
    _check(1 <= spec.regs_per_thread <= MAX_REGS_PER_THREAD,
           f"{top} regs_per_thread must be in [1, {MAX_REGS_PER_THREAD}]")
    _check(spec.shared_mem_per_cta >= 0,
           f"{top} shared_mem_per_cta must be >= 0")
    _check(1 <= len(spec.tenants) <= MAX_TENANTS,
           f"{top} tenants needs 1..{MAX_TENANTS} entries")

    # The paper's Section 2.3 rule as a format invariant: one static
    # load (PC) has one behaviour class, wherever it appears.
    pc_class: dict[int, tuple[Pattern, Scope]] = {}
    for ti, tenant in enumerate(spec.tenants):
        twhere = f"{top} tenants[{ti}]"
        _check(isinstance(tenant.name, str) and tenant.name != "",
               f"{twhere}.name must be a non-empty string")
        _check(1 <= len(tenant.phases) <= MAX_PHASES,
               f"{twhere}.phases needs 1..{MAX_PHASES} entries")
        stream_pcs: set[int] = set()
        for pi, phase in enumerate(tenant.phases):
            where = f"{twhere}.phases[{pi}]"
            _check(1 <= phase.iterations <= MAX_ITERATIONS,
                   f"{where}.iterations must be in [1, {MAX_ITERATIONS}]")
            _check(phase.alu_per_iteration >= 0,
                   f"{where}.alu_per_iteration must be >= 0")
            _check(1 <= len(phase.loads) <= MAX_LOADS_PER_PHASE,
                   f"{where}.loads needs 1..{MAX_LOADS_PER_PHASE} loads")
            pcs = [ld.pc for ld in phase.loads]
            _check(len(set(pcs)) == len(pcs), f"{where}.loads: duplicate load PCs")
            for li, ld in enumerate(phase.loads):
                lwhere = f"{where}.loads[{li}]"
                _check(ld.pc >= 1, f"{lwhere}.pc: load PCs must be >= 1")
                _check(ld.working_set_lines >= 0,
                       f"{lwhere}.working_set_lines must be >= 0")
                _check(ld.pattern is Pattern.STREAM or ld.working_set_lines >= 1,
                       f"{lwhere}.working_set_lines: non-stream loads need a "
                       "working set of at least one line")
                _check(ld.stride >= 1 and ld.lines_per_access >= 1
                       and ld.weight >= 1 and ld.reuse_burst >= 1,
                       f"{lwhere}: stride/lines_per_access/"
                       "weight/reuse_burst must all be >= 1")
                seen = pc_class.get(ld.pc)
                _check(seen is None or seen == (ld.pattern, ld.scope),
                       f"{lwhere}: pc {ld.pc} changes pattern/scope across "
                       "phases or tenants; a static load has one behaviour "
                       "class (use a fresh PC)")
                pc_class[ld.pc] = (ld.pattern, ld.scope)
                if ld.pattern is Pattern.STREAM:
                    _check(ld.pc not in stream_pcs,
                           f"{lwhere}: STREAM pc {ld.pc} appears in more "
                           "than one phase; a stream touches each line "
                           "once (use a fresh PC per phase)")
                    stream_pcs.add(ld.pc)
            for si, st in enumerate(phase.stores):
                swhere = f"{where}.stores[{si}]"
                _check(st.pc >= 1 and st.every_iterations >= 1,
                       f"{swhere}: store pc and every_iterations must be >= 1")
                _check(st.pc not in pcs,
                       f"{swhere}: store pc {st.pc} collides with a load PC")
    return spec


# ---------------------------------------------------------------------------
# JSON documents (closed world, versioned)
# ---------------------------------------------------------------------------
def encode_workload(spec: WorkloadSpec) -> dict:
    """The JSON document for ``spec``: the version stamp plus every
    field at every level, so decoding it reproduces ``spec`` and its
    content hash."""
    validate_workload(spec)
    return {"spec": WORKLOAD_SPEC_VERSION, **to_doc(spec)}


def decode_workload(doc: Any) -> WorkloadSpec:
    """Validate and decode one JSON workload document.

    Closed world at every level (:func:`repro.config.from_doc`): an
    unknown field or enum value, a wrong type or a range rule of
    :func:`validate_workload` is a :class:`WorkloadSpecError` naming
    the JSON path."""
    if not isinstance(doc, Mapping):
        raise WorkloadSpecError(f"workload: expected an object, got {type(doc).__name__}")
    body = dict(doc)
    version = body.pop("spec", None)
    if version != WORKLOAD_SPEC_VERSION:
        raise WorkloadSpecError(
            f"workload spec version mismatch (got {version!r}, this tree "
            f"speaks {WORKLOAD_SPEC_VERSION}); upgrade the older peer"
        )
    try:
        spec = from_doc(WorkloadSpec, body, "workload")
    except DocumentError as exc:
        raise WorkloadSpecError(str(exc)) from None
    return validate_workload(spec)


def save_workload_file(spec: WorkloadSpec, path: Union[str, Path]) -> Path:
    """Write the JSON document for ``spec`` to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(encode_workload(spec), indent=2) + "\n")
    return path


def load_workload_file(
    path: Union[str, Path], *, register: bool = False
) -> WorkloadSpec:
    """Load (and optionally register) a workload document from disk."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise WorkloadSpecError(f"{path}: not valid JSON: {exc}") from None
    spec = decode_workload(doc)
    if register:
        register_workload(spec)
    return spec


# ---------------------------------------------------------------------------
# Registry: file-defined workloads as first-class apps
# ---------------------------------------------------------------------------
#: Process-local registry of non-Table-2 workloads, by name.
WORKLOADS: dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec, *, replace: bool = False) -> WorkloadSpec:
    """Make ``spec`` runnable by name through ``JobSpec``/``Session``.

    Built-in app names cannot be shadowed; re-registering a different
    spec under an existing name needs ``replace=True`` (the same spec
    is always idempotent).
    """
    # Deferred import: the suite's literals are values of this module.
    from repro.workloads.suite import APP_SPECS

    validate_workload(spec)
    if spec.name in APP_SPECS:
        raise WorkloadSpecError(
            f"{spec.name!r} is a built-in Table-2 app and cannot be shadowed"
        )
    existing = WORKLOADS.get(spec.name)
    if existing is not None and existing != spec and not replace:
        raise WorkloadSpecError(
            f"a different workload named {spec.name!r} is already "
            "registered (pass replace=True to override)"
        )
    WORKLOADS[spec.name] = spec
    return spec


def registered_workload(name: str) -> Optional[WorkloadSpec]:
    """The registered workload called ``name``, or ``None``."""
    return WORKLOADS.get(name)


def unregister_workload(name: str) -> None:
    """Drop a registered workload (test teardown hook)."""
    WORKLOADS.pop(name, None)


# ---------------------------------------------------------------------------
# Compilation to a KernelTrace
# ---------------------------------------------------------------------------
def validate_scale(scale: float) -> float:
    """Check a build scale is a finite number > 0; returns it."""
    if not 0 < scale < math.inf:
        raise WorkloadSpecError(f"scale must be a finite number > 0, got {scale!r}")
    return scale


def build_workload(spec: WorkloadSpec, scale: float = 1.0) -> KernelTrace:
    """Materialize the :class:`KernelTrace` for a workload spec.

    ``scale`` shrinks every phase's iteration count
    (:func:`~repro.workloads.generator.scaled_iterations`); the grid
    keeps its shape.
    """
    validate_scale(scale)
    validate_workload(spec)
    program = Program(spec, scale)
    return KernelTrace(
        name=spec.name,
        num_ctas=spec.num_ctas,
        warps_per_cta=spec.warps_per_cta,
        regs_per_thread=spec.regs_per_thread,
        warp_trace=program.instructions,
        shared_mem_per_cta=spec.shared_mem_per_cta,
        program=program,
    )
