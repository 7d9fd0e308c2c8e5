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
* ``encode_workload`` / ``decode_workload`` — a closed-world JSON
  twin pair under ``WORKLOAD_SPEC_VERSION``, written in the same
  idiom the protocol-drift lint pass anchors on (exhaustive dict
  literals on the encode side, ``set(doc) - {...}`` accepted sets and
  ``.get`` reads on the decode side). Unknown fields and unknown
  enum values are rejected with actionable errors, never ignored.
* :func:`build_workload` — the one build path: compiles a spec at a
  scale to a :class:`~repro.gpu.trace.KernelTrace` whose generator
  :class:`~repro.workloads.generator.Program` runs each tenant's phases
  end to end, in tenant-disjoint address regions.
* a process-local **registry** (:func:`register_workload`) that lets
  :class:`~repro.runner.spec.JobSpec` / ``Session.run`` / the HTTP
  schema accept workload names that are not Table-2 apps.

Document grammar (all fields shown; defaults in brackets)::

    {
      "spec": 1,                      # WORKLOAD_SPEC_VERSION, mandatory
      "name": "thrash-small",
      "description": "...",           [""]
      "num_ctas": 16,
      "warps_per_cta": 2,
      "regs_per_thread": 24,
      "shared_mem_per_cta": 0,        [0]
      "tenants": [                    # co-resident kernels, CTA-interleaved
        {"name": "t0",
         "phases": [                  # kernel phases run back to back
           {"iterations": 32,
            "alu_per_iteration": 4,   [4]
            "loads": [
              {"pc": 256, "pattern": "reuse",   # reuse|stream|divergent
               "working_set_lines": 64,         [64]
               "scope": "cta",                  ["global"] global|cta|warp
               "stride": 1, "lines_per_access": 1,
               "weight": 1, "reuse_burst": 2}],
            "stores": [{"pc": 1296, "every_iterations": 8}]}]}]
    }

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.config import stable_hash
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
    description: str
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
    """Check the semantic rules; returns ``spec`` for chaining."""
    _check(isinstance(spec.name, str) and spec.name != "",
           "workload: 'name' must be a non-empty string")
    _check(1 <= spec.num_ctas <= MAX_CTAS,
           f"{spec.name}: num_ctas must be in [1, {MAX_CTAS}]")
    _check(1 <= spec.warps_per_cta <= MAX_WARPS_PER_CTA,
           f"{spec.name}: warps_per_cta must be in [1, {MAX_WARPS_PER_CTA}]")
    _check(1 <= spec.regs_per_thread <= MAX_REGS_PER_THREAD,
           f"{spec.name}: regs_per_thread must be in [1, {MAX_REGS_PER_THREAD}]")
    _check(spec.shared_mem_per_cta >= 0,
           f"{spec.name}: shared_mem_per_cta must be >= 0")
    _check(1 <= len(spec.tenants) <= MAX_TENANTS,
           f"{spec.name}: needs 1..{MAX_TENANTS} tenants")

    # The paper's Section 2.3 rule as a format invariant: one static
    # load (PC) has one behaviour class, wherever it appears.
    pc_class: dict[int, tuple[Pattern, Scope]] = {}
    for tenant in spec.tenants:
        _check(isinstance(tenant.name, str) and tenant.name != "",
               f"{spec.name}: tenant names must be non-empty strings")
        _check(1 <= len(tenant.phases) <= MAX_PHASES,
               f"{spec.name}/{tenant.name}: needs 1..{MAX_PHASES} phases")
        stream_pcs: set[int] = set()
        for pi, phase in enumerate(tenant.phases):
            where = f"{spec.name}/{tenant.name}#{pi}"
            _check(1 <= phase.iterations <= MAX_ITERATIONS,
                   f"{where}: iterations must be in [1, {MAX_ITERATIONS}]")
            _check(phase.alu_per_iteration >= 0,
                   f"{where}: alu_per_iteration must be >= 0")
            _check(1 <= len(phase.loads) <= MAX_LOADS_PER_PHASE,
                   f"{where}: needs 1..{MAX_LOADS_PER_PHASE} loads")
            pcs = [ld.pc for ld in phase.loads]
            _check(len(set(pcs)) == len(pcs), f"{where}: duplicate load PCs")
            for ld in phase.loads:
                _check(ld.pc >= 1, f"{where}: load PCs must be >= 1")
                _check(ld.working_set_lines >= 0,
                       f"{where}: working_set_lines must be >= 0")
                _check(ld.pattern is Pattern.STREAM or ld.working_set_lines >= 1,
                       f"{where}: pc {ld.pc}: non-stream loads need a "
                       "working set of at least one line")
                _check(ld.stride >= 1 and ld.lines_per_access >= 1
                       and ld.weight >= 1 and ld.reuse_burst >= 1,
                       f"{where}: pc {ld.pc}: stride/lines_per_access/"
                       "weight/reuse_burst must all be >= 1")
                seen = pc_class.get(ld.pc)
                _check(seen is None or seen == (ld.pattern, ld.scope),
                       f"{where}: pc {ld.pc} changes pattern/scope across "
                       "phases or tenants; a static load has one behaviour "
                       "class (use a fresh PC)")
                pc_class[ld.pc] = (ld.pattern, ld.scope)
                if ld.pattern is Pattern.STREAM:
                    _check(ld.pc not in stream_pcs,
                           f"{where}: STREAM pc {ld.pc} appears in more "
                           "than one phase; a stream touches each line "
                           "once (use a fresh PC per phase)")
                    stream_pcs.add(ld.pc)
            for st in phase.stores:
                _check(st.pc >= 1 and st.every_iterations >= 1,
                       f"{where}: store pc and every_iterations must be >= 1")
                _check(st.pc not in pcs,
                       f"{where}: store pc {st.pc} collides with a load PC")
    return spec


# ---------------------------------------------------------------------------
# JSON twins (closed world, versioned — see the protocol-drift pass)
# ---------------------------------------------------------------------------
def encode_workload(spec: WorkloadSpec) -> dict:
    """The JSON workload document for ``spec`` (version-stamped).

    Emission is exhaustive — every field is written even at its
    default — so ``decode_workload(encode_workload(s))`` reproduces
    ``s`` including its content hash.
    """
    validate_workload(spec)
    tenants = []
    for tenant in spec.tenants:
        phases = []
        for phase in tenant.phases:
            loads = [
                {
                    "pc": ld.pc,
                    "pattern": ld.pattern.value,
                    "working_set_lines": ld.working_set_lines,
                    "scope": ld.scope.value,
                    "stride": ld.stride,
                    "lines_per_access": ld.lines_per_access,
                    "weight": ld.weight,
                    "reuse_burst": ld.reuse_burst,
                }
                for ld in phase.loads
            ]
            stores = [
                {"pc": st.pc, "every_iterations": st.every_iterations}
                for st in phase.stores
            ]
            phases.append(
                {
                    "iterations": phase.iterations,
                    "alu_per_iteration": phase.alu_per_iteration,
                    "loads": loads,
                    "stores": stores,
                }
            )
        tenants.append({"name": tenant.name, "phases": phases})
    return {
        "spec": WORKLOAD_SPEC_VERSION,
        "name": spec.name,
        "description": spec.description,
        "num_ctas": spec.num_ctas,
        "warps_per_cta": spec.warps_per_cta,
        "regs_per_thread": spec.regs_per_thread,
        "shared_mem_per_cta": spec.shared_mem_per_cta,
        "tenants": tenants,
    }


def decode_workload(doc: Any) -> WorkloadSpec:
    """Validate and decode one JSON workload document.

    Closed world at every nesting level: unknown fields, unknown
    pattern/scope values, wrong types and out-of-range numbers are
    all :class:`WorkloadSpecError`\\ s naming the offending path.
    """

    def _int(value: Any, where: str, minimum: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise WorkloadSpecError(
                f"{where}: expected an integer >= {minimum}, got {value!r}"
            )
        return value

    def _seq(value: Any, where: str) -> list:
        if not isinstance(value, (list, tuple)):
            raise WorkloadSpecError(f"{where}: expected a list, got "
                                    f"{type(value).__name__}")
        return list(value)

    def _obj(value: Any, where: str) -> Mapping:
        if not isinstance(value, Mapping):
            raise WorkloadSpecError(f"{where}: expected an object, got "
                                    f"{type(value).__name__}")
        return value

    top = _obj(doc, "workload")
    version = top.get("spec")
    if version != WORKLOAD_SPEC_VERSION:
        raise WorkloadSpecError(
            f"workload spec version mismatch (got {version!r}, this tree "
            f"speaks {WORKLOAD_SPEC_VERSION}); upgrade the older peer"
        )
    unknown = set(top) - {"spec", "name", "description", "num_ctas",
                          "warps_per_cta", "regs_per_thread",
                          "shared_mem_per_cta", "tenants"}
    if unknown:
        raise WorkloadSpecError(f"workload: unknown field(s) {sorted(unknown)}")
    name = top.get("name")
    if not isinstance(name, str) or not name:
        raise WorkloadSpecError("workload: 'name' must be a non-empty string")
    description = top.get("description", "")
    if not isinstance(description, str):
        raise WorkloadSpecError(f"{name}: 'description' must be a string")

    tenants = []
    for ti, tdoc in enumerate(_seq(top.get("tenants"), f"{name}.tenants")):
        twhere = f"{name}.tenants[{ti}]"
        tdoc = _obj(tdoc, twhere)
        unknown = set(tdoc) - {"name", "phases"}
        if unknown:
            raise WorkloadSpecError(f"{twhere}: unknown field(s) {sorted(unknown)}")
        tname = tdoc.get("name")
        if not isinstance(tname, str) or not tname:
            raise WorkloadSpecError(f"{twhere}: 'name' must be a non-empty string")
        phases = []
        for pi, pdoc in enumerate(_seq(tdoc.get("phases"), f"{twhere}.phases")):
            pwhere = f"{twhere}.phases[{pi}]"
            pdoc = _obj(pdoc, pwhere)
            unknown = set(pdoc) - {"iterations", "alu_per_iteration",
                                   "loads", "stores"}
            if unknown:
                raise WorkloadSpecError(
                    f"{pwhere}: unknown field(s) {sorted(unknown)}"
                )
            loads = []
            for li, ldoc in enumerate(_seq(pdoc.get("loads"), f"{pwhere}.loads")):
                lwhere = f"{pwhere}.loads[{li}]"
                ldoc = _obj(ldoc, lwhere)
                unknown = set(ldoc) - {"pc", "pattern", "working_set_lines",
                                       "scope", "stride", "lines_per_access",
                                       "weight", "reuse_burst"}
                if unknown:
                    raise WorkloadSpecError(
                        f"{lwhere}: unknown field(s) {sorted(unknown)}"
                    )
                try:
                    pattern = Pattern(ldoc.get("pattern"))
                except ValueError:
                    raise WorkloadSpecError(
                        f"{lwhere}: unknown pattern {ldoc.get('pattern')!r}; "
                        f"known: {', '.join(p.value for p in Pattern)}"
                    ) from None
                try:
                    scope = Scope(ldoc.get("scope", Scope.GLOBAL.value))
                except ValueError:
                    raise WorkloadSpecError(
                        f"{lwhere}: unknown scope {ldoc.get('scope')!r}; "
                        f"known: {', '.join(s.value for s in Scope)}"
                    ) from None
                loads.append(LoadSpec(
                    pc=_int(ldoc.get("pc"), f"{lwhere}.pc", 1),
                    pattern=pattern,
                    working_set_lines=_int(
                        ldoc.get("working_set_lines", 64),
                        f"{lwhere}.working_set_lines", 0),
                    scope=scope,
                    stride=_int(ldoc.get("stride", 1), f"{lwhere}.stride", 1),
                    lines_per_access=_int(
                        ldoc.get("lines_per_access", 1),
                        f"{lwhere}.lines_per_access", 1),
                    weight=_int(ldoc.get("weight", 1), f"{lwhere}.weight", 1),
                    reuse_burst=_int(
                        ldoc.get("reuse_burst", 2),
                        f"{lwhere}.reuse_burst", 1),
                ))
            stores = []
            for si, sdoc in enumerate(
                _seq(pdoc.get("stores", []), f"{pwhere}.stores")
            ):
                swhere = f"{pwhere}.stores[{si}]"
                sdoc = _obj(sdoc, swhere)
                unknown = set(sdoc) - {"pc", "every_iterations"}
                if unknown:
                    raise WorkloadSpecError(
                        f"{swhere}: unknown field(s) {sorted(unknown)}"
                    )
                stores.append(StoreSpec(
                    pc=_int(sdoc.get("pc"), f"{swhere}.pc", 1),
                    every_iterations=_int(
                        sdoc.get("every_iterations", 8),
                        f"{swhere}.every_iterations", 1),
                ))
            phases.append(KernelPhase(
                iterations=_int(pdoc.get("iterations"),
                                f"{pwhere}.iterations", 1),
                loads=tuple(loads),
                stores=tuple(stores),
                alu_per_iteration=_int(
                    pdoc.get("alu_per_iteration", 4),
                    f"{pwhere}.alu_per_iteration", 0),
            ))
        tenants.append(TenantSpec(name=tname, phases=tuple(phases)))

    spec = WorkloadSpec(
        name=name,
        description=description,
        num_ctas=_int(top.get("num_ctas"), f"{name}.num_ctas", 1),
        warps_per_cta=_int(top.get("warps_per_cta"), f"{name}.warps_per_cta", 1),
        regs_per_thread=_int(top.get("regs_per_thread"),
                             f"{name}.regs_per_thread", 1),
        tenants=tuple(tenants),
        shared_mem_per_cta=_int(top.get("shared_mem_per_cta", 0),
                                f"{name}.shared_mem_per_cta", 0),
    )
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
