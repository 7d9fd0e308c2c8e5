"""Protocol-drift analysis: encode/decode twins and version discipline.

PR 6 gave the reproduction three independently versioned compatibility
surfaces: the HTTP job document (``JOB_SCHEMA_VERSION``), the wire
protocol (``PROTOCOL_VERSION``) and the result-cache payload shape
(``CACHE_SCHEMA_VERSION``). Each one is a *closed world*: an encoder
emits an exact field set, a decoder validates against an exact accepted
set, and a version constant is the contract peers negotiate with. The
failure mode is silent skew — someone adds ``"retries"`` to the encoder
dict and forgets the decoder's accepted set, or reshapes a document
without bumping the version, so old peers mis-parse instead of refusing.

This pass statically re-derives every field set and enforces two rules:

* ``schema-twin-drift`` — a field appears on one side of a hand-written
  encode/decode pair but not its twin. Field sets are extracted from
  the idioms the code actually uses: all-string dict literals and
  ``doc["field"] = ...`` stores on the encode side; closed-world
  ``set(doc) - {"a", "b"}`` accepted sets, ``.get("field")`` reads and
  ``doc["field"]`` loads on the decode side. A dataclass surface —
  the config and the workload tree (which :func:`repro.config.to_doc`
  / ``from_doc`` carry), :class:`RunOptions`, :class:`JobSpec` — *is*
  its classes' ``field: type`` annotations plus any envelope key (the
  workload's ``"spec"``), so it has no twins to drift. The
  :class:`JobSpec` surface additionally checks *transport*: every spec
  field must be carried by the HTTP job document (``params`` rides in
  ``options``/``overrides``).
* ``schema-version-unbumped`` — a surface's field set no longer matches
  the fingerprint recorded in ``lint_baseline.json`` while its version
  constant is unchanged. Bumping the constant (and re-recording with
  ``--write-baseline``) is the only way to acknowledge a schema change;
  the CI guard enforces the pairing on the commit level.

Anchors are located *by name inside the project* (``encode_hello``,
``decode_jobspec``, class ``JobSpec`` …), so the same pass runs
unchanged against the real tree and against fixture twins.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.lint.finding import Finding, Severity
from repro.lint.registry import Rule, lint_pass, make_finding
from repro.lint.source import Project, SourceFile

PASS_NAME = "protocol-drift"

RULES = (
    Rule(
        "schema-twin-drift", Severity.ERROR,
        "field present on one side of an encode/decode pair but missing "
        "from its twin",
    ),
    Rule(
        "schema-version-unbumped", Severity.ERROR,
        "schema-affecting field set changed without bumping the matching "
        "version constant",
    ),
)


@dataclass(frozen=True)
class _Surface:
    """One versioned compatibility surface and its anchor names."""

    name: str
    encoder: Optional[str]          # function emitting the document
    decoder: Optional[str]          # function validating/reading it
    classes: tuple[str, ...]        # dataclasses whose annotated fields ARE the schema
    constant: str                   # version constant acknowledging changes
    envelope: tuple[str, ...] = ()  # document keys around the class fields


SURFACES = (
    _Surface("wire-hello", "encode_hello", "decode_hello", (),
             "PROTOCOL_VERSION"),
    _Surface("http-job", "encode_jobspec", "decode_jobspec", (),
             "JOB_SCHEMA_VERSION"),
    _Surface("config", None, None, ("SimulationConfig",), "JOB_SCHEMA_VERSION"),
    _Surface("run-options", None, None, ("RunOptions",), "JOB_SCHEMA_VERSION"),
    _Surface("jobspec", None, None, ("JobSpec",), "CACHE_SCHEMA_VERSION"),
    _Surface("workload-spec", None, None,
             ("WorkloadSpec", "TenantSpec", "KernelPhase", "LoadSpec", "StoreSpec"),
             "WORKLOAD_SPEC_VERSION", envelope=("spec",)),
)


# -- field-set extraction ---------------------------------------------------
def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _record(fields: dict[str, int], name: str, line: int) -> None:
    fields.setdefault(name, line)


def encoded_fields(fn: ast.FunctionDef) -> dict[str, int]:
    """Fields the encoder emits: all-string dict-literal keys plus
    ``doc["field"] = ...`` constant subscript stores."""
    out: dict[str, int] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict) and node.keys:
            names = [_const_str(k) for k in node.keys if k is not None]
            if names and all(n is not None for n in names):
                for key in node.keys:
                    name = _const_str(key)
                    if name is not None:
                        _record(out, name, key.lineno)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and (name := _const_str(node.slice)) is not None
        ):
            _record(out, name, node.lineno)
    return out


def decoded_fields(fn: ast.FunctionDef) -> dict[str, int]:
    """Fields the decoder knows: the closed-world accepted set
    (``set(doc) - {"a", "b"}``), ``.get("field")`` reads and
    ``doc["field"]`` constant loads."""
    out: dict[str, int] = {}
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Set)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "set"
        ):
            for elt in node.right.elts:
                name = _const_str(elt)
                if name is not None:
                    _record(out, name, elt.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and (name := _const_str(node.args[0])) is not None
        ):
            _record(out, name, node.lineno)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and (name := _const_str(node.slice)) is not None
        ):
            _record(out, name, node.lineno)
    return out


def dataclass_fields(node: ast.ClassDef) -> dict[str, int]:
    """Annotated instance fields of a (frozen) dataclass schema."""
    out: dict[str, int] = {}
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        _record(out, name, stmt.lineno)
    return out


def _find_constant(
    project: Project, name: str
) -> Optional[tuple[SourceFile, int, object]]:
    """Module-level ``NAME = <literal>`` assignment, by constant name."""
    for src in project.files:
        for stmt in src.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == name
                and isinstance(stmt.value, ast.Constant)
            ):
                return src, stmt.lineno, stmt.value.value
    return None


@dataclass
class _Derived:
    """One surface as found in the project."""

    surface: _Surface
    fields: dict[str, int]              # union field set, name -> line
    src: SourceFile                     # file anchoring the surface
    encode: Optional[dict[str, int]] = None
    decode: Optional[dict[str, int]] = None
    encode_src: Optional[SourceFile] = None
    decode_src: Optional[SourceFile] = None


def _derive(project: Project) -> dict[str, _Derived]:
    """Re-derive every surface whose anchors exist in the project."""
    out: dict[str, _Derived] = {}
    for surface in SURFACES:
        if surface.classes:
            entries = [project.find_class(name) for name in surface.classes]
            if any(entry is None for entry in entries):
                continue  # a partial tree: the surface is not all in scope
            fields: dict[str, int] = {}
            for _, node in entries:
                for name, line in dataclass_fields(node).items():
                    _record(fields, name, line)
            src, first = entries[0]
            for name in surface.envelope:
                _record(fields, name, first.lineno)
            out[surface.name] = _Derived(surface=surface, fields=fields, src=src)
            continue
        enc = project.find_function(surface.encoder) if surface.encoder else None
        dec = project.find_function(surface.decoder) if surface.decoder else None
        if enc is None and dec is None:
            continue
        encode = encoded_fields(enc[1]) if enc else None
        decode = decoded_fields(dec[1]) if dec else None
        fields: dict[str, int] = {}
        for side in (encode, decode):
            for name, line in (side or {}).items():
                _record(fields, name, line)
        out[surface.name] = _Derived(
            surface=surface,
            fields=fields,
            src=(enc or dec)[0],
            encode=encode,
            decode=decode,
            encode_src=enc[0] if enc else None,
            decode_src=dec[0] if dec else None,
        )
    return out


def derive_schemas(project: Project) -> dict[str, dict]:
    """The fingerprint document ``--write-baseline`` records: per
    surface, the sorted field set and the current version-constant
    value (the pair a future run compares against)."""
    schemas: dict[str, dict] = {}
    for name, derived in sorted(_derive(project).items()):
        found = _find_constant(project, derived.surface.constant)
        schemas[name] = {
            "fields": sorted(derived.fields),
            "constant": derived.surface.constant,
            "version": found[2] if found else None,
        }
    return schemas


# -- the pass ---------------------------------------------------------------
def _twin_findings(derived: _Derived) -> Iterable[Finding]:
    if derived.encode is None or derived.decode is None:
        return
    surface = derived.surface
    for name in sorted(set(derived.encode) - set(derived.decode)):
        yield make_finding(
            "schema-twin-drift",
            f"{surface.name}: field {name!r} is emitted by "
            f"{surface.encoder}() but {surface.decoder}() never accepts "
            "or reads it — a document round-trip silently drops it",
            derived.encode_src, derived.encode[name], PASS_NAME,
        )
    for name in sorted(set(derived.decode) - set(derived.encode)):
        yield make_finding(
            "schema-twin-drift",
            f"{surface.name}: field {name!r} is accepted by "
            f"{surface.decoder}() but {surface.encoder}() never emits it — "
            "dead schema surface or a forgotten encoder field",
            derived.decode_src, derived.decode[name], PASS_NAME,
        )


def _transport_findings(
    derived: dict[str, _Derived]
) -> Iterable[Finding]:
    """Every :class:`JobSpec` field must ride in the HTTP job document."""
    spec = derived.get("jobspec")
    http = derived.get("http-job")
    if spec is None or http is None:
        return
    carried = set(http.fields)
    for name, line in sorted(spec.fields.items()):
        if name in carried:
            continue
        if name == "params" and ("options" in carried or "overrides" in carried):
            continue  # params are split into options/overrides on the wire
        yield make_finding(
            "schema-twin-drift",
            f"jobspec: field {name!r} of JobSpec is never transported by "
            "the HTTP job schema — jobs submitted over HTTP silently lose "
            "it (add it to encode_jobspec/decode_jobspec or drop it)",
            spec.src, line, PASS_NAME,
        )


def _version_findings(
    project: Project, derived: dict[str, _Derived]
) -> Iterable[Finding]:
    baseline = getattr(project, "schema_baseline", None) or {}
    for name, entry in sorted(derived.items()):
        recorded = baseline.get(name)
        if not recorded:
            continue  # no fingerprint yet: --write-baseline records one
        old_fields = set(recorded.get("fields", ()))
        new_fields = set(entry.fields)
        if new_fields == old_fields:
            continue
        found = _find_constant(project, entry.surface.constant)
        if found is None:
            continue  # constant not in project scope (partial lint run)
        src, line, value = found
        if value != recorded.get("version"):
            continue  # version bumped: the change is acknowledged
        added = sorted(new_fields - old_fields)
        removed = sorted(old_fields - new_fields)
        delta = "; ".join(
            part for part in (
                f"added {added}" if added else "",
                f"removed {removed}" if removed else "",
            ) if part
        )
        yield make_finding(
            "schema-version-unbumped",
            f"{name} schema changed ({delta}) but {entry.surface.constant} "
            f"is still {value!r}; bump the constant and re-record with "
            "--write-baseline so peers refuse instead of mis-parse",
            src, line, PASS_NAME,
        )


@lint_pass(
    PASS_NAME,
    RULES,
    "encode/decode twin coherence and schema-version discipline",
)
def run(project: Project) -> Iterable[Finding]:
    derived = _derive(project)
    for entry in derived.values():
        yield from _twin_findings(entry)
    yield from _transport_findings(derived)
    yield from _version_findings(project, derived)
