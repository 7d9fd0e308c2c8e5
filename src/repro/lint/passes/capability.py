"""Capability-flag consistency for the SM extension interface.

The hot load path in :class:`repro.gpu.sm.SM` never calls an extension
hook directly: it reads a plain bool resolved once at attach time
(``wants_ticks`` gates ``on_tick``, ``has_victim_cache`` gates
``lookup_victim``, ...). That indirection is fast and fragile — three
distinct drift modes, all invisible until a policy silently stops
firing:

* ``capability-flag-unresolved`` — a flag declared on ``SMExtension``
  that ``attach`` never auto-resolves (or an ``attach`` resolution for
  an undeclared flag). New flags must follow the
  ``if self.F is None: self.F = cls.H is not base.H`` pattern.
* ``hook-missing-flag`` — a hook method added to ``SMExtension``
  without a capability flag. The SM would never call it (or worse,
  call it unconditionally on the hot path). Lifecycle hooks
  (``on_cta_*``, ``try_reactivate_cta``, ``finalize``, ``attach``)
  are exempt: they fire off the hot path.
* ``capability-gate-missing`` — the SM side: every flag must be
  mirrored into a ``self._ext_*`` gate in ``SM.__init__`` (resolved
  against the same hook name) and that gate must actually be read
  somewhere in the SM.
* ``capability-flag-pinned`` — a subclass overrides a hook but pins
  the matching flag to a literal ``False`` unconditionally. The
  override is then dead code. Pinning is legal only when guarded
  (inside an ``if``) or computed from configuration, e.g. Linebacker's
  ``self.has_victim_cache = cfg.enable_victim_cache``.

The pass statically re-derives the flag <-> hook mapping from the
``attach`` body, so it tracks the real contract instead of a
hand-maintained table.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.finding import Finding, Severity
from repro.lint.registry import Rule, lint_pass, make_finding
from repro.lint.source import Project, SourceFile

PASS_NAME = "capability"

BASE_CLASS = "SMExtension"
SM_CLASS = "SM"

#: Hooks that fire off the hot path and are deliberately ungated.
UNGATED_HOOKS = {
    "attach",
    "on_cta_launched",
    "on_cta_finished",
    "try_reactivate_cta",
    "finalize",
}

def _methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef)
    }


def _declared_flags(node: ast.ClassDef) -> dict[str, int]:
    """Class-level ``flag = None``-style declarations -> line."""
    flags: dict[str, int] = {}
    for stmt in node.body:
        target = None
        value = None
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            target, value = stmt.target.id, stmt.value
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            target, value = stmt.targets[0].id, stmt.value
        if (
            target is not None
            and not target.startswith("_")
            and isinstance(value, ast.Constant)
            and value.value is None
        ):
            flags[target] = stmt.lineno
    return flags


def _attach_resolution(attach: ast.FunctionDef) -> dict[str, tuple[str, int]]:
    """flag -> (hook, line) parsed from the auto-resolution pattern::

        if self.F is None:
            self.F = cls.H is not base.H
    """
    mapping: dict[str, tuple[str, int]] = {}
    for stmt in ast.walk(attach):
        if not isinstance(stmt, ast.If):
            continue
        test = stmt.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.left, ast.Attribute)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            continue
        flag = test.left.attr
        for inner in stmt.body:
            if not (
                isinstance(inner, ast.Assign)
                and len(inner.targets) == 1
                and isinstance(inner.targets[0], ast.Attribute)
                and inner.targets[0].attr == flag
            ):
                continue
            value = inner.value
            if (
                isinstance(value, ast.Compare)
                and len(value.ops) == 1
                and isinstance(value.ops[0], (ast.IsNot, ast.NotEq))
                and isinstance(value.left, ast.Attribute)
            ):
                mapping[flag] = (value.left.attr, inner.lineno)
    return mapping


def _sm_gates(sm_node: ast.ClassDef) -> dict[str, tuple[str, int, str]]:
    """flag -> (hook, line, gate attr) from
    ``self._ext_X = flag(ext.F, "H")`` in ``SM.__init__``."""
    init = _methods(sm_node).get("__init__")
    if init is None:
        return {}
    gates: dict[str, tuple[str, int, str]] = {}
    for stmt in ast.walk(init):
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Attribute)
            and stmt.targets[0].attr.startswith("_ext_")
        ):
            continue
        call = stmt.value
        if not (isinstance(call, ast.Call) and len(call.args) == 2):
            continue
        flag_arg, hook_arg = call.args
        if isinstance(flag_arg, ast.Attribute) and isinstance(
            hook_arg, ast.Constant
        ) and isinstance(hook_arg.value, str):
            gates[flag_arg.attr] = (hook_arg.value, stmt.lineno, stmt.targets[0].attr)
    return gates


def _gate_reads(sm_node: ast.ClassDef) -> set[str]:
    """Every ``self._ext_*`` attribute *read* inside the SM class."""
    reads: set[str] = set()
    for node in ast.walk(sm_node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_ext_")
        ):
            reads.add(node.attr)
    return reads


def _project_subclasses(
    project: Project, base: str
) -> list[tuple[SourceFile, ast.ClassDef]]:
    """Classes transitively derived (by name, within the project)."""
    derived: dict[str, tuple[SourceFile, ast.ClassDef]] = {}
    changed = True
    known = {base}
    while changed:
        changed = False
        for src, node in project.iter_all_classes():
            if node.name in known:
                continue
            for b in node.bases:
                name = b.id if isinstance(b, ast.Name) else (
                    b.attr if isinstance(b, ast.Attribute) else None
                )
                if name in known:
                    known.add(node.name)
                    derived[node.name] = (src, node)
                    changed = True
                    break
    return list(derived.values())


def _unconditional_false_pins(node: ast.ClassDef) -> dict[str, int]:
    """flag -> line for pins that are literal ``False`` and unguarded.

    Class-level ``F = False`` always counts. Inside ``__init__`` /
    ``attach``, only statements at the method's top level count — an
    assignment nested under ``if``/``try`` is a guarded pin.
    """
    pins: dict[str, int] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            if isinstance(stmt.value, ast.Constant) and stmt.value.value is False:
                pins[stmt.targets[0].id] = stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if isinstance(stmt.value, ast.Constant) and stmt.value.value is False:
                pins[stmt.target.id] = stmt.lineno
        elif isinstance(stmt, ast.FunctionDef) and stmt.name in {"__init__", "attach"}:
            for inner in stmt.body:  # top level only: nested = guarded
                if (
                    isinstance(inner, ast.Assign)
                    and len(inner.targets) == 1
                    and isinstance(inner.targets[0], ast.Attribute)
                    and isinstance(inner.targets[0].value, ast.Name)
                    and inner.targets[0].value.id == "self"
                    and isinstance(inner.value, ast.Constant)
                    and inner.value.value is False
                ):
                    pins[inner.targets[0].attr] = inner.lineno
    return pins


def _ancestry_overrides(
    name: str,
    project: Project,
    hooks: set[str],
) -> set[str]:
    """Hook methods defined by ``name`` or any project ancestor below
    :data:`BASE_CLASS`."""
    overridden: set[str] = set()
    cursor: Optional[str] = name
    seen: set[str] = set()
    while cursor and cursor != BASE_CLASS and cursor not in seen:
        seen.add(cursor)
        entry = project.find_class(cursor)
        if entry is None:
            break
        _, node = entry
        overridden |= set(_methods(node)) & hooks
        nxt = None
        for b in node.bases:
            if isinstance(b, ast.Name):
                nxt = b.id
                break
        cursor = nxt
    return overridden


RULES = (
    Rule("capability-flag-unresolved", Severity.ERROR,
         "flag declared without attach auto-resolution (or vice versa)"),
    Rule("hook-missing-flag", Severity.ERROR,
         "SMExtension hook without a capability flag"),
    Rule("capability-gate-missing", Severity.ERROR,
         "capability flag not mirrored (or unused) as an SM _ext_ gate"),
    Rule("capability-flag-pinned", Severity.ERROR,
         "overridden hook with its flag pinned False unguarded"),
)


@lint_pass(
    PASS_NAME,
    RULES,
    "re-derives SMExtension.attach flag resolution statically",
)
def run(project: Project) -> Iterable[Finding]:
    entry = project.find_class(BASE_CLASS)
    if entry is None:
        return
    src, base_node = entry
    methods = _methods(base_node)
    flags = _declared_flags(base_node)
    attach = methods.get("attach")
    mapping = _attach_resolution(attach) if attach is not None else {}

    # 1. Declared flags <-> attach resolution, both directions.
    for flag, line in sorted(flags.items()):
        if flag not in mapping:
            yield make_finding(
                "capability-flag-unresolved",
                f"flag {flag!r} is declared but never auto-resolved in "
                f"{BASE_CLASS}.attach",
                src, line, PASS_NAME,
            )
    for flag, (hook, line) in sorted(mapping.items()):
        if flag not in flags:
            yield make_finding(
                "capability-flag-unresolved",
                f"attach resolves {flag!r} (from hook {hook!r}) but the "
                f"flag is not declared on {BASE_CLASS}",
                src, line, PASS_NAME,
            )

    # 2. Every non-lifecycle hook needs a flag.
    gated_hooks = {hook for hook, _ in mapping.values()}
    hook_names = {
        name for name in methods
        if not name.startswith("_") and name not in UNGATED_HOOKS
    }
    for name in sorted(hook_names - gated_hooks):
        yield make_finding(
            "hook-missing-flag",
            f"hook {BASE_CLASS}.{name} has no capability flag; the SM "
            "cannot gate it on the hot path (add a flag + attach "
            "resolution + SM gate, or list it as a lifecycle hook)",
            src, methods[name].lineno, PASS_NAME,
        )

    # 3. SM-side gates mirror the mapping and are actually read.
    sm_entry = project.find_class(SM_CLASS)
    if sm_entry is not None:
        sm_src, sm_node = sm_entry
        gates = _sm_gates(sm_node)
        reads = _gate_reads(sm_node)
        for flag, (hook, _line) in sorted(mapping.items()):
            if flag not in gates:
                yield make_finding(
                    "capability-gate-missing",
                    f"flag {flag!r} has no _ext_ gate in {SM_CLASS}.__init__",
                    sm_src, sm_node.lineno, PASS_NAME,
                )
            elif gates[flag][0] != hook:
                yield make_finding(
                    "capability-gate-missing",
                    f"{SM_CLASS} gate for {flag!r} resolves hook "
                    f"{gates[flag][0]!r} but attach resolves {hook!r}",
                    sm_src, gates[flag][1], PASS_NAME,
                )
        for flag, (hook, line, gate_attr) in sorted(gates.items()):
            if gate_attr not in reads:
                yield make_finding(
                    "capability-gate-missing",
                    f"{SM_CLASS}.{gate_attr} (gate for {flag!r}) is "
                    "assigned but never read; the hook is effectively "
                    "ungated",
                    sm_src, line, PASS_NAME,
                )

    # 4. Subclasses pinning flags over overridden hooks.
    all_hooks = gated_hooks
    flag_for_hook = {hook: flag for flag, (hook, _) in mapping.items()}
    for sub_src, sub_node in _project_subclasses(project, BASE_CLASS):
        pins = _unconditional_false_pins(sub_node)
        if not pins:
            continue
        overridden = _ancestry_overrides(sub_node.name, project, all_hooks)
        for hook in sorted(overridden):
            flag = flag_for_hook[hook]
            if flag in pins:
                yield make_finding(
                    "capability-flag-pinned",
                    f"{sub_node.name} overrides {hook} but pins "
                    f"{flag}=False unconditionally; the override can "
                    "never fire — guard the pin or drop the override",
                    sub_src, pins[flag], PASS_NAME,
                )
