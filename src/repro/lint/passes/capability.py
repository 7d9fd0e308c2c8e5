"""Capability-flag consistency for the SM extension interface.

The engine's hot path never calls an extension hook unconditionally: it
reads a plain bool that ``SMExtension.resolve_flags`` left on the
instance (``wants_ticks`` gates ``on_tick``, ``has_victim_cache`` gates
``lookup_victim``, ...), per the module-level ``CAPABILITY_FLAGS``
table next to the class. That indirection is fast and fragile — drift
modes that are invisible until a policy silently stops firing:

* ``capability-flag-unresolved`` — a flag declared on ``SMExtension``
  that the ``CAPABILITY_FLAGS`` table does not resolve (or a table row
  for an undeclared flag).
* ``hook-missing-flag`` — a hook method added to ``SMExtension``
  without a capability flag. The engine would never call it (or worse,
  call it unconditionally on the hot path). Lifecycle hooks
  (``on_cta_*``, ``try_reactivate_cta``, ``finalize``, ``attach``)
  are exempt: they fire off the hot path.
* ``capability-gate-missing`` — the engine side: the class that hosts
  the hooks (``VectorSM``) references a gated hook without reading its
  flag anywhere, or never reads a flag at all.
* ``capability-flag-pinned`` — a subclass overrides a hook but pins
  the matching flag to a literal ``False`` unconditionally. The
  override is then dead code. Pinning is legal only when guarded
  (inside an ``if``) or computed from configuration, e.g. Linebacker's
  ``self.has_victim_cache = cfg.enable_victim_cache``.

The flag <-> hook mapping is read from the table the runtime itself
uses, so the pass tracks the real contract instead of a copy.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.finding import Finding, Severity
from repro.lint.registry import Rule, lint_pass, make_finding
from repro.lint.source import Project, SourceFile

PASS_NAME = "capability"

BASE_CLASS = "SMExtension"
FLAG_TABLE = "CAPABILITY_FLAGS"
#: The classes whose code calls the gated hooks: the engine.
ENGINE_CLASSES = ("VectorSM",)

#: Hooks that fire off the hot path and are deliberately ungated (and
#: ``resolve_flags`` / ``shared_tick_period``, which describe the
#: extension to the engine rather than receive events).
UNGATED_HOOKS = {
    "attach",
    "resolve_flags",
    "shared_tick_period",
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


def _flag_table(src: SourceFile) -> dict[str, tuple[str, int]]:
    """flag -> (hook, line) from the module-level literal
    ``CAPABILITY_FLAGS = {"flag": "hook", ...}``."""
    for stmt in src.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == FLAG_TABLE for t in stmt.targets)
            and isinstance(stmt.value, ast.Dict)
        ):
            return {
                key.value: (value.value, key.lineno)
                for key, value in zip(stmt.value.keys, stmt.value.values)
                if isinstance(key, ast.Constant) and isinstance(value, ast.Constant)
            }
    return {}


def _attribute_reads(node: ast.ClassDef) -> set[str]:
    """Every attribute name loaded anywhere inside the class."""
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


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
         "flag declared without a CAPABILITY_FLAGS row (or vice versa)"),
    Rule("hook-missing-flag", Severity.ERROR,
         "SMExtension hook without a capability flag"),
    Rule("capability-gate-missing", Severity.ERROR,
         "engine references a gated hook without reading its flag"),
    Rule("capability-flag-pinned", Severity.ERROR,
         "overridden hook with its flag pinned False unguarded"),
)


@lint_pass(
    PASS_NAME,
    RULES,
    "checks the SMExtension flag table against hooks, the engine and pins",
)
def run(project: Project) -> Iterable[Finding]:
    entry = project.find_class(BASE_CLASS)
    if entry is None:
        return
    src, base_node = entry
    methods = _methods(base_node)
    flags = _declared_flags(base_node)
    mapping = _flag_table(src)

    # 1. Declared flags <-> table rows, both directions.
    for flag, line in sorted(flags.items()):
        if flag not in mapping:
            yield make_finding(
                "capability-flag-unresolved",
                f"flag {flag!r} is declared but has no row in {FLAG_TABLE}",
                src, line, PASS_NAME,
            )
    for flag, (hook, line) in sorted(mapping.items()):
        if flag not in flags:
            yield make_finding(
                "capability-flag-unresolved",
                f"{FLAG_TABLE} resolves {flag!r} (from hook {hook!r}) but the "
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
            f"hook {BASE_CLASS}.{name} has no capability flag; the engine "
            f"cannot gate it on the hot path (add a flag + {FLAG_TABLE} "
            "row + engine gate, or list it as a lifecycle hook)",
            src, methods[name].lineno, PASS_NAME,
        )

    # 3. Engine side: a referenced hook is gated, and no flag is dead.
    for engine_src, engine_node in filter(None, map(project.find_class, ENGINE_CLASSES)):
        reads = _attribute_reads(engine_node)
        for flag, (hook, line) in sorted(mapping.items()):
            if flag in reads:
                continue
            if hook in reads:
                yield make_finding(
                    "capability-gate-missing",
                    f"{engine_node.name} references hook {hook!r} but never "
                    f"reads its flag {flag!r}; the hook is effectively ungated",
                    engine_src, engine_node.lineno, PASS_NAME,
                )
            else:
                yield make_finding(
                    "capability-gate-missing",
                    f"flag {flag!r} is never read by the engine ({engine_node.name})",
                    src, line, PASS_NAME,
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
