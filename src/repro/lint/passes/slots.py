"""Hot-path ``__slots__`` audit.

PR 2's speedup leans on ``__slots__`` for every object the cycle
engine touches per instruction. Two things go wrong silently:

* ``slots-attr-missing`` — a method assigns ``self.x`` for an ``x``
  that is not in ``__slots__``. On a pure-slots class this raises
  ``AttributeError`` at runtime, but only on the first execution of
  that line — which for rarely-taken paths (error handling, ablation
  variants) means it ships. The check is cross-method: *any* method of
  the class may introduce the attribute.
* ``hot-class-no-slots`` — a class on the engine's hot list (cache
  lines, per-SM stats, load behaviour) was refactored and dropped
  its ``__slots__`` (or ``@dataclass(slots=True)``), quietly
  reinstating a per-instance ``__dict__`` and the ~2x allocation cost
  the overhaul removed.

Classes whose resolved base chain leaves the project (or hits a
non-slots base) have a ``__dict__`` anyway, so attribute checking is
skipped for them.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.finding import Finding, Severity
from repro.lint.registry import Rule, lint_pass, make_finding
from repro.lint.source import Project, SourceFile

PASS_NAME = "slots"

#: Classes the cycle engine allocates or scans per instruction/event.
HOT_CLASSES = {
    "CacheLine",
    "CacheStats",
    "SMStats",
    "LoadBehavior",
    "SetAssociativeCache",
}


def _dataclass_slots(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            name = deco.func.attr if isinstance(deco.func, ast.Attribute) else (
                deco.func.id if isinstance(deco.func, ast.Name) else None
            )
            if name == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


def _declared_slots(node: ast.ClassDef) -> Optional[set[str]]:
    """The class's own slot names, or None when it has no slots."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            if "__slots__" in targets:
                value = stmt.value
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    return {
                        e.value
                        for e in value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    }
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return {value.value}
                return set()  # dynamic __slots__; treat as empty
    if _dataclass_slots(node):
        return {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
    return None


def _resolved_slots(
    node: ast.ClassDef, project: Project, _seen: Optional[set[str]] = None
) -> Optional[set[str]]:
    """Slots of ``node`` plus every base, or None when the chain is
    open (a base without slots, or one defined outside the project)."""
    seen = _seen or set()
    if node.name in seen:
        return None
    seen.add(node.name)
    own = _declared_slots(node)
    if own is None:
        return None
    total = set(own)
    for base in node.bases:
        if isinstance(base, ast.Name):
            if base.id == "object":
                continue
            entry = project.find_class(base.id)
            if entry is None:
                return None
            inherited = _resolved_slots(entry[1], project, seen)
            if inherited is None:
                return None
            total |= inherited
        else:
            return None  # attribute base (module.Class): outside project
    return total


def _self_assignments(node: ast.ClassDef) -> Iterable[tuple[str, int]]:
    """(attribute, line) for every ``self.X = ...`` in the class body."""
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = stmt.args.posonlyargs + stmt.args.args
        if not args:
            continue
        self_name = args[0].arg
        for sub in ast.walk(stmt):
            targets: list[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                targets = [sub.target]
            for target in targets:
                nodes = (
                    list(target.elts)
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for t in nodes:
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == self_name
                    ):
                        yield t.attr, t.lineno


def _check_class(
    src: SourceFile, node: ast.ClassDef, project: Project
) -> Iterable[Finding]:
    own = _declared_slots(node)
    if own is None:
        if node.name in HOT_CLASSES:
            yield make_finding(
                "hot-class-no-slots",
                f"hot-path class {node.name} has no __slots__ (nor "
                "@dataclass(slots=True)); the engine allocates it per "
                "instruction/event",
                src, node.lineno, PASS_NAME,
            )
        return
    resolved = _resolved_slots(node, project)
    if resolved is None:
        # A base outside the project (or without slots) provides
        # __dict__; stray attributes are legal there.
        return
    reported: set[str] = set()
    for attr, line in _self_assignments(node):
        if attr not in resolved and attr not in reported:
            reported.add(attr)
            yield make_finding(
                "slots-attr-missing",
                f"{node.name}.{attr} assigned but {attr!r} is not in "
                "__slots__; this raises AttributeError the first time "
                "the line runs",
                src, line, PASS_NAME,
            )


RULES = (
    Rule("slots-attr-missing", Severity.ERROR,
         "attribute assigned outside the class's __slots__"),
    Rule("hot-class-no-slots", Severity.ERROR,
         "hot-path class dropped its __slots__ declaration"),
)


@lint_pass(
    PASS_NAME,
    RULES,
    "audits __slots__ coverage on hot-path classes",
)
def run(project: Project) -> Iterable[Finding]:
    for src, node in project.iter_all_classes():
        yield from _check_class(src, node, project)
