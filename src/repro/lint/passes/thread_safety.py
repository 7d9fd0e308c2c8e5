"""Lock-discipline race detector for the service stack.

PR 6 made the reproduction a long-lived multithreaded service: HTTP
handler threads, a dedicated fleet-dispatcher thread (which also runs
the degrade tier) and per-worker pipe reader threads all share the
coordinator's job table and the fleet's book-keeping. The only
synchronization primitive is ``self._lock`` — so the whole correctness
story is *lock discipline*, which no unit test can watch continuously.
This pass proves it statically, per lock-owning class:

1. **Guarded-attribute inference** — any class that creates a
   ``threading.Lock``/``RLock``/``Condition`` on ``self`` is analyzed.
   An attribute mutated while the lock is provably held (lexically
   inside ``with self._lock:``, via a must-held ``acquire()`` region,
   or inside a private method *all* of whose intra-class call sites
   hold the lock) joins the guarded set.
2. **Thread roots** — the entry points concurrency flows in from:
   public methods (HTTP handlers and API callers), ``do_GET``-style
   handler methods, and any method escaped as a callback
   (``threading.Thread(target=self._loop)``, ``on_outcome=self._cb``).
   The intra-class call graph then tells which roots reach each method.
3. **Findings** —

   * ``unguarded-attribute``: a guarded attribute is read or mutated
     without the lock in a method reachable from a thread root, while
     the attribute is shared across ≥ 2 roots;
   * ``unsynchronized-attribute``: an attribute written after
     ``__init__`` and accessed from ≥ 2 distinct thread roots with *no*
     lock anywhere — the PR 6-era stats/``last_error`` pattern;
   * ``lock-order``: two locks acquired in opposite nesting orders
     anywhere in the class (ABBA deadlock), or a non-reentrant lock
     re-acquired while already held;
   * ``lock-held-blocking``: pipe I/O, ``subprocess`` spawning,
     ``time.sleep`` or thread/process joins executed while holding the
     lock — every HTTP request then stalls behind worker latency.

Intentionally thread-safe containers created in ``__init__``
(``queue.Queue``, ``threading.Event`` …) are exempt, as are attributes
only ever touched from a single root (thread confinement) or never
written after construction (immutable configuration).

Suppressions for this pass **require a justification**:
``# repro-lint: ignore[unguarded-attribute] <why it is safe>`` — a bare
ignore is itself kept as a finding. ``ignore[thread-safety]`` (the pass
name) suppresses any of its rules on that line, with the same
justification requirement.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.lint.cfg import CFG, build_cfg, dotted_name, stmt_owned_exprs
from repro.lint.dataflow import HeldLocks
from repro.lint.finding import Finding, Severity
from repro.lint.registry import Rule, lint_pass, make_finding
from repro.lint.source import Project, SourceFile

PASS_NAME = "thread-safety"

#: Constructors that make a lock-ish attribute (the class is analyzed).
_LOCK_CTORS = {"Lock", "RLock"}
_CONDITION_CTORS = {"Condition"}
#: Constructors whose product is intrinsically thread-safe: attributes
#: holding one are exempt from the attribute rules.
_THREADSAFE_CTORS = {
    "Queue", "LifoQueue", "PriorityQueue", "SimpleQueue",
    "Event", "Semaphore", "BoundedSemaphore", "Barrier", "local",
}

#: ``self.X.<method>(...)`` calls that mutate the container behind X.
_MUTATOR_METHODS = {
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "add", "update", "setdefault", "sort", "reverse", "rotate",
}

#: ``http.server`` dispatches ``do_<VERB>`` per request thread.
_HTTP_HANDLER_PREFIX = "do_"

_BLOCKING_SUBPROCESS = {"Popen", "run", "call", "check_call", "check_output"}
_PIPE_SEGMENTS = {"stdin", "stdout", "stderr"}
_PIPE_METHODS = {"read", "readline", "readlines", "write", "flush"}
_JOINISH = {"wait", "join"}


def _is_blocking_call(node: ast.Call) -> Optional[str]:
    """A short description when ``node`` is a known blocking call."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    parts = dotted.split(".")
    if dotted == "time.sleep":
        return "time.sleep()"
    if len(parts) >= 2 and parts[-2] == "subprocess" and parts[-1] in _BLOCKING_SUBPROCESS:
        return f"subprocess.{parts[-1]}()"
    if parts[0] == "subprocess" and parts[-1] in _BLOCKING_SUBPROCESS:
        return f"subprocess.{parts[-1]}()"
    if parts[-1] in _PIPE_METHODS and any(p in _PIPE_SEGMENTS for p in parts[:-1]):
        return f"pipe {parts[-1]}() on {'.'.join(parts[:-1])}"
    if parts[-1] in _JOINISH and any(
        "proc" in p or "thread" in p for p in parts[:-1]
    ):
        return f"{dotted}()"
    return None


@dataclass
class _Access:
    """One touch of ``self.<attr>`` inside a method body."""

    attr: str
    method: str
    line: int
    is_write: bool
    held: frozenset[str]   # normalized lock names held at the access


@dataclass
class _MethodInfo:
    name: str
    node: ast.FunctionDef
    cfg: CFG
    locks: HeldLocks
    #: child AST node -> parent, for write classification and
    #: escaped-callback detection.
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: locks held at every call site of this method (propagated).
    inherited: frozenset[str] = frozenset()
    calls: list[tuple[str, ast.stmt]] = field(default_factory=list)


class _ClassAnalysis:
    """Everything the rules need about one lock-owning class."""

    def __init__(self, src: SourceFile, node: ast.ClassDef) -> None:
        self.src = src
        self.node = node
        self.lock_attrs: set[str] = set()
        #: condition attr -> underlying lock attr (Condition(self._lock)).
        self.aliases: dict[str, str] = {}
        self.exempt_attrs: set[str] = set()
        self.methods: dict[str, _MethodInfo] = {}
        self._roots: Optional[set[str]] = None
        self._scan_init()
        if not self.lock_attrs:
            return
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(
                    isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                    for d in item.decorator_list
                ):
                    continue
                cfg = build_cfg(item)
                parents: dict[ast.AST, ast.AST] = {}
                for parent in ast.walk(item):
                    for child in ast.iter_child_nodes(parent):
                        parents[child] = parent
                self.methods[item.name] = _MethodInfo(
                    name=item.name, node=item, cfg=cfg,
                    locks=HeldLocks(cfg), parents=parents,
                )
        self._collect_calls()
        self._propagate_call_site_locks()

    # -- construction-time attribute classification -----------------------
    def _scan_init(self) -> None:
        for item in self.node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(item):
                if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                    continue
                target = stmt.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                value = stmt.value
                if not isinstance(value, ast.Call):
                    continue
                ctor = dotted_name(value.func) or ""
                tail = ctor.split(".")[-1]
                if tail in _LOCK_CTORS:
                    self.lock_attrs.add(target.attr)
                elif tail in _CONDITION_CTORS:
                    if value.args:
                        inner = dotted_name(value.args[0])
                        if inner and inner.startswith("self."):
                            self.aliases[target.attr] = inner.split(".", 1)[1]
                    self.lock_attrs.add(target.attr)
                    self.exempt_attrs.add(target.attr)
                elif tail in _THREADSAFE_CTORS:
                    self.exempt_attrs.add(target.attr)
        self.exempt_attrs.update(self.lock_attrs)

    def _normalize(self, held: Iterable[str]) -> frozenset[str]:
        """Map held context expressions to canonical ``self.<lock>``."""
        out = set()
        for name in held:
            if not name.startswith("self."):
                continue
            attr = name.split(".", 1)[1]
            attr = self.aliases.get(attr, attr)
            if attr in self.lock_attrs:
                out.add(f"self.{attr}")
        return frozenset(out)

    # -- call graph and lock propagation ----------------------------------
    def _collect_calls(self) -> None:
        for info in self.methods.values():
            for _block, _idx, stmt in info.cfg.statements():
                for expr in stmt_owned_exprs(stmt):
                    for node in ast.walk(expr):
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id == "self"
                            and node.func.attr in self.methods
                        ):
                            info.calls.append((node.func.attr, stmt))

    def held_at(self, info: _MethodInfo, stmt: ast.stmt) -> frozenset[str]:
        return self._normalize(info.locks.held_at(stmt)) | info.inherited

    def _propagate_call_site_locks(self) -> None:
        """A private method whose *every* intra-class call site holds a
        lock inherits it (the ``_spawn`` "caller holds the lock" idiom)."""
        roots = self.thread_roots()
        for _ in range(len(self.methods) + 1):
            changed = False
            sites: dict[str, list[frozenset[str]]] = {}
            for info in self.methods.values():
                for callee, stmt in info.calls:
                    sites.setdefault(callee, []).append(self.held_at(info, stmt))
            for name, info in self.methods.items():
                if name in roots or not name.startswith("_") or name.startswith("__"):
                    continue
                call_holds = sites.get(name)
                if not call_holds:
                    continue
                inherited = frozenset.intersection(*call_holds)
                if inherited != info.inherited:
                    info.inherited = inherited
                    changed = True
            if not changed:
                break

    # -- thread roots ------------------------------------------------------
    def thread_roots(self) -> set[str]:
        if self._roots is not None:
            return self._roots
        roots = set()
        for name in self.methods:
            if name.startswith(_HTTP_HANDLER_PREFIX):
                roots.add(name)
            elif not name.startswith("_"):
                roots.add(name)
        # Methods escaped as callbacks: ``self._m`` referenced without
        # being immediately called (Thread targets, on_outcome=...).
        for info in self.methods.values():
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in self.methods
                    and isinstance(node.ctx, ast.Load)
                ):
                    parent_call = info.parents.get(node)
                    if not (
                        isinstance(parent_call, ast.Call)
                        and parent_call.func is node
                    ):
                        roots.add(node.attr)
        roots.discard("__init__")
        self._roots = roots
        return roots

    def roots_reaching(self) -> dict[str, set[str]]:
        """method name -> thread roots whose call chains reach it."""
        roots = self.thread_roots()
        reach: dict[str, set[str]] = {name: set() for name in self.methods}
        for root in roots:
            if root not in self.methods:
                continue
            seen = {root}
            work = [root]
            while work:
                current = work.pop()
                reach[current].add(root)
                for callee, _stmt in self.methods[current].calls:
                    if callee not in seen:
                        seen.add(callee)
                        work.append(callee)
        return reach

    # -- attribute accesses ------------------------------------------------
    def accesses(self) -> list[_Access]:
        out: list[_Access] = []
        for name, info in self.methods.items():
            if name == "__init__":
                continue
            for _block, _idx, stmt in info.cfg.statements():
                held = self.held_at(info, stmt)
                for expr in stmt_owned_exprs(stmt):
                    for node in ast.walk(expr):
                        if not (
                            isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"
                        ):
                            continue
                        attr = node.attr
                        if attr in self.exempt_attrs or attr in self.methods:
                            continue
                        out.append(
                            _Access(
                                attr=attr,
                                method=name,
                                line=node.lineno,
                                is_write=self._is_write(node, info.parents),
                                held=held,
                            )
                        )
        return out

    @staticmethod
    def _is_write(node: ast.Attribute, parents: dict[ast.AST, ast.AST]) -> bool:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return True
        parent = parents.get(node)
        if isinstance(parent, ast.AugAssign) and parent.target is node:
            return True
        # self.x[k] = v / del self.x[k] / self.x[k] += v
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if isinstance(parent.ctx, (ast.Store, ast.Del)):
                return True
            grand = parents.get(parent)
            if isinstance(grand, ast.AugAssign) and grand.target is parent:
                return True
        # self.x.append(v) and friends
        if (
            isinstance(parent, ast.Attribute)
            and parent.value is node
            and parent.attr in _MUTATOR_METHODS
        ):
            call = parents.get(parent)
            if isinstance(call, ast.Call) and call.func is parent:
                return True
        return False

    # -- lock acquisition sites (for ordering) -----------------------------
    def acquisitions(self) -> list[tuple[frozenset[str], str, int]]:
        """``(already_held, acquired_lock, line)`` per acquisition; in
        ``with a, b:`` the lock ``a`` is already held when ``b`` is taken."""
        out = []
        for info in self.methods.values():
            for _block, _idx, stmt in info.cfg.statements():
                if not isinstance(stmt, (ast.With, ast.AsyncWith)):
                    continue
                held = self.held_at(info, stmt)
                for item in stmt.items:
                    name = dotted_name(item.context_expr)
                    normalized = self._normalize([name] if name else [])
                    for lock in normalized:
                        out.append((held, lock, stmt.lineno))
                    held |= normalized
        return out


RULES = (
    Rule(
        "unguarded-attribute", Severity.ERROR,
        "lock-guarded attribute accessed without the lock from another "
        "thread root",
        needs_justification=True,
    ),
    Rule(
        "unsynchronized-attribute", Severity.ERROR,
        "attribute shared across thread roots with no synchronization",
        needs_justification=True,
    ),
    Rule(
        "lock-order", Severity.ERROR,
        "inconsistent lock acquisition order (ABBA) or non-reentrant "
        "re-acquire",
        needs_justification=True,
    ),
    Rule(
        "lock-held-blocking", Severity.ERROR,
        "blocking call (pipe I/O, subprocess, sleep, join) while "
        "holding the lock",
        needs_justification=True,
    ),
)


def _check_class(src: SourceFile, node: ast.ClassDef) -> Iterable[Finding]:
    analysis = _ClassAnalysis(src, node)
    if not analysis.lock_attrs or not analysis.methods:
        return
    reach = analysis.roots_reaching()

    # -- attribute discipline ---------------------------------------------
    by_attr: dict[str, list[_Access]] = {}
    for access in analysis.accesses():
        if reach.get(access.method):  # unreachable helpers: no threads
            by_attr.setdefault(access.attr, []).append(access)
    for attr in sorted(by_attr):
        accesses = by_attr[attr]
        roots = set()
        for access in accesses:
            roots.update(reach[access.method])
        if len(roots) < 2:
            continue  # thread-confined: one root ever touches it
        written = any(a.is_write for a in accesses)
        if not written:
            continue  # read-only after __init__: immutable configuration
        guarded = any(a.held for a in accesses)
        if guarded:
            for access in accesses:
                if not access.held:
                    kind = "written" if access.is_write else "read"
                    yield make_finding(
                        "unguarded-attribute",
                        f"self.{attr} is guarded by "
                        f"{sorted(analysis.lock_attrs)} elsewhere but "
                        f"{kind} lock-free in {access.method}() "
                        f"(reachable from threads: "
                        f"{', '.join(sorted(roots))})",
                        src, access.line, PASS_NAME,
                    )
        else:
            for access in accesses:
                kind = "written" if access.is_write else "read"
                yield make_finding(
                    "unsynchronized-attribute",
                    f"self.{attr} is {kind} in {access.method}() with no "
                    f"lock, yet shared across thread roots "
                    f"{', '.join(sorted(roots))}; guard it with "
                    f"{sorted(analysis.lock_attrs)[0]}",
                    src, access.line, PASS_NAME,
                )

    # -- lock ordering -----------------------------------------------------
    acquisitions = analysis.acquisitions()
    pair_sites: dict[tuple[str, str], list[int]] = {}
    for held, lock, line in acquisitions:
        if lock in held:
            yield make_finding(
                "lock-order",
                f"{lock} is re-acquired while already held; "
                "threading.Lock is not reentrant — this deadlocks",
                src, line, PASS_NAME,
            )
            continue
        for outer in held:
            pair_sites.setdefault((outer, lock), []).append(line)
    for (outer, inner), lines in sorted(pair_sites.items()):
        if (inner, outer) in pair_sites:
            for line in lines:
                yield make_finding(
                    "lock-order",
                    f"{inner} acquired while holding {outer}, but the "
                    f"opposite order exists at line "
                    f"{min(pair_sites[(inner, outer)])}; pick one global "
                    "order to avoid ABBA deadlock",
                    src, line, PASS_NAME,
                )

    # -- blocking calls under the lock --------------------------------------
    for info in analysis.methods.values():
        for _block, _idx, stmt in info.cfg.statements():
            held = analysis.held_at(info, stmt)
            if not held:
                continue
            for expr in stmt_owned_exprs(stmt):
                for node_ in ast.walk(expr):
                    if isinstance(node_, ast.Call):
                        what = _is_blocking_call(node_)
                        if what is not None:
                            yield make_finding(
                                "lock-held-blocking",
                                f"{what} runs while holding "
                                f"{', '.join(sorted(held))}; every thread "
                                "contending for the lock stalls behind it — "
                                "move the blocking call outside the region",
                                src, node_.lineno, PASS_NAME,
                            )


@lint_pass(
    PASS_NAME,
    RULES,
    "dataflow lock-discipline audit of lock-owning service classes",
)
def run(project: Project) -> Iterable[Finding]:
    for src, node in project.iter_all_classes():
        yield from _check_class(src, node)
