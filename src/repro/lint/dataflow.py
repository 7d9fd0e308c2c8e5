"""Dataflow analyses over :mod:`repro.lint.cfg` graphs.

Two analyses power the dataflow passes:

* :class:`ReachingDefinitions` — the classic forward may-analysis:
  which assignments of a name can still be "live" when a statement
  runs. The determinism pass uses it to make ``set-iteration``
  flow-sensitive (a ``sorted(...)`` rebinding on any path to the use
  suppresses the finding), and the fixture tests pin its behaviour on
  branch joins and loop back-edges.
* :class:`HeldLocks` — a forward *must*-analysis of explicit
  ``X.acquire()``/``X.release()`` calls, merged with the lexical
  ``with X:`` regions the CFG already annotates. ``held_at`` answers
  "which locks are provably held when this statement executes", which
  is the primitive behind guarded-attribute inference, lock-order and
  lock-held-across-blocking-call checks.

Everything here is intraprocedural; the thread-safety pass layers its
own call-site lock propagation on top.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.lint.cfg import CFG, dotted_name


@dataclass(frozen=True)
class Definition:
    """One binding of ``name``, anchored at its defining statement."""

    name: str
    node: ast.AST               # the defining statement (or arg node)
    value: Optional[ast.AST]    # RHS expression when one exists

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"Definition({self.name!r}@{getattr(self.node, 'lineno', '?')})"


def _target_names(target: ast.AST) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def stmt_definitions(stmt: ast.AST) -> list[Definition]:
    """The name bindings ``stmt`` itself introduces (no recursion into
    nested statement bodies — the CFG places those separately)."""
    defs: list[Definition] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for name in _target_names(target):
                defs.append(Definition(name, stmt, stmt.value))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        for name in _target_names(stmt.target):
            defs.append(Definition(name, stmt, stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        for name in _target_names(stmt.target):
            defs.append(Definition(name, stmt, None))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in _target_names(stmt.target):
            defs.append(Definition(name, stmt, None))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    defs.append(Definition(name, stmt, None))
    elif isinstance(stmt, ast.ExceptHandler) and stmt.name:
        defs.append(Definition(stmt.name, stmt, None))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defs.append(Definition(stmt.name, stmt, None))
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            defs.append(Definition(bound, stmt, None))
    return defs


class ReachingDefinitions:
    """Forward may-analysis: which defs of each name reach each point."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self._gen: dict[int, list[Definition]] = {}
        self._in: dict[int, frozenset[Definition]] = {}
        self._out: dict[int, frozenset[Definition]] = {}
        self._solve()

    def _param_defs(self) -> list[Definition]:
        args = self.cfg.fn.args
        every = [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
        return [Definition(a.arg, a, None) for a in every]

    @staticmethod
    def _transfer(
        defs: frozenset[Definition], stmts: Iterable[ast.AST]
    ) -> frozenset[Definition]:
        current = set(defs)
        for stmt in stmts:
            new = stmt_definitions(stmt)
            if new:
                killed = {d.name for d in new}
                current = {d for d in current if d.name not in killed}
                current.update(new)
        return frozenset(current)

    def _solve(self) -> None:
        blocks = self.cfg.blocks
        entry_defs = frozenset(self._param_defs())
        for bid in blocks:
            self._in[bid] = frozenset()
            self._out[bid] = frozenset()
        self._in[self.cfg.entry] = entry_defs
        work = list(blocks)
        while work:
            bid = work.pop(0)
            block = blocks[bid]
            in_set: set[Definition] = set()
            if bid == self.cfg.entry:
                in_set.update(entry_defs)
            for pred in block.preds:
                in_set.update(self._out[pred])
            frozen_in = frozenset(in_set)
            out = self._transfer(frozen_in, block.stmts)
            changed = out != self._out[bid] or frozen_in != self._in[bid]
            self._in[bid] = frozen_in
            self._out[bid] = out
            if changed:
                for succ in block.succs:
                    if succ not in work:
                        work.append(succ)

    def defs_at(self, stmt: ast.AST) -> dict[str, set[Definition]]:
        """Reaching defs immediately *before* ``stmt`` runs, by name."""
        entry = self.cfg.stmt_index.get(stmt)
        if entry is None:
            return {}
        bid, idx = entry
        defs = self._transfer(self._in[bid], self.cfg.blocks[bid].stmts[:idx])
        by_name: dict[str, set[Definition]] = {}
        for d in defs:
            by_name.setdefault(d.name, set()).add(d)
        return by_name

    def reaching(self, stmt: ast.AST, name: str) -> set[Definition]:
        return self.defs_at(stmt).get(name, set())


class HeldLocks:
    """Must-analysis of explicitly acquired locks, plus lexical regions.

    ``X.acquire()`` adds the dotted name ``X`` to the held set,
    ``X.release()`` removes it; the meet over CFG joins is set
    intersection (a lock is held only when *every* path holds it).
    Lexical ``with`` contexts come from :attr:`Block.held` for free.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self._in: dict[int, Optional[frozenset[str]]] = {}
        self._solve()

    @staticmethod
    def _lock_calls(stmt: ast.AST) -> list[tuple[str, str]]:
        """``(lockname, 'acquire'|'release')`` events in ``stmt``."""
        events = []
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
            ):
                name = dotted_name(node.func.value)
                if name is not None:
                    events.append((name, node.func.attr))
        return events

    @classmethod
    def _transfer(
        cls, held: frozenset[str], stmts: Iterable[ast.AST]
    ) -> frozenset[str]:
        current = set(held)
        for stmt in stmts:
            # Nested compound statements own their lock events via
            # their CFG placement; only look at this statement's own
            # expressions (headers carry tests/iters only).
            probe = stmt
            if isinstance(stmt, (ast.If, ast.While)):
                probe = stmt.test
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                probe = stmt.iter
            elif isinstance(stmt, (ast.With, ast.AsyncWith, ast.Try,
                                   ast.ExceptHandler)):
                continue
            for name, what in cls._lock_calls(probe):
                if what == "acquire":
                    current.add(name)
                else:
                    current.discard(name)
        return frozenset(current)

    def _solve(self) -> None:
        blocks = self.cfg.blocks
        for bid in blocks:
            self._in[bid] = None  # "not yet known" (top)
        self._in[self.cfg.entry] = frozenset()
        work = list(blocks)
        while work:
            bid = work.pop(0)
            block = blocks[bid]
            preds = [self._in[p] for p in block.preds]
            known = [
                self._transfer(p, blocks[pid].stmts)
                for p, pid in zip(preds, block.preds)
                if p is not None
            ]
            if bid == self.cfg.entry:
                in_set: Optional[frozenset[str]] = frozenset()
            elif known:
                in_set = frozenset.intersection(*known)
            else:
                in_set = None
            if in_set != self._in[bid]:
                self._in[bid] = in_set
                for succ in block.succs:
                    if succ not in work:
                        work.append(succ)

    def held_at(self, stmt: ast.AST) -> frozenset[str]:
        """Locks provably held when ``stmt`` executes: the lexical
        ``with`` contexts plus must-acquired explicit locks."""
        entry = self.cfg.stmt_index.get(stmt)
        if entry is None:
            return frozenset()
        bid, idx = entry
        block = self.cfg.blocks[bid]
        acquired = self._in[bid] or frozenset()
        acquired = self._transfer(acquired, block.stmts[:idx])
        return acquired | frozenset(block.held)
