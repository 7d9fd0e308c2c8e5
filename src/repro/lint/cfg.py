"""Per-function control-flow graphs for the dataflow lint passes.

:func:`build_cfg` lowers one ``ast.FunctionDef`` into basic blocks
connected by edges that model the constructs the passes care about:

* ``if``/``elif``/``else`` — branch out of the test, join after;
* ``while``/``for`` — loop entry, body back-edge, ``else`` clause,
  ``break``/``continue``;
* ``with`` — the body's blocks record the *held context expressions*
  (``Block.held``), which is what turns a ``with self._lock:`` region
  into a statically known lock region;
* ``try`` — conservative: every block inside the ``try`` body may jump
  to every handler (an exception can be raised anywhere), handlers and
  body join at the ``finally``/after block;
* ``return``/``raise`` — edge to the function's synthetic exit block.

Granularity is one *statement* per block entry: simple statements are
appended to the current block, while compound statements contribute
their **header node** (the ``If``/``While``/``For``/``With`` itself) so
analyses can see the test/iter/context expressions and the bindings
they introduce (``for x in ...`` defines ``x``; ``with ... as v``
defines ``v``).

The builder never executes code; it is as pure-AST as the rest of
:mod:`repro.lint`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional


def stmt_owned_exprs(stmt: ast.AST) -> list[ast.AST]:
    """The expression nodes evaluated *by this CFG placement itself*.

    Compound statements are placed as headers while their bodies get
    their own blocks — walking the whole node would double-count body
    statements, so analyses walk only the header's own expressions:
    the ``if``/``while`` test, the ``for`` target/iter, the ``with``
    items. Simple statements own their entire subtree.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: list[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []  # nested scopes get their own CFGs
    return [stmt]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``'a.b.c'`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class Block:
    """One basic block: straight-line statements plus CFG edges."""

    bid: int
    stmts: list[ast.stmt] = field(default_factory=list)
    succs: set[int] = field(default_factory=set)
    preds: set[int] = field(default_factory=set)
    #: Dotted context expressions of every ``with`` statement lexically
    #: enclosing this block, outermost first (``("self._lock",)``).
    held: tuple[str, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        lines = [getattr(s, "lineno", "?") for s in self.stmts]
        return (
            f"Block({self.bid}, lines={lines}, succs={sorted(self.succs)}, "
            f"held={self.held})"
        )


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.fn = fn
        self.blocks: dict[int, Block] = {}
        self.entry: int = 0
        self.exit: int = 0
        #: statement node -> (block id, index inside the block).
        self.stmt_index: dict[ast.stmt, tuple[int, int]] = {}

    # -- topology helpers -------------------------------------------------
    def block_of(self, stmt: ast.stmt) -> Optional[Block]:
        entry = self.stmt_index.get(stmt)
        return self.blocks[entry[0]] if entry else None

    def statements(self) -> Iterator[tuple[Block, int, ast.stmt]]:
        """Every placed statement, in block/slot order."""
        for bid in sorted(self.blocks):
            block = self.blocks[bid]
            for idx, stmt in enumerate(block.stmts):
                yield block, idx, stmt

    def held_at(self, stmt: ast.stmt) -> tuple[str, ...]:
        """Lock/context expressions lexically held at ``stmt``."""
        block = self.block_of(stmt)
        return block.held if block is not None else ()


class _LoopCtx:
    """break/continue targets of the innermost enclosing loop."""

    def __init__(self, head: int, after: int) -> None:
        self.head = head
        self.after = after


class _Builder:
    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.cfg = CFG(fn)
        self._next = 0
        self._loops: list[_LoopCtx] = []
        #: handler-entry block ids of enclosing try statements; any
        #: block created inside a try body gets edges to all of them.
        self._handlers: list[list[int]] = []

    # -- block plumbing ---------------------------------------------------
    def new_block(self, held: tuple[str, ...]) -> int:
        bid = self._next
        self._next += 1
        self.cfg.blocks[bid] = Block(bid=bid, held=held)
        return bid

    def edge(self, src: int, dst: int) -> None:
        self.cfg.blocks[src].succs.add(dst)
        self.cfg.blocks[dst].preds.add(src)

    def place(self, bid: int, stmt: ast.stmt) -> None:
        block = self.cfg.blocks[bid]
        self.cfg.stmt_index[stmt] = (bid, len(block.stmts))
        block.stmts.append(stmt)
        # An exception may escape any statement of a try body.
        for handlers in self._handlers:
            for h in handlers:
                if h != bid:
                    self.edge(bid, h)

    # -- construction -----------------------------------------------------
    def build(self) -> CFG:
        self.cfg.entry = self.new_block(())
        self.cfg.exit = self.new_block(())
        end = self.seq(self.cfg.fn.body, self.cfg.entry, ())
        if end is not None:
            self.edge(end, self.cfg.exit)
        return self.cfg

    def seq(
        self, body: list[ast.stmt], current: Optional[int], held: tuple[str, ...]
    ) -> Optional[int]:
        """Lower a statement list; returns the live fall-through block
        (None when every path returned/raised/broke)."""
        for stmt in body:
            if current is None:
                # Dead code after return/raise/break: place it in an
                # unreachable block so analyses can still index it.
                current = self.new_block(held)
            current = self.stmt(stmt, current, held)
        return current

    def stmt(
        self, node: ast.stmt, current: int, held: tuple[str, ...]
    ) -> Optional[int]:
        if isinstance(node, ast.If):
            return self._if(node, current, held)
        if isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(node, current, held)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return self._with(node, current, held)
        if isinstance(node, ast.Try):
            return self._try(node, current, held)
        if isinstance(node, (ast.Return, ast.Raise)):
            self.place(current, node)
            self.edge(current, self.cfg.exit)
            return None
        if isinstance(node, ast.Break):
            self.place(current, node)
            if self._loops:
                self.edge(current, self._loops[-1].after)
            return None
        if isinstance(node, ast.Continue):
            self.place(current, node)
            if self._loops:
                self.edge(current, self._loops[-1].head)
            return None
        # Simple statement (including nested def/class headers, which
        # are *not* descended into — each function gets its own CFG).
        self.place(current, node)
        return current

    def _if(self, node: ast.If, current: int, held: tuple[str, ...]) -> int:
        self.place(current, node)
        then_b = self.new_block(held)
        self.edge(current, then_b)
        then_end = self.seq(node.body, then_b, held)
        join = self.new_block(held)
        if node.orelse:
            else_b = self.new_block(held)
            self.edge(current, else_b)
            else_end = self.seq(node.orelse, else_b, held)
            if else_end is not None:
                self.edge(else_end, join)
        else:
            self.edge(current, join)  # test-false falls through
        if then_end is not None:
            self.edge(then_end, join)
        return join

    def _loop(
        self,
        node: ast.While | ast.For | ast.AsyncFor,
        current: int,
        held: tuple[str, ...],
    ) -> int:
        head = self.new_block(held)
        self.edge(current, head)
        self.place(head, node)  # test / iter evaluation + loop binding
        after = self.new_block(held)
        body_b = self.new_block(held)
        self.edge(head, body_b)
        self._loops.append(_LoopCtx(head=head, after=after))
        body_end = self.seq(node.body, body_b, held)
        self._loops.pop()
        if body_end is not None:
            self.edge(body_end, head)  # the back-edge
        if node.orelse:
            else_b = self.new_block(held)
            self.edge(head, else_b)
            else_end = self.seq(node.orelse, else_b, held)
            if else_end is not None:
                self.edge(else_end, after)
        else:
            self.edge(head, after)  # loop exhausted / test false
        return after

    def _with(
        self, node: ast.With | ast.AsyncWith, current: int, held: tuple[str, ...]
    ) -> Optional[int]:
        self.place(current, node)  # context managers enter *outside*
        contexts = tuple(
            name
            for item in node.items
            if (name := dotted_name(item.context_expr)) is not None
        )
        inner_held = held + contexts
        body_b = self.new_block(inner_held)
        self.edge(current, body_b)
        body_end = self.seq(node.body, body_b, inner_held)
        if body_end is None:
            return None
        after = self.new_block(held)
        self.edge(body_end, after)
        return after

    def _try(self, node: ast.Try, current: int, held: tuple[str, ...]) -> Optional[int]:
        self.place(current, node)
        handler_blocks = [self.new_block(held) for _ in node.handlers]
        body_b = self.new_block(held)
        self.edge(current, body_b)
        for h in handler_blocks:
            self.edge(body_b, h)
        self._handlers.append(handler_blocks)
        body_end = self.seq(node.body, body_b, held)
        self._handlers.pop()

        after = self.new_block(held)
        live = False
        if body_end is not None:
            if node.orelse:
                else_end = self.seq(node.orelse, body_end, held)
                if else_end is not None:
                    self.edge(else_end, after)
                    live = True
            else:
                self.edge(body_end, after)
                live = True
        for handler, h_block in zip(node.handlers, handler_blocks):
            # The ``except X as e`` binding lives on the handler node;
            # place the handler itself so analyses can see it.
            self.place(h_block, handler)  # type: ignore[arg-type]
            h_end = self.seq(handler.body, h_block, held)
            if h_end is not None:
                self.edge(h_end, after)
                live = True
        if node.finalbody:
            final_b = self.new_block(held)
            self.edge(after, final_b)
            final_end = self.seq(node.finalbody, final_b, held)
            return final_end if live else None
        return after if live else None


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """The CFG of ``fn`` (bodies of nested defs are not descended into)."""
    return _Builder(fn).build()
