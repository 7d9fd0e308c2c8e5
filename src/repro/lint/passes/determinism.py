"""Determinism sanitizer.

The simulator's headline numbers are only trustworthy because every
run is bit-identically deterministic (``tests/golden_stats.json``) and
because the persistent result cache may replay any run. This pass
flags the constructs that historically break that property:

* ``set-iteration`` — iterating a ``set``/``frozenset`` (hash order is
  salted per process for strings and id-dependent for objects; even
  int sets make iteration order a function of insertion history in
  ways nobody audits). Wrap in ``sorted(...)`` or use a dict.
* ``id-keyed-dict`` — using ``id(x)`` as a lookup key; ids are reused
  after garbage collection and differ across processes, which silently
  corrupted the Best-SWL memo before PR 1.
* ``unseeded-random`` — module-level ``random`` / ``numpy.random``
  draws without a visible ``seed(...)`` call in the same module.
* ``wall-clock`` — ``time.time()``, ``datetime.now()`` and friends in
  simulation code; results must depend only on the config seed.
* ``float-identity`` — ``is`` / ``is not`` against a float value
  (e.g. a ``float("inf")`` sentinel). Float interning is an
  implementation detail; the engine's ``best is _NO_EVENT`` bug
  compared a *computed* infinity against the sentinel object and only
  matched when CPython happened to reuse it.

Since the dataflow engine landed, the ``set-iteration`` and
``unseeded-random`` rules are **flow-sensitive** inside functions:

* iterating a local name flags only when a set-valued binding actually
  *reaches* the use — a ``sorted(...)``/``list(...)``/``tuple(...)``
  rebinding on any path to the use suppresses the finding (reaching
  definitions over the per-function CFG), so the old "assigned a set
  anywhere in the module" over-approximation no longer fires on
  normalized copies;
* a global-RNG draw is accepted when a ``seed(...)`` call can execute
  before it on some CFG path of the same function (or anywhere outside
  it — cross-function seeding stays conservatively accepted); a seed
  that only runs *after* every draw no longer counts.

Scope: simulation-core packages only. Orchestration layers
(:mod:`repro.runner`, :mod:`repro.service`, :mod:`repro.analysis`,
:mod:`repro.workloads`, :mod:`repro.power`, the CLI) legitimately
read wall clocks for progress reporting, job deadlines and uptime
counters, so they are skipped. Files outside
the ``repro`` package (e.g. lint self-test fixtures) are always in
scope.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.cfg import build_cfg
from repro.lint.dataflow import ReachingDefinitions, any_path_has
from repro.lint.finding import Finding, Severity
from repro.lint.registry import Rule, lint_pass, make_finding
from repro.lint.source import Project, SourceFile

PASS_NAME = "determinism"

#: repro subpackages (and top-level modules) outside the simulation
#: core: wall clocks and host-dependent state are allowed there.
_EXCLUDED_SUBPACKAGES = {
    "analysis", "runner", "workloads", "power", "lint", "service",
}
_EXCLUDED_MODULES = {"__main__.py"}

_WALL_CLOCK_ATTRS = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

_RANDOM_SAFE = {"seed", "Random", "SystemRandom", "getstate", "setstate", "default_rng"}


def _in_scope(src: SourceFile) -> bool:
    parts = src.relpath.split("/")
    if "repro" not in parts:
        return True
    idx = parts.index("repro")
    rest = parts[idx + 1:]
    if not rest or rest[0] in _EXCLUDED_SUBPACKAGES:
        return False
    if len(rest) == 1 and rest[0] in _EXCLUDED_MODULES:
        return False
    return True


def _dotted(node: ast.AST) -> Optional[str]:
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _SetTypes:
    """Names statically known to hold sets in one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.names: set[str] = set()        # module/function locals: "x"
        self.attrs: set[str] = set()        # instance attrs: "self.x" -> "x"
        for node in ast.walk(tree):
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if self._is_set_annotation(node.annotation):
                    self._note(target)
            if target is not None and value is not None and self._is_set_expr(value):
                self._note(target)

    def _note(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id == "self":
                self.attrs.add(target.attr)

    @staticmethod
    def _is_set_annotation(node: ast.AST) -> bool:
        base = node.value if isinstance(node, ast.Subscript) else node
        if isinstance(base, ast.Name):
            return base.id in {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}
        return False

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        return False

    def is_set(self, node: ast.AST) -> bool:
        if self._is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id == "self" and node.attr in self.attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        return False


class _FloatNames:
    """Module-level names bound to float values (sentinel candidates)."""

    def __init__(self, tree: ast.Module) -> None:
        self.names: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and self._is_float_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.names.add(target.id)

    @staticmethod
    def _is_float_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "float"
        if isinstance(node, ast.UnaryOp):
            return _FloatNames._is_float_expr(node.operand)
        return False

    def is_float(self, node: ast.AST) -> bool:
        if self._is_float_expr(node):
            return True
        return isinstance(node, ast.Name) and node.id in self.names


_SEED_CALLS = ("random.seed", "numpy.random.seed", "np.random.seed")


def _is_seed_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _dotted(node.func) in _SEED_CALLS


#: Rebinding through these calls yields a deterministically ordered
#: sequence, which kills a set-iteration finding on that path.
_ORDERING_CALLS = {"sorted", "list", "tuple"}


class _Flows:
    """Lazy per-function CFG + reaching-definitions for one module."""

    def __init__(self, parents: dict[ast.AST, ast.AST]) -> None:
        self.parents = parents
        self._cache: dict[ast.AST, tuple] = {}

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parents.get(cur)
        return None

    def flows(self, fn: ast.AST) -> tuple:
        if fn not in self._cache:
            cfg = build_cfg(fn)
            self._cache[fn] = (cfg, ReachingDefinitions(cfg))
        return self._cache[fn]

    def placed_stmt(self, fn: ast.AST, node: ast.AST) -> Optional[ast.AST]:
        """The CFG-placed statement whose evaluation contains ``node``."""
        cfg, _ = self.flows(fn)
        cur: Optional[ast.AST] = node
        while cur is not None and cur not in cfg.stmt_index:
            cur = self.parents.get(cur)
        return cur


def _check_file(src: SourceFile) -> Iterable[Finding]:
    tree = src.tree
    set_types = _SetTypes(tree)
    float_names = _FloatNames(tree)

    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    flows = _Flows(parents)

    #: Enclosing functions of every seed(...) call (None = module level).
    seed_fns: set[Optional[ast.AST]] = {
        flows.enclosing_function(node)
        for node in ast.walk(tree)
        if _is_seed_call(node)
    }

    def draw_ok(node: ast.AST) -> bool:
        """True when a global-RNG draw at ``node`` is visibly seeded."""
        fn = flows.enclosing_function(node)
        if fn is None:
            return bool(seed_fns)  # module-level draw: any seed counts
        if seed_fns - {fn}:
            return True  # seeded at module level or in another function
        if fn not in seed_fns:
            return False
        # Seeded in this very function: the seed must be able to run
        # before the draw on at least one CFG path.
        cfg, _rd = flows.flows(fn)
        stmt = flows.placed_stmt(fn, node)
        if stmt is None:
            return True  # not a placed statement (decorator/default): punt
        if any(_is_seed_call(n) for n in ast.walk(stmt)):
            return True  # same statement, e.g. seeded helper chain
        return any_path_has(
            cfg, stmt,
            lambda s: any(_is_seed_call(n) for n in ast.walk(s)),
        )

    def is_set_use(expr: ast.AST) -> bool:
        """Flow-sensitive "does this expression hold an unordered set".

        For local names the reaching definitions decide: an ordering
        rebind (``sorted``/``list``/``tuple``) on any path suppresses,
        and only a set-valued binding that actually reaches the use
        convicts. Anything without flow information falls back to the
        module-level type sketch.
        """
        if isinstance(expr, ast.Name):
            fn = flows.enclosing_function(expr)
            if fn is not None:
                _cfg, rd = flows.flows(fn)
                stmt = flows.placed_stmt(fn, expr)
                if stmt is not None:
                    defs = rd.reaching(stmt, expr.id)
                    if defs:
                        has_set = False
                        for d in defs:
                            value = d.value
                            if (
                                isinstance(value, ast.Call)
                                and isinstance(value.func, ast.Name)
                                and value.func.id in _ORDERING_CALLS
                            ):
                                return False
                            if value is not None and set_types.is_set(value):
                                has_set = True
                        return has_set
        return set_types.is_set(expr)

    #: Consumers whose result does not depend on iteration order:
    #: sorting, counting, exact min/max, rebuilding a set.
    _ORDER_SAFE_CALLS = {"sorted", "len", "min", "max", "set", "frozenset",
                         "any", "all"}

    def order_safe_context(node: ast.AST) -> bool:
        parent = parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_SAFE_CALLS
        )

    for node in ast.walk(tree):
        # -- set iteration ----------------------------------------------
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_set_use(node.iter):
            yield make_finding(
                "set-iteration",
                "iteration over an unordered set; wrap in sorted(...) or use a dict",
                src, node.iter.lineno, PASS_NAME,
            )
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.DictComp)):
            # A set comprehension over a set rebuilds a set: order-free.
            # Generators feeding sorted()/len()/min()/... are too.
            if any(is_set_use(gen.iter) for gen in node.generators):
                if not order_safe_context(node):
                    yield make_finding(
                        "set-iteration",
                        "comprehension over an unordered set; wrap in sorted(...)",
                        src, node.lineno, PASS_NAME,
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple", "enumerate", "iter", "next"}
            and node.args
            and is_set_use(node.args[0])
        ):
            yield make_finding(
                "set-iteration",
                f"{node.func.id}() over an unordered set materializes hash order",
                src, node.lineno, PASS_NAME,
            )

        # -- id()-keyed lookups -----------------------------------------
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "id" and len(node.args) == 1:
                yield make_finding(
                    "id-keyed-dict",
                    "id() values are reused after GC and differ across "
                    "processes; key on stable identity instead",
                    src, node.lineno, PASS_NAME,
                )

        # -- RNG and wall clocks ----------------------------------------
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted:
                parts = dotted.split(".")
                if (
                    parts[0] in {"random"}
                    and len(parts) == 2
                    and parts[1] not in _RANDOM_SAFE
                    and not draw_ok(node)
                ):
                    yield make_finding(
                        "unseeded-random",
                        f"{dotted}() draws from the unseeded global RNG; "
                        "use a seeded random.Random(config.seed)",
                        src, node.lineno, PASS_NAME,
                    )
                elif (
                    len(parts) >= 3
                    and parts[0] in {"numpy", "np"}
                    and parts[1] == "random"
                    and parts[2] not in _RANDOM_SAFE
                    and not draw_ok(node)
                ):
                    yield make_finding(
                        "unseeded-random",
                        f"{dotted}() draws from the unseeded numpy RNG; "
                        "use numpy.random.default_rng(config.seed)",
                        src, node.lineno, PASS_NAME,
                    )
                else:
                    base, attr = parts[0], parts[-1]
                    clocky = (
                        (base == "time" and len(parts) == 2
                         and attr in _WALL_CLOCK_ATTRS["time"])
                        or (parts[-2:-1] == ["datetime"]
                            and attr in _WALL_CLOCK_ATTRS["datetime"])
                        or (base == "datetime" and len(parts) == 2
                            and attr in _WALL_CLOCK_ATTRS["datetime"])
                        or (base == "date" and len(parts) == 2
                            and attr in _WALL_CLOCK_ATTRS["date"])
                    )
                    if clocky:
                        yield make_finding(
                            "wall-clock",
                            f"{dotted}() reads the wall clock; simulation "
                            "state must depend only on the config seed",
                            src, node.lineno, PASS_NAME,
                        )

        # -- float identity comparisons ---------------------------------
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot)):
                    if float_names.is_float(left) or float_names.is_float(right):
                        yield make_finding(
                            "float-identity",
                            "'is' comparison against a float; identity of "
                            "floats is an interning accident — use == "
                            "(the best-is-_NO_EVENT bug)",
                            src, node.lineno, PASS_NAME,
                        )


RULES = (
    Rule("set-iteration", Severity.ERROR,
         "iteration over an unordered set in simulation code"),
    Rule("id-keyed-dict", Severity.ERROR,
         "id()-derived keys are unstable across GC and processes"),
    Rule("unseeded-random", Severity.ERROR,
         "global RNG draw without a seed"),
    Rule("wall-clock", Severity.ERROR,
         "wall-clock read inside the simulation core"),
    Rule("float-identity", Severity.ERROR,
         "'is' comparison on float/sentinel expressions"),
)


@lint_pass(
    PASS_NAME,
    RULES,
    "flags constructs that break bit-identical determinism",
)
def run(project: Project) -> Iterable[Finding]:
    for src in project.files:
        if _in_scope(src):
            yield from _check_file(src)
