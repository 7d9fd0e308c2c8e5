"""Benchmark and example files cannot rot against the context API.

``benchmarks/bench_*.py`` and ``examples/*.py`` are not collected by
the tier-1 run, so a method removed from
:class:`~repro.analysis.context.ExperimentContext` used to break them
silently (``bench_ablations.py`` called ``ctx.best_swl`` /
``ctx.linebacker`` for sixteen PRs after both were deleted). This is a
pure AST check — no simulation, milliseconds: every ``ctx.<name>`` (or
``<something>_ctx.<name>``) attribute in those files must resolve on
``ExperimentContext`` as a field, method or property.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.analysis import ExperimentContext

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("benchmarks/bench_*.py")) + sorted(ROOT.glob("examples/*.py"))
CONTEXT_NAMES = {f.name for f in dataclasses.fields(ExperimentContext)} | {
    name for name in dir(ExperimentContext) if not name.startswith("__")
}


def context_attributes(path: Path):
    """``(name, line)`` of every attribute read off a context variable."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id == "ctx" or node.value.id.endswith("_ctx"))
        ):
            yield node.attr, node.lineno


def test_the_check_sees_the_callers():
    assert any(path.name == "bench_ablations.py" for path in FILES)
    assert sum(1 for path in FILES for _ in context_attributes(path)) >= 20
    assert {"run", "config", "apps", "prefetch"} <= CONTEXT_NAMES
    assert "best_swl" not in CONTEXT_NAMES


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_ctx_attribute_resolves_on_experiment_context(path):
    unresolved = [
        f"{path.name}:{line}: ctx.{name}"
        for name, line in context_attributes(path)
        if name not in CONTEXT_NAMES
    ]
    assert not unresolved, unresolved
