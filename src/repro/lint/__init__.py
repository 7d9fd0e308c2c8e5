"""``repro.lint``: AST-based invariant checker for the simulator.

A pure-static (no-import, no-execute) analysis framework with a pass
registry, per-pass severity levels, inline ``# repro-lint:
ignore[rule]`` suppressions, a committed baseline file and text/JSON
reporters — exposed as ``python -m repro lint``.

The bundled passes keep what only a static analysis can know and no
execution shows: bit-identical determinism (a set iteration that
happens to come out right on this interpreter) and lock discipline
over the service stack's shared state. A contract the imported program
states about itself — a document's shape under its version constant
among them — is checked by its tests instead. See DESIGN.md section
5d.
"""

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.cli import main, run_lint
from repro.lint.finding import Finding, Severity
from repro.lint.registry import PASSES, RULES, LintPass, Rule, all_passes, lint_pass
from repro.lint.report import LintResult, render_json, render_text
from repro.lint.source import Project, SourceFile, collect_files, load_source

__all__ = [
    "Finding",
    "Severity",
    "LintPass",
    "LintResult",
    "Project",
    "Rule",
    "SourceFile",
    "PASSES",
    "RULES",
    "all_passes",
    "collect_files",
    "lint_pass",
    "load_baseline",
    "load_source",
    "main",
    "render_json",
    "render_text",
    "run_lint",
    "write_baseline",
]
