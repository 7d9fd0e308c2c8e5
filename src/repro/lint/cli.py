"""Lint orchestration and the ``python -m repro lint`` entry point.

The default analysis root is the installed ``repro`` package sources.
Explicit paths replace it, which is what the fixture self-tests use.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.baseline import (
    BASELINE_NAME,
    load_baseline,
    split_baselined,
    write_baseline,
)
from repro.lint.finding import Finding
from repro.lint.registry import RULES, all_passes
from repro.lint.report import LintResult, render_json, render_text
from repro.lint.source import Project, collect_files


def package_root() -> Path:
    """Directory of the ``repro`` package sources (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def repo_root() -> Path:
    """Best-effort repository root (``src/repro`` -> repo)."""
    return package_root().parent.parent


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    root: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
    pass_names: Optional[Sequence[str]] = None,
) -> LintResult:
    """Run the registered passes over ``paths`` and triage findings."""
    root = root or repo_root()
    files = collect_files([Path(p) for p in (paths or [package_root()])], root)
    project = Project(files, root)

    passes = all_passes()
    if pass_names:
        wanted = set(pass_names)
        unknown = wanted - {p.name for p in passes}
        if unknown:
            raise ValueError(f"unknown lint pass(es): {sorted(unknown)}")
        passes = [p for p in passes if p.name in wanted]

    raw: list[Finding] = []
    seen: set[tuple[str, str, int]] = set()
    for lint in passes:
        for finding in lint.run(project):
            key = (finding.rule, finding.path, finding.line)
            if key not in seen:  # e.g. nested defs double-reporting a line
                seen.add(key)
                raw.append(finding)

    by_path = {src.relpath: src for src in files}
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        src = by_path.get(finding.path)
        if src is None or not src.is_suppressed(
            finding.line, finding.rule, finding.pass_name
        ):
            kept.append(finding)
            continue
        rule = RULES.get(finding.rule)
        if (
            rule is not None
            and rule.needs_justification
            and not src.suppression_note(finding.line)
        ):
            # A bare ignore is not an argument; keep the finding and
            # say what is missing.
            kept.append(
                dataclasses.replace(
                    finding,
                    message=finding.message
                    + " [suppression requires a justification: "
                    "`# repro-lint: ignore[...] <why this is safe>`]",
                )
            )
            continue
        suppressed += 1

    baseline = load_baseline(baseline_path) if baseline_path else set()
    fresh, known = split_baselined(kept, baseline)
    return LintResult(
        findings=sorted(fresh, key=Finding.sort_key),
        baselined=sorted(known, key=Finding.sort_key),
        suppressed=suppressed,
        files_checked=len(files),
        passes_run=[p.name for p in passes],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "AST-based invariant checker for the simulator: determinism "
            "and lock discipline. Pure static analysis — nothing is "
            "imported or executed."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro sources)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of text",
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="also write the JSON report to PATH (for CI artifacts)",
    )
    parser.add_argument(
        "--sarif", metavar="PATH",
        help="also write a SARIF 2.1.0 report to PATH (GitHub code "
             "scanning upload)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help=f"baseline file (default: <repo>/{BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current finding into the baseline file",
    )
    parser.add_argument(
        "--pass", dest="passes", action="append", metavar="NAME",
        help="run only the named pass (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every pass and rule, then exit",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also show baselined (accepted) findings",
    )
    return parser


def _list_rules() -> int:
    for lint in all_passes():
        print(f"{lint.name}: {lint.description}")
        for rule in lint.rules:
            print(f"  {rule.name:28s} {rule.severity.value:7s} {rule.summary}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()

    baseline_path = (
        Path(args.baseline) if args.baseline else repo_root() / BASELINE_NAME
    )
    paths = [Path(p) for p in args.paths] if args.paths else None
    try:
        result = run_lint(
            paths=paths, baseline_path=baseline_path, pass_names=args.passes
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        accepted = result.findings + result.baselined
        write_baseline(baseline_path, accepted)
        print(f"wrote {len(accepted)} finding(s) to {baseline_path}", file=sys.stderr)
        return 0

    if args.report:
        Path(args.report).write_text(render_json(result), encoding="utf-8")
    if args.sarif:
        from repro.lint.sarif import render_sarif

        Path(args.sarif).write_text(render_sarif(result), encoding="utf-8")
    if args.json:
        print(render_json(result), end="")
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code(strict=args.strict)


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
