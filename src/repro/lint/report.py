"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.lint.finding import Finding, Severity


@dataclass
class LintResult:
    """Everything one lint invocation produced."""

    findings: list[Finding] = field(default_factory=list)     # actionable
    baselined: list[Finding] = field(default_factory=list)    # accepted
    suppressed: int = 0
    files_checked: int = 0
    passes_run: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and self.findings:
            return 1
        return 0


def render_text(result: LintResult, verbose: bool = False) -> str:
    out = []
    for f in sorted(result.findings, key=Finding.sort_key):
        out.append(f"{f.location}: {f.severity.value}[{f.rule}] {f.message}")
        if f.source_line:
            out.append(f"    {f.source_line}")
    summary = (
        f"{len(result.errors)} error(s), {len(result.warnings)} warning(s)"
        f" in {result.files_checked} file(s)"
        f" [{len(result.passes_run)} pass(es)"
        f", {result.suppressed} suppressed"
        f", {len(result.baselined)} baselined]"
    )
    if result.findings:
        out.append("")
    out.append(summary)
    if verbose and result.baselined:
        out.append("baselined (accepted) findings:")
        for f in sorted(result.baselined, key=Finding.sort_key):
            out.append(f"  {f.location}: [{f.rule}] {f.message}")
    return "\n".join(out)


def render_json(result: LintResult) -> str:
    payload = {
        "findings": [f.to_json() for f in sorted(result.findings, key=Finding.sort_key)],
        "baselined": [
            f.to_json() for f in sorted(result.baselined, key=Finding.sort_key)
        ],
        "summary": {
            "errors": len(result.errors),
            "warnings": len(result.warnings),
            "suppressed": result.suppressed,
            "baselined": len(result.baselined),
            "files_checked": result.files_checked,
            "passes_run": result.passes_run,
        },
    }
    return json.dumps(payload, indent=2) + "\n"
