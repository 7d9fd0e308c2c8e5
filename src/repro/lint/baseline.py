"""Committed finding baseline.

The baseline file (``lint_baseline.json`` at the repository root)
records fingerprints of findings that predate the lint gate and were
consciously accepted rather than fixed or inline-suppressed. The gate
then fails only on *new* findings. The intended steady state is an
empty list — inline ``# repro-lint: ignore[rule]`` comments with a
justification are preferred because they live next to the code.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.finding import Finding

BASELINE_NAME = "lint_baseline.json"


def load_baseline(path: Path) -> set[str]:
    """Fingerprints accepted by the committed baseline (empty if none)."""
    if not path.is_file():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict):  # {"comment": ..., "findings": [...]}
        data = data.get("findings", [])
    fingerprints: set[str] = set()
    for entry in data:
        if isinstance(entry, str):
            fingerprints.add(entry)
        elif isinstance(entry, dict) and "fingerprint" in entry:
            fingerprints.add(str(entry["fingerprint"]))
    return fingerprints


def write_baseline(path: Path, findings: list[Finding]) -> None:
    """Record ``findings`` as the baseline."""
    entries = [
        {
            "fingerprint": f.fingerprint,
            "rule": f.rule,
            "path": f.path,
            "source_line": f.source_line,
        }
        for f in sorted(findings, key=Finding.sort_key)
    ]
    payload = {
        "comment": "Accepted lint findings; regenerate with "
                   "`python -m repro lint --write-baseline`.",
        "findings": entries,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def split_baselined(
    findings: list[Finding], baseline: set[str]
) -> tuple[list[Finding], list[Finding]]:
    """Partition into (fresh, baselined)."""
    fresh, known = [], []
    for f in findings:
        (known if f.fingerprint in baseline else fresh).append(f)
    return fresh, known
