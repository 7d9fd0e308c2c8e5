"""Result checker: feeds ``result_mismatch_frac`` and the exit code.

Rules (a job that breaks any of them counts once as mismatched):

(a) a job's fingerprint is identical every time it is produced —
    across passes, across cold and warm rounds;
(b) a job that coincides with a cell of ``tests/golden_stats.json``
    equals that cell. The file is read at run time, so a legitimate
    model change updates it in its own PR and the benchmark follows;
(c) ``base_vector`` equals ``base_default`` job for job;
(d) every executor / HTTP result equals the in-process result for the
    same spec;
(e) ``l1_hits + victim_hits + l1_misses + bypasses + stores ==
    mem_requests`` on every result.

The fingerprint is the ``tests/golden.py::result_fingerprint`` field
set, re-implemented here because the benchmark may not import from
``tests/``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = REPO_ROOT / "tests" / "golden_stats.json"


def result_fingerprint(result) -> dict:
    """Every pinned statistic of one simulation, as plain JSON types."""
    stats = result.sm_stats
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "loads": sum(s.loads for s in stats),
        "stores": sum(s.stores for s in stats),
        "l1_hits": sum(s.l1_hits for s in stats),
        "l1_misses": sum(s.l1_misses for s in stats),
        "victim_hits": sum(s.victim_hits for s in stats),
        "bypasses": sum(s.bypasses for s in stats),
        "mem_requests": sum(s.mem_requests for s in stats),
        "dram_reads": result.dram_reads,
        "dram_writes": result.dram_writes,
        "demand_read_lines": result.traffic.demand_read_lines,
        "store_write_lines": result.traffic.store_write_lines,
        "backup_write_lines": result.traffic.backup_write_lines,
        "restore_read_lines": result.traffic.restore_read_lines,
        "bank_conflicts": result.bank_conflicts,
        "per_sm_instructions": [s.instructions for s in stats],
    }


def conservation_problem(fp: dict) -> Optional[str]:
    served = (fp["l1_hits"] + fp["victim_hits"] + fp["l1_misses"]
              + fp["bypasses"] + fp["stores"])
    if served != fp["mem_requests"]:
        return f"conservation: {served} served != {fp['mem_requests']} requests"
    return None


def _diff(left: dict, right: dict) -> str:
    keys = [k for k in sorted(set(left) | set(right)) if left.get(k) != right.get(k)]
    return ", ".join(f"{k}: {left.get(k)} != {right.get(k)}" for k in keys[:4])


def load_golden() -> dict:
    """The golden matrix, or ``{}`` when the tests tree is not there."""
    try:
        return json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return {}


class Checker:
    """Accumulates checked / mismatched job counts for one workload."""

    def __init__(self, perturb_first: bool = False) -> None:
        #: Harness self-test: corrupt the first result seen, as a wrong
        #: answer from the program would; the run must then exit non-zero.
        self.perturb_first = perturb_first
        self.checked = 0
        self.problems: list[str] = []
        self.fingerprints: dict[str, dict] = {}
        self._bad: set[str] = set()
        self._golden = load_golden()
        self.golden_cells: list[str] = []

    @property
    def mismatched(self) -> int:
        return len(self._bad)

    def _fail(self, label: str, message: str) -> None:
        self._bad.add(label)
        self.problems.append(f"{label}: {message}")

    def observe(self, label: str, result, golden_cell: Optional[str] = None) -> dict:
        """Check one produced result under rules (a), (b) and (e).

        ``label`` identifies the job within the workload (the same
        label must always yield the same fingerprint). Returns the
        fingerprint for the caller's run-table row.
        """
        fp = result_fingerprint(result)
        if self.perturb_first:
            self.perturb_first = False
            fp["instructions"] += 1
        first = self.fingerprints.setdefault(label, fp)
        if first is fp:
            self.checked += 1
            problem = conservation_problem(fp)
            if problem:
                self._fail(label, problem)
            if golden_cell is not None and golden_cell in self._golden:
                self.golden_cells.append(golden_cell)
                if fp != self._golden[golden_cell]:
                    self._fail(label, f"differs from golden cell {golden_cell} "
                                      f"({_diff(fp, self._golden[golden_cell])})")
        elif fp != first:
            self._fail(label, f"not repeatable ({_diff(fp, first)})")
        return fp

    def expect_equal(self, label: str, reference: Optional[dict], what: str) -> None:
        """Rules (c)/(d): ``label``'s fingerprint equals ``reference``."""
        fp = self.fingerprints.get(label)
        if fp is None or reference is None:
            self._fail(label, f"no result to compare with {what}")
        elif fp != reference:
            self._fail(label, f"differs from {what} ({_diff(fp, reference)})")

    def summary(self) -> dict:
        return {
            "checked": self.checked,
            "mismatched": self.mismatched,
            "problems": self.problems[:20],
            "golden_cells": sorted(set(self.golden_cells)),
        }
