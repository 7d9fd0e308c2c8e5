"""Self-tests for the ``repro.lint`` invariant checker.

The contract proven here, per pass: its ``case_<pass>_bad.py`` fixture
yields exactly the seeded findings (and only from that pass), while
the ``case_<pass>_clean.py`` twin yields nothing under *any* pass.
Plus: suppression comments, the baseline round-trip, fingerprint
stability under line movement, the CLI surface, and — the gate itself
— the real tree linting clean.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    Severity,
    all_passes,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: pass name -> (bad fixture, expected Counter of rule -> occurrences)
EXPECTED = {
    "determinism": (
        "case_determinism_bad.py",
        {
            "set-iteration": 2,  # one lexical, one through a branch join
            "id-keyed-dict": 1,
            "wall-clock": 1,
            "float-identity": 1,
        },
    ),
    "thread-safety": (
        "case_thread_safety_bad.py",
        {
            "unguarded-attribute": 2,
            "unsynchronized-attribute": 4,
            "lock-order": 4,  # two ABBA pairs, one of them written as `with a, b:`
            "lock-held-blocking": 2,
        },
    ),
}


def lint_fixture(name: str, **kwargs):
    return run_lint(paths=[FIXTURES / name], root=FIXTURES, **kwargs)


# ---------------------------------------------------------------------------
# Each pass catches exactly its seeded violations...
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("pass_name", sorted(EXPECTED))
def test_bad_fixture_yields_exactly_the_seeded_findings(pass_name):
    fixture, expected = EXPECTED[pass_name]
    result = lint_fixture(fixture)
    assert Counter(f.rule for f in result.findings) == Counter(expected)
    # ... and every finding comes from the pass under test: no other
    # pass fires on this fixture.
    assert {f.pass_name for f in result.findings} == {pass_name}
    assert all(f.severity is Severity.ERROR for f in result.findings)
    assert all(f.path == fixture for f in result.findings)


@pytest.mark.parametrize("pass_name", sorted(EXPECTED))
def test_pass_filter_isolates_one_pass(pass_name):
    fixture, expected = EXPECTED[pass_name]
    result = lint_fixture(fixture, pass_names=[pass_name])
    assert result.passes_run == [pass_name]
    assert Counter(f.rule for f in result.findings) == Counter(expected)


# ---------------------------------------------------------------------------
# ... and stays silent on the behaviour-equivalent clean twin.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("pass_name", sorted(EXPECTED))
def test_clean_twin_yields_nothing_under_any_pass(pass_name):
    fixture = EXPECTED[pass_name][0].replace("_bad", "_clean")
    result = lint_fixture(fixture)
    assert result.findings == []
    assert len(result.passes_run) == len(all_passes())


def test_the_no_event_bug_reconstruction_is_caught():
    """The ``best is _NO_EVENT`` float-identity bug must be flagged on
    the exact line that reconstructs it."""
    result = lint_fixture("case_determinism_bad.py", pass_names=["determinism"])
    hits = [f for f in result.findings if f.rule == "float-identity"]
    assert len(hits) == 1
    assert "best is _NO_EVENT" in hits[0].source_line


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------
def test_inline_suppression_by_rule(tmp_path):
    bad = tmp_path / "clocky.py"
    bad.write_text(
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()"
        "  # repro-lint: ignore[wall-clock] progress display only\n"
    )
    result = run_lint(paths=[bad], root=tmp_path)
    assert result.findings == []
    assert result.suppressed == 1


def test_inline_suppression_names_must_match(tmp_path):
    bad = tmp_path / "clocky.py"
    bad.write_text(
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()  # repro-lint: ignore[set-iteration]\n"
    )
    result = run_lint(paths=[bad], root=tmp_path)
    assert [f.rule for f in result.findings] == ["wall-clock"]
    assert result.suppressed == 0


def test_bare_ignore_suppresses_every_rule(tmp_path):
    bad = tmp_path / "clocky.py"
    bad.write_text(
        "import time\n"
        "\n"
        "def stamp(memo, obj):\n"
        "    memo[id(obj)] = time.time()  # repro-lint: ignore\n"
    )
    result = run_lint(paths=[bad], root=tmp_path)
    assert result.findings == []
    assert result.suppressed == 2  # wall-clock and id-keyed-dict


# ---------------------------------------------------------------------------
# Baseline round-trip and fingerprint stability
# ---------------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    first = lint_fixture("case_determinism_bad.py")
    assert first.findings
    baseline = tmp_path / "lint_baseline.json"
    write_baseline(baseline, first.findings)
    assert load_baseline(baseline) == {f.fingerprint for f in first.findings}

    second = lint_fixture("case_determinism_bad.py", baseline_path=baseline)
    assert second.findings == []
    assert len(second.baselined) == len(first.findings)


def test_fingerprint_survives_line_movement():
    a = Finding("wall-clock", "m", "x.py", 10, source_line="t = time.time()")
    b = Finding("wall-clock", "m", "x.py", 99, source_line="t = time.time()")
    c = Finding("wall-clock", "m", "x.py", 10, source_line="t2 = time.time()")
    assert a.fingerprint == b.fingerprint  # moving code keeps the entry
    assert a.fingerprint != c.fingerprint  # editing the line invalidates it


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == set()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = str(FIXTURES / "case_determinism_bad.py")
    clean = str(FIXTURES / "case_determinism_clean.py")

    assert lint_main([clean]) == 0
    capsys.readouterr()

    report = tmp_path / "lint-report.json"
    assert lint_main([bad, "--json", "--report", str(report)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 5
    assert json.loads(report.read_text()) == payload

    assert lint_main(["--list-rules"]) == 0
    listing = capsys.readouterr().out.splitlines()
    passes = [line.split(":")[0] for line in listing if not line.startswith(" ")]
    assert passes == ["determinism", "thread-safety"]
    assert len(listing) - len(passes) == 8  # one indented line per rule


def test_cli_unknown_pass_is_a_usage_error(capsys):
    code = lint_main(["--pass", "no-such-pass"])
    assert code == 2
    assert "no-such-pass" in capsys.readouterr().err


def test_module_entry_point_dispatches_to_lint(capsys):
    from repro.__main__ import main as repro_main

    clean = str(FIXTURES / "case_determinism_clean.py")
    assert repro_main(["lint", clean]) == 0


# ---------------------------------------------------------------------------
# The gate itself: the real tree is clean.
# ---------------------------------------------------------------------------
def test_repository_tree_lints_clean():
    result = run_lint()
    assert result.findings == [], [f.location for f in result.findings]
    assert result.files_checked > 50
    assert set(result.passes_run) == set(EXPECTED)


def test_determinism_exclusions_name_existing_subpackages():
    # A retired subpackage left in the list would silently exempt any
    # future package reusing its name.
    from repro.lint.passes import determinism

    src = Path(determinism.__file__).resolve().parents[2]
    stale = {
        name for name in determinism._EXCLUDED_SUBPACKAGES
        if not (src / name / "__init__.py").is_file()
    } | {
        name for name in determinism._EXCLUDED_MODULES if not (src / name).is_file()
    }
    assert stale == set()
