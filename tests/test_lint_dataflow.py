"""Unit tests for the dataflow layer under ``repro.lint`` and the
passes built on it.

Covers, bottom-up:

* the CFG builder — branch joins, loop back-edges, ``with`` regions,
  ``try`` exception edges, dead code after ``return``;
* :class:`ReachingDefinitions` (may) and :class:`HeldLocks` (must)
  and the :func:`any_path_has` reachability helper;
* flow-sensitivity of the retrofitted determinism pass (a ``sorted``
  rebinding on any path suppresses ``set-iteration``; a seed placed
  *after* the draw no longer counts);
* required-justification suppressions for thread-safety findings;
* protocol-drift against copies of the **real** surface modules: the
  tree is in sync today, deleting a field one-sided is twin drift, and
  deleting it from both sides demands a version-constant bump that
  then clears the finding;
* the ``--sarif`` CLI surface.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

from repro.lint import run_lint, write_baseline
from repro.lint.cfg import build_cfg, stmt_owned_exprs
from repro.lint.dataflow import HeldLocks, ReachingDefinitions, any_path_has

SRC = Path(__file__).parent.parent / "src" / "repro"
FIXTURES = Path(__file__).parent / "lint_fixtures"


def fn_cfg(source: str):
    fn = ast.parse(textwrap.dedent(source)).body[0]
    return fn, build_cfg(fn)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------
def test_branch_join_merges_definitions():
    fn, cfg = fn_cfg(
        """
        def f(flag):
            x = 1
            if flag:
                x = 2
            return x
        """
    )
    rd = ReachingDefinitions(cfg)
    ret = fn.body[-1]
    values = {d.value.value for d in rd.reaching(ret, "x")}
    assert values == {1, 2}  # both arms survive the join (may-analysis)


def test_straight_line_redefinition_kills_the_old_binding():
    fn, cfg = fn_cfg(
        """
        def f():
            x = 1
            x = 2
            return x
        """
    )
    rd = ReachingDefinitions(cfg)
    values = {d.value.value for d in rd.reaching(fn.body[-1], "x")}
    assert values == {2}


def test_loop_back_edge_carries_the_body_definition_around():
    fn, cfg = fn_cfg(
        """
        def f(items):
            total = 0
            for item in items:
                total = total + item
            return total
        """
    )
    rd = ReachingDefinitions(cfg)
    loop = fn.body[1]
    body_stmt = loop.body[0]
    # On iteration 2+ the body's own assignment reaches the body again
    # (via head -> body with the back-edge folded into head's input).
    assert len(rd.reaching(body_stmt, "total")) == 2
    assert len(rd.reaching(fn.body[-1], "total")) == 2
    # ... and the loop target is defined by the For header itself.
    assert {d.node for d in rd.reaching(body_stmt, "item")} == {loop}


def test_parameters_reach_the_entry():
    fn, cfg = fn_cfg(
        """
        def f(a, b=1, *rest, **kw):
            return a
        """
    )
    rd = ReachingDefinitions(cfg)
    assert set(rd.defs_at(fn.body[0])) == {"a", "b", "rest", "kw"}


def test_with_region_annotates_held_contexts():
    fn, cfg = fn_cfg(
        """
        def f(self):
            with self._lock:
                self.count = 1
            self.done = True
        """
    )
    inside = fn.body[0].body[0]
    after = fn.body[1]
    assert cfg.held_at(inside) == ("self._lock",)
    assert cfg.held_at(after) == ()


def test_nested_with_regions_stack_outermost_first():
    fn, cfg = fn_cfg(
        """
        def f(self):
            with self._a:
                with self._b:
                    self.x = 1
        """
    )
    innermost = fn.body[0].body[0].body[0]
    assert cfg.held_at(innermost) == ("self._a", "self._b")


def test_code_after_return_is_indexed_but_unreachable():
    fn, cfg = fn_cfg(
        """
        def f():
            return 1
            x = 2
        """
    )
    dead = fn.body[1]
    assert cfg.block_of(dead) is not None  # analyses can still see it
    assert not cfg.reachable_between(fn.body[0], dead)


def test_try_body_reaches_handlers_and_rejoins():
    fn, cfg = fn_cfg(
        """
        def f():
            try:
                risky()
                x = 1
            except ValueError:
                x = 2
            return x
        """
    )
    body_call, body_assign = fn.body[0].body
    handler_assign = fn.body[0].handlers[0].body[0]
    # An exception may escape any try-body statement into the handler.
    assert cfg.reachable_between(body_call, handler_assign)
    rd = ReachingDefinitions(cfg)
    values = {d.value.value for d in rd.reaching(fn.body[-1], "x")}
    assert values == {1, 2}


def test_stmt_owned_exprs_covers_headers_only():
    fn, _ = fn_cfg(
        """
        def f(self, items, flag):
            if flag:
                pass
            for i in items:
                pass
            with self._lock:
                pass
            try:
                pass
            finally:
                pass
            x = 1
        """
    )
    if_s, for_s, with_s, try_s, assign = fn.body
    assert stmt_owned_exprs(if_s) == [if_s.test]
    assert stmt_owned_exprs(for_s) == [for_s.target, for_s.iter]
    assert stmt_owned_exprs(with_s) == [with_s.items[0].context_expr]
    assert stmt_owned_exprs(try_s) == []
    assert stmt_owned_exprs(assign) == [assign]  # simple stmt: whole subtree


# ---------------------------------------------------------------------------
# HeldLocks must-analysis and reachability
# ---------------------------------------------------------------------------
def test_explicit_acquire_is_held_until_released():
    fn, cfg = fn_cfg(
        """
        def f(self):
            self._lock.acquire()
            self.touch()
            self._lock.release()
            self.after()
        """
    )
    locks = HeldLocks(cfg)
    assert locks.held_at(fn.body[1]) == {"self._lock"}
    assert locks.held_at(fn.body[3]) == frozenset()


def test_release_on_one_path_is_not_held_after_the_join():
    fn, cfg = fn_cfg(
        """
        def f(self, flag):
            self._lock.acquire()
            if flag:
                self._lock.release()
            self.touch()
        """
    )
    locks = HeldLocks(cfg)
    # Must-analysis: held only when *every* path holds it.
    assert locks.held_at(fn.body[-1]) == frozenset()


def test_held_at_merges_lexical_with_and_explicit_acquire():
    fn, cfg = fn_cfg(
        """
        def f(self):
            self._io.acquire()
            with self._lock:
                self.touch()
        """
    )
    locks = HeldLocks(cfg)
    assert locks.held_at(fn.body[1].body[0]) == {"self._io", "self._lock"}


def test_any_path_has_respects_direction():
    fn, cfg = fn_cfg(
        """
        def f(flag):
            if flag:
                prepare()
            launch()
        """
    )
    prepare = fn.body[0].body[0]
    launch = fn.body[1]

    def is_call(name):
        return lambda s: any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == name
            for n in ast.walk(s)
        )

    assert any_path_has(cfg, launch, is_call("prepare"))
    assert not any_path_has(cfg, prepare, is_call("launch"))


# ---------------------------------------------------------------------------
# Flow-sensitive determinism
# ---------------------------------------------------------------------------
def lint_snippet(tmp_path, source, passes=None):
    target = tmp_path / "snippet.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(paths=[target], root=tmp_path, pass_names=passes)


def test_sorted_on_any_path_suppresses_set_iteration(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def norm(flag):
            ids = {1, 2}
            if flag:
                ids = sorted(ids)
            return [i for i in ids]
        """,
    )
    assert result.findings == []


def test_set_on_every_path_still_flags(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def leak(flag):
            ids = {1, 2}
            if flag:
                ids = {3, 4}
            return [i for i in ids]
        """,
    )
    assert [f.rule for f in result.findings] == ["set-iteration"]


def test_seed_before_draw_is_clean_seed_after_is_not(tmp_path):
    clean = lint_snippet(
        tmp_path,
        """
        import random

        def roll():
            random.seed(7)
            return random.random()
        """,
    )
    assert clean.findings == []

    late = lint_snippet(
        tmp_path,
        """
        import random

        def roll():
            value = random.random()
            random.seed(7)
            return value
        """,
    )
    assert [f.rule for f in late.findings] == ["unseeded-random"]


# ---------------------------------------------------------------------------
# Required-justification suppressions (thread-safety rules)
# ---------------------------------------------------------------------------
RACY_CLASS = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self.value = 0

        def put(self, v):
            self.value = v  # repro-lint: ignore[thread-safety]{note}

        def get(self):
            with self._lock:
                return self.value
"""


def test_suppression_without_justification_keeps_the_finding(tmp_path):
    result = lint_snippet(tmp_path, RACY_CLASS.format(note=""))
    assert [f.rule for f in result.findings] == ["unguarded-attribute"]
    assert "justification" in result.findings[0].message
    assert result.suppressed == 0


def test_suppression_with_justification_is_honoured(tmp_path):
    result = lint_snippet(
        tmp_path, RACY_CLASS.format(note=" single aligned store; GIL-atomic")
    )
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# Protocol drift against the real surface modules
# ---------------------------------------------------------------------------
SURFACE_FILES = (
    "options.py",
    "runner/wire.py",
    "runner/spec.py",
    "runner/cache.py",
    "service/schema.py",
)


def copy_surfaces(tmp_path):
    for rel in SURFACE_FILES:
        dest = tmp_path / Path(rel).name
        dest.write_text((SRC / rel).read_text(encoding="utf-8"), encoding="utf-8")
    return tmp_path


def drift_lint(root, baseline=None):
    return run_lint(
        paths=[root], root=root, baseline_path=baseline,
        pass_names=["protocol-drift"],
    )


def mutate(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor vanished from {path.name}: {old!r}"
    path.write_text(text.replace(old, new), encoding="utf-8")


def test_the_real_surfaces_are_in_sync(tmp_path):
    result = drift_lint(copy_surfaces(tmp_path))
    assert result.findings == []
    assert set(result.schemas) >= {
        "wire-hello", "config", "http-job", "run-options", "jobspec",
    }


def test_one_sided_field_deletion_is_twin_drift(tmp_path):
    root = copy_surfaces(tmp_path)
    mutate(root / "wire.py", '            "pid": os.getpid(),\n', "")
    result = drift_lint(root)
    assert [f.rule for f in result.findings] == ["schema-twin-drift"]
    assert "'pid'" in result.findings[0].message


def test_run_options_field_deletion_demands_a_version_bump(tmp_path):
    root = copy_surfaces(tmp_path)
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, [], schemas=drift_lint(root).schemas)
    assert drift_lint(root, baseline).findings == []  # in sync, versioned

    mutate(root / "options.py", "    timeseries: bool = False\n", "")
    drifted = drift_lint(root, baseline)
    assert [f.rule for f in drifted.findings] == ["schema-version-unbumped"]
    assert "run-options" in drifted.findings[0].message

    mutate(root / "schema.py", "JOB_SCHEMA_VERSION = 3", "JOB_SCHEMA_VERSION = 4")
    assert drift_lint(root, baseline).findings == []  # bump acknowledges it


def test_http_job_field_deletion_demands_a_version_bump(tmp_path):
    root = copy_surfaces(tmp_path)
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, [], schemas=drift_lint(root).schemas)

    # Drop "options" from *both* sides so the twins stay consistent:
    # only the recorded fingerprint disagrees.
    mutate(root / "schema.py", 'doc["options"] = opt_fields', "pass")
    mutate(root / "schema.py", '"options", "overrides", "workload"}',
           '"overrides", "workload"}')
    mutate(root / "schema.py", 'opt_doc = doc.get("options", {})', "opt_doc = {}")
    drifted = drift_lint(root, baseline)
    assert [f.rule for f in drifted.findings] == ["schema-version-unbumped"]
    assert "http-job" in drifted.findings[0].message

    mutate(root / "schema.py", "JOB_SCHEMA_VERSION = 3", "JOB_SCHEMA_VERSION = 4")
    assert drift_lint(root, baseline).findings == []


# ---------------------------------------------------------------------------
# Protocol drift on the workload-spec surface (fixture twins)
# ---------------------------------------------------------------------------
def test_workload_spec_fixture_pair():
    bad = drift_lint_paths([FIXTURES / "case_workload_spec_bad.py"])
    assert sorted(f.rule for f in bad.findings) == [
        "schema-twin-drift", "schema-twin-drift",
    ]
    messages = " ".join(f.message for f in bad.findings)
    assert "'shared_mem_per_cta'" in messages
    assert "'priority'" in messages
    assert all("workload-spec" in f.message for f in bad.findings)

    clean = drift_lint_paths([FIXTURES / "case_workload_spec_clean.py"])
    assert clean.findings == []


def test_real_workload_spec_surface_is_in_sync(tmp_path):
    dest = tmp_path / "spec.py"
    dest.write_text(
        (SRC / "workloads/spec.py").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    result = drift_lint(tmp_path)
    assert result.findings == []
    assert "workload-spec" in result.schemas


def test_workload_field_deletion_demands_a_version_bump(tmp_path):
    dest = tmp_path / "spec.py"
    dest.write_text(
        (SRC / "workloads/spec.py").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, [], schemas=drift_lint(tmp_path).schemas)
    assert drift_lint(tmp_path, baseline).findings == []

    # Drop "description" from both twins: only the fingerprint knows.
    mutate(dest, '        "description": spec.description,\n', "")
    mutate(dest, '"name", "description", "num_ctas"', '"name", "num_ctas"')
    mutate(dest, 'description = top.get("description", "")',
           'description = ""')
    drifted = drift_lint(tmp_path, baseline)
    assert [f.rule for f in drifted.findings] == ["schema-version-unbumped"]
    assert "workload-spec" in drifted.findings[0].message
    assert "WORKLOAD_SPEC_VERSION" in drifted.findings[0].message

    mutate(dest, "WORKLOAD_SPEC_VERSION = 1", "WORKLOAD_SPEC_VERSION = 2")
    assert drift_lint(tmp_path, baseline).findings == []


def drift_lint_paths(paths):
    return run_lint(
        paths=paths, root=FIXTURES, pass_names=["protocol-drift"],
    )


# ---------------------------------------------------------------------------
# CLI: --sarif
# ---------------------------------------------------------------------------
def test_sarif_report_is_written(tmp_path, capsys):
    from repro.lint.cli import main as lint_main

    out = tmp_path / "lint.sarif"
    bad = str(FIXTURES / "case_thread_safety_bad.py")
    assert lint_main([bad, "--sarif", str(out)]) == 1
    capsys.readouterr()

    sarif = json.loads(out.read_text(encoding="utf-8"))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"unguarded-attribute", "schema-twin-drift"} <= rule_ids
    results = run["results"]
    assert len(results) == 10
    assert all(r["partialFingerprints"]["reproLint/v1"] for r in results)
    locations = {
        r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        for r in results
    }
    assert locations == {"tests/lint_fixtures/case_thread_safety_bad.py"}
