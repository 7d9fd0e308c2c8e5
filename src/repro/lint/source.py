"""Source loading: parsed files, projects and suppression comments.

The checker is **pure-AST**: files are read and parsed, never imported
or executed, so linting cannot trigger side effects, and broken or
dependency-missing modules still get checked.

Suppressions
------------
A finding is suppressed by a trailing comment on the flagged line::

    t0 = time.time()  # repro-lint: ignore[wall-clock] progress display only

``ignore[rule-a,rule-b]`` suppresses the named rules; a bare
``ignore`` (no bracket) suppresses every rule on that line. A *pass
name* inside the bracket (``ignore[thread-safety]``) suppresses every
rule of that pass. Text after the bracket is the one-line
justification — encouraged everywhere, and **required** for rules
declared with ``needs_justification`` (the CLI keeps the finding when
the justification is missing).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([\w\-, ]*)\])?")


@dataclass
class SourceFile:
    """One parsed Python source file."""

    path: Path                 # absolute filesystem path
    relpath: str               # project-relative, '/'-separated
    text: str
    tree: ast.Module
    #: line -> set of suppressed rule/pass names ('*' = every rule).
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: line -> justification text following the ignore bracket.
    notes: dict[int, str] = field(default_factory=dict)

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    def line_text(self, line: int) -> str:
        lines = self.lines
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""

    def is_suppressed(self, line: int, rule: str, pass_name: str = "") -> bool:
        rules = self.suppressions.get(line)
        if not rules:
            return False
        if "*" in rules or rule in rules:
            return True
        return bool(pass_name) and pass_name in rules

    def suppression_note(self, line: int) -> str:
        """The justification text of the ignore comment on ``line``."""
        return self.notes.get(line, "")

    def iter_classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node


def _extract_suppressions(text: str) -> tuple[dict[int, set[str]], dict[int, str]]:
    out: dict[int, set[str]] = {}
    notes: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "repro-lint" not in line:
            continue
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        inner = m.group(1)
        if inner is None:
            out[lineno] = {"*"}
        else:
            rules = {r.strip() for r in inner.split(",") if r.strip()}
            out[lineno] = rules or {"*"}
        note = line[m.end():].strip()
        if note:
            notes[lineno] = note
    return out, notes


def load_source(path: Path, root: Path) -> Optional[SourceFile]:
    """Parse one file; returns None when it is not valid Python."""
    path = path.resolve()
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError:
        return None
    try:
        relpath = path.relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.name
    suppressions, notes = _extract_suppressions(text)
    return SourceFile(
        path=path,
        relpath=relpath,
        text=text,
        tree=tree,
        suppressions=suppressions,
        notes=notes,
    )


class Project:
    """The set of files one lint invocation analyzes.

    Cross-file passes (protocol drift) locate their anchor definitions
    *by name inside the project* — e.g. "the class named ``JobSpec``"
    — so the same passes run unchanged against the real tree and
    against self-test fixture twins.
    """

    def __init__(self, files: list[SourceFile], root: Path) -> None:
        self.files = files
        self.root = root
        self._class_index: dict[str, tuple[SourceFile, ast.ClassDef]] = {}
        for src in files:
            for node in src.iter_classes():
                self._class_index.setdefault(node.name, (src, node))

    def find_class(self, name: str) -> Optional[tuple[SourceFile, ast.ClassDef]]:
        return self._class_index.get(name)

    def iter_all_classes(self) -> Iterator[tuple[SourceFile, ast.ClassDef]]:
        for src in self.files:
            for node in src.iter_classes():
                yield src, node

    def find_function(self, name: str) -> Optional[tuple[SourceFile, ast.FunctionDef]]:
        for src in self.files:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    return src, node
        return None


def collect_files(paths: list[Path], root: Path) -> list[SourceFile]:
    """Expand files/directories into parsed sources (sorted, deduped)."""
    seen: set[Path] = set()
    ordered: list[Path] = []
    for p in paths:
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for c in candidates:
            c = c.resolve()
            if c.suffix == ".py" and c not in seen and c.is_file():
                seen.add(c)
                ordered.append(c)
    files = []
    for path in ordered:
        src = load_source(path, root)
        if src is not None:
            files.append(src)
    return files
