"""The analysis driver: load sources, run rules, apply ``# noqa``.

``Analyzer().run([Path("src/repro")])`` parses every ``*.py`` under the
given roots, builds the project-wide call graph once, runs each rule from
:func:`repro.analysis.rules.default_rules`, and marks suppressions.

Suppression is per line, flake8-style, and the only way to accept a
finding: a ``# noqa: M3R002 - reason`` comment on the flagged line
suppresses that rule there (several ids may be listed, comma-separated);
a bare ``# noqa`` suppresses every rule on the line.  Suppressed findings
stay in the report (marked ``suppressed``) so reviewers can still see
them — they just don't gate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.rules import Finding, Rule, default_rules

__all__ = ["Module", "Project", "Analyzer", "load_project"]

# A rule id is letters followed by digits (M3R002, E501, ...).  The codes
# group must match *id tokens* specifically, not "any uppercase-ish text":
# the old pattern ``[A-Z0-9,\s]+`` under IGNORECASE swallowed trailing
# prose ("# noqa: M3R002,M3R004 and why"), so the second id parsed as
# "M3R004 AND WHY" and its suppression silently failed.
_NOQA_CODE = r"[A-Za-z][A-Za-z0-9]*[0-9]"
_NOQA = re.compile(
    rf"#\s*noqa(?!\w)"
    rf"(?P<colon>:\s*(?P<codes>{_NOQA_CODE}(?:\s*,\s*{_NOQA_CODE})*)?)?",
    re.IGNORECASE,
)


@dataclass
class Module:
    """One parsed source file."""

    path: Path
    relpath: str
    source: str
    lines: List[str]
    tree: ast.Module


class Project:
    """All parsed modules plus the shared call graph."""

    def __init__(self, modules: List[Module]):
        self.modules = modules
        self.call_graph: CallGraph = build_call_graph(
            [(m.relpath, m.tree) for m in modules]
        )


def _iter_sources(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def load_project(roots: Sequence[Path]) -> Project:
    """Parse every python file under ``roots`` into a :class:`Project`.

    Relative paths are reported from each root's parent, so a run over
    ``src/repro`` yields paths like ``repro/core/engine.py``.
    """
    modules: List[Module] = []
    seen = set()
    for root in roots:
        root = Path(root)
        base = root.parent if root.is_dir() else root.parent
        for path in _iter_sources(root):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                # A file that doesn't parse can't be analyzed; the test
                # suite / interpreter will report it far better than we can.
                continue
            try:
                relpath = str(path.relative_to(base))
            except ValueError:
                relpath = path.name
            modules.append(
                Module(
                    path=path,
                    relpath=relpath,
                    source=source,
                    lines=source.splitlines(),
                    tree=tree,
                )
            )
    return Project(modules)


def _suppressed_codes(line: str) -> Optional[List[str]]:
    """``None`` if the line has no noqa; ``[]`` for a bare ``# noqa``;
    otherwise the listed rule ids.  ``# noqa:`` with a colon but nothing
    that parses as a rule id suppresses *nothing* (flake8 semantics) —
    it is returned as an impossible code rather than a bare noqa."""
    match = _NOQA.search(line)
    if match is None:
        return None
    if match.group("colon") is None:
        return []
    codes = match.group("codes")
    if not codes:
        return ["<invalid>"]
    return [code.strip().upper() for code in codes.split(",") if code.strip()]


class Analyzer:
    """Run the rule catalog over a set of source roots."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        self.rules: List[Rule] = list(rules) if rules is not None else default_rules()

    def run(self, roots: Sequence[Path]) -> List[Finding]:
        project = load_project(roots)
        return self.run_project(project)

    def run_project(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for rule in self.rules:
            findings.extend(rule.check(project))
        self._apply_noqa(project, findings)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    @staticmethod
    def _apply_noqa(project: Project, findings: List[Finding]) -> None:
        by_path = {module.relpath: module for module in project.modules}
        for finding in findings:
            module = by_path.get(finding.path)
            if module is None or not (1 <= finding.line <= len(module.lines)):
                continue
            codes = _suppressed_codes(module.lines[finding.line - 1])
            if codes is None:
                continue
            if not codes or finding.rule.upper() in codes:
                finding.suppressed = True
