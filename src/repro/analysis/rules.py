"""The M3R lint rule catalog.

Each rule is a class with an ``id``, a one-line ``summary``, and a
``check(project)`` method returning :class:`Finding`\\ s.  The rules encode
the engine's unwritten determinism and fingerprint contracts:

========  ==============================================================
M3R002    iteration over a ``set`` / ``dict.values()`` inside code that
          feeds shuffle-plan or replay ordering (nondeterminism hazard)
M3R007    a lambda / function-local callable registered on a JobSpec
          (ReStore sees it only as a silent fingerprint bypass)
========  ==============================================================

Ids are never reused.  The gaps in the numbering (001, 006, 008) linted
for worker threads and pickling across a pipe and went with those
execution modes; 003, 004, 005, 009 and 010 went when seeded defects
showed each caught nothing a test does not (DESIGN.md §10.3).

Every rule is single-pass over the AST + call graph.  A finding is
accepted one way only: a ``# noqa`` naming the rule, with its reason, on
the flagged line (see :mod:`repro.analysis.linter`).
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.linter import Project

__all__ = [
    "Finding",
    "Rule",
    "UnorderedIterationRule",
    "LocalCallableRegistrationRule",
    "default_rules",
    "rule_by_id",
]


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str
    suppressed: bool = False

    @property
    def fingerprint(self) -> str:
        """A line-number-free identity in the JSON report: the same
        finding keeps it across unrelated edits, so two reports diff."""
        raw = f"{self.rule}|{self.path}|{self.symbol}|{self.message}"
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class Rule:
    """Base class: rules are stateless and check the whole project.

    ``rationale``/``example``/``fix`` back ``analyze --explain M3R00x``:
    why the rule exists, a minimal violating snippet, and the idiomatic
    repair.
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""
    example: str = ""
    fix: str = ""

    def check(self, project: "Project") -> List[Finding]:
        raise NotImplementedError


#: Function names that *define* shuffle-plan / replay ordering.
_ORDERING_ROOT_NAMES = frozenset({"build_plan", "plan", "replay"})


class UnorderedIterationRule(Rule):
    """M3R002: unordered iteration feeding shuffle-plan/replay ordering."""

    id = "M3R002"
    summary = "set/dict.values() iteration on a shuffle-ordering path"
    rationale = (
        "Shuffle-plan construction and replay must be deterministic: "
        "iterating a set (or dict.values() of unordered insertions) "
        "there makes plan order depend on hash seeds."
    )
    example = "def build_plan(parts):\n    for p in set(parts): ..."
    fix = "Wrap the iterable in sorted(...) with an explicit key."

    def check(self, project: "Project") -> List[Finding]:
        graph = project.call_graph
        roots = set(_ORDERING_ROOT_NAMES)
        for fn in graph.functions:
            if "shuffle/" in fn.relpath.replace("\\", "/"):
                roots.add(fn.name)
        reachable = graph.reachable_from(roots)
        findings: List[Finding] = []
        for fn in graph.functions:
            if fn.name not in reachable and fn.name not in roots:
                continue
            for node, iter_expr in self._iterations(fn.node):
                if self._is_ordered(iter_expr):
                    continue
                if self._is_unordered(iter_expr):
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=fn.relpath,
                            line=iter_expr.lineno,
                            col=iter_expr.col_offset,
                            symbol=fn.qualname,
                            message=(
                                f"iteration over "
                                f"{self._describe(iter_expr)} in "
                                f"{fn.qualname!r} feeds shuffle/replay "
                                f"ordering; wrap it in sorted(...)"
                            ),
                        )
                    )
        return findings

    @staticmethod
    def _iterations(root: ast.AST) -> Iterator[tuple]:
        for node in ast.walk(root):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node, node.iter
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    yield node, gen.iter

    @staticmethod
    def _is_ordered(expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("sorted", "enumerate", "range")
        )

    @staticmethod
    def _is_unordered(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if isinstance(expr.func, ast.Attribute) and expr.func.attr == "values":
                return True
        return False

    @staticmethod
    def _describe(expr: ast.expr) -> str:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return f"{expr.func.id}(...)"
        return "dict.values()"


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def iter_own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s body without descending into nested function, lambda
    or class scopes (the nested node itself is yielded; its body is not)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, _FUNCTION_NODES + (ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _local_bindings(function: ast.AST) -> Dict[str, str]:
    """Names ``function``'s own scope binds to a callable with no
    module-level identity, by kind: ``lambda`` (``name = lambda ...``),
    ``local function`` (a nested ``def``) or ``local class``."""
    bindings: Dict[str, str] = {}
    for child in iter_own_scope(function):
        if isinstance(child, ast.Assign) and isinstance(child.value, ast.Lambda):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = "lambda"
        elif isinstance(child, _FUNCTION_NODES):
            bindings[child.name] = "local function"
        elif isinstance(child, ast.ClassDef):
            bindings[child.name] = "local class"
    return bindings


#: JobSpec/JobConf entry points that register a user class for the job.
_JOBSPEC_SETTERS = frozenset(
    {
        "set_mapper_class",
        "set_reducer_class",
        "set_combiner_class",
        "set_map_runner_class",
        "set_partitioner_class",
        "set_input_format",
        "set_output_format",
    }
)


class LocalCallableRegistrationRule(Rule):
    """M3R007: lambda / function-local callable registered on a JobSpec."""

    id = "M3R007"
    summary = "lambda or function-local callable registered on a JobSpec"
    rationale = (
        "ReStore fingerprints a job by the identities of its registered "
        "classes; a lambda or a class/function defined inside a function "
        "has no stable module-level identity, so the fingerprinter "
        "silently bypasses the job.  This rule surfaces statically what "
        "ReStore only discovers as a missing cache hit."
    )
    example = (
        "def build(conf):\n"
        "    class LocalMapper(Mapper): ...\n"
        "    conf.set_mapper_class(LocalMapper)"
    )
    fix = (
        "Define the mapper/reducer at module level (parameterize through "
        "the JobConf, not through closure capture)."
    )

    def check(self, project: "Project") -> List[Finding]:
        findings: List[Finding] = []
        for fn in project.call_graph.functions:
            bindings = _local_bindings(fn.node)
            for node in iter_own_scope(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else node.func.id
                    if isinstance(node.func, ast.Name)
                    else ""
                )
                if callee not in _JOBSPEC_SETTERS:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    described = self._describe_local(arg, bindings)
                    if described is None:
                        continue
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=fn.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            symbol=fn.qualname,
                            message=(
                                f"{described} registered via {callee}() has "
                                f"no module-level identity; ReStore cannot "
                                f"fingerprint it (silent bypass)"
                            ),
                        )
                    )
        return findings

    @staticmethod
    def _describe_local(arg: ast.expr, bindings: Dict[str, str]) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "a lambda"
        if isinstance(arg, ast.Name) and arg.id in bindings:
            return f"{bindings[arg.id]} {arg.id!r}"
        return None


def default_rules() -> List[Rule]:
    """The shipped rule catalog, in id order."""
    return [
        UnorderedIterationRule(),
        LocalCallableRegistrationRule(),
    ]


def rule_by_id(code: str) -> Optional[Rule]:
    """The catalog rule with the given id (case-insensitive), if any —
    backs ``analyze --explain``."""
    wanted = code.strip().upper()
    for rule in default_rules():
        if rule.id == wanted:
            return rule
    return None
