"""A bare-name AST call graph with reachability queries.

The lint rules need two whole-project facts that no single-module pass can
provide: the list of every function definition (M3R007 scans each one for
JobSpec registrations) and which functions feed **shuffle-plan / replay
ordering** (M3R002 walks the graph from its ordering roots).

Python has no static types here, so the graph is built by *bare-name
matching*: a call ``foo(...)`` or ``anything.foo(...)`` is an edge to every
known function named ``foo``.  That over-approximates (two unrelated
``get`` methods alias), which is the right failure mode for a lint — a
false edge can only make the rules *more* suspicious, never blind.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

__all__ = [
    "FunctionInfo",
    "CallGraph",
    "build_call_graph",
]


@dataclass
class FunctionInfo:
    """Everything the rules need to know about one function definition."""

    name: str
    qualname: str
    relpath: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Bare names of everything the body calls (nested defs included).
    callees: Set[str] = field(default_factory=set)


def _callee_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class _FunctionCollector(ast.NodeVisitor):
    """Collect every function definition in a module, with qualnames."""

    def __init__(self, relpath: str):
        self.relpath = relpath
        self.functions: List[FunctionInfo] = []
        self._scope: List[str] = []

    def _visit_function(self, node: ast.AST) -> None:
        info = FunctionInfo(
            name=node.name,
            qualname=".".join(self._scope + [node.name]),
            relpath=self.relpath,
            node=node,
        )
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                callee = _callee_name(child.func)
                if callee:
                    info.callees.add(callee)
        self.functions.append(info)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()


class CallGraph:
    """All functions in the project plus bare-name reachability."""

    def __init__(self, functions: List[FunctionInfo]):
        self.functions = functions
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        for fn in functions:
            self.by_name.setdefault(fn.name, []).append(fn)

    def reachable_from(self, root_names: Iterable[str]) -> Set[str]:
        """Names of functions reachable from ``root_names`` via bare-name
        call edges (the roots themselves included when known)."""
        seen: Set[str] = set()
        frontier = [name for name in root_names if name in self.by_name]
        seen.update(frontier)
        while frontier:
            name = frontier.pop()
            for fn in self.by_name.get(name, []):
                for callee in fn.callees:
                    if callee in self.by_name and callee not in seen:
                        seen.add(callee)
                        frontier.append(callee)
        return seen


def build_call_graph(
    modules: Sequence[Tuple[str, ast.Module]]
) -> CallGraph:
    """Build the project call graph from ``(relpath, tree)`` pairs."""
    functions: List[FunctionInfo] = []
    for relpath, tree in modules:
        collector = _FunctionCollector(relpath)
        collector.visit(tree)
        functions.extend(collector.functions)
    return CallGraph(functions)
