"""Interprocedural capture/escape dataflow over the bare-name call graph.

The PR-4 call graph (:mod:`repro.analysis.callgraph`) answers *who calls
whom*; this layer answers the question the task-kernel split (DESIGN.md
§16) rests on: **what does each callable close over, and what kinds of
object flow into it?**  Three artifacts per function:

* **bindings** — local names whose bound value the AST recognizes as a
  distinguished kind: locks and friends (``threading.Lock()``…), thread
  handles, file handles (``open``/``with open``), lambdas, nested
  functions, local classes, generator expressions.  The first group is
  *fatally unpicklable*: a closure capturing one is not a function of
  its explicit arguments, and the value cannot cross a place boundary.
* **closures** — the function's immediately nested defs and lambdas,
  each with its free-variable set and, after analysis, a classified
  :class:`Capture` per captured name.
* **tainted params** — kinds flowing *into* the function's parameters
  from call sites elsewhere in the project, propagated to fixpoint along
  call edges (so ``helper(lock)`` → ``helper``'s parameter carries
  ``lock``, and whatever ``helper`` forwards it to carries it too).

Like the call graph itself, everything is bare-name matched and
over-approximate — the right failure mode for a lint.  Consumers:

* rule **M3R006** (unpicklable capture reaching a spawn/serialize
  boundary) and rule **M3R007** (local callable registered on a JobSpec)
  in :mod:`repro.analysis.rules`;
* the ``analyze --report portability`` inventory in
  :mod:`repro.analysis.portability` — the gate that holds the task
  bodies at zero captures.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo

__all__ = [
    "Binding",
    "Capture",
    "ClosureInfo",
    "Dataflow",
    "FunctionSummary",
    "FATAL_KINDS",
    "SERIALIZE_APIS",
    "analyze_dataflow",
    "iter_own_scope",
    "free_names",
]

#: Object kinds that can never cross a pickle boundary.
FATAL_KINDS = frozenset(
    {
        "lock",
        "thread",
        "file-handle",
        "lambda",
        "local-function",
        "local-class",
        "generator",
    }
)

#: Callables that serialize (or measure serialization of) their arguments
#: — crossing one is the same portability event as crossing a spawn.
SERIALIZE_APIS = frozenset(
    {"measure", "measure_message", "measure_pairs", "dumps", "serialize"}
)

_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
     "Barrier"}
)
_THREAD_FACTORIES = frozenset({"Thread", "ThreadPoolExecutor"})
_FILE_FACTORIES = frozenset({"open", "TemporaryFile", "NamedTemporaryFile"})

#: Names that *look like* references into the long-lived engine: capturing
#: one is advisory, not fatal — the task body should take it through its
#: explicit ``TaskContext`` instead.
_ENGINE_REF = re.compile(
    r"(engine|bus|runtime|scope|governor|service|store|cache|filesystem|fs)",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Binding:
    """A local name bound to a value of a recognized kind."""

    kind: str
    fatal: bool
    line: int
    col: int


@dataclass(frozen=True)
class Capture:
    """One name a nested callable closes over, classified."""

    name: str
    kind: str
    fatal: bool
    #: Definition site of the capturing callable.
    line: int
    col: int
    #: Display name of the capturing callable (``reduce_task``, ``<lambda>``).
    via: str


@dataclass
class ClosureInfo:
    """One immediately nested def/lambda of a function."""

    name: str
    line: int
    col: int
    is_lambda: bool
    free_names: Set[str] = field(default_factory=set)
    captures: List[Capture] = field(default_factory=list)

    def fatal_captures(self) -> List[Capture]:
        return [c for c in self.captures if c.fatal]


@dataclass
class FunctionSummary:
    """The dataflow facts for one function definition."""

    info: FunctionInfo
    bindings: Dict[str, Binding] = field(default_factory=dict)
    closures: List[ClosureInfo] = field(default_factory=list)
    #: Closures reachable by local name (named defs and name-bound lambdas).
    closure_by_name: Dict[str, ClosureInfo] = field(default_factory=dict)
    #: param -> kinds flowing in from call sites (fixpoint result).
    tainted_params: Dict[str, Set[str]] = field(default_factory=dict)
    #: All names bound at this function's scope (params included).
    local_names: Set[str] = field(default_factory=set)

    def kinds_of(self, name: str) -> Set[str]:
        """Every kind known to flow into local ``name``."""
        kinds: Set[str] = set()
        binding = self.bindings.get(name)
        if binding is not None:
            kinds.add(binding.kind)
        kinds.update(self.tainted_params.get(name, ()))
        return kinds


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNCTION_NODES + (ast.Lambda,)


def _lambda_params(node: ast.Lambda) -> Set[str]:
    args = node.args
    names = {a.arg for a in getattr(args, "posonlyargs", [])}
    names |= {a.arg for a in args.args}
    names |= {a.arg for a in args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _iter_scope(node: ast.AST, *, skip_nested: bool = True):
    """Walk ``node``'s body without descending into nested function/class
    scopes (the nested def itself is yielded; its body is not)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if skip_nested and isinstance(child, _SCOPE_NODES + (ast.ClassDef,)):
            continue
        stack.extend(ast.iter_child_nodes(child))


#: Public alias: walk a node's own scope without entering nested defs,
#: lambdas or classes (the nested node itself is still yielded).
def iter_own_scope(node: ast.AST):
    return _iter_scope(node)


def _bound_names(node: ast.AST) -> Set[str]:
    """Names bound at ``node``'s own scope: params plus every store-context
    Name, loop/with/except target, import alias, and nested def/class name.
    Over-approximates comprehension scoping, which is fine for a lint."""
    bound: Set[str] = set()
    if isinstance(node, _FUNCTION_NODES):
        args = node.args
        bound |= {a.arg for a in getattr(args, "posonlyargs", [])}
        bound |= {a.arg for a in args.args}
        bound |= {a.arg for a in args.kwonlyargs}
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    elif isinstance(node, ast.Lambda):
        bound |= _lambda_params(node)
    nonlocal_names: Set[str] = set()
    for child in _iter_scope(node):
        if isinstance(child, ast.Name) and isinstance(
            child.ctx, (ast.Store, ast.Del)
        ):
            bound.add(child.id)
        elif isinstance(child, _FUNCTION_NODES + (ast.ClassDef,)):
            bound.add(child.name)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            bound.add(child.name)
        elif isinstance(child, ast.alias):
            bound.add(child.asname or child.name.split(".")[0])
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            nonlocal_names.update(child.names)
        elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp,
                                ast.GeneratorExp)):
            # Comprehension targets leak into our over-approximation of
            # the enclosing scope; harmless for free-variable math.
            for comp in child.generators:
                for name_node in ast.walk(comp.target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
    return bound - nonlocal_names


def _loaded_names(node: ast.AST) -> Set[str]:
    """Every load-context Name anywhere under ``node`` (nested scopes
    included — an inner closure's loads are the outer closure's problem
    too, since the chain keeps the cell alive)."""
    body = node.body if isinstance(node, ast.Lambda) else node
    loads: Set[str] = set()
    walker = ast.walk(body) if isinstance(body, ast.AST) else ()
    for child in walker:
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            loads.add(child.id)
    return loads


def _all_bound_transitively(node: ast.AST) -> Set[str]:
    """Names bound anywhere under ``node``, nested scopes included — used
    to subtract inner bindings from the free set."""
    bound = _bound_names(node)
    for child in _iter_scope(node):
        if isinstance(child, _SCOPE_NODES):
            bound |= _all_bound_transitively(child)
        elif isinstance(child, ast.ClassDef):
            bound.add(child.name)
    return bound


def free_names(node: ast.AST) -> Set[str]:
    """Free variables of a def/lambda: loads not bound at any level
    within it (builtins and globals still included — the caller
    intersects with the enclosing scope's locals)."""
    if isinstance(node, ast.Lambda):
        loads: Set[str] = set()
        for child in ast.walk(node.body):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                loads.add(child.id)
        bound = _lambda_params(node)
        for child in ast.walk(node.body):
            if isinstance(child, _SCOPE_NODES):
                bound |= _all_bound_transitively(child)
            elif isinstance(child, ast.Name) and isinstance(
                child.ctx, ast.Store
            ):
                bound.add(child.id)
        return loads - bound
    return _loaded_names(node) - _all_bound_transitively(node)


def _classify_value(value: ast.expr) -> Optional[Tuple[str, bool]]:
    """(kind, fatal) for a bound value the AST recognizes, else None."""
    if isinstance(value, ast.Lambda):
        return ("lambda", True)
    if isinstance(value, ast.GeneratorExp):
        return ("generator", True)
    if isinstance(value, ast.Call):
        name = ""
        if isinstance(value.func, ast.Name):
            name = value.func.id
        elif isinstance(value.func, ast.Attribute):
            name = value.func.attr
        if name in _LOCK_FACTORIES:
            return ("lock", True)
        if name in _THREAD_FACTORIES:
            return ("thread", True)
        if name in _FILE_FACTORIES:
            return ("file-handle", True)
    return None


class _SummaryBuilder:
    """First pass: bindings, closures and free-name sets for one function."""

    def __init__(self, info: FunctionInfo):
        self.summary = FunctionSummary(info=info)

    def build(self) -> FunctionSummary:
        node = self.summary.info.node
        summary = self.summary
        summary.local_names = _bound_names(node) | set(summary.info.params)
        claimed_lambdas: Set[int] = set()
        for child in _iter_scope(node):
            if isinstance(child, ast.Assign):
                classified = _classify_value(child.value)
                for target in child.targets:
                    if isinstance(target, ast.Name) and classified:
                        summary.bindings[target.id] = Binding(
                            classified[0], classified[1],
                            child.lineno, child.col_offset,
                        )
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(child.value, ast.Lambda)
                    ):
                        claimed_lambdas.add(id(child.value))
                        closure = self._closure_for(
                            child.value, name=target.id
                        )
                        summary.closure_by_name[target.id] = closure
            elif isinstance(child, ast.withitem):
                classified = _classify_value(child.context_expr)
                if (
                    classified
                    and child.optional_vars is not None
                    and isinstance(child.optional_vars, ast.Name)
                ):
                    summary.bindings[child.optional_vars.id] = Binding(
                        classified[0], classified[1],
                        child.context_expr.lineno,
                        child.context_expr.col_offset,
                    )
            elif isinstance(child, _FUNCTION_NODES):
                summary.bindings[child.name] = Binding(
                    "local-function", True, child.lineno, child.col_offset
                )
                closure = self._closure_for(child, name=child.name)
                summary.closure_by_name[child.name] = closure
            elif isinstance(child, ast.ClassDef):
                summary.bindings[child.name] = Binding(
                    "local-class", True, child.lineno, child.col_offset
                )
        # Anonymous lambdas (call arguments, dict values, ...) are
        # closures too — M3R006 and the portability report see them under
        # the display name ``<lambda>``.
        for child in _iter_scope(node):
            if isinstance(child, ast.Lambda) and id(child) not in claimed_lambdas:
                self._closure_for(child, name="<lambda>")
        return summary

    def _closure_for(self, node: ast.AST, name: str) -> ClosureInfo:
        closure = ClosureInfo(
            name=name,
            line=node.lineno,
            col=node.col_offset,
            is_lambda=isinstance(node, ast.Lambda),
            free_names=free_names(node) & self._enclosing_locals(),
        )
        self.summary.closures.append(closure)
        return closure

    def _enclosing_locals(self) -> Set[str]:
        return _bound_names(self.summary.info.node) | set(
            self.summary.info.params
        )


class Dataflow:
    """Project-wide capture/escape summaries, taint-propagated to fixpoint."""

    #: Safety valve for the fixpoint loop; real projects converge in < 5.
    MAX_ROUNDS = 25

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.summaries: Dict[Tuple[str, str], FunctionSummary] = {}
        for fn in graph.functions:
            self.summaries[(fn.relpath, fn.qualname)] = _SummaryBuilder(
                fn
            ).build()
        self._propagate()
        self._classify_captures()

    # -- lookups ----------------------------------------------------------- #

    def summary(self, fn: FunctionInfo) -> FunctionSummary:
        return self.summaries[(fn.relpath, fn.qualname)]

    def boundary_names(self) -> Set[str]:
        """Callee names that move or serialize their arguments: the spawn
        closure (factories and forwarders included) plus the serializers."""
        return self.graph.spawn_like | set(SERIALIZE_APIS)

    # -- fixpoint ---------------------------------------------------------- #

    def _propagate(self) -> None:
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for summary in self.summaries.values():  # noqa: M3R002 - fixpoint is iteration-order insensitive
                for site in summary.info.call_sites:
                    for callee in self.graph.by_name.get(site.callee, []):
                        if self._flow_into(summary, site, callee):
                            changed = True
            if not changed:
                return

    def _flow_into(self, caller, site, callee_info) -> bool:
        callee = self.summaries[(callee_info.relpath, callee_info.qualname)]
        params = callee_info.params
        offset = (
            1
            if params and params[0] in ("self", "cls") and site.is_attribute_call
            else 0
        )
        changed = False
        pairs = []
        for index, arg_name in enumerate(site.pos_args):
            if arg_name is None:
                continue
            param_index = index + offset
            if param_index < len(params):
                pairs.append((params[param_index], arg_name))
        for keyword, arg_name in site.kw_args.items():
            if arg_name is not None and keyword in params:
                pairs.append((keyword, arg_name))
        for param, arg_name in pairs:
            kinds = caller.kinds_of(arg_name)
            if not kinds:
                continue
            existing = callee.tainted_params.setdefault(param, set())
            before = len(existing)
            existing.update(kinds)
            if len(existing) != before:
                changed = True
        return changed

    # -- capture classification ------------------------------------------- #

    def _classify_captures(self) -> None:
        for summary in self.summaries.values():  # noqa: M3R002 - per-summary classification, order-free
            for closure in summary.closures:
                closure.captures = [
                    self._capture(summary, closure, name)
                    for name in sorted(closure.free_names)
                ]

    def _capture(self, summary, closure, name) -> Capture:
        binding = summary.bindings.get(name)
        if binding is not None:
            return Capture(
                name, binding.kind, binding.fatal,
                closure.line, closure.col, closure.name,
            )
        tainted = summary.tainted_params.get(name, set())
        fatal_taint = tainted & FATAL_KINDS
        if fatal_taint:
            kind = "param:" + ",".join(sorted(fatal_taint))
            return Capture(name, kind, True, closure.line, closure.col,
                           closure.name)
        if name == "self":
            return Capture(name, "self-reference", False, closure.line,
                           closure.col, closure.name)
        if _ENGINE_REF.search(name):
            return Capture(name, "engine-ref", False, closure.line,
                           closure.col, closure.name)
        if name in summary.info.params:
            return Capture(name, "param", False, closure.line, closure.col,
                           closure.name)
        return Capture(name, "local", False, closure.line, closure.col,
                       closure.name)


def analyze_dataflow(graph: CallGraph) -> Dataflow:
    """Build the project's capture/escape summaries (fixpoint included)."""
    return Dataflow(graph)
