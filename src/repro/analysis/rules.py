"""The M3R lint rule catalog.

Each rule is a class with an ``id``, a one-line ``summary``, and a
``check(project)`` method returning :class:`Finding`\\ s.  The rules encode
the engine's unwritten concurrency/immutability/determinism contracts:

========  ==============================================================
M3R002    iteration over a ``set`` / ``dict.values()`` inside code that
          feeds shuffle-plan or replay ordering (nondeterminism hazard)
M3R003    attribute writes on ``ImmutableOutput``-registered classes
          outside ``__init__``/builders
M3R004    a bare ``except``/``except Exception`` that swallows the error
          (no re-raise, never reads the bound exception)
M3R005    a package ``__init__.py`` without an ``__all__`` export list
          (the import-surface ground truth)
M3R007    a lambda / function-local callable registered on a JobSpec
          (ReStore sees it only as a silent fingerprint bypass)
M3R009    an ``AssociativeReducer``/allowlist associativity claim whose
          ``reduce`` mutates inputs, keeps cross-call state, or branches
          on arrival order
M3R010    an ``m3r.*`` knob string literal outside the KnobRegistry
          (misspelled knobs silently no-op)
========  ==============================================================

Ids are never reused: the gaps in the numbering (001, 006, 008) linted for
worker threads and pickling across a pipe and went with those execution
modes.

Every rule is single-pass over the AST + call graph.  A finding is
accepted one way only: a ``# noqa`` naming the rule, with its reason, on
the flagged line (see :mod:`repro.analysis.linter`).
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.linter import Project

__all__ = [
    "Finding",
    "Rule",
    "UnorderedIterationRule",
    "ImmutableOutputWriteRule",
    "SwallowedExceptionRule",
    "ImportSurfaceRule",
    "LocalCallableRegistrationRule",
    "AssociativityClaimRule",
    "KnobLiteralRule",
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


def _root_name(expr: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


#: Raw-container method calls that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }
)


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


#: Methods allowed to write attributes on an ImmutableOutput class.
#: ``configure`` is Hadoop's JobConfigurable lifecycle hook: it runs once,
#: before any record is processed, and is therefore part of construction.
_BUILDER_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__setstate__", "configure"}
)
_BUILDER_PREFIXES = ("with_", "_build")


def _project_classes(project: "Project") -> List[tuple]:
    """Every ``(module relpath, ClassDef)`` in the project."""
    return [
        (module.relpath, node)
        for module in project.modules
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef)
    ]


def _marker_subclasses(classes: List[tuple], marker: str) -> List[tuple]:
    """The classes that transitively subclass the marker class ``marker``
    (M3R003's ``ImmutableOutput``, M3R009's ``AssociativeReducer``),
    the marker's own definition included.

    The closure is keyed by (module, class name): a base naming a class of
    the same module resolves to that class, and only an imported base
    falls back to the project-wide bare name — otherwise an unrelated
    class that merely shares a marked class's name elsewhere in the
    project would be checked as if it carried the marker.
    """
    local = {(relpath, cls.name) for relpath, cls in classes}
    marked: Set[tuple] = {key for key in local if key[1] == marker}
    names: Set[str] = {marker}
    changed = True
    while changed:
        changed = False
        for relpath, cls in classes:
            if (relpath, cls.name) in marked:
                continue
            for base in cls.bases:
                base_name = (
                    base.id
                    if isinstance(base, ast.Name)
                    else base.attr
                    if isinstance(base, ast.Attribute)
                    else None
                )
                same_module = (relpath, base_name)
                inherits = (
                    same_module in marked
                    if same_module in local
                    else base_name in names
                )
                if inherits:
                    marked.add((relpath, cls.name))
                    names.add(cls.name)
                    changed = True
                    break
    return [(rp, cls) for rp, cls in classes if (rp, cls.name) in marked]


class ImmutableOutputWriteRule(Rule):
    """M3R003: post-construction attribute writes on ImmutableOutput."""

    id = "M3R003"
    summary = "attribute write on an ImmutableOutput class outside builders"
    rationale = (
        "ImmutableOutput licenses the engine to alias emitted objects "
        "instead of cloning; a post-construction attribute write breaks "
        "every aliased copy downstream."
    )
    example = "class W(ImmutableOutput):\n    def map(self, ...):\n        self.buf = []"
    fix = (
        "Confine writes to __init__/configure/builder methods, or drop "
        "the ImmutableOutput marker."
    )

    def check(self, project: "Project") -> List[Finding]:
        findings: List[Finding] = []
        for relpath, cls in _marker_subclasses(
            _project_classes(project), "ImmutableOutput"
        ):
            if cls.name == "ImmutableOutput":
                continue
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name in _BUILDER_METHODS or method.name.startswith(
                    _BUILDER_PREFIXES
                ):
                    continue
                if not method.args.args:
                    continue
                receiver = method.args.args[0].arg
                for node in ast.walk(method):
                    if not isinstance(node, (ast.Assign, ast.AugAssign)):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == receiver
                        ):
                            findings.append(
                                Finding(
                                    rule=self.id,
                                    path=relpath,
                                    line=target.lineno,
                                    col=target.col_offset,
                                    symbol=f"{cls.name}.{method.name}",
                                    message=(
                                        f"{cls.name!r} is ImmutableOutput "
                                        f"but {method.name!r} writes "
                                        f"{receiver}.{target.attr} after "
                                        f"construction"
                                    ),
                                )
                            )
        return findings


class SwallowedExceptionRule(Rule):
    """M3R004: a broad except that neither re-raises nor reads the error."""

    id = "M3R004"
    summary = "bare except Exception that swallows the error"
    rationale = (
        "A worker-thread exception that is caught broadly and never "
        "reported turns a task failure into silent data loss — the "
        "engine's wait/re-raise path can only surface what it sees."
    )
    example = "try: task()\nexcept Exception:\n    pass"
    fix = (
        "Narrow the exception type, or bind it (`except Exception as "
        "exc:`) and report/re-raise."
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, project: "Project") -> List[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if not self._is_broad(node.type):
                    continue
                if self._reports(node):
                    continue
                caught = (
                    ast.unparse(node.type) if node.type is not None else "all"
                )
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=self._enclosing(module.tree, node),
                        message=(
                            f"broad handler catching {caught} neither "
                            f"re-raises nor examines the exception; narrow "
                            f"it or report what was swallowed"
                        ),
                    )
                )
        return findings

    def _is_broad(self, type_expr: Optional[ast.expr]) -> bool:
        if type_expr is None:
            return True
        if isinstance(type_expr, ast.Name):
            return type_expr.id in self._BROAD
        if isinstance(type_expr, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_expr.elts)
        return False

    @staticmethod
    def _reports(handler: ast.ExceptHandler) -> bool:
        for node in handler.body:
            for child in ast.walk(node):
                if isinstance(child, ast.Raise):
                    return True
                if (
                    handler.name is not None
                    and isinstance(child, ast.Name)
                    and child.id == handler.name
                ):
                    return True
        return False

    @staticmethod
    def _enclosing(tree: ast.Module, target: ast.ExceptHandler) -> str:
        best = "<module>"
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (
                    node.lineno <= target.lineno
                    and target.lineno <= (node.end_lineno or node.lineno)
                ):
                    best = node.name
        return best


class ImportSurfaceRule(Rule):
    """M3R005: a package ``__init__.py`` must declare ``__all__``."""

    id = "M3R005"
    summary = "package __init__.py without __all__"
    rationale = (
        "__all__ is the package's declared import surface; without it, "
        "internal helpers leak into `from pkg import *` and refactors "
        "silently break downstream imports."
    )
    example = "# repro/foo/__init__.py\nfrom repro.foo.impl import helper"
    fix = "Declare __all__ = [...] listing the public names."

    def check(self, project: "Project") -> List[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            normalized = module.relpath.replace("\\", "/")
            if not normalized.endswith("__init__.py"):
                continue
            if self._declares_all(module.tree):
                continue
            package = normalized.rsplit("/", 1)[0] if "/" in normalized else "."
            findings.append(
                Finding(
                    rule=self.id,
                    path=module.relpath,
                    line=1,
                    col=0,
                    symbol=package.replace("/", "."),
                    message=(
                        f"package {package!r} has no __all__; declare its "
                        f"public import surface"
                    ),
                )
            )
        return findings

    @staticmethod
    def _declares_all(tree: ast.Module) -> bool:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        return True
            if isinstance(node, ast.AugAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == "__all__"
                ):
                    return True
        return False


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


class AssociativityClaimRule(Rule):
    """M3R009: an associativity claim whose reduce body belies it."""

    id = "M3R009"
    summary = "AssociativeReducer/allowlist claim violated by reduce body"
    rationale = (
        "The AssociativeReducer marker (and the stock-reducer allowlist) "
        "licenses in-mapper combining, which re-times and re-groups "
        "reduce calls.  That is only sound for a stateless associative "
        "fold: a reduce that mutates its inputs, stores state on self, "
        "or branches on arrival order produces different bytes once the "
        "engine starts folding incrementally."
    )
    example = (
        "class BadSum(AssociativeReducer):\n"
        "    def reduce(self, key, values, out, rep):\n"
        "        self.seen += 1  # cross-call state"
    )
    fix = (
        "Make reduce a pure fold (local accumulator, fresh output "
        "object), or drop the marker/allowlist entry so the engine "
        "buffers and sorts normally."
    )

    def check(self, project: "Project") -> List[Finding]:
        findings: List[Finding] = []
        for relpath, cls in self._claimed_classes(project):
            for method in cls.body:
                if (
                    isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and method.name == "reduce"
                ):
                    self._check_reduce(relpath, cls, method, findings)
        return findings

    # -- claim discovery -------------------------------------------------- #

    @staticmethod
    def _claimed_classes(project: "Project") -> List[tuple]:
        classes = _project_classes(project)
        # Transitive AssociativeReducer subclasses (marker inheritance).
        out = [
            (rp, cls)
            for rp, cls in _marker_subclasses(classes, "AssociativeReducer")
            if cls.name != "AssociativeReducer"
        ]
        # Allowlisted qualnames: resolve "pkg.mod.Class" to a ClassDef in
        # the module whose relpath matches pkg/mod.py.
        for qualname in AssociativityClaimRule._allowlisted(project):
            module_path, _, class_name = qualname.rpartition(".")
            rel_suffix = module_path.replace(".", "/") + ".py"
            for rp, cls in classes:
                if (
                    cls.name == class_name
                    and rp.replace("\\", "/").endswith(rel_suffix)
                    and (rp, cls) not in out
                ):
                    out.append((rp, cls))
        return out

    @staticmethod
    def _allowlisted(project: "Project") -> Set[str]:
        names: Set[str] = set()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Assign):
                    continue
                is_allowlist = any(
                    isinstance(t, ast.Name)
                    and t.id == "ASSOCIATIVE_ALLOWLIST"
                    for t in node.targets
                )
                if not is_allowlist:
                    continue
                for child in ast.walk(node.value):
                    if isinstance(child, ast.Constant) and isinstance(
                        child.value, str
                    ):
                        names.add(child.value)
        return names

    # -- body checks ------------------------------------------------------ #

    def _check_reduce(self, relpath, cls, method, findings) -> None:
        params = [a.arg for a in method.args.args]
        receiver = params[0] if params else "self"
        inputs = set(params[1:3])  # key, values
        values_param = params[2] if len(params) > 2 else None

        def emit(node: ast.AST, what: str) -> None:
            findings.append(
                Finding(
                    rule=self.id,
                    path=relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=f"{cls.name}.reduce",
                    message=(
                        f"{cls.name!r} claims associativity but its "
                        f"reduce {what}; in-mapper combining would "
                        f"change its output"
                    ),
                )
            )

        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root == receiver:
                            emit(target, "keeps cross-call state on self")
                        elif root in inputs:
                            emit(target, f"mutates input {root!r}")
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATORS:
                    root = _root_name(node.func.value)
                    if root in inputs:
                        emit(
                            node,
                            f"mutates input {root!r} "
                            f"(.{node.func.attr}())",
                        )
            if values_param is not None:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "enumerate"
                    and any(
                        isinstance(a, ast.Name) and a.id == values_param
                        for a in node.args
                    )
                ):
                    emit(node, "branches on arrival order (enumerate)")
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == values_param
                    and isinstance(node.ctx, ast.Load)
                ):
                    emit(node, "branches on arrival order (indexing)")
            if isinstance(node, ast.Global):
                emit(node, "keeps cross-call global state")


#: A whole-string m3r knob key: ``m3r.`` then dotted lower-case segments.
_KNOB_LITERAL = re.compile(r"m3r\.[a-z0-9][a-z0-9.\-]*")


class KnobLiteralRule(Rule):
    """M3R010: a raw ``m3r.*`` key string outside the KnobRegistry."""

    id = "M3R010"
    summary = "m3r.* knob string literal outside the KnobRegistry"
    rationale = (
        "Knob strings scattered as raw literals cannot be validated: a "
        "misspelled key silently no-ops (every reader falls back to its "
        "default).  The KnobRegistry (repro.analysis.knobs) is the "
        "single source of truth; everything else must use the derived "
        "constants from repro.api.conf."
    )
    example = 'conf.set("m3r.cache.capacty-bytes", n)  # typo: no-op'
    fix = (
        "Import the *_KEY constant from repro.api.conf (add a registry "
        "row first if the knob is genuinely new)."
    )

    def check(self, project: "Project") -> List[Finding]:
        known = self._registry_names()
        findings: List[Finding] = []
        for module in project.modules:
            if self._defines_registry(module.tree):
                continue
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _KNOB_LITERAL.fullmatch(node.value)
                ):
                    continue
                if node.value in known:
                    detail = (
                        "the key is registered — use the derived constant "
                        "from repro.api.conf instead of repeating the string"
                    )
                else:
                    detail = (
                        "not in the KnobRegistry — misspelled, or missing "
                        "a registry entry"
                    )
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=node.value,
                        message=(
                            f"m3r knob literal {node.value!r}: {detail}"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _registry_names() -> Set[str]:
        from repro.analysis.knobs import REGISTRY

        return set(REGISTRY.names())

    @staticmethod
    def _defines_registry(tree: ast.Module) -> bool:
        """The registry module itself is the one legitimate literal site."""
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "KnobRegistry":
                return True
        return False


def default_rules() -> List[Rule]:
    """The shipped rule catalog, in id order."""
    return [
        UnorderedIterationRule(),
        ImmutableOutputWriteRule(),
        SwallowedExceptionRule(),
        ImportSurfaceRule(),
        LocalCallableRegistrationRule(),
        AssociativityClaimRule(),
        KnobLiteralRule(),
    ]


def rule_by_id(code: str) -> Optional[Rule]:
    """The catalog rule with the given id (case-insensitive), if any —
    backs ``analyze --explain``."""
    wanted = code.strip().upper()
    for rule in default_rules():
        if rule.id == wanted:
            return rule
    return None
