"""Static lint + runtime sanitizers for the engine's contracts.

Three parts:

* ``python -m repro analyze`` — an AST lint over the source tree enforcing
  the shuffle-determinism and ReStore fingerprintability contracts (the
  catalog and its ids are in :mod:`repro.analysis.rules`);
* the :mod:`repro.analysis.knobs` ``KnobRegistry`` — the single source
  of truth for every ``m3r.*`` configuration key (``repro.api.conf`` and
  the README knob table derive from it);
* the runtime mutation sanitizer (:mod:`repro.analysis.sanitizers`),
  switched on by the ``M3R_SANITIZE_MUTATION`` environment variable and
  wired into the serializer, the cache and the alias-policy collectors.
"""

from importlib import import_module
from typing import Any

from repro.analysis.knobs import REGISTRY, Knob, KnobRegistry, render_markdown_table
from repro.analysis.sanitizers import (
    MUTATION_SANITIZER,
    ImmutableViolation,
    MutationSanitizer,
    sanitizer_overrides,
)

# The lint's names load with their module on first use (PEP 562): the
# runtime imports this package for the knobs and the sanitizer, and a job
# never needs the linter, call graph, rules or report (DESIGN.md §3).
_LAZY = {name: module for module, names in (
    ("callgraph", "CallGraph FunctionInfo build_call_graph"),
    ("linter", "Analyzer Module Project load_project"),
    ("report", "findings_to_document render_json render_text"),
    ("rules", "Finding Rule default_rules rule_by_id"),
) for name in names.split()}


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "Analyzer",
    "CallGraph",
    "Finding",
    "FunctionInfo",
    "Knob",
    "KnobRegistry",
    "REGISTRY",
    "ImmutableViolation",
    "MUTATION_SANITIZER",
    "Module",
    "MutationSanitizer",
    "Project",
    "Rule",
    "build_call_graph",
    "default_rules",
    "findings_to_document",
    "load_project",
    "render_json",
    "render_markdown_table",
    "render_text",
    "rule_by_id",
    "sanitizer_overrides",
]
