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

from repro.analysis.callgraph import CallGraph, FunctionInfo, build_call_graph
from repro.analysis.knobs import REGISTRY, Knob, KnobRegistry, render_markdown_table
from repro.analysis.linter import Analyzer, Module, Project, load_project
from repro.analysis.report import findings_to_document, render_json, render_text
from repro.analysis.rules import Finding, Rule, default_rules, rule_by_id
from repro.analysis.sanitizers import (
    MUTATION_SANITIZER,
    ImmutableViolation,
    MutationSanitizer,
    sanitizer_overrides,
)

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
