"""The place-portability inventory: ``analyze --report portability``.

The task-kernel split (DESIGN.md §16) holds only while every
stage-provider task body is a function of its explicit ``TaskContext``.
For each task body (the nested closures a M3R/Hadoop stage provider
would hand to ``bounded_task_fn`` / ``finish_collect``) this module asks
*what does it capture from the enclosing scope, and of what kind?* and
renders the answer from the dataflow summaries
(:mod:`repro.analysis.dataflow`) as a machine-readable document:

* one entry per ``*StageProvider`` method that defines task-body
  closures;
* per closure, every captured name with its classified kind, whether it
  is fatally unpicklable (``portable: false``), and whether it is merely
  advisory (engine/bus/self references the task should take through its
  ``TaskContext``).

Fatal captures are the same set rule M3R006 gates on; the report also
includes the advisory tail M3R006 deliberately ignores, because
``--gate`` fails on either.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.dataflow import FATAL_KINDS

__all__ = ["PORTABILITY_SCHEMA_VERSION", "portability_inventory"]

#: Bumped whenever the report document shape changes.
PORTABILITY_SCHEMA_VERSION = 1

#: Capture kinds that are picklable but reference the long-lived engine:
#: they belong in the task's explicit ``TaskContext``, not in a closure.
_ADVISORY_KINDS = frozenset({"engine-ref", "self-reference"})


def _provider_component(qualname: str) -> str:
    """The ``*StageProvider`` class component of a qualname, or ``""``."""
    for part in qualname.split("."):
        if part.endswith("StageProvider"):
            return part
    return ""


def portability_inventory(project) -> Dict:
    """The portability report document for a loaded :class:`Project`."""
    dataflow = project.dataflow
    providers: Dict[str, Dict] = {}
    fatal_total = 0
    advisory_total = 0
    for fn in project.call_graph.functions:
        provider = _provider_component(fn.qualname)
        if not provider:
            continue
        summary = dataflow.summary(fn)
        if not summary.closures:
            continue
        task_bodies: List[Dict] = []
        for closure in summary.closures:
            captures = []
            for capture in closure.captures:
                advisory = capture.kind in _ADVISORY_KINDS
                captures.append(
                    {
                        "name": capture.name,
                        "kind": capture.kind,
                        "portable": not capture.fatal,
                        "advisory": advisory,
                    }
                )
                if capture.fatal:
                    fatal_total += 1
                elif advisory:
                    advisory_total += 1
            task_bodies.append(
                {
                    "name": closure.name,
                    "line": closure.line,
                    "lambda": closure.is_lambda,
                    "captures": captures,
                }
            )
        key = f"{fn.relpath}:{provider}"
        entry = providers.setdefault(
            key,
            {"module": fn.relpath, "provider": provider, "methods": []},
        )
        entry["methods"].append(
            {"method": fn.qualname, "task_bodies": task_bodies}
        )
    ordered = [providers[key] for key in sorted(providers)]
    for entry in ordered:
        entry["methods"].sort(key=lambda m: m["method"])
    return {
        "schema_version": PORTABILITY_SCHEMA_VERSION,
        "report": "portability",
        "fatal_captures": fatal_total,
        "advisory_captures": advisory_total,
        "providers": ordered,
    }
