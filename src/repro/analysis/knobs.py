"""The ``m3r.*`` knob registry: one source of truth for every key.

Every custom JobConf setting the engines understand (the paper's Section
4.2.3 convention) is declared here exactly once — name, value type,
default, environment-variable alias, owning subsystem, and the constant
``repro.api.conf`` (or ``api.extensions`` / ``api.multiple_io``) re-exports
for it.  Everything else derives from this table:

* the ``*_KEY`` constants in :mod:`repro.api.conf` are looked up from
  :data:`REGISTRY`, so no key string is written outside this module;
* :meth:`Configuration.set <repro.api.conf.Configuration.set>` validates
  incoming ``m3r.*`` keys against the registry at runtime (unknown keys
  warn, or raise under ``m3r.conf.strict`` / ``M3R_CONF_STRICT``);
* the README knob-reference table is rendered from
  :func:`render_markdown_table` and drift-checked in CI
  (``python -m repro analyze --check-docs``).

This module must stay import-light (stdlib only): ``repro.api.conf`` —
the bottom of the API layer — imports it at module load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Knob",
    "KnobRegistry",
    "REGISTRY",
    "KNOB_PREFIX",
    "render_markdown_table",
]

#: Every registered key starts with this namespace prefix.
KNOB_PREFIX = "m3r."


@dataclass(frozen=True)
class Knob:
    """One registered ``m3r.*`` configuration key."""

    name: str
    #: Value type as the typed getters see it: ``bool`` / ``int`` / ``float``
    #: / ``str`` / ``paths`` (comma-separated list) / ``class`` / ``object``.
    type: str
    #: Documented default (``None`` = unset / no default).
    default: object
    #: Environment-variable alias consulted when the JobConf key is unset.
    env: Optional[str]
    #: Owning subsystem (groups the rendered documentation).
    subsystem: str
    #: One-line meaning for the rendered knob table.
    description: str
    #: The ``*_KEY`` constant name re-exported by the API layer.
    constant: str
    #: Internal engine-to-task plumbing: real keys, but never user-set;
    #: excluded from the rendered documentation table.
    internal: bool = False


def _knobs() -> List[Knob]:
    # One call-once builder so the table below reads as data, not module
    # top-level soup.  Order is the documentation order.
    K = Knob
    return [
        # -- engine ------------------------------------------------------ #
        K("m3r.engine.real-threads", "bool", None, None, "engine",
          "retired: accepted and ignored; tasks and shuffle messages "
          "always run inline",
          "REAL_THREADS_KEY"),
        # -- cache (memory governance, DESIGN.md §8) --------------------- #
        K("m3r.cache.capacity-bytes", "int", 0, None, "cache",
          "per-place cache budget in bytes; `0` = unbounded; "
          "set by a job, it stays for later jobs",
          "CACHE_CAPACITY_KEY"),
        K("m3r.cache.high-watermark", "float", 0.9, None, "cache",
          "eviction starts above this fraction of capacity; "
          "set by a job, it stays for later jobs",
          "CACHE_HIGH_WATERMARK_KEY"),
        K("m3r.cache.low-watermark", "float", 0.75, None, "cache",
          "eviction frees down to this fraction (hysteresis); "
          "set by a job, it stays for later jobs",
          "CACHE_LOW_WATERMARK_KEY"),
        K("m3r.cache.spill", "bool", True, None, "cache",
          "demote evicted durable entries to `/.m3r/spill` instead of "
          "dropping them; set by a job, it stays for later jobs",
          "CACHE_SPILL_KEY"),
        K("m3r.cache.pinned-paths", "paths", None, None, "cache",
          "comma-separated path prefixes exempt from eviction for the "
          "job's duration",
          "CACHE_PINNED_PATHS_KEY"),
        # -- shuffle (DESIGN.md §9) -------------------------------------- #
        K("m3r.shuffle.real-threads", "bool", None, None, "shuffle",
          "retired: accepted and ignored; tasks and shuffle messages "
          "always run inline",
          "SHUFFLE_REAL_THREADS_KEY"),
        # -- lifecycle tracing (DESIGN.md §11) --------------------------- #
        K("m3r.trace.path", "str", None, "M3R_TRACE_PATH", "trace",
          "append this job's lifecycle events as JSONL to the given file",
          "TRACE_PATH_KEY"),
        # -- cross-job result reuse (DESIGN.md §12) ---------------------- #
        K("m3r.restore.enabled", "bool", False, "M3R_RESTORE", "restore",
          "consult the engine's result store at admission and record "
          "committed outputs",
          "RESTORE_ENABLED_KEY"),
        # -- batched record path (DESIGN.md §14) ------------------------- #
        K("m3r.batch.enabled", "bool", False, "M3R_BATCH", "batch",
          "feed map tasks in batches instead of record-at-a-time",
          "BATCH_ENABLED_KEY"),
        K("m3r.imc.enabled", "bool", False, "M3R_IMC", "imc",
          "in-mapper combining: report the map-side combine of a combiner "
          "licensed associative as the imc_* metrics",
          "IMC_ENABLED_KEY"),
        # -- temporary-output convention (paper §4.2.3) ------------------ #
        K("m3r.temp.output.prefix", "str", "temp", None, "temp",
          "output paths whose basename starts with this prefix are "
          "in-memory temporaries (never flushed to stable storage)",
          "TEMP_OUTPUT_PREFIX_KEY"),
        K("m3r.temp.output.paths", "paths", None, None, "temp",
          "explicit comma-separated temporary output paths",
          "TEMP_OUTPUT_PATHS_KEY"),
        # -- engine integration (paper §5.3) ----------------------------- #
        K("m3r.force.hadoop.engine", "bool", False, None, "integration",
          "force this job to bypass M3R and run on the Hadoop engine "
          "even in integrated mode",
          "FORCE_HADOOP_ENGINE_KEY"),
        # -- configuration validation ------------------------------------ #
        K("m3r.conf.strict", "bool", False, "M3R_CONF_STRICT", "conf",
          "raise on unknown `m3r.*` keys instead of warning (misspelled "
          "knobs silently no-op otherwise)",
          "CONF_STRICT_KEY"),
        # -- internal engine-to-task plumbing ---------------------------- #
        K("m3r.task.filesystem", "object", None, None, "task",
          "task-scoped filesystem handle injected by the running engine",
          "TASK_FS_KEY", internal=True),
        K("m3r.task.partition", "int", None, None, "task",
          "task-scoped partition number injected by the running engine",
          "TASK_PARTITION_KEY", internal=True),
        K("m3r.delegating.actual.mapper", "class", None, None, "task",
          "the mapper class a DelegatingMapper resolves and drives",
          "ACTUAL_MAPPER_KEY", internal=True),
    ]


class KnobRegistry:
    """An ordered, name- and constant-indexed view over :class:`Knob` rows."""

    def __init__(self, knobs: List[Knob]):
        self._knobs: List[Knob] = list(knobs)
        self._by_name: Dict[str, Knob] = {}
        by_constant: Dict[str, str] = {}
        for knob in self._knobs:
            if not knob.name.startswith(KNOB_PREFIX):
                raise ValueError(f"knob {knob.name!r} is outside {KNOB_PREFIX}*")
            if knob.name in self._by_name:
                raise ValueError(f"duplicate knob {knob.name!r}")
            if knob.constant in by_constant:
                raise ValueError(f"duplicate constant {knob.constant!r}")
            self._by_name[knob.name] = knob
            by_constant[knob.constant] = knob.name
        self._constants = by_constant

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Knob]:
        return iter(self._knobs)

    def __len__(self) -> int:
        return len(self._knobs)

    def get(self, name: str) -> Knob:
        return self._by_name[name]

    def names(self) -> List[str]:
        return [knob.name for knob in self._knobs]

    def constants(self) -> Dict[str, str]:
        """``{CONSTANT_NAME: key}`` — how the API layer derives its
        ``*_KEY`` constants without repeating a single string literal."""
        return dict(self._constants)

    def subsystems(self) -> List[str]:
        seen: List[str] = []
        for knob in self._knobs:
            if not knob.internal and knob.subsystem not in seen:
                seen.append(knob.subsystem)
        return seen


#: The one registry instance the whole project derives from.
REGISTRY = KnobRegistry(_knobs())


def _default_cell(knob: Knob) -> str:
    if knob.default is None:
        return "—"
    if isinstance(knob.default, bool):
        return f"`{str(knob.default).lower()}`"
    return f"`{knob.default}`"


def render_markdown_table(registry: KnobRegistry = REGISTRY) -> str:
    """The generated README knob-reference table (internal keys excluded).

    ``python -m repro analyze --check-docs`` re-renders this and diffs it
    against the block between the README's ``knob-table`` markers, so the
    documentation cannot drift from the registry.
    """
    lines = [
        "| Knob | type | default | env alias | subsystem | meaning |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for knob in registry:
        if knob.internal:
            continue
        env = f"`{knob.env}`" if knob.env else "—"
        lines.append(
            f"| `{knob.name}` | {knob.type} | {_default_cell(knob)} "
            f"| {env} | {knob.subsystem} | {knob.description} |"
        )
    return "\n".join(lines)


def registry_entries() -> List[Tuple[str, str]]:
    """``(name, constant)`` pairs, mostly for tests and tooling."""
    return [(knob.name, knob.constant) for knob in REGISTRY]
