"""Job configuration: Hadoop's ``Configuration`` and ``JobConf``.

The configuration object is the job's side-channel: the client sets classes
and parameters on it, the framework threads it through every user class, and
(as the paper notes in Section 4.2.3) adding custom settings to it is "common
practice in Hadoop for communicating additional information to jobs" — M3R's
temp-output prefix and cache controls ride on exactly that convention.

Because both engines run in-process, class-valued settings store the actual
Python class objects (Hadoop stores class names and reflects; the observable
semantics are identical).
"""

from __future__ import annotations

import copy
import os
import warnings
from typing import Any, Dict, List, Optional

from repro.analysis.knobs import KNOB_PREFIX, REGISTRY


class UnknownKnobWarning(UserWarning):
    """An ``m3r.*`` key outside the KnobRegistry was set (default mode)."""


class UnknownKnobError(KeyError):
    """An ``m3r.*`` key outside the KnobRegistry was set under
    ``m3r.conf.strict`` / ``M3R_CONF_STRICT``."""


class Configuration:
    """A typed view over a string-keyed settings map."""

    def __init__(self, other: Optional["Configuration"] = None):
        self._props: Dict[str, Any] = dict(other._props) if other is not None else {}

    # -- raw access ------------------------------------------------------- #

    def set(self, key: str, value: Any) -> None:
        if key.startswith(KNOB_PREFIX) and key not in REGISTRY:
            self._unknown_knob(key)
        self._props[key] = value

    def _unknown_knob(self, key: str) -> None:
        # Misspelled m3r.* knobs otherwise silently no-op: every reader
        # falls back to its default and the job runs unconfigured.  Warn
        # by default; raise when this conf (or the environment) asks for
        # strict validation.  Resolution order matches conf_bool — but is
        # inlined here on raw _props so a conf that *only* sets the strict
        # knob itself never recurses through set().
        message = (
            f"unknown configuration knob {key!r}: not in the KnobRegistry "
            f"(repro.analysis.knobs) — misspelled, or missing a registry entry"
        )
        strict_raw = self._props.get(CONF_STRICT_KEY)
        if strict_raw is not None:
            strict = self.get_boolean(CONF_STRICT_KEY)
        else:
            env_raw = os.environ.get(CONF_STRICT_ENV)
            strict = (
                env_raw is not None
                and env_raw.strip().lower() in _TRUTHY
            )
        if strict:
            raise UnknownKnobError(message)
        warnings.warn(message, UnknownKnobWarning, stacklevel=3)

    def get(self, key: str, default: Any = None) -> Any:
        return self._props.get(key, default)

    def unset(self, key: str) -> None:
        self._props.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._props

    def keys(self) -> List[str]:
        return list(self._props)

    # -- typed getters ------------------------------------------------------ #

    def get_int(self, key: str, default: int = 0) -> int:
        value = self._props.get(key)
        return default if value is None else int(value)

    def set_int(self, key: str, value: int) -> None:
        self.set(key, int(value))

    def get_long(self, key: str, default: int = 0) -> int:
        return self.get_int(key, default)

    def get_float(self, key: str, default: float = 0.0) -> float:
        value = self._props.get(key)
        return default if value is None else float(value)

    def set_float(self, key: str, value: float) -> None:
        self.set(key, float(value))

    def get_boolean(self, key: str, default: bool = False) -> bool:
        value = self._props.get(key)
        if value is None:
            return default
        if isinstance(value, bool):
            return value
        return str(value).strip().lower() in ("true", "1", "yes")

    def set_boolean(self, key: str, value: bool) -> None:
        self.set(key, bool(value))

    def get_strings(self, key: str, default: Optional[List[str]] = None) -> List[str]:
        value = self._props.get(key)
        if value is None:
            return list(default) if default is not None else []
        if isinstance(value, str):
            return [part for part in value.split(",") if part]
        return list(value)

    def set_strings(self, key: str, values: List[str]) -> None:
        self.set(key, ",".join(values))

    def get_class(self, key: str, default: Optional[type] = None) -> Optional[type]:
        value = self._props.get(key)
        if value is None:
            return default
        if not isinstance(value, type):
            raise TypeError(f"configuration key {key!r} holds {value!r}, not a class")
        return value

    def set_class(self, key: str, cls: type) -> None:
        if not isinstance(cls, type):
            raise TypeError(f"{cls!r} is not a class")
        self.set(key, cls)

    def copy(self) -> "Configuration":
        return type(self)(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self._props)} props)"


# Canonical configuration keys (Hadoop 0.22 names where they exist).
MAPPER_CLASS_KEY = "mapred.mapper.class"
REDUCER_CLASS_KEY = "mapred.reducer.class"
COMBINER_CLASS_KEY = "mapred.combiner.class"
MAP_RUNNER_CLASS_KEY = "mapred.map.runner.class"
PARTITIONER_CLASS_KEY = "mapred.partitioner.class"
INPUT_FORMAT_KEY = "mapred.input.format.class"
OUTPUT_FORMAT_KEY = "mapred.output.format.class"
INPUT_DIR_KEY = "mapred.input.dir"
OUTPUT_DIR_KEY = "mapred.output.dir"
NUM_REDUCES_KEY = "mapred.reduce.tasks"
NUM_MAPS_HINT_KEY = "mapred.map.tasks"
JOB_NAME_KEY = "mapred.job.name"
OUTPUT_KEY_CLASS_KEY = "mapred.output.key.class"
OUTPUT_VALUE_CLASS_KEY = "mapred.output.value.class"
MAP_OUTPUT_KEY_CLASS_KEY = "mapred.mapoutput.key.class"
MAP_OUTPUT_VALUE_CLASS_KEY = "mapred.mapoutput.value.class"
SORT_COMPARATOR_KEY = "mapred.output.key.comparator.class"
GROUPING_COMPARATOR_KEY = "mapred.output.value.groupfn.class"
SPECULATIVE_KEY = "mapred.map.tasks.speculative.execution"
USE_NEW_API_KEY = "mapred.mapper.new-api"
JOB_END_NOTIFICATION_URL_KEY = "job.end.notification.url"
JOB_QUEUE_NAME_KEY = "mapred.job.queue.name"

# Every m3r.* key below is *derived* from the KnobRegistry
# (repro.analysis.knobs) — the single place the key strings, defaults and
# env aliases are written down (rule M3R010 enforces that no literal
# escapes it).  The per-subsystem semantics live with the registry rows;
# the short map:
#
# * engine/shuffle — two retired real-threads keys (accepted, ignored);
# * cache — per-place memory governance (budget, watermarks, spill,
#   pinned paths); the Hadoop engine ignores them entirely;
# * trace — the lifecycle JSONL sink (pure observer);
# * restore — cross-job result reuse (admission-time fingerprint lookup);
# * batch / imc — the batched record path and licensed in-mapper
#   combining (byte-identical to the per-record path);
# * temp — the paper's §4.2.3 temporary-output convention;
# * conf — validation of this very namespace (strict unknown-key mode).
_KNOB_KEYS = REGISTRY.constants()

# Tasks and shuffle messages always run inline; these two constants stay
# only until benchmarks/spine stops naming them in SERIAL_KNOBS (ROADMAP
# item 4, *Dispatch*).
REAL_THREADS_KEY = _KNOB_KEYS["REAL_THREADS_KEY"]
SHUFFLE_REAL_THREADS_KEY = _KNOB_KEYS["SHUFFLE_REAL_THREADS_KEY"]

CACHE_CAPACITY_KEY = _KNOB_KEYS["CACHE_CAPACITY_KEY"]
CACHE_HIGH_WATERMARK_KEY = _KNOB_KEYS["CACHE_HIGH_WATERMARK_KEY"]
CACHE_LOW_WATERMARK_KEY = _KNOB_KEYS["CACHE_LOW_WATERMARK_KEY"]
CACHE_SPILL_KEY = _KNOB_KEYS["CACHE_SPILL_KEY"]
CACHE_PINNED_PATHS_KEY = _KNOB_KEYS["CACHE_PINNED_PATHS_KEY"]

TRACE_PATH_KEY = _KNOB_KEYS["TRACE_PATH_KEY"]
TRACE_PATH_ENV = REGISTRY.get(TRACE_PATH_KEY).env

RESTORE_ENABLED_KEY = _KNOB_KEYS["RESTORE_ENABLED_KEY"]
RESTORE_ENV = REGISTRY.get(RESTORE_ENABLED_KEY).env

BATCH_ENABLED_KEY = _KNOB_KEYS["BATCH_ENABLED_KEY"]
BATCH_ENV = REGISTRY.get(BATCH_ENABLED_KEY).env
IMC_ENABLED_KEY = _KNOB_KEYS["IMC_ENABLED_KEY"]
IMC_ENV = REGISTRY.get(IMC_ENABLED_KEY).env

# Unknown-knob validation for the m3r.* namespace itself: Configuration.set
# warns on keys the registry does not know, and raises when this knob (or
# its M3R_CONF_STRICT environment alias) asks for strict mode.
CONF_STRICT_KEY = _KNOB_KEYS["CONF_STRICT_KEY"]
CONF_STRICT_ENV = REGISTRY.get(CONF_STRICT_KEY).env

# Re-exports for the API modules that declare their knobs here rather than
# carry their own literals (extensions, multiple_io).
TEMP_OUTPUT_PREFIX_KEY = _KNOB_KEYS["TEMP_OUTPUT_PREFIX_KEY"]
DEFAULT_TEMP_OUTPUT_PREFIX = REGISTRY.get(TEMP_OUTPUT_PREFIX_KEY).default
TEMP_OUTPUT_PATHS_KEY = _KNOB_KEYS["TEMP_OUTPUT_PATHS_KEY"]
FORCE_HADOOP_ENGINE_KEY = _KNOB_KEYS["FORCE_HADOOP_ENGINE_KEY"]
TASK_FS_KEY = _KNOB_KEYS["TASK_FS_KEY"]
TASK_PARTITION_KEY = _KNOB_KEYS["TASK_PARTITION_KEY"]
ACTUAL_MAPPER_KEY = _KNOB_KEYS["ACTUAL_MAPPER_KEY"]

#: String literals accepted as "true" by :func:`conf_bool` env parsing
#: (mirrors ``repro.analysis.sanitizers._env_flag``, which cannot import
#: this module — the sanitizers sit below the API layer).
_TRUTHY = ("1", "true", "yes", "on")


def conf_bool(
    conf: Optional["Configuration"],
    key: str,
    env: Optional[str] = None,
    default: bool = False,
) -> bool:
    """Resolve a boolean knob with the canonical precedence:
    JobConf setting > environment variable > ``default``.

    This is the one place the engines' boolean knob parsing
    (``m3r.batch.enabled``, ``m3r.imc.enabled``, ``m3r.restore.enabled``)
    funnels through.
    ``conf`` may be ``None`` (no job context); ``env`` may be ``None`` (no
    environment fallback for this knob).
    """
    if conf is not None and key in conf:
        return conf.get_boolean(key, default)
    if env is not None:
        raw = os.environ.get(env)
        if raw is not None and raw.strip() != "":
            return raw.strip().lower() in _TRUTHY
    return default


class JobConf(Configuration):
    """The old-style job configuration, with the usual convenience setters.

    Works for both API generations: new-API :class:`repro.api.mapreduce.Job`
    wraps one of these, exactly as Hadoop's ``Job`` wraps a ``JobConf``.
    """

    def __init__(self, other: Optional[Configuration] = None):
        super().__init__(other)

    # -- identity --------------------------------------------------------- #

    def set_job_name(self, name: str) -> None:
        self.set(JOB_NAME_KEY, name)

    def get_job_name(self) -> str:
        return self.get(JOB_NAME_KEY, "(unnamed job)")

    # -- user classes ---------------------------------------------------- #

    def set_mapper_class(self, cls: type) -> None:
        self.set_class(MAPPER_CLASS_KEY, cls)

    def get_mapper_class(self) -> Optional[type]:
        return self.get_class(MAPPER_CLASS_KEY)

    def set_reducer_class(self, cls: type) -> None:
        self.set_class(REDUCER_CLASS_KEY, cls)

    def get_reducer_class(self) -> Optional[type]:
        return self.get_class(REDUCER_CLASS_KEY)

    def set_combiner_class(self, cls: type) -> None:
        self.set_class(COMBINER_CLASS_KEY, cls)

    def get_combiner_class(self) -> Optional[type]:
        return self.get_class(COMBINER_CLASS_KEY)

    def set_map_runner_class(self, cls: type) -> None:
        self.set_class(MAP_RUNNER_CLASS_KEY, cls)

    def get_map_runner_class(self) -> Optional[type]:
        return self.get_class(MAP_RUNNER_CLASS_KEY)

    def set_partitioner_class(self, cls: type) -> None:
        self.set_class(PARTITIONER_CLASS_KEY, cls)

    def get_partitioner_class(self) -> Optional[type]:
        return self.get_class(PARTITIONER_CLASS_KEY)

    def set_input_format(self, cls: type) -> None:
        self.set_class(INPUT_FORMAT_KEY, cls)

    def get_input_format(self) -> Optional[type]:
        return self.get_class(INPUT_FORMAT_KEY)

    def set_output_format(self, cls: type) -> None:
        self.set_class(OUTPUT_FORMAT_KEY, cls)

    def get_output_format(self) -> Optional[type]:
        return self.get_class(OUTPUT_FORMAT_KEY)

    def set_output_key_class(self, cls: type) -> None:
        self.set_class(OUTPUT_KEY_CLASS_KEY, cls)

    def set_output_value_class(self, cls: type) -> None:
        self.set_class(OUTPUT_VALUE_CLASS_KEY, cls)

    def set_map_output_key_class(self, cls: type) -> None:
        self.set_class(MAP_OUTPUT_KEY_CLASS_KEY, cls)

    def set_map_output_value_class(self, cls: type) -> None:
        self.set_class(MAP_OUTPUT_VALUE_CLASS_KEY, cls)

    def set_output_key_comparator_class(self, cls: type) -> None:
        self.set_class(SORT_COMPARATOR_KEY, cls)

    def get_output_key_comparator_class(self) -> Optional[type]:
        return self.get_class(SORT_COMPARATOR_KEY)

    def set_output_value_grouping_comparator(self, cls: type) -> None:
        self.set_class(GROUPING_COMPARATOR_KEY, cls)

    def get_output_value_grouping_comparator(self) -> Optional[type]:
        return self.get_class(GROUPING_COMPARATOR_KEY)

    # -- shape ------------------------------------------------------------ #

    def set_num_reduce_tasks(self, n: int) -> None:
        if n < 0:
            raise ValueError("reduce task count cannot be negative")
        self.set_int(NUM_REDUCES_KEY, n)

    def get_num_reduce_tasks(self) -> int:
        return self.get_int(NUM_REDUCES_KEY, 1)

    def set_num_map_tasks(self, n: int) -> None:
        """A *hint* only, exactly as in Hadoop — splits decide the real count."""
        self.set_int(NUM_MAPS_HINT_KEY, n)

    def get_num_map_tasks(self) -> int:
        return self.get_int(NUM_MAPS_HINT_KEY, 1)

    # -- paths -------------------------------------------------------------- #

    def set_input_paths(self, *paths: str) -> None:
        self.set_strings(INPUT_DIR_KEY, list(paths))

    def add_input_path(self, path: str) -> None:
        existing = self.get_strings(INPUT_DIR_KEY)
        existing.append(path)
        self.set_strings(INPUT_DIR_KEY, existing)

    def get_input_paths(self) -> List[str]:
        return self.get_strings(INPUT_DIR_KEY)

    def set_output_path(self, path: str) -> None:
        self.set(OUTPUT_DIR_KEY, path)

    def get_output_path(self) -> Optional[str]:
        return self.get(OUTPUT_DIR_KEY)
