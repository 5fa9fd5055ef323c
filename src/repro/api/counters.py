"""Hadoop counters.

The paper lists counters among the HMR features M3R supports ("in addition
to correctly propagating user counters, M3R keeps many Hadoop system counters
properly updated").  Counters are grouped; user code addresses them either by
``(group, name)`` strings or by enum constant.

Both engines keep one job-wide :class:`Counters` that every task of the job
shares.  What reaches it, and when:

* **user counters** (``Reporter.incr_counter``) land immediately, one
  ``increment`` per call;
* **per-record system counters** — MAP_INPUT_RECORDS, MAP_OUTPUT_RECORDS /
  _BYTES, COMBINE_OUTPUT_RECORDS, REDUCE_OUTPUT_RECORDS — are tallied in
  plain ints by the task's reader and sinks (:mod:`repro.engine_common`)
  and published as one delta per task by their ``flush_counters()``, when
  the user code has returned.  A task that raises publishes nothing, an
  empty task creates no counter, and ``Reporter.get_counter`` on one of
  these reads the value as of the last finished task;
* everything else (launched tasks, shuffle bytes, reduce input groups, …)
  is one ``increment`` per task or per shuffle message by the stage that
  knows the number.

So the number of ``increment`` calls in a job is a function of its tasks
and partitions, not of its records (``tests/test_hot_path.py``).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, Iterator, Tuple, Union


class TaskCounter(enum.Enum):
    """The standard per-task system counters (Hadoop's ``TaskCounter``)."""

    MAP_INPUT_RECORDS = "MAP_INPUT_RECORDS"
    MAP_OUTPUT_RECORDS = "MAP_OUTPUT_RECORDS"
    MAP_OUTPUT_BYTES = "MAP_OUTPUT_BYTES"
    COMBINE_INPUT_RECORDS = "COMBINE_INPUT_RECORDS"
    COMBINE_OUTPUT_RECORDS = "COMBINE_OUTPUT_RECORDS"
    REDUCE_INPUT_GROUPS = "REDUCE_INPUT_GROUPS"
    REDUCE_INPUT_RECORDS = "REDUCE_INPUT_RECORDS"
    REDUCE_OUTPUT_RECORDS = "REDUCE_OUTPUT_RECORDS"
    REDUCE_SHUFFLE_BYTES = "REDUCE_SHUFFLE_BYTES"
    #: M3R extension: bytes handed to a co-located reducer by pointer,
    #: without crossing the wire.  Hadoop's REDUCE_SHUFFLE_BYTES counts
    #: fetched bytes; on M3R co-located partitions are never fetched, so
    #: they are counted here instead (hadoop.REDUCE_SHUFFLE_BYTES ==
    #: m3r.REDUCE_SHUFFLE_BYTES + m3r.REDUCE_LOCAL_HANDOFF_BYTES).
    REDUCE_LOCAL_HANDOFF_BYTES = "REDUCE_LOCAL_HANDOFF_BYTES"
    SPILLED_RECORDS = "SPILLED_RECORDS"


class JobCounter(enum.Enum):
    """The standard per-job system counters (Hadoop's ``JobCounter``)."""

    TOTAL_LAUNCHED_MAPS = "TOTAL_LAUNCHED_MAPS"
    TOTAL_LAUNCHED_REDUCES = "TOTAL_LAUNCHED_REDUCES"
    DATA_LOCAL_MAPS = "DATA_LOCAL_MAPS"
    RACK_LOCAL_MAPS = "RACK_LOCAL_MAPS"
    OTHER_LOCAL_MAPS = "OTHER_LOCAL_MAPS"


class FileSystemCounter(enum.Enum):
    """Bytes moved through the FileSystem layer."""

    BYTES_READ = "BYTES_READ"
    BYTES_WRITTEN = "BYTES_WRITTEN"
    READ_OPS = "READ_OPS"
    WRITE_OPS = "WRITE_OPS"


_ENUM_GROUPS = {
    TaskCounter: "org.apache.hadoop.mapreduce.TaskCounter",
    JobCounter: "org.apache.hadoop.mapreduce.JobCounter",
    FileSystemCounter: "FileSystemCounters",
}

CounterKey = Union[TaskCounter, JobCounter, FileSystemCounter]


def _resolve(key_or_group: Union[str, CounterKey], name: str = "") -> Tuple[str, str]:
    """Normalize a counter address to ``(group, name)`` strings."""
    if isinstance(key_or_group, enum.Enum):
        return _ENUM_GROUPS[type(key_or_group)], key_or_group.value
    return str(key_or_group), name


class Counter:
    """One named counter inside a group."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def get_value(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Counters:
    """Grouped counters with Hadoop's addressing conventions.

    Single-threaded like the engine that owns it: every task of a job runs
    on the engine's thread, so the maps and counters take no lock.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, Dict[str, Counter]] = defaultdict(dict)

    def find_counter(
        self, key_or_group: Union[str, CounterKey], name: str = ""
    ) -> Counter:
        """Find (creating if needed) the addressed counter."""
        group, counter_name = _resolve(key_or_group, name)
        counters = self._groups[group]
        if counter_name not in counters:
            counters[counter_name] = Counter(counter_name)
        return counters[counter_name]

    def increment(
        self, key_or_group: Union[str, CounterKey], name_or_amount: Union[str, int] = 1,
        amount: int = 1,
    ) -> None:
        """Increment a counter addressed by enum or by (group, name)."""
        if isinstance(key_or_group, enum.Enum):
            if not isinstance(name_or_amount, int):
                raise TypeError("enum-addressed increments take an integer amount")
            self.find_counter(key_or_group).increment(name_or_amount)
        else:
            if not isinstance(name_or_amount, str):
                raise TypeError("string-group increments need a counter name")
            self.find_counter(key_or_group, name_or_amount).increment(amount)

    def value(self, key_or_group: Union[str, CounterKey], name: str = "") -> int:
        """Current value (0 when the counter was never touched)."""
        group, counter_name = _resolve(key_or_group, name)
        counter = self._groups.get(group, {}).get(counter_name)
        return 0 if counter is None else counter.value

    def groups(self) -> Iterator[str]:
        return iter(list(self._groups))

    def group(self, group: str) -> Dict[str, int]:
        """A name → value snapshot of one group."""
        counters = list(self._groups.get(group, {}).items())
        return {name: c.value for name, c in counters}

    def merge(self, other: "Counters") -> "Counters":
        """Fold another counters object into this one; returns self."""
        snapshot = [
            (group, list(counters.items()))
            for group, counters in other._groups.items()
        ]
        for group, counters in snapshot:
            for name, counter in counters:
                self.find_counter(group, name).increment(counter.value)
        return self

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """A nested plain-dict snapshot."""
        groups = list(self._groups)
        return {group: self.group(group) for group in groups}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.as_dict()!r})"
