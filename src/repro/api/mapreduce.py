"""The new-style ``mapreduce`` API.

Hadoop 0.20 introduced a second API generation where mappers and reducers
receive a *context* object instead of separate collector/reporter arguments,
with ``setup``/``cleanup`` lifecycle hooks and an overridable ``run``.  The
paper's M3R supports "any combination of old (mapred) and new (mapreduce)
style mapper, combiner, and reducer"; both engines here consume this module
through the same :class:`repro.api.job.JobSpec` normalization layer.
"""

from __future__ import annotations

from typing import Any, Generic, Iterable, Iterator, Optional, Tuple, TypeVar

from repro.api.conf import JobConf, USE_NEW_API_KEY
from repro.api.counters import Counters
from repro.api.mapred import Reporter

K1 = TypeVar("K1")
V1 = TypeVar("V1")
K2 = TypeVar("K2")
V2 = TypeVar("V2")
K3 = TypeVar("K3")
V3 = TypeVar("V3")


class TaskContext:
    """Shared context base: configuration, counters, progress, status."""

    def __init__(self, conf: JobConf, reporter: Optional[Reporter] = None):
        self._conf = conf
        self._reporter = reporter if reporter is not None else Reporter()

    def get_configuration(self) -> JobConf:
        return self._conf

    @property
    def configuration(self) -> JobConf:
        return self._conf

    def get_counter(self, key_or_group: Any, name: str = "") -> Any:
        """The addressed counter object (incrementable)."""
        return self._reporter.counters.find_counter(key_or_group, name)

    @property
    def counters(self) -> Counters:
        return self._reporter.counters

    def set_status(self, status: str) -> None:
        self._reporter.set_status(status)

    def progress(self) -> None:
        self._reporter.progress()

    # simulation extension, mirrored from Reporter
    def charge_compute(self, seconds: float) -> None:
        self._reporter.charge_compute(seconds)

    def charge_flops(self, flops: float) -> None:
        self._reporter.charge_flops(flops)

    @property
    def reporter(self) -> Reporter:
        return self._reporter


class MapContext(TaskContext, Generic[K1, V1, K2, V2]):
    """The context a new-API mapper runs against."""

    def __init__(
        self,
        conf: JobConf,
        record_iter: Iterator[Tuple[K1, V1]],
        emit,
        reporter: Optional[Reporter] = None,
    ):
        super().__init__(conf, reporter)
        self._records = record_iter
        self._emit = emit
        self._current: Optional[Tuple[K1, V1]] = None

    def next_key_value(self) -> bool:
        """Advance to the next record; False at end of input."""
        self._current = next(self._records, None)
        return self._current is not None

    def get_current_key(self) -> K1:
        if self._current is None:
            raise StopIteration("no current record")
        return self._current[0]

    def get_current_value(self) -> V1:
        if self._current is None:
            raise StopIteration("no current record")
        return self._current[1]

    def write(self, key: K2, value: V2) -> None:
        self._emit(key, value)


class ReduceContext(TaskContext, Generic[K2, V2, K3, V3]):
    """The context a new-API reducer runs against."""

    def __init__(
        self,
        conf: JobConf,
        group_iter: Iterator[Tuple[K2, Iterable[V2]]],
        emit,
        reporter: Optional[Reporter] = None,
    ):
        super().__init__(conf, reporter)
        self._groups = group_iter
        self._emit = emit
        self._current: Optional[Tuple[K2, Iterable[V2]]] = None

    def next_key(self) -> bool:
        """Advance to the next key group; False at end of input."""
        self._current = next(self._groups, None)
        return self._current is not None

    def get_current_key(self) -> K2:
        if self._current is None:
            raise StopIteration("no current group")
        return self._current[0]

    def get_values(self) -> Iterable[V2]:
        if self._current is None:
            raise StopIteration("no current group")
        return self._current[1]

    def write(self, key: K3, value: V3) -> None:
        self._emit(key, value)


class NewMapper(Generic[K1, V1, K2, V2]):
    """New-style mapper: override :meth:`map` (and optionally the hooks)."""

    def setup(self, context: MapContext) -> None:
        """Called once before the first record."""

    def map(self, key: K1, value: V1, context: MapContext) -> None:
        """Default: identity."""
        context.write(key, value)  # type: ignore[arg-type]

    def cleanup(self, context: MapContext) -> None:
        """Called once after the last record."""

    def run(self, context: MapContext) -> None:
        """The task driver; overridable like Hadoop's ``Mapper.run``."""
        self.setup(context)
        try:
            while context.next_key_value():
                self.map(context.get_current_key(), context.get_current_value(), context)
        finally:
            self.cleanup(context)


class NewReducer(Generic[K2, V2, K3, V3]):
    """New-style reducer: override :meth:`reduce` (and optionally the hooks)."""

    def setup(self, context: ReduceContext) -> None:
        """Called once before the first group."""

    def reduce(self, key: K2, values: Iterable[V2], context: ReduceContext) -> None:
        """Default: identity over the group."""
        for value in values:
            context.write(key, value)  # type: ignore[arg-type]

    def cleanup(self, context: ReduceContext) -> None:
        """Called once after the last group."""

    def run(self, context: ReduceContext) -> None:
        self.setup(context)
        try:
            while context.next_key():
                self.reduce(context.get_current_key(), context.get_values(), context)
        finally:
            self.cleanup(context)


# New-API configuration keys (Hadoop's mapreduce.* namespace).
NEW_MAPPER_CLASS_KEY = "mapreduce.map.class"
NEW_REDUCER_CLASS_KEY = "mapreduce.reduce.class"
NEW_COMBINER_CLASS_KEY = "mapreduce.combine.class"


class Job:
    """The new-API job handle, wrapping a :class:`JobConf`.

    Mirrors Hadoop: ``Job`` is sugar over the configuration; engines consume
    the underlying conf.  ``wait_for_completion`` needs an engine, which in
    Hadoop comes from the cluster configuration — here it is injected (the
    integrated-mode JobClient of :mod:`repro.core.jobclient` does the same
    redirection trick as the paper's classpath swap).
    """

    def __init__(self, conf: Optional[JobConf] = None, job_name: str = ""):
        self.conf = conf if conf is not None else JobConf()
        if job_name:
            self.conf.set_job_name(job_name)
        self.conf.set_boolean(USE_NEW_API_KEY, True)
        self._engine = None

    # -- class wiring --------------------------------------------------- #

    def set_mapper_class(self, cls: type) -> None:
        self.conf.set_class(NEW_MAPPER_CLASS_KEY, cls)

    def set_reducer_class(self, cls: type) -> None:
        self.conf.set_class(NEW_REDUCER_CLASS_KEY, cls)

    def set_combiner_class(self, cls: type) -> None:
        self.conf.set_class(NEW_COMBINER_CLASS_KEY, cls)

    def set_partitioner_class(self, cls: type) -> None:
        self.conf.set_partitioner_class(cls)

    def set_input_format_class(self, cls: type) -> None:
        self.conf.set_input_format(cls)

    def set_output_format_class(self, cls: type) -> None:
        self.conf.set_output_format(cls)

    def set_output_key_class(self, cls: type) -> None:
        self.conf.set_output_key_class(cls)

    def set_output_value_class(self, cls: type) -> None:
        self.conf.set_output_value_class(cls)

    def set_map_output_key_class(self, cls: type) -> None:
        self.conf.set_map_output_key_class(cls)

    def set_map_output_value_class(self, cls: type) -> None:
        self.conf.set_map_output_value_class(cls)

    def set_num_reduce_tasks(self, n: int) -> None:
        self.conf.set_num_reduce_tasks(n)

    def set_sort_comparator_class(self, cls: type) -> None:
        self.conf.set_output_key_comparator_class(cls)

    def set_grouping_comparator_class(self, cls: type) -> None:
        self.conf.set_output_value_grouping_comparator(cls)

    # -- paths ------------------------------------------------------------ #

    def add_input_path(self, path: str) -> None:
        self.conf.add_input_path(path)

    def set_output_path(self, path: str) -> None:
        self.conf.set_output_path(path)

    # -- submission --------------------------------------------------------- #

    def set_engine(self, engine: Any) -> None:
        """Attach the engine ``wait_for_completion`` submits to."""
        self._engine = engine

    def wait_for_completion(self, verbose: bool = False) -> bool:
        """Submit and block until done; True on success (Hadoop semantics)."""
        if self._engine is None:
            raise RuntimeError(
                "no engine attached — call set_engine() or submit via a JobClient"
            )
        result = self._engine.run_job(self.conf)
        if verbose:  # pragma: no cover - cosmetic
            print(f"job {self.conf.get_job_name()}: {result}")
        return result.succeeded
