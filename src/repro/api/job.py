"""Job normalization: one view of a job for both engines.

A Hadoop job configuration can wire user code through either API generation
(old-style ``mapred`` or new-style ``mapreduce``), through a custom
``MapRunnable``, through ``MultipleInputs`` tagging, with or without a
combiner, and with custom sort/grouping comparators.  Rather than teach both
engines all of those combinations, :class:`JobSpec` resolves a ``JobConf``
into a uniform description plus *drivers* that execute the user code — the
engines then differ only in what they simulate around the drivers (which is
precisely the paper's API-versus-engine distinction).

The immutability rules of paper Section 4.1 are encoded here:

* a map task's output is immutable iff the mapper class implements
  ``ImmutableOutput`` *and* the map runner does (a custom runner must be
  marked; M3R's fresh-object replacement of the default runner is marked;
  the stock default runner is not);
* a reduce task's output is immutable iff the reducer class is marked.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.api.conf import JobConf
from repro.api.extensions import is_immutable_output
from repro.api.formats import (
    InputFormat,
    OutputFormat,
    SequenceFileInputFormat,
    SequenceFileOutputFormat,
)
from repro.api.mapred import (
    DefaultMapRunnable,
    FreshObjectMapRunnable,
    IdentityMapper,
    MapRunnable,
    Mapper,
    OutputCollector,
    Reducer,
    Reporter,
    _reuse_into,
)
from repro.api.vectorized import is_vectorized, pack_batch
from repro.api.mapreduce import (
    NEW_COMBINER_CLASS_KEY,
    NEW_MAPPER_CLASS_KEY,
    NEW_REDUCER_CLASS_KEY,
    MapContext,
    NewMapper,
    NewReducer,
    ReduceContext,
)
from repro.api.multiple_io import DelegatingMapper, TaggedInputSplit
from repro.api.partitioner import HashPartitioner, Partitioner
from repro.api.splits import InputSplit
from repro.api.writables import RAW_SORT_KEYS

Pair = Tuple[Any, Any]
PairKey = Callable[[Pair], Any]


def _compare_fn(comparator_class: Optional[type]) -> Optional[Callable[[Any, Any], int]]:
    """Build a cmp(a, b) -> int from a comparator class, if one is set."""
    if comparator_class is None:
        return None
    comparator = comparator_class()
    compare = getattr(comparator, "compare", None)
    if not callable(compare):
        raise TypeError(f"{comparator_class.__name__} has no compare(a, b) method")
    return compare


def _natural_compare(a: Any, b: Any) -> int:
    """Default key ordering: WritableComparable.compare_to, else rich compare."""
    compare_to = getattr(a, "compare_to", None)
    if callable(compare_to):
        return compare_to(b)
    return (a > b) - (a < b)


#: ``JobSpec.sort_key()`` of every job without a sort comparator — one shared
#: object, so :func:`sort_run` / :func:`merge_runs` recognise the natural
#: order by identity.
NATURAL_SORT_KEY: PairKey = functools.cmp_to_key(
    lambda a, b: _natural_compare(a[0], b[0])  # type: ignore[misc]
)

_key_of = operator.itemgetter(0)
_value_of = operator.itemgetter(1)


def _raw_key_column(pairs: List[Pair]) -> Optional[List[Any]]:
    """The raw form of every key of ``pairs``, in run order, if the run has
    one: every key is of one exact class with an entry in
    :data:`~repro.api.writables.RAW_SORT_KEYS`.  Such keys compare in C,
    and since they order and equate exactly as ``compare_to`` does, a
    stable sort and a grouping over them return what the comparator
    returns, object for object.  Anything else — a subclass, an
    unregistered or plain-Python key, a run mixing classes — gets None."""
    keys = list(map(_key_of, pairs))
    classes = set(map(type, keys))
    raw = RAW_SORT_KEYS.get(classes.pop()) if len(classes) == 1 else None
    if raw is None:
        return None
    return list(map(raw, keys))


def sort_run(pairs: List[Pair], key: PairKey) -> List[Pair]:
    """``sorted(pairs, key=key)``.  When ``key`` is the natural order and
    the run has raw keys, the run is ordered through its raw-key column:
    ``range(n)`` sorted by column position, then the pairs picked in that
    order, all without a Python call per pair."""
    if key is NATURAL_SORT_KEY:
        column = _raw_key_column(pairs)
        if column is not None:
            order = sorted(range(len(column)), key=column.__getitem__)
            return list(map(pairs.__getitem__, order))
    return sorted(pairs, key=key)


def merge_runs(runs: List[List[Pair]], key: PairKey) -> List[Pair]:
    """Merge runs sorted by ``key``: a :func:`sort_run` of their
    concatenation.  Timsort finds the runs and merges them, and it is
    stable, so ties keep run order."""
    return sort_run(list(itertools.chain.from_iterable(runs)), key)


@dataclass
class JobSpec:
    """A normalized, engine-agnostic job description."""

    conf: JobConf
    name: str
    input_format: InputFormat
    output_format: OutputFormat
    partitioner: Partitioner
    num_reducers: int
    input_paths: List[str]
    output_path: Optional[str]
    mapper_class: Optional[type]
    reducer_class: Optional[type]
    combiner_class: Optional[type]
    map_runner_class: Optional[type]
    sort_cmp: Callable[[Any, Any], int]
    group_cmp: Callable[[Any, Any], int]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_conf(cls, conf: JobConf) -> "JobSpec":
        """Resolve a JobConf into a JobSpec (validates the wiring)."""
        mapper_class = conf.get_class(NEW_MAPPER_CLASS_KEY) or conf.get_mapper_class()
        reducer_class = conf.get_class(NEW_REDUCER_CLASS_KEY) or conf.get_reducer_class()
        combiner_class = (
            conf.get_class(NEW_COMBINER_CLASS_KEY) or conf.get_combiner_class()
        )
        input_format_class = conf.get_input_format() or SequenceFileInputFormat
        output_format_class = conf.get_output_format() or SequenceFileOutputFormat
        partitioner_class = conf.get_partitioner_class() or HashPartitioner
        partitioner = partitioner_class()
        partitioner.configure(conf)

        sort_fn = _compare_fn(conf.get_output_key_comparator_class()) or _natural_compare
        group_fn = _compare_fn(conf.get_output_value_grouping_comparator()) or sort_fn

        num_reducers = conf.get_num_reduce_tasks()
        if num_reducers < 0:
            raise ValueError("negative reducer count")

        return cls(
            conf=conf,
            name=conf.get_job_name(),
            input_format=input_format_class(),
            output_format=output_format_class(),
            partitioner=partitioner,
            num_reducers=num_reducers,
            input_paths=conf.get_input_paths(),
            output_path=conf.get_output_path(),
            mapper_class=mapper_class,
            reducer_class=reducer_class,
            combiner_class=combiner_class,
            map_runner_class=conf.get_map_runner_class(),
            sort_cmp=sort_fn,
            group_cmp=group_fn,
        )

    # ------------------------------------------------------------------ #
    # shape queries
    # ------------------------------------------------------------------ #

    @property
    def is_map_only(self) -> bool:
        """Zero reducers: map output goes straight to the output format."""
        return self.num_reducers == 0

    def sort_key(self) -> PairKey:
        """A ``sorted`` key function over (key, value) pairs; engines apply
        it through :func:`sort_run` / :func:`merge_runs`."""
        cmp = self.sort_cmp
        if cmp is _natural_compare:
            return NATURAL_SORT_KEY
        return functools.cmp_to_key(lambda a, b: cmp(a[0], b[0]))  # type: ignore[misc]

    def resolve_mapper_class(self, split: InputSplit) -> type:
        """The mapper that should process ``split`` (MultipleInputs-aware)."""
        if isinstance(split, TaggedInputSplit):
            return split.mapper_class
        if self.mapper_class is None:
            return IdentityMapper
        return self.mapper_class

    def uses_natural_ordering(self) -> bool:
        """No custom sort or grouping comparator (DESIGN.md §14).

        In-mapper combining groups keys with a hash table, so it is only
        byte-identical to sort-then-combine when dict equality and the
        comparators agree — guaranteed for the natural ordering, not for
        arbitrary user comparators.
        """
        return self.sort_cmp is _natural_compare and self.group_cmp is _natural_compare

    def supports_batched_map(self, split: InputSplit) -> bool:
        """Can the batched driver run this split's mapper faithfully?

        Custom MapRunnables own their own read loop and new-API mappers run
        through a context; both fall back to the per-record driver.
        """
        mapper_class = self.resolve_mapper_class(split)
        if mapper_class is DelegatingMapper:
            return False
        if _uses_new_api(mapper_class):
            return False
        return self.map_runner_class is None

    # ------------------------------------------------------------------ #
    # immutability (paper Section 4.1)
    # ------------------------------------------------------------------ #

    def map_output_immutable(self, split: InputSplit, fresh_runner: bool) -> bool:
        """May the engine alias this map task's output instead of cloning?

        ``fresh_runner`` reflects whether the engine replaced the default
        MapRunnable with the fresh-object variant (M3R does; Hadoop does not
        need to, since it serializes immediately).
        """
        mapper_class = self.resolve_mapper_class(split)
        if not is_immutable_output(mapper_class):
            return False
        if _uses_new_api(mapper_class):
            return True  # new API has no MapRunnable; the class marker decides
        if self.map_runner_class is not None:
            return is_immutable_output(self.map_runner_class)
        return fresh_runner

    def reduce_output_immutable(self) -> bool:
        """May the engine alias reduce output instead of cloning?"""
        return self.reducer_class is not None and is_immutable_output(self.reducer_class)

    # ------------------------------------------------------------------ #
    # drivers: execute user code uniformly for both engines
    # ------------------------------------------------------------------ #

    def run_map_task(
        self,
        split: InputSplit,
        reader: Any,
        collector: OutputCollector,
        reporter: Reporter,
        task_conf: Optional[JobConf] = None,
        fresh_runner: bool = False,
    ) -> None:
        """Drive one map task's user code over ``reader`` into ``collector``.

        ``task_conf`` is the task-scoped configuration (defaults to a copy of
        the job conf); ``fresh_runner`` selects M3R's fresh-object
        replacement for the default MapRunnable.
        """
        conf = task_conf if task_conf is not None else JobConf(self.conf)
        mapper_class = self.resolve_mapper_class(split)
        if mapper_class is DelegatingMapper:
            raise ValueError(
                "DelegatingMapper reached a map task without a TaggedInputSplit; "
                "register inputs through MultipleInputs.add_input_path"
            )

        if _uses_new_api(mapper_class):
            mapper = mapper_class()
            context = MapContext(conf, iter(reader), collector.collect, reporter)
            mapper.run(context)
            return

        mapper = mapper_class()
        mapper.configure(conf)
        runner: MapRunnable
        if self.map_runner_class is not None:
            runner = self.map_runner_class(mapper)
            runner.configure(conf)
        elif fresh_runner:
            runner = FreshObjectMapRunnable(mapper)
        else:
            runner = DefaultMapRunnable(mapper)
        try:
            runner.run(reader, collector, reporter)
        finally:
            mapper.close()

    def run_map_task_batched(
        self,
        split: InputSplit,
        reader: Any,
        collector: OutputCollector,
        reporter: Reporter,
        task_conf: Optional[JobConf] = None,
        fresh_runner: bool = False,
    ) -> None:
        """Batched counterpart of :meth:`run_map_task` (DESIGN.md §14).

        ``reader`` must expose ``next_batch() -> list[(k, v)] | None``
        (see :class:`repro.engine_common.BatchingReader`).  Record order,
        object-reuse semantics and emissions are identical to the
        per-record driver; only the read/dispatch granularity changes.
        Unsupported shapes (custom MapRunnable, new-API mapper) fall back
        to :meth:`run_map_task` driven through the same reader.
        """
        if not self.supports_batched_map(split):
            self.run_map_task(split, reader, collector, reporter, task_conf, fresh_runner)
            return
        conf = task_conf if task_conf is not None else JobConf(self.conf)
        mapper_class = self.resolve_mapper_class(split)
        mapper = mapper_class()
        mapper.configure(conf)
        next_batch = reader.next_batch
        try:
            if is_vectorized(mapper_class):
                as_arrays = bool(getattr(mapper_class, "batch_arrays", False))
                map_batch = mapper.map_batch
                while True:
                    batch = next_batch()
                    if batch is None:
                        break
                    keys, values = pack_batch(
                        [pair[0] for pair in batch],
                        [pair[1] for pair in batch],
                        as_arrays,
                    )
                    map_batch(keys, values, collector, reporter)
            elif fresh_runner:
                map_fn = mapper.map
                while True:
                    batch = next_batch()
                    if batch is None:
                        break
                    for key, value in batch:
                        map_fn(key, value, collector, reporter)
            else:
                # Hadoop's stock object-reuse loop, batched: same
                # _reuse_into dance per record as DefaultMapRunnable.
                map_fn = mapper.map
                reused_key: Any = None
                reused_value: Any = None
                while True:
                    batch = next_batch()
                    if batch is None:
                        break
                    for key, value in batch:
                        reused_key = _reuse_into(reused_key, key)
                        reused_value = _reuse_into(reused_value, value)
                        map_fn(reused_key, reused_value, collector, reporter)
        finally:
            mapper.close()

    def run_reduce_task(
        self,
        groups: Iterable[Tuple[Any, List[Any]]],
        collector: OutputCollector,
        reporter: Reporter,
        task_conf: Optional[JobConf] = None,
    ) -> None:
        """Drive one reduce task's user code over grouped, sorted input."""
        self._run_reduce_like(self.reducer_class, groups, collector, reporter, task_conf)

    def run_combine(
        self,
        groups: Iterable[Tuple[Any, List[Any]]],
        collector: OutputCollector,
        reporter: Reporter,
        task_conf: Optional[JobConf] = None,
    ) -> None:
        """Drive the combiner (caller guarantees one is configured)."""
        if self.combiner_class is None:
            raise RuntimeError("run_combine called on a job without a combiner")
        self._run_reduce_like(self.combiner_class, groups, collector, reporter, task_conf)

    def _run_reduce_like(
        self,
        reducer_class: Optional[type],
        groups: Iterable[Tuple[Any, List[Any]]],
        collector: OutputCollector,
        reporter: Reporter,
        task_conf: Optional[JobConf],
    ) -> None:
        conf = task_conf if task_conf is not None else JobConf(self.conf)
        if reducer_class is None:
            for key, values in groups:
                for value in values:
                    collector.collect(key, value)
            return
        if _uses_new_api(reducer_class):
            reducer = reducer_class()
            context = ReduceContext(conf, iter(groups), collector.collect, reporter)
            reducer.run(context)
            return
        reducer = reducer_class()
        reducer.configure(conf)
        try:
            for key, values in groups:
                reducer.reduce(key, iter(values), collector, reporter)
        finally:
            reducer.close()

    def group_sorted_pairs(
        self, pairs: List[Tuple[Any, Any]]
    ) -> Iterator[Tuple[Any, List[Any]]]:
        """Group an already-sorted run of pairs with the grouping comparator.

        On raw keys, when that is the natural order and the run has them, a
        group starts wherever a raw key differs from the one before, and its
        values are one slice of the value column: the groups are built
        without a Python call per pair or per group."""
        column = _raw_key_column(pairs) if self.group_cmp is _natural_compare else None
        if column is None:
            return self._group_by_comparator(pairs)
        starts = [
            0,
            *itertools.compress(
                range(1, len(column)),
                map(operator.ne, itertools.islice(column, 1, None), column),
            ),
        ]
        values = list(map(_value_of, pairs))
        return zip(
            map(_key_of, map(pairs.__getitem__, starts)),
            map(values.__getitem__, map(slice, starts, starts[1:] + [len(values)])),
        )

    def _group_by_comparator(
        self, pairs: Iterable[Tuple[Any, Any]]
    ) -> Iterator[Tuple[Any, List[Any]]]:
        group_key: Any = None
        group_values: List[Any] = []
        for key, value in pairs:
            if group_values and self.group_cmp(key, group_key) == 0:
                group_values.append(value)
            else:
                if group_values:
                    yield group_key, group_values
                group_key = key
                group_values = [value]
        if group_values:
            yield group_key, group_values


def _uses_new_api(cls: type) -> bool:
    """Is this a new-style (``mapreduce``) mapper/reducer class?"""
    return issubclass(cls, (NewMapper, NewReducer))


class JobSequence:
    """An ordered pipeline of jobs, each consuming its predecessors' output.

    The HMR API does not represent workflows (paper Section 3: "the client
    must submit two MR jobs, using the output of the first as an input to
    the second"); this helper is client-side sugar only — it submits jobs
    one at a time, exactly as a Hadoop driver program would.
    """

    def __init__(self, confs: Optional[List[JobConf]] = None):
        self.confs: List[JobConf] = list(confs) if confs is not None else []

    def add(self, conf: JobConf) -> "JobSequence":
        self.confs.append(conf)
        return self

    def __len__(self) -> int:
        return len(self.confs)

    def __iter__(self) -> Iterator[JobConf]:
        return iter(self.confs)

    def run_all(self, engine: Any) -> List[Any]:
        """Submit every job in order; stops at (and raises on) a failure."""
        results = []
        for conf in self.confs:
            result = engine.run_job(conf)
            results.append(result)
            if not result.succeeded:
                raise RuntimeError(
                    f"job {conf.get_job_name()!r} failed: {result.error}"
                )
        return results
