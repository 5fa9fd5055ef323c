"""Machinery shared by the Hadoop baseline engine and the M3R engine.

Both engines execute the same user code through the same
:class:`~repro.api.job.JobSpec` drivers; they differ in *what they simulate
around it*.  This module holds the parts that are engine-agnostic:

* :class:`EngineResult` — what a run returns (success, simulated seconds,
  counters, metrics, output paths);
* :class:`CountingReader` / :class:`MaterializedReader` — record sources that
  keep the system counters honest regardless of which MapRunnable drives the
  task;
* :class:`CollectorSink` — the engine-side OutputCollector that partitions
  map output, applies the engine's per-record policy (serialize-now for
  Hadoop, clone-or-alias for M3R) and appends each record to its
  partition's run.  Nothing is sized per record: at task close ``seal()``
  measures each run once (:func:`~repro.x10.serializer.pairs_size`);
* the per-task counter deltas: readers and sinks tally the per-record
  system counters in plain ints and publish them to the job's
  :class:`~repro.api.counters.Counters` once, in ``flush_counters()``,
  when the task's user code has returned (a task that raises publishes
  nothing, as Hadoop discards a failed attempt's counters);
* :func:`pair_bytes`, the per-record size the in-mapper fold still takes,
  because the fold consumes values before the task closes;
* :func:`is_local_read` / :func:`charge_fs_write` — the input-locality
  test and the output-file write charge, which do not depend on which
  engine is asking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Set, Tuple

from repro.analysis.sanitizers import MUTATION_SANITIZER
from repro.api.conf import (
    BATCH_ENABLED_KEY,
    BATCH_ENV,
    IMC_ENABLED_KEY,
    IMC_ENV,
    JobConf,
    conf_bool,
)
from repro.api.counters import Counters, TaskCounter
from repro.api.extensions import DelegatingSplit
from repro.api.formats import RecordReader
from repro.api.job import JobSpec, sort_run
from repro.api.mapred import OutputCollector, Reporter
from repro.api.partitioner import Partitioner
from repro.api.vectorized import is_associative_reducer
from repro.fs.hdfs import SimulatedHDFS
from repro.sim.metrics import Metrics
from repro.x10.serializer import deep_copy_value, estimate_size, pairs_size

#: Records per batch on the batched map path (``m3r.batch.enabled``).
BATCH_SIZE = 256

#: Bound on live keys in one map task's in-mapper aggregate
#: (``m3r.imc.enabled``); past it the aggregate spills to a partial list
#: that is re-merged at task finish.
IMC_MAX_ENTRIES = 4096


class JobFailedError(RuntimeError):
    """Raised when a job cannot complete (M3R raises this on node failure —
    the engine "does not recover from node failure", paper Section 1)."""


@dataclass
class EngineResult:
    """The outcome of one job (or job sequence step) on either engine."""

    job_name: str
    engine: str
    succeeded: bool
    simulated_seconds: float
    counters: Counters
    metrics: Metrics
    output_path: Optional[str] = None
    error: Optional[str] = None
    #: Lifecycle identity: the job id stamped on this run's bus events
    #: (``m3r-<n>`` / ``hadoop-<n>``), correlating results with traces.
    job_id: Optional[str] = None

    def __repr__(self) -> str:
        status = "ok" if self.succeeded else f"FAILED({self.error})"
        return (
            f"EngineResult({self.job_name!r}, engine={self.engine}, {status}, "
            f"t={self.simulated_seconds:.2f}s)"
        )


def batch_size_for(conf: Optional[JobConf]) -> int:
    """Resolved batch size for a task: 0 when the batched path is off."""
    if not conf_bool(conf, BATCH_ENABLED_KEY, env=BATCH_ENV, default=False):
        return 0
    return BATCH_SIZE


def imc_armed(spec: JobSpec, conf: Optional[JobConf]) -> bool:
    """Should this job's map tasks fold through an InMapperCombineSink?

    Conservative by construction: requires the batched path, a reduce
    phase, a combiner that carries the associativity license, and the
    natural key ordering (dict-equality grouping must agree with the
    sort/group comparators — custom comparators fall back per-record).
    """
    return (
        conf_bool(conf, IMC_ENABLED_KEY, env=IMC_ENV, default=False)
        and not spec.is_map_only
        and spec.combiner_class is not None
        and is_associative_reducer(spec.combiner_class)
        and spec.uses_natural_ordering()
    )


def pair_bytes(key: Any, value: Any) -> int:
    """Wire size of one key/value pair, ignoring cross-record sharing."""
    return estimate_size(key) + estimate_size(value)


def part_index(basename: str) -> Optional[int]:
    """The partition number in a ``part-NNNNN``-style file name."""
    for prefix in ("part-r-", "part-m-", "part-"):
        if basename.startswith(prefix):
            tail = basename[len(prefix):]
            if tail.isdigit():
                return int(tail)
    return None


def unwrap_split(split: Any) -> Any:
    """The innermost split behind any chain of ``DelegatingSplit`` wrappers
    (paper Section 4.2.1): the one whose naming and locality rules apply."""
    seen: Set[int] = set()
    current = split
    while isinstance(current, DelegatingSplit) and id(current) not in seen:
        seen.add(id(current))
        current = current.get_delegate()
    return current


def is_local_read(engine: Any, split: Any, node: int) -> bool:
    """Does ``node`` hold a replica of the split's data (or does the split
    not say where it lives)?  A non-local map read also pays the wire."""
    hostname = engine.cluster.node(node).hostname
    locations = unwrap_split(split).get_locations()
    return (not locations) or hostname in locations or "localhost" in locations


def charge_fs_write(engine: Any, nbytes: int, metrics: Metrics) -> float:
    """Charge one output file's write to the engine's real filesystem —
    local disk plus, on HDFS, the pipelined replication — and return the
    simulated seconds."""
    if nbytes <= 0:
        return 0.0
    model = engine.cost_model
    write = model.disk_write_time(nbytes, seeks=1)
    if isinstance(engine.raw_filesystem, SimulatedHDFS):
        extra_replicas = engine.raw_filesystem.replication - 1
        if extra_replicas > 0:
            write += model.net_transfer_time(nbytes * extra_replicas)
            write += model.disk_write_time(nbytes * extra_replicas, seeks=1)
    metrics.time.charge("disk_write", write)
    metrics.incr("hdfs_output_bytes", nbytes)
    return write


class CountingReader(RecordReader):
    """Wraps a reader so MAP_INPUT_RECORDS is counted by the engine, not by
    whichever MapRunnable happens to drive the task: every record handed
    out is tallied in ``records`` and published by ``flush_counters()``."""

    def __init__(self, inner: RecordReader, counters: Counters):
        self._inner = inner
        self._counters = counters
        self._flushed = False
        self.records = 0

    def next_pair(self) -> Optional[Tuple[Any, Any]]:
        pair = self._inner.next_pair()
        if pair is not None:
            self.records += 1
        return pair

    def flush_counters(self) -> None:
        """Publish the task's MAP_INPUT_RECORDS (idempotent; an empty task
        creates no counter)."""
        if self._flushed or self.records == 0:
            return
        self._flushed = True
        self._counters.increment(TaskCounter.MAP_INPUT_RECORDS, self.records)

    def get_progress(self) -> float:
        return self._inner.get_progress()

    def close(self) -> None:
        self._inner.close()


class MaterializedReader(RecordReader):
    """A reader over an in-memory pair list (cache hits, reduce feeds).

    With ``clone=True`` each record is defensively copied before being handed
    out — M3R does this when serving cached data to a job that has not
    promised ImmutableOutput behaviour.
    """

    def __init__(self, pairs: List[Tuple[Any, Any]], clone: bool = False):
        self._pairs = pairs
        self._index = 0
        self._clone = clone

    def next_pair(self) -> Optional[Tuple[Any, Any]]:
        if self._index >= len(self._pairs):
            return None
        key, value = self._pairs[self._index]
        self._index += 1
        if self._clone:
            return deep_copy_value(key), deep_copy_value(value)
        return key, value

    def take_batch(self, n: int) -> List[Tuple[Any, Any]]:
        """Native batch slice (same records, same order as ``next_pair``)."""
        chunk = self._pairs[self._index : self._index + n]
        self._index += len(chunk)
        if self._clone:
            copy = deep_copy_value
            return [(copy(key), copy(value)) for key, value in chunk]
        return chunk

    def get_progress(self) -> float:
        if not self._pairs:
            return 1.0
        return self._index / len(self._pairs)


class BatchingReader(CountingReader):
    """A :class:`CountingReader` that also hands out batches.

    ``next_batch`` pulls up to ``batch_size`` records (via the inner
    reader's native ``take_batch`` when it has one).  ``next_pair`` stays
    available for drivers that fall back to the per-record loop.
    """

    def __init__(self, inner: RecordReader, counters: Counters, batch_size: int):
        super().__init__(inner, counters)
        self._batch_size = batch_size
        self._take = getattr(inner, "take_batch", None)
        self.batches = 0

    def next_batch(self) -> Optional[List[Tuple[Any, Any]]]:
        if self._take is not None:
            batch = self._take(self._batch_size)
        else:
            batch = []
            append = batch.append
            next_pair = self._inner.next_pair
            for _ in range(self._batch_size):
                pair = next_pair()
                if pair is None:
                    break
                append(pair)
        if not batch:
            return None
        self.records += len(batch)
        self.batches += 1
        return batch


@dataclass
class PartitionBuffer:
    """Output destined for one partition: the run of pairs and, once its
    collector is sealed, their exact wire bytes."""

    pairs: List[Tuple[Any, Any]] = field(default_factory=list)
    bytes: int = 0


class _TallyingCollector(OutputCollector):
    """What both engine-side sinks keep per task — records, exact wire
    bytes, and how many of each were copied — and how the tallies become
    the task's output counters.  A sink appends to the runs in
    ``partitions`` and sizes nothing per record; :meth:`seal` measures each
    run once at task close, so tallies are read after ``flush_counters()``
    (DESIGN.md §14, *Collector side*)."""

    def __init__(self, counters: Counters, output_counter: TaskCounter, copies: bool):
        self._counters = counters
        self._output_counter = output_counter
        self._copies = copies
        self._flushed = False
        self.partitions: List[PartitionBuffer] = []
        self.records = 0
        self.bytes = 0
        self.copied_records = 0
        self.copied_bytes = 0

    def seal(self) -> None:
        """Measure each run once; set every buffer's ``bytes`` and the
        tallies (a copied record is measured on its clone, as wide as its
        original; an aliased one at close, not at emit)."""
        records = nbytes = 0
        for buffer in self.partitions:
            buffer.bytes = pairs_size(buffer.pairs)
            records += len(buffer.pairs)
            nbytes += buffer.bytes
        self.records, self.bytes = records, nbytes
        if self._copies:
            self.copied_records, self.copied_bytes = records, nbytes

    def flush_counters(self) -> None:
        """Seal, then publish the task's output counters (idempotent; an
        empty task creates no counter).  Map output also reports its bytes."""
        if self._flushed:
            return
        self.seal()
        if self.records == 0:
            return
        self._flushed = True
        self._counters.increment(self._output_counter, self.records)
        if self._output_counter is TaskCounter.MAP_OUTPUT_RECORDS:
            self._counters.increment(TaskCounter.MAP_OUTPUT_BYTES, self.bytes)


class CollectorSink(_TallyingCollector):
    """The engine-side map/reduce output collector.

    ``copies`` is the engine's per-record treatment, applied *before*
    buffering: ``True`` snapshots each record via clone (Hadoop's
    immediate serialization, or M3R's defensive copy); ``False`` keeps the
    reference (M3R with ImmutableOutput).  The engines charge time from
    the records and exact wire bytes, which ``flush_counters()`` measures
    once per partition run and publishes as the task's output counters.
    """

    def __init__(
        self,
        num_partitions: int,
        partitioner: Optional[Partitioner],
        counters: Counters,
        copies: bool = True,
        output_counter: TaskCounter = TaskCounter.MAP_OUTPUT_RECORDS,
    ):
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        super().__init__(counters, output_counter, copies=copies)
        self.partitions = [PartitionBuffer() for _ in range(num_partitions)]
        # Hot-loop hoists: collect() runs once per record, so the runs'
        # appends and the partition count are resolved here instead of
        # there.
        self._appends = [buffer.pairs.append for buffer in self.partitions]
        self._num_partitions = num_partitions
        self._get_partition = (
            partitioner.get_partition if partitioner is not None else None
        )

    def collect(self, key: Any, value: Any) -> None:
        if self._copies:
            key = deep_copy_value(key)
            value = deep_copy_value(value)
        elif MUTATION_SANITIZER.enabled:
            # Aliased records are covered by the ImmutableOutput contract
            # from the moment they are collected: fingerprint them here so
            # a later mutation is caught at the next send or cache read.
            MUTATION_SANITIZER.observe(key, site="CollectorSink.collect")
            MUTATION_SANITIZER.observe(value, site="CollectorSink.collect")
        get_partition = self._get_partition
        if get_partition is not None:
            partition = get_partition(key, value, self._num_partitions)
            if not 0 <= partition < self._num_partitions:
                raise ValueError(
                    f"partitioner returned {partition} outside "
                    f"[0, {self._num_partitions})"
                )
        else:
            partition = 0
        self._appends[partition]((key, value))


class WriterCollector(_TallyingCollector):
    """Adapts a RecordWriter to the OutputCollector interface: the stock
    engine's streaming output sink.  Every record is snapshotted before
    the write (the moral equivalent of Hadoop's immediate serialization),
    so user code may reuse its objects; the sink keeps the snapshots it
    wrote as its one run, for ``seal()`` to measure.  ``output_counter``
    is the task body's choice: a map-only task's output is map output, a
    reduce task's is reduce output."""

    def __init__(self, writer: Any, counters: Counters, output_counter: TaskCounter):
        super().__init__(counters, output_counter, copies=True)
        self.partitions = [PartitionBuffer()]
        self._keep = self.partitions[0].pairs.append
        self._write = writer.write

    def collect(self, key: Any, value: Any) -> None:
        key = deep_copy_value(key)
        value = deep_copy_value(value)
        self._keep((key, value))
        self._write(key, value)


def run_combiner_if_any(
    spec: JobSpec,
    buffer: PartitionBuffer,
    counters: Counters,
    reporter: Reporter,
    copies: bool,
) -> PartitionBuffer:
    """Apply the job's combiner to one partition buffer (sorted first,
    as Hadoop sorts spills before combining).  Returns the combined buffer
    (or the input unchanged when no combiner is configured)."""
    if spec.combiner_class is None or not buffer.pairs:
        return buffer
    ordered = sort_run(buffer.pairs, spec.sort_key())
    groups = spec.group_sorted_pairs(ordered)
    combined = CollectorSink(
        num_partitions=1,
        partitioner=None,
        counters=counters,
        copies=copies,
        output_counter=TaskCounter.COMBINE_OUTPUT_RECORDS,
    )
    counters.increment(TaskCounter.COMBINE_INPUT_RECORDS, len(ordered))
    spec.run_combine(groups, combined, reporter)
    combined.flush_counters()
    return combined.partitions[0]


class _FoldSlot(OutputCollector):
    """Captures the single pair a conforming associative combiner emits."""

    __slots__ = ("key", "value", "emitted")

    def __init__(self) -> None:
        self.key: Any = None
        self.value: Any = None
        self.emitted = 0

    def collect(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.emitted += 1


class InMapperCombineSink(_TallyingCollector):
    """Map-output collector that folds duplicate keys as they arrive.

    The per-record path buffers every emission, sorts each partition and
    runs the combiner over the sorted groups.  This sink produces the
    byte-identical result without the full buffer or the full sort: a
    bounded per-partition hash aggregate folds each key incrementally via
    the combiner itself, and ``finish()`` sorts only the surviving
    (already-combined) pairs.  Identity holds because (see DESIGN.md §14):

    * the stable sort in the per-record path preserves arrival order
      within equal keys, so its per-key fold order *is* arrival order —
      exactly the order the incremental fold uses;
    * the combiner carries the :class:`~repro.api.vectorized.\
AssociativeReducer` license (fold associativity covers the spill-to-emit
      re-merge), emits exactly one fresh pair per call and charges
      nothing — enforced structurally via :class:`_FoldSlot` and a
      private throwaway reporter;
    * counters are published from tracked totals at ``finish()``: every
      original record counts once as COMBINE_INPUT_RECORDS, every
      surviving pair once as COMBINE_OUTPUT_RECORDS, per non-empty
      partition, matching the per-record path's increments exactly.

    Unhashable keys degrade the sink to plain buffering (the ``finish``
    pass then is the classic sort+combine, still counter-silent until the
    flush), so arming the sink is never a correctness gamble.
    """

    def __init__(
        self,
        spec: JobSpec,
        num_partitions: int,
        counters: Counters,
        copies: bool,
        task_conf: Optional[JobConf] = None,
    ):
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        # The tallies are pre-combine totals (what the per-record
        # CollectorSink would have tallied): the stage charges sort and
        # serialize time from these.
        super().__init__(counters, TaskCounter.MAP_OUTPUT_RECORDS, copies=copies)
        self._spec = spec
        self._num_partitions = num_partitions
        self._get_partition = spec.partitioner.get_partition
        self._aggregates: List[dict] = [{} for _ in range(num_partitions)]
        self._partials: List[List[Tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        self._pre_records: List[int] = [0] * num_partitions
        self._entries = 0
        self._degraded = False
        self._finished = False
        # One combiner instance folds for the whole task; its emissions are
        # captured by the slot and its (contractually absent) charges and
        # counter updates land in a private reporter, never the task's.
        self._combiner = spec.combiner_class()
        self._combiner.configure(
            task_conf if task_conf is not None else JobConf(spec.conf)
        )
        self._slot = _FoldSlot()
        self._fold_reporter = Reporter()
        # Post-combine totals, available after finish().
        self.output_records = 0
        self.output_bytes = 0
        self.imc_folds = 0
        self.imc_spills = 0

    # -- record intake -------------------------------------------------- #

    def collect(self, key: Any, value: Any) -> None:
        nbytes = pair_bytes(key, value)
        if self._copies:
            # Mirror the per-record clone *accounting* exactly; physical
            # copies happen only for pairs that are actually retained
            # (first occurrences and final emissions) — folded values are
            # consumed inside this call, so mutation-after-collect cannot
            # reach them.
            self.copied_records += 1
            self.copied_bytes += nbytes
        elif MUTATION_SANITIZER.enabled:
            MUTATION_SANITIZER.observe(key, site="InMapperCombineSink.collect")
            MUTATION_SANITIZER.observe(value, site="InMapperCombineSink.collect")
        partition = self._get_partition(key, value, self._num_partitions)
        if not 0 <= partition < self._num_partitions:
            raise ValueError(
                f"partitioner returned {partition} outside "
                f"[0, {self._num_partitions})"
            )
        self._pre_records[partition] += 1
        self.records += 1
        self.bytes += nbytes
        if self._degraded:
            self._buffer_raw(partition, key, value)
            return
        aggregate = self._aggregates[partition]
        try:
            accumulator = aggregate.get(key)
        except TypeError:  # unhashable key: fold nothing, buffer everything
            self._degrade()
            self._buffer_raw(partition, key, value)
            return
        if accumulator is None:
            if self._entries >= IMC_MAX_ENTRIES:
                self._spill_all()
                aggregate = self._aggregates[partition]
            if self._copies:
                key = deep_copy_value(key)
                value = deep_copy_value(value)
            aggregate[key] = value
            self._entries += 1
        else:
            aggregate[key] = self._fold(key, accumulator, value)
            self.imc_folds += 1

    def _fold(self, key: Any, accumulator: Any, value: Any) -> Any:
        """One combiner call over [accumulator, value] (arrival order)."""
        return self._reduce_values(key, (accumulator, value))

    def _fold_one(self, key: Any, value: Any) -> Any:
        """One combiner call over [value] — the unit fold.

        Every surviving entry passes through this at ``finish`` so the
        output object graph matches the per-record path exactly: the
        classic combiner rewrites *every* group (singletons included) with
        a fresh output object, so a mapper-shared value object never
        reaches the shuffle — and the de-duplicating wire measurement —
        on either path.  The AssociativeReducer unit law (a one-value
        reduce emits that value unchanged) makes this a no-op value-wise.
        """
        return self._reduce_values(key, (value,))

    def _reduce_values(self, key: Any, values: Tuple[Any, ...]) -> Any:
        slot = self._slot
        slot.emitted = 0
        self._combiner.reduce(key, iter(values), slot, self._fold_reporter)
        if slot.emitted != 1:
            raise ValueError(
                f"{type(self._combiner).__name__} emitted {slot.emitted} "
                "pairs in one reduce call; an AssociativeReducer must emit "
                "exactly one"
            )
        folded = slot.value
        if not self._copies and MUTATION_SANITIZER.enabled:
            # The fold result is retained under the aliasing policy: a
            # combiner that recycles its emitted object (a contract lie)
            # trips the sanitizer on the next fold of the same key.
            MUTATION_SANITIZER.observe(folded, site="InMapperCombineSink.fold")
        return folded

    def _buffer_raw(self, partition: int, key: Any, value: Any) -> None:
        if self._copies:
            key = deep_copy_value(key)
            value = deep_copy_value(value)
        self._partials[partition].append((key, value))

    def _degrade(self) -> None:
        """Fall back to buffering: move live aggregates to the partials."""
        self._degraded = True
        self._flush_aggregates()

    def _spill_all(self) -> None:
        """Spill-to-emit on overflow: demote every live entry to a partial
        (arrival-order prefix folds; associativity covers the re-merge)."""
        self.imc_spills += 1
        self._flush_aggregates()

    def _flush_aggregates(self) -> None:
        for partition, aggregate in enumerate(self._aggregates):
            if aggregate:
                self._partials[partition].extend(aggregate.items())
                aggregate.clear()
        self._entries = 0

    # -- end of task ----------------------------------------------------- #

    def seal(self) -> None:
        """Nothing to measure at close: the fold consumes values inside
        ``collect``, so this sink tallies each record there."""

    def finish(self) -> List[PartitionBuffer]:
        """Close out the task: merge spills, sort the combined pairs, apply
        the record policy, publish the task's counters, and hand back
        per-partition buffers shaped exactly like the per-record path's."""
        if self._finished:
            raise RuntimeError("InMapperCombineSink.finish called twice")
        self._finished = True
        try:
            buffers = [self._finish_partition(p) for p in range(self._num_partitions)]
        finally:
            self._combiner.close()
        counters = self._counters
        self.flush_counters()
        for partition, buffer in enumerate(buffers):
            if self._pre_records[partition]:
                counters.increment(
                    TaskCounter.COMBINE_INPUT_RECORDS, self._pre_records[partition]
                )
                counters.increment(
                    TaskCounter.COMBINE_OUTPUT_RECORDS, len(buffer.pairs)
                )
            self.output_records += len(buffer.pairs)
            self.output_bytes += buffer.bytes
        return buffers

    def _finish_partition(self, partition: int) -> PartitionBuffer:
        live = list(self._aggregates[partition].items())
        partials = self._partials[partition]
        if not live and not partials:
            return PartitionBuffer()
        fold_one = self._fold_one
        if partials:
            # Spilled/degraded pairs precede the live aggregate in arrival
            # order for every key, so the stable sort reconstructs exactly
            # the per-record path's per-key value order before re-folding.
            ordered = sort_run(partials + live, self._spec.sort_key())
            pairs = []
            fold = self._fold
            for key, values in self._spec.group_sorted_pairs(ordered):
                if len(values) == 1:
                    accumulator = fold_one(key, values[0])
                else:
                    accumulator = values[0]
                    for value in values[1:]:
                        accumulator = fold(key, accumulator, value)
                pairs.append((key, accumulator))
        else:
            pairs = [
                (key, fold_one(key, value))
                for key, value in sort_run(live, self._spec.sort_key())
            ]
        if self._copies:
            pairs = [(deep_copy_value(k), deep_copy_value(v)) for k, v in pairs]
        elif MUTATION_SANITIZER.enabled:
            MUTATION_SANITIZER.observe_pairs(pairs, site="InMapperCombineSink.finish")
        return PartitionBuffer(pairs, pairs_size(pairs))
