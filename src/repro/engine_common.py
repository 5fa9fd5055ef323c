"""Machinery shared by the Hadoop baseline engine and the M3R engine.

Both engines execute the same user code through the same
:class:`~repro.api.job.JobSpec` drivers; they differ in *what they simulate
around it*.  This module holds the parts that are engine-agnostic:

* :class:`EngineResult` — what a run returns (success, simulated seconds,
  counters, metrics, output paths);
* :class:`CountingReader` — the record source that keeps the system
  counters honest regardless of which MapRunnable drives the task, whether
  records are handed out one by one or, from an aliasing cache hit, as one
  run;
* :class:`CollectorSink` — the engine-side OutputCollector that partitions
  map output, applies the engine's per-record policy (serialize-now for
  Hadoop, clone-or-alias for M3R) and appends each record to its
  partition's run, through a ``collect`` chosen once per sink.  Nothing
  is sized per record: at task close ``seal()`` measures each run once
  (:func:`~repro.x10.serializer.pairs_size`);
* the per-task counter deltas: readers and sinks tally the per-record
  system counters in plain ints and publish them to the job's
  :class:`~repro.api.counters.Counters` once, in ``flush_counters()``,
  when the task's user code has returned (a task that raises publishes
  nothing, as Hadoop discards a failed attempt's counters);
* :func:`is_local_read` / :func:`charge_fs_write` — the input-locality
  test and the output-file write charge, which do not depend on which
  engine is asking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set, Tuple

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
from repro.x10.serializer import TRANSPORT_COPIES, copy_unregistered, pairs_size

#: Records per batch on the batched map path (``m3r.batch.enabled``).
BATCH_SIZE = 256


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
    """Is this job's map-side combine an in-mapper combine?

    Such a task runs the same collector and combine as any other (one
    combiner call per group of each partition run) and reports them as
    the ``imc_*`` metrics.  Requires the knob, a reduce phase, a combiner
    that carries the associativity license and the natural key ordering.
    """
    return (
        conf_bool(conf, IMC_ENABLED_KEY, env=IMC_ENV, default=False)
        and not spec.is_map_only
        and spec.combiner_class is not None
        and is_associative_reducer(spec.combiner_class)
        and spec.uses_natural_ordering()
    )


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
    out — one by one, or in the run :meth:`take_run` hands over — is
    tallied in ``records`` and published by ``flush_counters()``."""

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

    def take_run(self) -> Optional[List[Tuple[Any, Any]]]:
        """The inner reader's unread records in one list, counted at once,
        when it hands them over whole (an aliasing
        :class:`~repro.api.formats.MaterializedReader`); else ``None``."""
        take_run = getattr(self._inner, "take_run", None)
        run = take_run() if take_run is not None else None
        if run is not None:
            self.records += len(run)
        return run

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
        self.collect = _collect_into(
            [buffer.pairs.append for buffer in self.partitions],
            partitioner.get_partition if partitioner is not None else None,
            copies,
        )


def _out_of_range(partition: int, num_partitions: int) -> ValueError:
    return ValueError(f"partitioner returned {partition} outside [0, {num_partitions})")


def _collect_into(
    appends: List[Callable[[Tuple[Any, Any]], None]],
    get_partition: Optional[Callable[[Any, Any, int], int]],
    copies: bool,
) -> Callable[[Any, Any], None]:
    """A sink's ``collect``, decided once per sink: the record policy (the
    clone, or, on the alias path, the sanitizer's observe when it is on),
    the partitioner call and its bounds check when there is a partitioner,
    and one append to the partition's run.  Each variant is one closure,
    so a record costs one Python-level call besides the partitioner."""
    get, other = TRANSPORT_COPIES.get, copy_unregistered
    num_partitions = len(appends)
    append = appends[0]

    if get_partition is None and copies:

        def collect(key: Any, value: Any) -> None:
            append((get(type(key), other)(key), get(type(value), other)(value)))

    elif get_partition is None:

        def collect(key: Any, value: Any) -> None:
            append((key, value))

    elif copies:

        def collect(key: Any, value: Any) -> None:
            key, value = get(type(key), other)(key), get(type(value), other)(value)
            partition = get_partition(key, value, num_partitions)
            if not 0 <= partition < num_partitions:
                raise _out_of_range(partition, num_partitions)
            appends[partition]((key, value))

    else:

        def collect(key: Any, value: Any) -> None:
            partition = get_partition(key, value, num_partitions)
            if not 0 <= partition < num_partitions:
                raise _out_of_range(partition, num_partitions)
            appends[partition]((key, value))

    if copies or not MUTATION_SANITIZER.enabled:
        return collect
    aliased, observe = collect, MUTATION_SANITIZER.observe

    def collect(key: Any, value: Any) -> None:
        # Aliased records are covered by the ImmutableOutput contract from
        # the moment they are collected: fingerprint them here so a later
        # mutation is caught at the next send or cache read.
        observe(key, site="CollectorSink.collect")
        observe(value, site="CollectorSink.collect")
        aliased(key, value)

    return collect


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
        get, other = TRANSPORT_COPIES.get, copy_unregistered
        key, value = get(type(key), other)(key), get(type(value), other)(value)
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
