"""The shared map/reduce kernels and the task-body pieces both engines
spell the same way.

DESIGN.md §16.  A task body — on either engine — splits into three layers:

* **prologue** (in the stage provider): where the input comes from and
  what reaching it costs — M3R's cache lookup and placement, Hadoop's
  fixed per-task overhead and shuffle fetch — everything that must see
  engine state;
* **kernel** (this module): the user-code middle — drive the mapper over
  the prologue's reader into a collector (or merge, group and drive the
  reducer into the caller's sink), consume the user's compute charges.
  :func:`run_map_kernel` / :func:`run_reduce_kernel` are the *only*
  implementation, for both engines: no collector is chosen, no combiner
  run and no runs merged anywhere else;
* **epilogue** (in the stage provider): every remaining cost-model
  charge, derived from the kernel outcome's tallies.  Which charges an
  engine pays, and in which order, is the paper's subject and float
  addition is order-sensitive, so each engine keeps its own epilogue; the
  charge groups the two spell identically (:func:`charge_input_read`,
  :func:`charge_input_decode`, :func:`charge_map_user_code`,
  :func:`charge_reduce_user_code`, :func:`charge_map_combine`) are
  defined here once.

A :class:`TaskLedger` carries a task's running simulated duration, and
:func:`open_task` builds the task-scoped filesystem / conf / reporter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.api.conf import JobConf
from repro.api.counters import Counters, TaskCounter
from repro.api.extensions import is_immutable_output
from repro.api.job import JobSpec
from repro.api.mapred import Reporter
from repro.api.multiple_io import TASK_FS_KEY, TASK_PARTITION_KEY
from repro.engine_common import (
    BatchingReader,
    CollectorSink,
    CountingReader,
    PartitionBuffer,
    batch_size_for,
    imc_armed,
    run_combiner_if_any,
)
from repro.fs.instrumented import FsTally, InstrumentedFileSystem
from repro.lifecycle.pipeline import TaskContext
from repro.sim.metrics import Metrics

__all__ = [
    "MapKernelOutcome",
    "TaskLedger",
    "charge_input_decode",
    "charge_input_read",
    "charge_map_combine",
    "charge_map_user_code",
    "charge_reduce_user_code",
    "open_task",
    "run_map_kernel",
    "run_reduce_kernel",
    "single_partition_sink",
]


class TaskLedger:
    """One task's simulated duration and what its ``TaskEnd`` reports.

    ``charge`` books a cost on the job's phase timer and on the task's
    running sum in one step; the sum is built in call order, so a task
    body's statement order *is* its float-addition order."""

    __slots__ = ("metrics", "seconds", "records", "nbytes", "buffers")

    def __init__(self, metrics: Metrics):
        self.metrics = metrics
        self.seconds = 0.0
        self.records = 0
        self.nbytes = 0
        #: Map tasks: the per-partition output the shuffle routes.
        self.buffers: Sequence[PartitionBuffer] = ()

    def charge(self, phase: str, seconds: float) -> None:
        self.metrics.time.charge(phase, seconds)
        self.seconds += seconds

    def map_output(self, buffers: Sequence[PartitionBuffer]) -> None:
        self.buffers = buffers
        self.records = sum(len(buffer.pairs) for buffer in buffers)
        self.nbytes = sum(buffer.bytes for buffer in buffers)


def open_task(
    tctx: TaskContext, node: int, partition: int
) -> Tuple[FsTally, InstrumentedFileSystem, JobConf, Reporter]:
    """The task-scoped view every task body starts from: a filesystem that
    tallies this task's I/O at ``node``, a conf copy carrying it and the
    task's partition (for MultipleOutputs), and a reporter that prices
    ``charge_flops`` with the engine's cost model."""
    tally = FsTally()
    task_fs = InstrumentedFileSystem(tctx.engine.filesystem, tally, at_node=node)
    task_conf = JobConf(tctx.ctx.conf)
    task_conf.set(TASK_FS_KEY, task_fs)
    task_conf.set(TASK_PARTITION_KEY, partition)
    return tally, task_fs, task_conf, Reporter(
        tctx.ctx.counters, tctx.engine.cost_model
    )


def single_partition_sink(
    counters: Counters, copies: bool, output_counter: TaskCounter
) -> CollectorSink:
    """The buffering output sink of an M3R map-only or reduce task: the
    output stays in memory because the cache admits it after the task."""
    return CollectorSink(
        num_partitions=1,
        partitioner=None,
        counters=counters,
        copies=copies,
        output_counter=output_counter,
    )


# --------------------------------------------------------------------- #
# map kernel
# --------------------------------------------------------------------- #


@dataclass
class MapKernelOutcome:
    """Everything the task body's epilogue charges from."""

    use_batched: bool = False
    use_imc: bool = False
    reader_records: int = 0
    reader_batches: int = 0
    #: Collector pre-combine totals (records/bytes as collected).
    records: int = 0
    bytes: int = 0
    copied_records: int = 0
    copied_bytes: int = 0
    #: The user's charge_compute seconds, split exactly as the monolithic
    #: body consumed them: during the map drive, and during the combine.
    compute_user: float = 0.0
    compute_finish: float = 0.0
    #: Records the combiner emitted (0 without a combiner).
    output_records: int = 0
    #: Per-partition map output (empty when the caller's sink took it).
    buffers: List[PartitionBuffer] = field(default_factory=list)


def run_map_kernel(
    spec: JobSpec,
    split: Any,
    inner_reader: Any,
    counters: Counters,
    reporter: Reporter,
    task_conf: JobConf,
    *,
    copies: bool,
    fresh_runner: bool,
    sink: Optional[Any] = None,
) -> MapKernelOutcome:
    """The middle of a map task: user map (+ the combiner, once per
    partition run) from the prologue's reader into a collector.  No
    engine, no filesystem, no cost model.

    A job with reducers collects into per-partition buffers here; a
    map-only job writes to ``sink``, which the caller owns (M3R a
    one-partition buffer it caches afterwards, Hadoop a streaming record
    writer) and which publishes the task's output counters."""
    batch_size = batch_size_for(task_conf)
    use_batched = batch_size > 0 and spec.supports_batched_map(split)
    use_imc = use_batched and imc_armed(spec, task_conf)
    reader: Any = (
        BatchingReader(inner_reader, counters, batch_size)
        if use_batched
        else CountingReader(inner_reader, counters)
    )
    collector = sink if sink is not None else CollectorSink(
        num_partitions=spec.num_reducers,
        partitioner=spec.partitioner,
        counters=counters,
        copies=copies,
    )

    drive = spec.run_map_task_batched if use_batched else spec.run_map_task
    drive(split, reader, collector, reporter, task_conf, fresh_runner=fresh_runner)
    reader.flush_counters()
    collector.flush_counters()

    outcome = MapKernelOutcome(
        use_batched=use_batched,
        use_imc=use_imc,
        reader_records=reader.records,
        reader_batches=getattr(reader, "batches", 0),
        records=collector.records,
        bytes=collector.bytes,
        copied_records=collector.copied_records,
        copied_bytes=collector.copied_bytes,
        compute_user=reporter.consume_compute_seconds(),
    )
    if sink is not None:
        return outcome

    buffers = collector.partitions
    if spec.combiner_class is not None:
        buffers = [
            run_combiner_if_any(spec, buffer, counters, reporter, copies)
            for buffer in buffers
        ]
        outcome.compute_finish = reporter.consume_compute_seconds()
        outcome.output_records = sum(len(buffer.pairs) for buffer in buffers)
    outcome.buffers = buffers
    return outcome


# --------------------------------------------------------------------- #
# reduce kernel
# --------------------------------------------------------------------- #


def run_reduce_kernel(
    spec: JobSpec,
    shuffle_input: Any,
    sink: Any,
    counters: Counters,
    reporter: Reporter,
    task_conf: JobConf,
) -> float:
    """The middle of a reduce task: merge the pre-sorted runs,
    group, drive the reducer into the caller's ``sink`` (M3R a buffer it
    caches afterwards, Hadoop a streaming record writer).  The output
    tallies are the sink's; returns the user's charge_compute seconds."""
    ordered = shuffle_input.merged(spec.sort_key())
    groups = list(spec.group_sorted_pairs(ordered))
    counters.increment(TaskCounter.REDUCE_INPUT_GROUPS, len(groups))
    counters.increment(TaskCounter.REDUCE_INPUT_RECORDS, shuffle_input.records)

    spec.run_reduce_task(groups, sink, reporter, task_conf)
    sink.flush_counters()
    return reporter.consume_compute_seconds()


# --------------------------------------------------------------------- #
# charge groups both epilogues contain
# --------------------------------------------------------------------- #


def charge_input_read(task: TaskLedger, model: Any, tally: FsTally, local: bool) -> None:
    """Reading a split off the filesystem: disk, plus the wire when no
    replica is on the task's node."""
    task.charge(
        "disk_read",
        model.disk_read_time(tally.bytes_read, seeks=max(1, tally.read_ops)),
    )
    if not local and tally.bytes_read:
        task.charge("network", model.net_transfer_time(tally.bytes_read))
        task.metrics.incr("remote_map_reads")


def charge_input_decode(task: TaskLedger, model: Any, tally: FsTally, records: int) -> None:
    """Turning those bytes into records, and the namenode round trips."""
    task.charge("deserialize", model.deserialize_time(tally.bytes_read, records))
    task.charge("namenode", model.namenode_op * max(1, tally.metadata_ops))


def charge_map_user_code(
    task: TaskLedger, model: Any, spec: JobSpec, split: Any, outcome: MapKernelOutcome
) -> None:
    """The mapper's own compute charges and the framework's per-record
    dispatch."""
    if outcome.use_batched:
        task.metrics.incr("batch_batches", outcome.reader_batches)
        task.metrics.incr("batch_records", outcome.reader_records)
    task.charge("map_compute", outcome.compute_user)
    task.charge("framework", model.map_framework_time(outcome.reader_records))
    if is_immutable_output(spec.resolve_mapper_class(split)):
        _charge_fresh_objects(task, model, outcome.records)


def charge_reduce_user_code(
    task: TaskLedger, model: Any, spec: JobSpec, compute: float, sink: Any
) -> None:
    """The same for a reducer: ``task.records`` is its input, ``sink``
    took its output."""
    task.charge("reduce_compute", compute)
    task.charge("framework", model.reduce_framework_time(task.records))
    if spec.reduce_output_immutable():
        _charge_fresh_objects(task, model, sink.records)


def _charge_fresh_objects(task: TaskLedger, model: Any, records: int) -> None:
    """ImmutableOutput code allocates a fresh object per emit (paper
    Figure 4 right): allocation plus the GC churn it causes."""
    task.charge("alloc", model.alloc_time(records) + model.gc_churn_time(records))


def charge_map_combine(
    task: TaskLedger, model: Any, spec: JobSpec, outcome: MapKernelOutcome
) -> None:
    """Sorting the map output for the combiner, and the combiner's compute.

    An in-mapper-combining task ran that same combine; it also reports it
    as the ``imc_*`` metrics (DESIGN.md §14)."""
    if spec.combiner_class is None:
        return
    task.charge("sort", model.sort_time(outcome.records, outcome.bytes))
    task.charge("map_compute", outcome.compute_finish)
    if outcome.use_imc:
        metrics = task.metrics
        metrics.incr("imc_input_records", outcome.records)
        metrics.incr("imc_output_records", outcome.output_records)
        metrics.incr("imc_folded_records", outcome.records - outcome.output_records)
