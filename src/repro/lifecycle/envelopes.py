"""The shared map/reduce kernels and the task context they run under.

DESIGN.md §16.  A task body used to be one closure over the engine; this
module is the refactor that split it into three layers:

* **prologue** (in the stage provider): cache lookup, filesystem reads,
  placement, feed/network/disk charges — everything that must see engine
  state;
* **kernel** (this module): the pure user-code middle — drive the mapper
  over the prepared reader into the engine's collector (or
  merge/group and drive the reducer), consume the user's compute
  charges.  :func:`run_map_kernel` / :func:`run_reduce_kernel` are the
  *only* implementation;
* **epilogue** (in the stage provider): every remaining cost-model
  charge, derived from the kernel outcome's tallies in exactly the order
  the monolithic body applied them — float addition is order-sensitive
  and the invariant is byte-identical simulated seconds.

A :class:`TaskContext` carries the handles a task body needs (the
explicit replacement for the ``engine``/``self`` captures of the closure
it replaced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.api.conf import JobConf
from repro.api.counters import Counters, TaskCounter
from repro.api.job import JobSpec
from repro.api.mapred import Reporter
from repro.engine_common import (
    BatchingReader,
    CollectorSink,
    CountingReader,
    InMapperCombineSink,
    PartitionBuffer,
    run_combiner_if_any,
)

__all__ = [
    "MapKernelOutcome",
    "ReduceKernelOutcome",
    "TaskContext",
    "run_map_kernel",
    "run_reduce_kernel",
]


@dataclass
class TaskContext:
    """The handles one task body needs: the job context (conf, spec,
    counters, metrics, bus), the engine, and the provider's stage
    scratch.  Task bodies are module-level functions taking one of these —
    never closures over a provider method's scope."""

    ctx: Any
    engine: Any
    st: Dict[str, Any]


def make_task_reader(
    inner: Any, counters: Counters, use_batched: bool, batch_size: int
) -> Any:
    """The counting record source a map kernel drives."""
    if use_batched:
        return BatchingReader(inner, counters, batch_size)
    return CountingReader(inner, counters)


# --------------------------------------------------------------------- #
# map kernel
# --------------------------------------------------------------------- #


@dataclass
class MapKernelOutcome:
    """Everything the task body's epilogue charges from."""

    reader_records: int = 0
    reader_batches: int = 0
    #: Collector pre-finish totals (records/bytes as collected).
    records: int = 0
    bytes: int = 0
    copied_records: int = 0
    copied_bytes: int = 0
    #: The user's charge_compute seconds, split exactly as the monolithic
    #: body consumed them: during the map drive, and during finish/combine.
    compute_user: float = 0.0
    compute_finish: float = 0.0
    output_records: int = 0
    imc_folds: int = 0
    imc_spills: int = 0
    buffers: List[PartitionBuffer] = field(default_factory=list)


def run_map_kernel(
    spec: JobSpec,
    split: Any,
    reader: Any,
    counters: Counters,
    reporter: Reporter,
    task_conf: JobConf,
    *,
    use_batched: bool,
    use_imc: bool,
    imc_max_entries: int,
    policy: str,
    map_only: bool,
) -> MapKernelOutcome:
    """The pure middle of a map task: user map (+ IMC fold / classic
    combiner) from a prepared reader into the engine collector.  No
    engine, no filesystem, no cost model."""
    if map_only:
        collector: Any = CollectorSink(
            num_partitions=1,
            partitioner=None,
            counters=counters,
            record_policy=policy,
        )
    elif use_imc:
        collector = InMapperCombineSink(
            spec,
            num_partitions=spec.num_reducers,
            counters=counters,
            record_policy=policy,
            max_entries=imc_max_entries,
            task_conf=task_conf,
        )
    else:
        collector = CollectorSink(
            num_partitions=spec.num_reducers,
            partitioner=spec.partitioner,
            counters=counters,
            record_policy=policy,
        )

    drive = spec.run_map_task_batched if use_batched else spec.run_map_task
    drive(split, reader, collector, reporter, task_conf, fresh_runner=True)
    reader.flush_counters()
    if not use_imc:  # the in-mapper aggregate publishes from finish()
        collector.flush_counters()

    outcome = MapKernelOutcome(
        reader_records=reader.records,
        reader_batches=getattr(reader, "batches", 0),
        records=collector.records,
        bytes=collector.bytes,
        copied_records=collector.copied_records,
        copied_bytes=collector.copied_bytes,
        compute_user=reporter.consume_compute_seconds(),
    )

    if map_only:
        outcome.buffers = [collector.partitions[0]]
        return outcome

    if use_imc:
        outcome.buffers = collector.finish()
        outcome.compute_finish = reporter.consume_compute_seconds()
        outcome.output_records = collector.output_records
        outcome.imc_folds = collector.imc_folds
        outcome.imc_spills = collector.imc_spills
        return outcome

    buffers = collector.partitions
    if spec.combiner_class is not None:
        buffers = [
            run_combiner_if_any(spec, buffer, counters, reporter, policy)
            for buffer in buffers
        ]
        outcome.compute_finish = reporter.consume_compute_seconds()
    outcome.buffers = buffers
    return outcome


# --------------------------------------------------------------------- #
# reduce kernel
# --------------------------------------------------------------------- #


@dataclass
class ReduceKernelOutcome:
    groups: int = 0
    #: Sink totals: output records/bytes as collected.
    records: int = 0
    bytes: int = 0
    copied_records: int = 0
    copied_bytes: int = 0
    compute_user: float = 0.0
    pairs: List[Tuple[Any, Any]] = field(default_factory=list)


def run_reduce_kernel(
    spec: JobSpec,
    shuffle_input: Any,
    counters: Counters,
    reporter: Reporter,
    task_conf: JobConf,
    *,
    policy: str,
) -> ReduceKernelOutcome:
    """The pure middle of a reduce task: merge, group, drive the reducer
    into a single-partition sink."""
    ordered = shuffle_input.merged(spec.sort_key())
    groups = list(spec.group_sorted_pairs(ordered))
    counters.increment(TaskCounter.REDUCE_INPUT_GROUPS, len(groups))
    counters.increment(TaskCounter.REDUCE_INPUT_RECORDS, shuffle_input.records)

    sink = CollectorSink(
        num_partitions=1,
        partitioner=None,
        counters=counters,
        record_policy=policy,
        output_counter=TaskCounter.REDUCE_OUTPUT_RECORDS,
    )
    spec.run_reduce_task(groups, sink, reporter, task_conf)
    sink.flush_counters()

    return ReduceKernelOutcome(
        groups=len(groups),
        records=sink.records,
        bytes=sink.partitions[0].bytes,
        copied_records=sink.copied_records,
        copied_bytes=sink.copied_bytes,
        compute_user=reporter.consume_compute_seconds(),
        pairs=sink.partitions[0].pairs,
    )
