"""The Hadoop engine's stage provider: out-of-core execution as stages.

The body of the old monolithic ``HadoopEngine._execute`` (paper
Section 3.1), decomposed onto the shared pipeline:

    setup → plan_splits → map → [reduce] → commit

Hadoop has no ``shuffle`` stage of its own: the shuffle is the copy phase
of its reduce tasks (disk at source, wire, disk at sink), charged inside
each task body — surfacing it as a barrier stage would change the
simulation.  There are no ``cache-admit``/``teardown`` stages either;
nothing survives between jobs, which is the behaviour M3R's cache
eliminates.

Clock discipline matches the M3R provider: each ``ctx.advance`` is one
``clock +=`` of the original ``_execute``, same expressions, same order,
so simulated seconds are byte-identical to the pre-lifecycle engine.

Task bodies are module-level functions over an explicit
:class:`~repro.lifecycle.envelopes.TaskContext` — the same shape as the
M3R provider (DESIGN.md §16).  They do not go through the shared
kernels, though: the stock engine's task bodies interleave user code with
streaming filesystem reads and record writers by design.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.api.conf import NUM_MAPS_HINT_KEY, JobConf
from repro.api.counters import JobCounter, TaskCounter
from repro.api.extensions import is_immutable_output
from repro.api.formats import FileOutputFormat
from repro.api.job import merge_runs, sort_run
from repro.api.mapred import Reporter
from repro.api.multiple_io import TASK_FS_KEY, TASK_PARTITION_KEY
from repro.api.splits import InputSplit
from repro.engine_common import (
    BatchingReader,
    CollectorSink,
    CountingReader,
    InMapperCombineSink,
    PartitionBuffer,
    WriterCollector,
    batch_size_for,
    imc_armed,
    imc_max_entries_for,
    run_combiner_if_any,
)
from repro.fs.instrumented import FsTally, InstrumentedFileSystem
from repro.hadoop_engine.scheduler import SlotLanes, place_map_tasks, reduce_node_for
from repro.lifecycle.envelopes import TaskContext
from repro.lifecycle.pipeline import JobContext, StageFn, StageProvider
from repro.lifecycle.subscriptions import SanitizerSubscription
from repro.restore import admission as restore

__all__ = [
    "HadoopStageProvider",
    "SORT_BUFFER_KEY",
    "DEFAULT_SORT_BUFFER",
    "FAILURE_DETECT_FACTOR",
    "run_hadoop_map_task",
    "run_hadoop_reduce_task",
]

#: Map-side sort buffer (Hadoop's io.sort.mb, in bytes).
SORT_BUFFER_KEY = "io.sort.mb.bytes"
DEFAULT_SORT_BUFFER = 100 * 1024 * 1024

#: Extra time to detect a dead tasktracker (heartbeat expiry).
FAILURE_DETECT_FACTOR = 10


class HadoopStageProvider(StageProvider):
    """Supplies the stock engine's heartbeat/JVM/disk-flavoured stages."""

    engine_name = "hadoop"
    #: Hadoop reschedules around failures; every failure is reported
    #: through the result object, never raised.
    raise_node_failure = False

    # ------------------------------------------------------------------ #
    # pipeline contract
    # ------------------------------------------------------------------ #

    def subscriptions(self, ctx: JobContext) -> Sequence[Callable[[Any], None]]:
        # No governor here — the stock engine has no cache to govern.
        return (SanitizerSubscription(ctx),)

    def stages(self, ctx: JobContext) -> Iterable[Tuple[str, StageFn]]:
        # Partials, not lambdas: a stage thunk reads what its arguments
        # say, never this method's scope.
        st: Dict[str, Any] = {}
        reuse = restore.restore_enabled(ctx.conf)
        if reuse:
            # Same shape as the M3R provider: the generator resumes after
            # admission ran, so a hit swaps the stage list for one serve.
            yield "admission", functools.partial(restore.admit, ctx, self.engine, st)
            if st.get(restore.HIT_KEY) is not None:
                yield "serve", functools.partial(
                    restore.serve_hadoop, ctx, self.engine, st
                )
                return
        yield "setup", functools.partial(self._setup, ctx, st)
        yield "plan_splits", functools.partial(self._plan_splits, ctx, st)
        yield "map", functools.partial(self._map_stage, ctx, st)
        if not ctx.spec.is_map_only:
            yield "reduce", functools.partial(self._reduce_stage, ctx, st)
        yield "commit", functools.partial(self._commit, ctx, st)
        if reuse:
            yield "restore-record", functools.partial(
                restore.record, ctx, self.engine, st
            )

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #

    def _setup(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        model = engine.cost_model
        spec, conf = ctx.spec, ctx.conf
        st["job_salt"] = f"job_{engine._job_counter}_{spec.name}"

        spec.output_format.check_output_specs(engine.filesystem, conf)
        st["committer"] = spec.output_format.get_output_committer()
        st["committer"].setup_job(engine.filesystem, conf)

        # Submission: staging, split calculation, jobtracker RPCs.
        ctx.advance(model.hadoop_job_submit)
        ctx.metrics.time.charge("job_submit", model.hadoop_job_submit)

    def _plan_splits(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        spec, conf = ctx.spec, ctx.conf
        hint = conf.get_int(NUM_MAPS_HINT_KEY, 0) or engine.cluster.num_nodes * 2
        splits = spec.input_format.get_splits(engine.filesystem, conf, hint)
        ctx.metrics.incr("map_tasks", len(splits))
        ctx.counters.increment(JobCounter.TOTAL_LAUNCHED_MAPS, len(splits))

        placements, data_local = place_map_tasks(
            splits, engine.cluster, engine._host_to_node
        )
        placements = engine._reroute_failures(placements, ctx.metrics)
        ctx.counters.increment(JobCounter.DATA_LOCAL_MAPS, data_local)
        st["splits"] = splits
        st["placements"] = placements

    def _map_stage(self, ctx: JobContext, st: Dict[str, Any]) -> Dict[int, float]:
        engine = self.engine
        placements: List[int] = st["placements"]

        tctx = TaskContext(ctx, engine, st)
        map_results = [
            run_hadoop_map_task(tctx, index) for index in range(len(placements))
        ]
        # Tasks ran one after another; their concurrency is simulated here,
        # by packing the durations onto map_slots lanes per node.
        map_lanes = SlotLanes(engine.cluster.num_nodes, engine.map_slots)
        map_outputs: List[List[PartitionBuffer]] = []
        map_nodes: List[int] = []
        for index, (duration, buffers) in enumerate(map_results):
            map_lanes.add_task(placements[index], duration)
            map_outputs.append(buffers)
            map_nodes.append(placements[index])
        ctx.advance(map_lanes.makespan())
        for index, (duration, buffers) in enumerate(map_results):
            ctx.emit_task(
                "map", index, placements[index], duration,
                records=sum(len(b.pairs) for b in buffers),
                nbytes=sum(b.bytes for b in buffers),
            )
        st["map_outputs"] = map_outputs
        st["map_nodes"] = map_nodes
        return map_lanes.node_busy_seconds()

    def _reduce_stage(self, ctx: JobContext, st: Dict[str, Any]) -> Dict[int, float]:
        engine = self.engine
        spec = ctx.spec

        ctx.counters.increment(JobCounter.TOTAL_LAUNCHED_REDUCES, spec.num_reducers)
        reduce_nodes: List[int] = []
        failovers: List[bool] = []
        for partition in range(spec.num_reducers):
            node = reduce_node_for(
                st["job_salt"], partition, engine.cluster.num_nodes
            )
            node, failover = engine._healthy_node(node)
            reduce_nodes.append(node)
            failovers.append(failover)
        st["reduce_nodes"] = reduce_nodes
        st["failovers"] = failovers

        tctx = TaskContext(ctx, engine, st)
        durations = [
            run_hadoop_reduce_task(tctx, partition)
            for partition in range(spec.num_reducers)
        ]
        reduce_lanes = SlotLanes(engine.cluster.num_nodes, engine.reduce_slots)
        for partition, duration in enumerate(durations):
            reduce_lanes.add_task(reduce_nodes[partition], duration)
        ctx.advance(reduce_lanes.makespan())
        for partition, duration in enumerate(durations):
            ctx.emit_task("reduce", partition, reduce_nodes[partition], duration)
        return reduce_lanes.node_busy_seconds()

    def _commit(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        model = engine.cost_model
        st["committer"].commit_job(engine.filesystem, ctx.conf)
        ctx.advance(model.hadoop_job_cleanup)
        ctx.metrics.time.charge("job_submit", model.hadoop_job_cleanup)


# ---------------------------------------------------------------------- #
# task bodies
# ---------------------------------------------------------------------- #


def _hadoop_task_fixed_overhead(ctx: JobContext, model: Any) -> float:
    ctx.metrics.time.charge("scheduling", model.task_scheduling)
    ctx.metrics.time.charge("jvm_startup", model.jvm_startup)
    return model.task_scheduling + model.jvm_startup


def run_hadoop_map_task(
    tctx: TaskContext, task_index: int
) -> Tuple[float, List[PartitionBuffer]]:
    """Execute one map task; returns (simulated duration, partition buffers)."""
    ctx, engine, st = tctx.ctx, tctx.engine, tctx.st
    split: InputSplit = st["splits"][task_index]
    node: int = st["placements"][task_index]
    model = engine.cost_model
    spec, conf = ctx.spec, ctx.conf
    counters, metrics = ctx.counters, ctx.metrics
    duration = _hadoop_task_fixed_overhead(ctx, model)

    tally = FsTally()
    task_fs = InstrumentedFileSystem(engine.filesystem, tally, at_node=node)
    task_conf = JobConf(conf)
    task_conf.set(TASK_FS_KEY, task_fs)
    task_conf.set(TASK_PARTITION_KEY, task_index)
    reporter = Reporter(counters)

    batch_size = batch_size_for(conf)
    use_batched = batch_size > 0 and spec.supports_batched_map(split)
    use_imc = use_batched and imc_armed(spec, conf)

    raw_reader = spec.input_format.get_record_reader(
        task_fs, split, task_conf, reporter
    )
    reader: Any = (
        BatchingReader(raw_reader, counters, batch_size)
        if use_batched
        else CountingReader(raw_reader, counters)
    )

    def run_user_code(sink: Any) -> None:
        if use_batched:
            spec.run_map_task_batched(split, reader, sink, reporter, task_conf)
            metrics.incr("batch_batches", reader.batches)
            metrics.incr("batch_records", reader.records)
        else:
            spec.run_map_task(split, reader, sink, reporter, task_conf)
        reader.flush_counters()

    collector: Any = None
    if spec.is_map_only:
        writer = spec.output_format.get_record_writer(
            task_fs, task_conf, FileOutputFormat.part_name(task_index), reporter
        )
        sink = WriterCollector(writer, counters, record_policy="serialize")
        run_user_code(sink)
        sink.flush_counters()
        writer.close()
        buffers: List[PartitionBuffer] = []
        out_bytes, out_records = sink.bytes, sink.records
    elif use_imc:
        collector = InMapperCombineSink(
            spec,
            num_partitions=spec.num_reducers,
            counters=counters,
            record_policy="serialize",
            max_entries=imc_max_entries_for(conf),
            task_conf=task_conf,
        )
        run_user_code(collector)
        buffers = []  # produced by collector.finish() after the charges
        out_bytes, out_records = collector.bytes, collector.records
    else:
        collector = CollectorSink(
            num_partitions=spec.num_reducers,
            partitioner=spec.partitioner,
            counters=counters,
            record_policy="serialize",
        )
        run_user_code(collector)
        collector.flush_counters()
        buffers = collector.partitions
        out_bytes, out_records = collector.bytes, collector.records

    # --- input-side costs -------------------------------------------- #
    local = engine._is_local_read(split, node)
    read_time = model.disk_read_time(tally.bytes_read, seeks=max(1, tally.read_ops))
    metrics.time.charge("disk_read", read_time)
    duration += read_time
    if not local and tally.bytes_read:
        net = model.net_transfer_time(tally.bytes_read)
        metrics.time.charge("network", net)
        duration += net
        metrics.incr("remote_map_reads")
    deser = model.deserialize_time(tally.bytes_read, reader.records)
    metrics.time.charge("deserialize", deser)
    duration += deser
    nn = model.namenode_op * max(1, tally.metadata_ops)
    metrics.time.charge("namenode", nn)
    duration += nn

    # --- user code + framework ------------------------------------------ #
    compute = reporter.consume_compute_seconds()
    metrics.time.charge("map_compute", compute)
    duration += compute
    framework = model.map_framework_time(reader.records)
    metrics.time.charge("framework", framework)
    duration += framework
    if is_immutable_output(spec.resolve_mapper_class(split)):
        # The ImmutableOutput style allocates a fresh object per emit
        # (paper Figure 4 right); the stock engine pays that GC churn.
        alloc = model.alloc_time(out_records) + model.gc_churn_time(out_records)
        metrics.time.charge("alloc", alloc)
        duration += alloc

    # --- output-side costs ----------------------------------------------- #
    ser = model.serialize_time(out_bytes, out_records)
    metrics.time.charge("serialize", ser)
    duration += ser

    if spec.is_map_only:
        write_time = engine._charge_fs_write(tally.bytes_written, metrics)
        duration += write_time
        return duration, buffers

    # Combiner runs over the sorted in-memory buffer, per spill set.
    if use_imc:
        # Same charge the buffer-sort-combine path pays, from the same
        # pre-combine totals; only the wall-clock mechanism differs
        # (DESIGN.md §14).
        sort_time = model.sort_time(collector.records, collector.bytes)
        metrics.time.charge("sort", sort_time)
        duration += sort_time
        buffers = collector.finish()
        compute = reporter.consume_compute_seconds()
        metrics.time.charge("map_compute", compute)
        duration += compute
        metrics.incr("imc_input_records", collector.records)
        metrics.incr("imc_output_records", collector.output_records)
        metrics.incr("imc_folded_records", collector.imc_folds)
        metrics.incr("imc_spills", collector.imc_spills)
    elif spec.combiner_class is not None:
        pre_records = sum(len(b.pairs) for b in buffers)
        pre_bytes = sum(b.bytes for b in buffers)
        sort_time = model.sort_time(pre_records, pre_bytes)
        metrics.time.charge("sort", sort_time)
        duration += sort_time
        combined: List[PartitionBuffer] = []
        for buffer in buffers:
            combined.append(
                run_combiner_if_any(spec, buffer, counters, reporter, "serialize")
            )
        buffers = combined
        compute = reporter.consume_compute_seconds()
        metrics.time.charge("map_compute", compute)
        duration += compute

    spill_bytes = sum(b.bytes for b in buffers)
    spill_records = sum(len(b.pairs) for b in buffers)
    counters.increment(TaskCounter.SPILLED_RECORDS, spill_records)
    if spec.combiner_class is None:
        sort_time = model.sort_time(spill_records, spill_bytes)
        metrics.time.charge("sort", sort_time)
        duration += sort_time
    spill_write = model.disk_write_time(spill_bytes, seeks=1)
    metrics.time.charge("disk_write", spill_write)
    duration += spill_write
    metrics.incr("map_spill_bytes", spill_bytes)

    sort_buffer = conf.get_int(SORT_BUFFER_KEY, DEFAULT_SORT_BUFFER)
    spills = max(1, math.ceil(spill_bytes / max(1, sort_buffer)))
    if spills > 1:
        merge = model.external_merge_time(spill_records, spill_bytes, spills)
        metrics.time.charge("merge", merge)
        duration += merge

    return duration, buffers


def run_hadoop_reduce_task(tctx: TaskContext, partition: int) -> float:
    ctx, engine, st = tctx.ctx, tctx.engine, tctx.st
    node: int = st["reduce_nodes"][partition]
    map_outputs: List[List[PartitionBuffer]] = st["map_outputs"]
    map_nodes: List[int] = st["map_nodes"]
    model = engine.cost_model
    spec, conf = ctx.spec, ctx.conf
    counters, metrics = ctx.counters, ctx.metrics
    duration = _hadoop_task_fixed_overhead(ctx, model)

    # --- shuffle fetch: disk at source, wire, disk at sink ----------- #
    run_lists: List[List[Tuple[Any, Any]]] = []
    total_bytes = 0
    total_records = 0
    disk_read_time = model.disk_read_time
    disk_write_time = model.disk_write_time
    net_transfer_time = model.net_transfer_time
    incr = metrics.incr
    charge = metrics.time.charge
    for map_index, buffers in enumerate(map_outputs):
        buffer = buffers[partition]
        if not buffer.pairs:
            continue
        run_lists.append(buffer.pairs)
        total_bytes += buffer.bytes
        total_records += len(buffer.pairs)
        fetch = disk_read_time(buffer.bytes, seeks=1)
        if map_nodes[map_index] != node:
            fetch += net_transfer_time(buffer.bytes)
            incr("shuffle_remote_bytes", buffer.bytes)
        else:
            incr("shuffle_local_bytes", buffer.bytes)
        fetch += disk_write_time(buffer.bytes, seeks=1)
        charge("network", fetch)
        duration += fetch
    counters.increment(TaskCounter.REDUCE_SHUFFLE_BYTES, total_bytes)

    # --- out-of-core merge sort ---------------------------------------- #
    runs = len(run_lists)
    merge = model.external_merge_time(total_records, total_bytes, max(1, runs))
    metrics.time.charge("merge", merge)
    duration += merge
    deser = model.deserialize_time(total_bytes, total_records)
    metrics.time.charge("deserialize", deser)
    duration += deser

    # Real Hadoop ships map output as sorted spill runs and the reducer
    # merges; do the same so record order (stable-merge of stable-sorted
    # runs, in map-index order) matches M3R's shuffle record for record.
    # The charge is the external merge above.
    sort_key = spec.sort_key()
    pairs = merge_runs([sort_run(run, sort_key) for run in run_lists], sort_key)
    groups = list(spec.group_sorted_pairs(pairs))
    counters.increment(TaskCounter.REDUCE_INPUT_GROUPS, len(groups))
    counters.increment(TaskCounter.REDUCE_INPUT_RECORDS, len(pairs))

    # --- reduce user code ------------------------------------------------- #
    tally = FsTally()
    task_fs = InstrumentedFileSystem(engine.filesystem, tally, at_node=node)
    task_conf = JobConf(conf)
    task_conf.set(TASK_FS_KEY, task_fs)
    task_conf.set(TASK_PARTITION_KEY, partition)
    reporter = Reporter(counters)
    writer = spec.output_format.get_record_writer(
        task_fs, task_conf, FileOutputFormat.part_name(partition), reporter
    )
    sink = WriterCollector(writer, counters, record_policy="serialize")
    spec.run_reduce_task(groups, sink, reporter, task_conf)
    sink.flush_counters()
    writer.close()

    compute = reporter.consume_compute_seconds()
    metrics.time.charge("reduce_compute", compute)
    duration += compute
    framework = model.reduce_framework_time(len(pairs))
    metrics.time.charge("framework", framework)
    duration += framework
    if spec.reduce_output_immutable():
        alloc = model.alloc_time(sink.records) + model.gc_churn_time(sink.records)
        metrics.time.charge("alloc", alloc)
        duration += alloc
    ser = model.serialize_time(sink.bytes, sink.records)
    metrics.time.charge("serialize", ser)
    duration += ser

    duration += engine._charge_fs_write(tally.bytes_written, metrics)
    nn = model.namenode_op * max(1, tally.metadata_ops)
    metrics.time.charge("namenode", nn)
    duration += nn

    if st["failovers"][partition]:
        duration += model.task_scheduling * FAILURE_DETECT_FACTOR
        ctx.metrics.incr("reduce_task_failovers")
    return duration
