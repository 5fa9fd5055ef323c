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
:class:`~repro.lifecycle.pipeline.TaskContext` and split as the M3R
provider's do (DESIGN.md §16):

    prologue  (heartbeat wait + JVM start, the task filesystem and the raw
               split reader; for a reduce, the shuffle fetch filling a
               ShuffleInput with sorted runs)
    → kernel  (user code, :mod:`repro.lifecycle.kernels` — the kernels the
               M3R provider runs, here copying every record as it is
               emitted, the stock object-reusing map runner and, for
               map-only and reduce output, a streaming record-writer sink:
               output is written while the task runs)
    → epilogue (charges from the kernel outcome, in this engine's order:
                every read deserializes, every emit serializes, map output
                sorts and spills, reduce input merges out of core, output
                pays HDFS replication)

This module picks no collector, runs no combiner and merges no runs: what
user code does is the kernels' business, what it costs on a disk-based
engine is this module's.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, Iterable, List, Tuple

from repro.api.counters import JobCounter, TaskCounter
from repro.api.formats import FileOutputFormat
from repro.api.job import sort_run
from repro.api.splits import InputSplit
from repro.engine_common import (
    PartitionBuffer,
    WriterCollector,
    charge_fs_write,
    is_local_read,
)
from repro.hadoop_engine.scheduler import SlotLanes, place_map_tasks, reduce_node_for
from repro.lifecycle.kernels import (
    TaskLedger,
    charge_input_decode,
    charge_input_read,
    charge_map_combine,
    charge_map_user_code,
    charge_reduce_user_code,
    open_task,
    run_map_kernel,
    run_reduce_kernel,
)
from repro.lifecycle.pipeline import JobContext, StageFn, StageProvider, TaskContext
from repro.restore import admission as restore
from repro.shuffle import ShuffleInput

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

    serve_hit = staticmethod(restore.serve_hadoop)

    def job_stages(
        self, ctx: JobContext, st: Dict[str, Any]
    ) -> Iterable[Tuple[str, StageFn]]:
        yield "setup", functools.partial(self._setup, ctx, st)
        yield "plan_splits", functools.partial(self._plan_splits, ctx, st)
        yield "map", functools.partial(self._map_stage, ctx, st)
        if not ctx.spec.is_map_only:
            yield "reduce", functools.partial(self._reduce_stage, ctx, st)
        yield "commit", functools.partial(self._commit, ctx, st)

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
        splits = self.plan_splits(ctx, engine.cluster.num_nodes * 2)
        placements, data_local = place_map_tasks(
            splits, engine.cluster, engine._host_to_node
        )
        placements = engine._reroute_failures(placements, ctx.metrics)
        ctx.counters.increment(JobCounter.DATA_LOCAL_MAPS, data_local)
        st["splits"] = splits
        st["placements"] = placements

    def _map_stage(self, ctx: JobContext, st: Dict[str, Any]) -> Dict[int, float]:
        engine = self.engine
        tasks, busy = self.run_task_phase(
            ctx, st, "map",
            SlotLanes(engine.cluster.num_nodes, engine.map_slots),
            st["placements"], run_hadoop_map_task,
        )
        st["map_outputs"] = [task.buffers for task in tasks]
        return busy

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

        _, busy = self.run_task_phase(
            ctx, st, "reduce",
            SlotLanes(engine.cluster.num_nodes, engine.reduce_slots),
            reduce_nodes, run_hadoop_reduce_task,
        )
        return busy

    def _commit(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        model = engine.cost_model
        st["committer"].commit_job(engine.filesystem, ctx.conf)
        ctx.advance(model.hadoop_job_cleanup)
        ctx.metrics.time.charge("job_submit", model.hadoop_job_cleanup)


# ---------------------------------------------------------------------- #
# task bodies
# ---------------------------------------------------------------------- #


def _open_hadoop_task(ctx: JobContext, model: Any) -> TaskLedger:
    """Every task starts by waiting for a heartbeat to be scheduled and
    for its JVM to come up — the fixed overhead M3R's long-lived places
    do not pay."""
    task = TaskLedger(ctx.metrics)
    task.charge("scheduling", model.task_scheduling)
    task.charge("jvm_startup", model.jvm_startup)
    return task


def run_hadoop_map_task(tctx: TaskContext, task_index: int) -> TaskLedger:
    """Execute one map task; its ledger carries the partition buffers."""
    ctx, engine, st = tctx.ctx, tctx.engine, tctx.st
    split: InputSplit = st["splits"][task_index]
    node: int = st["placements"][task_index]
    model = engine.cost_model
    spec = ctx.spec
    counters, metrics = ctx.counters, ctx.metrics
    task = _open_hadoop_task(ctx, model)
    tally, task_fs, task_conf, reporter = open_task(tctx, node, task_index)

    raw_reader = spec.input_format.get_record_reader(
        task_fs, split, task_conf, reporter
    )
    writer = sink = None
    if spec.is_map_only:
        writer = spec.output_format.get_record_writer(
            task_fs, task_conf, FileOutputFormat.part_name(task_index), reporter
        )
        sink = WriterCollector(writer, counters, TaskCounter.MAP_OUTPUT_RECORDS)
    # Hadoop serializes every emit at once, so the stock object-reusing
    # runner is safe and every record is snapshotted as it is collected.
    outcome = run_map_kernel(
        spec, split, raw_reader, counters, reporter, task_conf,
        copies=True, fresh_runner=False, sink=sink,
    )
    if writer is not None:
        writer.close()

    charge_input_read(task, model, tally, is_local_read(engine, split, node))
    charge_input_decode(task, model, tally, outcome.reader_records)
    charge_map_user_code(task, model, spec, split, outcome)
    task.charge("serialize", model.serialize_time(outcome.bytes, outcome.records))

    if spec.is_map_only:
        task.seconds += charge_fs_write(engine, tally.bytes_written, metrics)
        return task

    # The combiner runs over the sorted in-memory buffer, per spill set.
    charge_map_combine(task, model, spec, outcome)

    task.map_output(outcome.buffers)
    spill_records, spill_bytes = task.records, task.nbytes
    counters.increment(TaskCounter.SPILLED_RECORDS, spill_records)
    if spec.combiner_class is None:
        task.charge("sort", model.sort_time(spill_records, spill_bytes))
    task.charge("disk_write", model.disk_write_time(spill_bytes, seeks=1))
    metrics.incr("map_spill_bytes", spill_bytes)

    sort_buffer = ctx.conf.get_int(SORT_BUFFER_KEY, DEFAULT_SORT_BUFFER)
    spills = max(1, math.ceil(spill_bytes / max(1, sort_buffer)))
    if spills > 1:
        task.charge(
            "merge", model.external_merge_time(spill_records, spill_bytes, spills)
        )
    return task


def run_hadoop_reduce_task(tctx: TaskContext, partition: int) -> TaskLedger:
    ctx, engine, st = tctx.ctx, tctx.engine, tctx.st
    node: int = st["reduce_nodes"][partition]
    map_nodes: List[int] = st["placements"]
    model = engine.cost_model
    spec = ctx.spec
    counters, metrics = ctx.counters, ctx.metrics
    task = _open_hadoop_task(ctx, model)

    # --- shuffle fetch: disk at source, wire, disk at sink ----------- #
    # Real Hadoop ships map output as sorted spill runs and the reducer
    # merges; do the same so record order (stable-merge of stable-sorted
    # runs, in map-index order) matches M3R's shuffle record for record.
    shuffle_input = ShuffleInput()
    sort_key = spec.sort_key()
    disk_read_time = model.disk_read_time
    disk_write_time = model.disk_write_time
    net_transfer_time = model.net_transfer_time
    incr = metrics.incr
    for map_index, buffers in enumerate(st["map_outputs"]):
        buffer: PartitionBuffer = buffers[partition]
        if not buffer.pairs:
            continue
        shuffle_input.add_run(sort_run(buffer.pairs, sort_key), buffer.bytes)
        fetch = disk_read_time(buffer.bytes, seeks=1)
        if map_nodes[map_index] != node:
            fetch += net_transfer_time(buffer.bytes)
            incr("shuffle_remote_bytes", buffer.bytes)
        else:
            incr("shuffle_local_bytes", buffer.bytes)
        fetch += disk_write_time(buffer.bytes, seeks=1)
        task.charge("network", fetch)
    task.records, task.nbytes = shuffle_input.records, shuffle_input.bytes
    counters.increment(TaskCounter.REDUCE_SHUFFLE_BYTES, task.nbytes)

    # --- out-of-core merge sort ---------------------------------------- #
    task.charge(
        "merge",
        model.external_merge_time(
            task.records, task.nbytes, max(1, len(shuffle_input.runs))
        ),
    )
    task.charge("deserialize", model.deserialize_time(task.nbytes, task.records))

    # --- reduce user code ------------------------------------------------- #
    tally, task_fs, task_conf, reporter = open_task(tctx, node, partition)
    writer = spec.output_format.get_record_writer(
        task_fs, task_conf, FileOutputFormat.part_name(partition), reporter
    )
    sink = WriterCollector(writer, counters, TaskCounter.REDUCE_OUTPUT_RECORDS)
    compute = run_reduce_kernel(
        spec, shuffle_input, sink, counters, reporter, task_conf
    )
    writer.close()

    charge_reduce_user_code(task, model, spec, compute, sink)
    task.charge("serialize", model.serialize_time(sink.bytes, sink.records))
    task.seconds += charge_fs_write(engine, tally.bytes_written, metrics)
    task.charge("namenode", model.namenode_op * max(1, tally.metadata_ops))

    if st["failovers"][partition]:
        task.seconds += model.task_scheduling * FAILURE_DETECT_FACTOR
        metrics.incr("reduce_task_failovers")
    return task
