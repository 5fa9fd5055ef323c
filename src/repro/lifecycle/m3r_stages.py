"""The M3R engine's stage provider: in-memory execution as pipeline stages.

This is the body of the old monolithic ``M3REngine._execute`` (paper
Section 3.2), decomposed onto the shared :class:`~repro.lifecycle.pipeline.JobPipeline`:

    setup → plan_splits → map → [shuffle → reduce] → commit →
    cache-admit → teardown

(map-only jobs skip shuffle/reduce; the combiner is a per-task sub-phase
of ``map`` and the sort/merge a per-task sub-phase of ``reduce`` —
they run inside task bodies, so surfacing them as barrier stages would
change the simulation).

Every ``ctx.advance`` below reproduces one ``clock +=`` of the original
``_execute``, with compound additions (``shuffle_time + barrier``,
``makespan + barrier``) kept as single expressions — float addition is
order-sensitive and the refactor's invariant is byte-identical simulated
seconds.  The memory governor is NOT wired here: it rides the event bus
(see :mod:`repro.lifecycle.subscriptions`).

Task bodies are **module-level functions over an explicit**
:class:`~repro.lifecycle.pipeline.TaskContext` — not closures over
provider methods (DESIGN.md §16), so what a task reads is what its
signature says.  Each task body splits as

    prologue  (cache lookup or filesystem read + cache insert, the
               clone-or-hand-off feed, the alias-or-clone output policy,
               the in-memory merge charge — needs the engine)
    → kernel  (user code, :mod:`repro.lifecycle.kernels` — the same
               kernels the Hadoop provider runs)
    → epilogue (cost-model charges from the kernel outcome, in this
                engine's order: no serialize, no spill; clone only what
                was copied; cache the output, flush it unless temporary)
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.api.conf import JobConf
from repro.api.counters import JobCounter, TaskCounter
from repro.api.extensions import is_immutable_output, is_temporary_output
from repro.api.formats import FileOutputFormat, MaterializedReader, read_all
from repro.api.mapred import Reporter
from repro.api.splits import InputSplit
from repro.engine_common import PartitionBuffer, charge_fs_write, is_local_read
from repro.hadoop_engine.scheduler import SlotLanes
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
    single_partition_sink,
)
from repro.lifecycle.pipeline import JobContext, StageFn, StageProvider, TaskContext
from repro.lifecycle.subscriptions import GovernorSubscription
from repro.restore import admission as restore
from repro.shuffle import ShuffleExecutor, ShuffleInput
from repro.x10.serializer import FALLBACK_TALLY

__all__ = ["M3RStageProvider", "run_m3r_map_task", "run_m3r_reduce_task"]


class M3RStageProvider(StageProvider):
    """Supplies the M3R engine's cache/co-location/handoff stages."""

    engine_name = "m3r"
    #: No resilience: a lost node kills the job with JobFailedError.
    raise_node_failure = True

    # ------------------------------------------------------------------ #
    # pipeline contract
    # ------------------------------------------------------------------ #

    def subscriptions(self, ctx: JobContext) -> Sequence[Callable[[Any], None]]:
        return (GovernorSubscription(self.engine, ctx),)

    serve_hit = staticmethod(restore.serve_m3r)

    def job_stages(
        self, ctx: JobContext, st: Dict[str, Any]
    ) -> Iterable[Tuple[str, StageFn]]:
        yield "setup", functools.partial(self._setup, ctx, st)
        yield "plan_splits", functools.partial(self._plan_splits, ctx, st)
        yield "map", functools.partial(self._map_stage, ctx, st)
        if ctx.spec.is_map_only:
            yield "commit", functools.partial(self._commit_map_only, ctx, st)
        else:
            yield "shuffle", functools.partial(self._shuffle_stage, ctx, st)
            yield "reduce", functools.partial(self._reduce_stage, ctx, st)
            yield "commit", functools.partial(self._commit, ctx, st)
        yield "cache-admit", functools.partial(self._cache_admit, ctx)
        yield "teardown", functools.partial(self._teardown, ctx, st)

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #

    def _setup(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        model = engine.cost_model
        spec, conf = ctx.spec, ctx.conf
        # Process-lifetime tally snapshotted up front so teardown can report
        # the per-job delta.
        st["fallbacks_before"] = FALLBACK_TALLY.snapshot()

        spec.output_format.check_output_specs(engine.filesystem, conf)
        st["committer"] = spec.output_format.get_output_committer()
        st["job_is_temp"] = spec.output_path is not None and is_temporary_output(
            spec.output_path, conf
        )
        if not (st["job_is_temp"] and engine.enable_cache):
            st["committer"].setup_job(engine.filesystem, conf)

        ctx.advance(model.m3r_job_submit)
        ctx.metrics.time.charge("job_submit", model.m3r_job_submit)

    def _plan_splits(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        splits = self.plan_splits(ctx, engine.num_places * engine.workers_per_place)
        st["splits"] = splits
        st["placements"] = [
            engine._place_for_split(split, index, ctx.spec)
            for index, split in enumerate(splits)
        ]

    def _map_stage(
        self, ctx: JobContext, st: Dict[str, Any]
    ) -> Dict[int, float]:
        engine = self.engine
        tasks, busy = self.run_task_phase(
            ctx, st, "map",
            SlotLanes(engine.num_places, engine.workers_per_place),
            st["placements"], run_m3r_map_task,
        )
        st["map_outputs"] = [task.buffers for task in tasks]
        return busy

    def _commit_map_only(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        model = self.engine.cost_model
        ctx.advance(model.m3r_barrier)
        ctx.metrics.time.charge("barrier", model.m3r_barrier)
        self._commit(ctx, st)

    def _shuffle_stage(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        """Route map output to reducer places.

        Co-located traffic is a pointer hand-off.  Cross-place messages pay
        (de-duplicated) serialization, wire time and deserialization, and
        are cloned *with a shared memo* so aliasing survives transport
        exactly as X10 reconstructs it on the receiving place.

        The heavy lifting lives in :mod:`repro.shuffle`: a deterministic
        plan, one pass of work per place-to-place message in plan order,
        and a replay of all charges in plan order onto per-place lanes.
        Runs are sorted map-side and reducers merge them by one stable
        sort of their concatenation.  The replay also narrates each
        message as a ``shuffle`` TaskEnd event.
        """
        engine = self.engine
        model = engine.cost_model
        spec = ctx.spec
        ctx.counters.increment(JobCounter.TOTAL_LAUNCHED_REDUCES, spec.num_reducers)
        executor = ShuffleExecutor(
            serializer=engine.runtime.serializer,
            cost_model=model,
            num_places=engine.num_places,
            partition_place=engine.partition_place,
            enable_dedup=engine.enable_dedup,
        )
        plan = executor.plan(spec.num_reducers, st["map_outputs"], st["placements"])
        results = executor.execute(plan, spec.sort_key())
        st["reduce_inputs"] = [ShuffleInput() for _ in range(spec.num_reducers)]
        shuffle_time = executor.replay(
            plan, results, st["reduce_inputs"], ctx.counters, ctx.metrics,
            bus=ctx.bus,
        )
        ctx.advance(shuffle_time + model.m3r_barrier)
        ctx.metrics.time.charge("barrier", model.m3r_barrier)

    def _reduce_stage(
        self, ctx: JobContext, st: Dict[str, Any]
    ) -> Dict[int, float]:
        engine = self.engine
        model = engine.cost_model
        st["reduce_places"] = [
            engine.partition_place(partition)
            for partition in range(ctx.spec.num_reducers)
        ]
        _, busy = self.run_task_phase(
            ctx, st, "reduce",
            SlotLanes(engine.num_places, engine.workers_per_place),
            st["reduce_places"], run_m3r_reduce_task,
            barrier=model.m3r_barrier,
        )
        ctx.metrics.time.charge("barrier", model.m3r_barrier)
        return busy

    def _commit(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        if not (st["job_is_temp"] and engine.enable_cache):
            st["committer"].commit_job(engine.filesystem.inner, ctx.conf)

    def _cache_admit(self, ctx: JobContext) -> None:
        # Spill/rehydration I/O charged by the governor during the job
        # lands on the job clock here.
        ctx.advance(self.engine.governor.drain_seconds())

    def _teardown(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        # Size estimates that fell back to a fixed pickle guess this job
        # (see x10.serializer.FALLBACK_TALLY) — ideally always zero.
        ctx.metrics.incr(
            "serializer_fallbacks",
            FALLBACK_TALLY.snapshot() - st["fallbacks_before"],
        )


# ---------------------------------------------------------------------- #
# map task bodies
# ---------------------------------------------------------------------- #


def run_m3r_map_task(tctx: TaskContext, index: int) -> TaskLedger:
    """One map task at its planned place.  The cached input (if any) is
    pinned for the task's duration — an eviction wave (this task's own
    admissions, or another tenant's job on a shared engine) must not spill
    the sequence this task is actively reading."""
    pinned: List[str] = []
    try:
        return _m3r_map_task_body(tctx, index, pinned)
    finally:
        for name in pinned:
            tctx.engine.cache.unpin(name)


def _m3r_map_task_body(
    tctx: TaskContext, task_index: int, pinned: List[str]
) -> TaskLedger:
    ctx, engine = tctx.ctx, tctx.engine
    split: InputSplit = tctx.st["splits"][task_index]
    place: int = tctx.st["placements"][task_index]
    model = engine.cost_model
    spec = ctx.spec
    counters, metrics = ctx.counters, ctx.metrics
    task = TaskLedger(metrics)
    node = engine.place_node(place)
    tally, task_fs, task_conf, reporter = open_task(tctx, node, task_index)
    mapper_immutable = is_immutable_output(spec.resolve_mapper_class(split))

    # --- input: cache, or filesystem + cache insert ------------------- #
    pairs = raw_reader = None
    entry = engine._cache_lookup(split, pin=True)
    if entry is not None:
        pinned.append(entry.name)
        metrics.incr("cache_hits")
        pairs = entry.pairs
        if entry.place_id != place:
            # A PlacedSplit overrode the cache's location: the sequence
            # crosses places once, with full serialization cost.
            wire, (pairs,) = engine.runtime.serializer.ship([pairs])
            task.charge(
                "network",
                model.serialize_time(wire.wire_bytes, len(pairs))
                + model.net_transfer_time(wire.wire_bytes)
                + model.deserialize_time(wire.wire_bytes, len(pairs)),
            )
        _charge_cache_feed(task, model, mapper_immutable, pairs, entry.nbytes)
    else:
        metrics.incr("cache_misses")
        raw_reader = spec.input_format.get_record_reader(
            task_fs, split, task_conf, reporter
        )
        identity = engine._split_cache_identity(split)
        if identity is not None and engine.enable_cache:
            pairs = read_all(raw_reader)
            nbytes = tally.bytes_read
            engine._cache_insert(identity, place, pairs, nbytes)
            metrics.incr("cache_inserts")
            _charge_cache_feed(task, model, mapper_immutable, pairs, nbytes)
        # else an unknown split type (or cache disabled): ``pairs`` stays
        # None and the reader streams straight through without caching.
        charge_input_read(task, model, tally, is_local_read(engine, split, node))

    # --- run the user code (the kernel) -------------------------------- #
    copies = not spec.map_output_immutable(split, fresh_runner=True)
    sink = (
        single_partition_sink(counters, copies, TaskCounter.MAP_OUTPUT_RECORDS)
        if spec.is_map_only
        else None
    )
    outcome = run_map_kernel(
        spec, split,
        raw_reader if pairs is None
        else MaterializedReader(pairs, clone=not mapper_immutable),
        counters, reporter, task_conf,
        copies=copies, fresh_runner=True, sink=sink,
    )

    # Deserialization is paid only when records actually came off the
    # filesystem; cache hits skip it entirely (the paper's point).
    if entry is None:
        charge_input_decode(task, model, tally, outcome.reader_records)
    charge_map_user_code(task, model, spec, split, outcome)
    _charge_output_clone(task, model, outcome)

    if sink is not None:
        task.seconds += _emit_task_output(
            tctx, task_fs, task_conf, task_index, place, sink.partitions[0]
        )
        return task
    charge_map_combine(task, model, spec, outcome)
    task.map_output(outcome.buffers)
    return task


def _charge_cache_feed(
    task: TaskLedger,
    model: Any,
    mapper_immutable: bool,
    pairs: List[Tuple[Any, Any]],
    nbytes: int,
) -> None:
    """Serving a cached sequence to the mapper: a pointer hand-off for
    ImmutableOutput code, a defensive clone for everything else."""
    if mapper_immutable:
        task.charge("framework", model.handoff_time(len(pairs)))
    else:
        task.charge("clone", model.clone_time(nbytes, len(pairs)))
        task.metrics.incr("cloned_records", len(pairs))


def _charge_output_clone(task: TaskLedger, model: Any, tallies: Any) -> None:
    """The defensive copies the collector made of non-ImmutableOutput
    emissions (paper Section 4.1) — M3R's stand-in for serialization."""
    if tallies.copied_records:
        task.charge(
            "clone", model.clone_time(tallies.copied_bytes, tallies.copied_records)
        )
        task.metrics.incr("cloned_records", tallies.copied_records)


# ---------------------------------------------------------------------- #
# reduce task bodies
# ---------------------------------------------------------------------- #


def run_m3r_reduce_task(tctx: TaskContext, partition: int) -> TaskLedger:
    ctx, engine, st = tctx.ctx, tctx.engine, tctx.st
    model = engine.cost_model
    spec = ctx.spec
    place = st["reduce_places"][partition]
    shuffle_input: ShuffleInput = st["reduce_inputs"][partition]
    task = TaskLedger(ctx.metrics)
    tally, task_fs, task_conf, reporter = open_task(
        tctx, engine.place_node(place), partition
    )

    # Bytes and records were accounted while the runs accumulated — no
    # re-walk of the pairs through the size estimator here.  The charge
    # needs only the counts, so it lands before the kernel does the
    # actual merge.
    task.records = shuffle_input.records
    task.nbytes = shuffle_input.bytes
    # Runs arrived pre-sorted and in map-index order: the kernel merges
    # them with one stable sort of their concatenation, which Timsort does
    # run by run, so ties keep map-index order.
    task.charge(
        "merge", model.merge_time(task.records, task.nbytes, len(shuffle_input.runs))
    )

    sink = single_partition_sink(
        ctx.counters,
        not spec.reduce_output_immutable(),
        TaskCounter.REDUCE_OUTPUT_RECORDS,
    )
    compute = run_reduce_kernel(
        spec, shuffle_input, sink, ctx.counters, reporter, task_conf
    )
    charge_reduce_user_code(task, model, spec, compute, sink)
    _charge_output_clone(task, model, sink)

    # Filesystem writes made directly by user code during the reduce
    # (e.g. MultipleOutputs) are charged at disk rate.  Read before
    # emit_m3r_output so the part-file flush is not double-counted.
    if tally.bytes_written:
        task.charge("disk_write", model.disk_write_time(tally.bytes_written, seeks=1))

    task.seconds += _emit_task_output(
        tctx, task_fs, task_conf, partition, place, sink.partitions[0]
    )
    return task


# ---------------------------------------------------------------------- #
# output
# ---------------------------------------------------------------------- #


def _emit_task_output(
    tctx: TaskContext,
    task_fs: Any,
    task_conf: JobConf,
    partition: int,
    place: int,
    output: PartitionBuffer,
) -> float:
    ctx = tctx.ctx
    return emit_m3r_output(
        ctx, tctx.engine, task_fs, task_conf, FileOutputFormat.part_name(partition),
        FileOutputFormat.part_path(ctx.conf, partition), place,
        output.pairs, output.bytes, tctx.st["job_is_temp"],
    )


def emit_m3r_output(
    ctx: JobContext,
    engine: Any,
    fs: Any,
    conf: JobConf,
    basename: str,
    dest: str,
    place: int,
    pairs: List[Any],
    nbytes: int,
    temp: bool,
) -> float:
    """Cache one output part at ``place`` under ``dest``, first flushing it
    as ``basename`` through the job's output format on ``fs`` unless it is
    a temporary only the cache holds.  A task's output and a ReStore hit's
    replayed part both land here.  Returns the simulated cost, summed in
    charge order."""
    model = engine.cost_model
    metrics = ctx.metrics
    out = TaskLedger(metrics)
    if not (temp and engine.enable_cache):
        # Flush to the real filesystem first: writing through the
        # M3RFileSystem invalidates any cache entry for the path, so the
        # cache insert must come after the flush.
        writer = ctx.spec.output_format.get_record_writer(
            fs, conf, basename, Reporter(ctx.counters)
        )
        write = writer.write
        for key, value in pairs:
            write(key, value)
        writer.close()
        out.charge("serialize", model.serialize_time(nbytes, len(pairs)))
        out.seconds += charge_fs_write(engine, nbytes, metrics)
        out.charge("namenode", model.namenode_op)
    else:
        metrics.incr("temp_outputs_skipped")
    if engine.enable_cache:
        # A temp output exists ONLY here — mark it non-durable so
        # eviction must spill it (never drop it).
        engine.cache.put_file(dest, place, pairs, nbytes, durable=not temp)
        out.charge("framework", model.handoff_time(len(pairs)))
        metrics.incr("cache_outputs")
    out.seconds += engine._replicate_output(dest, place, pairs, nbytes, metrics)
    return out.seconds
