"""The staged job pipeline: one driver for both engines.

A job is a sequence of named stages supplied by a :class:`StageProvider`
(the M3R engine provides cache/co-location/handoff-flavoured stages, the
Hadoop engine disk-flavoured ones).  The driver owns everything that is
*lifecycle*, not engine: building the per-job :class:`Counters`/:class:`Metrics`,
emitting ``JobStart``/``StageStart``/``StageEnd``/``JobEnd`` on the event
bus, wiring up the provider's critical subscriptions (governor pins),
translating failures into :class:`EngineResult`, and — crucially —
emitting ``JobEnd`` in a ``finally`` so subscriptions always unwind: a
job that raises mid-stage still releases its cache pins.
:class:`StageProvider` also holds the stage
skeleton both engines share: the ReStore admission / record wrapper around
the engine's stages, split planning, and the run-tasks → lane replay →
task-event loop of a map or reduce phase.

Clock discipline: each stage advances ``ctx.clock`` with exactly the float
additions the pre-lifecycle monolithic ``_execute`` performed, in the same
order, so simulated seconds are byte-identical.  ``StageEnd.seconds`` is
the stage's clock delta (the deltas sum to the total only approximately —
float subtraction does not telescope — but ``StageEnd.clock`` and
``JobEnd.seconds`` are exact).
"""

from __future__ import annotations

import functools
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.conf import NUM_MAPS_HINT_KEY, JobConf
from repro.api.counters import Counters, JobCounter
from repro.api.job import JobSpec
from repro.engine_common import EngineResult, JobFailedError
from repro.lifecycle.events import (
    EventBus,
    JobEnd,
    JobStart,
    StageEnd,
    StageStart,
    TaskEnd,
    TaskStart,
)
from repro.lifecycle.sinks import open_job_bus
from repro.restore import admission as restore
from repro.sim.metrics import Metrics

__all__ = ["JobContext", "TaskContext", "StageProvider", "JobPipeline"]

#: A stage body: mutates the context (clock, state, metrics) and may
#: return a per-place busy-seconds dict for the StageEnd event.
StageFn = Callable[[], Optional[Dict[int, float]]]


@dataclass
class JobContext:
    """Everything one job run threads through its stages."""

    job_id: str
    engine: str
    spec: JobSpec
    conf: JobConf
    counters: Counters
    metrics: Metrics
    bus: EventBus
    clock: float = 0.0

    def advance(self, seconds: float) -> None:
        """Advance the job clock (driver thread only)."""
        self.clock += seconds

    def emit(self, event: Any) -> None:
        self.bus.emit(event)


@dataclass
class TaskContext:
    """The handles one task body needs: the job context (conf, spec,
    counters, metrics, bus), the engine, and the provider's stage
    scratch.  Task bodies are module-level functions taking one of these —
    never closures over a provider method's scope (DESIGN.md §16)."""

    ctx: JobContext
    engine: Any
    st: Dict[str, Any]


class StageProvider:
    """What an engine contributes to the shared driver."""

    #: Stamped on events and EngineResult.
    engine_name = "?"
    #: M3R re-raises JobFailedError (the paper's no-resilience contract);
    #: Hadoop reports every failure through the result object.
    raise_node_failure = False
    #: The ReStore serve body for this engine: replays a stored result
    #: into the job's output directory with the engine's own write and
    #: commit charges (``serve(ctx, engine, st)``).
    serve_hit: Callable[..., None]

    def __init__(self, engine: Any):
        # Weak: the engine owns its pipeline, which owns this provider.  A
        # strong back-pointer would close a cycle, and a dropped engine —
        # with its whole filesystem and cache — would wait for the cyclic
        # collector instead of dying with its last reference.
        self._engine = weakref.ref(engine)

    @property
    def engine(self) -> Any:
        """The owning engine (alive for as long as it can run a job)."""
        return self._engine()

    def stages(self, ctx: JobContext) -> Iterable[Tuple[str, StageFn]]:
        """Yield ``(stage_name, stage_fn)`` pairs, in execution order: the
        engine's :meth:`job_stages`, wrapped in ReStore admission / record
        when ``m3r.restore.enabled`` is on."""
        # Partials, not lambdas: a stage thunk reads what its arguments
        # say, never this method's scope.
        st: Dict[str, Any] = {}
        reuse = restore.restore_enabled(ctx.conf)
        if reuse:
            # Admission runs before any stage touches the filesystem; the
            # generator resumes after the pipeline executed it, so a hit
            # replaces the whole stage list with one serve stage.
            yield "admission", functools.partial(restore.admit, ctx, self.engine, st)
            if st.get(restore.HIT_KEY) is not None:
                yield "serve", functools.partial(self.serve_hit, ctx, self.engine, st)
                return
        yield from self.job_stages(ctx, st)
        if reuse:
            yield "restore-record", functools.partial(
                restore.record, ctx, self.engine, st
            )

    def job_stages(
        self, ctx: JobContext, st: Dict[str, Any]
    ) -> Iterable[Tuple[str, StageFn]]:
        """The engine's own stages; ``st`` is their shared scratch."""
        raise NotImplementedError

    def run_task_phase(
        self,
        ctx: JobContext,
        st: Dict[str, Any],
        stage: str,
        lanes: Any,
        places: Sequence[int],
        run_task: Callable[[TaskContext, int], Any],
        barrier: float = 0.0,
    ) -> Tuple[List[Any], Dict[int, float]]:
        """Run one phase's tasks inline, in plan order, then replay it.

        ``run_task(tctx, index)`` returns the task's ledger.  Tasks ran one
        after another; their concurrency is simulated here, by packing the
        durations onto ``lanes`` (slots per node / workers per place) at
        each task's planned place.  The clock advances by makespan plus
        ``barrier`` in one addition (float addition is order-sensitive;
        ``x + 0.0`` is ``x``), then each task is narrated as a TaskStart /
        TaskEnd pair.  Returns the ledgers and per-place busy seconds."""
        tctx = TaskContext(ctx, self.engine, st)
        ledgers = [run_task(tctx, index) for index in range(len(places))]
        for place, task in zip(places, ledgers):
            lanes.add_task(place, task.seconds)
        ctx.advance(lanes.makespan() + barrier)
        for index, (place, task) in enumerate(zip(places, ledgers)):
            base = dict(job_id=ctx.job_id, engine=ctx.engine, stage=stage,
                        task=index, place=place)
            ctx.emit(TaskStart(**base))
            ctx.emit(TaskEnd(seconds=task.seconds, records=task.records,
                             nbytes=task.nbytes, **base))
        return ledgers, lanes.node_busy_seconds()

    def plan_splits(self, ctx: JobContext, default_hint: int) -> List[Any]:
        """Ask the input format for the job's splits (``default_hint`` of
        them unless the job names a count) and count the map tasks."""
        hint = ctx.conf.get_int(NUM_MAPS_HINT_KEY, 0) or default_hint
        splits = ctx.spec.input_format.get_splits(
            self.engine.filesystem, ctx.conf, hint
        )
        ctx.metrics.incr("map_tasks", len(splits))
        ctx.counters.increment(JobCounter.TOTAL_LAUNCHED_MAPS, len(splits))
        return splits

    def subscriptions(self, ctx: JobContext) -> Sequence[Callable[[Any], None]]:
        """Critical bus subscribers set up/torn down by JobStart/JobEnd."""
        return ()


class JobPipeline:
    """Runs a provider's stages under the lifecycle contract.

    An engine is single-threaded by construction: its cache, filesystem,
    governor, counters and bus take no locks.  The pipeline records the
    thread that built it, and a job started from any other thread raises
    before anything is written, pinned or counted (DESIGN.md §7)."""

    def __init__(self, provider: StageProvider):
        self.provider = provider
        self._owner = threading.get_ident()

    def run_traced(self, spec: JobSpec, conf: JobConf) -> EngineResult:
        """Run one job on a bus carrying the engine's standard sinks (its
        event ring, a JSONL trace when one is configured, anything in
        ``trace_sinks``); the sinks are closed after the job, successful or
        not, so trace files are flushed per job."""
        caller = threading.get_ident()
        if caller != self._owner:
            raise RuntimeError(
                f"{self.provider.engine_name} engine entered from thread "
                f"{caller}; it was built on thread {self._owner} and runs "
                "jobs only there"
            )
        engine, name = self.provider.engine, self.provider.engine_name
        bus, closers = open_job_bus(
            f"{name}-{engine._job_counter}",
            name,
            conf,
            ring=engine.event_ring,
            extra_sinks=tuple(engine.trace_sinks),
            trace_path=engine.trace_path,
        )
        try:
            return self.run_job(spec, conf, bus)
        finally:
            for close in closers:
                close()

    def run_job(self, spec: JobSpec, conf: JobConf, bus: EventBus) -> EngineResult:
        counters = Counters()
        metrics = Metrics()
        ctx = JobContext(
            job_id=bus.job_id,
            engine=self.provider.engine_name,
            spec=spec,
            conf=conf,
            counters=counters,
            metrics=metrics,
            bus=bus,
        )
        for subscriber in self.provider.subscriptions(ctx):
            bus.subscribe(subscriber, critical=True)
        succeeded = False
        seconds = 0.0
        error: Optional[str] = None
        # JobStart triggers the critical subscriptions (pins); from here
        # on JobEnd MUST fire, so the whole stage loop sits inside
        # try/finally.
        bus.emit(
            JobStart(
                job_id=ctx.job_id,
                engine=ctx.engine,
                job_name=spec.name,
                output_path=spec.output_path,
            )
        )
        try:
            try:
                for name, stage_fn in self.provider.stages(ctx):
                    bus.emit(
                        StageStart(job_id=ctx.job_id, engine=ctx.engine, stage=name)
                    )
                    before = ctx.clock
                    busy = stage_fn()
                    bus.emit(
                        StageEnd(
                            job_id=ctx.job_id,
                            engine=ctx.engine,
                            stage=name,
                            seconds=ctx.clock - before,
                            clock=ctx.clock,
                            busy=busy,
                        )
                    )
                succeeded = True
                seconds = ctx.clock
            except JobFailedError as exc:
                error = f"{type(exc).__name__}: {exc}"
                if self.provider.raise_node_failure:
                    raise
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                error = f"{type(exc).__name__}: {exc}"
        finally:
            bus.emit(
                JobEnd(
                    job_id=ctx.job_id,
                    engine=ctx.engine,
                    succeeded=succeeded,
                    seconds=seconds,
                    error=error,
                )
            )
        return EngineResult(
            job_name=spec.name,
            engine=self.provider.engine_name,
            succeeded=succeeded,
            simulated_seconds=seconds,
            counters=counters,
            metrics=metrics,
            output_path=spec.output_path,
            error=error,
            job_id=ctx.job_id,
        )
