"""The staged job pipeline: one driver for both engines.

A job is a sequence of named stages supplied by a :class:`StageProvider`
(the M3R engine provides cache/co-location/handoff-flavoured stages, the
Hadoop engine disk-flavoured ones).  The driver owns everything that is
*lifecycle*, not engine: building the per-job :class:`Counters`/:class:`Metrics`,
emitting ``JobStart``/``StageStart``/``StageEnd``/``JobEnd`` on the event
bus, wiring up the provider's critical subscriptions (governor pins,
sanitizer scoping), translating failures into :class:`EngineResult`, and —
crucially — emitting ``JobEnd`` in a ``finally`` so subscriptions always
unwind: a job that raises mid-stage still releases its cache pins and
restores the sanitizer flags.

Clock discipline: each stage advances ``ctx.clock`` with exactly the float
additions the pre-lifecycle monolithic ``_execute`` performed, in the same
order, so simulated seconds are byte-identical.  ``StageEnd.seconds`` is
the stage's clock delta (the deltas sum to the total only approximately —
float subtraction does not telescope — but ``StageEnd.clock`` and
``JobEnd.seconds`` are exact).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.api.conf import JobConf
from repro.api.counters import Counters
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
from repro.sim.metrics import Metrics

__all__ = ["JobContext", "StageProvider", "JobPipeline"]

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
    #: Scratch space stages share (splits, placements, map outputs, ...).
    state: Dict[str, Any] = field(default_factory=dict)

    def advance(self, seconds: float) -> None:
        """Advance the job clock (driver thread only)."""
        self.clock += seconds

    def emit(self, event: Any) -> None:
        self.bus.emit(event)

    def emit_task(
        self,
        stage: str,
        task: int,
        place: int,
        seconds: float,
        records: int = 0,
        nbytes: int = 0,
    ) -> None:
        """Emit the TaskStart/TaskEnd pair for one settled task.

        Called after the phase's tasks have all run, in task-index order —
        the replay of the phase's accounting.
        """
        base = dict(job_id=self.job_id, engine=self.engine, stage=stage,
                    task=task, place=place)
        self.bus.emit(TaskStart(**base))
        self.bus.emit(
            TaskEnd(seconds=seconds, records=records, nbytes=nbytes, **base)
        )


class StageProvider:
    """What an engine contributes to the shared driver."""

    #: Stamped on events and EngineResult.
    engine_name = "?"
    #: M3R re-raises JobFailedError (the paper's no-resilience contract);
    #: Hadoop reports every failure through the result object.
    raise_node_failure = False

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
        """Yield ``(stage_name, stage_fn)`` pairs, in execution order."""
        raise NotImplementedError

    def subscriptions(self, ctx: JobContext) -> Sequence[Callable[[Any], None]]:
        """Critical bus subscribers set up/torn down by JobStart/JobEnd."""
        return ()


class JobPipeline:
    """Runs a provider's stages under the lifecycle contract."""

    def __init__(self, provider: StageProvider):
        self.provider = provider

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
        # JobStart triggers the critical subscriptions (pins, sanitizer
        # scope); from here on JobEnd MUST fire, so the whole stage loop
        # sits inside try/finally.
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
