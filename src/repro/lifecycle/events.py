"""Typed lifecycle events and the per-job event bus.

Every job run — on either engine — emits one stream of
:class:`LifecycleEvent` records describing its progress through the staged
pipeline: ``JobStart``, then ``StageStart``/``StageEnd`` per stage (with
``TaskStart``/``TaskEnd`` inside the task-running stages and
``CacheEvent``/``SpillEvent`` whenever memory governance acts), closed by a
``JobEnd`` that is emitted even when the job fails.  Events carry the job
id, the engine, places/partitions, simulated seconds and byte counters —
everything a per-stage/per-place waterfall or a cross-job reuse analysis
needs.

Determinism note: task events are emitted *after* their phase's tasks have
all run, in task-index order — the trace replays the accounting rather than
sampling execution.  Cache/spill events are emitted where the pressure
arises, inside the task that triggered it; tasks run inline in plan order,
so the whole stream repeats run to run.

This module imports nothing from the rest of ``repro`` so every layer
(cache, governor, shuffle executor) can emit events without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Dict, List, Optional

__all__ = [
    "LifecycleEvent",
    "JobStart",
    "StageStart",
    "StageEnd",
    "TaskStart",
    "TaskEnd",
    "CacheEvent",
    "SpillEvent",
    "ReuseEvent",
    "ServiceEvent",
    "JobEnd",
    "EventBus",
]


@dataclass(frozen=True)
class LifecycleEvent:
    """Base record: every event names its job and engine."""

    kind: ClassVar[str] = "event"

    job_id: str
    engine: str

    def to_dict(self) -> Dict[str, Any]:
        """A flat, JSON-serializable view (``None`` fields omitted)."""
        doc: Dict[str, Any] = {"event": self.kind}
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None:
                continue
            if isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
            doc[field.name] = value
        return doc


@dataclass(frozen=True)
class JobStart(LifecycleEvent):
    kind: ClassVar[str] = "job_start"

    job_name: str = ""
    output_path: Optional[str] = None


@dataclass(frozen=True)
class StageStart(LifecycleEvent):
    kind: ClassVar[str] = "stage_start"

    stage: str = ""


@dataclass(frozen=True)
class StageEnd(LifecycleEvent):
    kind: ClassVar[str] = "stage_end"

    stage: str = ""
    #: Simulated seconds this stage added to the job clock.
    seconds: float = 0.0
    #: The job clock after the stage (running total; the last stage's
    #: ``clock`` equals ``JobEnd.seconds`` exactly).
    clock: float = 0.0
    #: Optional per-place busy seconds (lane occupancy) for the stage.
    busy: Optional[Dict[int, float]] = None


@dataclass(frozen=True)
class TaskStart(LifecycleEvent):
    kind: ClassVar[str] = "task_start"

    stage: str = ""
    task: int = 0
    place: int = 0


@dataclass(frozen=True)
class TaskEnd(LifecycleEvent):
    kind: ClassVar[str] = "task_end"

    stage: str = ""
    task: int = 0
    place: int = 0
    #: Simulated duration charged to this task's lane.
    seconds: float = 0.0
    records: int = 0
    nbytes: int = 0


@dataclass(frozen=True)
class CacheEvent(LifecycleEvent):
    """A governance decision on a cache entry (evict / drop / admit)."""

    kind: ClassVar[str] = "cache_event"

    action: str = ""
    name: str = ""
    place: int = 0
    nbytes: int = 0


@dataclass(frozen=True)
class SpillEvent(LifecycleEvent):
    """Spill-manager I/O (spill-out or rehydrate) with its simulated cost."""

    kind: ClassVar[str] = "spill_event"

    action: str = ""
    name: str = ""
    place: int = 0
    nbytes: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class ReuseEvent(LifecycleEvent):
    """A cross-job result-reuse decision at job admission.

    ``action`` is ``"hit"`` (the stored output is served, no tasks run),
    ``"miss"`` (no stored result for this fingerprint), ``"invalidate"``
    (a stored result existed but failed validation — it is discarded and
    the job runs fresh), or ``"bypass"`` (the plan could not be
    fingerprinted canonically, e.g. a closure with an unstable repr).
    ``nbytes``/``records`` are only populated on a hit.
    """

    kind: ClassVar[str] = "reuse_event"

    action: str = ""
    fingerprint: Optional[str] = None
    output_path: Optional[str] = None
    nbytes: int = 0
    records: int = 0


@dataclass(frozen=True)
class ServiceEvent(LifecycleEvent):
    """A multi-tenant job-service admission/scheduling decision.

    ``action`` is ``"submitted"`` (a ticket entered a tenant queue),
    ``"rejected"`` (backpressure: the service queue was full or the tenant
    hit its in-flight limit — ``detail`` says which), ``"cancelled"`` (a
    queued submission was withdrawn), ``"started"`` (the fair scheduler
    dispatched the submission to the engine) or ``"finished"`` (the
    submission completed; ``detail`` carries its terminal state).
    ``job_id`` is the submission's ticket and ``engine`` is ``"service"``
    — service events narrate decisions *between* jobs, so they carry the
    admission identity rather than any one engine job id.  ``queued`` is
    the service-wide queue depth after the action.
    """

    kind: ClassVar[str] = "service_event"

    action: str = ""
    tenant: str = ""
    queued: int = 0
    detail: Optional[str] = None


@dataclass(frozen=True)
class JobEnd(LifecycleEvent):
    kind: ClassVar[str] = "job_end"

    succeeded: bool = False
    #: The job's total simulated seconds (0.0 when the job failed, exactly
    #: mirroring ``EngineResult.simulated_seconds``).
    seconds: float = 0.0
    error: Optional[str] = None


Subscriber = Callable[[LifecycleEvent], None]


class EventBus:
    """The per-job event stream: stamped with job id + engine, fanned out
    to subscribers.

    Subscribers come in two classes.  *Critical* subscribers are part of
    the engine (governor pins): their exceptions propagate and fail the
    job loudly.  Plain *sinks* are observers (ring buffer, JSONL trace,
    the job service's status feed): a sink that raises is dropped
    and its error recorded in :attr:`sink_errors` — observability must
    never perturb the run it observes.
    """

    def __init__(self, job_id: str, engine: str):
        self.job_id = job_id
        self.engine = engine
        self._critical: List[Subscriber] = []
        self._sinks: List[Subscriber] = []
        self.sink_errors: List[str] = []

    def subscribe(self, subscriber: Subscriber, critical: bool = False) -> None:
        (self._critical if critical else self._sinks).append(subscriber)

    def emit(self, event: LifecycleEvent) -> None:
        critical = list(self._critical)
        sinks = list(self._sinks)
        for subscriber in critical:
            subscriber(event)
        dead: List[Subscriber] = []
        for sink in sinks:
            try:
                sink(event)
            except Exception as exc:
                self.sink_errors.append(f"{type(exc).__name__}: {exc}")
                dead.append(sink)
        if dead:
            for sink in dead:
                if sink in self._sinks:
                    self._sinks.remove(sink)

    def close(self) -> None:
        """Detach every subscriber.  The pipeline closes a job's bus after
        its ``JobEnd``: a critical subscriber holds the job's context, which
        holds this bus, and that cycle would keep every sink (and whatever
        each sink holds) alive until the cyclic collector ran."""
        self._critical.clear()
        self._sinks.clear()
