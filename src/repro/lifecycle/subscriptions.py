"""Cross-cutting engine concerns as bus subscriptions.

Before this layer existed, the memory governor was hand-wired into the
engine's monolithic ``_execute``: pins taken in one method, released in a
distant ``finally``.  Here it is a *subscription*: a ``JobStart`` event
sets it up, the guaranteed ``JobEnd`` tears it down — so any path out of a
job (success, user-code failure, node failure) releases pins, which is
exactly the pin-leak-on-failure bug class the lifecycle refactor closes.

It is a *critical* subscriber (its exceptions fail the job loudly); it
ignores every event other than JobStart/JobEnd.
"""

from __future__ import annotations

from typing import Any, List

from repro.lifecycle.events import JobEnd, JobStart, LifecycleEvent
from repro.lifecycle.pipeline import JobContext

__all__ = ["GovernorSubscription"]


class GovernorSubscription:
    """Scopes memory governance to one job's lifetime.

    JobStart: fold ``m3r.cache.*`` overrides into the governor, pin the
    job's output (plus ``m3r.cache.pinned-paths``), attach the job's
    metrics, and hand the governor the bus so evictions/spills surface as
    CacheEvent/SpillEvent records.  JobEnd: undo all of it — including
    when the job failed, so a mid-sequence crash cannot leak pins.
    """

    def __init__(self, engine: Any, ctx: JobContext):
        # The job's bus holds this object, and it holds the context, which
        # holds the bus: a cycle for the job's lifetime only, because the
        # pipeline detaches every subscriber once JobEnd has fired.
        self._engine = engine
        self._ctx = ctx
        self._pins: List[str] = []

    def __call__(self, event: LifecycleEvent) -> None:
        if isinstance(event, JobStart):
            engine, ctx = self._engine, self._ctx
            engine._apply_cache_conf(ctx.conf)
            self._pins = engine._job_pins(ctx.spec, ctx.conf)
            for prefix in self._pins:
                engine.governor.pin_prefix(prefix)
            engine.governor.attach_job_metrics(ctx.metrics)
            engine.governor.attach_bus(ctx.bus)
        elif isinstance(event, JobEnd):
            governor = self._engine.governor
            governor.detach_bus()
            governor.detach_job_metrics()
            for prefix in self._pins:
                governor.unpin_prefix(prefix)
            self._pins = []
