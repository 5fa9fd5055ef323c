"""Cross-cutting engine concerns as bus subscriptions.

Before this layer existed, the memory governor and the sanitizers were
hand-wired into each engine's monolithic ``_execute``: pins taken in one
method, released in a distant ``finally``, sanitizer overrides entered in
a ``with`` wrapping the whole body.  Here they are *subscriptions*: a
``JobStart`` event sets them up, the guaranteed ``JobEnd`` tears them
down — so any path out of a job (success, user-code failure, node
failure) releases pins and restores sanitizer flags, which is exactly the
pin-leak-on-failure bug class the lifecycle refactor closes.

Both are *critical* subscribers (their exceptions fail the job loudly);
they ignore every event other than JobStart/JobEnd.
"""

from __future__ import annotations

import weakref
from typing import Any, List, Optional

from repro.analysis.sanitizers import (
    LOCK_ORDER_SANITIZER,
    MUTATION_SANITIZER,
    sanitizer_overrides,
)
from repro.api.conf import (
    SANITIZE_LOCK_ORDER_KEY,
    SANITIZE_MUTATION_KEY,
    conf_bool,
)
from repro.lifecycle.events import JobEnd, JobStart, LifecycleEvent
from repro.lifecycle.pipeline import JobContext

__all__ = ["GovernorSubscription", "SanitizerSubscription"]


class GovernorSubscription:
    """Scopes memory governance to one job's lifetime.

    JobStart: fold ``m3r.cache.*`` overrides into the governor, pin the
    job's output (plus ``m3r.cache.pinned-paths``), attach the job's
    metrics, and hand the governor the bus so evictions/spills surface as
    CacheEvent/SpillEvent records.  JobEnd: undo all of it — including
    when the job failed, so a mid-sequence crash cannot leak pins.
    """

    def __init__(self, engine: Any, ctx: JobContext):
        # Weak: the job's bus, context and subscriptions reference each
        # other, so this object outlives the job until the cyclic collector
        # runs — it must not keep the engine (filesystem, cache) with it.
        self._engine = weakref.ref(engine)
        self._ctx = ctx
        self._pins: List[str] = []

    def __call__(self, event: LifecycleEvent) -> None:
        if isinstance(event, JobStart):
            engine, ctx = self._engine(), self._ctx
            engine._apply_cache_conf(ctx.conf)
            self._pins = engine._job_pins(ctx.spec, ctx.conf)
            for prefix in self._pins:
                engine.governor.pin_prefix(prefix)
            engine.governor.attach_job_metrics(ctx.metrics)
            engine.governor.attach_bus(ctx.bus)
        elif isinstance(event, JobEnd):
            governor = self._engine().governor
            governor.detach_bus()
            governor.detach_job_metrics()
            for prefix in self._pins:
                governor.unpin_prefix(prefix)
            self._pins = []


class SanitizerSubscription:
    """Scopes the per-job sanitizer overrides to one job's lifetime.

    The knob resolution is ``m3r.sanitize.*`` on the JobConf, else the
    process default (the singleton's current ``enabled`` flag, which the
    ``M3R_SANITIZE_*`` environment variables seed at import — the env
    parsing itself lives in ``analysis.sanitizers`` because that module
    must not import the API layer).
    """

    def __init__(self, ctx: JobContext):
        self._ctx = ctx
        self._scope: Optional[Any] = None

    def __call__(self, event: LifecycleEvent) -> None:
        if isinstance(event, JobStart):
            conf = self._ctx.conf
            self._scope = sanitizer_overrides(
                mutation=conf_bool(
                    conf, SANITIZE_MUTATION_KEY, default=MUTATION_SANITIZER.enabled
                ),
                lock_order=conf_bool(
                    conf,
                    SANITIZE_LOCK_ORDER_KEY,
                    default=LOCK_ORDER_SANITIZER.enabled,
                ),
            )
            self._scope.__enter__()
        elif isinstance(event, JobEnd):
            if self._scope is not None:
                scope, self._scope = self._scope, None
                scope.__exit__(None, None, None)
