"""Pluggable event sinks: ring buffer, JSONL trace file, metrics bridge.

Sinks are plain callables taking one :class:`~repro.lifecycle.events.LifecycleEvent`;
the bus drops a sink that raises (observers never fail a job).  The engine
opens the standard set per job through :func:`open_job_bus`:

* the engine's :class:`RingBufferSink` (always on — ``python -m repro
  trace`` and the admin tooling read it back);
* a :class:`JsonlTraceSink` when ``m3r.trace.path`` is set on the JobConf,
  the engine's ``trace_path`` attribute, or the ``M3R_TRACE_PATH``
  environment variable (that precedence order);
* any extra sinks registered on ``engine.trace_sinks``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.api.conf import TRACE_PATH_ENV, TRACE_PATH_KEY, TRACE_RING_KEY, JobConf
from repro.lifecycle.events import (
    CacheEvent,
    EventBus,
    JobEnd,
    LifecycleEvent,
    ReuseEvent,
    SpillEvent,
    StageEnd,
    TaskEnd,
)
from repro.sim.metrics import Metrics, stage_time_key

__all__ = [
    "RingBufferSink",
    "JsonlTraceSink",
    "MetricsBridgeSink",
    "open_job_bus",
    "DEFAULT_RING_SIZE",
]

DEFAULT_RING_SIZE = 4096


class RingBufferSink:
    """Keeps the last N events in memory (engine-lifetime, across jobs)."""

    def __init__(self, maxlen: int = DEFAULT_RING_SIZE):
        self._events: Deque[LifecycleEvent] = deque(maxlen=maxlen)

    @property
    def maxlen(self) -> int:
        return self._events.maxlen or 0

    def resize(self, maxlen: int) -> None:
        """Rebuild the ring with a new bound, keeping the newest events."""
        if maxlen <= 0:
            raise ValueError("ring size must be positive")
        self._events = deque(self._events, maxlen=maxlen)

    def __call__(self, event: LifecycleEvent) -> None:
        self._events.append(event)

    def events(self, job_id: Optional[str] = None) -> List[LifecycleEvent]:
        """A snapshot of buffered events (optionally for one job)."""
        snapshot = list(self._events)
        if job_id is None:
            return snapshot
        return [event for event in snapshot if event.job_id == job_id]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonlTraceSink:
    """Appends one JSON object per event to a trace file.

    Append mode on purpose: a sequence of jobs (or a test session with the
    ``M3R_TRACE_PATH`` env var set) accumulates one stream, and several
    engines writing one file interleave whole lines rather than clobbering
    each other.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    def __call__(self, event: LifecycleEvent) -> None:
        line = json.dumps(event.to_dict(), sort_keys=True)
        if self._handle.closed:
            return
        self._handle.write(line + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class MetricsBridgeSink:
    """Aggregates the event stream into a :class:`Metrics` object.

    This is the structured replacement for hand-wired per-stage accounting:
    stage durations land as ``stage[<name>]`` time categories (see
    :func:`repro.sim.metrics.stage_time_breakdown`), task/cache/spill
    events as counters.  It writes to its *own* Metrics by default — the
    job's ``EngineResult.metrics`` stays byte-identical to the
    pre-lifecycle engines, which is the refactor's invariant.
    """

    def __init__(self, metrics: Optional[Metrics] = None):
        self.metrics = metrics if metrics is not None else Metrics()

    def __call__(self, event: LifecycleEvent) -> None:
        if isinstance(event, StageEnd):
            self.metrics.time.charge(stage_time_key(event.stage), event.seconds)
        elif isinstance(event, TaskEnd):
            self.metrics.incr(f"stage_tasks[{event.stage}]")
            self.metrics.incr(f"stage_records[{event.stage}]", event.records)
        elif isinstance(event, CacheEvent):
            self.metrics.incr(f"cache_event[{event.action}]")
        elif isinstance(event, SpillEvent):
            self.metrics.incr(f"spill_event[{event.action}]")
        elif isinstance(event, ReuseEvent):
            self.metrics.incr(f"reuse_event[{event.action}]")
        elif isinstance(event, JobEnd):
            self.metrics.incr("jobs_succeeded" if event.succeeded else "jobs_failed")


def open_job_bus(
    job_id: str,
    engine_name: str,
    conf: Optional[JobConf],
    ring: Optional[RingBufferSink] = None,
    extra_sinks: Sequence[Callable[[LifecycleEvent], None]] = (),
    trace_path: Optional[str] = None,
) -> Tuple[EventBus, List[Callable[[], None]]]:
    """Build the bus for one job with the standard sinks attached.

    Returns ``(bus, closers)``; the engine invokes every closer after the
    job (successful or not) so trace files are flushed per job.
    """
    bus = EventBus(job_id, engine_name)
    if ring is not None:
        if conf is not None and TRACE_RING_KEY in conf:
            ring.resize(conf.get_int(TRACE_RING_KEY))
        bus.subscribe(ring)
    for sink in extra_sinks:
        bus.subscribe(sink)
    closers: List[Callable[[], None]] = []
    path = None
    if conf is not None:
        path = conf.get(TRACE_PATH_KEY)
    if not path:
        path = trace_path or os.environ.get(TRACE_PATH_ENV) or None
    if path:
        jsonl = JsonlTraceSink(path)
        bus.subscribe(jsonl)
        closers.append(jsonl.close)
    return bus, closers
