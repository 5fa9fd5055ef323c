"""The staged job-lifecycle pipeline shared by both engines.

One driver (:class:`~repro.lifecycle.pipeline.JobPipeline`) runs a job as a
sequence of named stages supplied by an engine's
:class:`~repro.lifecycle.pipeline.StageProvider`, emitting typed
:class:`~repro.lifecycle.events.LifecycleEvent` records on a per-job bus.
Cross-cutting concerns — governor pins, trace capture — are bus
subscriptions rather than hand-wired engine code.

Import discipline: this package's ``__init__`` deliberately does NOT
import the engine-specific stage providers (``m3r_stages``,
``hadoop_stages``) — those import engine-layer modules and the engines
import *them*, so each engine pulls its provider submodule directly to
keep the import graph acyclic.
"""

from repro.lifecycle.events import (
    CacheEvent,
    EventBus,
    JobEnd,
    JobStart,
    LifecycleEvent,
    SpillEvent,
    StageEnd,
    StageStart,
    TaskEnd,
    TaskStart,
)
from repro.lifecycle.pipeline import JobContext, JobPipeline, StageProvider
from repro.lifecycle.sinks import (
    DEFAULT_RING_SIZE,
    JsonlTraceSink,
    RingBufferSink,
    open_job_bus,
)
from repro.lifecycle.trace import (
    JobWaterfall,
    StageRow,
    collect_waterfalls,
    read_jsonl,
    render_json,
    render_text,
)

__all__ = [
    "LifecycleEvent",
    "JobStart",
    "StageStart",
    "StageEnd",
    "TaskStart",
    "TaskEnd",
    "CacheEvent",
    "SpillEvent",
    "JobEnd",
    "EventBus",
    "JobContext",
    "JobPipeline",
    "StageProvider",
    "RingBufferSink",
    "JsonlTraceSink",
    "open_job_bus",
    "DEFAULT_RING_SIZE",
    "JobWaterfall",
    "StageRow",
    "collect_waterfalls",
    "read_jsonl",
    "render_text",
    "render_json",
]
