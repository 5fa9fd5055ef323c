"""Hadoop administrative interfaces (paper Section 5.3).

"M3R also supports many Hadoop administrative interfaces including job
queues, job end notification urls, and asynchronous progress and counter
updates."  This module provides those three, engine-agnostically:

* :class:`JobEndNotifier` — Hadoop's ``job.end.notification.url``: when a
  job finishes, the URL configured on its JobConf is invoked with the job's
  outcome.  Handlers are registered per URL prefix (in this in-process
  reproduction a handler is a callable; in Hadoop it is an HTTP GET).
* :class:`JobQueueManager` — named FIFO queues with per-queue accounting,
  honouring the standard ``mapred.job.queue.name`` property.
* :class:`ProgressTracker` — asynchronous progress/counter updates: a
  polling view of a running submission that an interactive front-end (the
  paper's BigSheets) would refresh.

Both trackers are fed by the typed lifecycle event bus (they subscribe to
``engine.trace_sinks``), not by any private engine hook: the per-queue
success/failure/seconds accounting and the phase-fraction progress view
are derived from the same ``JobStart``/``StageEnd``/``JobEnd`` stream that
traces, sanitizers and the job service read.  All three run on the
engine's thread (the trackers as sinks the bus calls inline), so none of
them takes a lock.  The multi-tenant successor to the queue manager is
:class:`repro.service.JobService` — this module remains the single-tenant,
Hadoop-shaped administrative surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.api.conf import JOB_END_NOTIFICATION_URL_KEY, JOB_QUEUE_NAME_KEY, JobConf
from repro.engine_common import EngineResult
from repro.lifecycle.events import JobEnd, JobStart, LifecycleEvent, StageEnd

#: The default queue, as in stock Hadoop.
DEFAULT_QUEUE = "default"

NotificationHandler = Callable[[str, EngineResult], None]


class JobEndNotifier:
    """Job-end notification URLs.

    Handlers are registered for URL prefixes; a finishing job's configured
    URL (with Hadoop's ``$jobId``/``$jobStatus`` placeholders substituted)
    is delivered to the longest matching prefix.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, NotificationHandler] = {}
        #: (url, result) pairs with no matching handler — kept for
        #: inspection instead of being silently dropped.
        self.undeliverable: List[str] = []

    def register(self, url_prefix: str, handler: NotificationHandler) -> None:
        self._handlers[url_prefix] = handler

    def unregister(self, url_prefix: str) -> None:
        self._handlers.pop(url_prefix, None)

    def notify(self, conf: JobConf, result: EngineResult) -> Optional[str]:
        """Deliver the notification for a finished job, if configured.

        Returns the substituted URL that was (or would have been) called,
        or ``None`` when the job has no notification URL.
        """
        template = conf.get(JOB_END_NOTIFICATION_URL_KEY)
        if not template:
            return None
        status = "SUCCEEDED" if result.succeeded else "FAILED"
        url = template.replace("$jobId", result.job_name).replace(
            "$jobStatus", status
        )
        candidates = sorted(
            (prefix for prefix in self._handlers if url.startswith(prefix)),
            key=len,
            reverse=True,
        )
        handler = self._handlers[candidates[0]] if candidates else None
        if handler is None:
            self.undeliverable.append(url)
        else:
            handler(url, result)
        return url


@dataclass
class QueueStats:
    """Per-queue accounting."""

    submitted: int = 0
    succeeded: int = 0
    failed: int = 0
    simulated_seconds: float = 0.0


class JobQueueManager:
    """Named FIFO job queues in front of one engine.

    Jobs are enqueued with :meth:`submit` (the queue name comes from the
    job's ``mapred.job.queue.name``, defaulting to ``"default"``) and run in
    FIFO order per queue by :meth:`drain`.  Queues must be declared before
    use, like Hadoop's configured queue ACLs.
    """

    def __init__(self, engine: Any, queues: Optional[List[str]] = None,
                 notifier: Optional[JobEndNotifier] = None):
        self.engine = engine
        self.notifier = notifier
        names = queues if queues is not None else [DEFAULT_QUEUE]
        self._queues: Dict[str, List[JobConf]] = {name: [] for name in names}
        self._stats: Dict[str, QueueStats] = {name: QueueStats() for name in names}
        #: The queue whose job is currently on the engine — JobEnd events
        #: arriving on the bus are accounted to it.
        self._active_queue: Optional[str] = None
        sinks = getattr(engine, "trace_sinks", None)
        if sinks is not None:
            sinks.append(self._on_event)

    def detach(self) -> None:
        """Unsubscribe from the engine's lifecycle stream."""
        sinks = getattr(self.engine, "trace_sinks", None)
        if sinks is not None and self._on_event in sinks:
            sinks.remove(self._on_event)

    def _on_event(self, event: LifecycleEvent) -> None:
        """Lifecycle sink: per-queue accounting from JobEnd events.

        ``JobEnd.seconds`` mirrors ``EngineResult.simulated_seconds``
        exactly (0.0 on failure), so the bus-fed stats match what the old
        result-inspecting drain computed.
        """
        if not isinstance(event, JobEnd):
            return
        queue = self._active_queue
        if queue is None:
            return  # a job outside any drain (direct run_job)
        stats = self._stats[queue]
        if event.succeeded:
            stats.succeeded += 1
        else:
            stats.failed += 1
        stats.simulated_seconds += event.seconds

    @property
    def queue_names(self) -> List[str]:
        return sorted(self._queues)

    def submit(self, conf: JobConf) -> str:
        """Enqueue a job; returns the queue it landed in."""
        queue = conf.get(JOB_QUEUE_NAME_KEY, DEFAULT_QUEUE)
        if queue not in self._queues:
            raise KeyError(
                f"unknown queue {queue!r}; declared queues: {self.queue_names}"
            )
        self._queues[queue].append(conf)
        self._stats[queue].submitted += 1
        return queue

    def pending(self, queue: str = DEFAULT_QUEUE) -> int:
        return len(self._queues[queue])

    def stats(self, queue: str = DEFAULT_QUEUE) -> QueueStats:
        return self._stats[queue]

    def drain(self, queue: str = DEFAULT_QUEUE) -> List[EngineResult]:
        """Run every queued job of one queue in FIFO order.

        Accounting happens on the lifecycle bus (:meth:`_on_event` sees
        each job's ``JobEnd``); drain only moves jobs from the queue to
        the engine and delivers end notifications.
        """
        results: List[EngineResult] = []
        while True:
            if not self._queues[queue]:
                break
            conf = self._queues[queue].pop(0)
            self._active_queue = queue
            try:
                result = self.engine.run_job(conf)
            finally:
                self._active_queue = None
            results.append(result)
            if self.notifier is not None:
                self.notifier.notify(conf, result)
        return results

    def drain_all(self) -> Dict[str, List[EngineResult]]:
        """Drain every queue (queue-name order)."""
        return {name: self.drain(name) for name in self.queue_names}


@dataclass
class ProgressEvent:
    """One asynchronous progress update."""

    job_name: str
    phase: str  # submitted | map | shuffle | reduce | done
    fraction: float


#: Stage-completion → (phase, fraction) for the polling progress view.
#: Bookkeeping stages (setup, commit) are not user-visible phases.
_STAGE_PROGRESS: Dict[str, tuple] = {
    "map": ("map", 0.5),
    "shuffle": ("shuffle", 0.7),
    "reduce": ("reduce", 0.9),
}


class ProgressTracker:
    """Asynchronous progress and counter updates for interactive clients.

    Attach to an engine with :meth:`attach`: the tracker subscribes to the
    engine's lifecycle stream (``trace_sinks``) and translates the typed
    events into phase/fraction updates — ``JobStart`` is "submitted",
    each task stage's ``StageEnd`` advances the fraction, a successful
    ``JobEnd`` is "done".  Clients poll :meth:`snapshot` (or read
    :attr:`events`) from a sink, from user code or between jobs — the
    shape of Hadoop's ``JobClient.monitorAndPrintJob``.  Direct calls
    (``tracker(name, phase, fraction)``) still work for custom reporters.
    """

    def __init__(self) -> None:
        self.events: List[ProgressEvent] = []
        self._latest: Dict[str, ProgressEvent] = {}
        #: Bus job id (``m3r-<n>``) → user-facing job name, from JobStart.
        self._job_names: Dict[str, str] = {}

    def __call__(self, job_name: str, phase: str, fraction: float) -> None:
        event = ProgressEvent(job_name, phase, min(1.0, max(0.0, fraction)))
        self.events.append(event)
        self._latest[job_name] = event

    def attach(self, engine: Any) -> "ProgressTracker":
        engine.trace_sinks.append(self._on_event)
        return self

    def detach(self, engine: Any) -> None:
        if self._on_event in engine.trace_sinks:
            engine.trace_sinks.remove(self._on_event)

    def _on_event(self, event: LifecycleEvent) -> None:
        """Lifecycle sink: translate bus events into progress updates."""
        if isinstance(event, JobStart):
            name = event.job_name or event.job_id
            self._job_names[event.job_id] = name
            self(name, "submitted", 0.0)
        elif isinstance(event, StageEnd) and event.stage in _STAGE_PROGRESS:
            phase, fraction = _STAGE_PROGRESS[event.stage]
            self(self._name_of(event.job_id), phase, fraction)
        elif isinstance(event, JobEnd) and event.succeeded:
            # Failed jobs never reach "done", matching Hadoop's monitor.
            self(self._name_of(event.job_id), "done", 1.0)

    def _name_of(self, job_id: str) -> str:
        return self._job_names.get(job_id, job_id)

    def snapshot(self, job_name: str) -> Optional[ProgressEvent]:
        return self._latest.get(job_name)

    def phases_seen(self, job_name: str) -> List[str]:
        return [e.phase for e in self.events if e.job_name == job_name]
