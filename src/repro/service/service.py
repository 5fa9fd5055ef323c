"""The always-on job service: async admission, serial execution, fairness.

:class:`JobService` wraps one long-lived engine (M3R or the stock Hadoop
simulator — anything with ``run_job``).  Clients submit jobs or whole
:class:`~repro.api.job.JobSequence` pipelines asynchronously and get a
*ticket* back; a deterministic stride scheduler picks which tenant's
submission runs next; the engine executes strictly one submission at a
time.  That serial-execution rule is what keeps the repo's determinism
contract intact — the only concurrency the service introduces lives in
the admission layer, where it cannot touch job outputs or simulated time.

Two driving modes share the same scheduler:

* **caller-driven** (default): any thread blocked in :meth:`JobService.wait`
  volunteers to drive the scheduler — it runs submissions (not necessarily
  its own) under the run lock until its ticket completes.  No background
  thread exists, so ``TenantClient.run_job`` works in a plain script.
* **server mode**: :meth:`JobService.start` spawns one worker thread that
  drains the queues; ``wait`` then just blocks on the submission's done
  event.  This is the ``python -m repro serve`` / BigSheets shape.

Both modes produce the *same* schedule for the same admission order,
because who runs next is decided by :class:`FairScheduler` state that only
changes under the service lock — never by thread timing.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.api.conf import (
    Configuration,
    JobConf,
    SERVICE_IN_FLIGHT_KEY,
    SERVICE_QUEUE_DEPTH_KEY,
    SERVICE_SHARED_RESTORE_KEY,
    SERVICE_TENANT_BUDGET_KEY,
    SERVICE_TENANT_WEIGHT_KEY,
)
from repro.api.job import JobSequence
from repro.fs.filesystem import normalize_path
from repro.lifecycle.events import JobEnd, LifecycleEvent, ServiceEvent, StageStart
from repro.restore.store import ResultStore
from repro.service.scheduler import FairScheduler
from repro.service.tenancy import SubmissionRecord, TenantSpec, TenantState

DEFAULT_QUEUE_DEPTH = 64
DEFAULT_INFLIGHT_LIMIT = 8
#: How many ServiceEvents the service remembers (``events``, ``schedule_log``).
SERVICE_EVENT_RING = 512


class AdmissionError(RuntimeError):
    """A submission was rejected at admission (typed backpressure)."""


class QueueFull(AdmissionError):
    """The service-wide submission queue is at its bounded depth."""


class TenantLimitExceeded(AdmissionError):
    """The tenant already has its limit of in-flight submissions."""


@dataclass(frozen=True)
class SubmissionStatus:
    """A point-in-time snapshot of one ticket, safe to hand across threads."""

    ticket: str
    tenant: str
    #: queued | running | succeeded | failed | cancelled
    state: str
    jobs_total: int
    jobs_done: int
    #: The running job's current lifecycle stage (from StageStart events).
    current_stage: Optional[str]
    #: Simulated seconds accumulated by this submission's finished jobs.
    simulated_seconds: float
    error: Optional[str]


class JobService:
    """Multi-tenant admission, isolation and fair scheduling over one engine.

    The service is the paper's "engine outlives the job" deployment grown
    into a serving layer: register tenants, submit from many threads, and
    the wrapped engine's caches, ReStore and JIT state stay warm across
    every tenant's jobs while admission keeps the tenants out of each
    other's way.
    """

    def __init__(self, engine: Any, config: Optional[Configuration] = None):
        cfg = config if config is not None else Configuration()
        self.engine = engine
        #: Bounded total queue depth (queued, not running, submissions).
        self.queue_depth = cfg.get_int(SERVICE_QUEUE_DEPTH_KEY, DEFAULT_QUEUE_DEPTH)
        if self.queue_depth <= 0:
            raise ValueError(f"queue depth must be positive: {self.queue_depth}")
        self._default_weight = cfg.get_int(SERVICE_TENANT_WEIGHT_KEY, 1)
        self._default_inflight = cfg.get_int(
            SERVICE_IN_FLIGHT_KEY, DEFAULT_INFLIGHT_LIMIT
        )
        self._default_budget = cfg.get_int(SERVICE_TENANT_BUDGET_KEY, 0)
        self._default_shared_restore = cfg.get_boolean(
            SERVICE_SHARED_RESTORE_KEY, False
        )

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        #: Serializes engine execution: exactly one submission runs at a time.
        self._run_lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}
        self._submissions: Dict[str, SubmissionRecord] = {}
        self._running: Optional[SubmissionRecord] = None
        self._ticket_counter = 0
        self._scheduler = FairScheduler()
        #: Opt-in shared ReStore namespace (tenants with shared_restore=True).
        self._shared_store = ResultStore()
        self._events: Deque[ServiceEvent] = deque(maxlen=SERVICE_EVENT_RING)
        self._worker: Optional[threading.Thread] = None
        self._stop = False
        self._closed = False

        # Feed status()/current_stage from the typed lifecycle stream: the
        # engine subscribes these sinks on every job's bus.
        self._lifecycle_sink: Callable[[LifecycleEvent], None] = self._on_event
        sinks = getattr(engine, "trace_sinks", None)
        if sinks is not None:
            sinks.append(self._lifecycle_sink)

    # ------------------------------------------------------------------
    # tenants

    def register_tenant(
        self,
        name: str,
        *,
        weight: Optional[int] = None,
        inflight_limit: Optional[int] = None,
        cache_budget_bytes: Optional[int] = None,
        prefixes: Tuple[str, ...] = (),
        shared_restore: Optional[bool] = None,
    ) -> "TenantClient":
        """Register a tenant; unset isolation knobs fall back to the
        ``m3r.service.*`` configuration defaults."""
        spec = TenantSpec(
            name=name,
            weight=self._default_weight if weight is None else weight,
            inflight_limit=(
                self._default_inflight if inflight_limit is None else inflight_limit
            ),
            cache_budget_bytes=(
                self._default_budget
                if cache_budget_bytes is None
                else cache_budget_bytes
            ),
            prefixes=tuple(prefixes),
            shared_restore=(
                self._default_shared_restore
                if shared_restore is None
                else shared_restore
            ),
        )
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant already registered: {name}")
            store = None if spec.shared_restore else ResultStore()
            self._tenants[name] = TenantState(spec, store)
            self._scheduler.add_tenant(name, spec.weight)
        governor = getattr(self.engine, "governor", None)
        if governor is not None and spec.prefixes:
            governor.tenants.register(name, spec.prefixes, spec.cache_budget_bytes)
        return TenantClient(self, name)

    def client(self, name: str) -> "TenantClient":
        with self._lock:
            if name not in self._tenants:
                raise KeyError(f"unknown tenant: {name}")
        return TenantClient(self, name)

    def tenant_names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    # ------------------------------------------------------------------
    # admission

    def submit(self, tenant: str, job: Any) -> str:
        """Admit a job (``JobConf``) or pipeline (``JobSequence``) for
        ``tenant``; returns a ticket immediately, or raises typed
        backpressure (:class:`QueueFull` / :class:`TenantLimitExceeded`)."""
        confs: Tuple[JobConf, ...]
        if isinstance(job, JobSequence):
            confs = tuple(job)
        else:
            confs = (job,)
        if not confs:
            raise ValueError("cannot submit an empty sequence")
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                raise KeyError(f"unknown tenant: {tenant}")
            queued = sum(
                len(t.queue)
                for t in self._tenants.values()  # noqa: M3R002 - order-independent count
            )
            if queued >= self.queue_depth:
                state.counters["rejected"] += 1
                self._emit_locked("rejected", tenant, f"{tenant}/-", "queue-full")
                raise QueueFull(
                    f"service queue full ({queued}/{self.queue_depth}); "
                    f"tenant {tenant} rejected"
                )
            if state.inflight >= state.spec.inflight_limit:
                state.counters["rejected"] += 1
                self._emit_locked("rejected", tenant, f"{tenant}/-", "in-flight-limit")
                raise TenantLimitExceeded(
                    f"tenant {tenant} at in-flight limit "
                    f"({state.inflight}/{state.spec.inflight_limit})"
                )
            for conf in confs:
                out = conf.get_output_path()
                if out and not state.spec.owns_path(out):
                    state.counters["rejected"] += 1
                    self._emit_locked("rejected", tenant, f"{tenant}/-", "namespace")
                    raise AdmissionError(
                        f"output path {out!r} is outside tenant {tenant}'s "
                        f"namespace {list(state.spec.prefixes)}"
                    )
            ticket = f"{tenant}/{self._ticket_counter}"
            self._ticket_counter += 1
            if state.inflight == 0:
                # Idle -> ready: lift the tenant's pass to virtual time so
                # it cannot spend banked credit starving active tenants.
                self._scheduler.on_ready(tenant)
            record = SubmissionRecord(ticket=ticket, tenant=tenant, confs=confs)
            state.queue.append(record)
            state.inflight += 1
            state.counters["submitted"] += 1
            self._submissions[ticket] = record
            self._emit_locked("submitted", tenant, ticket)
            self._work.notify_all()
        return ticket

    def cancel(self, ticket: str) -> bool:
        """Withdraw a *queued* submission.  Returns ``False`` when the
        ticket is already running or finished — running jobs are never
        interrupted (killing mid-job would break determinism and leak
        half-committed outputs)."""
        with self._lock:
            record = self._require(ticket)
            if record.state != "queued":
                return False
            state = self._tenants[record.tenant]
            state.queue.remove(record)
            state.inflight -= 1
            record.state = "cancelled"
            state.counters["cancelled"] += 1
            self._emit_locked("cancelled", record.tenant, ticket)
        record.done.set()
        return True

    # ------------------------------------------------------------------
    # status / results

    def status(self, ticket: str) -> SubmissionStatus:
        with self._lock:
            record = self._require(ticket)
            return SubmissionStatus(
                ticket=record.ticket,
                tenant=record.tenant,
                state=record.state,
                jobs_total=len(record.confs),
                jobs_done=len(record.results),
                current_stage=record.current_stage,
                simulated_seconds=sum(
                    r.simulated_seconds for r in record.results
                ),
                error=(
                    str(record.exception) if record.exception is not None else None
                ),
            )

    def wait(self, ticket: str, timeout: Optional[float] = None) -> List[Any]:
        """Block until ``ticket`` finishes and return its results (one
        :class:`EngineResult` per job).  Re-raises the engine exception if
        the submission died, exactly like a direct ``run_job`` would.

        Without a background worker the waiting thread *drives* the
        scheduler: it runs whichever submissions the fair scheduler picks
        (not necessarily its own) until its ticket completes.
        """
        with self._lock:
            record = self._require(ticket)
        while not record.done.is_set():
            if self._worker is not None:
                if not record.done.wait(timeout if timeout is not None else 0.1):
                    if timeout is not None:
                        raise TimeoutError(f"timed out waiting for {ticket}")
                continue
            if not self._drive_one() and not record.done.is_set():
                # Nothing runnable and no worker: the ticket can only be
                # stuck (should not happen — cancel sets done).
                record.done.wait(0.01)
        if record.exception is not None:
            raise record.exception
        return list(record.results)

    # ------------------------------------------------------------------
    # scheduling / execution

    def step(self) -> bool:
        """Run the next scheduled submission to completion (synchronously).
        Returns ``False`` when every queue is empty."""
        return self._drive_one()

    def drain(self) -> int:
        """Run submissions until all queues are empty; returns how many ran."""
        ran = 0
        while self._drive_one():
            ran += 1
        return ran

    def _drive_one(self) -> bool:
        with self._run_lock:
            with self._lock:
                record = self._dispatch_locked()
            if record is None:
                return False
            self._execute(record)
        return True

    def _dispatch_locked(self) -> Optional[SubmissionRecord]:
        """Pick the next submission (fair scheduler) and mark it running."""
        ready = [name for name, state in self._tenants.items() if state.queue]
        choice = self._scheduler.select(sorted(ready))
        if choice is None:
            return None
        state = self._tenants[choice]
        record = state.queue.pop(0)
        record.state = "running"
        self._running = record
        # Charge fairness at dispatch, per job: a tenant cannot buy extra
        # bandwidth by batching many jobs into one sequence ticket.
        self._scheduler.charge(choice, len(record.confs))
        self._emit_locked("started", choice, record.ticket)
        return record

    def _execute(self, record: SubmissionRecord) -> None:
        """Run one submission on the engine (run lock held, service lock not).

        Isolation happens here: the engine's ReStore is swapped to the
        tenant's store (private unless the tenant opted into the shared
        namespace) for the duration, and sequence outputs are pinned
        between jobs exactly like ``Engine.run_sequence`` does (sequence
        affinity).
        """
        engine = self.engine
        state = self._tenants[record.tenant]
        store = state.store if state.store is not None else self._shared_store
        had_restore = hasattr(engine, "restore")
        prev_store = engine.restore if had_restore else None
        governor = getattr(engine, "governor", None)
        pins: List[str] = []
        if had_restore:
            engine.restore = store
        try:
            for conf in record.confs:
                try:
                    result = engine.run_job(conf)
                except BaseException as exc:
                    # The running record is owned exclusively by this
                    # thread (run lock held) until done is set.
                    record.exception = exc
                    break
                record.results.append(result)
                with self._lock:
                    state.counters["jobs_run"] += 1
                    state.simulated_seconds += result.simulated_seconds
                if not result.succeeded:
                    break
                if result.output_path and governor is not None:
                    prefix = normalize_path(result.output_path)
                    governor.pin_prefix(prefix)
                    pins.append(prefix)
        finally:
            if governor is not None:
                for prefix in pins:
                    governor.unpin_prefix(prefix)
            if had_restore:
                engine.restore = prev_store
        with self._lock:
            ok = (
                record.exception is None
                and len(record.results) == len(record.confs)
                and all(r.succeeded for r in record.results)
            )
            record.state = "succeeded" if ok else "failed"
            record.current_stage = None
            state.counters["succeeded" if ok else "failed"] += 1
            state.inflight -= 1
            self._running = None
            self._emit_locked("finished", record.tenant, record.ticket, record.state)
        record.done.set()

    # ------------------------------------------------------------------
    # server mode

    def start(self) -> "JobService":
        """Spawn the background worker thread (server mode)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._worker is not None:
                return self
            self._stop = False
            self._worker = threading.Thread(
                target=self._worker_loop, name="m3r-service", daemon=True
            )
        self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) finish queued work first."""
        with self._lock:
            worker = self._worker
            if worker is None:
                return
            self._stop = True
            self._drain_on_stop = drain
            self._work.notify_all()
        worker.join()
        with self._lock:
            self._worker = None

    def close(self) -> None:
        """Stop the worker and detach from the engine's lifecycle stream."""
        self.stop()
        with self._lock:
            self._closed = True
        sinks = getattr(self.engine, "trace_sinks", None)
        if sinks is not None and self._lifecycle_sink in sinks:
            sinks.remove(self._lifecycle_sink)

    def _worker_loop(self) -> None:
        while True:
            if self._drive_one():
                continue
            with self._work:
                if self._stop:
                    if getattr(self, "_drain_on_stop", True) and any(
                        state.queue for state in self._tenants.values()
                    ):
                        continue  # one more drive pass before exiting
                    return
                self._work.wait(0.05)

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # observability

    def _on_event(self, event: LifecycleEvent) -> None:
        """Lifecycle sink (subscribed on every job's bus): narrates the
        running submission's progress into its record."""
        if isinstance(event, ServiceEvent):
            return
        with self._lock:
            record = self._running
            if record is None:
                return
            if isinstance(event, StageStart):
                record.current_stage = event.stage
            elif isinstance(event, JobEnd):
                record.current_stage = None

    def _emit_locked(
        self, action: str, tenant: str, ticket: str, detail: Optional[str] = None
    ) -> None:
        """Append a ServiceEvent (service lock held by the caller)."""
        event = ServiceEvent(
            job_id=ticket,
            engine="service",
            action=action,
            tenant=tenant,
            queued=sum(
                len(t.queue)
                for t in self._tenants.values()  # noqa: M3R002 - order-independent count
            ),
            detail=detail,
        )
        self._events.append(event)
        ring = getattr(self.engine, "event_ring", None)
        if ring is not None:
            ring(event)

    def events(self) -> List[ServiceEvent]:
        """A snapshot of the recent ServiceEvent ring (oldest first)."""
        with self._lock:
            return list(self._events)

    def schedule_log(self) -> List[Tuple[str, str]]:
        """The dispatch order so far: ``(tenant, ticket)`` per start event.
        This is the determinism witness the fairness tests assert on."""
        with self._lock:
            return [
                (e.tenant, e.job_id) for e in self._events if e.action == "started"
            ]

    def tenant_stats(self, name: str) -> Dict[str, Any]:
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                raise KeyError(f"unknown tenant: {name}")
            stats = state.stats()
            stats["pass"] = self._scheduler.pass_of(name)
        governor = getattr(self.engine, "governor", None)
        if governor is not None:
            ledger = governor.tenants.snapshot().get(name)
            if ledger is not None:
                stats["cache"] = ledger
        store = self._store_of(name)
        stats["restore"] = store.stats()
        return stats

    def service_stats(self) -> Dict[str, Any]:
        with self._lock:
            running = self._running
            return {
                "engine": getattr(self.engine, "name", type(self.engine).__name__),
                "queue_depth": self.queue_depth,
                "queued": sum(len(t.queue) for t in self._tenants.values()),
                "running": running.ticket if running is not None else None,
                "worker": self._worker is not None,
                "tenants": {
                    name: self._tenants[name].stats()
                    for name in sorted(self._tenants)
                },
                "shared_restore": self._shared_store.stats(),
            }

    def _store_of(self, name: str) -> ResultStore:
        state = self._tenants[name]
        return state.store if state.store is not None else self._shared_store

    def _require(self, ticket: str) -> SubmissionRecord:
        record = self._submissions.get(ticket)
        if record is None:
            raise KeyError(f"unknown ticket: {ticket}")
        return record


class TenantClient:
    """A tenant-scoped facade with the engine's blocking surface.

    ``run_job`` / ``run_sequence`` go through service admission, fair
    scheduling and tenant isolation, then block for the result — so any
    code written against an engine (examples, workloads, tests) runs
    unmodified against a service tenant.  Unknown attributes delegate to
    the wrapped engine, which is what lets the equivalence suite treat a
    client as a drop-in engine.
    """

    _LOCAL = ("_service", "_tenant")

    def __init__(self, service: JobService, tenant: str):
        object.__setattr__(self, "_service", service)
        object.__setattr__(self, "_tenant", tenant)

    @property
    def service(self) -> JobService:
        return self._service

    @property
    def tenant(self) -> str:
        return self._tenant

    def run_job(self, conf: JobConf) -> Any:
        ticket = self._service.submit(self._tenant, conf)
        return self._service.wait(ticket)[0]

    def run_sequence(self, sequence: JobSequence) -> List[Any]:
        ticket = self._service.submit(self._tenant, sequence)
        return self._service.wait(ticket)

    def submit(self, job: Any) -> str:
        return self._service.submit(self._tenant, job)

    def stats(self) -> Dict[str, Any]:
        return self._service.tenant_stats(self._tenant)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._service.engine, name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in TenantClient._LOCAL:
            object.__setattr__(self, name, value)
        else:
            setattr(self._service.engine, name, value)
