"""The always-on job service: async admission, serial execution, fairness.

:class:`JobService` wraps one long-lived engine (M3R or the stock Hadoop
simulator — anything with ``run_job``).  Clients submit jobs or whole
:class:`~repro.api.job.JobSequence` pipelines asynchronously and get a
*ticket* back; a deterministic stride scheduler picks which tenant's
submission runs next; the engine executes strictly one submission at a
time.  That serial-execution rule is what keeps the repo's determinism
contract intact — the only thing the service adds is an order over
admitted work, which cannot touch job outputs or simulated time.

There is one driving mode, and no thread: the caller drives.
:meth:`JobService.step` and :meth:`JobService.drain` run scheduled
submissions, and :meth:`JobService.wait` runs whichever submissions the
fair scheduler picks (not necessarily the caller's own) until its ticket is
finished.  So a blocking ``TenantClient.run_job`` also runs the other
tenants' queued work that the stride schedule puts ahead of it.  Who runs
next is decided by :class:`FairScheduler` state alone, so the schedule is a
function of the admission order.  A submission cannot drive the service
from inside its own job: a re-entrant drive raises :class:`RuntimeError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.api.conf import JobConf
from repro.api.job import JobSequence
from repro.fs.filesystem import normalize_path
from repro.lifecycle.events import JobEnd, LifecycleEvent, ServiceEvent, StageStart
from repro.restore.store import ResultStore
from repro.service.scheduler import FairScheduler
from repro.service.tenancy import SubmissionRecord, TenantSpec, TenantState

#: Service-wide bound on queued submissions; admission past it raises
#: :class:`QueueFull`.
DEFAULT_QUEUE_DEPTH = 64
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
    """A point-in-time snapshot of one ticket (an immutable copy)."""

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
    into a serving layer: register tenants, submit from many clients, and
    the wrapped engine's caches, ReStore and JIT state stay warm across
    every tenant's jobs while admission keeps the tenants out of each
    other's way.
    """

    def __init__(self, engine: Any):
        self.engine = engine
        #: Bounded total queue depth (queued, not running, submissions).
        self.queue_depth = DEFAULT_QUEUE_DEPTH

        self._tenants: Dict[str, TenantState] = {}
        self._submissions: Dict[str, SubmissionRecord] = {}
        #: The submission on the engine; set only inside :meth:`_drive_one`.
        self._running: Optional[SubmissionRecord] = None
        self._ticket_counter = 0
        self._scheduler = FairScheduler()
        #: Opt-in shared ReStore namespace (tenants with shared_restore=True).
        self._shared_store = ResultStore()
        self._events: Deque[ServiceEvent] = deque(maxlen=SERVICE_EVENT_RING)

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
        weight: int = 1,
        inflight_limit: int = 8,
        cache_budget_bytes: int = 0,
        prefixes: Tuple[str, ...] = (),
        shared_restore: bool = False,
    ) -> "TenantClient":
        """Register a tenant with its isolation parameters (see
        :class:`~repro.service.tenancy.TenantSpec`)."""
        spec = TenantSpec(
            name=name,
            weight=weight,
            inflight_limit=inflight_limit,
            cache_budget_bytes=cache_budget_bytes,
            prefixes=tuple(prefixes),
            shared_restore=shared_restore,
        )
        if name in self._tenants:
            raise ValueError(f"tenant already registered: {name}")
        store = None if spec.shared_restore else ResultStore()
        self._tenants[name] = TenantState(spec, store)
        self._scheduler.add_tenant(name, spec.weight)
        governor = getattr(self.engine, "governor", None)
        if governor is not None and spec.prefixes:
            governor.register_tenant(name, spec.prefixes, spec.cache_budget_bytes)
        return TenantClient(self, name)

    def client(self, name: str) -> "TenantClient":
        if name not in self._tenants:
            raise KeyError(f"unknown tenant: {name}")
        return TenantClient(self, name)

    def tenant_names(self) -> List[str]:
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
        state = self._tenants.get(tenant)
        if state is None:
            raise KeyError(f"unknown tenant: {tenant}")
        queued = sum(
            len(t.queue)
            for t in self._tenants.values()  # noqa: M3R002 - order-independent count
        )
        if queued >= self.queue_depth:
            state.counters["rejected"] += 1
            self._emit("rejected", tenant, f"{tenant}/-", "queue-full")
            raise QueueFull(
                f"service queue full ({queued}/{self.queue_depth}); "
                f"tenant {tenant} rejected"
            )
        if state.inflight >= state.spec.inflight_limit:
            state.counters["rejected"] += 1
            self._emit("rejected", tenant, f"{tenant}/-", "in-flight-limit")
            raise TenantLimitExceeded(
                f"tenant {tenant} at in-flight limit "
                f"({state.inflight}/{state.spec.inflight_limit})"
            )
        for conf in confs:
            out = conf.get_output_path()
            if out and not state.spec.owns_path(out):
                state.counters["rejected"] += 1
                self._emit("rejected", tenant, f"{tenant}/-", "namespace")
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
        self._emit("submitted", tenant, ticket)
        return ticket

    def cancel(self, ticket: str) -> bool:
        """Withdraw a *queued* submission.  Returns ``False`` when the
        ticket is already running or finished — running jobs are never
        interrupted (killing mid-job would break determinism and leak
        half-committed outputs)."""
        record = self._require(ticket)
        if record.state != "queued":
            return False
        state = self._tenants[record.tenant]
        state.queue.remove(record)
        state.inflight -= 1
        record.state = "cancelled"
        state.counters["cancelled"] += 1
        self._emit("cancelled", record.tenant, ticket)
        return True

    # ------------------------------------------------------------------
    # status / results

    def status(self, ticket: str) -> SubmissionStatus:
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

    def wait(self, ticket: str) -> List[Any]:
        """Drive the scheduler until ``ticket`` finishes and return its
        results (one :class:`EngineResult` per job).  Re-raises the engine
        exception if the submission died, exactly like a direct ``run_job``
        would.

        The caller runs whichever submissions the fair scheduler picks (not
        necessarily its own) until its ticket is finished.
        """
        record = self._require(ticket)
        while not record.finished:
            if not self._drive_one():
                raise RuntimeError(
                    f"{ticket} is {record.state} but no submission is runnable"
                )
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
        if self._running is not None:
            raise RuntimeError(
                f"re-entrant drive: {self._running.ticket} is running, and a "
                "submission cannot drive the service from inside its own job"
            )
        record = self._dispatch()
        if record is None:
            return False
        self._execute(record)
        return True

    def _dispatch(self) -> Optional[SubmissionRecord]:
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
        self._emit("started", choice, record.ticket)
        return record

    def _execute(self, record: SubmissionRecord) -> None:
        """Run one submission on the engine.

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
                    record.exception = exc
                    break
                record.results.append(result)
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
        self._emit("finished", record.tenant, record.ticket, record.state)

    # ------------------------------------------------------------------
    # teardown

    def close(self) -> None:
        """Detach from the engine's lifecycle stream."""
        sinks = getattr(self.engine, "trace_sinks", None)
        if sinks is not None and self._lifecycle_sink in sinks:
            sinks.remove(self._lifecycle_sink)

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # observability

    def _on_event(self, event: LifecycleEvent) -> None:
        """Lifecycle sink (subscribed on every job's bus): narrates the
        running submission's progress into its record."""
        if isinstance(event, ServiceEvent):
            return
        record = self._running
        if record is None:
            return
        if isinstance(event, StageStart):
            record.current_stage = event.stage
        elif isinstance(event, JobEnd):
            record.current_stage = None

    def _emit(
        self, action: str, tenant: str, ticket: str, detail: Optional[str] = None
    ) -> None:
        """Append a ServiceEvent to the service's ring and the engine's."""
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
        return list(self._events)

    def schedule_log(self) -> List[Tuple[str, str]]:
        """The dispatch order so far: ``(tenant, ticket)`` per start event.
        This is the determinism witness the fairness tests assert on."""
        return [
            (e.tenant, e.job_id) for e in self._events if e.action == "started"
        ]

    def tenant_stats(self, name: str) -> Dict[str, Any]:
        state = self._tenants.get(name)
        if state is None:
            raise KeyError(f"unknown tenant: {name}")
        stats = state.stats()
        stats["pass"] = self._scheduler.pass_of(name)
        governor = getattr(self.engine, "governor", None)
        if governor is not None:
            ledger = governor.tenant_snapshot().get(name)
            if ledger is not None:
                stats["cache"] = ledger
        store = self._store_of(name)
        stats["restore"] = store.stats()
        return stats

    def service_stats(self) -> Dict[str, Any]:
        running = self._running
        return {
            "engine": getattr(self.engine, "name", type(self.engine).__name__),
            "queue_depth": self.queue_depth,
            "queued": sum(len(t.queue) for t in self._tenants.values()),
            "running": running.ticket if running is not None else None,
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
