"""The multi-tenant job service: the paper's always-on deployment story
(Section 5.3) grown into a serving layer.

The paper's killer deployment keeps one M3R engine alive while interactive
clients (BigSheets) stream jobs at it.  This package is the layer that
makes that multi-tenant:

* **admission** (:class:`~repro.service.service.JobService.submit`) — an
  asynchronous submission queue with a bounded total depth and per-tenant
  in-flight limits; exceeding either rejects the submission with typed
  backpressure (:class:`QueueFull` / :class:`TenantLimitExceeded`);
* **isolation** (:class:`~repro.service.tenancy.TenantSpec`) — each tenant
  owns a path namespace; its cache residency is charged to a per-tenant
  budget on the engine's :class:`~repro.memory.governor.MemoryGovernor`
  (one tenant's pressure evicts only its own unpinned entries), and its
  ReStore results live in a private per-tenant store unless the tenant
  opts into the service-wide shared namespace;
* **scheduling** (:class:`~repro.service.scheduler.FairScheduler`) — a
  deterministic stride scheduler (weighted round-robin) over per-tenant
  FIFO queues; a submitted :class:`~repro.api.job.JobSequence` is the
  atomic unit, so iterative jobs run back-to-back with their cached
  inputs pinned hot (sequence affinity);
* **observability** — ``submit`` / ``status`` / ``wait`` / ``cancel`` /
  ``tenant_stats`` fed by typed :class:`LifecycleEvent` subscriptions on
  every job's bus, a :class:`~repro.lifecycle.events.ServiceEvent` family
  narrating admission decisions, and
  ``python -m repro stats --tenants N [--weights W,...]``.

Jobs execute strictly one at a time on the wrapped engine, on the thread
that drives the service — the service starts no thread — so the repo's
determinism contract holds
end to end: for any fixed admission order, the schedule, every output
byte and every simulated second are identical across runs, and each
tenant's outputs are byte-identical to running its sequence alone.
"""

from repro.service.scheduler import FairScheduler
from repro.service.service import (
    AdmissionError,
    JobService,
    QueueFull,
    SubmissionStatus,
    TenantClient,
    TenantLimitExceeded,
)
from repro.service.tenancy import TenantSpec

__all__ = [
    "AdmissionError",
    "FairScheduler",
    "JobService",
    "QueueFull",
    "SubmissionStatus",
    "TenantClient",
    "TenantLimitExceeded",
    "TenantSpec",
]
