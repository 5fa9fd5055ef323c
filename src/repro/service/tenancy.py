"""Tenant identity and isolation state for the job service.

A tenant is a named client of the always-on engine: a fair-share weight,
an in-flight limit, a path namespace with a cache-residency budget, and a
ReStore visibility choice.  The spec is immutable; the mutable runtime
side (queue, stride pass value, accounting) lives on :class:`TenantState`
inside the service, which reads and writes it on the caller's thread only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fs.filesystem import normalize_path
from repro.restore.store import ResultStore

#: Submission states after which nothing about the record changes.
TERMINAL_STATES = frozenset({"succeeded", "failed", "cancelled"})


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's registration: identity plus isolation parameters.

    ``prefixes`` is the tenant's path namespace.  When non-empty, every
    submission's output path must fall inside it (admission rejects stray
    writers) and the tenant's resident cache bytes are charged against
    ``cache_budget_bytes`` on the engine's governor (0 = unbounded).  An
    empty prefix tuple means the tenant is unconfined: no namespace
    validation and no tenant-budget accounting — the single-tenant
    compatibility mode.

    ``shared_restore`` selects ReStore visibility: ``False`` (default)
    gives the tenant a private result store — its recorded results are
    invisible to every other tenant; ``True`` joins the service-wide
    shared namespace, where identical plans reuse each other's results
    across tenants.
    """

    name: str
    weight: int = 1
    inflight_limit: int = 8
    cache_budget_bytes: int = 0
    prefixes: Tuple[str, ...] = ()
    shared_restore: bool = False

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError(f"invalid tenant name: {self.name!r}")
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be positive: {self.weight}")
        if self.inflight_limit <= 0:
            raise ValueError(
                f"in-flight limit must be positive: {self.inflight_limit}"
            )
        if self.cache_budget_bytes < 0:
            raise ValueError(
                f"cache budget cannot be negative: {self.cache_budget_bytes}"
            )
        object.__setattr__(
            self, "prefixes",
            tuple(sorted(normalize_path(p) for p in self.prefixes)),
        )

    def owns_path(self, path: str) -> bool:
        """Does ``path`` fall inside this tenant's namespace?  Unconfined
        tenants (no prefixes) own everything."""
        if not self.prefixes:
            return True
        path = normalize_path(path)
        return any(
            path == prefix or path.startswith(prefix + "/")
            for prefix in self.prefixes
        )


class TenantState:
    """The service's mutable per-tenant record: the FIFO queue, the stride
    scheduler's pass value, the private result store, and lifetime
    accounting."""

    def __init__(self, spec: TenantSpec, store: Optional[ResultStore]):
        self.spec = spec
        #: Private ReStore store; ``None`` means the tenant shares the
        #: service-wide store.
        self.store = store
        #: Queued submissions, FIFO.  The running submission is NOT here.
        self.queue: List[object] = []
        #: Stride-scheduling virtual time; advances by jobs/weight.
        self.pass_value: float = 0.0
        #: Submissions currently queued or running (the in-flight gauge).
        self.inflight: int = 0
        self.counters: Dict[str, int] = {
            "submitted": 0, "rejected": 0, "cancelled": 0,
            "succeeded": 0, "failed": 0, "jobs_run": 0,
        }
        self.simulated_seconds: float = 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "tenant": self.spec.name,
            "weight": self.spec.weight,
            "inflight_limit": self.spec.inflight_limit,
            "cache_budget_bytes": self.spec.cache_budget_bytes,
            "prefixes": list(self.spec.prefixes),
            "shared_restore": self.spec.shared_restore,
            "queued": len(self.queue),
            "inflight": self.inflight,
            "simulated_seconds": self.simulated_seconds,
            **dict(self.counters),
        }


@dataclass
class SubmissionRecord:
    """One admitted submission: a job or a whole sequence under one ticket."""

    ticket: str
    tenant: str
    confs: Tuple[object, ...]
    #: queued | running | succeeded | failed | cancelled
    state: str = "queued"
    results: List[object] = field(default_factory=list)
    #: Engine exception (node loss) captured while the submission ran;
    #: ``wait`` re-raises it so service submission fails exactly like a
    #: direct run.
    exception: Optional[BaseException] = None
    #: Narration from lifecycle events: the running job's current stage.
    current_stage: Optional[str] = None

    @property
    def finished(self) -> bool:
        """Has the submission reached a terminal state?"""
        return self.state in TERMINAL_STATES
