"""The memory governor: budget + policy + spill + pins, in one place.

The governor is the brain of memory governance; the cache keeps the
mechanics (index/store surgery) and asks the governor three questions:

* *accounting* — charge/release bytes against the per-place budget;
* *pressure* — is this place over its high watermark, and if so, which
  unpinned resident entries should go (policy decision) and should each
  victim be spilled or dropped;
* *attribution* — every eviction/spill/rehydration increments the
  governor's engine-lifetime metrics, the currently attached per-job
  metrics (so ``EngineResult.metrics`` reports what the job caused), and
  an accumulator of simulated seconds the engine drains into the job
  clock.

Pinning lives here too: entries pinned by name (ref-counted, used while a
task is actively reading a cached sequence) and path prefixes pinned for a
job or job sequence (its output directories, plus anything listed under
``m3r.cache.pinned-paths``) are never offered to the policy.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.memory.budget import MemoryBudget, TenantLedger
from repro.memory.policy import (
    EvictionCandidate,
    EvictionPolicy,
    LRUPolicy,
    create_policy,
)
from repro.memory.spill import SpillManager
from repro.sim.metrics import Metrics


class MemoryGovernor:
    """Coordinates budget, eviction policy, spill and pins for one cache."""

    def __init__(
        self,
        budget: Optional[MemoryBudget] = None,
        policy: Optional[EvictionPolicy] = None,
        spill: Optional[SpillManager] = None,
        spill_enabled: bool = True,
    ):
        self.budget = budget if budget is not None else MemoryBudget.unbounded()
        #: Per-tenant residency accounting (the multi-tenant job service
        #: registers namespaces + budgets here; empty = no tenancy).
        self.tenants = TenantLedger()
        self.policy = policy if policy is not None else LRUPolicy()
        self.spill = spill
        self.spill_enabled = spill_enabled
        #: Engine-lifetime counters/time (``repro stats`` reads these).
        self.lifetime = Metrics()
        self._job_metrics: Optional[Metrics] = None
        self._pending_seconds = 0.0
        self._pinned_prefixes: Counter = Counter()
        self._bus: Optional[object] = None

    # -- spill availability -------------------------------------------------- #

    @property
    def spill_active(self) -> bool:
        return self.spill is not None and self.spill_enabled

    # -- metrics attribution ------------------------------------------------- #

    def attach_job_metrics(self, metrics: Metrics) -> None:
        """Route governance events into a job's metrics for its duration.

        Resets the pending-seconds accumulator: costs left over from
        between-jobs activity (e.g. ``warm_cache_from``) belong to no job.
        """
        self._job_metrics = metrics
        self._pending_seconds = 0.0

    def detach_job_metrics(self) -> None:
        self._job_metrics = None

    # -- lifecycle event narration ------------------------------------------- #

    def attach_bus(self, bus: object) -> None:
        """Narrate governance decisions onto a job's lifecycle event bus
        (CacheEvent/SpillEvent) for its duration.  The governor never
        *requires* a bus — between jobs it simply stays silent."""
        self._bus = bus

    def detach_bus(self) -> None:
        self._bus = None

    def emit_cache(self, action: str, name: str, place: int, nbytes: int) -> None:
        """Emit a CacheEvent on the attached bus, if any.

        Imported lazily: ``memory`` sits below ``lifecycle`` in the layer
        order and must not import it at module scope.
        """
        bus = self._bus
        if bus is None:
            return
        from repro.lifecycle.events import CacheEvent

        bus.emit(
            CacheEvent(
                job_id=bus.job_id, engine=bus.engine,
                action=action, name=name, place=place, nbytes=nbytes,
            )
        )

    def emit_spill(
        self, action: str, name: str, place: int, nbytes: int, seconds: float
    ) -> None:
        """Emit a SpillEvent on the attached bus, if any."""
        bus = self._bus
        if bus is None:
            return
        from repro.lifecycle.events import SpillEvent

        bus.emit(
            SpillEvent(
                job_id=bus.job_id, engine=bus.engine,
                action=action, name=name, place=place, nbytes=nbytes,
                seconds=seconds,
            )
        )

    def incr(self, name: str, amount: int = 1) -> None:
        """Count an event against lifetime AND the attached job metrics."""
        self.lifetime.incr(name, amount)
        job = self._job_metrics
        if job is not None:
            job.incr(name, amount)

    def incr_lifetime(self, name: str, amount: int = 1) -> None:
        """Count an event against lifetime metrics only (cache-level
        hit/miss tallies, which the engine already reports per job)."""
        self.lifetime.incr(name, amount)

    def charge_seconds(self, category: str, seconds: float) -> None:
        """Attribute simulated time for a spill/rehydrate I/O event.
        Charges replay in plan order, so the pending float sum is
        deterministic."""
        self.lifetime.time.charge(category, seconds)
        self._pending_seconds += seconds
        job = self._job_metrics
        if job is not None:
            job.time.charge(category, seconds)

    def drain_seconds(self) -> float:
        """Simulated seconds accumulated since the last drain (job clock)."""
        seconds = self._pending_seconds
        self._pending_seconds = 0.0
        return seconds

    # -- pinning -------------------------------------------------------------- #

    def pin_prefix(self, prefix: str) -> None:
        """Pin every entry at or under ``prefix`` (ref-counted)."""
        self._pinned_prefixes[prefix] += 1

    def unpin_prefix(self, prefix: str) -> None:
        self._pinned_prefixes[prefix] -= 1
        if self._pinned_prefixes[prefix] <= 0:
            del self._pinned_prefixes[prefix]

    def pinned_prefixes(self) -> List[str]:
        return sorted(self._pinned_prefixes)

    def is_pinned(self, name: str, path: str, pin_count: int) -> bool:
        """Is the entry (by name/path/explicit pins) exempt from eviction?"""
        if pin_count > 0:
            return True
        prefixes = tuple(self._pinned_prefixes)
        for prefix in prefixes:
            if (
                path == prefix
                or path.startswith(prefix + "/")
                or name == prefix
            ):
                return True
        return False

    # -- eviction planning ------------------------------------------------------ #

    def needs_eviction(self, place_id: int) -> bool:
        return self.budget.over_high_watermark(place_id)

    def plan_eviction(
        self, place_id: int, candidates: Sequence[EvictionCandidate]
    ) -> List[str]:
        """Victim names for ``place_id`` (already filtered to unpinned,
        resident entries by the cache)."""
        target = self.budget.eviction_target(place_id)
        if target <= 0 or not candidates:
            return []
        return self.policy.select_victims(candidates, target)

    def plan_tenant_eviction(
        self, tenant: str, candidates: Sequence[EvictionCandidate]
    ) -> List[str]:
        """Victim names to bring ``tenant`` back under its low watermark
        (candidates already filtered to that tenant's unpinned, resident
        entries by the cache).  Reuses the active replacement policy, so a
        tenant under pressure sheds its own coldest entries first."""
        target = self.tenants.eviction_target(tenant)
        if target <= 0 or not candidates:
            return []
        return self.policy.select_victims(candidates, target)

    # -- reconfiguration --------------------------------------------------------- #

    def reconfigure(
        self,
        capacity_bytes: Optional[int] = None,
        high_watermark: Optional[float] = None,
        low_watermark: Optional[float] = None,
        policy_name: Optional[str] = None,
        spill_enabled: Optional[bool] = None,
        resident_entries: Iterable[Tuple[str, int]] = (),
    ) -> None:
        """Apply JobConf overrides (``m3r.cache.*``) before a job runs.

        Switching policies rebuilds the new policy's state by replaying
        ``resident_entries`` (name, nbytes) in the cache's insertion order,
        so the swap behaves like the new policy had been active all along
        minus the access history.
        """
        self.budget.reconfigure(
            capacity_bytes=capacity_bytes,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
        )
        if spill_enabled is not None:
            self.spill_enabled = bool(spill_enabled)
        if policy_name is not None and policy_name != self.policy.name:
            policy = create_policy(policy_name)
            for name, nbytes in resident_entries:
                policy.on_admit(name, nbytes)
            self.policy = policy
