"""The memory governor: ledgers + spill + pins, in one place.

The governor holds the state of memory governance; the cache keeps the
mechanics (index/store surgery and the one eviction loop) and asks the
governor three things:

* *accounting* — charge/release an entry's bytes against its place and,
  when its path lies in a registered tenant's namespace, its tenant
  (two :class:`~repro.memory.budget.WatermarkLedger` instances);
* *pressure* — is an owner over its high watermark, how many bytes must
  it free, is an entry pinned, and should a victim be spilled or dropped;
* *attribution* — every eviction/spill/rehydration increments the
  governor's engine-lifetime metrics, the currently attached per-job
  metrics (so ``EngineResult.metrics`` reports what the job caused), and
  an accumulator of simulated seconds the engine drains into the job
  clock.

Pinning lives here too: entries pinned by name (ref-counted, used while a
task is actively reading a cached sequence) and path prefixes pinned for a
job or job sequence (its output directories, plus anything listed under
``m3r.cache.pinned-paths``) are never eviction candidates.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.memory.budget import WatermarkLedger
from repro.memory.spill import SpillManager
from repro.sim.metrics import Metrics


class MemoryGovernor:
    """Coordinates the place and tenant ledgers, spill and pins for one
    cache."""

    def __init__(
        self,
        budget: Optional[WatermarkLedger] = None,
        spill: Optional[SpillManager] = None,
        spill_enabled: bool = True,
    ):
        #: Per-place residency (0 = unbounded, the default).
        self.budget = budget if budget is not None else WatermarkLedger()
        #: Per-tenant residency, keyed by tenant name (the multi-tenant job
        #: service registers namespaces + budgets; none = no tenancy).
        self.tenants = WatermarkLedger()
        self._tenant_prefixes: Dict[str, Tuple[str, ...]] = {}
        #: Bumped by every registration: ``tenant_of`` may answer
        #: differently for paths already admitted.
        self.registrations = 0
        self.spill = spill
        self.spill_enabled = spill_enabled
        #: Engine-lifetime counters/time (``repro stats`` reads these).
        self.lifetime = Metrics()
        self._job_metrics: Optional[Metrics] = None
        self._pending_seconds = 0.0
        self._pinned_prefixes: Counter = Counter()
        self._bus: Optional[object] = None

    # -- accounting ------------------------------------------------------------ #

    def register_tenant(
        self, name: str, prefixes: Iterable[str], capacity_bytes: int = 0
    ) -> None:
        """Charge resident bytes under ``prefixes`` to tenant ``name``, with
        an engine-wide budget of ``capacity_bytes`` (0 = tracked, never
        evicted).  Callers register a tenant before any of its data is
        admitted (the job service does so at tenant creation)."""
        cleaned = tuple(sorted({p.rstrip("/") or "/" for p in prefixes}))
        if not cleaned:
            raise ValueError(f"tenant {name!r} needs at least one path prefix")
        self.tenants.set_capacity(name, capacity_bytes)
        self._tenant_prefixes[name] = cleaned
        self.registrations += 1

    def tenant_names(self) -> List[str]:
        return sorted(self._tenant_prefixes)

    def tenant_of(self, path: str) -> Optional[str]:
        """The tenant owning ``path`` (longest registered prefix wins)."""
        best: Optional[str] = None
        best_len = -1
        for name, prefixes in self._tenant_prefixes.items():
            for prefix in prefixes:
                if path == prefix or path.startswith(prefix + "/"):
                    if len(prefix) > best_len:
                        best, best_len = name, len(prefix)
        return best

    def charge(self, place_id: int, path: str, nbytes: int) -> None:
        """Charge a resident entry's bytes to its place and its tenant."""
        self.budget.charge(place_id, nbytes)
        self.tenants.charge(self.tenant_of(path), nbytes)

    def release(self, place_id: int, path: str, nbytes: int) -> None:
        self.budget.release(place_id, nbytes)
        self.tenants.release(self.tenant_of(path), nbytes)

    def tenant_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant ``{prefixes, occupancy, high_water, capacity}``."""
        tenants = self.tenants
        return {
            name: {
                "prefixes": list(self._tenant_prefixes[name]),
                "occupancy_bytes": tenants.occupancy(name),
                "high_water_bytes": tenants.high_water(name),
                "capacity_bytes": tenants.capacity(name),
            }
            for name in self.tenant_names()
        }

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

    # -- reconfiguration --------------------------------------------------------- #

    def reconfigure(
        self,
        capacity_bytes: Optional[int] = None,
        high_watermark: Optional[float] = None,
        low_watermark: Optional[float] = None,
        spill_enabled: Optional[bool] = None,
    ) -> None:
        """Apply JobConf overrides (``m3r.cache.*``) before a job runs.
        They stay in force for every later job on the engine."""
        self.budget.reconfigure(
            capacity_bytes=capacity_bytes,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
        )
        if spill_enabled is not None:
            self.spill_enabled = bool(spill_enabled)
