"""Per-place memory budgets for the M3R cache.

M3R's headline assumption is that the working set fits in cluster memory
(paper Sections 3.2.1 and 7).  The budget is the accounting half of lifting
that assumption: every byte the cache admits at a place is charged here, and
when a place's occupancy crosses the **high watermark** the governor evicts
down to the **low watermark** (hysteresis keeps eviction from running on
every insert at the boundary).

Capacity is *per place* — the paper's places are one JVM per host, so the
budget models each host's heap, not the cluster aggregate.  A capacity of
``0`` means unbounded, which is exactly the pre-governance behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class MemoryBudget:
    """Per-place byte accounting with watermark hysteresis.

    ``capacity_bytes`` is the per-place ceiling (0 = unbounded).  Eviction
    starts when occupancy exceeds ``high_watermark * capacity`` and stops at
    ``low_watermark * capacity``.  Occupancy may legitimately exceed the
    ceiling when every resident entry is pinned; the per-place high-water
    mark records how far it went.
    """

    def __init__(
        self,
        capacity_bytes: int = 0,
        high_watermark: float = 0.9,
        low_watermark: float = 0.75,
    ):
        self._occupancy: Dict[int, int] = {}
        self._high_water: Dict[int, int] = {}
        self._validate(capacity_bytes, high_watermark, low_watermark)
        self.capacity_bytes = int(capacity_bytes)
        self.high_watermark = float(high_watermark)
        self.low_watermark = float(low_watermark)

    @staticmethod
    def _validate(capacity: int, high: float, low: float) -> None:
        if capacity < 0:
            raise ValueError(f"capacity cannot be negative: {capacity}")
        if not 0.0 < low <= high <= 1.0:
            raise ValueError(
                f"watermarks must satisfy 0 < low <= high <= 1, "
                f"got low={low} high={high}"
            )

    @classmethod
    def unbounded(cls) -> "MemoryBudget":
        return cls(0)

    @property
    def is_unbounded(self) -> bool:
        return self.capacity_bytes <= 0

    # -- accounting -------------------------------------------------------- #

    def charge(self, place_id: int, nbytes: int) -> None:
        """Charge ``nbytes`` of cache residency at ``place_id``."""
        if nbytes < 0:
            raise ValueError(f"cannot charge negative bytes: {nbytes}")
        occupancy = self._occupancy.get(place_id, 0) + nbytes
        self._occupancy[place_id] = occupancy
        if occupancy > self._high_water.get(place_id, 0):
            self._high_water[place_id] = occupancy

    def release(self, place_id: int, nbytes: int) -> None:
        """Release ``nbytes`` (eviction, spill demotion, explicit delete)."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes: {nbytes}")
        self._occupancy[place_id] = max(
            0, self._occupancy.get(place_id, 0) - nbytes
        )

    def occupancy(self, place_id: int) -> int:
        return self._occupancy.get(place_id, 0)

    def high_water(self, place_id: int) -> int:
        """The highest occupancy ever observed at ``place_id``."""
        return self._high_water.get(place_id, 0)

    def total_occupancy(self) -> int:
        return sum(self._occupancy.values())

    # -- watermark queries -------------------------------------------------- #

    def over_high_watermark(self, place_id: int) -> bool:
        """Should eviction start at ``place_id``?"""
        if self.is_unbounded:
            return False
        return self.occupancy(place_id) > self.high_watermark * self.capacity_bytes

    def eviction_target(self, place_id: int) -> int:
        """Bytes to free at ``place_id`` to reach the low watermark."""
        if self.is_unbounded:
            return 0
        floor = int(self.low_watermark * self.capacity_bytes)
        return max(0, self.occupancy(place_id) - floor)

    # -- reconfiguration ---------------------------------------------------- #

    def reconfigure(
        self,
        capacity_bytes: Optional[int] = None,
        high_watermark: Optional[float] = None,
        low_watermark: Optional[float] = None,
    ) -> None:
        """Change limits in place (occupancy and high-water marks persist)."""
        capacity = self.capacity_bytes if capacity_bytes is None else capacity_bytes
        high = self.high_watermark if high_watermark is None else high_watermark
        low = self.low_watermark if low_watermark is None else low_watermark
        self._validate(capacity, high, low)
        self.capacity_bytes = int(capacity)
        self.high_watermark = float(high)
        self.low_watermark = float(low)

    def snapshot(self) -> Dict[int, Dict[str, int]]:
        """Per-place ``{occupancy, high_water, capacity}``."""
        places = set(self._occupancy) | set(self._high_water)
        return {
            place: {
                "occupancy_bytes": self._occupancy.get(place, 0),
                "high_water_bytes": self._high_water.get(place, 0),
                "capacity_bytes": self.capacity_bytes,
            }
            for place in sorted(places)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "unbounded" if self.is_unbounded else f"{self.capacity_bytes}B"
        return (
            f"MemoryBudget({cap}, high={self.high_watermark}, "
            f"low={self.low_watermark}, occupied={self.total_occupancy()}B)"
        )


class TenantLedger:
    """Per-tenant cache-residency accounting, keyed by path namespace.

    Where :class:`MemoryBudget` models each host's heap, the ledger models
    *who is using it*: a tenant is a named set of path prefixes with an
    engine-wide byte budget.  Every resident cache byte whose path falls
    under a registered prefix is charged to that tenant (longest prefix
    wins), and crossing the high watermark makes the governor evict that
    tenant's own unpinned entries down to the low watermark — one tenant's
    pressure never selects another tenant's entries, and pinned entries are
    always exempt (occupancy may exceed the budget when everything left is
    pinned, exactly like the place budget).  A budget of ``0`` means the
    tenant is tracked but unbounded.
    """

    def __init__(self, high_watermark: float = 0.9, low_watermark: float = 0.75):
        self.high_watermark = float(high_watermark)
        self.low_watermark = float(low_watermark)
        self._prefixes: Dict[str, tuple] = {}
        self._capacity: Dict[str, int] = {}
        self._occupancy: Dict[str, int] = {}
        self._high_water: Dict[str, int] = {}

    def register(self, name: str, prefixes, capacity_bytes: int = 0) -> None:
        """Register (or re-register) ``name`` over ``prefixes``.

        Occupancy restarts at zero — callers register tenants before any
        of their data is admitted (the job service registers at tenant
        creation, ahead of the first submission).
        """
        if capacity_bytes < 0:
            raise ValueError(f"capacity cannot be negative: {capacity_bytes}")
        cleaned = tuple(sorted({p.rstrip("/") or "/" for p in prefixes}))
        if not cleaned:
            raise ValueError(f"tenant {name!r} needs at least one path prefix")
        self._prefixes[name] = cleaned
        self._capacity[name] = int(capacity_bytes)
        self._occupancy.setdefault(name, 0)
        self._high_water.setdefault(name, 0)

    def unregister(self, name: str) -> None:
        for table in (self._prefixes, self._capacity,
                      self._occupancy, self._high_water):
            table.pop(name, None)

    def names(self) -> List[str]:
        return sorted(self._prefixes)

    def tenant_of(self, path: str) -> Optional[str]:
        """The tenant owning ``path`` (longest registered prefix wins)."""
        best: Optional[str] = None
        best_len = -1
        for name, prefixes in self._prefixes.items():
            for prefix in prefixes:
                if path == prefix or path.startswith(prefix + "/"):
                    if len(prefix) > best_len:
                        best, best_len = name, len(prefix)
        return best

    # -- accounting -------------------------------------------------------- #

    def charge(self, path: str, nbytes: int) -> None:
        name = self.tenant_of(path)
        if name is None:
            return
        occupancy = self._occupancy.get(name, 0) + nbytes
        self._occupancy[name] = occupancy
        if occupancy > self._high_water.get(name, 0):
            self._high_water[name] = occupancy

    def release(self, path: str, nbytes: int) -> None:
        name = self.tenant_of(path)
        if name is None:
            return
        self._occupancy[name] = max(0, self._occupancy.get(name, 0) - nbytes)

    def occupancy(self, name: str) -> int:
        return self._occupancy.get(name, 0)

    def high_water(self, name: str) -> int:
        return self._high_water.get(name, 0)

    def capacity(self, name: str) -> int:
        return self._capacity.get(name, 0)

    # -- watermark queries -------------------------------------------------- #

    def over_high_watermark(self) -> List[str]:
        """Tenants whose residency crossed their high watermark (sorted —
        tenant-budget eviction must run in a deterministic order)."""
        return sorted(
            name
            for name, capacity in self._capacity.items()
            if capacity > 0
            and self._occupancy.get(name, 0) > self.high_watermark * capacity
        )

    def eviction_target(self, name: str) -> int:
        """Bytes tenant ``name`` must free to reach its low watermark."""
        capacity = self._capacity.get(name, 0)
        if capacity <= 0:
            return 0
        floor = int(self.low_watermark * capacity)
        return max(0, self._occupancy.get(name, 0) - floor)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant ``{prefixes, occupancy, high_water, capacity}``."""
        return {
            name: {
                "prefixes": list(self._prefixes[name]),
                "occupancy_bytes": self._occupancy.get(name, 0),
                "high_water_bytes": self._high_water.get(name, 0),
                "capacity_bytes": self._capacity.get(name, 0),
            }
            for name in sorted(self._prefixes)
        }
