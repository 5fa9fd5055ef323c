"""Cache byte accounting with watermark hysteresis, keyed by owner.

M3R's headline assumption is that the working set fits in cluster memory
(paper Sections 3.2.1 and 7).  The ledger is the accounting half of lifting
that assumption: every byte the cache holds is charged to its owner, and
when an owner's occupancy crosses the **high watermark** the cache evicts
that owner's entries down to the **low watermark** (hysteresis keeps
eviction from running on every insert at the boundary).

The governor keeps two ledgers of this one class.  The *place* ledger is
keyed by place id and gives every place the same ``capacity_bytes`` — the
paper's places are one JVM per host, so it models each host's heap, not the
cluster aggregate.  The *tenant* ledger is keyed by tenant name and gives
each registered tenant its own capacity.  A capacity of ``0`` means
unbounded (tracked, never evicted), which is the pre-governance behaviour.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional


class WatermarkLedger:
    """Per-owner byte accounting with watermark hysteresis.

    ``capacity_bytes`` is the ceiling of every owner without one of its own
    (:meth:`set_capacity`).  Eviction starts when an owner's occupancy
    exceeds ``high_watermark * capacity`` and stops at ``low_watermark *
    capacity``.  Occupancy may legitimately exceed the ceiling when every
    resident entry is pinned; the per-owner high-water mark records how far
    it went.  Bytes charged to the ``None`` owner are not tracked.
    """

    def __init__(
        self,
        capacity_bytes: int = 0,
        high_watermark: float = 0.9,
        low_watermark: float = 0.75,
    ):
        self._capacity: Dict[Hashable, int] = {}
        self._occupancy: Dict[Hashable, int] = {}
        self._high_water: Dict[Hashable, int] = {}
        self._set_limits(capacity_bytes, high_watermark, low_watermark)

    # -- accounting -------------------------------------------------------- #

    def charge(self, owner: Optional[Hashable], nbytes: int) -> None:
        """Charge ``nbytes`` of cache residency to ``owner``."""
        if nbytes < 0:
            raise ValueError(f"cannot charge negative bytes: {nbytes}")
        if owner is None:
            return
        occupancy = self._occupancy.get(owner, 0) + nbytes
        self._occupancy[owner] = occupancy
        if occupancy > self._high_water.get(owner, 0):
            self._high_water[owner] = occupancy

    def release(self, owner: Optional[Hashable], nbytes: int) -> None:
        """Release ``nbytes`` (eviction, spill demotion, explicit delete)."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes: {nbytes}")
        if owner is None:
            return
        self._occupancy[owner] = max(0, self._occupancy.get(owner, 0) - nbytes)

    def occupancy(self, owner: Hashable) -> int:
        return self._occupancy.get(owner, 0)

    def high_water(self, owner: Hashable) -> int:
        """The highest occupancy ever observed for ``owner``."""
        return self._high_water.get(owner, 0)

    def capacity(self, owner: Hashable) -> int:
        return self._capacity.get(owner, self.capacity_bytes)

    # -- watermark queries -------------------------------------------------- #

    def over_high_watermark(self, owner: Hashable) -> bool:
        """Should eviction start for ``owner``?"""
        capacity = self.capacity(owner)
        return capacity > 0 and self.occupancy(owner) > self.high_watermark * capacity

    def eviction_target(self, owner: Hashable) -> int:
        """Bytes ``owner`` must free to reach the low watermark."""
        capacity = self.capacity(owner)
        if capacity <= 0:
            return 0
        return max(0, self.occupancy(owner) - int(self.low_watermark * capacity))

    # -- limits ------------------------------------------------------------- #

    def set_capacity(self, owner: Hashable, capacity_bytes: int) -> None:
        """Give ``owner`` its own ceiling (occupancy and high water persist)."""
        if capacity_bytes < 0:
            raise ValueError(f"capacity cannot be negative: {capacity_bytes}")
        self._capacity[owner] = int(capacity_bytes)

    def reconfigure(
        self,
        capacity_bytes: Optional[int] = None,
        high_watermark: Optional[float] = None,
        low_watermark: Optional[float] = None,
    ) -> None:
        """Change the shared limits in place (occupancy and high-water marks
        persist)."""
        capacity = self.capacity_bytes if capacity_bytes is None else capacity_bytes
        high = self.high_watermark if high_watermark is None else high_watermark
        low = self.low_watermark if low_watermark is None else low_watermark
        self._set_limits(capacity, high, low)

    def _set_limits(self, capacity: int, high: float, low: float) -> None:
        if capacity < 0:
            raise ValueError(f"capacity cannot be negative: {capacity}")
        if not 0.0 < low <= high <= 1.0:
            raise ValueError(
                f"watermarks must satisfy 0 < low <= high <= 1, "
                f"got low={low} high={high}"
            )
        self.capacity_bytes = int(capacity)
        self.high_watermark = float(high)
        self.low_watermark = float(low)
