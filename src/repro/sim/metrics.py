"""Metrics: what an engine did, and where simulated time went.

Every engine run produces a :class:`Metrics` object with two views:

* **event counters** — bytes read from disk, records shuffled remotely,
  objects cloned, JVMs started, ... (raw counts, cost-model independent);
* **time breakdown** — simulated seconds attributed to named categories
  (``disk_read``, ``network``, ``serialize``, ``jvm_startup``, ...).

Benchmarks and the ablation studies read these to attribute speedups to
specific mechanisms, which is how we reproduce the paper's Section 6
analysis ("we assume this is due to overheads inherent in Hadoop's task
polling model, disk-based out-of-core shuffling, and JVM startup costs").
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple


#: The canonical time categories engines charge against.
TIME_CATEGORIES: Tuple[str, ...] = (
    "jvm_startup",
    "scheduling",
    "job_submit",
    "disk_read",
    "disk_write",
    "network",
    "serialize",
    "deserialize",
    "clone",
    "alloc",
    "sort",
    "merge",
    "map_compute",
    "reduce_compute",
    "framework",
    "barrier",
    "namenode",
    "spill_write",
    "spill_read",
)


#: Prefix of the per-place shuffle-skew counters (see
#: :func:`shuffle_place_key`): ``shuffle_place_bytes[p]`` counts the bytes
#: that arrived at place ``p``'s reducers during shuffles (wire bytes for
#: cross-place messages, buffer bytes for co-located hand-offs).
SHUFFLE_PLACE_PREFIX = "shuffle_place_bytes["


def shuffle_place_key(place: int) -> str:
    """The metrics counter name for shuffle bytes arriving at ``place``."""
    return f"{SHUFFLE_PLACE_PREFIX}{place}]"


def shuffle_place_bytes(metrics: "Metrics") -> Dict[int, int]:
    """Extract the per-place shuffle byte counters as ``{place: bytes}``."""
    result: Dict[int, int] = {}
    for name, value in metrics.as_dict()["counters"].items():
        if name.startswith(SHUFFLE_PLACE_PREFIX) and name.endswith("]"):
            place = name[len(SHUFFLE_PLACE_PREFIX):-1]
            if place.isdigit():
                result[int(place)] = value
    return result


def shuffle_skew(metrics: "Metrics") -> Dict[str, float]:
    """Shuffle skew summary: how unevenly shuffle bytes landed on places.

    Returns ``max_bytes``, ``mean_bytes`` and ``skew_ratio`` (max/mean; 1.0
    is perfectly balanced, and also the value reported when nothing was
    shuffled so callers need no special-casing).
    """
    per_place = shuffle_place_bytes(metrics)
    if not per_place:
        return {"max_bytes": 0.0, "mean_bytes": 0.0, "skew_ratio": 1.0}
    values = list(per_place.values())
    mean = sum(values) / len(values)
    peak = float(max(values))
    ratio = peak / mean if mean > 0 else 1.0
    return {"max_bytes": peak, "mean_bytes": mean, "skew_ratio": ratio}


class TimeBreakdown:
    """Simulated seconds attributed to named categories.

    Charges are *order-independent*: each category keeps its addends
    and reduces with :func:`math.fsum`, whose result is the correctly-rounded
    exact sum — the same float for every arrival order, so merged snapshots
    compare byte for byte however they were assembled.
    """

    def __init__(self) -> None:
        self._parts: Dict[str, List[float]] = defaultdict(list)

    def charge(self, category: str, seconds: float) -> None:
        """Attribute ``seconds`` to ``category``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._parts[category].append(seconds)

    def get(self, category: str) -> float:
        """Seconds attributed so far to ``category`` (0.0 when never charged)."""
        parts = self._parts.get(category)
        return math.fsum(parts) if parts else 0.0

    def total(self) -> float:
        """Sum over all categories.

        Note this is *work* time, not wall-clock: parallel lanes overlap, so
        engines report wall-clock separately and this total can exceed it.
        """
        return math.fsum(
            seconds
            for parts in self._parts.values()
            for seconds in parts
        )

    def merge(self, other: "TimeBreakdown") -> None:
        """Fold another breakdown into this one."""
        snapshot = [(k, list(v)) for k, v in other._parts.items()]
        for category, parts in snapshot:
            self._parts[category].extend(parts)

    def as_dict(self) -> Dict[str, float]:
        """A plain dict snapshot (categories with zero time omitted)."""
        return {k: math.fsum(v) for k, v in self._parts.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{k}={math.fsum(v):.3f}" for k, v in sorted(self._parts.items())
        )
        return f"TimeBreakdown({parts})"


class Metrics:
    """Event counters plus a :class:`TimeBreakdown`."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = defaultdict(int)
        self.time = TimeBreakdown()

    # -- counters --------------------------------------------------------- #

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def get(self, name: str) -> int:
        """Counter value (0 when never incremented)."""
        return self.counters.get(name, 0)

    def merge(self, other: "Metrics") -> None:
        """Fold another metrics object into this one."""
        snapshot = list(other.counters.items())
        for name, value in snapshot:
            self.counters[name] += value
        self.time.merge(other.time)

    def as_dict(self) -> Dict[str, object]:
        """A plain snapshot suitable for printing or JSON."""
        counters = dict(self.counters)
        return {"counters": counters, "time": self.time.as_dict()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Metrics(counters={dict(self.counters)!r}, time={self.time!r})"
