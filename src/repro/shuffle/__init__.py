"""The M3R shuffle subsystem (paper Section 3.2.2).

The shuffle is M3R's headline mechanism: in-memory routing, co-location
pointer hand-off, de-duplicated X10 serialization and partition stability.
This package factors it out of the engine into three deterministic stages:

1. **plan** (:mod:`repro.shuffle.plan`) — walk the map outputs and produce
   an ordered list of shuffle items: a
   :class:`~repro.shuffle.plan.LocalHandoff` per co-located partition and a
   :class:`~repro.shuffle.plan.RemoteMessage` per (source place →
   destination place) pair, covering every partition that lives there;
2. **execute** (:class:`~repro.shuffle.executor.ShuffleExecutor`) — the
   expensive work per item (map-side run sorting, single-pass de-duplicated
   measurement, shared-memo transport copies), item by item in plan order;
3. **replay** — simulated-time charges, counters and skew metrics are
   applied in plan order from the results; this is where places run
   concurrently, as per-place lanes of the virtual clock.

Reducers receive a :class:`~repro.shuffle.merge.ShuffleInput`: per-mapper
runs in arrival order, each pre-sorted, so the reduce side merges them
with one stable sort of their concatenation, which Timsort does run by
run.
"""

from repro.shuffle.executor import ShuffleExecutor
from repro.shuffle.merge import ShuffleInput
from repro.shuffle.plan import LocalHandoff, RemoteMessage, ShufflePlan

__all__ = [
    "LocalHandoff",
    "RemoteMessage",
    "ShuffleExecutor",
    "ShuffleInput",
    "ShufflePlan",
]
