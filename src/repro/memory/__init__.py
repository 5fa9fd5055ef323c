"""Memory governance for the M3R cache (ledgers, pins, spill).

The paper assumes the working set fits in cluster memory (Sections 3.2.1
and 7); this subsystem governs what happens when it does not:

* :class:`~repro.memory.budget.WatermarkLedger` — byte accounting with
  high/low watermark hysteresis, keyed by owner; the governor keeps one
  per place and one per tenant;
* :class:`~repro.memory.spill.SpillManager` — demotes evicted entries to
  the simulated filesystem in X10-serialized form and rehydrates them on
  the next hit, charged through the sim cost model.

:class:`~repro.memory.governor.MemoryGovernor` ties them to pins and
metrics and is what :class:`~repro.core.cache.KeyValueCache` talks to.
The replacement rule itself is the cache's: least recently used, by a
stamp on each entry (DESIGN.md §8).
"""

from repro.memory.budget import WatermarkLedger
from repro.memory.governor import MemoryGovernor
from repro.memory.spill import SPILL_ROOT, SpillManager, SpillRecord

__all__ = [
    "WatermarkLedger",
    "MemoryGovernor",
    "SpillManager",
    "SpillRecord",
    "SPILL_ROOT",
]
