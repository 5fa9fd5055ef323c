"""Pluggable eviction policies for the M3R cache.

ReStore (Elghandour & Aboulnaga, PVLDB 2012) showed that *which* cached
MapReduce artifacts survive memory pressure dominates reuse performance.
The policy layer keeps that decision replaceable: the cache reports
admissions/accesses/removals, and when the budget's high watermark is
crossed the governor asks the active policy to rank victims.

All policy callbacks run inside the cache's own calls, on the engine's
thread, so implementations need no locking; they must be deterministic
functions of the event sequence (ties broken by name) so that two runs
with the same access order evict the same entries.

Pinning is *not* a policy concern: the governor filters pinned entries out
of the candidate list before the policy ever sees them, which is what makes
every policy "pin-aware" by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Type


@dataclass(frozen=True)
class EvictionCandidate:
    """One evictable (resident, unpinned) entry, as the policy sees it."""

    name: str
    place_id: int
    nbytes: int


class EvictionPolicy:
    """The replacement-strategy interface.

    Subclasses keep whatever per-entry state they need, keyed by cache name.
    ``select_victims`` returns names in eviction order, covering at least
    ``bytes_to_free`` (or every candidate when the target is unreachable).
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def on_admit(self, name: str, nbytes: int) -> None:
        raise NotImplementedError

    def on_access(self, name: str, nbytes: int) -> None:
        raise NotImplementedError

    def on_remove(self, name: str) -> None:
        raise NotImplementedError

    def on_rename(self, old_name: str, new_name: str) -> None:
        raise NotImplementedError

    def select_victims(
        self, candidates: Sequence[EvictionCandidate], bytes_to_free: int
    ) -> List[str]:
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Least-recently-used: evict the entry whose last touch is oldest."""

    name = "lru"

    def __init__(self) -> None:
        self._tick = 0
        self._last_touch: Dict[str, int] = {}

    def _touch(self, name: str) -> None:
        self._tick += 1
        self._last_touch[name] = self._tick

    def on_admit(self, name: str, nbytes: int) -> None:
        self._touch(name)

    def on_access(self, name: str, nbytes: int) -> None:
        self._touch(name)

    def on_remove(self, name: str) -> None:
        self._last_touch.pop(name, None)

    def on_rename(self, old_name: str, new_name: str) -> None:
        if old_name in self._last_touch:
            self._last_touch[new_name] = self._last_touch.pop(old_name)

    def select_victims(
        self, candidates: Sequence[EvictionCandidate], bytes_to_free: int
    ) -> List[str]:
        ordered = sorted(
            candidates,
            key=lambda c: (self._last_touch.get(c.name, 0), c.name),
        )
        return _take_until(ordered, bytes_to_free)


class FIFOPolicy(LRUPolicy):
    """First-in-first-out: admission order, accesses do not refresh."""

    name = "fifo"

    def on_access(self, name: str, nbytes: int) -> None:
        pass  # recency is fixed at admission


class GreedyDualSizePolicy(EvictionPolicy):
    """Size-aware GreedyDual (Cao & Irani): cost/benefit replacement.

    Each entry carries a priority ``H = L + cost / size`` where ``cost`` is
    the miss penalty (uniform here: one refetch) and ``L`` is the global
    inflation value, raised to each victim's priority on eviction.  Large,
    cold entries are evicted first; small or recently re-prioritized entries
    survive — the H-SVM-LRU observation that byte-for-byte, many small hot
    artifacts beat one big cold one.
    """

    name = "gds"

    #: Uniform miss penalty; the ratio to size is what drives the ordering.
    MISS_COST = 1.0

    def __init__(self) -> None:
        self._inflation = 0.0
        self._priority: Dict[str, float] = {}

    def _reprioritize(self, name: str, nbytes: int) -> None:
        self._priority[name] = self._inflation + self.MISS_COST / max(1, nbytes)

    def on_admit(self, name: str, nbytes: int) -> None:
        self._reprioritize(name, nbytes)

    def on_access(self, name: str, nbytes: int) -> None:
        self._reprioritize(name, nbytes)

    def on_remove(self, name: str) -> None:
        self._priority.pop(name, None)

    def on_rename(self, old_name: str, new_name: str) -> None:
        if old_name in self._priority:
            self._priority[new_name] = self._priority.pop(old_name)

    def select_victims(
        self, candidates: Sequence[EvictionCandidate], bytes_to_free: int
    ) -> List[str]:
        ordered = sorted(
            candidates,
            key=lambda c: (self._priority.get(c.name, 0.0), c.name),
        )
        victims = _take_until(ordered, bytes_to_free)
        if victims:
            # GreedyDual aging: future admissions outrank only entries
            # accessed since the last eviction wave.
            last = victims[-1]
            self._inflation = max(
                self._inflation, self._priority.get(last, self._inflation)
            )
        return victims


def _take_until(
    ordered: Sequence[EvictionCandidate], bytes_to_free: int
) -> List[str]:
    """Prefix of ``ordered`` whose sizes sum to at least ``bytes_to_free``."""
    victims: List[str] = []
    freed = 0
    for candidate in ordered:
        if freed >= bytes_to_free:
            break
        victims.append(candidate.name)
        freed += candidate.nbytes
    return victims


#: Registry of built-in policies, keyed by their JobConf names.
POLICIES: Dict[str, Type[EvictionPolicy]] = {
    LRUPolicy.name: LRUPolicy,
    FIFOPolicy.name: FIFOPolicy,
    GreedyDualSizePolicy.name: GreedyDualSizePolicy,
    "greedydual": GreedyDualSizePolicy,
}


def create_policy(name: str) -> EvictionPolicy:
    """Instantiate a registered policy by name (``lru``/``fifo``/``gds``)."""
    try:
        return POLICIES[name.strip().lower()]()
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; known: {sorted(set(POLICIES))}"
        ) from None
