"""Resilient and elastic M3R — the paper's future work, implemented.

Paper Section 7: "we believe it is possible to extend the M3R engine so
that it can support resilience and elasticity.  To support resilience, M3R
will need to detect node failure and recover by performing work
proportional to the work assigned to the failed node.  We believe this can
be done in a more flexible way than that supported by HMR (which
effectively checkpoints state to disk after every job).  Similarly ... to
support elasticity — the ability to cope with a reduction or an increase in
the number of places — without paying for it at the granularity of a single
job."

:class:`ResilientM3REngine` implements both:

* **Resilience** — every cached *output* (including temporary outputs,
  which exist nowhere else) is asynchronously replicated to a buddy place.
  When a node dies, the engine does not fail the job (as stock M3R must);
  it *recovers*: entries whose primary copy died are promoted from their
  buddies, entries with no surviving copy are dropped (inputs re-read from
  the filesystem on the next miss), and the partition → place mapping is
  deterministically re-pointed at the surviving places.  Recovery cost is
  proportional to the data held by the failed node — not to the whole job
  history, which is the paper's advantage over HMR's write-everything-to-
  disk approach.
* **Elasticity** — :meth:`resize` changes the number of places between
  jobs; cache entries whose home moved under the new stable mapping are
  migrated (with full serialization cost charged), and subsequent jobs see
  the new partition → place mapping.  No per-job overhead is added, which
  is exactly the granularity the paper asks for.

Partition stability survives both operations in a weakened but well-defined
form: the mapping remains deterministic *given the current set of live
places*, so job sequences keep their locality as long as membership is
unchanged, and pay one proportional migration when it does change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.api.conf import JobConf
from repro.api.mapred import Reporter
from repro.core.engine import M3REngine
from repro.engine_common import EngineResult, JobFailedError, part_index
from repro.sim.metrics import Metrics
from repro.x10.serializer import clone_pairs


@dataclass
class ReplicaRecord:
    """A buddy copy of one cached entry."""

    name: str
    path: str
    place_id: int
    pairs: List[Tuple[Any, Any]]
    nbytes: int


@dataclass
class RecoveryReport:
    """What one recovery episode did."""

    dead_places: List[int]
    promoted_entries: int = 0
    promoted_bytes: int = 0
    #: Dropped, but re-readable from the filesystem (cached inputs).
    dropped_recoverable_entries: int = 0
    dropped_recoverable_bytes: int = 0
    #: Genuinely gone: no replica and no filesystem copy.
    lost_entries: int = 0
    lost_bytes: int = 0
    simulated_seconds: float = 0.0


class ResilientM3REngine(M3REngine):
    """M3R with buddy-replicated cache state and live recovery.

    The replication factor is fixed at 2 (primary + one buddy), matching
    the proportional-work recovery bound the paper sketches; a dead place's
    data is promoted from exactly one surviving copy.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: name -> buddy copy (a deep copy: replication serializes).
        self._replicas: Dict[str, ReplicaRecord] = {}
        self._dead_places: Set[int] = set()
        self.recovery_log: List[RecoveryReport] = []
        self._pending_recovery_seconds = 0.0

    # ------------------------------------------------------------------ #
    # live-place mapping
    # ------------------------------------------------------------------ #

    def live_places(self) -> List[int]:
        """Places whose node is currently up, in id order."""
        return [
            place
            for place in range(self.num_places)
            if place not in self._dead_places
            and self.place_node(place) not in self.fail_nodes
        ]

    def partition_place(self, partition: int) -> int:
        """Stable mapping over the *live* membership.

        Deterministic given the current live set: the base mapping is
        computed as in stock M3R and then folded onto the live places, so
        sequences keep full locality while membership is unchanged.
        """
        base = super().partition_place(partition)
        live = self.live_places()
        if not live:
            raise JobFailedError("every place has failed; nothing to recover onto")
        if base in live:
            return base
        return live[base % len(live)]

    def buddy_place(self, place: int) -> Optional[int]:
        """The next live place after ``place`` (replication target)."""
        live = [p for p in self.live_places() if p != place]
        if not live:
            return None
        for candidate in live:
            if candidate > place:
                return candidate
        return live[0]

    # ------------------------------------------------------------------ #
    # failure detection & recovery
    # ------------------------------------------------------------------ #

    def _check_alive(self) -> None:
        """Detect newly-dead places and recover instead of failing."""
        newly_dead = [
            place
            for place in range(self.num_places)
            if place not in self._dead_places
            and self.place_node(place) in self.fail_nodes
        ]
        if not newly_dead:
            return
        self._dead_places.update(newly_dead)
        if not self.live_places():
            raise JobFailedError("every place has failed; nothing to recover onto")
        self._recover(newly_dead)

    def _recover(self, dead_places: List[int]) -> None:
        """Promote buddy copies of everything the dead places held."""
        model = self.cost_model
        report = RecoveryReport(dead_places=list(dead_places))
        dead = set(dead_places)
        for entry in list(self.cache.entries()):
            if entry.place_id not in dead:
                continue
            replica = self._replicas.get(entry.name)
            if replica is not None and replica.place_id not in dead:
                # Promote: the buddy copy becomes the primary at its place.
                self._cache_replace(entry.name, entry.path, replica)
                report.promoted_entries += 1
                report.promoted_bytes += replica.nbytes
                # Promotion is local at the buddy; re-establishing a new
                # buddy costs one serialization + transfer.
                cost = model.handoff_time(len(replica.pairs))
                new_buddy = self.buddy_place(replica.place_id)
                if new_buddy is not None:
                    cost += (
                        model.serialize_time(replica.nbytes, len(replica.pairs))
                        + model.net_transfer_time(replica.nbytes)
                    )
                    self._store_replica(
                        entry.name, entry.path, new_buddy, replica.pairs,
                        replica.nbytes,
                    )
                report.simulated_seconds += cost
            else:
                # No surviving copy: drop it.  Persistent inputs will be
                # re-read from the filesystem on the next cache miss; data
                # that existed only in memory is genuinely lost.
                self.cache.delete_path(entry.path)
                self._replicas.pop(entry.name, None)
                if self.raw_filesystem.exists(entry.path):
                    report.dropped_recoverable_entries += 1
                    report.dropped_recoverable_bytes += entry.nbytes
                else:
                    report.lost_entries += 1
                    report.lost_bytes += entry.nbytes
        # Drop replicas that lived on dead places (their primaries survive
        # and will be re-replicated on next write; inputs re-replicate on
        # next read-through).
        for name, replica in list(self._replicas.items()):
            if replica.place_id in dead:
                del self._replicas[name]
        self.recovery_log.append(report)
        # Recovery accounting has one writer: the driver, between jobs.
        self._pending_recovery_seconds += report.simulated_seconds

    def _cache_replace(self, name: str, path: str, replica: ReplicaRecord) -> None:
        """Re-point a cache entry at the replica's place and pairs."""
        if name == path:
            self.cache.put_file(path, replica.place_id, replica.pairs, replica.nbytes)
        else:
            # Split-range or named entry: re-insert under the same name.
            self.cache._put(name, path, replica.place_id, replica.pairs,
                            replica.nbytes)

    # ------------------------------------------------------------------ #
    # replication hooks
    # ------------------------------------------------------------------ #

    def _store_replica(
        self,
        name: str,
        path: str,
        place: int,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
    ) -> None:
        # Replication serializes: the buddy holds its own object graph.
        self._replicas[name] = ReplicaRecord(
            name=name, path=path, place_id=place,
            pairs=clone_pairs(pairs), nbytes=nbytes,
        )

    def _replicate_output(
        self,
        part_path: str,
        place: int,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
        metrics: Metrics,
    ) -> float:
        """The lifecycle stage provider's replication hook: buddy-copy
        every task output as it lands in the cache."""
        duration = 0.0
        if self.enable_cache:
            buddy = self.buddy_place(place)
            if buddy is not None:
                model = self.cost_model
                cost = model.serialize_time(nbytes, len(pairs)) + (
                    model.net_transfer_time(nbytes)
                )
                metrics.time.charge("replication", cost)
                metrics.incr("replicated_bytes", nbytes)
                duration += cost
                self._store_replica(part_path, part_path, buddy, pairs, nbytes)
        return duration

    # ------------------------------------------------------------------ #
    # job execution: fold recovery time into the triggering job
    # ------------------------------------------------------------------ #

    def run_job(self, conf: JobConf) -> EngineResult:
        self._pending_recovery_seconds = 0.0
        result = super().run_job(conf)
        if self._pending_recovery_seconds and result.succeeded:
            result.simulated_seconds += self._pending_recovery_seconds
            result.metrics.time.charge(
                "recovery", self._pending_recovery_seconds
            )
            self._pending_recovery_seconds = 0.0
        return result

    # ------------------------------------------------------------------ #
    # elasticity
    # ------------------------------------------------------------------ #

    def resize(self, new_num_places: int) -> RecoveryReport:
        """Grow or shrink the place family between jobs.

        Every cache entry whose home under the new stable mapping differs
        from its current place is migrated (serialize + transfer + insert),
        and its buddy replica is refreshed.  Returns a report whose
        ``simulated_seconds`` is the one-off migration cost — no per-job
        cost is added afterwards, per the paper's elasticity goal.
        """
        if new_num_places <= 0:
            raise ValueError("need at least one place")
        old = self.num_places
        if new_num_places == old:
            return RecoveryReport(dead_places=[])
        model = self.cost_model
        report = RecoveryReport(dead_places=[])
        self.num_places = new_num_places
        # Places beyond the new count are gone; new places are fresh.
        self._dead_places = {p for p in self._dead_places if p < new_num_places}
        for entry in list(self.cache.entries()):
            partition = self._entry_partition_hint(entry)
            new_home = self.partition_place(partition)
            if entry.place_id == new_home and entry.place_id < new_num_places:
                continue
            pairs = entry.pairs
            cost = (
                model.serialize_time(entry.nbytes, len(pairs))
                + model.net_transfer_time(entry.nbytes)
                + model.deserialize_time(entry.nbytes, len(pairs))
            )
            report.simulated_seconds += cost
            report.promoted_entries += 1
            report.promoted_bytes += entry.nbytes
            moved = clone_pairs(pairs)
            self.cache._put(entry.name, entry.path, new_home, moved, entry.nbytes)
            buddy = self.buddy_place(new_home)
            if buddy is not None:
                self._store_replica(entry.name, entry.path, buddy, moved,
                                    entry.nbytes)
        self.recovery_log.append(report)
        return report

    @staticmethod
    def _entry_partition_hint(entry: Any) -> int:
        """Best-effort partition number for an entry (part-file index)."""
        partition = part_index(entry.path.rsplit("/", 1)[-1])
        return entry.place_id if partition is None else partition
