"""Places: the unit of distribution in X10 (and therefore in M3R).

A place is an OS process with its own heap and worker threads.  M3R starts a
fixed family of places (one JVM per host in the paper) and keeps them alive
for the whole job sequence — that is what lets it share heap state between
jobs.

In this reproduction all places live inside one Python process and their
tasks run inline, so a :class:`Place` is what the engine
needs to name one: an id, the cluster node it runs on, and the width of
its lane in the simulated clock (:attr:`Place.workers`, not a thread count
in this process).  What a place holds across jobs — the cache, the
key/value store — is owned by those subsystems and keyed by place id; data
that moves between places goes through the de-duplicating serializer so
the crossing is measured and charged.
"""

from __future__ import annotations

from typing import Optional


class Place:
    """One X10 place: an id, a node and a lane width."""

    def __init__(self, place_id: int, node_id: Optional[int] = None, workers: int = 8):
        if place_id < 0:
            raise ValueError("place ids are non-negative")
        if workers <= 0:
            raise ValueError("a place needs at least one worker thread")
        self.place_id = place_id
        #: The cluster node this place runs on (defaults to ``place_id``,
        #: matching M3R's one-place-per-host deployment).
        self.node_id = place_id if node_id is None else node_id
        #: Worker threads the modelled place has (the paper used 8 to match
        #: 8 cores): simulated concurrency only — see ``SlotLanes``.
        self.workers = workers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Place(id={self.place_id}, node={self.node_id}, workers={self.workers})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Place) and other.place_id == self.place_id

    def __hash__(self) -> int:
        return hash(("Place", self.place_id))
