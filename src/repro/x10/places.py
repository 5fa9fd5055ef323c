"""Places: the unit of distribution in X10 (and therefore in M3R).

A place is an OS process with its own heap and worker threads.  M3R starts a
fixed family of places (one JVM per host in the paper) and keeps them alive
for the whole job sequence — that is what lets it share heap state between
jobs.

In this reproduction all places live inside one Python process and their
tasks run inline on the driver; each place still keeps a *private heap*
(:attr:`Place.heap`), and data that moves between places goes through the
de-duplicating serializer so the crossing is measured and charged.
:attr:`Place.workers` is the width of the place's lane in the simulated
clock, not a thread count in this process.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional


class Place:
    """One X10 place: an id, a private heap, and a lock guarding that heap."""

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
        #: The place-local heap: named roots to arbitrary objects.  Shared
        #: between jobs — this is where M3R's cache partitions live.
        self.heap: Dict[str, Any] = {}
        #: Guards mutations of :attr:`heap`: engines are shared by the
        #: service's worker thread and its tenant clients.
        self.heap_lock = threading.RLock()

    def get_root(self, name: str, factory: Callable[[], Any]) -> Any:
        """Return the heap root ``name``, creating it with ``factory`` if absent.

        Creation is atomic with respect to other threads sharing the engine.
        """
        with self.heap_lock:
            if name not in self.heap:
                self.heap[name] = factory()
            return self.heap[name]

    def drop_root(self, name: str) -> None:
        """Remove a heap root if present (used when an M3R instance shuts down)."""
        with self.heap_lock:
            self.heap.pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Place(id={self.place_id}, node={self.node_id}, workers={self.workers})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Place) and other.place_id == self.place_id

    def __hash__(self) -> int:
        return hash(("Place", self.place_id))


class PlaceLocalHandle:
    """X10's ``PlaceLocalHandle``: one logical name resolving to a distinct
    value at every place.

    M3R uses this pattern for the cache and the key/value store: the handle
    is created once, and ``handle.at(place)`` yields that place's private
    instance.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, places: "list[Place]", initializer: Callable[[Place], Any]):
        with PlaceLocalHandle._counter_lock:
            PlaceLocalHandle._counter += 1
            self._name = f"__plh_{PlaceLocalHandle._counter}"
        self._places = list(places)
        for place in self._places:
            value = initializer(place)
            with place.heap_lock:
                place.heap[self._name] = value

    def at(self, place: Place) -> Any:
        """The value this handle resolves to at ``place``."""
        try:
            return place.heap[self._name]
        except KeyError:
            raise KeyError(
                f"place {place.place_id} is not part of this handle's place group"
            ) from None

    def free(self) -> None:
        """Drop the per-place values (X10's ``PlaceLocalHandle.destroy``)."""
        for place in self._places:
            place.drop_root(self._name)
