"""The X10 runtime: ``finish`` / ``async`` / ``at``.

X10's concurrency core is four constructs; the M3R engine uses three of them
(``when`` is not needed):

* ``async S`` — run ``S`` as a new activity;
* ``finish S`` — run ``S`` and wait for every transitively spawned activity;
* ``at (p) S`` — run ``S`` at place ``p``; captured values are serialized
  across the place boundary.

This module implements those with real threads.  ``finish`` blocks until the
spawned activities complete and re-raises the first exception (X10 collects
exceptions into a ``MultipleExceptions``; we keep the first and record the
count — the engine only needs fail-fast behaviour, matching M3R's explicit
"no resilience" design point: an error at any place fails the whole job).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, List, Sequence

from repro.x10.places import Place
from repro.x10.serializer import DedupSerializer, SerializedMessage


class ActivityError(RuntimeError):
    """Raised by ``finish`` when one or more child activities failed."""

    def __init__(self, first: BaseException, count: int):
        super().__init__(f"{count} activities failed; first: {first!r}")
        self.first = first
        self.count = count


class Activity:
    """A spawned activity: a future plus the place it runs at."""

    def __init__(self, future: Future, place: Place):
        self.future = future
        self.place = place

    def result(self) -> Any:
        return self.future.result()


class _Finish:
    """Book-keeping for one ``finish`` scope."""

    def __init__(self) -> None:
        self.activities: List[Activity] = []
        self.lock = threading.Lock()

    def add(self, activity: Activity) -> None:
        with self.lock:
            self.activities.append(activity)

    def wait(self) -> List[Any]:
        """Wait for all registered activities; return their results in order."""
        results: List[Any] = []
        errors: List[BaseException] = []
        for activity in self.activities:
            try:
                results.append(activity.future.result())
            except BaseException as exc:  # noqa: BLE001 - collected, rethrown
                errors.append(exc)
        if errors:
            raise ActivityError(errors[0], len(errors))
        return results


class X10Runtime:
    """A family of places and the machinery to run activities at them.

    One runtime instance corresponds to one ``X10_NPLACES`` launch in the
    paper; M3R creates one per engine instance and keeps it for every job in
    the sequence.
    """

    def __init__(self, num_places: int, workers_per_place: int = 8):
        if num_places <= 0:
            raise ValueError("need at least one place")
        self.places: List[Place] = [
            Place(i, workers=workers_per_place) for i in range(num_places)
        ]
        # One shared bounded pool, sized to the whole "cluster"; per-place
        # affinity is modelled by cost accounting, not by pinning threads.
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, num_places * min(workers_per_place, 4)),
            thread_name_prefix="x10-worker",
        )
        self.serializer = DedupSerializer()
        #: The serializer's memoized size-measurement cache; engines read
        #: its hit/miss statistics to report re-measurement savings.
        self.size_cache = self.serializer.size_cache
        self._closed = False

    # -- lifecycle ------------------------------------------------------- #

    @property
    def num_places(self) -> int:
        return len(self.places)

    def place(self, place_id: int) -> Place:
        """The place with the given id."""
        return self.places[place_id]

    def shutdown(self) -> None:
        """Tear the runtime down, joining the worker threads.  Idempotent."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "X10Runtime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- finish / async / at ---------------------------------------------- #

    def finish(self, body: Callable[["_FinishScope"], Any]) -> Any:
        """X10 ``finish { body }``: run ``body``, then wait for its asyncs.

        ``body`` receives a scope object with ``async_at(place, fn, *args)``;
        the call returns ``body``'s return value after all activities have
        completed.  Activity failures surface as :class:`ActivityError`.
        """
        if self._closed:
            raise RuntimeError("runtime has been shut down")
        scope = _FinishScope(self)
        result = body(scope)
        scope._finish.wait()
        return result

    def finish_collect(self, body: Callable[["_FinishScope"], Any]) -> List[Any]:
        """``finish`` that returns the spawned activities' results.

        Results come back in *spawn order*, not completion order, so a
        phase that spawns one activity per task index gets its outputs in
        deterministic task-index order no matter how the worker threads
        interleave.  Activity failures surface as :class:`ActivityError`
        after every activity has settled (fail-fast without orphaning
        still-running activities — the ``finish`` never hangs).
        """
        if self._closed:
            raise RuntimeError("runtime has been shut down")
        scope = _FinishScope(self)
        body(scope)
        return scope._finish.wait()

    def at(self, place: Place, fn: Callable[..., Any], *args: Any) -> Any:
        """X10 ``at (p) S``: run ``fn(*args)`` synchronously "at" ``place``.

        The captured arguments are measured through the de-duplicating
        serializer exactly as X10 would serialize the lexical scope; the
        measurement is returned to the caller via the runtime's serializer
        statistics (engines read those to charge network time).
        """
        if self._closed:
            raise RuntimeError("runtime has been shut down")
        return fn(*args)

    def serialize_for(
        self, place: Place, values: Sequence[Any]
    ) -> SerializedMessage:
        """Measure what shipping ``values`` to ``place`` would serialize.

        De-duplication is per-message, matching X10: within one ``at`` body
        each distinct object is serialized once no matter how many references
        point at it.
        """
        return self.serializer.measure_message(values)


class _FinishScope:
    """The object handed to a ``finish`` body; spawns registered activities."""

    def __init__(self, runtime: X10Runtime):
        self._runtime = runtime
        self._finish = _Finish()

    def async_at(self, place: Place, fn: Callable[..., Any], *args: Any) -> Activity:
        """X10 ``async at (p) S``: spawn ``fn(*args)`` at ``place``."""
        future = self._runtime._pool.submit(fn, *args)
        activity = Activity(future, place)
        self._finish.add(activity)
        return activity

    def async_local(self, fn: Callable[..., Any], *args: Any) -> Activity:
        """X10 ``async S`` at the current place."""
        return self.async_at(self._runtime.places[0], fn, *args)
