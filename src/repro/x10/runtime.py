"""The X10 runtime: a family of places and their de-duplicating serializer.

X10's concurrency core is ``async`` / ``finish`` / ``at``.  This
reproduction models a place's concurrent worker threads where the paper's
claim about them lives — in *simulated* time, through
``SlotLanes(workers_per_place)`` — and runs every task and shuffle message
inline on the driver, in plan order (DESIGN.md §7).  What the engine needs
from the runtime is therefore only what outlives a job: the places (an
id, a node and a lane width each) and the serializer that measures and
clones what crosses between them.
"""

from __future__ import annotations

from typing import List

from repro.x10.places import Place
from repro.x10.serializer import DedupSerializer


class X10Runtime:
    """A family of places plus the serializer that measures what crosses
    between them.

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
        self.serializer = DedupSerializer()
