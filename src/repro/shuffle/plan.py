"""Shuffle planning: deterministic routing of map output to reducer places.

Planning involves no measurement, no copying and no charging — it only
decides *what* moves *where*, in a fixed order (ascending map index; within
one map, destination groups in first-touched-partition order).  Everything
order-sensitive downstream — execution, charge replay, reduce-input run
order, transport copies — follows plan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple, Union

from repro.engine_common import PartitionBuffer

Pair = Tuple[Any, Any]


@dataclass
class LocalHandoff:
    """One co-located partition: mapper and reducer share a place, so the
    buffer is handed over by pointer (paper Section 3.2.2.1)."""

    src: int
    partition: int
    pairs: List[Pair]
    nbytes: int


@dataclass
class RemoteMessage:
    """One place-to-place message covering every partition that lives at
    ``dst``: the de-duplication memo (and therefore the aliasing the
    receiver reconstructs) is scoped to the whole message, exactly like one
    X10 ``at``."""

    src: int
    dst: int
    partitions: List[int]
    #: Per partition (parallel to ``partitions``): the map-output pairs.
    runs: List[List[Pair]]
    #: Per partition: the run's exact wire size, sealed at map-task close.
    run_bytes: List[int]

    @property
    def buffer_bytes(self) -> int:
        return sum(self.run_bytes)


ShuffleItem = Union[LocalHandoff, RemoteMessage]


@dataclass
class ShufflePlan:
    """An ordered list of shuffle items plus the routing facts reducers and
    the replay stage need."""

    items: List[ShuffleItem] = field(default_factory=list)
    num_partitions: int = 0


def build_plan(
    num_partitions: int,
    map_outputs: List[List[PartitionBuffer]],
    map_places: List[int],
    partition_place: Callable[[int], int],
) -> ShufflePlan:
    """Route every non-empty map-output buffer to its reducer's place."""
    plan = ShufflePlan(num_partitions=num_partitions)
    for map_index, buffers in enumerate(map_outputs):
        src = map_places[map_index]
        by_destination: Dict[int, List[int]] = {}
        for partition, buffer in enumerate(buffers):
            if not buffer.pairs:
                continue
            by_destination.setdefault(partition_place(partition), []).append(
                partition
            )
        for dst, partitions in by_destination.items():
            if src == dst:
                for partition in partitions:
                    buffer = buffers[partition]
                    plan.items.append(
                        LocalHandoff(
                            src=src,
                            partition=partition,
                            pairs=buffer.pairs,
                            nbytes=buffer.bytes,
                        )
                    )
            else:
                plan.items.append(
                    RemoteMessage(
                        src=src,
                        dst=dst,
                        partitions=list(partitions),
                        runs=[buffers[p].pairs for p in partitions],
                        run_bytes=[buffers[p].bytes for p in partitions],
                    )
                )
    return plan
