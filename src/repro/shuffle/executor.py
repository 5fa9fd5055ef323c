"""Shuffle execution: one pass of work per message, then a charge replay.

The executor runs a :class:`~repro.shuffle.plan.ShufflePlan` in two strictly
separated stages:

* :meth:`ShuffleExecutor.execute` does the *work* — map-side run sorting
  and the serializer's one-pass ``ship`` (de-duplicated measurement plus the
  shared-memo transport clone) — item by item, in plan order, inline on
  the driver.  A failing item (a comparator that raises) stops the loop at
  that item.
* :meth:`ShuffleExecutor.replay` does the *accounting* — simulated-time
  charges, counters and per-place skew metrics — in plan order, from the
  already-computed results.  Concurrency between places exists here, as
  per-place lanes of a :class:`PhaseTimer` whose barrier is the straggler
  place; the float sums are order-sensitive, which is why plan order is the
  only order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.api.counters import Counters, TaskCounter
from repro.api.job import sort_run
from repro.lifecycle.events import TaskEnd, TaskStart
from repro.shuffle.merge import ShuffleInput
from repro.shuffle.plan import (
    LocalHandoff,
    RemoteMessage,
    ShufflePlan,
    build_plan,
)
from repro.sim.clock import PhaseTimer
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Metrics, shuffle_place_key
from repro.x10.serializer import DedupSerializer, SerializedMessage

Pair = Tuple[Any, Any]
SortKey = Callable[[Pair], Any]


@dataclass
class LocalResult:
    """Executed :class:`LocalHandoff`: the sorted run."""

    sort_seconds: float
    run: List[Pair]


@dataclass
class RemoteResult:
    """Executed :class:`RemoteMessage`: measurement plus transported runs."""

    #: Per partition (parallel to the item's ``partitions``).
    sort_seconds: List[float]
    message: SerializedMessage
    #: Per partition: the cloned pairs as they exist at ``dst``.
    transported: List[List[Pair]]


class ShuffleExecutor:
    """Plans, executes and replays the in-memory shuffle for one job."""

    def __init__(
        self,
        serializer: DedupSerializer,
        cost_model: CostModel,
        num_places: int,
        partition_place: Callable[[int], int],
        enable_dedup: bool,
    ):
        self.serializer = serializer
        self.cost_model = cost_model
        self.num_places = num_places
        self.partition_place = partition_place
        self.enable_dedup = enable_dedup

    # -- planning --------------------------------------------------------- #

    def plan(
        self,
        num_partitions: int,
        map_outputs: List[List[Any]],
        map_places: List[int],
    ) -> ShufflePlan:
        return build_plan(
            num_partitions, map_outputs, map_places, self.partition_place
        )

    # -- execution --------------------------------------------------------- #

    def execute(self, plan: ShufflePlan, sort_key: SortKey) -> List[Any]:
        """Run every plan item, in plan order; results in plan order.

        Runs are sorted map-side by ``sort_key`` so a reducer merges them
        with one stable sort of their concatenation.  An item that raises
        fails the shuffle at that item.
        """
        return [
            self._prepare_local(item, sort_key)
            if isinstance(item, LocalHandoff)
            else self._prepare_remote(item, sort_key)
            for item in plan.items
        ]

    def _prepare_local(self, item: LocalHandoff, sort_key: SortKey) -> LocalResult:
        run = sort_run(item.pairs, sort_key)
        return LocalResult(
            sort_seconds=self.cost_model.sort_time(len(run), item.nbytes),
            run=run,
        )

    def _prepare_remote(
        self, item: RemoteMessage, sort_key: SortKey
    ) -> RemoteResult:
        model = self.cost_model
        runs = [sort_run(run, sort_key) for run in item.runs]
        sort_seconds = [
            model.sort_time(len(run), nbytes)
            for run, nbytes in zip(runs, item.run_bytes)
        ]
        # One walk, one memo scope per message: wire+raw measurement, and
        # duplicates become aliases again on the receiving side, as with
        # X10 deserialization.  The sorted order does
        # not change the totals because de-duplication is insensitive to
        # which occurrence of an object comes first.
        message, transported = self.serializer.ship(runs)
        return RemoteResult(
            sort_seconds=sort_seconds, message=message, transported=transported
        )

    # -- deterministic replay ----------------------------------------------- #

    def replay(
        self,
        plan: ShufflePlan,
        results: List[Any],
        reduce_inputs: List[ShuffleInput],
        counters: Counters,
        metrics: Metrics,
        bus: Optional[Any] = None,
    ) -> float:
        """Charge simulated time and account every byte, in plan order.

        Returns the shuffle phase duration (the straggler place's lane).
        Local hand-offs count toward ``REDUCE_LOCAL_HANDOFF_BYTES`` (they
        never cross the wire); only cross-place messages count toward
        ``REDUCE_SHUFFLE_BYTES``, so on M3R
        ``hadoop.REDUCE_SHUFFLE_BYTES == m3r.REDUCE_SHUFFLE_BYTES +
        m3r.REDUCE_LOCAL_HANDOFF_BYTES`` holds for any placement.

        With ``bus`` set, each plan item is also narrated as a ``shuffle``
        TaskEnd lifecycle event (local hand-offs at their place, remote
        messages at the receiving place) — pure observation, in plan order,
        charging nothing.
        """
        model = self.cost_model
        timer = PhaseTimer(self.num_places)
        for item_index, (item, result) in enumerate(zip(plan.items, results)):
            if isinstance(item, LocalHandoff):
                if result.sort_seconds:
                    timer.charge(item.src, result.sort_seconds)
                    metrics.time.charge("sort", result.sort_seconds)
                cost = model.handoff_time(len(item.pairs))
                timer.charge(item.src, cost)
                metrics.time.charge("framework", cost)
                counters.increment(
                    TaskCounter.REDUCE_LOCAL_HANDOFF_BYTES, item.nbytes
                )
                metrics.incr("shuffle_local_bytes", item.nbytes)
                metrics.incr("shuffle_local_records", len(item.pairs))
                metrics.incr(shuffle_place_key(item.src), item.nbytes)
                reduce_inputs[item.partition].add_run(result.run, item.nbytes)
                if bus is not None:
                    self._emit_item(
                        bus, item_index, item.src,
                        result.sort_seconds + cost,
                        len(item.pairs), item.nbytes,
                    )
            else:
                for seconds in result.sort_seconds:
                    if seconds:
                        timer.charge(item.src, seconds)
                        metrics.time.charge("sort", seconds)
                counters.increment(
                    TaskCounter.REDUCE_SHUFFLE_BYTES, item.buffer_bytes
                )
                message = result.message
                wire = (
                    message.wire_bytes
                    if self.enable_dedup
                    else message.raw_bytes
                )
                send = model.serialize_time(wire, message.records)
                net = model.net_transfer_time(wire)
                recv = model.deserialize_time(wire, message.records)
                timer.charge(item.src, send + net)
                timer.charge(item.dst, recv)
                metrics.time.charge("serialize", send)
                metrics.time.charge("network", net)
                metrics.time.charge("deserialize", recv)
                metrics.incr("shuffle_remote_bytes", wire)
                metrics.incr("shuffle_remote_records", message.records)
                if self.enable_dedup:
                    metrics.incr("dedup_saved_bytes", message.dedup_savings)
                metrics.incr(shuffle_place_key(item.dst), wire)
                for partition, run, nbytes in zip(
                    item.partitions, result.transported, item.run_bytes
                ):
                    reduce_inputs[partition].add_run(run, nbytes)
                if bus is not None:
                    self._emit_item(
                        bus, item_index, item.dst,
                        sum(result.sort_seconds) + send + net + recv,
                        message.records, wire,
                    )
        return timer.barrier()

    @staticmethod
    def _emit_item(
        bus: Any, task: int, place: int, seconds: float, records: int, nbytes: int
    ) -> None:
        base = dict(
            job_id=bus.job_id, engine=bus.engine, stage="shuffle",
            task=task, place=place,
        )
        bus.emit(TaskStart(**base))
        bus.emit(TaskEnd(seconds=seconds, records=records, nbytes=nbytes, **base))
