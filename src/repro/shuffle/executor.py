"""Shuffle execution: parallel place-to-place messages, deterministic replay.

The executor runs a :class:`~repro.shuffle.plan.ShufflePlan` in two strictly
separated stages:

* :meth:`ShuffleExecutor.execute` does the *work* — per-run sorting and
  the serializer's one-pass ``ship`` (de-duplicated measurement plus the
  shared-memo transport clone).  In parallel mode it is one X10 ``finish``
  block with one ``async`` per plan item at the item's source place,
  bounded by the per-place worker semaphores; results come back in spawn
  (= plan) order either way, and the first failure is re-raised exactly as
  the serial loop would raise it.
* :meth:`ShuffleExecutor.replay` does the *accounting* — simulated-time
  charges, counters and per-place skew metrics — on the driver thread, in
  plan order, from the already-computed results.  Nothing here depends on
  thread interleaving, so every simulated number (including the
  order-sensitive float sums inside :class:`PhaseTimer`) is byte-identical
  between the threaded and serial paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.api.counters import Counters, TaskCounter
from repro.engine_common import bounded_task_fn
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
from repro.x10.runtime import ActivityError, X10Runtime
from repro.x10.serializer import SerializedMessage

Pair = Tuple[Any, Any]
SortKey = Callable[[Pair], Any]


@dataclass
class LocalResult:
    """Executed :class:`LocalHandoff`: the (possibly pre-sorted) run."""

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
        runtime: X10Runtime,
        cost_model: CostModel,
        num_places: int,
        partition_place: Callable[[int], int],
        workers_per_place: int,
        enable_dedup: bool,
    ):
        self.runtime = runtime
        self.cost_model = cost_model
        self.num_places = num_places
        self.partition_place = partition_place
        self.workers_per_place = workers_per_place
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

    def execute(
        self,
        plan: ShufflePlan,
        sort_key: Optional[SortKey] = None,
        parallel: bool = False,
    ) -> List[Any]:
        """Run every plan item; results in plan order.

        With ``sort_key`` set, runs are sorted on the map side (the
        sorted-runs shipping model).  With ``parallel`` set, each item runs
        as an ``async`` at its source place inside one ``finish``; a failing
        item surfaces the same exception, after every item has settled, that
        the serial loop would have raised first.
        """
        items = plan.items

        def work(index: int) -> Any:
            item = items[index]
            if isinstance(item, LocalHandoff):
                return self._prepare_local(item, sort_key)
            return self._prepare_remote(item, sort_key)

        if len(items) <= 1 or not parallel:
            return [work(index) for index in range(len(items))]

        bounded = bounded_task_fn(plan.sources, self.workers_per_place, work)

        def spawn(scope: Any) -> None:
            for index, item in enumerate(items):
                scope.async_at(self.runtime.place(item.src), bounded, index)

        try:
            return self.runtime.finish_collect(spawn)
        except ActivityError as error:
            raise error.first from error

    def _prepare_local(
        self, item: LocalHandoff, sort_key: Optional[SortKey]
    ) -> LocalResult:
        if sort_key is None:
            return LocalResult(sort_seconds=0.0, run=item.pairs)
        run = sorted(item.pairs, key=sort_key)
        return LocalResult(
            sort_seconds=self.cost_model.sort_time(len(run), item.nbytes),
            run=run,
        )

    def _prepare_remote(
        self, item: RemoteMessage, sort_key: Optional[SortKey]
    ) -> RemoteResult:
        model = self.cost_model
        if sort_key is None:
            runs = item.runs
            sort_seconds = [0.0] * len(runs)
        else:
            runs = [sorted(run, key=sort_key) for run in item.runs]
            sort_seconds = [
                model.sort_time(len(run), nbytes)
                for run, nbytes in zip(runs, item.run_bytes)
            ]
        # One walk, one memo scope per message: wire+raw measurement through
        # the size cache, and duplicates become aliases again on the
        # receiving side, as with X10 deserialization.  The sorted order does
        # not change the totals because de-duplication is insensitive to
        # which occurrence of an object comes first.
        message, transported = self.runtime.serializer.ship(runs)
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
        messages at the receiving place) — pure observation, emitted from
        the driver in plan order, charging nothing.
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
        from repro.lifecycle.events import TaskEnd, TaskStart

        base = dict(
            job_id=bus.job_id, engine=bus.engine, stage="shuffle",
            task=task, place=place,
        )
        bus.emit(TaskStart(**base))
        bus.emit(TaskEnd(seconds=seconds, records=records, nbytes=nbytes, **base))
