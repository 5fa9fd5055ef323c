"""The shuffle subsystem: measurement, sorted-run merge, skew.

Covers the three mechanisms of the parallel streaming shuffle:

* **single-pass dual measurement** — ``DedupSerializer.measure_message``
  computes wire (de-duplicated) and raw (sharing-ignored) bytes in one
  traversal; these tests pin it to the two-pass reference semantics for
  shares, sibling repeats, cycles and repeated top-levels;
* **stateless size measurement** — every measurement asks the object (the
  table, else ``serialized_size()``), nothing is remembered, and a second
  engine over the same input Writables reports the same metrics;
* **sorted-run streaming merge** — ``ShuffleInput.merged`` equals a stable
  sort of the concatenation;
* **transport** — each remote message is cloned on its own memo, and the
  mutation sanitizer still sees every shipped value.
"""

from __future__ import annotations

import gc
import inspect

import numpy as np
import pytest

from repro.analysis.sanitizers import (
    MUTATION_SANITIZER,
    ImmutableViolation,
    sanitizer_overrides,
)
from repro.api.conf import SANITIZE_MUTATION_KEY
from repro.api.extensions import ImmutableOutput
from repro.api.mapred import Mapper, OutputCollector, Reporter
from repro.api.writables import (
    IntWritable,
    MatrixBlockWritable,
    Text,
    VectorBlockWritable,
    writable_to_bytes,
)
from repro.apps.repartition import IdentityImmutableReducer
from repro.apps.wordcount import generate_text, wordcount_job
from repro.engine_common import PartitionBuffer
from repro.shuffle import ShuffleInput
from repro.shuffle.executor import ShuffleExecutor
from repro.shuffle.plan import RemoteMessage
from repro.sim.cost_model import CostModel
from repro.sim.metrics import (
    Metrics,
    shuffle_place_bytes,
    shuffle_place_key,
    shuffle_skew,
)
from repro.x10.serializer import (
    BACKREF_BYTES,
    DedupSerializer,
    _size_of,
    estimate_size,
)

from conftest import make_m3r


# --------------------------------------------------------------------- #
# single-pass dual measurement
# --------------------------------------------------------------------- #


def two_pass_reference(values):
    """The former two-walk semantics: one memoized pass for wire bytes,
    one memo-less pass per value for raw bytes."""
    memo = {}
    wire = sum(_size_of(v, memo) for v in values)
    raw = sum(_size_of(v, None) for v in values)
    return wire, raw


TRICKY_MESSAGES = []

_shared = Text("a shared payload")
TRICKY_MESSAGES.append([_shared, _shared, _shared])  # repeated top-level

_inner = [Text("x"), Text("y")]
TRICKY_MESSAGES.append([[_inner, _inner], _inner])  # DAG sharing

_cycle = []
_cycle.append(_cycle)
TRICKY_MESSAGES.append([_cycle])  # self-cycle

_a = {"k": [1, 2.5, "s"]}
TRICKY_MESSAGES.append([_a, {"k2": _a}, _a["k"]])  # containment both ways

TRICKY_MESSAGES.append([np.arange(16), b"raw", None, True, 300, -7])


class TestDualWalk:
    @pytest.mark.parametrize("index", range(len(TRICKY_MESSAGES)))
    def test_matches_two_pass_reference(self, index):
        values = TRICKY_MESSAGES[index]
        message = DedupSerializer().measure_message(values)
        wire, raw = two_pass_reference(values)
        assert message.wire_bytes == wire
        assert message.raw_bytes == raw
        assert message.dedup_savings == raw - wire

    def test_repeated_object_costs_backrefs(self):
        shared = Text("hello shuffle")
        single = estimate_size(shared)
        message = DedupSerializer().measure_message([shared, shared, shared])
        assert message.wire_bytes == single + 2 * BACKREF_BYTES
        assert message.raw_bytes == 3 * single
        assert message.duplicate_refs == 2

    def test_cycle_terminates_and_wire_equals_raw(self):
        node = {"next": None}
        node["next"] = node
        message = DedupSerializer().measure_message([node])
        assert message.wire_bytes == message.raw_bytes > 0

    def test_distinct_objects_get_no_savings(self):
        values = [Text("one"), Text("two"), IntWritable(7)]
        message = DedupSerializer().measure_message(values)
        assert message.dedup_savings == 0
        assert message.unique_objects == 3

    def test_measure_pairs_records_and_totals(self):
        v = Text("payload")
        pairs = [(IntWritable(1), v), (IntWritable(2), v)]
        message = DedupSerializer().measure_pairs(pairs)
        assert message.records == 2
        flat = DedupSerializer().measure_message(
            [pairs[0][0], v, pairs[1][0], v]
        )
        assert message.wire_bytes == flat.wire_bytes
        assert message.raw_bytes == flat.raw_bytes

    def test_measurement_order_does_not_change_totals(self):
        """Sorting a message before measurement (the sorted-runs path) must
        not change the de-duplicated totals."""
        shared = Text("zzz")
        container = [shared, Text("mid")]
        values = [container, shared, Text("aaa")]
        forward = DedupSerializer().measure_message(values)
        backward = DedupSerializer().measure_message(list(reversed(values)))
        assert forward.wire_bytes == backward.wire_bytes
        assert forward.raw_bytes == backward.raw_bytes


# --------------------------------------------------------------------- #
# measurement remembers nothing
# --------------------------------------------------------------------- #


class CountingBlock:
    """A user payload that counts how often it is asked for its size."""

    def __init__(self, n):
        self.n = n
        self.size_calls = 0

    def serialized_size(self):
        self.size_calls += 1
        return 10 * self.n


class LeftoverTokenBlock(CountingBlock):
    """Still offers the retired ``size_token`` protocol."""

    def size_token(self):  # pragma: no cover - must never run
        raise AssertionError("size_token is not part of any protocol")


class SlotsBlock:
    __slots__ = ("n",)  # no __weakref__, no __dict__

    def __init__(self, n):
        self.n = n

    def serialized_size(self):
        return self.n


class TestSizeIsNeverRemembered:
    """What replaced ``SizeCache``: one code path per object — the table,
    else ``serialized_size()``, else the generic walk — and no state
    between two measurements, so nothing can go stale or differ between
    two engines in one process."""

    def test_every_measurement_asks_the_object(self):
        block = CountingBlock(4)
        assert estimate_size(block) == 4 + 40
        assert estimate_size(block) == 4 + 40
        assert block.size_calls == 2

    def test_a_size_change_needs_no_invalidation(self):
        block = CountingBlock(4)
        before = estimate_size([block])
        block.n = 5
        assert (before, estimate_size([block])) == (4 + 44, 4 + 54)

    def test_a_leftover_size_token_method_is_ignored(self):
        block = LeftoverTokenBlock(3)
        assert estimate_size(block) == 4 + 30
        assert DedupSerializer().measure_message([block, block]).raw_bytes == 68
        assert block.size_calls == 2  # the repeat is a back-reference

    def test_objects_without_weakref_support_are_measured_like_any_other(self):
        block = SlotsBlock(9)
        assert estimate_size(block) == estimate_size(block) == 4 + 9

    def test_estimate_size_takes_the_object_and_nothing_else(self):
        assert list(inspect.signature(estimate_size).parameters) == ["obj"]
        assert list(inspect.signature(DedupSerializer).parameters) == []

    def test_dead_objects_leave_nothing_behind(self):
        """The memo kept a weakref and a table row per measured block."""
        gc.collect()
        block = VectorBlockWritable(np.ones(3))
        before = len(gc.get_objects())
        estimate_size(block)
        estimate_size([block])
        assert len(gc.get_objects()) == before

    def test_block_sizes_are_the_wire_sizes(self):
        import scipy.sparse as sp

        matrix = sp.random(8, 8, density=0.5, format="csc", random_state=3)
        for block in (MatrixBlockWritable(matrix), VectorBlockWritable(np.ones(5))):
            wire = len(writable_to_bytes(block))
            assert estimate_size(block) == estimate_size(block) == 4 + wire

    def test_block_size_tracks_the_arrays(self):
        block = VectorBlockWritable(np.ones(5))
        a = estimate_size(block)
        block.values = np.ones(6)
        assert estimate_size(block) == a + 8


# --------------------------------------------------------------------- #
# merge cost model + ShuffleInput
# --------------------------------------------------------------------- #


class TestMergeTime:
    def test_zero_records_is_free(self):
        assert CostModel().merge_time(0, 0, 4) == 0.0

    def test_single_run_has_no_compare_term(self):
        model = CostModel()
        assert model.merge_time(100, 1000, 1) == pytest.approx(
            1000 / model.mem_bw
        )

    def test_k_runs_charges_log_k_compares(self):
        import math

        model = CostModel()
        expected = (
            50 * math.log2(4) * model.sort_per_compare + 2000 / model.mem_bw
        )
        assert model.merge_time(50, 2000, 4) == pytest.approx(expected)

    def test_merge_cheaper_than_full_sort(self):
        model = CostModel()
        n, nbytes = 10_000, 1_000_000
        assert model.merge_time(n, nbytes, 8) < model.sort_time(n, nbytes)


class TestShuffleInput:
    def key(self, pair):
        return pair[0]

    def test_merged_equals_stable_sort_of_concatenation(self):
        runs = [
            [(1, "a0"), (1, "a1"), (3, "a2")],
            [(0, "b0"), (1, "b1"), (3, "b2")],
            [(1, "c0"), (2, "c1")],
        ]
        inp = ShuffleInput()
        for run in runs:
            inp.add_run(sorted(run, key=self.key), nbytes=10)
        flat = [pair for run in runs for pair in run]
        assert inp.merged(self.key) == sorted(flat, key=self.key)
        assert inp.records == len(flat)
        assert inp.bytes == 30

    def test_empty_runs_are_skipped(self):
        inp = ShuffleInput()
        inp.add_run([], 0)
        inp.add_run([(1, "x")], 5)
        assert len(inp.runs) == 1
        assert inp.merged(self.key) == [(1, "x")]


# --------------------------------------------------------------------- #
# skew metrics
# --------------------------------------------------------------------- #


class TestSkewMetrics:
    def test_round_trip_and_ratio(self):
        metrics = Metrics()
        metrics.incr(shuffle_place_key(0), 100)
        metrics.incr(shuffle_place_key(1), 300)
        metrics.incr(shuffle_place_key(1), 100)
        metrics.incr("unrelated_counter", 999)
        assert shuffle_place_bytes(metrics) == {0: 100, 1: 400}
        skew = shuffle_skew(metrics)
        assert skew["max_bytes"] == 400.0
        assert skew["mean_bytes"] == 250.0
        assert skew["skew_ratio"] == pytest.approx(1.6)

    def test_empty_metrics_report_balanced(self):
        skew = shuffle_skew(Metrics())
        assert skew == {"max_bytes": 0.0, "mean_bytes": 0.0, "skew_ratio": 1.0}


# --------------------------------------------------------------------- #
# end-to-end: a second engine measures what the first did
# --------------------------------------------------------------------- #


#: One block object that every run of the job below emits, whichever engine
#: runs it — the sharing a driver gets by reusing input Writables.
BROADCAST_BLOCK = VectorBlockWritable(np.arange(16.0))


class BroadcastBlockMapper(Mapper, ImmutableOutput):
    def map(self, key, value, output: OutputCollector, reporter: Reporter):
        for word in value.to_string().split():
            output.collect(Text(word), BROADCAST_BLOCK)


class TestSecondEngineMeasurement:
    def test_a_second_engine_over_the_same_blocks_reports_the_same_metrics(self):
        """ROADMAP 1(b), closed by deletion: two engines in one process
        that ship the *same* block objects report the same metrics.  With
        the process-wide size memo the second engine found the block
        already measured and said so (one miss fewer, one hit more)."""

        def run_once():
            engine = make_m3r()
            try:
                engine.filesystem.write_text("/in.txt", generate_text(20))
                conf = wordcount_job(
                    "/in.txt", "/out", num_reducers=4, immutable=True,
                    use_combiner=False,
                )
                conf.set_mapper_class(BroadcastBlockMapper)
                conf.set_reducer_class(IdentityImmutableReducer)
                result = engine.run_job(conf)
                assert result.succeeded, result.error
                return result.metrics.as_dict()["counters"]
            finally:
                engine.shutdown()

        first, second = run_once(), run_once()
        assert first == second
        assert first["shuffle_remote_bytes"] > 0 and first["dedup_saved_bytes"] > 0
        assert not [key for key in first if key.startswith("size_")]


# --------------------------------------------------------------------- #
# transport: one clone memo per message, sanitizer still watching
# --------------------------------------------------------------------- #


class EmitThenMutateMapper(Mapper, ImmutableOutput):
    """Claims ImmutableOutput, emits one payload under many keys, then
    changes it without emitting again: only the shuffle's own observation
    of what it ships can notice."""

    def __init__(self) -> None:
        self.payload = IntWritable(1)

    def map(self, key, value, output: OutputCollector, reporter: Reporter):
        for word in value.to_string().split():
            output.collect(Text(word), self.payload)

    def close(self) -> None:
        self.payload.set(2)


class TestTransport:
    def test_two_messages_deliver_two_independent_clones(self, m3r4):
        executor = ShuffleExecutor(
            serializer=m3r4.runtime.serializer,
            cost_model=m3r4.cost_model,
            num_places=m3r4.num_places,
            partition_place=m3r4.partition_place,
            enable_dedup=True,
        )
        shared = Text("broadcast")
        buffers = [
            PartitionBuffer([(IntWritable(index), shared) for index in range(3)], 48)
            for _ in range(m3r4.num_places)
        ]
        plan = executor.plan(len(buffers), [buffers], [0])
        results = executor.execute(plan, sort_key=lambda pair: pair[0].get())
        arrived = [
            [value for run in result.transported for _, value in run]
            for item, result in zip(plan.items, results)
            if isinstance(item, RemoteMessage)
        ]
        assert len(arrived) == m3r4.num_places - 1
        for values in arrived:  # inside one message: aliases of one clone
            assert all(value is values[0] for value in values)
            assert values[0] == shared and values[0] is not shared
        clones = {id(values[0]) for values in arrived}
        assert len(clones) == len(arrived)  # across messages: independent

    def test_ship_reports_a_value_mutated_after_it_was_emitted(self):
        value = Text("as emitted")
        with sanitizer_overrides(mutation=True):
            MUTATION_SANITIZER.observe(value, site="collect")
            value.set("changed behind the engine's back")
            with pytest.raises(ImmutableViolation, match="DedupSerializer.ship"):
                DedupSerializer().ship([[(IntWritable(0), value)]])
            MUTATION_SANITIZER.forget(value)

    def test_mutate_after_emit_fails_the_job_with_the_sanitizer_on(self):
        engine = make_m3r()
        try:
            engine.filesystem.write_text("/in.txt", generate_text(20))
            conf = wordcount_job(
                "/in.txt", "/out", num_reducers=4, immutable=True, use_combiner=False
            )
            conf.set_mapper_class(EmitThenMutateMapper)
            conf.set_boolean(SANITIZE_MUTATION_KEY, True)
            result = engine.run_job(conf)
            assert not result.succeeded
            assert "ImmutableViolation" in result.error
            assert "DedupSerializer.ship" in result.error
        finally:
            engine.shutdown()
