"""The shuffle subsystem: memoized measurement, sorted-run merge, skew.

Covers the three mechanisms of the parallel streaming shuffle:

* **single-pass dual measurement** — ``DedupSerializer.measure_message``
  computes wire (de-duplicated) and raw (sharing-ignored) bytes in one
  traversal; these tests pin it to the two-pass reference semantics for
  shares, sibling repeats, cycles and repeated top-levels;
* **memoized size measurement** — ``SizeCache`` hit/miss/invalidation
  behaviour, and the end-to-end guarantee that iteration 2+ of a
  partition-stable matvec never re-measures the cached matrix blocks;
* **sorted-run streaming merge** — ``ShuffleInput.merged`` equals a stable
  sort of the concatenation;
* **transport** — each remote message is cloned on its own memo, and the
  mutation sanitizer still sees every shipped value.
"""

from __future__ import annotations

import gc

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
from repro.api.writables import IntWritable, MatrixBlockWritable, Text, VectorBlockWritable
from repro.apps import matvec
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
    SizeCache,
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
# SizeCache
# --------------------------------------------------------------------- #


class TokenBlock:
    """A minimal cacheable payload: token = length, size derived from it."""

    def __init__(self, n):
        self.n = n
        self.size_calls = 0

    def size_token(self):
        return self.n

    def serialized_size(self):
        self.size_calls += 1
        return 10 * self.n


class SlotsBlock:
    __slots__ = ("n",)  # no __weakref__: cannot be cached

    def __init__(self, n):
        self.n = n

    def size_token(self):
        return self.n

    def serialized_size(self):
        return self.n


class TestSizeCache:
    def test_hit_on_revalidated_token(self):
        cache = SizeCache()
        block = TokenBlock(4)
        assert cache.measure(block, block.serialized_size) == 40
        assert cache.measure(block, block.serialized_size) == 40
        assert block.size_calls == 1  # second call was a cache hit
        assert cache.snapshot() == (1, 1)

    def test_token_change_invalidates(self):
        cache = SizeCache()
        block = TokenBlock(4)
        cache.measure(block, block.serialized_size)
        block.n = 5  # mutation visible through the token
        assert cache.measure(block, block.serialized_size) == 50
        assert block.size_calls == 2
        hits, misses = cache.snapshot()
        assert (hits, misses) == (0, 2)

    def test_no_token_means_no_caching(self):
        cache = SizeCache()
        text = Text("plain")  # scalar writables carry no size_token
        assert not callable(getattr(text, "size_token", None))
        cache.measure(text, text.serialized_size)
        cache.measure(text, text.serialized_size)
        assert cache.snapshot() == (0, 0)
        assert len(cache) == 0

    def test_dead_objects_are_forgotten(self):
        cache = SizeCache()
        block = TokenBlock(2)
        cache.measure(block, block.serialized_size)
        assert len(cache) == 1
        del block
        gc.collect()
        assert len(cache) == 0

    def test_non_weakrefable_objects_still_measured(self):
        cache = SizeCache()
        block = SlotsBlock(9)
        assert cache.measure(block, block.serialized_size) == 9
        assert len(cache) == 0  # computed but not stored
        assert cache.snapshot() == (0, 1)

    def test_block_writables_cache_through_estimate_size(self):
        import scipy.sparse as sp

        matrix = sp.random(8, 8, density=0.5, format="csc", random_state=3)
        block = MatrixBlockWritable(matrix)
        cache = SizeCache()
        first = estimate_size(block, size_cache=cache)
        second = estimate_size(block, size_cache=cache)
        assert first == second
        hits, misses = cache.snapshot()
        assert (hits, misses) == (1, 1)

    def test_vector_block_token_tracks_length(self):
        block = VectorBlockWritable(np.ones(5))
        cache = SizeCache()
        a = estimate_size(block, size_cache=cache)
        block.values = np.ones(6)
        b = estimate_size(block, size_cache=cache)
        assert b > a  # token changed, size re-measured


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
# end-to-end: memoization
# --------------------------------------------------------------------- #


class TestMatvecMemoization:
    def test_iteration_two_never_remeasures_cached_blocks(self):
        """The acceptance criterion: after iteration 1 warms the size
        cache, iteration 2 of the partition-stable matvec performs zero
        full re-measurements of the cached G blocks (their cheap
        ``size_token`` revalidation is all that runs), and the engine
        reports the hits."""
        rows, block = 128, 32
        num_blocks = rows // block
        engine = make_m3r(num_nodes=4, workers_per_place=4)
        measured = []
        original_matrix = MatrixBlockWritable.serialized_size
        original_vector = VectorBlockWritable.serialized_size

        def spy_matrix(self):
            measured.append(id(self))
            return original_matrix(self)

        def spy_vector(self):
            measured.append(id(self))
            return original_vector(self)

        MatrixBlockWritable.serialized_size = spy_matrix
        VectorBlockWritable.serialized_size = spy_vector
        try:
            g = matvec.generate_blocked_matrix(rows, block, sparsity=0.1, seed=7)
            v = matvec.generate_blocked_vector(rows, block, seed=8)
            matvec.write_partitioned(engine.filesystem, "/G", g, num_blocks, 4)
            matvec.write_partitioned(engine.filesystem, "/V0", v, num_blocks, 4)
            engine.warm_cache_from("/G")
            engine.warm_cache_from("/V0")

            def run_iteration(index, src, dst):
                sequence = matvec.iteration_jobs(
                    "/G", src, dst, "/scratch", index, num_blocks, 4
                )
                results = sequence.run_all(engine)
                assert all(r.succeeded for r in results)
                return results

            run_iteration(0, "/V0", "/V1")
            # Identities of every payload cached under /G after iteration 1:
            # these are the long-lived blocks iteration 2 will alias.
            cached_ids = {
                id(value)
                for entry in engine.cache.entries()
                if entry.path is not None and entry.path.startswith("/G")
                for _, value in (entry.pairs or [])
            }
            assert cached_ids
            measured.clear()
            results = run_iteration(1, "/V1", "/V2")
            remeasured = cached_ids & set(measured)
            assert remeasured == set()
            hits = sum(r.metrics.get("size_cache_hits") for r in results)
            assert hits > 0
        finally:
            MatrixBlockWritable.serialized_size = original_matrix
            VectorBlockWritable.serialized_size = original_vector
            engine.shutdown()


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
        buffers = [PartitionBuffer() for _ in range(m3r4.num_places)]
        for buffer in buffers:
            for index in range(3):
                buffer.append(IntWritable(index), shared, 16)
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
