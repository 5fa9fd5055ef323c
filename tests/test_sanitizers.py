"""Tests for the runtime mutation sanitizer (repro.analysis.sanitizers).

Covers its two guarantees:

* a deliberately-mutating ``ImmutableOutput`` mapper is caught, and the
  failure carries BOTH stack traces (allocation/registration + mutation);
* the sanitizer observes but never perturbs — a job runs byte-identically
  with it on and off.

The KV store's lock-order check is always on; ``tests/test_kvstore.py``
tests it.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import make_m3r
from scipy import sparse

from repro.analysis.sanitizers import (
    MUTATION_SANITIZER,
    ImmutableViolation,
    MutationSanitizer,
    sanitizer_overrides,
)
from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput
from repro.api.formats import SequenceFileInputFormat, SequenceFileOutputFormat
from repro.api.mapred import Mapper, OutputCollector, Reducer, Reporter
from repro.api.multiple_io import MultipleInputs
from repro.api.writables import (
    BytesWritable,
    IntWritable,
    MatrixBlockWritable,
    Text,
    VectorBlockWritable,
)
from repro.apps import matvec
from repro.apps.microbenchmark import (
    RemoteFractionMapper,
    generate_input,
    microbenchmark_job,
)
from repro.apps.wordcount import generate_text, wordcount_job
from repro.x10 import serializer as serializer_module
from repro.x10.serializer import DedupSerializer, estimate_size


@pytest.fixture(autouse=True)
def clean_sanitizer_state():
    """Each test starts and ends with an empty sanitizer table (the global
    enabled flag is left alone so the sanitizer-on CI row still covers
    the whole file)."""
    MUTATION_SANITIZER.reset()
    yield
    MUTATION_SANITIZER.reset()


# --------------------------------------------------------------------- #
# MutationSanitizer unit behaviour
# --------------------------------------------------------------------- #


class TestMutationSanitizer:
    def test_detects_mutation_with_both_stacks(self):
        sanitizer = MutationSanitizer(enabled=True)
        payload = [1, 2, 3]
        sanitizer.observe(payload, site="first-sight")
        payload.append(4)
        with pytest.raises(ImmutableViolation) as excinfo:
            sanitizer.observe(payload, site="second-sight")
        message = str(excinfo.value)
        assert "registered at first-sight" in message
        assert "mutation detected at second-sight" in message

    def test_unchanged_object_verifies_quietly(self):
        sanitizer = MutationSanitizer(enabled=True)
        payload = {"a": 1}
        sanitizer.observe(payload, site="s1")
        sanitizer.observe(payload, site="s2")
        assert sanitizer.violations == 0
        assert sanitizer.verified == 1

    def test_disabled_is_a_noop(self):
        sanitizer = MutationSanitizer(enabled=False)
        payload = [1]
        sanitizer.observe(payload, site="s")
        payload.append(2)
        sanitizer.observe(payload, site="s")
        assert len(sanitizer) == 0

    def test_unpicklable_objects_are_skipped(self):
        sanitizer = MutationSanitizer(enabled=True)
        gen = (x for x in range(3))
        sanitizer.observe(gen, site="s")
        assert len(sanitizer) == 0

    def test_forget_drops_tracking(self):
        sanitizer = MutationSanitizer(enabled=True)
        payload = [1]
        sanitizer.observe(payload, site="s")
        sanitizer.forget(payload)
        payload.append(2)
        sanitizer.observe(payload, site="s")  # re-registers, no violation
        assert sanitizer.violations == 0

    def test_table_is_capped(self):
        sanitizer = MutationSanitizer(enabled=True, max_entries=4)
        keepalive = [[i] for i in range(10)]
        for item in keepalive:
            sanitizer.observe(item, site="s")
        assert len(sanitizer) == 4


# --------------------------------------------------------------------- #
# end-to-end: a mutating ImmutableOutput mapper is caught
# --------------------------------------------------------------------- #


class LyingImmutableMapper(Mapper, ImmutableOutput):
    """Claims ImmutableOutput but mutates a value it already collected —
    exactly the aliasing corruption paper Section 4.1 warns about."""

    def __init__(self) -> None:
        self.one = IntWritable(1)
        self.token = Text("seed")

    def map(self, key, value, output: OutputCollector, reporter: Reporter):
        output.collect(self.token, self.one)  # aliased + fingerprinted
        self.token.set(self.token.to_string() + "!")  # mutation!
        output.collect(self.token, self.one)  # caught here


class CountReducer(Reducer, ImmutableOutput):
    def reduce(self, key, values, output: OutputCollector, reporter: Reporter):
        output.collect(key, IntWritable(sum(v.get() for v in values)))


def _mutating_job():
    conf = wordcount_job(
        "/in.txt", "/out", num_reducers=2, immutable=True, use_combiner=False
    )
    conf.set_mapper_class(LyingImmutableMapper)
    conf.set_reducer_class(CountReducer)
    return conf


class TestMutationEndToEnd:
    def test_mutating_immutable_mapper_is_caught_with_both_stacks(self):
        engine = make_m3r()
        engine.filesystem.write_text("/in.txt", "alpha beta\n")
        with sanitizer_overrides(mutation=True):
            result = engine.run_job(_mutating_job())
        assert not result.succeeded
        assert "ImmutableViolation" in result.error
        # Both stacks ride inside the violation message.
        assert "registered at" in result.error
        assert "mutation detected at" in result.error
        engine.shutdown()

    def test_same_job_passes_with_sanitizer_off(self):
        engine = make_m3r()
        engine.filesystem.write_text("/in.txt", "alpha beta\n")
        with sanitizer_overrides(mutation=False):
            result = engine.run_job(_mutating_job())
        # Without the sanitizer the lie goes unnoticed (which is the point
        # of having the sanitizer).
        assert result.succeeded
        engine.shutdown()

    def test_honest_immutable_job_passes_with_sanitizer_on(self):
        engine = make_m3r()
        engine.filesystem.write_text("/in.txt", generate_text(50))
        conf = wordcount_job("/in.txt", "/out", num_reducers=4)
        with sanitizer_overrides(mutation=True):
            result = engine.run_job(conf)
        assert result.succeeded, result.error
        engine.shutdown()


class FreshRemoteMapper(RemoteFractionMapper):
    """Sends each pair to the adjacent partition as two fresh objects, so
    every remote message is all distinct: the serializer's column path."""

    def map(self, key, value, output, reporter):
        output.collect(IntWritable(key.get() + 1), BytesWritable(value.get_bytes()))


class ScribblingRemoteMapper(RemoteFractionMapper):
    """The same, then overwrites the value it emitted (same length)."""

    def map(self, key, value, output, reporter):
        sent = BytesWritable(value.get_bytes())
        output.collect(IntWritable(key.get() + 1), sent)
        sent.set(b"!" * sent.get_length())


def _remote_job(mapper):
    engine = make_m3r()
    try:
        generate_input(engine.filesystem, "/in", 40, 16, 4)
        conf = microbenchmark_job("/in", "/out", 100, 4)
        conf.set_mapper_class(mapper)
        with sanitizer_overrides(mutation=True):
            return engine.run_job(conf)
    finally:
        engine.shutdown()


class TestColumnPathIsStillWatched:
    def test_mutation_after_emit_is_caught_on_the_column_path(self, monkeypatch):
        paths = []
        columns = serializer_module._columns

        def recording_columns(runs):
            plan = columns(runs)
            paths.append(plan is not None)
            return plan

        monkeypatch.setattr(serializer_module, "_columns", recording_columns)
        result = _remote_job(FreshRemoteMapper)
        assert result.succeeded, result.error
        assert paths and all(paths)  # the honest job ships by column
        result = _remote_job(ScribblingRemoteMapper)
        assert not result.succeeded
        assert "ImmutableViolation" in result.error
        assert "DedupSerializer.ship" in result.error


# --------------------------------------------------------------------- #
# block Writables: the transport table's fast path is still watched
# --------------------------------------------------------------------- #
# A block's table entry sizes it from its shape alone and clones it without
# a constructor, so an in-place write into its arrays (same length: the size
# does not move) is visible only to the sanitizer's wire-bytes fingerprint.


class ScribbledVector(VectorBlockWritable):
    """A subclass: not in the table, so it takes the generic walk."""


def scribble(block) -> None:
    if isinstance(block, MatrixBlockWritable):
        block.matrix.data *= 2.0
    else:
        block.values[:] = -1.0


class ScribblingGMapper(matvec.GPassMapper):
    """Claims ImmutableOutput (inherited), emits the G block and then
    scales its ``data`` in place."""

    def map(self, key, value, output, reporter):
        output.collect(key, value)
        scribble(value)

    def map_batch(self, keys, values, output, reporter):
        for key, value in zip(keys, values):
            self.map(key, value, output, reporter)


class ScribblingVMapper(matvec.VBroadcastMapper):
    """Broadcasts the V block, then overwrites ``values`` in place."""

    def map(self, key, value, output, reporter):
        super().map(key, value, output, reporter)
        scribble(value)


def _matvec_engine(blocks=4, block=8):
    engine = make_m3r()
    g = matvec.generate_blocked_matrix(blocks * block, block, sparsity=0.5, seed=3)
    v = matvec.generate_blocked_vector(blocks * block, block, seed=4)
    matvec.write_partitioned(engine.filesystem, "/G", g, blocks, 4)
    matvec.write_partitioned(engine.filesystem, "/V0", v, blocks, 4)
    return engine


def _multiply_job(g_mapper, v_mapper, blocks=4):
    conf = JobConf()
    conf.set_int(matvec.NUM_ROW_BLOCKS_KEY, blocks)
    MultipleInputs.add_input_path(conf, "/G", SequenceFileInputFormat, g_mapper)
    MultipleInputs.add_input_path(conf, "/V0", SequenceFileInputFormat, v_mapper)
    conf.set_reducer_class(matvec.MultiplyReducer)
    conf.set_partitioner_class(matvec.RowChunkPartitioner)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_output_path("/partial")
    conf.set_num_reduce_tasks(4)
    return conf


class TestBlocksAreStillWatched:
    @pytest.mark.parametrize(
        "block",
        [
            VectorBlockWritable(np.arange(6.0)),
            MatrixBlockWritable(sparse.identity(4, format="csc")),
            ScribbledVector(np.arange(6.0)),
        ],
        ids=["vector-table", "matrix-table", "subclass-generic"],
    )
    def test_ship_sees_an_in_place_write_of_unchanged_size(self, block):
        serializer = DedupSerializer()
        pairs = [(IntWritable(0), block)]
        with sanitizer_overrides(mutation=True):
            MUTATION_SANITIZER.observe(block, site="collect")
            size = estimate_size(block)
            serializer.ship([pairs])  # unchanged: quiet
            scribble(block)
            assert estimate_size(block) == size
            with pytest.raises(ImmutableViolation, match="DedupSerializer.ship"):
                serializer.ship([pairs])

    def test_mapper_that_writes_into_an_emitted_vector_fails_at_ship(self):
        engine = _matvec_engine()
        try:
            with sanitizer_overrides(mutation=True):
                result = engine.run_job(
                    _multiply_job(matvec.GPassMapper, ScribblingVMapper)
                )
            assert not result.succeeded
            assert "ImmutableViolation" in result.error
            assert "DedupSerializer.ship" in result.error
        finally:
            engine.shutdown()

    def test_mapper_that_scales_a_cached_matrix_fails_the_next_cache_read(self):
        """G is partition-stable — its blocks are handed over, never
        shipped — so the in-place scaling surfaces when the next job reads
        the cached block."""
        engine = _matvec_engine()
        try:
            with sanitizer_overrides(mutation=True):
                first = engine.run_job(
                    _multiply_job(ScribblingGMapper, matvec.VBroadcastMapper)
                )
                assert first.succeeded, first.error
                honest = _multiply_job(matvec.GPassMapper, matvec.VBroadcastMapper)
                honest.set_output_path("/partial-2")
                result = engine.run_job(honest)
            assert not result.succeeded
            assert "ImmutableViolation" in result.error
            assert "KeyValueCache.get(/G" in result.error
        finally:
            engine.shutdown()

    def test_cached_block_written_in_place_fails_the_next_cache_read(self):
        engine = _matvec_engine()
        try:
            honest = _multiply_job(matvec.GPassMapper, matvec.VBroadcastMapper)
            with sanitizer_overrides(mutation=True):
                assert engine.run_job(honest).succeeded
            cached = [
                value
                for entry in engine.cache.entries()
                if entry.path.startswith("/partial")
                for _, value in entry.pairs or []
            ]
            assert cached and {type(value) for value in cached} == {VectorBlockWritable}
            scribble(cached[0])
            with sanitizer_overrides(mutation=True):
                result = engine.run_job(matvec.sum_job("/partial", "/V1", 4, 4))
            assert not result.succeeded
            assert "ImmutableViolation" in result.error
            assert "KeyValueCache.get(/partial" in result.error
        finally:
            engine.shutdown()


# --------------------------------------------------------------------- #
# sanitizers observe, never perturb
# --------------------------------------------------------------------- #


def _run_wordcount(sanitize: bool):
    engine = make_m3r()
    engine.filesystem.write_text("/in.txt", generate_text(120))
    conf = wordcount_job("/in.txt", "/out", num_reducers=4)
    with sanitizer_overrides(mutation=sanitize):
        result = engine.run_job(conf)
    assert result.succeeded, result.error
    output = {
        k.to_string(): v.get()
        for k, v in engine.filesystem.read_kv_pairs("/out")
    }
    counters = result.counters.as_dict()
    engine.shutdown()
    return result.simulated_seconds, output, counters


class TestObserveNeverPerturb:
    def test_outputs_and_accounting_identical_on_off(self):
        seconds_off, output_off, counters_off = _run_wordcount(False)
        seconds_on, output_on, counters_on = _run_wordcount(True)
        assert output_on == output_off
        assert seconds_on == seconds_off
        assert counters_on == counters_off

    def test_overrides_restore_previous_state(self):
        before = MUTATION_SANITIZER.enabled
        with sanitizer_overrides(mutation=True):
            assert MUTATION_SANITIZER.enabled
        assert MUTATION_SANITIZER.enabled == before


# --------------------------------------------------------------------- #
# serializer fallback satellite
# --------------------------------------------------------------------- #


class TestSerializerFallbacks:
    def test_normal_job_reports_zero_fallbacks(self):
        engine = make_m3r()
        engine.filesystem.write_text("/in.txt", generate_text(30))
        result = engine.run_job(wordcount_job("/in.txt", "/out", 2))
        assert result.succeeded
        assert result.metrics.get("serializer_fallbacks") == 0
        engine.shutdown()

    def test_unpicklable_object_records_fallback(self):
        from repro.x10.serializer import FALLBACK_TALLY, estimate_size

        class NoDict:
            __slots__ = ()

            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        before = FALLBACK_TALLY.snapshot()
        size = estimate_size(NoDict())
        assert size > 0
        assert FALLBACK_TALLY.snapshot() == before + 1
