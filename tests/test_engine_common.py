"""Engine-shared machinery: collectors, readers, record policies."""

from __future__ import annotations

import pytest

from repro.api.conf import JobConf
from repro.api.counters import Counters, TaskCounter
from repro.api.formats import SequenceFileOutputFormat
from repro.api.job import JobSpec
from repro.api.mapred import Reporter
from repro.api.partitioner import HashPartitioner, Partitioner
from repro.api.writables import IntWritable, Text
from repro.apps.wordcount import SumReducer
from repro.engine_common import (
    BatchingReader,
    CollectorSink,
    CountingReader,
    EngineResult,
    MaterializedReader,
    PartitionBuffer,
    WriterCollector,
    pair_bytes,
    run_combiner_if_any,
)
from repro.sim.metrics import Metrics
from repro.x10.serializer import pairs_size


PAIRS = [(IntWritable(i), Text(f"value-{i}")) for i in range(6)]


class TestByteHelpers:
    def test_pair_bytes_matches_wire_sizes(self):
        key, value = IntWritable(1), Text("abc")
        measured = pair_bytes(key, value)
        assert measured >= key.serialized_size() + value.serialized_size()

    def test_pairs_size_sums(self):
        assert pairs_size(PAIRS) == sum(pair_bytes(k, v) for k, v in PAIRS)
        assert pairs_size([]) == 0


class TestReaders:
    def test_counting_reader_counts(self):
        counters = Counters()
        reader = CountingReader(MaterializedReader(PAIRS), counters)
        consumed = list(iter(reader.next_pair, None))
        assert len(consumed) == 6
        assert reader.records == 6
        # Tally, then flush: nothing reaches the job's counters per record.
        assert counters.as_dict() == {}
        reader.flush_counters()
        assert counters.value(TaskCounter.MAP_INPUT_RECORDS) == 6

    def test_flush_is_idempotent_and_silent_for_an_empty_task(self):
        counters = Counters()
        writer = TestWriterCollector._Writer()
        idle = [
            CountingReader(MaterializedReader([]), counters),
            BatchingReader(MaterializedReader([]), counters, batch_size=4),
            CollectorSink(2, HashPartitioner(), counters),
            WriterCollector(writer, counters, TaskCounter.REDUCE_OUTPUT_RECORDS),
        ]
        assert idle[0].next_pair() is None and idle[1].next_batch() is None
        for tally in idle:
            tally.flush_counters()
        assert counters.as_dict() == {}  # no counter is created, not even at 0

        reader = BatchingReader(MaterializedReader(PAIRS), counters, batch_size=4)
        assert [len(batch) for batch in iter(reader.next_batch, None)] == [4, 2]
        sink = CollectorSink(1, None, counters)
        out = WriterCollector(writer, counters, TaskCounter.REDUCE_OUTPUT_RECORDS)
        for key, value in PAIRS:
            sink.collect(key, value)
            out.collect(key, value)
        for _ in range(2):  # the second flush publishes nothing
            for tally in (reader, sink, out):
                tally.flush_counters()
        assert counters.group("org.apache.hadoop.mapreduce.TaskCounter") == {
            "MAP_INPUT_RECORDS": 6,
            "MAP_OUTPUT_RECORDS": 6,
            "MAP_OUTPUT_BYTES": pairs_size(PAIRS),
            "REDUCE_OUTPUT_RECORDS": 6,
        }

    def test_materialized_reader_alias_mode(self):
        reader = MaterializedReader(PAIRS, clone=False)
        key, value = reader.next_pair()
        assert value is PAIRS[0][1]

    def test_materialized_reader_clone_mode(self):
        reader = MaterializedReader(PAIRS, clone=True)
        key, value = reader.next_pair()
        assert value == PAIRS[0][1] and value is not PAIRS[0][1]
        value.set("mutated")
        assert PAIRS[0][1].to_string() == "value-0"

    def test_progress(self):
        reader = MaterializedReader(PAIRS[:2])
        assert reader.get_progress() == 0.0
        reader.next_pair()
        assert reader.get_progress() == 0.5
        assert MaterializedReader([]).get_progress() == 1.0


class TestCollectorSink:
    """The tallies are measured at task close, so every test reads them
    after ``flush_counters()``."""

    def test_partitioning(self):
        sink = CollectorSink(3, HashPartitioner(), Counters())
        for key, value in PAIRS:
            sink.collect(key, value)
        sink.flush_counters()
        assert sum(len(b.pairs) for b in sink.partitions) == 6
        assert sink.records == 6
        assert sink.bytes == pairs_size(PAIRS)

    def test_serialize_policy_snapshots(self):
        sink = CollectorSink(1, None, Counters(), copies=True)
        reused = Text("before")
        sink.collect(IntWritable(1), reused)
        reused.set("after")
        sink.flush_counters()
        assert sink.partitions[0].pairs[0][1].to_string() == "before"
        assert sink.copied_records == 1

    def test_alias_policy_keeps_references(self):
        sink = CollectorSink(1, None, Counters(), copies=False)
        value = Text("shared")
        sink.collect(IntWritable(1), value)
        sink.flush_counters()
        assert sink.partitions[0].pairs[0][1] is value
        assert sink.copied_records == 0

    # Hadoop's snapshot-at-emit and M3R's defensive clone both copy; only
    # M3R's ImmutableOutput alias keeps the reference.
    @pytest.mark.parametrize("policy", ["serialize", "clone", "alias"])
    def test_sealed_tallies_equal_the_per_record_sum(self, policy):
        pairs = PAIRS + [
            (Text("kéy"), IntWritable(2)),  # a mixed-class, non-ASCII run
            (IntWritable(9), Text("x" * 200)),
        ]
        copies = policy != "alias"
        sink = CollectorSink(3, HashPartitioner(), Counters(), copies=copies)
        for key, value in pairs:
            sink.collect(key, value)
        sink.flush_counters()
        per_record = sum(pair_bytes(k, v) for k, v in pairs)
        assert (sink.records, sink.bytes) == (len(pairs), per_record)
        assert [b.bytes for b in sink.partitions] == [
            sum(pair_bytes(k, v) for k, v in b.pairs) for b in sink.partitions
        ]
        assert (sink.copied_records, sink.copied_bytes) == (
            (len(pairs), per_record) if copies else (0, 0)
        )

    def test_counters_updated(self):
        counters = Counters()
        sink = CollectorSink(1, None, counters)
        sink.collect(IntWritable(1), Text("x"))
        assert counters.as_dict() == {}
        sink.flush_counters()
        assert counters.value(TaskCounter.MAP_OUTPUT_RECORDS) == 1
        assert counters.value(TaskCounter.MAP_OUTPUT_BYTES) == sink.bytes > 0

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            CollectorSink(0, None, Counters())

    def test_out_of_range_partitioner_detected(self):
        class Broken(Partitioner):
            def get_partition(self, key, value, n):
                return n + 5

        sink = CollectorSink(2, Broken(), Counters())
        with pytest.raises(ValueError):
            sink.collect(IntWritable(1), Text("x"))


class TestWriterCollector:
    class _Writer:
        def __init__(self):
            self.pairs = []

        def write(self, key, value):
            self.pairs.append((key, value))

    def test_writes_through_with_policy(self):
        writer = self._Writer()
        counters = Counters()
        sink = WriterCollector(writer, counters, TaskCounter.REDUCE_OUTPUT_RECORDS)
        reused = Text("v")
        sink.collect(IntWritable(1), reused)
        reused.set("changed")
        assert writer.pairs[0][1].to_string() == "v"
        assert counters.as_dict() == {}
        sink.flush_counters()
        assert counters.value(TaskCounter.REDUCE_OUTPUT_RECORDS) == 1


class TestCombinerHelper:
    def make_spec(self, with_combiner=True):
        conf = JobConf()
        conf.set_input_paths("/in")
        conf.set_output_path("/out")
        if with_combiner:
            conf.set_combiner_class(SumReducer)
        return JobSpec.from_conf(conf)

    def test_combiner_compresses_buffer(self):
        spec = self.make_spec()
        pairs = [(Text(word), IntWritable(1)) for word in ("a", "b", "a", "a", "b")]
        buffer = PartitionBuffer(pairs, pairs_size(pairs))
        combined = run_combiner_if_any(
            spec, buffer, Counters(), Reporter(), copies=True
        )
        counts = {str(k): v.get() for k, v in combined.pairs}
        assert counts == {"a": 3, "b": 2}
        assert len(combined.pairs) < len(buffer.pairs)

    def test_no_combiner_passthrough(self):
        spec = self.make_spec(with_combiner=False)
        buffer = PartitionBuffer([(Text("a"), IntWritable(1))], 4)
        result = run_combiner_if_any(spec, buffer, Counters(), Reporter(), copies=False)
        assert result is buffer

    def test_empty_buffer_passthrough(self):
        spec = self.make_spec()
        buffer = PartitionBuffer()
        assert run_combiner_if_any(spec, buffer, Counters(), Reporter(),
                                   copies=False) is buffer

    def test_combiner_counters(self):
        spec = self.make_spec()
        counters = Counters()
        buffer = PartitionBuffer([(Text(word), IntWritable(1)) for word in "xxy"], 12)
        run_combiner_if_any(spec, buffer, counters, Reporter(), copies=True)
        assert counters.value(TaskCounter.COMBINE_INPUT_RECORDS) == 3
        assert counters.value(TaskCounter.COMBINE_OUTPUT_RECORDS) == 2


class TestEngineResult:
    def test_repr_shows_status(self):
        ok = EngineResult("j", "m3r", True, 1.5, Counters(), Metrics())
        bad = EngineResult("j", "m3r", False, 0.0, Counters(), Metrics(),
                           error="boom")
        assert "ok" in repr(ok)
        assert "FAILED" in repr(bad)
