"""The M3R engine: cache, partition stability, dedup, immutability, no
resilience."""

from __future__ import annotations

import pytest

from repro.api.conf import JobConf
from repro.api.counters import TaskCounter
from repro.api.extensions import (
    ImmutableOutput,
    NamedSplit,
    PlacedSplit,
    TEMP_OUTPUT_PREFIX_KEY,
    is_temporary_output,
)
from repro.api.formats import (
    RecordReader,
    InputFormat,
    SequenceFileInputFormat,
    SequenceFileOutputFormat,
)
from repro.api.mapred import IdentityMapper, IdentityReducer
from repro.api.splits import InputSplit
from repro.api.writables import BytesWritable, IntWritable, Text
from repro.apps.microbenchmark import (
    IdentityImmutableReducer,
    ModPartitioner,
    RemoteFractionMapper,
    generate_input,
    microbenchmark_job,
)
from repro.apps.repartition import IdentityImmutableMapper
from repro.apps.wordcount import generate_text, wordcount_job
from repro.engine_common import JobFailedError

from conftest import make_m3r


def identity_job(src, dst, reducers=4, immutable=True):
    conf = JobConf()
    conf.set_job_name("identity")
    conf.set_input_paths(src)
    conf.set_input_format(SequenceFileInputFormat)
    conf.set_mapper_class(IdentityImmutableMapper if immutable else IdentityMapper)
    conf.set_reducer_class(IdentityImmutableReducer if immutable else IdentityReducer)
    conf.set_partitioner_class(ModPartitioner)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_output_path(dst)
    conf.set_num_reduce_tasks(reducers)
    return conf


def seeded_input(engine, path="/in", n=40):
    pairs_by_part = {}
    for part in range(4):
        pairs = [(IntWritable(k), Text(f"v{k}")) for k in range(n) if k % 4 == part]
        engine.filesystem.write_pairs(f"{path}/part-{part:05d}", pairs, at_node=part)
        pairs_by_part[part] = pairs
    return pairs_by_part


class TestPartitionStability:
    def test_mapping_is_deterministic(self, m3r4):
        mapping = [m3r4.partition_place(p) for p in range(16)]
        assert mapping == [m3r4.partition_place(p) for p in range(16)]
        assert mapping[:4] == [0, 1, 2, 3]

    def test_unstable_mode_varies_by_job(self):
        engine = make_m3r(enable_partition_stability=False)
        engine._job_counter = 1
        first = [engine.partition_place(p) for p in range(8)]
        engine._job_counter = 2
        second = [engine.partition_place(p) for p in range(8)]
        assert first != second

    def test_stable_sequence_shuffles_locally(self, m3r4):
        """The microbenchmark at 0% remote: after the aligned load, every
        shuffled record stays in its own place."""
        generate_input(m3r4.filesystem, "/micro", 200, 64, 4)
        result = m3r4.run_job(microbenchmark_job("/micro", "/out", 0, 4))
        assert result.succeeded
        assert result.metrics.get("shuffle_remote_records") == 0
        assert result.metrics.get("shuffle_local_records") > 0

    def test_adjacent_partition_is_remote(self, m3r4):
        generate_input(m3r4.filesystem, "/micro", 200, 64, 4)
        result = m3r4.run_job(microbenchmark_job("/micro", "/out", 100, 4))
        assert result.metrics.get("shuffle_local_records") == 0
        assert result.metrics.get("shuffle_remote_records") > 0


class TestCache:
    def test_second_read_hits_cache(self, m3r4):
        seeded_input(m3r4)
        first = m3r4.run_job(identity_job("/in", "/out1"))
        assert first.metrics.get("cache_misses") > 0
        assert first.metrics.get("cache_hits") == 0
        second = m3r4.run_job(identity_job("/in", "/out2"))
        assert second.metrics.get("cache_hits") > 0
        assert second.metrics.get("cache_misses") == 0
        assert second.metrics.time.get("disk_read") == 0.0
        assert second.metrics.time.get("deserialize") == 0.0

    def test_job_output_feeds_next_job_from_memory(self, m3r4):
        seeded_input(m3r4)
        m3r4.run_job(identity_job("/in", "/mid"))
        follow = m3r4.run_job(identity_job("/mid", "/fin"))
        assert follow.metrics.get("cache_hits") == 4
        assert follow.metrics.time.get("disk_read") == 0.0
        assert len(m3r4.filesystem.read_kv_pairs("/fin")) == 40

    def test_temp_output_not_flushed(self, m3r4):
        seeded_input(m3r4)
        result = m3r4.run_job(identity_job("/in", "/work/temp-x"))
        assert result.metrics.get("temp_outputs_skipped") == 4
        assert not m3r4.raw_filesystem.exists("/work/temp-x")
        assert m3r4.filesystem.exists("/work/temp-x")
        assert len(m3r4.filesystem.read_kv_pairs("/work/temp-x")) == 40

    def test_custom_temp_prefix(self, m3r4):
        seeded_input(m3r4)
        conf = identity_job("/in", "/work/scratch-y")
        conf.set(TEMP_OUTPUT_PREFIX_KEY, "scratch")
        result = m3r4.run_job(conf)
        assert result.metrics.get("temp_outputs_skipped") == 4
        assert not m3r4.raw_filesystem.exists("/work/scratch-y")

    def test_is_temporary_output_convention(self):
        conf = JobConf()
        assert is_temporary_output("/a/temp-thing", conf)
        assert not is_temporary_output("/a/output", conf)
        conf.set(TEMP_OUTPUT_PREFIX_KEY, "zz")
        assert is_temporary_output("/a/zz1", conf)
        assert not is_temporary_output("/a/temp-thing", conf)

    def test_delete_invalidates_cache(self, m3r4):
        seeded_input(m3r4)
        m3r4.run_job(identity_job("/in", "/out1"))
        m3r4.filesystem.delete("/in", recursive=True)
        assert not m3r4.cache.contains_path("/in/part-00000")
        # Re-reading now fails (data is gone everywhere), which proves the
        # cache did not secretly keep serving it.
        result = m3r4.run_job(identity_job("/in", "/out2"))
        assert not result.succeeded

    def test_overwrite_invalidates_cache(self, m3r4):
        seeded_input(m3r4, n=8)
        m3r4.run_job(identity_job("/in", "/out1"))
        replacement = [(IntWritable(0), Text("NEW"))]
        m3r4.filesystem.write_pairs("/in/part-00000", replacement, at_node=0)
        result = m3r4.run_job(identity_job("/in", "/out2"))
        assert result.succeeded
        values = {str(v) for _, v in m3r4.filesystem.read_kv_pairs("/out2")}
        assert "NEW" in values

    def test_cache_disabled_engine(self):
        engine = make_m3r(enable_cache=False)
        seeded_input(engine)
        engine.run_job(identity_job("/in", "/out1"))
        second = engine.run_job(identity_job("/in", "/out2"))
        assert second.metrics.get("cache_hits") == 0
        assert second.metrics.time.get("disk_read") > 0

    def test_warm_cache_from(self, m3r4):
        seeded_input(m3r4)
        assert m3r4.warm_cache_from("/in") == 4
        result = m3r4.run_job(identity_job("/in", "/out"))
        assert result.metrics.get("cache_hits") == 4
        assert result.metrics.time.get("disk_read") == 0.0


class TestImmutability:
    def test_immutable_jobs_do_not_clone(self, m3r4):
        seeded_input(m3r4)
        result = m3r4.run_job(identity_job("/in", "/out", immutable=True))
        assert result.metrics.get("cloned_records") == 0

    def test_mutating_jobs_clone(self, m3r4):
        seeded_input(m3r4)
        result = m3r4.run_job(identity_job("/in", "/out", immutable=False))
        assert result.metrics.get("cloned_records") > 0
        assert result.metrics.time.get("clone") > 0

    def test_mutating_mapper_cannot_corrupt_cache(self, m3r4):
        """A mapper that mutates its input must not damage cached data."""

        class Vandal(IdentityMapper):
            def map(self, key, value, output, reporter):
                output.collect(key, value)
                value.set("VANDALIZED")  # mutate after emit — legal in Hadoop

        seeded_input(m3r4, n=8)
        conf = identity_job("/in", "/out1")
        conf.set_mapper_class(Vandal)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        assert m3r4.run_job(conf).succeeded
        # The cached input still serves pristine values to the next job.
        result = m3r4.run_job(identity_job("/in", "/out2"))
        assert result.succeeded
        values = {str(v) for _, v in m3r4.filesystem.read_kv_pairs("/out2")}
        assert "VANDALIZED" not in values


class TestDedup:
    def test_broadcast_dedup_savings_counted(self, m3r4):
        class Broadcast(IdentityMapper, ImmutableOutput):
            def __init__(self):
                self.payload = BytesWritable(b"p" * 2000)

            def map(self, key, value, output, reporter):
                for partition in range(4):
                    output.collect(IntWritable(partition), self.payload)

        m3r4.filesystem.write_pairs(
            "/in/part-00000", [(IntWritable(0), Text("seed"))], at_node=0
        )
        conf = identity_job("/in", "/out")
        conf.set_mapper_class(Broadcast)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        result = m3r4.run_job(conf)
        assert result.succeeded
        assert result.metrics.get("dedup_saved_bytes") == 0  # one pair per place
        # Now two pairs to the same remote place share the payload object.

        class DoubleBroadcast(Broadcast):
            def map(self, key, value, output, reporter):
                for partition in range(4):
                    output.collect(IntWritable(partition), self.payload)
                    output.collect(IntWritable(partition + 4), self.payload)

        conf = identity_job("/in", "/out2", reducers=8)
        conf.set_mapper_class(DoubleBroadcast)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        result = m3r4.run_job(conf)
        assert result.metrics.get("dedup_saved_bytes") > 0

    def test_dedup_disabled_charges_raw_bytes(self):
        engines = {
            flag: make_m3r(enable_dedup=flag) for flag in (True, False)
        }
        shuffles = {}
        for flag, engine in engines.items():
            class Broadcast(IdentityMapper, ImmutableOutput):
                def __init__(self):
                    self.payload = BytesWritable(b"p" * 2000)

                def map(self, key, value, output, reporter):
                    for k in range(8):
                        output.collect(IntWritable(k), self.payload)

            engine.filesystem.write_pairs(
                "/in/part-00000", [(IntWritable(0), Text("s"))], at_node=0
            )
            conf = identity_job("/in", "/out", reducers=8)
            conf.set_mapper_class(Broadcast)  # noqa: M3R007 - test-local class; ReStore bypass is intended
            result = engine.run_job(conf)
            shuffles[flag] = result.metrics.get("shuffle_remote_bytes")
        assert shuffles[True] < shuffles[False]


class TestSplitExtensions:
    def test_placed_split_overrides_locality(self, m3r4):
        class PinnedSplit(InputSplit, PlacedSplit, NamedSplit):
            def __init__(self, partition):
                self._partition = partition

            def get_length(self):
                return 10

            def get_locations(self):
                return ["node00"]  # locality says 0, PlacedSplit says otherwise

            def get_partition(self):
                return self._partition

            def get_name(self):
                return f"pinned-{self._partition}"

        split = PinnedSplit(3)
        assert m3r4._place_for_split(split, 0, None) == 3

    def test_named_split_caching(self, m3r4):
        calls = {"reads": 0}

        class CountingReaderImpl(RecordReader):
            def __init__(self):
                self._emitted = False

            def next_pair(self):
                if self._emitted:
                    return None
                self._emitted = True
                calls["reads"] += 1
                return IntWritable(1), Text("generated")

        class NamedGeneratorSplit(InputSplit, NamedSplit):
            def get_length(self):
                return 16

            def get_locations(self):
                return []

            def get_name(self):
                return "generator-data"

        class GeneratorFormat(InputFormat):
            def get_splits(self, fs, conf, num_splits):
                return [NamedGeneratorSplit()]

            def get_record_reader(self, fs, split, conf, reporter):
                return CountingReaderImpl()

        conf = identity_job("/ignored", "/out1")
        conf.set_input_format(GeneratorFormat)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        conf.set_input_paths("/ignored")
        assert m3r4.run_job(conf).succeeded
        assert calls["reads"] == 1
        conf2 = identity_job("/ignored", "/out2")
        conf2.set_input_format(GeneratorFormat)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        assert m3r4.run_job(conf2).succeeded
        assert calls["reads"] == 1  # second job served from the cache
        assert m3r4.cache.get_named("generator-data") is not None

    def test_unknown_split_bypasses_cache(self, m3r4):
        class OpaqueSplit(InputSplit):
            def get_length(self):
                return 4

            def get_locations(self):
                return []

        class OpaqueFormat(InputFormat):
            def get_splits(self, fs, conf, num_splits):
                return [OpaqueSplit()]

            def get_record_reader(self, fs, split, conf, reporter):
                class R(RecordReader):
                    done = False

                    def next_pair(self):
                        if R.done:
                            return None
                        R.done = True
                        return IntWritable(1), Text("opaque")

                return R()

        conf = identity_job("/ignored", "/out")
        conf.set_input_format(OpaqueFormat)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        result = m3r4.run_job(conf)
        assert result.succeeded
        assert result.metrics.get("cache_inserts") == 0


class TestNoResilience:
    def test_node_failure_kills_job(self, m3r4):
        seeded_input(m3r4)
        m3r4.fail_nodes.add(1)
        with pytest.raises(JobFailedError):
            m3r4.run_job(identity_job("/in", "/out"))

    def test_user_code_failure_still_reported(self, m3r4):
        class Exploding(IdentityMapper):
            def map(self, key, value, output, reporter):
                raise RuntimeError("boom")

        seeded_input(m3r4)
        conf = identity_job("/in", "/out")
        conf.set_mapper_class(Exploding)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        result = m3r4.run_job(conf)
        assert not result.succeeded and "boom" in result.error


class TestSmallJobLatency:
    def test_small_job_runs_essentially_instantly(self, m3r4):
        """Paper Section 1: 'small HMR jobs can run essentially instantly
        on M3R, avoiding the huge (10s of second) start-up cost'."""
        seeded_input(m3r4, n=8)
        result = m3r4.run_job(identity_job("/in", "/out"))
        assert result.simulated_seconds < 1.0
        assert result.metrics.time.get("jvm_startup") == 0.0
        assert result.metrics.time.get("scheduling") == 0.0
