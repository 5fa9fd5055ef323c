"""MultipleInputs/MultipleOutputs and the distributed cache."""

from __future__ import annotations

import pytest

from repro.api.conf import JobConf
from repro.api.distcache import DistributedCache
from repro.api.formats import (
    SequenceFileInputFormat,
    SequenceFileOutputFormat,
    TextInputFormat,
    TextOutputFormat,
)
from repro.api.mapred import IdentityMapper, Mapper, Reporter
from repro.api.multiple_io import (
    DelegatingInputFormat,
    MultipleInputs,
    MultipleOutputs,
    TaggedInputSplit,
    TASK_FS_KEY,
    TASK_PARTITION_KEY,
)
from repro.api.writables import IntWritable, Text
from repro.apps.join import join_job
from repro.fs import InMemoryFileSystem

from conftest import make_hadoop, make_m3r


class AMapper(IdentityMapper):
    pass


class BMapper(IdentityMapper):
    pass


@pytest.fixture
def fs():
    return InMemoryFileSystem()


class TestMultipleInputs:
    def test_tagged_splits_per_path(self, fs):
        fs.write_pairs("/a/part-00000", [(IntWritable(1), Text("a"))])
        fs.write_text("/b.txt", "line\n")
        conf = JobConf()
        MultipleInputs.add_input_path(conf, "/a", SequenceFileInputFormat, AMapper)
        MultipleInputs.add_input_path(conf, "/b.txt", TextInputFormat, BMapper)
        assert conf.get_input_format() is DelegatingInputFormat
        splits = DelegatingInputFormat().get_splits(fs, conf, 4)
        tags = {(s.input_format_class, s.mapper_class) for s in splits}
        assert (SequenceFileInputFormat, AMapper) in tags
        assert (TextInputFormat, BMapper) in tags

    def test_same_path_twice_with_different_mappers(self, fs):
        fs.write_pairs("/a/part-00000", [(IntWritable(1), Text("a"))])
        conf = JobConf()
        MultipleInputs.add_input_path(conf, "/a", SequenceFileInputFormat, AMapper)
        MultipleInputs.add_input_path(conf, "/a", SequenceFileInputFormat, BMapper)
        splits = DelegatingInputFormat().get_splits(fs, conf, 4)
        mappers = sorted(s.mapper_class.__name__ for s in splits)
        assert mappers == ["AMapper", "BMapper"]
        assert conf.get_input_paths().count("/a") == 1

    def test_tagged_split_delegation(self, fs):
        fs.write_pairs("/a/part-00000", [(IntWritable(1), Text("a"))])
        conf = JobConf()
        MultipleInputs.add_input_path(conf, "/a", SequenceFileInputFormat, AMapper)
        split = DelegatingInputFormat().get_splits(fs, conf, 1)[0]
        assert isinstance(split, TaggedInputSplit)
        assert split.get_length() == split.get_delegate().get_length()
        reader = DelegatingInputFormat().get_record_reader(fs, split, conf, Reporter())
        assert list(reader) == [(IntWritable(1), Text("a"))]

    def test_unconfigured_raises(self, fs):
        with pytest.raises(ValueError):
            DelegatingInputFormat().get_splits(fs, JobConf(), 1)


class TestJoinOnBothEngines:
    LEFT = "1\talice\n2\tbob\n3\tcarol\n"
    RIGHT = "1\tapples\n1\tpears\n3\tplums\n"

    def run_join(self, engine):
        engine.filesystem.write_text("/left.txt", self.LEFT)
        engine.filesystem.write_text("/right.txt", self.RIGHT)
        result = engine.run_job(join_job("/left.txt", "/right.txt", "/out", 2))
        assert result.succeeded, result.error
        return sorted(
            (str(k), str(v)) for k, v in engine.filesystem.read_kv_pairs("/out")
        )

    def test_join_equivalent_on_both_engines(self):
        hadoop_rows = self.run_join(make_hadoop())
        m3r_rows = self.run_join(make_m3r())
        assert hadoop_rows == m3r_rows
        assert hadoop_rows == [
            ("1", "alice\tapples"),
            ("1", "alice\tpears"),
            ("3", "carol\tplums"),
        ]


class OutputsReducer(IdentityMapper):
    """Map-only task using MultipleOutputs for a side channel."""

    def configure(self, conf):
        self.mos = MultipleOutputs(conf)

    def map(self, key, value, output, reporter):
        output.collect(key, value)
        if key.get() % 2 == 0:
            self.mos.collect("evens", reporter, key, value)

    def close(self):
        self.mos.close()


class TestMultipleOutputs:
    def test_registration_validation(self):
        conf = JobConf()
        with pytest.raises(ValueError):
            MultipleOutputs.add_named_output(conf, "bad-name", TextOutputFormat,
                                             Text, Text)
        MultipleOutputs.add_named_output(conf, "good", TextOutputFormat, Text, Text)
        assert "good" in MultipleOutputs.get_named_outputs(conf)

    def test_needs_task_context(self):
        conf = JobConf()
        MultipleOutputs.add_named_output(conf, "x", TextOutputFormat, Text, Text)
        with pytest.raises(RuntimeError):
            MultipleOutputs(conf)

    def test_unregistered_name_rejected(self, fs):
        conf = JobConf()
        conf.set_output_path("/out")
        conf.set(TASK_FS_KEY, fs)
        conf.set(TASK_PARTITION_KEY, 0)
        MultipleOutputs.add_named_output(conf, "known", SequenceFileOutputFormat,
                                         IntWritable, Text)
        mos = MultipleOutputs(conf)
        with pytest.raises(KeyError):
            mos.collect("unknown", Reporter(), IntWritable(1), Text("x"))

    def test_side_outputs_through_engine(self):
        engine = make_m3r()
        engine.filesystem.write_pairs(
            "/in/part-00000",
            [(IntWritable(i), Text(f"v{i}")) for i in range(6)],
        )
        conf = JobConf()
        conf.set_job_name("mos")
        conf.set_input_paths("/in")
        conf.set_input_format(SequenceFileInputFormat)
        conf.set_mapper_class(OutputsReducer)
        conf.set_output_format(SequenceFileOutputFormat)
        conf.set_output_path("/out")
        conf.set_num_reduce_tasks(0)
        MultipleOutputs.add_named_output(conf, "evens", SequenceFileOutputFormat,
                                         IntWritable, Text)
        result = engine.run_job(conf)
        assert result.succeeded, result.error
        main = [
            pair
            for status in engine.filesystem.list_files_recursive("/out")
            if status.path.rsplit("/", 1)[-1].startswith("part-")
            for pair in engine.filesystem.read_pairs(status.path)
        ]
        assert len(main) == 6
        evens = [
            k.get()
            for status in engine.filesystem.list_files_recursive("/out")
            if status.path.rsplit("/", 1)[-1].startswith("evens-r-")
            for k, _ in engine.filesystem.read_pairs(status.path)
        ]
        assert sorted(evens) == [0, 2, 4]


class TestDistributedCache:
    def test_register_and_list(self):
        conf = JobConf()
        DistributedCache.add_cache_file("/side/model.bin", conf)
        DistributedCache.add_cache_file("/side/model.bin", conf)  # dedup
        DistributedCache.add_cache_file("/side/dict.txt", conf)
        assert DistributedCache.get_cache_files(conf) == [
            "/side/model.bin", "/side/dict.txt",
        ]

    def test_archives(self):
        conf = JobConf()
        DistributedCache.add_cache_archive("/side/bundle.zip", conf)
        assert DistributedCache.get_cache_archives(conf) == ["/side/bundle.zip"]

    def test_local_files_visible_to_tasks(self, fs):
        conf = JobConf()
        fs.write_text("/side/dict.txt", "a\nb\n")
        DistributedCache.add_cache_file("/side/dict.txt", conf)
        local = DistributedCache.get_local_cache_files(conf)
        assert local == ["/side/dict.txt"]
        assert fs.read_text(local[0]) == "a\nb\n"

    def test_total_bytes(self, fs):
        conf = JobConf()
        fs.write_text("/side/a", "12345")
        DistributedCache.add_cache_file("/side/a", conf)
        DistributedCache.add_cache_file("/side/missing", conf)
        assert DistributedCache.total_cache_bytes(conf, fs) == 5

    def test_mapper_can_use_cache_file(self):
        """End-to-end: a mapper loads a side dictionary during configure."""

        class FilterByDictionary(Mapper):
            def configure(self, conf):
                fs = conf.get(TASK_FS_KEY)
                path = DistributedCache.get_local_cache_files(conf)[0]
                self.allowed = set(fs.read_text(path).split())

            def map(self, key, value, output, reporter):
                if value.to_string() in self.allowed:
                    output.collect(key, value)

        engine = make_hadoop()
        engine.filesystem.write_text("/side/allowed.txt", "keep\n")
        engine.filesystem.write_pairs(
            "/in/part-00000",
            [(IntWritable(0), Text("keep")), (IntWritable(1), Text("drop"))],
        )
        conf = JobConf()
        conf.set_input_paths("/in")
        conf.set_input_format(SequenceFileInputFormat)
        conf.set_mapper_class(FilterByDictionary)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        conf.set_output_format(SequenceFileOutputFormat)
        conf.set_output_path("/out")
        conf.set_num_reduce_tasks(1)
        DistributedCache.add_cache_file("/side/allowed.txt", conf)
        result = engine.run_job(conf)
        assert result.succeeded, result.error
        values = [str(v) for _, v in engine.filesystem.read_kv_pairs("/out")]
        assert values == ["keep"]
