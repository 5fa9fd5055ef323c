"""The output-commit protocol: _SUCCESS markers and failure behaviour."""

from __future__ import annotations

import pytest

from repro.api.conf import JobConf
from repro.api.formats import SequenceFileInputFormat, SequenceFileOutputFormat
from repro.api.mapred import IdentityMapper, IdentityReducer
from repro.api.writables import IntWritable, Text
from repro.apps.wordcount import generate_text, wordcount_job

from conftest import make_hadoop, make_m3r


def identity_conf(src, dst, reducers=2):
    conf = JobConf()
    conf.set_input_paths(src)
    conf.set_input_format(SequenceFileInputFormat)
    conf.set_mapper_class(IdentityMapper)
    conf.set_reducer_class(IdentityReducer)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_output_path(dst)
    conf.set_num_reduce_tasks(reducers)
    return conf


class TestSuccessMarker:
    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_marker_written_on_success(self, factory):
        engine = factory()
        engine.filesystem.write_text("/in.txt", generate_text(40))
        result = engine.run_job(wordcount_job("/in.txt", "/out", 2))
        assert result.succeeded
        assert engine.filesystem.exists("/out/_SUCCESS")

    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_no_marker_on_failure(self, factory):
        class Exploding(IdentityMapper):
            def map(self, key, value, output, reporter):
                raise RuntimeError("boom")

        engine = factory()
        engine.filesystem.write_pairs("/in/part-00000", [(IntWritable(1), Text("x"))])
        conf = identity_conf("/in", "/out")
        conf.set_mapper_class(Exploding)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        result = engine.run_job(conf)
        assert not result.succeeded
        assert not engine.filesystem.exists("/out/_SUCCESS")

    def test_temp_output_gets_no_marker_on_m3r(self):
        engine = make_m3r()
        engine.filesystem.write_pairs("/in/part-00000",
                                      [(IntWritable(1), Text("x"))])
        result = engine.run_job(identity_conf("/in", "/work/temp-x"))
        assert result.succeeded
        # nothing was flushed, including the marker
        assert not engine.raw_filesystem.exists("/work/temp-x/_SUCCESS")
        assert not engine.raw_filesystem.exists("/work/temp-x")

    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_marker_ignored_by_downstream_jobs(self, factory):
        engine = factory()
        engine.filesystem.write_pairs(
            "/in/part-00000", [(IntWritable(i), Text("v")) for i in range(6)]
        )
        assert engine.run_job(identity_conf("/in", "/mid")).succeeded
        assert engine.run_job(identity_conf("/mid", "/fin")).succeeded
        assert len(engine.filesystem.read_kv_pairs("/fin")) == 6

    def test_map_only_job_commits(self):
        engine = make_m3r()
        engine.filesystem.write_pairs("/in/part-00000",
                                      [(IntWritable(1), Text("x"))])
        conf = identity_conf("/in", "/out", reducers=0)
        assert engine.run_job(conf).succeeded
        assert engine.filesystem.exists("/out/_SUCCESS")
