"""Edge cases across layers: empty data, degenerate shapes, boundary sizes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.conf import JobConf
from repro.api.formats import SequenceFileInputFormat, SequenceFileOutputFormat
from repro.api.mapred import IdentityMapper, IdentityReducer, Mapper
from repro.api.writables import IntWritable, Text
from repro.apps.microbenchmark import generate_input, microbenchmark_job
from repro.apps.wordcount import wordcount_job
from repro.mrlib import MatrixContext
from repro.pig import PigRunner
from repro.sysml import run_script
from repro.sysml.matrix import read_matrix_as_dense, write_dense_matrix

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


class TestEmptyInputs:
    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_empty_pair_file(self, factory):
        engine = factory()
        engine.filesystem.write_pairs("/in/part-00000", [])
        result = engine.run_job(identity_conf("/in", "/out"))
        assert result.succeeded, result.error
        assert engine.filesystem.read_kv_pairs("/out") == []

    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_empty_text_wordcount(self, factory):
        engine = factory()
        engine.filesystem.write_text("/in.txt", "")
        result = engine.run_job(wordcount_job("/in.txt", "/out", 2))
        assert result.succeeded, result.error
        assert engine.filesystem.read_kv_pairs("/out") == []

    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_mapper_dropping_everything(self, factory):
        class DropAll(Mapper):
            def map(self, key, value, output, reporter):
                pass

        engine = factory()
        engine.filesystem.write_pairs(
            "/in/part-00000", [(IntWritable(i), Text("x")) for i in range(5)]
        )
        conf = identity_conf("/in", "/out")
        conf.set_mapper_class(DropAll)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        result = engine.run_job(conf)
        assert result.succeeded
        assert engine.filesystem.read_kv_pairs("/out") == []


class TestDegenerateShapes:
    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_single_node_cluster(self, factory):
        engine = factory(num_nodes=1)
        engine.filesystem.write_text("/in.txt", "one two one\n")
        result = engine.run_job(wordcount_job("/in.txt", "/out", 1))
        assert result.succeeded
        counts = {str(k): v.get() for k, v in engine.filesystem.read_kv_pairs("/out")}
        assert counts == {"one": 2, "two": 1}

    def test_more_reducers_than_places(self):
        engine = make_m3r()  # 4 places
        generate_input(engine.filesystem, "/in", 64, 32, 16)
        result = engine.run_job(microbenchmark_job("/in", "/out", 0, 16))
        assert result.succeeded
        assert len(engine.filesystem.read_kv_pairs("/out")) == 64

    def test_single_reducer(self):
        engine = make_m3r()
        generate_input(engine.filesystem, "/in", 32, 32, 1)
        result = engine.run_job(microbenchmark_job("/in", "/out", 50, 1))
        assert result.succeeded
        # With one partition everything is "local" to place 0.
        assert result.metrics.get("shuffle_remote_records") == 0

    def test_one_by_one_matrix(self):
        ctx = MatrixContext(make_m3r(), block_size=1, num_partitions=2)
        A = ctx.from_numpy("/m/a", np.array([[3.0]]))
        assert (A @ A).to_numpy()[0, 0] == 9.0
        assert A.sum() == 3.0

    def test_block_size_larger_than_matrix(self):
        ctx = MatrixContext(make_m3r(), block_size=100, num_partitions=2)
        a = np.arange(6.0).reshape(2, 3)
        A = ctx.from_numpy("/m/a", a)
        assert A.row_blocks == 1 and A.col_blocks == 1
        assert np.allclose(A.T.to_numpy(), a.T)

    def test_sysml_single_block(self):
        engine = make_m3r()
        handle = write_dense_matrix(engine.filesystem, "/a", np.eye(3), 10, 2)
        env, _ = run_script("B = A %*% A\ns = sum(B)", engine,
                            inputs={"A": handle}, block_size=10, num_reducers=2)
        assert env["s"] == 3.0
        assert np.allclose(read_matrix_as_dense(engine.filesystem, env["B"]),
                           np.eye(3))


class TestPigEdgeCases:
    def run(self, script, data, factory=make_m3r):
        engine = factory()
        engine.filesystem.write_text("/d.txt", data)
        runner = PigRunner(engine, num_reducers=2)
        runner.run(script)
        return runner

    def test_filter_drops_all_rows(self):
        runner = self.run(
            "x = LOAD '/d.txt' AS (k, v); f = FILTER x BY v > 100;"
            " STORE f INTO '/out';",
            "a\t1\nb\t2\n",
        )
        assert runner.read_output("/out") == []

    def test_group_empty_relation(self):
        runner = self.run(
            "x = LOAD '/d.txt' AS (k, v); f = FILTER x BY v > 100;"
            " g = GROUP f BY k;"
            " s = FOREACH g GENERATE group, COUNT(f);"
            " STORE s INTO '/out';",
            "a\t1\n",
        )
        assert runner.read_output("/out") == []

    def test_limit_larger_than_data(self):
        runner = self.run(
            "x = LOAD '/d.txt' AS (k); t = LIMIT x 50; STORE t INTO '/out';",
            "a\nb\n",
        )
        assert sorted(runner.read_output("/out")) == ["a", "b"]

    def test_order_single_row(self):
        runner = self.run(
            "x = LOAD '/d.txt' AS (k, v); o = ORDER x BY v DESC;"
            " STORE o INTO '/out';",
            "solo\t9\n",
        )
        assert runner.read_output("/out") == ["solo\t9"]

    def test_join_with_no_matches(self):
        engine = make_m3r()
        engine.filesystem.write_text("/l.txt", "1\ta\n")
        engine.filesystem.write_text("/r.txt", "2\tb\n")
        runner = PigRunner(engine, num_reducers=2)
        runner.run("l = LOAD '/l.txt' AS (k, v); r = LOAD '/r.txt' AS (k2, w);"
                   " j = JOIN l BY k, r BY k2; STORE j INTO '/out';")
        assert runner.read_output("/out") == []

    def test_rows_with_missing_fields_padded(self):
        runner = self.run(
            "x = LOAD '/d.txt' AS (a, b, c); p = FOREACH x GENERATE c, a;"
            " STORE p INTO '/out';",
            "1\t2\n",  # only two of three fields present
        )
        assert runner.read_output("/out") == ["\t1"]


class TestSysmlEdgeCases:
    def test_empty_for_loop(self):
        engine = make_m3r()
        env, _ = run_script("x = 5\nfor (i in 2:1) { x = 99 }", engine,
                            num_reducers=2)
        assert env["x"] == 5.0  # R's 2:1 would iterate; ours treats as empty

    def test_deeply_nested_expression(self):
        engine = make_m3r()
        env, _ = run_script("x = ((((1 + 2) * 3) - 4) / 5) ^ 2", engine,
                            num_reducers=2)
        assert env["x"] == 1.0

    def test_matrix_sparsity_zero(self):
        """An all-zero sparse matrix flows through the whole pipeline."""
        engine = make_m3r()
        from repro.sysml.matrix import generate_matrix

        handle = generate_matrix(engine.filesystem, "/z", 40, 40, 20,
                                 sparsity=0.0, seed=1, num_partitions=2)
        env, _ = run_script("s = sum(Z)", engine, inputs={"Z": handle},
                            block_size=20, num_reducers=2)
        assert env["s"] == 0.0


class TestUnicodeAndSpecialContent:
    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_unicode_words(self, factory):
        engine = factory()
        engine.filesystem.write_text("/in.txt", "héllo wörld héllo 日本\n")
        result = engine.run_job(wordcount_job("/in.txt", "/out", 2))
        assert result.succeeded
        counts = {str(k): v.get() for k, v in engine.filesystem.read_kv_pairs("/out")}
        assert counts == {"héllo": 2, "wörld": 1, "日本": 1}

    def test_keys_with_tabs_and_newlines_in_values(self):
        engine = make_m3r()
        weird = [(IntWritable(0), Text("tab\there")), (IntWritable(1), Text("nl"))]
        engine.filesystem.write_pairs("/in/part-00000", weird)
        result = engine.run_job(identity_conf("/in", "/out"))
        assert result.succeeded
        values = sorted(str(v) for _, v in engine.filesystem.read_kv_pairs("/out"))
        assert values == ["nl", "tab\there"]
