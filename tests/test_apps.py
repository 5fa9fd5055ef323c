"""Application library: matvec numerics, microbenchmark, repartitioning."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.apps import matvec
from repro.apps.microbenchmark import (
    MicrobenchmarkResult,
    ModPartitioner,
    REMOTE_PERCENT_KEY,
    RemoteFractionMapper,
    generate_input,
    microbenchmark_job,
    run_microbenchmark,
)
from repro.apps.repartition import repartition_job
from repro.apps.wordcount import generate_text
from repro.api.conf import JobConf
from repro.api.writables import BlockIndexWritable, IntWritable

from conftest import make_hadoop, make_m3r


class TestMatvecNumerics:
    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_one_iteration_matches_numpy(self, factory):
        rows, block, nodes = 300, 60, 4
        engine = factory()
        num_row_blocks = (rows + block - 1) // block
        g = matvec.generate_blocked_matrix(rows, block, sparsity=0.05, seed=3)
        v = matvec.generate_blocked_vector(rows, block, seed=4)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks, nodes)
        matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks, nodes)
        expected = matvec.reference_multiply(g, v, rows, block)
        sequence = matvec.iteration_jobs("/G", "/V0", "/V1", "/tmp", 0,
                                         num_row_blocks, nodes)
        sequence.run_all(engine)
        got = np.zeros(rows)
        for key, value in engine.filesystem.read_kv_pairs("/V1"):
            start = key.row * block
            got[start : start + len(value.values)] = value.values
        assert np.allclose(got, expected, atol=1e-9)

    def test_three_iterations_match_numpy(self):
        rows, block, nodes = 200, 50, 4
        engine = make_m3r()
        num_row_blocks = (rows + block - 1) // block
        g = matvec.generate_blocked_matrix(rows, block, sparsity=0.05, seed=7)
        v = matvec.generate_blocked_vector(rows, block, seed=8)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks, nodes)
        matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks, nodes)
        dense_g = np.zeros((rows, rows))
        for key, value in g:
            r0, c0 = key.row * block, key.col * block
            blk = value.matrix.toarray()
            dense_g[r0 : r0 + blk.shape[0], c0 : c0 + blk.shape[1]] = blk
        expected = matvec.blocked_vector_to_array(v, rows)
        current = "/V0"
        for i in range(3):
            expected = dense_g @ expected
            nxt = f"/V{i+1}"
            matvec.iteration_jobs("/G", current, nxt, "/tmp", i,
                                  num_row_blocks, nodes).run_all(engine)
            current = nxt
        got = np.zeros(rows)
        for key, value in engine.filesystem.read_kv_pairs(current):
            start = key.row * block
            got[start : start + len(value.values)] = value.values
        assert np.allclose(got, expected, atol=1e-8)

    def test_second_job_shuffles_locally_on_m3r(self):
        """The paper's partition-stability showcase: job 2 of an iteration
        needs zero communication."""
        rows, block, nodes = 400, 100, 4
        engine = make_m3r()
        num_row_blocks = (rows + block - 1) // block
        g = matvec.generate_blocked_matrix(rows, block, sparsity=0.05)
        v = matvec.generate_blocked_vector(rows, block)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks, nodes)
        matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks, nodes)
        results = matvec.iteration_jobs("/G", "/V0", "/V1", "/tmp", 0,
                                        num_row_blocks, nodes).run_all(engine)
        sum_job_metrics = results[1].metrics
        assert sum_job_metrics.get("shuffle_remote_records") == 0
        assert sum_job_metrics.get("shuffle_local_records") > 0

    def test_row_chunk_partitioner_contiguity(self):
        partitioner = matvec.RowChunkPartitioner()
        conf = JobConf()
        conf.set_int(matvec.NUM_ROW_BLOCKS_KEY, 8)
        partitioner.configure(conf)
        assignments = [
            partitioner.get_partition(BlockIndexWritable(row, 0), None, 4)
            for row in range(8)
        ]
        assert assignments == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_generators_are_deterministic(self):
        a = matvec.generate_blocked_matrix(100, 50, sparsity=0.1, seed=1)
        b = matvec.generate_blocked_matrix(100, 50, sparsity=0.1, seed=1)
        assert len(a) == len(b)
        for (ka, va), (kb, vb) in zip(a, b):
            assert ka == kb and va == vb


class TestMicrobenchmark:
    def test_mod_partitioner(self):
        p = ModPartitioner()
        assert p.get_partition(IntWritable(13), None, 4) == 1

    def test_remote_decision_deterministic(self):
        mapper = RemoteFractionMapper()
        conf = microbenchmark_job("/in", "/out", 50, 4, seed=9)
        mapper.configure(conf)
        first = [mapper._goes_remote(k) for k in range(100)]
        second = [mapper._goes_remote(k) for k in range(100)]
        assert first == second
        assert 20 < sum(first) < 80  # roughly half at 50%

    def test_extremes(self):
        """The certain coins (at or beyond 0 and 100, decided without a
        hash) and the uncertain ones decide as the hashed rule does."""
        for percent, seed in itertools.product([0, 100, -5, 150, 1, 50, 99], range(4)):
            conf = microbenchmark_job("/in", "/out", 50, 4, seed=seed)
            conf.set_int(REMOTE_PERCENT_KEY, percent)  # past the job's range check
            mapper = RemoteFractionMapper()
            mapper.configure(conf)
            got = [mapper._goes_remote(k) for k in range(1000)]
            rule = [
                hashlib.md5(f"{seed}:{k}".encode("ascii")).digest()[0] * 100
                < percent * 256
                for k in range(1000)
            ]
            assert got == rule
            if percent <= 0 or percent >= 100:
                assert got == [percent > 0] * 1000

    def test_invalid_percent_rejected(self):
        with pytest.raises(ValueError):
            microbenchmark_job("/in", "/out", 101, 4)

    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_runs_end_to_end(self, factory):
        engine = factory()
        result = run_microbenchmark(engine, 40, num_pairs=120, value_bytes=64,
                                    num_reducers=4)
        assert isinstance(result, MicrobenchmarkResult)
        assert len(result.iteration_seconds) == 3
        assert all(t > 0 for t in result.iteration_seconds)
        # Final output exists; intermediates were deleted.
        finals = engine.filesystem.list_files_recursive(
            "/micro/output-r40-i2"
        )
        assert finals

    def test_pair_count_preserved(self):
        engine = make_m3r()
        generate_input(engine.filesystem, "/m/in", 100, 32, 4)
        result = engine.run_job(microbenchmark_job("/m/in", "/m/out", 30, 4))
        assert result.succeeded
        assert len(engine.filesystem.read_kv_pairs("/m/out")) == 100


class TestRepartition:
    def test_repartition_aligns_data(self):
        """After repartitioning scrambled data, an M3R job shuffles locally."""
        engine = make_m3r()
        generate_input(engine.filesystem, "/scrambled", 120, 32, 4,
                       partition_aligned=False)
        conf = repartition_job("/scrambled", "/aligned", 4,
                               partitioner_class=ModPartitioner)
        assert engine.run_job(conf).succeeded
        # The repartitioned (and cached) data now shuffles 0% remotely.
        follow = engine.run_job(microbenchmark_job("/aligned", "/out", 0, 4))
        assert follow.metrics.get("shuffle_remote_records") == 0
        assert len(engine.filesystem.read_kv_pairs("/out")) == 120

    def test_repartition_preserves_pairs(self):
        engine = make_hadoop()
        generate_input(engine.filesystem, "/scrambled", 60, 16, 4,
                       partition_aligned=False)
        before = sorted(
            k.get() for k, _ in engine.filesystem.read_kv_pairs("/scrambled")
        )
        conf = repartition_job("/scrambled", "/aligned", 4,
                               partitioner_class=ModPartitioner)
        assert engine.run_job(conf).succeeded
        after = sorted(
            k.get() for k, _ in engine.filesystem.read_kv_pairs("/aligned")
        )
        assert after == before


class TestTextGenerator:
    def test_deterministic(self):
        assert generate_text(50) == generate_text(50)

    def test_shape(self):
        text = generate_text(10, words_per_line=5)
        lines = text.strip().split("\n")
        assert len(lines) == 10
        assert all(len(line.split()) == 5 for line in lines)
