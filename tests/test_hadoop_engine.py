"""The baseline Hadoop engine: scheduling, costs, counters, resilience."""

from __future__ import annotations

import pytest

from repro.api.conf import JobConf
from repro.api.counters import JobCounter, TaskCounter
from repro.api.formats import SequenceFileInputFormat, SequenceFileOutputFormat
from repro.api.job import JobSequence
from repro.api.mapred import IdentityMapper, IdentityReducer
from repro.api.writables import IntWritable, Text
from repro.apps.wordcount import SumReducer, WordCountMapperImmutable, generate_text, wordcount_job
from repro.hadoop_engine.scheduler import SlotLanes, place_map_tasks, reduce_node_for
from repro.api.splits import FileSplit
from repro.sim import Cluster

from conftest import make_hadoop


class TestScheduler:
    def test_slot_lanes_pack_greedily(self):
        lanes = SlotLanes(num_nodes=1, slots=2)
        for duration in (4.0, 3.0, 2.0, 1.0):
            lanes.add_task(0, duration)
        assert lanes.makespan() == 5.0  # (4+1) vs (3+2)
        assert lanes.total_work() == 10.0

    def test_slot_lanes_validation(self):
        with pytest.raises(ValueError):
            SlotLanes(0, 1)
        lanes = SlotLanes(1, 1)
        with pytest.raises(ValueError):
            lanes.add_task(0, -1)

    def test_map_placement_prefers_local(self):
        cluster = Cluster(4)
        splits = [FileSplit(f"/f{i}", 0, 100, hosts=[f"node{i:02d}"]) for i in range(4)]
        placements, data_local = place_map_tasks(splits, cluster)
        assert placements == [0, 1, 2, 3]
        assert data_local == 4

    def test_map_placement_balances_overload(self):
        cluster = Cluster(4)
        # Ten splits all claiming node00: most must spill elsewhere.
        splits = [FileSplit(f"/f{i}", 0, 100, hosts=["node00"]) for i in range(10)]
        placements, data_local = place_map_tasks(splits, cluster)
        assert len(set(placements)) > 1
        assert data_local < 10

    def test_reduce_placement_varies_across_jobs(self):
        """No partition stability: a partition moves between jobs."""
        nodes = {reduce_node_for(f"job_{i}", 3, 8) for i in range(30)}
        assert len(nodes) > 1

    def test_reduce_placement_deterministic_within_job(self):
        assert reduce_node_for("salt", 2, 8) == reduce_node_for("salt", 2, 8)


class TestJobExecution:
    def test_wordcount_output_and_counters(self, hadoop4):
        text = generate_text(200)
        hadoop4.filesystem.write_text("/in.txt", text)
        result = hadoop4.run_job(wordcount_job("/in.txt", "/out", 4))
        assert result.succeeded
        counts = {
            str(k): v.get() for k, v in hadoop4.filesystem.read_kv_pairs("/out")
        }
        from collections import Counter

        assert counts == dict(Counter(text.split()))
        counters = result.counters
        assert counters.value(TaskCounter.MAP_INPUT_RECORDS) == 200
        assert counters.value(TaskCounter.MAP_OUTPUT_RECORDS) == len(text.split())
        assert counters.value(JobCounter.TOTAL_LAUNCHED_REDUCES) == 4
        assert counters.value(TaskCounter.REDUCE_OUTPUT_RECORDS) == len(counts)
        # combiner ran and compressed the shuffle
        assert counters.value(TaskCounter.COMBINE_INPUT_RECORDS) > counters.value(
            TaskCounter.COMBINE_OUTPUT_RECORDS
        )

    def test_small_job_pays_startup(self, hadoop4):
        hadoop4.filesystem.write_text("/in.txt", "tiny\n")
        result = hadoop4.run_job(wordcount_job("/in.txt", "/out", 2))
        # Submission + cleanup alone are 8 simulated seconds.
        assert result.simulated_seconds > 8.0
        assert result.metrics.time.get("jvm_startup") > 0
        assert result.metrics.time.get("scheduling") > 0

    def test_sequence_pays_io_every_job(self, hadoop4):
        """No cross-job cache: both jobs read from the filesystem."""
        pairs = [(IntWritable(i), Text("v" * 50)) for i in range(100)]
        hadoop4.filesystem.write_pairs("/in/part-00000", pairs)

        def identity_job(src, dst):
            conf = JobConf()
            conf.set_job_name("identity")
            conf.set_input_paths(src)
            conf.set_input_format(SequenceFileInputFormat)
            conf.set_mapper_class(IdentityMapper)
            conf.set_reducer_class(IdentityReducer)
            conf.set_output_format(SequenceFileOutputFormat)
            conf.set_output_path(dst)
            conf.set_num_reduce_tasks(2)
            return conf

        results = hadoop4.run_sequence(
            JobSequence([identity_job("/in", "/mid"), identity_job("/mid", "/fin")])
        )
        assert all(r.succeeded for r in results)
        assert results[1].metrics.time.get("disk_read") > 0
        assert results[1].metrics.time.get("deserialize") > 0
        assert len(hadoop4.filesystem.read_kv_pairs("/fin")) == 100

    def test_map_only_job(self, hadoop4):
        pairs = [(IntWritable(i), Text(str(i))) for i in range(10)]
        hadoop4.filesystem.write_pairs("/in/part-00000", pairs)
        conf = JobConf()
        conf.set_job_name("maponly")
        conf.set_input_paths("/in")
        conf.set_input_format(SequenceFileInputFormat)
        conf.set_mapper_class(IdentityMapper)
        conf.set_output_format(SequenceFileOutputFormat)
        conf.set_output_path("/out")
        conf.set_num_reduce_tasks(0)
        result = hadoop4.run_job(conf)
        assert result.succeeded
        assert sorted(k.get() for k, _ in hadoop4.filesystem.read_kv_pairs("/out")) == list(range(10))
        assert result.counters.value(JobCounter.TOTAL_LAUNCHED_REDUCES) == 0

    def test_user_code_failure_reported_not_raised(self, hadoop4):
        class Exploding(IdentityMapper):
            def map(self, key, value, output, reporter):
                raise RuntimeError("user bug")

        hadoop4.filesystem.write_pairs("/in/part-00000", [(IntWritable(1), Text("x"))])
        conf = JobConf()
        conf.set_input_paths("/in")
        conf.set_input_format(SequenceFileInputFormat)
        conf.set_mapper_class(Exploding)  # noqa: M3R007 - test-local class; ReStore bypass is intended
        conf.set_output_format(SequenceFileOutputFormat)
        conf.set_output_path("/out")
        result = hadoop4.run_job(conf)
        assert not result.succeeded
        assert "user bug" in result.error

    def test_output_exists_fails_job(self, hadoop4):
        hadoop4.filesystem.mkdirs("/out")
        hadoop4.filesystem.write_text("/in.txt", "x\n")
        result = hadoop4.run_job(wordcount_job("/in.txt", "/out", 1))
        assert not result.succeeded
        assert "exists" in result.error

    def test_deterministic_simulated_time(self):
        times = []
        for _ in range(2):
            engine = make_hadoop()
            engine.filesystem.write_text("/in.txt", generate_text(100))
            times.append(
                engine.run_job(wordcount_job("/in.txt", "/out", 4)).simulated_seconds
            )
        assert times[0] == times[1]


class TestResilience:
    def test_survives_node_failure(self, hadoop4):
        hadoop4.filesystem.write_text("/in.txt", generate_text(100))
        # Enough reducers that some certainly land on the failing node.
        healthy = hadoop4.run_job(wordcount_job("/in.txt", "/out1", 16))
        hadoop4.fail_nodes.add(2)
        degraded = hadoop4.run_job(wordcount_job("/in.txt", "/out2", 16))
        assert degraded.succeeded
        assert (
            dict(hadoop4.filesystem.read_kv_pairs("/out1"))
            == dict(hadoop4.filesystem.read_kv_pairs("/out2"))
        )
        # Failover costs time: dead-tasktracker detection before the re-run.
        assert degraded.metrics.get("reduce_task_failovers") > 0
        assert degraded.simulated_seconds > healthy.simulated_seconds

    def test_all_nodes_dead_is_fatal(self, hadoop4):
        hadoop4.filesystem.write_text("/in.txt", "x\n")
        hadoop4.fail_nodes.update(range(4))
        result = hadoop4.run_job(wordcount_job("/in.txt", "/out", 2))
        assert not result.succeeded
