"""Performance-model validation: the scaling laws behind the figures.

These tests pin the *structural* properties of the simulated times — the
properties the paper's evaluation rests on.  If a cost-model or engine
change breaks one of these, the benchmark figures will silently drift;
failing here localizes the regression.
"""

from __future__ import annotations

import pytest

from repro.api.conf import JobConf
from repro.api.counters import JobCounter, TaskCounter
from repro.api.formats import SequenceFileOutputFormat, TextInputFormat
from repro.api.mapred import IdentityMapper
from repro.apps.microbenchmark import generate_input, microbenchmark_job, run_microbenchmark
from repro.apps.wordcount import generate_text, wordcount_job

from conftest import make_hadoop, make_m3r


class TestHadoopScalingLaws:
    def test_fixed_floor_for_tiny_jobs(self):
        """Any Hadoop job pays at least submit + cleanup + one task wave."""
        engine = make_hadoop()
        engine.filesystem.write_text("/in.txt", "x\n")
        t = engine.run_job(wordcount_job("/in.txt", "/out", 1)).simulated_seconds
        model = engine.cost_model
        floor = (model.hadoop_job_submit + model.hadoop_job_cleanup
                 + model.jvm_startup + model.task_scheduling)
        assert t >= floor

    def test_time_grows_with_input(self):
        times = []
        for lines in (200, 2000, 20000):
            engine = make_hadoop()
            engine.filesystem.write_text("/in.txt", generate_text(lines))
            times.append(
                engine.run_job(wordcount_job("/in.txt", "/out", 4)).simulated_seconds
            )
        assert times[0] < times[1] < times[2]

    def test_per_job_cost_constant_across_sequence(self):
        """No cross-job amortization on the stock engine."""
        engine = make_hadoop()
        generate_input(engine.filesystem, "/in", 100, 256, 4)
        result = run_microbenchmark(engine, 0, num_pairs=100, value_bytes=256,
                                    num_reducers=4)
        first, second, third = result.iteration_seconds
        assert second == pytest.approx(first, rel=0.1)
        assert third == pytest.approx(first, rel=0.1)

    def test_remote_fraction_irrelevant(self):
        """Figure 6 left: the flat line, as a law."""
        times = []
        for remote in (0, 50, 100):
            engine = make_hadoop()
            result = run_microbenchmark(engine, remote, num_pairs=200,
                                        value_bytes=512, num_reducers=4)
            times.append(sum(result.iteration_seconds))
        spread = max(times) - min(times)
        assert spread < 0.05 * max(times)


class TestM3RScalingLaws:
    def test_no_startup_or_scheduling_terms(self):
        engine = make_m3r()
        engine.filesystem.write_text("/in.txt", generate_text(200))
        result = engine.run_job(wordcount_job("/in.txt", "/out", 4))
        assert result.metrics.time.get("jvm_startup") == 0.0
        assert result.metrics.time.get("scheduling") == 0.0
        assert result.metrics.time.get("job_submit") == pytest.approx(
            engine.cost_model.m3r_job_submit
        )

    def test_cache_saving_equals_read_plus_deserialize(self):
        """Iteration 2's saving is exactly the input path's I/O terms."""
        engine = make_m3r()
        generate_input(engine.filesystem, "/in", 200, 2048, 4)
        first = engine.run_job(microbenchmark_job("/in", "/a", 0, 4, seed=1))
        second = engine.run_job(microbenchmark_job("/in", "/b", 0, 4, seed=1))
        saved = first.simulated_seconds - second.simulated_seconds
        io_terms = (
            first.metrics.time.get("disk_read")
            + first.metrics.time.get("deserialize")
            + first.metrics.time.get("namenode")
        )
        # Charges are spread over parallel lanes; the wall-clock saving is
        # the per-lane share of the I/O terms.
        assert saved > 0
        assert saved <= io_terms
        assert second.metrics.time.get("disk_read") == 0.0

    def test_remote_fraction_slope_is_linear(self):
        engine_times = []
        for remote in (0, 50, 100):
            engine = make_m3r()
            result = run_microbenchmark(engine, remote, num_pairs=400,
                                        value_bytes=4096, num_reducers=4)
            engine_times.append(result.iteration_seconds[0])
        t0, t50, t100 = engine_times
        assert t0 < t50 < t100
        midpoint = (t0 + t100) / 2
        assert t50 == pytest.approx(midpoint, rel=0.1)

    def test_local_shuffle_cheaper_than_remote(self):
        local = make_m3r()
        result_local = run_microbenchmark(local, 0, num_pairs=400,
                                          value_bytes=4096, num_reducers=4)
        remote = make_m3r()
        result_remote = run_microbenchmark(remote, 100, num_pairs=400,
                                           value_bytes=4096, num_reducers=4)
        assert sum(result_local.iteration_seconds) < sum(
            result_remote.iteration_seconds
        )

    def test_dedup_never_increases_time(self):
        from conftest import make_m3r as fresh

        with_dedup = fresh()
        without = fresh(enable_dedup=False)
        times = {}
        for name, engine in (("on", with_dedup), ("off", without)):
            result = run_microbenchmark(engine, 100, num_pairs=200,
                                        value_bytes=1024, num_reducers=4)
            times[name] = sum(result.iteration_seconds)
        assert times["on"] <= times["off"] + 1e-9


class TestCounterEquivalence:
    """System counters the engines must agree on (the data-dependent ones)."""

    EQUAL_COUNTERS = (
        TaskCounter.MAP_INPUT_RECORDS,
        TaskCounter.MAP_OUTPUT_RECORDS,
        TaskCounter.MAP_OUTPUT_BYTES,
        TaskCounter.REDUCE_OUTPUT_RECORDS,
        JobCounter.TOTAL_LAUNCHED_REDUCES,
    )

    @staticmethod
    def _map_only_job():
        """IdentityMapper over ten lines, no reducers: the map output is
        the job output, and no reducer is launched to report any."""
        conf = JobConf()
        conf.set_job_name("map-only")
        conf.set_input_paths("/in.txt")
        conf.set_output_path("/out")
        conf.set_input_format(TextInputFormat)
        conf.set_output_format(SequenceFileOutputFormat)
        conf.set_mapper_class(IdentityMapper)
        conf.set_num_reduce_tasks(0)
        return conf

    def test_wordcount_counters_match(self):
        jobs = (
            (generate_text(150),
             lambda: wordcount_job("/in.txt", "/out", 4, use_combiner=False)),
            (generate_text(10), self._map_only_job),
        )
        for text, build_job in jobs:
            counters = {}
            for factory in (make_hadoop, make_m3r):
                engine = factory()
                engine.filesystem.write_text("/in.txt", text)
                result = engine.run_job(build_job())
                assert result.succeeded
                counters[factory.__name__] = result.counters
            assert counters["make_m3r"].value(TaskCounter.MAP_OUTPUT_RECORDS) > 0
            for counter in self.EQUAL_COUNTERS:
                assert (
                    counters["make_hadoop"].value(counter)
                    == counters["make_m3r"].value(counter)
                ), (result.job_name, counter)

    def test_reduce_group_counters_match(self):
        counters = {}
        for factory in (make_hadoop, make_m3r):
            engine = factory()
            generate_input(engine.filesystem, "/in", 120, 64, 4)
            result = engine.run_job(microbenchmark_job("/in", "/out", 40, 4))
            counters[factory.__name__] = result.counters
        for counter in (TaskCounter.REDUCE_INPUT_RECORDS,
                        TaskCounter.REDUCE_INPUT_GROUPS):
            assert (
                counters["make_hadoop"].value(counter)
                == counters["make_m3r"].value(counter)
            ), counter
