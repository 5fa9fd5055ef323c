"""The staged job lifecycle: shared pipeline, event bus, sinks, tracing.

Covers the refactor's contract: both engines drive the same
:class:`~repro.lifecycle.pipeline.JobPipeline`, every job emits one
deterministic stream of typed events, observers never perturb the run
(byte-identity with tracing on or off), and the guaranteed ``JobEnd``
releases pins on every exit path.  An engine runs
jobs only on the thread that built it.
"""

from __future__ import annotations

import gc
import json
import threading
import weakref

import pytest

from repro.api.conf import (
    CACHE_PINNED_PATHS_KEY,
    TRACE_PATH_KEY,
    JobConf,
)
from repro.api.counters import TaskCounter
from repro.api.job import JobSequence
from repro.api.mapred import IdentityMapper
from repro.apps.wordcount import generate_text, wordcount_job
from repro.engine_common import JobFailedError
from repro.lifecycle.events import (
    CacheEvent,
    EventBus,
    JobEnd,
    JobStart,
    SpillEvent,
    StageEnd,
    StageStart,
    TaskEnd,
)
from repro.lifecycle.sinks import RingBufferSink
from repro.lifecycle.trace import (
    collect_waterfalls,
    read_jsonl,
    render_json,
    render_text,
)

from conftest import make_hadoop, make_m3r


def run_wordcount(engine, out="/out", lines=120, reducers=4):
    engine.filesystem.write_text("/in.txt", generate_text(lines))
    return engine.run_job(wordcount_job("/in.txt", out, reducers))


class ExplodingMapper(IdentityMapper):
    def map(self, key, value, output, reporter):
        raise RuntimeError("boom")


def exploding_wordcount(out="/bad-out"):
    conf = wordcount_job("/in.txt", out, 4)
    conf.set_mapper_class(ExplodingMapper)
    return conf


# --------------------------------------------------------------------- #
# stage sequencing
# --------------------------------------------------------------------- #


class TestStageSequence:
    def test_m3r_stages_in_order(self):
        engine = make_m3r(4)
        try:
            result = run_wordcount(engine)
            assert result.succeeded
            events = engine.event_ring.events(result.job_id)
            assert isinstance(events[0], JobStart)
            assert isinstance(events[-1], JobEnd)
            stages = [e.stage for e in events if isinstance(e, StageEnd)]
            assert stages == [
                "setup", "plan_splits", "map", "shuffle", "reduce",
                "commit", "cache-admit", "teardown",
            ]
        finally:
            engine.shutdown()

    def test_hadoop_stages_in_order(self):
        engine = make_hadoop(4)
        result = run_wordcount(engine)
        assert result.succeeded
        events = engine.event_ring.events(result.job_id)
        stages = [e.stage for e in events if isinstance(e, StageEnd)]
        assert stages == ["setup", "plan_splits", "map", "reduce", "commit"]

    def test_every_stage_start_has_matching_end(self):
        engine = make_m3r(4)
        try:
            result = run_wordcount(engine)
            events = engine.event_ring.events(result.job_id)
            starts = [e.stage for e in events if isinstance(e, StageStart)]
            ends = [e.stage for e in events if isinstance(e, StageEnd)]
            assert starts == ends
        finally:
            engine.shutdown()

    def test_task_events_are_deterministically_ordered(self):
        """Stage/task events are emitted post-join in task-index order."""
        engine = make_m3r(4)
        try:
            result = run_wordcount(engine)
            events = engine.event_ring.events(result.job_id)
            map_tasks = [
                e.task for e in events
                if isinstance(e, TaskEnd) and e.stage == "map"
            ]
            assert map_tasks == sorted(map_tasks)
            assert len(map_tasks) > 0
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("factory", [make_m3r, make_hadoop])
    def test_reduce_task_ends_account_for_the_reduce_input(self, factory):
        """Both providers replay a phase through one loop, so a reduce
        TaskEnd says what that reducer received on either engine — reduce
        skew is visible in a trace of the baseline too."""
        engine = factory(4)
        try:
            result = run_wordcount(engine)
            ends = [
                e for e in engine.event_ring.events(result.job_id)
                if isinstance(e, TaskEnd) and e.stage == "reduce"
            ]
            assert [e.task for e in ends] == [0, 1, 2, 3]
            assert sum(e.records for e in ends) == result.counters.value(
                TaskCounter.REDUCE_INPUT_RECORDS
            ) > 0
            # M3R counts what crossed a place apart from what was handed off.
            assert sum(e.nbytes for e in ends) == result.counters.value(
                TaskCounter.REDUCE_SHUFFLE_BYTES
            ) + result.counters.value(TaskCounter.REDUCE_LOCAL_HANDOFF_BYTES)
        finally:
            engine.shutdown()

    def test_failed_job_still_emits_job_end(self):
        engine = make_m3r(4)
        try:
            engine.filesystem.write_text("/in.txt", generate_text(50))
            result = engine.run_job(exploding_wordcount())
            assert not result.succeeded
            events = engine.event_ring.events(result.job_id)
            end = events[-1]
            assert isinstance(end, JobEnd)
            assert not end.succeeded
            assert "boom" in (end.error or "")
            assert end.seconds == result.simulated_seconds == 0.0
        finally:
            engine.shutdown()


# --------------------------------------------------------------------- #
# clock identity: events mirror the accounting exactly
# --------------------------------------------------------------------- #


class TestClockIdentity:
    @pytest.mark.parametrize("factory", [make_m3r, make_hadoop])
    def test_job_end_equals_result_seconds(self, factory):
        engine = factory(4)
        try:
            result = run_wordcount(engine)
            end = engine.event_ring.events(result.job_id)[-1]
            assert isinstance(end, JobEnd)
            assert end.seconds == result.simulated_seconds  # byte-exact
        finally:
            getattr(engine, "shutdown", lambda: None)()

    @pytest.mark.parametrize("factory", [make_m3r, make_hadoop])
    def test_stage_seconds_sum_to_total(self, factory):
        engine = factory(4)
        try:
            result = run_wordcount(engine)
            events = engine.event_ring.events(result.job_id)
            ends = [e for e in events if isinstance(e, StageEnd)]
            assert sum(e.seconds for e in ends) == pytest.approx(
                result.simulated_seconds, rel=1e-12
            )
            # The running clock is exact: the last stage ends on the total.
            assert ends[-1].clock == result.simulated_seconds
        finally:
            getattr(engine, "shutdown", lambda: None)()


# --------------------------------------------------------------------- #
# sinks
# --------------------------------------------------------------------- #


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        engine = make_m3r(4)
        try:
            engine.trace_path = path
            result = run_wordcount(engine)
            ring_events = engine.event_ring.events(result.job_id)
        finally:
            engine.shutdown()
        docs = read_jsonl(path)
        assert len(docs) == len(ring_events)
        from_file = [w.as_dict() for w in collect_waterfalls(docs)]
        from_ring = [w.as_dict() for w in collect_waterfalls(ring_events)]
        assert from_file == from_ring

    def test_conf_key_selects_trace_path(self, tmp_path):
        path = str(tmp_path / "conf-trace.jsonl")
        engine = make_m3r(4)
        try:
            engine.filesystem.write_text("/in.txt", generate_text(50))
            conf = wordcount_job("/in.txt", "/out", 4)
            conf.set(TRACE_PATH_KEY, path)
            assert engine.run_job(conf).succeeded
        finally:
            engine.shutdown()
        docs = read_jsonl(path)
        assert docs and docs[0]["event"] == "job_start"
        assert docs[-1]["event"] == "job_end"

    def test_env_var_selects_trace_path(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env-trace.jsonl")
        monkeypatch.setenv("M3R_TRACE_PATH", path)
        engine = make_m3r(4)
        try:
            assert run_wordcount(engine).succeeded
        finally:
            engine.shutdown()
        assert read_jsonl(path)

    def test_ring_keeps_last_n(self):
        ring = RingBufferSink(maxlen=3)
        for i in range(7):
            ring(StageStart(job_id=f"j{i}", engine="m3r", stage="map"))
        assert len(ring) == 3
        assert [e.job_id for e in ring.events()] == ["j4", "j5", "j6"]

    def test_engine_ring_keeps_the_newest_events_of_a_job(self):
        engine = make_m3r(4)
        engine.event_ring = RingBufferSink(16)
        try:
            engine.filesystem.write_text("/in.txt", generate_text(50))
            assert engine.run_job(wordcount_job("/in.txt", "/out", 4)).succeeded
            events = engine.event_ring.events()
            assert engine.event_ring.maxlen == len(events) == 16
            assert isinstance(events[-1], JobEnd)
        finally:
            engine.shutdown()

    def test_failing_sink_is_dropped_not_fatal(self):
        bus = EventBus("j1", "m3r")
        seen = []

        def bad(event):
            raise ValueError("observer bug")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        bus.emit(StageStart(job_id="j1", engine="m3r", stage="map"))
        bus.emit(StageEnd(job_id="j1", engine="m3r", stage="map"))
        assert len(seen) == 2  # the good sink saw everything
        assert len(bus.sink_errors) == 1  # the bad one died once, silently

    def test_critical_subscriber_failure_propagates(self):
        bus = EventBus("j1", "m3r")

        def governor_like(event):
            raise RuntimeError("engine invariant broken")

        bus.subscribe(governor_like, critical=True)
        with pytest.raises(RuntimeError, match="invariant"):
            bus.emit(StageStart(job_id="j1", engine="m3r", stage="map"))


# --------------------------------------------------------------------- #
# observability must not perturb: byte-identity with tracing on
# --------------------------------------------------------------------- #


class TestTracingByteIdentity:
    @pytest.mark.parametrize("factory", [make_m3r, make_hadoop])
    def test_trace_on_off_identical(self, tmp_path, factory):
        def run(trace_path=None):
            engine = factory(4)
            try:
                if trace_path:
                    engine.trace_path = trace_path
                result = run_wordcount(engine)
                output = sorted(
                    (str(k), v.get())
                    for k, v in engine.filesystem.read_kv_pairs("/out")
                )
            finally:
                getattr(engine, "shutdown", lambda: None)()
            return result, output

        plain, plain_out = run()
        traced, traced_out = run(str(tmp_path / "t.jsonl"))
        assert repr(plain.simulated_seconds) == repr(traced.simulated_seconds)
        assert plain.counters.as_dict() == traced.counters.as_dict()
        assert plain.metrics.as_dict() == traced.metrics.as_dict()
        assert plain_out == traced_out


# --------------------------------------------------------------------- #
# cache / spill events under memory pressure
# --------------------------------------------------------------------- #


class TestCacheSpillEvents:
    def test_pressure_surfaces_cache_and_spill_events(self):
        from repro.apps import matvec

        engine = make_m3r(4, cache_capacity_bytes=6000)
        try:
            rows, block = 200, 25
            num_row_blocks = (rows + block - 1) // block
            g = matvec.generate_blocked_matrix(rows, block, sparsity=0.05)
            v = matvec.generate_blocked_vector(rows, block)
            matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks, 4)
            matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks, 4)
            engine.warm_cache_from("/G")
            engine.warm_cache_from("/V0")
            sequence = matvec.iteration_jobs(
                "/G", "/V0", "/V1", "/scratch", 0, num_row_blocks, 4
            )
            results = [engine.run_job(conf) for conf in sequence]
            assert all(r.succeeded for r in results)
            evictions = sum(r.metrics.get("cache_evictions") for r in results)
            assert evictions > 0  # the workload actually created pressure
            events = engine.event_ring.events()
            cache_events = [e for e in events if isinstance(e, CacheEvent)]
            spill_events = [e for e in events if isinstance(e, SpillEvent)]
            assert len(cache_events) == evictions
            assert all(e.action == "evict" for e in cache_events)
            assert spill_events  # durable entries spilled rather than dropped
            assert all(e.action in ("spill", "rehydrate") for e in spill_events)
            assert all(e.nbytes > 0 for e in spill_events)
        finally:
            engine.shutdown()


# --------------------------------------------------------------------- #
# pin hygiene: every exit path releases job pins
# --------------------------------------------------------------------- #


class TestPinLeakOnFailure:
    def test_failed_job_releases_pins(self):
        engine = make_m3r(4)
        try:
            engine.filesystem.write_text("/in.txt", generate_text(50))
            conf = exploding_wordcount()
            conf.set(CACHE_PINNED_PATHS_KEY, "/in.txt")
            result = engine.run_job(conf)
            assert not result.succeeded
            assert engine.governor.pinned_prefixes() == []
        finally:
            engine.shutdown()

    def test_mid_sequence_failure_releases_all_pins(self):
        engine = make_m3r(4)
        try:
            engine.filesystem.write_text("/in.txt", generate_text(50))
            sequence = JobSequence([
                wordcount_job("/in.txt", "/ok-1", 4),
                exploding_wordcount("/bad-2"),
                wordcount_job("/in.txt", "/never-3", 4),
            ])
            results = engine.run_sequence(sequence)
            assert [r.succeeded for r in results] == [True, False]
            # Neither the failed job's pins nor the sequence pins on the
            # first job's output survive the raise.
            assert engine.governor.pinned_prefixes() == []
        finally:
            engine.shutdown()

    def test_node_failure_releases_pins(self):
        engine = make_m3r(4)
        try:
            engine.filesystem.write_text("/in.txt", generate_text(50))
            engine.fail_nodes.add(1)
            with pytest.raises(JobFailedError):
                engine.run_job(wordcount_job("/in.txt", "/out", 4))
            assert engine.governor.pinned_prefixes() == []
        finally:
            engine.shutdown()


# --------------------------------------------------------------------- #
# engine teardown: by refcount, not by the cyclic collector
# --------------------------------------------------------------------- #


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestEngineTeardown:
    """A dropped engine takes its filesystem and cache with it at once.
    The provider and the governor subscription point back at the engine
    weakly; a strong pointer closes engine → pipeline → provider → engine,
    and the whole simulated cluster then waits for a generational
    collection that an allocation-light workload may not trigger before the
    next engine is built on top of it."""

    @pytest.mark.parametrize("make_engine", [make_m3r, make_hadoop])
    def test_dropping_an_engine_frees_it_without_the_collector(
        self, make_engine, no_cyclic_gc
    ):
        engine = make_engine(4)
        sequence = JobSequence([
            wordcount_job("/in.txt", "/temp-1", 4),
            exploding_wordcount("/bad-2"),
        ])
        engine.filesystem.write_text("/in.txt", generate_text(50))
        assert run_wordcount(engine).succeeded
        assert [r.succeeded for r in engine.run_sequence(sequence)] == [True, False]
        owned = [engine, engine.filesystem]
        if make_engine is make_m3r:
            assert len(engine.cache) > 0
            owned += [engine.cache, engine.governor]
        alive = [weakref.ref(thing) for thing in owned]
        engine.shutdown()
        del engine, owned, sequence
        assert [ref() for ref in alive] == [None] * len(alive)


@pytest.mark.parametrize("factory", [make_m3r, make_hadoop])
def test_engine_entered_from_a_second_thread_raises(factory):
    """A job started from a thread other than the engine's builder raises
    before it writes anything; the owner thread's next job is unaffected."""
    engine = factory(4)
    engine.filesystem.write_text("/in.txt", generate_text(50))
    caught = []

    def intruder():
        try:
            engine.run_job(wordcount_job("/in.txt", "/stray", 4))
        except RuntimeError as exc:
            caught.append(exc)

    thread = threading.Thread(target=intruder)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(caught) == 1
    assert f"thread {thread.ident}" in str(caught[0])
    assert not engine.filesystem.exists("/stray")
    assert run_wordcount(engine).succeeded


# --------------------------------------------------------------------- #
# trace module: fold + render
# --------------------------------------------------------------------- #


class TestTraceRendering:
    def _waterfalls(self):
        engine = make_m3r(4)
        try:
            result = run_wordcount(engine)
            events = engine.event_ring.events(result.job_id)
        finally:
            engine.shutdown()
        return result, collect_waterfalls(events)

    def test_collect_folds_one_job(self):
        result, waterfalls = self._waterfalls()
        assert len(waterfalls) == 1
        job = waterfalls[0]
        assert job.job_id == result.job_id
        assert job.engine == "m3r"
        assert job.succeeded
        assert job.seconds == result.simulated_seconds
        assert [s.stage for s in job.stages][:3] == [
            "setup", "plan_splits", "map"
        ]

    def test_render_text_waterfall(self):
        _, waterfalls = self._waterfalls()
        text = render_text(waterfalls)
        for stage in ("setup", "map", "shuffle", "reduce", "commit"):
            assert stage in text
        assert "simulated seconds" in text

    def test_render_json_is_serializable(self):
        result, waterfalls = self._waterfalls()
        doc = render_json(waterfalls)
        parsed = json.loads(json.dumps(doc))
        job = parsed["jobs"][0]
        assert job["seconds"] == result.simulated_seconds
        assert sum(s["seconds"] for s in job["stages"]) == pytest.approx(
            result.simulated_seconds, rel=1e-12
        )
