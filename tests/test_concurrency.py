"""Stress, fail-fast and determinism tests for inline task execution.

Both engines run every map task, shuffle message and reduce task inline,
in plan order; a place's worker threads exist only as lane width in the
simulated clock (DESIGN.md §7).  These tests pin down what that buys:

* **Exact accounting at width** — per-record system and user counters over
  64 splits are exact; local hand-offs and wire traffic partition the map
  output; an iterated matvec equals numpy.
* **Fail-fast** — a task raising at a seeded index fails the whole job with
  that task's error (``JobFailedError`` propagates; a plain exception
  becomes a failed :class:`EngineResult`), no later task starts, nothing is
  committed, no pin survives, and the engine takes the next job.
* **Determinism under memory pressure** — with a cache budget of half the
  working set, two fresh engines agree on simulated seconds and on every
  governor count to the last bit (ROADMAP item 1b).
"""

from __future__ import annotations

from collections import Counter as PyCounter

import numpy as np
import pytest

from repro.api.counters import TaskCounter
from repro.api.multiple_io import TASK_PARTITION_KEY
from repro.apps import matvec
from repro.apps.wordcount import generate_text, wordcount_job
from repro.engine_common import JobFailedError

from workloads import (
    NodeLossMapper,
    PoisonedMapper,
    failing_job,
    make_hadoop,
    make_m3r,
    poison_corpus,
    run_stress,
    stress_job,
)


class TestStress:
    def test_counters_exact_over_64_splits(self):
        """Per-record system and user counters: exact totals across 64
        map tasks on four-wide places, and the right answer."""
        run = run_stress(make_m3r, seed=2,
                         engine_kwargs={"workers_per_place": 4})
        words = len(run["corpus"].split())
        lines = sum(1 for line in run["corpus"].splitlines() if line)
        counters = run["counters_obj"]
        assert counters.value("stress", "words") == words
        assert counters.value("stress", "records") == lines
        assert counters.value(TaskCounter.MAP_INPUT_RECORDS) == lines
        assert counters.value(TaskCounter.MAP_OUTPUT_RECORDS) == words
        assert dict(run["counts"]) == dict(PyCounter(run["corpus"].split()))

    def test_workers_per_place_changes_task_count_not_answer(self):
        """The split *hint* scales with ``workers_per_place``, so task
        counts differ legitimately — the committed counts must not."""
        narrow = run_stress(make_m3r, seed=3, parts=16,
                            engine_kwargs={"workers_per_place": 1})
        wide = run_stress(make_m3r, seed=3, parts=16,
                          engine_kwargs={"workers_per_place": 8})
        assert dict(wide["counts"]) == dict(narrow["counts"])
        assert dict(narrow["counts"]) == dict(PyCounter(narrow["corpus"].split()))

    def test_local_handoff_bytes_split_from_shuffle_bytes(self):
        """Co-located partitions are counted as local hand-offs, not as
        REDUCE_SHUFFLE_BYTES; the two cover all map-output traffic."""
        run = run_stress(make_m3r, seed=5, parts=16,
                         engine_kwargs={"workers_per_place": 4})
        counters = run["counters_obj"]
        remote = counters.value(TaskCounter.REDUCE_SHUFFLE_BYTES)
        local = counters.value(TaskCounter.REDUCE_LOCAL_HANDOFF_BYTES)
        assert local > 0  # partition % num_places guarantees co-location
        assert remote > 0
        assert local == run["metrics"].get("shuffle_local_bytes")

    def test_matvec_iteration_matches_numpy(self):
        rows, block = 256, 32
        num_blocks = rows // block
        g = matvec.generate_blocked_matrix(rows, block, sparsity=0.05, seed=21)
        v = matvec.generate_blocked_vector(rows, block, seed=22)
        reference = matvec.reference_multiply(g, v, rows, block)
        engine = make_m3r(num_nodes=4, workers_per_place=4)
        try:
            matvec.write_partitioned(engine.filesystem, "/G", g, num_blocks, 8)
            matvec.write_partitioned(engine.filesystem, "/v0", v, num_blocks, 8)
            sequence = matvec.iteration_jobs(
                "/G", "/v0", "/v1", "/tmp", 0, num_blocks, 8
            )
            results = engine.run_sequence(sequence)
            assert all(r.succeeded for r in results)
            pairs = engine.filesystem.read_kv_pairs("/v1")
            vector = matvec.blocked_vector_to_array(pairs, rows)
        finally:
            engine.shutdown()
        assert np.allclose(vector, reference)


# --------------------------------------------------------------------- #
# fail-fast
# --------------------------------------------------------------------- #


#: Index of every map task that started, in start order.
STARTED: list = []


class RecordsStart:
    def configure(self, conf):
        STARTED.append(conf.get(TASK_PARTITION_KEY))


class RecordingPoisonedMapper(RecordsStart, PoisonedMapper):
    pass


class RecordingNodeLossMapper(RecordsStart, NodeLossMapper):
    pass


class PoisonKeyComparator:
    """Sort comparator that fails when the poison key reaches a sort — the
    fault-injection hook for the shuffle's map-side run sorting."""

    def compare(self, a, b):
        if "POISON" in str(a) or "POISON" in str(b):
            raise RuntimeError("injected shuffle failure")
        return (str(a) > str(b)) - (str(a) < str(b))


def assert_failed_cleanly(engine, out_dir="/out"):
    """Nothing committed (no ``_SUCCESS``, no part file), nothing pinned,
    and the engine takes the next job."""
    assert engine.filesystem.list_files_recursive(out_dir) == []
    if hasattr(engine, "cache"):
        assert sum(entry.pins for entry in engine.cache.entries()) == 0
        assert engine.governor.pinned_prefixes() == []
    follow_up = engine.run_job(wordcount_job("/in/part-00000", "/out2", 2))
    assert follow_up.succeeded, follow_up.error
    assert engine.filesystem.exists("/out2/_SUCCESS")


class TestFailFast:
    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_job_failed_error_propagates(self, seed):
        """A task simulating node loss at a seeded index fails the whole
        job: JobFailedError reaches the caller and no later task starts.
        A first job leaves the input cached, so every task that ran held
        a pin on its split."""
        engine = make_m3r(num_nodes=4, workers_per_place=4)
        try:
            victim = poison_corpus(engine.filesystem, seed)
            assert engine.run_job(wordcount_job("/in", "/warm", 4)).succeeded
            STARTED.clear()
            with pytest.raises(JobFailedError, match="injected task failure"):
                engine.run_job(failing_job(RecordingNodeLossMapper))
            assert STARTED == list(range(victim + 1))
            assert_failed_cleanly(engine)
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("make_engine", [make_m3r, make_hadoop])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_user_exception_becomes_failed_result(self, seed, make_engine):
        """A plain user exception surfaces as a failed EngineResult carrying
        that task's error, on either engine, and no later task starts."""
        engine = make_engine(num_nodes=4)
        try:
            victim = poison_corpus(engine.filesystem, seed)
            STARTED.clear()
            result = engine.run_job(failing_job(RecordingPoisonedMapper))
            assert not result.succeeded
            assert result.error == "ValueError: injected task failure"
            assert STARTED == list(range(victim + 1))
            assert_failed_cleanly(engine)
        finally:
            engine.shutdown()

    def test_comparator_failure_in_shuffle_fails_job_cleanly(self):
        """Run sorting happens inside the shuffle.  A comparator blowing up
        there fails the job: a failed EngineResult, nothing committed,
        engine usable afterwards."""
        engine = make_m3r(num_nodes=4, workers_per_place=4)
        try:
            for part in range(8):
                text = generate_text(4, seed=900 + part)
                if part == 3:
                    text += "\nPOISON\n"
                engine.filesystem.write_text(f"/in/part-{part:05d}", text)
            # One reducer: every map task's single run then holds all of
            # its (>= 2) keys, so the poison is compared whatever the
            # per-process salt of the stock HashPartitioner does.
            conf = stress_job("/in", "/out", reducers=1)
            # No combiner: the combiner would sort (and trip the poison)
            # already in the map phase — the point here is the shuffle.
            conf.unset("mapred.combiner.class")
            conf.set_output_key_comparator_class(PoisonKeyComparator)
            result = engine.run_job(conf)
            assert not result.succeeded
            assert "injected shuffle failure" in result.error
            assert_failed_cleanly(engine)
        finally:
            engine.shutdown()


# --------------------------------------------------------------------- #
# determinism under memory pressure
# --------------------------------------------------------------------- #


ROWS, BLOCK, ITERATIONS = 1200, 100, 2
NUM_BLOCKS = ROWS // BLOCK


def matvec_engine(g, v, capacity_bytes):
    """A fresh four-wide engine with G and V0 written, under a budget."""
    engine = make_m3r(num_nodes=4, workers_per_place=4,
                      cache_capacity_bytes=capacity_bytes)
    matvec.write_partitioned(engine.filesystem, "/G", g, NUM_BLOCKS, 4)
    matvec.write_partitioned(engine.filesystem, "/V0", v, NUM_BLOCKS, 4)
    return engine


def resident_bytes_by_place(engine):
    places = engine.cache.stats()["places"].values()
    return [slot["resident_bytes"] for slot in places]


def warm_working_set(g, v):
    """Largest per-place resident bytes with G and V0 warm and no budget."""
    engine = matvec_engine(g, v, capacity_bytes=0)
    try:
        engine.warm_cache_from("/G")
        engine.warm_cache_from("/V0")
        return max(resident_bytes_by_place(engine))
    finally:
        engine.shutdown()


def run_under_pressure(g, v, capacity_bytes):
    """Iterated matvec on a fresh engine; returns every number the memory
    governor can move, the MB·s integral (resident MB after each job × the
    job's simulated seconds) included."""
    engine = matvec_engine(g, v, capacity_bytes)
    mem_mb_s = []

    def meter(event):
        if event.kind == "job_end":
            resident_mb = sum(resident_bytes_by_place(engine)) / 2**20
            mem_mb_s.append(resident_mb * event.seconds)

    engine.trace_sinks.append(meter)
    try:
        seconds = []
        for iteration in range(ITERATIONS):
            sequence = matvec.iteration_jobs(
                "/G", f"/V{iteration}", f"/V{iteration + 1}", "/scratch",
                iteration, NUM_BLOCKS, 4,
            )
            results = sequence.run_all(engine)
            assert all(r.succeeded for r in results)
            seconds.extend(r.simulated_seconds for r in results)
        governed = engine.cache.stats()["lifetime"]["counters"]
        return {
            "seconds": seconds,
            "mem_mb_s": mem_mb_s,
            "evictions": governed["cache_evictions"],
            "spills": governed["cache_spills"],
            "spill_bytes": governed["cache_spill_bytes"],
            "rehydrations": governed["cache_rehydrations"],
        }
    finally:
        engine.shutdown()


class TestDeterminismUnderPressure:
    def test_two_fresh_engines_agree_exactly(self):
        """The spine's ``cache_pressure`` shape: budget = half the warm
        working set, default conf.  Which entry is evicted is a function
        of the plan, so a repetition repeats — ``==``, no approx."""
        g = matvec.generate_blocked_matrix(ROWS, BLOCK, sparsity=0.05, seed=31)
        v = matvec.generate_blocked_vector(ROWS, BLOCK, seed=32)
        budget = warm_working_set(g, v) // 2
        first = run_under_pressure(g, v, budget)
        second = run_under_pressure(g, v, budget)
        assert first["evictions"] > 0 and first["rehydrations"] > 0
        assert first == second
