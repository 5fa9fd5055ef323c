"""The per-task counter path, at job level (DESIGN.md §14 *Collector side*).

Readers and sinks tally the per-record system counters in plain ints and
publish one delta per task; ``tests/test_engine_common.py`` holds the unit
contract (tally, then ``flush_counters()``).  Here: what a whole job's
``Counters`` must read — only what a task really consumed, nothing from a
task that raised, and exactly the totals the per-record ``increment`` path
published before it was deleted, in every record-path mode.
"""

from __future__ import annotations

import pytest
from workloads import PoisonedMapper, failing_job, make_hadoop, make_m3r, poison_corpus

from repro.api.conf import BATCH_ENV, IMC_ENV
from repro.api.counters import TaskCounter
from repro.api.mapred import MapRunnable
from repro.apps import matvec
from repro.apps.grep import grep_sequence
from repro.apps.wordcount import generate_text, wordcount_job

ENGINES = pytest.mark.parametrize("make_engine", [make_hadoop, make_m3r])
TASK_GROUP = "org.apache.hadoop.mapreduce.TaskCounter"
JOB_GROUP = "org.apache.hadoop.mapreduce.JobCounter"


# --------------------------------------------------------------------- #
# a task counts what it consumed; a failed task counts nothing
# --------------------------------------------------------------------- #


class FirstTwoRunner(MapRunnable):
    """A custom driver that stops reading after two records."""

    def __init__(self, mapper):
        self.mapper = mapper

    def run(self, reader, output, reporter):
        for _ in range(2):
            key, value = reader.next_pair()
            self.mapper.map(key, value, output, reporter)


def one_task_per_file(conf):
    conf.set_num_map_tasks(1)  # a hint of one split: no file is carved up
    return conf


@ENGINES
def test_early_stopping_map_runner_counts_only_what_it_read(make_engine):
    engine = make_engine()
    try:
        for part in range(3):
            engine.filesystem.write_text(
                f"/in/part-{part:05d}", generate_text(5, seed=part)
            )
        conf = wordcount_job("/in", "/out", num_reducers=2, use_combiner=False)
        conf.set_map_runner_class(FirstTwoRunner)
        result = engine.run_job(one_task_per_file(conf))
        assert result.succeeded, result.error
        counters = result.counters
        assert counters.value(TaskCounter.MAP_INPUT_RECORDS) == 3 * 2
        assert counters.value(TaskCounter.MAP_OUTPUT_RECORDS) == 3 * 2 * 10
        assert counters.value(TaskCounter.REDUCE_INPUT_RECORDS) == 3 * 2 * 10
    finally:
        engine.shutdown()


@ENGINES
def test_raising_mapper_publishes_nothing_from_its_task(make_engine):
    """The tasks before the victim ran to the end and published their
    deltas; the victim read its records up to the poison, emitted for each,
    and raised: none of that reaches the job's counters."""
    engine = make_engine()
    try:
        victim = poison_corpus(engine.filesystem, seed=5, parts=6)
        assert victim > 0
        result = engine.run_job(one_task_per_file(failing_job(PoisonedMapper)))
        assert not result.succeeded
        assert result.error == "ValueError: injected task failure"
        assert engine.filesystem.list_files_recursive("/out") == []
        task = result.counters.as_dict()[TASK_GROUP]
        # 4 lines per part, one emission per line (PoisonedMapper).
        assert task["MAP_INPUT_RECORDS"] == 4 * victim
        assert task["MAP_OUTPUT_RECORDS"] == 4 * victim
    finally:
        engine.shutdown()


@ENGINES
def test_single_raising_task_leaves_no_task_counter(make_engine):
    engine = make_engine()
    try:
        engine.filesystem.write_text("/in/part-00000", "fine\nfine\nPOISON\n")
        result = engine.run_job(one_task_per_file(failing_job(PoisonedMapper)))
        assert not result.succeeded
        assert TASK_GROUP not in result.counters.as_dict()
    finally:
        engine.shutdown()


# --------------------------------------------------------------------- #
# job totals: what the per-record increment path published
# --------------------------------------------------------------------- #


def run_wordcount(engine):
    for part in range(8):
        engine.filesystem.write_text(
            f"/in/part-{part:05d}", generate_text(4, seed=7000 + part), at_node=None
        )
    return [engine.run_job(wordcount_job("/in", "/out", 4))]


def run_grep(engine):
    for part in range(4):
        engine.filesystem.write_text(
            f"/corpus/part-{part:05d}", generate_text(5, seed=7000 + part),
            at_node=None,
        )
    sequence = grep_sequence("/corpus", "/out", r"word00\d", temp_dir="/gtmp")
    return engine.run_sequence(sequence)


def run_matvec(engine):
    rows, block, reducers = 64, 16, 4
    blocks = rows // block
    g = matvec.generate_blocked_matrix(rows, block, sparsity=0.2, seed=92)
    v = matvec.generate_blocked_vector(rows, block, seed=93)
    matvec.write_partitioned(engine.filesystem, "/G", g, blocks, reducers)
    matvec.write_partitioned(engine.filesystem, "/v0", v, blocks, reducers)
    sequence = matvec.iteration_jobs("/G", "/v0", "/v1", "/tmp", 0, blocks, reducers)
    return engine.run_sequence(sequence)


def job_counters(result, kind):
    """``Counters.as_dict()`` minus what Python's per-process string-hash
    salt moves (ROADMAP 1a), none of it on the record path: where Hadoop
    places reducers, hence how many maps of a follow-on job are data-local,
    and how M3R's shuffled bytes split into remote and co-located (folded
    into their invariant sum)."""
    groups = {group: dict(names) for group, names in result.counters.as_dict().items()}
    groups[JOB_GROUP].pop("DATA_LOCAL_MAPS", None)
    if kind == "m3r":
        task = groups[TASK_GROUP]
        task["SHUFFLE_PLUS_HANDOFF_BYTES"] = task.pop(
            "REDUCE_SHUFFLE_BYTES", 0
        ) + task.pop("REDUCE_LOCAL_HANDOFF_BYTES", 0)
    return groups


def _job(job_counters, **task_counters):
    return {JOB_GROUP: job_counters, TASK_GROUP: task_counters}


#: Recorded at the parent commit (PR 19, per-record ``increment`` calls in
#: the readers and sinks), identical there in all three modes and under
#: PYTHONHASHSEED 1 and 2: workload -> engine -> one dict per job.
RECORDED = {
    "grep": {
        "hadoop": [
            _job(
                dict(TOTAL_LAUNCHED_MAPS=8, TOTAL_LAUNCHED_REDUCES=4),
                COMBINE_INPUT_RECORDS=46, COMBINE_OUTPUT_RECORDS=34,
                MAP_INPUT_RECORDS=20, MAP_OUTPUT_BYTES=1104,
                MAP_OUTPUT_RECORDS=46, REDUCE_INPUT_GROUPS=9,
                REDUCE_INPUT_RECORDS=34, REDUCE_OUTPUT_RECORDS=9,
                REDUCE_SHUFFLE_BYTES=816, SPILLED_RECORDS=34,
            ),
            _job(
                dict(TOTAL_LAUNCHED_MAPS=4, TOTAL_LAUNCHED_REDUCES=1),
                MAP_INPUT_RECORDS=9, MAP_OUTPUT_BYTES=216,
                MAP_OUTPUT_RECORDS=9, REDUCE_INPUT_GROUPS=6,
                REDUCE_INPUT_RECORDS=9, REDUCE_OUTPUT_RECORDS=9,
                REDUCE_SHUFFLE_BYTES=216, SPILLED_RECORDS=9,
            ),
        ],
        "m3r": [
            _job(
                dict(TOTAL_LAUNCHED_MAPS=32, TOTAL_LAUNCHED_REDUCES=4),
                COMBINE_INPUT_RECORDS=46, COMBINE_OUTPUT_RECORDS=40,
                MAP_INPUT_RECORDS=20, MAP_OUTPUT_BYTES=1104,
                MAP_OUTPUT_RECORDS=46, REDUCE_INPUT_GROUPS=9,
                REDUCE_INPUT_RECORDS=40, REDUCE_OUTPUT_RECORDS=9,
                SHUFFLE_PLUS_HANDOFF_BYTES=960,
            ),
            _job(
                dict(TOTAL_LAUNCHED_MAPS=4, TOTAL_LAUNCHED_REDUCES=1),
                MAP_INPUT_RECORDS=9, MAP_OUTPUT_BYTES=216,
                MAP_OUTPUT_RECORDS=9, REDUCE_INPUT_GROUPS=6,
                REDUCE_INPUT_RECORDS=9, REDUCE_OUTPUT_RECORDS=9,
                SHUFFLE_PLUS_HANDOFF_BYTES=216,
            ),
        ],
    },
    "matvec": {
        "hadoop": [
            _job(
                dict(TOTAL_LAUNCHED_MAPS=8, TOTAL_LAUNCHED_REDUCES=4),
                MAP_INPUT_RECORDS=20, MAP_OUTPUT_BYTES=12904,
                MAP_OUTPUT_RECORDS=32, REDUCE_INPUT_GROUPS=16,
                REDUCE_INPUT_RECORDS=32, REDUCE_OUTPUT_RECORDS=16,
                REDUCE_SHUFFLE_BYTES=12904, SPILLED_RECORDS=32,
            ),
            _job(
                dict(TOTAL_LAUNCHED_MAPS=4, TOTAL_LAUNCHED_REDUCES=4),
                MAP_INPUT_RECORDS=16, MAP_OUTPUT_BYTES=2368,
                MAP_OUTPUT_RECORDS=16, REDUCE_INPUT_GROUPS=4,
                REDUCE_INPUT_RECORDS=16, REDUCE_OUTPUT_RECORDS=4,
                REDUCE_SHUFFLE_BYTES=2368, SPILLED_RECORDS=16,
            ),
        ],
        "m3r": [
            _job(
                dict(TOTAL_LAUNCHED_MAPS=8, TOTAL_LAUNCHED_REDUCES=4),
                MAP_INPUT_RECORDS=20, MAP_OUTPUT_BYTES=12904,
                MAP_OUTPUT_RECORDS=32, REDUCE_INPUT_GROUPS=16,
                REDUCE_INPUT_RECORDS=32, REDUCE_OUTPUT_RECORDS=16,
                SHUFFLE_PLUS_HANDOFF_BYTES=12904,
            ),
            _job(
                dict(TOTAL_LAUNCHED_MAPS=4, TOTAL_LAUNCHED_REDUCES=4),
                MAP_INPUT_RECORDS=16, MAP_OUTPUT_BYTES=2368,
                MAP_OUTPUT_RECORDS=16, REDUCE_INPUT_GROUPS=4,
                REDUCE_INPUT_RECORDS=16, REDUCE_OUTPUT_RECORDS=4,
                SHUFFLE_PLUS_HANDOFF_BYTES=2368,
            ),
        ],
    },
    "wordcount": {
        "hadoop": [
            _job(
                dict(TOTAL_LAUNCHED_MAPS=8, TOTAL_LAUNCHED_REDUCES=4),
                COMBINE_INPUT_RECORDS=320, COMBINE_OUTPUT_RECORDS=267,
                MAP_INPUT_RECORDS=32, MAP_OUTPUT_BYTES=6400,
                MAP_OUTPUT_RECORDS=320, REDUCE_INPUT_GROUPS=115,
                REDUCE_INPUT_RECORDS=267, REDUCE_OUTPUT_RECORDS=115,
                REDUCE_SHUFFLE_BYTES=5340, SPILLED_RECORDS=267,
            ),
        ],
        "m3r": [
            _job(
                dict(TOTAL_LAUNCHED_MAPS=32, TOTAL_LAUNCHED_REDUCES=4),
                COMBINE_INPUT_RECORDS=320, COMBINE_OUTPUT_RECORDS=303,
                MAP_INPUT_RECORDS=32, MAP_OUTPUT_BYTES=6400,
                MAP_OUTPUT_RECORDS=320, REDUCE_INPUT_GROUPS=115,
                REDUCE_INPUT_RECORDS=303, REDUCE_OUTPUT_RECORDS=115,
                SHUFFLE_PLUS_HANDOFF_BYTES=6060,
            ),
        ],
    },
}


def set_mode(monkeypatch, mode):
    monkeypatch.delenv(BATCH_ENV, raising=False)
    monkeypatch.delenv(IMC_ENV, raising=False)
    if mode != "per-record":
        monkeypatch.setenv(BATCH_ENV, "1")
    if mode == "batched+imc":
        monkeypatch.setenv(IMC_ENV, "1")


RUNNERS = {"wordcount": run_wordcount, "grep": run_grep, "matvec": run_matvec}


@pytest.mark.parametrize("mode", ["per-record", "batched", "batched+imc"])
@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
@pytest.mark.parametrize("workload", sorted(RUNNERS))
def test_job_counters_equal_the_per_record_increment_path(
    workload, kind, mode, monkeypatch
):
    set_mode(monkeypatch, mode)
    engine = (make_hadoop if kind == "hadoop" else make_m3r)()
    try:
        results = RUNNERS[workload](engine)
        assert all(result.succeeded for result in results)
        measured = [job_counters(result, kind) for result in results]
        assert measured == RECORDED[workload][kind]
    finally:
        engine.shutdown()
