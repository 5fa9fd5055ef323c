"""Hot-path call budget: nothing per record goes through ``Counters``, the
comparator or the per-object size estimator.

The engines tally the per-record system counters in the task's reader and
sinks and publish one delta per task (``api/counters.py``), and they sort,
merge and group naturally ordered keys on their raw built-in form
(``api/job.py``).  Both are easy to undo by accident — one ``increment`` in
a ``collect`` body, one ``key=spec.sort_key()`` passed to ``sorted`` — and
nothing but a benchmark would notice.  So count the calls: a ``Text``-keyed
combiner job, run at two input sizes that differ only in lines per part,
must make the *same* number of ``Counters.increment`` calls (a function of
tasks and partitions, not of records) and no ``_natural_compare`` call.

Collectors only append; every map / reduce run, output file and KV block
is measured once, at close, by ``run_size`` (``x10/serializer.py``), whose
run sizers measure a run of ``Text`` or ``IntWritable`` without a call per
object.  One ``estimate_size`` in a ``collect`` body, or one run sizer
dropped from the table, makes ``estimate_size`` calls grow with records
again, so the same job must make the same number of them at both sizes,
with in-mapper combining on or off.

The block Writables are cloned and measured through the transport table
(``x10/serializer.py``): no scipy validating constructor, no generic deep
copy.  One ``MatrixBlockWritable(matrix.copy())`` in a ``clone`` or one
unregistered block class brings either back, so a warm matvec iteration
must make no ``check_format`` and no ``copy.deepcopy`` call at any block
size.

A cache entry evicted to a spill file is sized once
(``SpillManager.spill``): an entry of distinct objects by its two columns,
whose size is also the spill file's length, so the filesystem does not
measure it again.  So matvec under half its working set must spill with
no ``_dual_size_of`` call and exactly one key and one value column sized
per spill.

An M3R cache hit for an ``ImmutableOutput`` old-API mapper is handed to
the map runner as one run (``take_run``): no ``next_pair`` call per
record, ``MAP_INPUT_RECORDS`` counted from the run's length; a miss fills
the cache from the sequence file in one ``take_batch``.  So such a job
makes the same number of ``next_pair`` calls at two input sizes, and
on both engines every reader that stays per record — a cloning one, or a
new-API mapper's context — still counts exactly the records it read.

An eviction wave walks its owner's resident entries in touch order
(``KeyValueCache._shed``) and stops at its last victim.  So a wave that
evicts one entry out of 200 examines that one entry only.

A remote message of distinct objects in plain pairs, one table class per
column, is shipped column by column (``DedupSerializer.ship``): no memo, no
``Crossing.pair`` and no ``_dual_size_of`` per pair.  So the 100 %-remote
microbenchmark must make none of those calls, and a mapper that emits one
shared value must still take the memo walk, charging what the walk alone
charges.
"""

from __future__ import annotations

import copy
import cProfile
import pstats
import zlib

import pytest
from scipy.sparse import _compressed
from workloads import make_hadoop, make_m3r

from repro.api import job as job_module
from repro.api import writables
from repro.api.conf import BATCH_ENABLED_KEY, IMC_ENABLED_KEY
from repro.api.counters import Counters, TaskCounter
from repro.api.extensions import ImmutableOutput
from repro.api.mapreduce import NewMapper
from repro.api.partitioner import Partitioner
from repro.api.writables import IntWritable
from repro.apps import matvec
from repro.apps.microbenchmark import (
    RemoteFractionMapper,
    RemoteFractionMapperMutable,
    generate_input,
    microbenchmark_job,
)
from repro.apps.wordcount import generate_text, wordcount_job
from repro.core.cache import KeyValueCache
from repro.core.engine import M3REngine
from repro.fs import filesystem as filesystem_module
from repro.memory import MemoryGovernor, SpillManager, WatermarkLedger
from repro.x10 import serializer
from repro.x10.places import Place

PARTS, REDUCERS = 4, 3


class Crc32Partitioner(Partitioner):
    """The stock HashPartitioner over ``Text`` is salted per process
    (ROADMAP 1a); which partitions a task fills must not depend on that."""

    def get_partition(self, key, value, num_partitions):
        return zlib.crc32(str(key).encode("utf-8")) % num_partitions


def corpus(lines_per_part):
    texts = [generate_text(lines_per_part, seed=40 + part) for part in range(PARTS)]
    for text in texts:  # every map task fills every partition, at any size
        filled = {zlib.crc32(word.encode("utf-8")) % REDUCERS for word in text.split()}
        assert filled == set(range(REDUCERS))
    return texts


def estimate_calls(profile):
    """``estimate_size`` calls from every import site, as the spine's
    ``estimate_calls`` metric counts them: off the profile."""
    return sum(
        stat[1]
        for (path, _, name), stat in pstats.Stats(profile).stats.items()
        if name == "estimate_size" and path == serializer.__file__
    )


def count_calls(monkeypatch, make_engine, lines_per_part, imc=False):
    """Run the job under counting shims and a profile; returns (increments,
    compares, map input records, estimate_size calls, the profile).
    ``imc`` runs it batched with in-mapper combining."""
    calls = {"increment": 0, "compare": 0}
    increment, compare = Counters.increment, job_module._natural_compare

    def counting_increment(self, *args):
        calls["increment"] += 1
        increment(self, *args)

    def counting_compare(a, b):
        calls["compare"] += 1
        return compare(a, b)

    engine = make_engine()
    try:
        for part, text in enumerate(corpus(lines_per_part)):
            engine.filesystem.write_text(f"/in/part-{part:05d}", text)
        conf = wordcount_job("/in", "/out", num_reducers=REDUCERS)
        conf.set_partitioner_class(Crc32Partitioner)
        conf.set_num_map_tasks(1)  # one split per file, at any size
        if imc:
            conf.set_boolean(BATCH_ENABLED_KEY, True)
            conf.set_boolean(IMC_ENABLED_KEY, True)
        with monkeypatch.context() as patch:
            patch.setattr(Counters, "increment", counting_increment)
            patch.setattr(job_module, "_natural_compare", counting_compare)
            profile = cProfile.Profile()
            profile.enable()
            try:
                result = engine.run_job(conf)
            finally:
                profile.disable()
        assert result.succeeded, result.error
        records = result.counters.value(TaskCounter.MAP_INPUT_RECORDS)
        return calls["increment"], calls["compare"], records, estimate_calls(profile), profile
    finally:
        engine.shutdown()


@pytest.mark.parametrize("make_engine", [make_hadoop, make_m3r])
def test_counter_and_comparator_calls_do_not_grow_with_records(
    make_engine, monkeypatch
):
    small = count_calls(monkeypatch, make_engine, lines_per_part=6)
    large = count_calls(monkeypatch, make_engine, lines_per_part=30)
    assert (small[2], large[2]) == (PARTS * 6, PARTS * 30)
    assert small[0] == large[0] > 0  # increments: tasks and partitions only
    assert small[1] == large[1] == 0  # Text keys never reach the comparator


@pytest.mark.parametrize(
    "make_engine, imc",
    [
        pytest.param(make_hadoop, False, id="make_hadoop"),
        pytest.param(make_m3r, False, id="make_m3r"),
        pytest.param(make_hadoop, True, id="make_hadoop-batched+imc"),
        pytest.param(make_m3r, True, id="make_m3r-batched+imc"),
    ],
)
def test_size_estimates_do_not_grow_with_records(make_engine, imc, monkeypatch):
    small = count_calls(monkeypatch, make_engine, lines_per_part=6, imc=imc)
    large = count_calls(monkeypatch, make_engine, lines_per_part=30, imc=imc)
    assert (small[2], large[2]) == (PARTS * 6, PARTS * 30)
    assert small[3] == large[3]  # runs are sized per run, not per record


def copy_calls(profile):
    """What the profiled job did to copy records: calls of any ``clone``, of
    ``copy.deepcopy`` and of ``deep_copy_value``; ``set`` / ``get`` calls
    made by ``_reuse_into``; calls of the table's ``Text`` and scalar
    copiers."""
    counts = {"clone": 0, "deepcopy": 0, "deep_copy_value": 0, "reuse_set_get": 0,
              "table_copies": 0, "reuse_into": 0}
    for (path, _, name), stat in pstats.Stats(profile).stats.items():
        if name in ("clone", "deepcopy", "deep_copy_value"):
            counts[name] += stat[1]
        elif name in ("transport", "_transport_text") and path == writables.__file__:
            counts["table_copies"] += stat[1]
        elif name == "_reuse_into":
            counts["reuse_into"] += stat[1]
        elif name in ("set", "get") and path == writables.__file__:
            counts["reuse_set_get"] += sum(
                caller[1] for (_, _, caller_name), caller in stat[4].items()
                if caller_name == "_reuse_into"
            )
    return counts


def test_hadoop_copies_each_record_by_one_table_lookup(monkeypatch):
    """Hadoop snapshots every collected pair and reuses its map input
    objects.  A ``Text`` / ``IntWritable`` record is copied by its table
    copier, looked up at the copy site, and refilled by one field copy:
    no ``clone()``, no deep copy, no ``deep_copy_value`` hop and no
    ``set(get())`` at either size."""
    small, large = (
        copy_calls(count_calls(monkeypatch, make_hadoop, lines_per_part=lines)[4])
        for lines in (6, 30)
    )
    for counts in (small, large):
        assert counts["clone"] == counts["deepcopy"] == counts["deep_copy_value"] == 0
        assert counts["reuse_set_get"] == 0
    assert 0 < small["reuse_into"] < large["reuse_into"]
    assert 0 < small["table_copies"] < large["table_copies"]


def count_block_calls(monkeypatch, make_engine, block):
    """One warm matvec iteration under counting shims; returns
    (check_format calls, deepcopy calls)."""
    calls = {"check_format": 0, "deepcopy": 0}
    check_format, deepcopy = _compressed._cs_matrix.check_format, copy.deepcopy

    def counting_check_format(self, *args, **kwargs):
        calls["check_format"] += 1
        return check_format(self, *args, **kwargs)

    def counting_deepcopy(*args, **kwargs):
        calls["deepcopy"] += 1
        return deepcopy(*args, **kwargs)

    blocks = 4
    engine = make_engine()
    try:
        g = matvec.generate_blocked_matrix(blocks * block, block, sparsity=0.1, seed=7)
        v = matvec.generate_blocked_vector(blocks * block, block, seed=8)
        matvec.write_partitioned(engine.filesystem, "/G", g, blocks, 4)
        matvec.write_partitioned(engine.filesystem, "/V0", v, blocks, 4)

        def iterate(index):
            sequence = matvec.iteration_jobs(
                "/G", f"/V{index}", f"/V{index + 1}", "/scratch", index, blocks, 4
            )
            assert all(result.succeeded for result in sequence.run_all(engine))

        iterate(0)  # warm: the counted iteration reads what this one left
        with monkeypatch.context() as patch:
            patch.setattr(_compressed._cs_matrix, "check_format", counting_check_format)
            patch.setattr(copy, "deepcopy", counting_deepcopy)
            iterate(1)
        return calls["check_format"], calls["deepcopy"]
    finally:
        engine.shutdown()


@pytest.mark.parametrize("make_engine", [make_hadoop, make_m3r])
def test_blocks_cross_without_validating_constructor_or_generic_deepcopy(
    make_engine, monkeypatch
):
    # The app's own ``VectorBlockWritable(partial)`` builds no sparse matrix,
    # so whatever is counted here is the engine's.
    assert count_block_calls(monkeypatch, make_engine, block=32) == (0, 0)
    assert count_block_calls(monkeypatch, make_engine, block=64) == (0, 0)


class ImmutableNewApiIdentity(NewMapper, ImmutableOutput):
    def map(self, key, value, context):
        context.write(key, value)


def count_reads(make_engine, mapper, num_pairs, warm=True):
    """One microbenchmark job with ``mapper`` over ``num_pairs`` records,
    read from a warm cache on M3R unless ``warm`` is off; returns
    (``next_pair`` calls, ``MAP_INPUT_RECORDS``)."""
    engine = make_engine()
    try:
        generate_input(engine.filesystem, "/in", num_pairs, 16, 4)
        warm = warm and isinstance(engine, M3REngine)
        if warm:
            assert engine.warm_cache_from("/in") == 4
        conf = microbenchmark_job("/in", "/out", 50, 4)
        conf.set_mapper_class(mapper)
        profile = cProfile.Profile()
        profile.enable()
        try:
            result = engine.run_job(conf)
        finally:
            profile.disable()
        assert result.succeeded, result.error
        if isinstance(engine, M3REngine):
            assert result.metrics.get("cache_hits") == (4 if warm else 0)
        reads = sum(
            stat[1]
            for (_, _, name), stat in pstats.Stats(profile).stats.items()
            if name == "next_pair"
        )
        return reads, result.counters.value(TaskCounter.MAP_INPUT_RECORDS)
    finally:
        engine.shutdown()


@pytest.mark.parametrize("warm", [True, False], ids=["cache-hit", "cache-fill"])
def test_an_aliased_cache_hit_is_handed_over_whole(warm):
    """A hit hands the cached run to the runner; a miss fills the cache
    from the sequence file in one ``take_batch`` and then does the same."""
    small = count_reads(make_m3r, RemoteFractionMapper, 40, warm)
    large = count_reads(make_m3r, RemoteFractionMapper, 200, warm)
    assert (small[1], large[1]) == (40, 200)
    assert small[0] == large[0]  # no next_pair per record


@pytest.mark.parametrize("make_engine", [make_hadoop, make_m3r])
@pytest.mark.parametrize(
    "mapper", [RemoteFractionMapperMutable, ImmutableNewApiIdentity],
    ids=["cloning-reader", "new-api"],
)
def test_per_record_readers_count_what_they_read(make_engine, mapper):
    small = count_reads(make_engine, mapper, 40)
    large = count_reads(make_engine, mapper, 200)
    assert (small[1], large[1]) == (40, 200)
    assert large[0] - small[0] >= 160  # one next_pair (or more) per record


class SharedOneMapper(RemoteFractionMapper):
    """Every pair to the adjacent partition, all of them carrying one
    shared ``IntWritable(1)``: the wordcount idiom, de-duplicated on the wire."""

    def __init__(self) -> None:
        super().__init__()
        self.one = IntWritable(1)

    def map(self, key, value, output, reporter):
        output.collect(IntWritable(key.get() + 1), self.one)


def count_ship_calls(monkeypatch, mapper, walk_only=False):
    """One 100 %-remote microbenchmark job under counting shims; returns
    (``Crossing.pair`` calls, ``_dual_size_of`` calls, shuffle metrics).
    ``walk_only`` sends every message to the memo walk."""
    calls = {"pair": 0, "dual": 0}
    pair, dual = serializer.Crossing.pair, serializer._dual_size_of

    def counting_pair(self, *args):
        calls["pair"] += 1
        return pair(self, *args)

    def counting_dual(*args):
        calls["dual"] += 1
        return dual(*args)

    engine = make_m3r()
    try:
        generate_input(engine.filesystem, "/in", 200, 64, 4)
        conf = microbenchmark_job("/in", "/out", 100, 4)
        if mapper is not None:
            conf.set_mapper_class(mapper)
        with monkeypatch.context() as patch:
            patch.setattr(serializer.Crossing, "pair", counting_pair)
            patch.setattr(serializer, "_dual_size_of", counting_dual)
            if walk_only:
                patch.setattr(serializer, "_columns", lambda runs: None)
            result = engine.run_job(conf)
        assert result.succeeded, result.error
        shuffle = [
            result.metrics.get(name)
            for name in (
                "shuffle_remote_bytes", "shuffle_remote_records", "dedup_saved_bytes"
            )
        ]
        return calls["pair"], calls["dual"], shuffle + [result.simulated_seconds]
    finally:
        engine.shutdown()


def test_distinct_remote_messages_ship_by_column(monkeypatch):
    pairs, duals, shuffle = count_ship_calls(monkeypatch, None)
    assert shuffle[1] == 200  # every record crossed places
    assert (pairs, duals) == (0, 0)
    assert shuffle == count_ship_calls(monkeypatch, None, walk_only=True)[2]


def test_a_shared_value_still_takes_the_walk(monkeypatch):
    pairs, duals, shuffle = count_ship_calls(monkeypatch, SharedOneMapper)
    assert shuffle[1] == 200 and shuffle[2] > 0  # the shared value is deduped
    assert pairs == 200 and duals == 0  # table entries: the inline walk
    assert shuffle == count_ship_calls(monkeypatch, SharedOneMapper, walk_only=True)[2]


def test_a_spill_sizes_its_entry_once(monkeypatch):
    """Matvec at half the warm working set: every spilled entry is sized by
    one key and one value column, and nothing else measures it."""
    calls = {"spills": 0, "dual": 0, "columns": 0, "fs_pairs_size": 0}
    spill, dual = SpillManager.spill, serializer._dual_size_of
    column_size, fs_pairs_size = serializer._column_size, filesystem_module.pairs_size
    in_spill = []

    def counting(name, fn):
        # No _dual_size_of call at all; column and file sizings also run
        # outside spills (shuffles, job outputs), so those count inside only.
        def wrapper(*args):
            if in_spill or name == "dual":
                calls[name] += 1
            return fn(*args)
        return wrapper

    def counting_spill(self, pairs):
        calls["spills"] += 1
        in_spill.append(True)
        try:
            return spill(self, pairs)
        finally:
            in_spill.pop()

    def run(capacity):
        engine = make_m3r(cache_capacity_bytes=capacity)
        try:
            g = matvec.generate_blocked_matrix(400, 50, sparsity=0.1, seed=11)
            v = matvec.generate_blocked_vector(400, 50, seed=12)
            matvec.write_partitioned(engine.filesystem, "/G", g, 8, 4)
            matvec.write_partitioned(engine.filesystem, "/V0", v, 8, 4)
            engine.warm_cache_from("/G")
            engine.warm_cache_from("/V0")
            warm = max(map(engine.cache.bytes_at_place, range(engine.num_places)))
            for index in range(2):
                sequence = matvec.iteration_jobs(
                    "/G", f"/V{index}", f"/V{index + 1}", "/scratch", index, 8, 4
                )
                assert all(result.succeeded for result in sequence.run_all(engine))
            return warm
        finally:
            engine.shutdown()

    warm = run(0)
    with monkeypatch.context() as patch:
        patch.setattr(SpillManager, "spill", counting_spill)
        patch.setattr(serializer, "_dual_size_of", counting("dual", dual))
        patch.setattr(serializer, "_column_size", counting("columns", column_size))
        patch.setattr(
            filesystem_module, "pairs_size", counting("fs_pairs_size", fs_pairs_size)
        )
        run(warm // 2)
    assert calls["spills"] > 0
    assert calls["dual"] == 0
    assert calls["columns"] == 2 * calls["spills"]
    assert calls["fs_pairs_size"] == 0


def test_an_eviction_wave_visits_no_entry_behind_its_last_victim(monkeypatch):
    """200 entries of 10 bytes fill a 2 000-byte place; the 201st makes
    the wave free 10 bytes: it evicts the oldest entry and examines no
    other (each examined entry asks the governor whether it is pinned)."""
    governor = MemoryGovernor(budget=WatermarkLedger(2000, 1.0, 1.0), spill_enabled=False)
    cache = KeyValueCache([Place(0)], governor=governor)
    for index in range(200):
        cache.put_file(f"/e{index}", 0, [(index, index)], 10)
    cache.get_file("/e0")  # the least recently touched is now /e1
    examined = []
    is_pinned = governor.is_pinned

    def counting(name, *rest):
        examined.append(name)
        return is_pinned(name, *rest)

    monkeypatch.setattr(governor, "is_pinned", counting)
    cache.put_file("/e200", 0, [(200, 200)], 10)
    assert examined == ["/e1"]
    assert [entry.name for entry in cache.entries()] == ["/e0"] + [f"/e{i}" for i in range(2, 201)]
