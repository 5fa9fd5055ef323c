"""Batched record path + automatic in-mapper combining (DESIGN.md §14).

The contract under test is byte-identity: for any job, the batched path
(``m3r.batch.enabled``) and the in-mapper-combining path
(``m3r.imc.enabled``) must
produce exactly the output pairs, counters and simulated seconds of the
per-record path, on both engines.  The sweep reuses the 20-seed differential
harness; directed tests cover the batch-boundary edge cases (empty splits,
batch size 1, batch larger than the split, aggregate overflow spill) and the
enforcement teeth (a lying "associative" reducer is caught, not believed).
"""

from __future__ import annotations

import pytest
from conftest import make_hadoop, make_m3r
from workloads import (
    SumValuesReducer,
    enable_restore,
    histogram_job,
    seeded_histogram_dataset,
)

from repro import engine_common
from repro.analysis.sanitizers import sanitizer_overrides
from repro.api.conf import BATCH_ENABLED_KEY, IMC_ENABLED_KEY, JobConf
from repro.api.mapred import Mapper, OutputCollector, Reducer, Reporter
from repro.api.partitioner import Partitioner
from repro.api.vectorized import (
    AssociativeReducer,
    VectorizedMapper,
    is_associative_reducer,
    is_vectorized,
    pack_batch,
)
from repro.api.writables import IntWritable, Text
from repro.apps.wordcount import SumReducer, WordCountMapperImmutable, wordcount_job

MODES = ("per-record", "batched", "batched+imc")


def apply_mode(conf: JobConf, mode: str) -> None:
    if mode != "per-record":
        conf.set_boolean(BATCH_ENABLED_KEY, True)
    if mode == "batched+imc":
        conf.set_boolean(IMC_ENABLED_KEY, True)


def run_histogram(factory, seed: int, mode: str):
    pairs, params = seeded_histogram_dataset(seed)
    num_parts = params["num_parts"]
    engine = factory()
    try:
        for part in range(num_parts):
            engine.filesystem.write_pairs(
                f"/in/part-{part:05d}", pairs[part::num_parts]
            )
        conf = histogram_job(
            "/in", "/out", params["reducers"],
            use_combiner=params["use_combiner"],
            # NB: mode-independent name — Hadoop's reduce placement hashes
            # the job name, and placement must match across modes.
            name=f"batching-{seed}",
        )
        apply_mode(conf, mode)
        result = engine.run_job(conf)
        assert result.succeeded, result.error
        return {
            "output": sorted(
                (k.get(), v.get())
                for k, v in engine.filesystem.read_kv_pairs("/out")
            ),
            "counters": result.counters.as_dict(),
            "seconds": result.simulated_seconds,
            "metrics": dict(result.metrics.counters),
        }
    finally:
        if hasattr(engine, "shutdown"):
            engine.shutdown()


def assert_identical(base, other, context):
    assert other["output"] == base["output"], context
    assert other["counters"] == base["counters"], (
        context,
        {
            group: (base["counters"].get(group), other["counters"].get(group))
            for group in set(base["counters"]) | set(other["counters"])
            if base["counters"].get(group) != other["counters"].get(group)
        },
    )
    assert other["seconds"] == base["seconds"], (
        context, base["seconds"], other["seconds"],
    )


# --------------------------------------------------------------------- #
# the 20-seed sweep: three modes, two engines, byte-identical
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
@pytest.mark.parametrize("seed", range(20))
def test_three_mode_differential(kind, seed):
    factory = make_hadoop if kind == "hadoop" else make_m3r
    base = run_histogram(factory, seed, "per-record")
    for mode in MODES[1:]:
        other = run_histogram(factory, seed, mode)
        assert_identical(base, other, (kind, seed, mode))
        assert other["metrics"].get("batch_batches", 0) > 0, (kind, seed, mode)


def test_imc_folds_on_a_combiner_seed():
    """At least one sweep seed must actually exercise the fold path (the
    histogram combiner is marked AssociativeReducer)."""
    for seed in range(20):
        _, params = seeded_histogram_dataset(seed)
        if not params["use_combiner"]:
            continue
        run = run_histogram(make_m3r, seed, "batched+imc")
        assert run["metrics"].get("imc_input_records", 0) > 0
        assert (
            run["metrics"]["imc_output_records"]
            + run["metrics"]["imc_folded_records"]
            == run["metrics"]["imc_input_records"]
        )
        return
    pytest.fail("no sweep seed enables the combiner")


# --------------------------------------------------------------------- #
# batch-boundary edge cases (wordcount over text splits)
# --------------------------------------------------------------------- #


def run_wordcount(factory, mode: str, customize=None):
    engine = factory()
    try:
        engine.filesystem.write_text("/in/part-00000", "alpha beta alpha\n")
        engine.filesystem.write_text("/in/part-00001", "")  # empty split
        engine.filesystem.write_text(
            "/in/part-00002", "beta beta gamma\nalpha gamma beta\n"
        )
        conf = wordcount_job("/in", "/out", num_reducers=3)
        if customize is not None:
            customize(conf)
        apply_mode(conf, mode)
        result = engine.run_job(conf)
        assert result.succeeded, result.error
        return {
            "output": sorted(
                (str(k), v.get())
                for k, v in engine.filesystem.read_kv_pairs("/out")
            ),
            "counters": result.counters.as_dict(),
            "seconds": result.simulated_seconds,
            "metrics": dict(result.metrics.counters),
        }
    finally:
        if hasattr(engine, "shutdown"):
            engine.shutdown()


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
@pytest.mark.parametrize("batch_size", [1, 2, 10_000])
def test_batch_boundaries_with_empty_split(kind, batch_size, monkeypatch):
    """Batch size 1 (degenerate), 2 (mid-split boundaries) and one far
    larger than any split, against a corpus that includes an empty split."""
    factory = make_hadoop if kind == "hadoop" else make_m3r
    base = run_wordcount(factory, "per-record")
    assert base["output"] == [
        ("alpha", 3), ("beta", 4), ("gamma", 2),
    ]
    monkeypatch.setattr(engine_common, "BATCH_SIZE", batch_size)
    for mode in MODES[1:]:
        other = run_wordcount(factory, mode)
        assert_identical(base, other, (kind, mode, batch_size))


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
def test_imc_overflow_spills_to_emit(kind, monkeypatch):
    """A two-entry aggregate overflows constantly; output must still be
    byte-identical and the spills must be visible in the metrics."""
    factory = make_hadoop if kind == "hadoop" else make_m3r
    base = run_wordcount(factory, "per-record")
    monkeypatch.setattr(engine_common, "IMC_MAX_ENTRIES", 2)
    spilled = run_wordcount(factory, "batched+imc")
    assert_identical(base, spilled, (kind, "spill"))
    assert spilled["metrics"].get("imc_spills", 0) > 0


class UnhashableText(Text):
    """A key that defines ``__eq__`` but not ``__hash__``, so Python sets
    ``__hash__`` to None: the in-mapper aggregate cannot index it."""

    __slots__ = ()

    def __eq__(self, other):
        return super().__eq__(other)


class UnhashableWordMapper(Mapper):
    def map(self, key, value, output, reporter):
        for word in value.to_string().split():
            output.collect(UnhashableText(word), IntWritable(1))


class FirstLetterPartitioner(Partitioner):
    """The stock HashPartitioner would call ``hash`` on the key."""

    def get_partition(self, key, value, num_partitions):
        return ord(key.get()[0]) % num_partitions


def unhashable_keys(conf: JobConf) -> None:
    conf.set_mapper_class(UnhashableWordMapper)
    conf.set_combiner_class(SumValuesReducer)
    conf.set_reducer_class(SumValuesReducer)
    conf.set_partitioner_class(FirstLetterPartitioner)


def test_imc_falls_back_to_buffering_on_unhashable_keys():
    """IMC on: the first key the aggregate cannot hash degrades the sink
    to buffering, and the job commits exactly what IMC off commits, on
    both engines."""
    runs = {
        (kind, mode): run_wordcount(factory, mode, unhashable_keys)
        for kind, factory in (("hadoop", make_hadoop), ("m3r", make_m3r))
        for mode in ("per-record", "batched+imc")
    }
    for kind in ("hadoop", "m3r"):
        base, folded = runs[kind, "per-record"], runs[kind, "batched+imc"]
        assert_identical(base, folded, kind)
        assert folded["metrics"]["imc_input_records"] == 9
        assert folded["metrics"].get("imc_folded_records", 0) == 0
    expected = [("alpha", 3), ("beta", 4), ("gamma", 2)]
    assert runs["m3r", "batched+imc"]["output"] == expected
    assert runs["hadoop", "per-record"]["output"] == expected


# --------------------------------------------------------------------- #
# enforcement: contract liars are caught, not believed
# --------------------------------------------------------------------- #


class RecyclingSumReducer(Reducer, AssociativeReducer):
    """Claims associativity but recycles its emitted object across calls —
    the classic object-reuse lie the mutation sanitizer exists to catch."""

    def __init__(self) -> None:
        self.result = IntWritable(0)

    def reduce(self, key, values, output: OutputCollector, reporter: Reporter):
        self.result.set(sum(v.get() for v in values))
        output.collect(key, self.result)


class DoubleEmitReducer(Reducer, AssociativeReducer):
    """Claims associativity but emits twice per reduce call."""

    def reduce(self, key, values, output: OutputCollector, reporter: Reporter):
        total = sum(v.get() for v in values)
        output.collect(key, IntWritable(total))
        output.collect(key, IntWritable(total))


def _lying_combiner_job(combiner_class) -> JobConf:
    conf = wordcount_job("/in", "/out", num_reducers=2, immutable=True)
    conf.set_mapper_class(WordCountMapperImmutable)
    conf.set_combiner_class(combiner_class)
    apply_mode(conf, "batched+imc")
    return conf


def test_recycling_associative_reducer_caught_by_sanitizer():
    engine = make_m3r()
    try:
        engine.filesystem.write_text("/in/part-00000", "word word word word\n")
        with sanitizer_overrides(mutation=True):
            result = engine.run_job(_lying_combiner_job(RecyclingSumReducer))
        assert not result.succeeded
        assert "ImmutableViolation" in result.error
    finally:
        engine.shutdown()


def test_double_emit_associative_reducer_rejected():
    engine = make_m3r()
    try:
        engine.filesystem.write_text("/in/part-00000", "word word word word\n")
        result = engine.run_job(_lying_combiner_job(DoubleEmitReducer))
        assert not result.succeeded
        assert "exactly one" in result.error
    finally:
        engine.shutdown()


# --------------------------------------------------------------------- #
# the VectorizedMapper protocol
# --------------------------------------------------------------------- #


class DoublingVectorMapper(Mapper, VectorizedMapper):
    """Emits (key, 2*value) — map and map_batch must agree exactly."""

    batch_arrays = True

    def map(self, key, value, output, reporter):
        output.collect(key, IntWritable(value.get() * 2))

    def map_batch(self, keys, values, output, reporter):
        collect = output.collect
        for i in range(len(keys)):
            collect(keys[i], IntWritable(values[i].get() * 2))


def test_pack_batch_containers():
    keys, values = [Text("a"), Text("b")], [IntWritable(1), IntWritable(2)]
    same_k, same_v = pack_batch(keys, values, as_arrays=False)
    assert same_k is keys and same_v is values
    arr_k, arr_v = pack_batch(keys, values, as_arrays=True)
    assert arr_k.dtype == object and list(arr_k) == keys
    assert arr_v.dtype == object and list(arr_v) == values


def test_markers():
    assert is_vectorized(DoublingVectorMapper)
    assert not is_vectorized(RecyclingSumReducer)
    assert is_associative_reducer(RecyclingSumReducer)  # marker (a lie, but opt-in)
    assert is_associative_reducer(SumReducer)  # allowlist

    class SumReducerChild(SumReducer):
        pass

    # An allowlist license is exact-name only: subclasses must opt in.
    assert not is_associative_reducer(SumReducerChild)


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
def test_vectorized_mapper_batches(kind, monkeypatch):
    """A batch_arrays VectorizedMapper runs via map_batch under the batch
    knob and produces byte-identical results to its per-record map."""
    factory = make_hadoop if kind == "hadoop" else make_m3r
    monkeypatch.setattr(engine_common, "BATCH_SIZE", 4)

    def run(mode):
        engine = factory()
        try:
            engine.filesystem.write_pairs(
                "/in/part-00000",
                [(IntWritable(i), IntWritable(i * i)) for i in range(10)],
            )
            conf = histogram_job("/in", "/out", 2)
            conf.set_mapper_class(DoublingVectorMapper)
            apply_mode(conf, mode)
            result = engine.run_job(conf)
            assert result.succeeded, result.error
            return {
                "output": sorted(
                    (k.get(), v.get())
                    for k, v in engine.filesystem.read_kv_pairs("/out")
                ),
                "counters": result.counters.as_dict(),
                "seconds": result.simulated_seconds,
                "metrics": dict(result.metrics.counters),
            }
        finally:
            if hasattr(engine, "shutdown"):
                engine.shutdown()

    base = run("per-record")
    batched = run("batched")
    assert_identical(base, batched, kind)
    # 10 records in batches of 4 -> 3 batches
    assert batched["metrics"].get("batch_batches") == 3


# --------------------------------------------------------------------- #
# batch × restore: the reuse store sees identical artifacts
# --------------------------------------------------------------------- #


def test_batched_run_matches_per_record_under_restore():
    outputs = {}
    for mode in ("per-record", "batched+imc"):
        engine = make_m3r()
        try:
            engine.filesystem.write_text(
                "/in/part-00000", "reuse the plan reuse the store\n"
            )
            conf = wordcount_job("/in", "/out", num_reducers=2)
            enable_restore(conf)
            apply_mode(conf, mode)
            first = engine.run_job(conf)
            assert first.succeeded, first.error
            conf2 = wordcount_job("/in", "/out2", num_reducers=2)
            enable_restore(conf2)
            apply_mode(conf2, mode)
            second = engine.run_job(conf2)
            assert second.succeeded, second.error
            outputs[mode] = [
                sorted(
                    (str(k), v.get())
                    for k, v in engine.filesystem.read_kv_pairs(path)
                )
                for path in ("/out", "/out2")
            ]
        finally:
            engine.shutdown()
    assert outputs["per-record"] == outputs["batched+imc"]
