"""Batched record path + automatic in-mapper combining (DESIGN.md §14).

The contract under test is byte-identity: for any job, the batched path
(``m3r.batch.enabled``) and the in-mapper-combining path
(``m3r.imc.enabled``) must
produce exactly the output pairs, counters and simulated seconds of the
per-record path, on both engines.  The sweep reuses the 20-seed differential
harness; directed tests cover the batch-boundary edge cases (empty splits,
batch size 1, batch larger than the split) and combiners that stretch their
licence (a recycled output object, a double emit, the new API), which must
commit with IMC on what they commit with it off.
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
from repro.api.mapreduce import NewReducer
from repro.api.partitioner import Partitioner
from repro.api.vectorized import (
    AssociativeReducer,
    VectorizedMapper,
    is_associative_reducer,
    is_vectorized,
    pack_batch,
)
from repro.api.writables import DoubleWritable, IntWritable, Text
from repro.apps.wordcount import SumReducer, wordcount_job

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


#: Three parts, one of them an empty split.
CORPUS = ("alpha beta alpha\n", "", "beta beta gamma\nalpha gamma beta\n")


def run_wordcount(factory, mode: str, customize=None, corpus=CORPUS, reducers=3):
    engine = factory()
    try:
        for part, text in enumerate(corpus):
            engine.filesystem.write_text(f"/in/part-{part:05d}", text)
        conf = wordcount_job("/in", "/out", num_reducers=reducers)
        if customize is not None:
            customize(conf)
        apply_mode(conf, mode)
        result = engine.run_job(conf)
        assert result.succeeded, result.error
        committed = [
            (str(k), v.get()) for k, v in engine.filesystem.read_kv_pairs("/out")
        ]
        return {
            "output": sorted(committed),
            "committed": committed,
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


class UnhashableText(Text):
    """A key that defines ``__eq__`` but not ``__hash__``, so Python sets
    ``__hash__`` to None: nothing on the combine path may index it."""

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
    """IMC on: keys that cannot be hashed are combined like any others
    (sorted and grouped, never indexed), and the job commits exactly what
    IMC off commits, on both engines."""
    runs = {
        (kind, mode): run_wordcount(factory, mode, unhashable_keys)
        for kind, factory in (("hadoop", make_hadoop), ("m3r", make_m3r))
        for mode in ("per-record", "batched+imc")
    }
    for kind in ("hadoop", "m3r"):
        base, folded = runs[kind, "per-record"], runs[kind, "batched+imc"]
        assert_identical(base, folded, kind)
        assert folded["metrics"]["imc_input_records"] == 9
        assert folded["metrics"]["imc_folded_records"] == 2
    expected = [("alpha", 3), ("beta", 4), ("gamma", 2)]
    assert runs["m3r", "batched+imc"]["output"] == expected
    assert runs["hadoop", "per-record"]["output"] == expected


# --------------------------------------------------------------------- #
# combiners that stretch their licence: IMC on commits what IMC off does
# --------------------------------------------------------------------- #


class RecyclingSumReducer(Reducer, AssociativeReducer):
    """Claims associativity and recycles its emitted object across calls:
    stock Hadoop's ``IntSumReducer`` idiom, which is only safe where the
    collector copies what it is given."""

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


class NewApiSumReducer(NewReducer, AssociativeReducer):
    """A licensed sum combiner written against the new (``mapreduce``) API."""

    def reduce(self, key, values, context):
        context.write(key, IntWritable(sum(v.get() for v in values)))


def combiner(combiner_class):
    return lambda conf: conf.set_combiner_class(combiner_class)


FOUR_WORDS = ("a a a b\n",)


def test_recycling_associative_reducer_caught_by_sanitizer():
    """Under aliasing (M3R, ImmutableOutput mapper) the recycled object is
    collected for ``a`` and then set for ``b``: the mutation sanitizer
    catches it with IMC on exactly as with IMC off."""
    for mode in ("per-record", "batched+imc"):
        engine = make_m3r()
        try:
            engine.filesystem.write_text("/in/part-00000", FOUR_WORDS[0])
            conf = wordcount_job("/in", "/out", num_reducers=1)
            conf.set_combiner_class(RecyclingSumReducer)
            apply_mode(conf, mode)
            with sanitizer_overrides(mutation=True):
                result = engine.run_job(conf)
            assert not result.succeeded, mode
            assert "ImmutableViolation" in result.error, (mode, result.error)
        finally:
            engine.shutdown()


def test_recycling_combiner_counts_right_on_hadoop():
    """Hadoop's collector copies every emission, so a combiner that reuses
    its output object commits the right counts with IMC on, too."""
    runs = {
        mode: run_wordcount(
            make_hadoop, mode, combiner(RecyclingSumReducer), FOUR_WORDS, 1
        )
        for mode in ("per-record", "batched+imc")
    }
    assert runs["per-record"]["output"] == [("a", 3), ("b", 1)]
    assert_identical(runs["per-record"], runs["batched+imc"], "hadoop")


def test_double_emit_associative_reducer_same_with_imc_on_and_off():
    """A combiner that emits twice per group is run the same way with IMC
    on: once per group, on both engines."""
    for kind, factory in (("hadoop", make_hadoop), ("m3r", make_m3r)):
        runs = [
            run_wordcount(factory, mode, combiner(DoubleEmitReducer))
            for mode in ("per-record", "batched+imc")
        ]
        assert_identical(runs[0], runs[1], kind)
        assert runs[1]["metrics"]["imc_input_records"] == 9


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
def test_new_api_combiner_runs_with_imc(kind):
    factory = make_hadoop if kind == "hadoop" else make_m3r
    base = run_wordcount(factory, "per-record", combiner(NewApiSumReducer))
    assert base["output"] == [("alpha", 3), ("beta", 4), ("gamma", 2)]
    folded = run_wordcount(factory, "batched+imc", combiner(NewApiSumReducer))
    assert_identical(base, folded, kind)
    assert folded["metrics"]["imc_folded_records"] > 0


class FloatKeyMapper(Mapper):
    def map(self, key, value, output, reporter):
        for token in value.to_string().split():
            output.collect(DoubleWritable(float(token)), IntWritable(1))


def float_keys(conf: JobConf) -> None:
    conf.set_mapper_class(FloatKeyMapper)
    conf.set_combiner_class(SumValuesReducer)
    conf.set_reducer_class(SumValuesReducer)
    conf.set_output_key_class(DoubleWritable)


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
def test_nan_keys_form_their_own_group(kind):
    """NaN keys sort above every number and group with each other, as
    Java's ``Double.compare`` orders them, in every mode.  One reducer:
    the hash partitioner hashes a NaN by identity."""
    factory = make_hadoop if kind == "hadoop" else make_m3r
    corpus = ("1 nan 2 nan 1 3 nan 2\n",)
    runs = [run_wordcount(factory, mode, float_keys, corpus, 1) for mode in MODES]
    assert runs[0]["committed"] == [
        (repr(DoubleWritable(key)), count)
        for key, count in ((1.0, 2), (2.0, 2), (3.0, 1), (float("nan"), 3))
    ]
    for mode, other in zip(MODES[1:], runs[1:]):
        assert_identical(runs[0], other, (kind, mode))


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
