"""Shared workload builders for the test suites.

One home for the corpus writers, job builders, mappers/reducers and
snapshot helpers that used to be copy-pasted between
``test_engine_equivalence.py``, ``test_concurrency.py`` and the
benchmark drivers.  The restore suite (``test_restore.py``) composes the
same builders into rerun-able workloads, so cross-job reuse is tested
against exactly the jobs the equivalence and concurrency suites already
pin down.
"""

from __future__ import annotations

from collections import Counter as PyCounter
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from repro.api.conf import RESTORE_ENABLED_KEY, JobConf
from repro.api.formats import (
    SequenceFileInputFormat,
    SequenceFileOutputFormat,
    TextInputFormat,
)
from repro.api.mapred import Mapper, Reducer
from repro.api.vectorized import AssociativeReducer
from repro.api.writables import IntWritable, Text
from repro.apps import matvec
from repro.apps.grep import grep_sequence
from repro.apps.wordcount import SumReducer, generate_text, wordcount_job
from repro.engine_common import JobFailedError

from conftest import make_hadoop, make_m3r

__all__ = [
    "NUM_SPLITS",
    "DATA",
    "GrepWorkload",
    "MatvecWorkload",
    "NodeLossMapper",
    "PoisonedMapper",
    "SumValuesReducer",
    "ToOneMapper",
    "WORKLOADS",
    "WordCountWorkload",
    "WordStressMapper",
    "enable_restore",
    "failing_job",
    "histogram_job",
    "make_hadoop",
    "make_m3r",
    "poison_corpus",
    "run_both",
    "run_stress",
    "seeded_histogram_dataset",
    "snapshot",
    "snapshot_output",
    "stress_job",
    "write_corpus",
]

NUM_SPLITS = 64

#: The equivalence suites' fixed mixed-key dataset.
DATA = [(IntWritable(i % 7), Text(f"t{i % 3}")) for i in range(40)]


# --------------------------------------------------------------------- #
# corpus / dataset builders
# --------------------------------------------------------------------- #


def write_corpus(fs, path: str, seed: int, parts: int = NUM_SPLITS,
                 lines_per_part: int = 6) -> str:
    """Write ``parts`` small text files under ``path``; returns the corpus."""
    chunks = []
    for part in range(parts):
        text = generate_text(lines_per_part, seed=seed * 1000 + part)
        fs.write_text(f"{path}/part-{part:05d}", text, at_node=None)
        chunks.append(text)
    return "\n".join(chunks)


def poison_corpus(fs, seed: int, parts: int = NUM_SPLITS) -> int:
    """``parts`` part files, one of which (seeded-random) is poisoned."""
    import random

    victim = random.Random(seed).randrange(parts)
    for part in range(parts):
        text = generate_text(4, seed=seed * 77 + part)
        if part == victim:
            text += "\nPOISON\n"
        fs.write_text(f"/in/part-{part:05d}", text)
    return victim


def seeded_histogram_dataset(seed: int) -> Tuple[List[Tuple[Any, Any]], Dict[str, Any]]:
    """The differential sweep's seeded-random dataset: returns the pair
    list plus the drawn job parameters (splits, reducers, combiner,
    skew)."""
    import random

    rng = random.Random(seed)
    params = {
        "num_keys": rng.randint(1, 40),
        "num_pairs": rng.randint(1, 200),
        "num_parts": rng.randint(1, 8),
        "reducers": rng.randint(1, 6),
        "use_combiner": rng.random() < 0.5,
        "skew": rng.choice([1.0, 2.0]),  # uniform vs quadratically skewed
    }
    pairs = []
    for i in range(params["num_pairs"]):
        draw = rng.random() ** params["skew"]
        key = int(draw * params["num_keys"])
        pairs.append((IntWritable(key), Text(f"v{i % 5}")))
    return pairs, params


# --------------------------------------------------------------------- #
# user classes
# --------------------------------------------------------------------- #


class ToOneMapper(Mapper):
    """(key, anything) → (key, 1); with SumValuesReducer this is a
    combiner-safe key histogram."""

    def map(self, key, value, output, reporter):
        output.collect(key, IntWritable(1))


class SumValuesReducer(Reducer, AssociativeReducer):
    """Integer sum — marked associative, so the IMC suites exercise the
    opt-in marker path (the stock SumReducers exercise the allowlist)."""

    def reduce(self, key, values, output, reporter):
        output.collect(key, IntWritable(sum(v.get() for v in values)))


class WordStressMapper(Mapper):
    """Word splitter with a per-record user counter (lost updates under
    concurrent increments would show up as an inexact total)."""

    def map(self, key, value, output, reporter):
        reporter.incr_counter("stress", "records", 1)
        for word in str(value).split():
            reporter.incr_counter("stress", "words", 1)
            output.collect(Text(word), IntWritable(1))


class PoisonedMapper(Mapper):
    """Raises mid-phase when it encounters the poisoned record."""

    exception: type = ValueError

    def map(self, key, value, output, reporter):
        if "POISON" in str(value):
            raise self.exception("injected task failure")
        output.collect(Text(str(value)), IntWritable(1))


class NodeLossMapper(PoisonedMapper):
    exception = JobFailedError


# --------------------------------------------------------------------- #
# job builders
# --------------------------------------------------------------------- #


def enable_restore(conf: JobConf) -> JobConf:
    """Switch cross-job result reuse on for one job conf."""
    conf.set_boolean(RESTORE_ENABLED_KEY, True)
    return conf


def histogram_job(
    input_path: str,
    output_path: str,
    reducers: int,
    use_combiner: bool = False,
    name: str = "histogram",
) -> JobConf:
    """The differential sweep's key-histogram job over sequence files."""
    conf = JobConf()
    conf.set_job_name(name)
    conf.set_input_paths(input_path)
    conf.set_input_format(SequenceFileInputFormat)
    conf.set_mapper_class(ToOneMapper)
    conf.set_reducer_class(SumValuesReducer)
    if use_combiner:
        conf.set_combiner_class(SumValuesReducer)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_output_path(output_path)
    conf.set_num_reduce_tasks(reducers)
    return conf


def stress_job(input_path: str, output_path: str, reducers: int = 8) -> JobConf:
    conf = JobConf()
    conf.set_job_name("wordcount-stress")
    conf.set_input_paths(input_path)
    conf.set_output_path(output_path)
    conf.set_input_format(TextInputFormat)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_num_reduce_tasks(reducers)
    conf.set_mapper_class(WordStressMapper)
    conf.set_reducer_class(SumReducer)
    conf.set_combiner_class(SumReducer)
    return conf


def failing_job(mapper_cls) -> JobConf:
    conf = JobConf()
    conf.set_job_name("fault-injection")
    conf.set_input_paths("/in")
    conf.set_output_path("/out")
    conf.set_input_format(TextInputFormat)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_num_reduce_tasks(4)
    conf.set_mapper_class(mapper_cls)
    conf.set_reducer_class(SumReducer)
    return conf


# --------------------------------------------------------------------- #
# runners / snapshots
# --------------------------------------------------------------------- #


def run_both(build_job, datasets, reducers=4, jobs=1):
    """Run the same job(s) on fresh engines; return both output dicts."""
    outputs = {}
    for kind, factory in (("hadoop", make_hadoop), ("m3r", make_m3r)):
        engine = factory()
        try:
            for path, pairs in datasets.items():
                chunks = defaultdict(list)
                for index, pair in enumerate(pairs):
                    chunks[index % 2].append(pair)
                for part, chunk in chunks.items():
                    engine.filesystem.write_pairs(f"{path}/part-{part:05d}", chunk)
            build_job(engine)
            outputs[kind] = sorted(
                (repr(k), repr(v)) for k, v in engine.filesystem.read_kv_pairs("/out")
            )
        finally:
            if hasattr(engine, "shutdown"):
                engine.shutdown()
    return outputs


def snapshot(engine, out_dir: str = "/out"):
    """Everything the determinism contract covers: committed output pairs,
    per-file layout, all counter totals, and (for M3R) the cached blocks."""
    per_file = {}
    for status in engine.filesystem.list_status(out_dir):
        per_file[status.path] = [
            (repr(k), repr(v)) for k, v in engine.filesystem.read_kv_pairs(status.path)
        ] if not status.path.endswith("_SUCCESS") else []
    cached = None
    if hasattr(engine, "cache"):
        cached = sorted(
            (e.name, e.path, e.place_id, e.nbytes,
             sorted((repr(k), repr(v)) for k, v in e.pairs))
            for e in engine.cache.entries()
        )
    return per_file, cached


def snapshot_output(engine, out_dir: str) -> Dict[str, str]:
    """Byte-level view of one output directory, keyed by basename (so two
    runs committed to different directories compare directly).  Pair
    files snapshot as the repr of their sequence, byte files as their
    raw bytes; ``_SUCCESS``-style markers record presence only."""
    per_file: Dict[str, str] = {}
    for status in engine.filesystem.list_files_recursive(out_dir):
        basename = status.path.rsplit("/", 1)[-1]
        if basename.startswith(("_", ".")):
            per_file[basename] = "<marker>"
            continue
        try:
            per_file[basename] = repr(engine.filesystem.read_pairs(status.path))
        except TypeError:
            per_file[basename] = repr(engine.filesystem.read_bytes(status.path))
    return per_file


def run_stress(factory, seed: int, parts: int = NUM_SPLITS,
               engine_kwargs=None, conf_bools=None):
    """One engine, one seeded corpus, one run; returns the full snapshot."""
    engine = factory(**(engine_kwargs or {}))
    try:
        corpus = write_corpus(engine.filesystem, "/in", seed, parts=parts)
        conf = stress_job("/in", "/out")
        for key, value in (conf_bools or {}).items():
            conf.set_boolean(key, value)
        result = engine.run_job(conf)
        assert result.succeeded, result.error
        per_file, cached = snapshot(engine)
        counts = PyCounter()
        for k, v in engine.filesystem.read_kv_pairs("/out"):
            counts[str(k)] += v.get()
        return {
            "corpus": corpus,
            "output": per_file,
            "cached": cached,
            "counts": counts,
            "counters": result.counters.as_dict(),
            "counters_obj": result.counters,
            "metrics": result.metrics,
            "seconds": result.simulated_seconds,
        }
    finally:
        if hasattr(engine, "shutdown"):
            engine.shutdown()


# --------------------------------------------------------------------- #
# rerun-able workloads (the restore differential harness)
# --------------------------------------------------------------------- #


class WordCountWorkload:
    """Plain wordcount over a seeded text corpus."""

    name = "wordcount"

    def prepare(self, engine, seed: int) -> None:
        write_corpus(engine.filesystem, "/in", seed, parts=8, lines_per_part=4)

    def run(self, engine, tag: str, restore: bool = False) -> List[Any]:
        conf = wordcount_job("/in", f"/out-{tag}", 4)
        if restore:
            enable_restore(conf)
        return [engine.run_job(conf)]

    def output_dirs(self, tag: str) -> List[str]:
        return [f"/out-{tag}"]


class MatvecWorkload:
    """One blocked matrix-vector iteration (a two-job sequence with a
    temporary intermediate — exercises prefix reuse across a sequence)."""

    name = "matvec"
    rows, block, reducers = 64, 16, 4

    def prepare(self, engine, seed: int) -> None:
        num_blocks = self.rows // self.block
        g = matvec.generate_blocked_matrix(
            self.rows, self.block, sparsity=0.2, seed=seed * 13 + 1
        )
        v = matvec.generate_blocked_vector(self.rows, self.block, seed=seed * 13 + 2)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_blocks, self.reducers)
        matvec.write_partitioned(engine.filesystem, "/v0", v, num_blocks, self.reducers)

    def run(self, engine, tag: str, restore: bool = False) -> List[Any]:
        num_blocks = self.rows // self.block
        sequence = matvec.iteration_jobs(
            "/G", "/v0", f"/v1-{tag}", f"/mv-tmp-{tag}", 0, num_blocks,
            self.reducers,
        )
        if restore:
            for conf in sequence.confs:
                enable_restore(conf)
        return engine.run_sequence(sequence)

    def output_dirs(self, tag: str) -> List[str]:
        return [f"/v1-{tag}"]


class GrepWorkload:
    """The paper's grep pipeline (search + sort jobs chained)."""

    name = "grep"

    def prepare(self, engine, seed: int) -> None:
        write_corpus(engine.filesystem, "/corpus", seed, parts=4, lines_per_part=5)

    def run(self, engine, tag: str, restore: bool = False) -> List[Any]:
        sequence = grep_sequence(
            "/corpus", f"/grep-{tag}", r"the|and|of", temp_dir=f"/gtmp-{tag}"
        )
        if restore:
            for conf in sequence.confs:
                enable_restore(conf)
        return engine.run_sequence(sequence)

    def output_dirs(self, tag: str) -> List[str]:
        return [f"/grep-{tag}"]


WORKLOADS = (WordCountWorkload(), MatvecWorkload(), GrepWorkload())
