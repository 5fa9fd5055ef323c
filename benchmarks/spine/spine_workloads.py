"""The five workloads of the measurement spine.

Each workload turns a seed into raw inputs (plain Python / numpy data, no
engine state), loads them into a fresh filesystem wrapped in *fresh*
Writables (the process-wide ``SizeCache`` is keyed by object identity, so
sharing Writables across repetitions would make later repetitions cheaper
than the first), submits its job sequence through the public engine API,
and knows the single-process reference its committed output must equal.

Why these five — which layer each one works and which it leaves idle — is
the table in README.md; the one-line version is each workload's ``why`` in
BENCHMARK.json.

All mapper/reducer/partitioner classes are module-level so ReStore can
fingerprint them and the process-places backend can pickle them.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import hadoop_engine, m3r_engine
from repro.api import conf as api_conf
from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput
from repro.api.formats import (
    SequenceFileInputFormat,
    SequenceFileOutputFormat,
    TextInputFormat,
)
from repro.api.job import JobSequence
from repro.api.mapred import Mapper, OutputCollector, Reducer, Reporter
from repro.api.partitioner import Partitioner
from repro.api.vectorized import AssociativeReducer
from repro.api.writables import (
    BlockIndexWritable,
    BytesWritable,
    IntWritable,
    LongWritable,
    MatrixBlockWritable,
    Text,
    VectorBlockWritable,
)
from repro.apps import matvec
from repro.apps.microbenchmark import microbenchmark_job
from repro.fs import SimulatedHDFS
from repro.sim import Cluster, CostModel, paper_cluster_cost_model

#: Engine shape used everywhere: 4 nodes / places, constructor defaults
#: otherwise.
NUM_PLACES = 4

#: Per-job/per-task fixed costs are shrunk by this factor so they keep the
#: paper's fixed-to-data ratio at laptop-scale inputs (the constants of
#: ``benchmarks/common.scaled_cost_model``, copied: that file is outside
#: the benchmark's paths and may change under it).
FIXED_COST_SHRINK = 50.0

#: Applied to every JobConf just before submission (mode knobs).
Tweak = Callable[[JobConf], None]


def knob(constant_name: str) -> Optional[str]:
    """A knob's key string, or ``None`` once a later PR has deleted it.

    The roadmap deletes modes; a workload whose knob is gone degrades to
    the default path instead of crashing the benchmark, and the envelope
    lists the missing key.
    """
    return getattr(api_conf, constant_name, None)


def set_knobs(conf: JobConf, constant_names: Tuple[str, ...], value: bool) -> None:
    for name in constant_names:
        key = knob(name)
        if key is not None:
            conf.set_boolean(key, value)


def scaled_cost_model() -> CostModel:
    base = paper_cluster_cost_model()
    shrink = FIXED_COST_SHRINK
    return base.evolve(
        jvm_startup=base.jvm_startup / shrink,
        task_scheduling=base.task_scheduling / shrink,
        hadoop_job_submit=base.hadoop_job_submit / shrink,
        hadoop_job_cleanup=base.hadoop_job_cleanup / shrink,
        m3r_job_submit=base.m3r_job_submit / shrink,
        m3r_barrier=base.m3r_barrier / shrink,
    )


def build_engine(kind: str, **engine_kwargs: Any) -> Any:
    """A fresh engine over a fresh simulated cluster and HDFS."""
    fs = SimulatedHDFS(Cluster(NUM_PLACES))
    factory = {"m3r": m3r_engine, "hadoop": hadoop_engine}[kind]
    return factory(filesystem=fs, cost_model=scaled_cost_model(), **engine_kwargs)


def _sha(parts: Iterator[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


class Workload:
    """One benchmark workload; subclasses fill in the five verbs."""

    name = "?"
    #: Knob constants (names in ``repro.api.conf``) this workload turns on.
    knobs_on: Tuple[str, ...] = ()

    def sizes(self, quick: bool) -> Dict[str, Any]:
        """The input shape at the full or the (non-comparable) quick scale."""
        raise NotImplementedError

    def generate(self, seed: int, quick: bool) -> Dict[str, Any]:
        """Raw inputs, a pure function of ``(seed, quick)``."""
        raise NotImplementedError

    def input_digest(self, inputs: Dict[str, Any]) -> str:
        raise NotImplementedError

    def engine_kwargs(self, kind: str, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Extra engine-constructor arguments (the cache budget)."""
        return {}

    def load(self, fs: Any, inputs: Dict[str, Any]) -> None:
        """Write the inputs into a fresh filesystem (untimed)."""
        raise NotImplementedError

    def run(self, engine: Any, inputs: Dict[str, Any], tweak: Tweak) -> List[Any]:
        """Submit the whole job sequence (timed); raises when a job fails."""
        raise NotImplementedError

    def output(self, fs: Any, inputs: Dict[str, Any]) -> Any:
        """The committed output in the canonical form ``reference`` returns."""
        raise NotImplementedError

    def reference(self, inputs: Dict[str, Any]) -> Any:
        """Single-process pure-Python/numpy ground truth."""
        raise NotImplementedError

    def matches_reference(self, got: Any, expected: Any) -> bool:
        return got == expected

    def output_digest(self, got: Any) -> str:
        """Byte-exact digest, compared between the two engines."""
        return _sha(repr(item).encode("utf-8") for item in got)

    def tweak(self, conf: JobConf) -> None:
        set_knobs(conf, self.knobs_on, True)


# --------------------------------------------------------------------------- #
# invindex / invindex_imc — inverted-index build
# --------------------------------------------------------------------------- #


class StableTextPartitioner(Partitioner):
    """``crc32(key) mod partitions``.

    The stock ``HashPartitioner`` uses ``hash(str)``, which CPython salts
    per process: partition sizes, shuffle bytes and simulated seconds would
    then differ between two runs of the same seed.
    """

    def get_partition(self, key: Text, value: object, num_partitions: int) -> int:
        return zlib.crc32(key.to_string().encode("utf-8")) % num_partitions


class TokenizeMapper(Mapper, ImmutableOutput):
    """Job 1: ``doc-id<TAB>text`` → ``word@doc → 1`` per token."""

    def __init__(self) -> None:
        self.one = IntWritable(1)

    def map(
        self, key: LongWritable, value: Text, output: OutputCollector, reporter: Reporter
    ) -> None:
        doc, _, text = value.to_string().partition("\t")
        for token in text.split():
            output.collect(Text(f"{token}@{doc}"), self.one)


class CountSumReducer(Reducer, ImmutableOutput, AssociativeReducer):
    """Job 1 combiner and reducer: a pure associative sum, one fresh output
    per call — the contract that licenses in-mapper combining."""

    def reduce(
        self,
        key: Text,
        values: Iterator[IntWritable],
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        total = 0
        for value in values:
            total += value.get()
        output.collect(key, IntWritable(total))


class RegroupMapper(Mapper, ImmutableOutput):
    """Job 2: ``word@doc → count`` → ``word → doc:count``."""

    def map(
        self, key: Text, value: IntWritable, output: OutputCollector, reporter: Reporter
    ) -> None:
        word, _, doc = key.to_string().partition("@")
        output.collect(Text(word), Text(f"{doc}:{value.get()}"))


class PostingsReducer(Reducer, ImmutableOutput):
    """Job 2: ``word → sorted postings list``."""

    def reduce(
        self,
        key: Text,
        values: Iterator[Text],
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        postings = sorted(value.to_string() for value in values)
        output.collect(key, Text(" ".join(postings)))


class InvertedIndex(Workload):
    """Tokenize → postings over Zipf text, per-record path by default."""

    name = "invindex"

    PARTS = 16
    DOCS = 16
    WORDS_PER_LINE = 10
    VOCABULARY = 2048
    ZIPF_EXPONENT = 1.5
    TEMP_PATH = "/idx/temp-counts"
    OUT_PATH = "/idx/postings"

    def sizes(self, quick: bool) -> Dict[str, Any]:
        return {
            "lines": 256 if quick else 2560,
            "words_per_line": self.WORDS_PER_LINE,
            "vocabulary": self.VOCABULARY,
            "docs": self.DOCS,
            "parts": self.PARTS,
            "reducers": NUM_PLACES * 2,
        }

    def generate(self, seed: int, quick: bool) -> Dict[str, Any]:
        sizes = self.sizes(quick)
        rng = np.random.default_rng([seed, 1])
        ranks = np.arange(1, self.VOCABULARY + 1, dtype=float)
        weights = ranks ** -self.ZIPF_EXPONENT
        words = rng.choice(
            self.VOCABULARY,
            size=(sizes["lines"], self.WORDS_PER_LINE),
            p=weights / weights.sum(),
        )
        lines_per_doc = sizes["lines"] // self.DOCS
        docs_per_part = self.DOCS // self.PARTS
        parts: List[str] = []
        line = 0
        for part in range(self.PARTS):
            rows: List[str] = []
            for doc in range(part * docs_per_part, (part + 1) * docs_per_part):
                for _ in range(lines_per_doc):
                    text = " ".join(f"w{w:04d}" for w in words[line])
                    rows.append(f"d{doc:03d}\t{text}")
                    line += 1
            parts.append("\n".join(rows) + "\n")
        return {"sizes": sizes, "parts": parts}

    def input_digest(self, inputs: Dict[str, Any]) -> str:
        return _sha(part.encode("utf-8") for part in inputs["parts"])

    def load(self, fs: Any, inputs: Dict[str, Any]) -> None:
        for index, text in enumerate(inputs["parts"]):
            fs.write_text(f"/idx/in/part-{index:05d}", text)

    def jobs(self, inputs: Dict[str, Any]) -> JobSequence:
        reducers = inputs["sizes"]["reducers"]
        count = JobConf()
        count.set_job_name("invindex.count")
        count.set_input_paths("/idx/in")
        count.set_input_format(TextInputFormat)
        count.set_mapper_class(TokenizeMapper)
        count.set_combiner_class(CountSumReducer)
        count.set_reducer_class(CountSumReducer)
        count.set_partitioner_class(StableTextPartitioner)
        count.set_output_key_class(Text)
        count.set_output_value_class(IntWritable)
        count.set_output_format(SequenceFileOutputFormat)
        count.set_output_path(self.TEMP_PATH)
        count.set_num_reduce_tasks(reducers)
        regroup = JobConf()
        regroup.set_job_name("invindex.postings")
        regroup.set_input_paths(self.TEMP_PATH)
        regroup.set_input_format(SequenceFileInputFormat)
        regroup.set_mapper_class(RegroupMapper)
        regroup.set_reducer_class(PostingsReducer)
        regroup.set_partitioner_class(StableTextPartitioner)
        regroup.set_output_key_class(Text)
        regroup.set_output_value_class(Text)
        regroup.set_output_format(SequenceFileOutputFormat)
        regroup.set_output_path(self.OUT_PATH)
        regroup.set_num_reduce_tasks(reducers)
        return JobSequence([count, regroup])

    def run(self, engine: Any, inputs: Dict[str, Any], tweak: Tweak) -> List[Any]:
        sequence = self.jobs(inputs)
        for conf in sequence:
            tweak(conf)
        return sequence.run_all(engine)

    def output(self, fs: Any, inputs: Dict[str, Any]) -> Any:
        return sorted(
            (key.to_string(), value.to_string())
            for key, value in fs.read_kv_pairs(self.OUT_PATH)
        )

    def reference(self, inputs: Dict[str, Any]) -> Any:
        counts: Counter = Counter()
        for part in inputs["parts"]:
            for row in part.splitlines():
                doc, _, text = row.partition("\t")
                for token in text.split():
                    counts[(token, doc)] += 1
        postings: Dict[str, List[str]] = {}
        for (word, doc), count in counts.items():
            postings.setdefault(word, []).append(f"{doc}:{count}")
        return sorted((word, " ".join(sorted(docs))) for word, docs in postings.items())


class InvertedIndexIMC(InvertedIndex):
    """Same inputs and jobs on the batched driver with in-mapper combining."""

    name = "invindex_imc"
    knobs_on = ("BATCH_ENABLED_KEY", "IMC_ENABLED_KEY")


# --------------------------------------------------------------------------- #
# matvec_iter / cache_pressure — iterated sparse matrix × dense vector
# --------------------------------------------------------------------------- #


class MatvecIter(Workload):
    """Paper Fig. 7 flagship: many small jobs over few large numpy records."""

    name = "matvec_iter"

    SPARSITY = 0.05
    #: Relative 2-norm tolerance against the numpy reference, fixed from the
    #: dtype: float64 sums of a few hundred terms per row over tens of
    #: chained iterations reorder at ~1e-12; 1e-9 leaves three decades.
    RTOL = 1e-9

    def sizes(self, quick: bool) -> Dict[str, Any]:
        if quick:
            return {"rows": 1200, "block": 300, "iterations": 4}
        return {"rows": 6000, "block": 750, "iterations": 24}

    def generate(self, seed: int, quick: bool) -> Dict[str, Any]:
        sizes = dict(self.sizes(quick), sparsity=self.SPARSITY)
        rows, block = sizes["rows"], sizes["block"]
        g_seed, v_seed = (int(s) for s in np.random.default_rng([seed, 2]).integers(1 << 31, size=2))
        g = [
            (key.row, key.col, value.matrix)
            for key, value in matvec.generate_blocked_matrix(
                rows, block, sparsity=self.SPARSITY, seed=g_seed
            )
        ]
        v = [
            (key.row, value.values)
            for key, value in matvec.generate_blocked_vector(rows, block, seed=v_seed)
        ]
        sizes["row_blocks"] = (rows + block - 1) // block
        sizes["g_blocks"] = len(g)
        return {"sizes": sizes, "g": g, "v": v}

    def input_digest(self, inputs: Dict[str, Any]) -> str:
        def parts() -> Iterator[bytes]:
            for row, col, matrix in inputs["g"]:
                yield f"{row},{col}".encode("ascii")
                yield matrix.indptr.tobytes()
                yield matrix.indices.tobytes()
                yield matrix.data.tobytes()
            for row, values in inputs["v"]:
                yield f"{row}".encode("ascii")
                yield values.tobytes()

        return _sha(parts())

    def _pairs(self, inputs: Dict[str, Any]) -> Tuple[List[Any], List[Any]]:
        g_pairs = [
            (BlockIndexWritable(row, col), MatrixBlockWritable(matrix))
            for row, col, matrix in inputs["g"]
        ]
        v_pairs = [
            (BlockIndexWritable(row, 0), VectorBlockWritable(values))
            for row, values in inputs["v"]
        ]
        return g_pairs, v_pairs

    def load(self, fs: Any, inputs: Dict[str, Any]) -> None:
        row_blocks = inputs["sizes"]["row_blocks"]
        g_pairs, v_pairs = self._pairs(inputs)
        matvec.write_partitioned(fs, "/G", g_pairs, row_blocks, NUM_PLACES)
        matvec.write_partitioned(fs, "/V0", v_pairs, row_blocks, NUM_PLACES)

    def run(self, engine: Any, inputs: Dict[str, Any], tweak: Tweak) -> List[Any]:
        sizes = inputs["sizes"]
        results: List[Any] = []
        current = "/V0"
        for iteration in range(sizes["iterations"]):
            nxt = f"/V{iteration + 1}"
            sequence = matvec.iteration_jobs(
                "/G", current, nxt, "/scratch", iteration, sizes["row_blocks"], NUM_PLACES
            )
            for conf in sequence:
                tweak(conf)
            results.extend(sequence.run_all(engine))
            current = nxt
        return results

    def output(self, fs: Any, inputs: Dict[str, Any]) -> Any:
        sizes = inputs["sizes"]
        pairs = fs.read_kv_pairs(f"/V{sizes['iterations']}")
        return matvec.blocked_vector_to_array(pairs, sizes["rows"])

    def reference(self, inputs: Dict[str, Any]) -> Any:
        sizes = inputs["sizes"]
        rows, block = sizes["rows"], sizes["block"]
        g_pairs, v_pairs = self._pairs(inputs)
        vector = matvec.blocked_vector_to_array(v_pairs, rows)
        for _ in range(sizes["iterations"]):
            blocked = [
                (BlockIndexWritable(start // block, 0), VectorBlockWritable(vector[start : start + block]))
                for start in range(0, rows, block)
            ]
            vector = matvec.reference_multiply(g_pairs, blocked, rows, block)
        return vector

    def matches_reference(self, got: Any, expected: Any) -> bool:
        if got.shape != expected.shape or not np.all(np.isfinite(got)):
            return False
        return bool(
            np.linalg.norm(got - expected) <= self.RTOL * np.linalg.norm(expected)
        )

    def output_digest(self, got: Any) -> str:
        return _sha(iter([got.tobytes()]))


class CachePressure(MatvecIter):
    """The same cache used the other way: the working set does not fit."""

    name = "cache_pressure"

    BUDGET_FRACTION = 0.5

    def sizes(self, quick: bool) -> Dict[str, Any]:
        if quick:
            return {"rows": 1200, "block": 100, "iterations": 2}
        return {"rows": 4000, "block": 200, "iterations": 8}

    def generate(self, seed: int, quick: bool) -> Dict[str, Any]:
        inputs = super().generate(seed, quick)
        inputs["sizes"]["cache_capacity_bytes"] = int(
            self.BUDGET_FRACTION * self._warm_working_set(inputs)
        )
        return inputs

    def _warm_working_set(self, inputs: Dict[str, Any]) -> int:
        """Largest per-place resident bytes with G and V0 warm and no budget."""
        engine = build_engine("m3r")
        try:
            self.load(engine.filesystem, inputs)
            engine.warm_cache_from("/G")
            engine.warm_cache_from("/V0")
            places = engine.cache.stats()["places"]
            return max(slot["resident_bytes"] for slot in places.values())
        finally:
            engine.shutdown()

    def engine_kwargs(self, kind: str, inputs: Dict[str, Any]) -> Dict[str, Any]:
        if kind != "m3r":  # Hadoop has no cache: it ignores the budget
            return {}
        return {"cache_capacity_bytes": inputs["sizes"]["cache_capacity_bytes"]}


# --------------------------------------------------------------------------- #
# shuffle_remote — paper Fig. 6 microbenchmark at 100 % remote
# --------------------------------------------------------------------------- #


class ShuffleRemote(Workload):
    """Identity map/reduce where every pair crosses places."""

    name = "shuffle_remote"

    REMOTE_PERCENT = 100
    BASE = "/micro"

    def sizes(self, quick: bool) -> Dict[str, Any]:
        return {
            "pairs": 1000 if quick else 5000,
            "value_bytes": 1024,
            "iterations": 3,
            "remote_percent": self.REMOTE_PERCENT,
        }

    def generate(self, seed: int, quick: bool) -> Dict[str, Any]:
        sizes = self.sizes(quick)
        rng = np.random.default_rng([seed, 3])
        # Lengths jitter ±6 % around the nominal size so byte metrics are a
        # function of the seed, not one constant.
        nominal = sizes["value_bytes"]
        lengths = rng.integers(nominal - nominal // 16, nominal + nominal // 16 + 1, sizes["pairs"])
        payloads = [rng.bytes(int(n)) for n in lengths]
        return {"sizes": sizes, "payloads": payloads}

    def input_digest(self, inputs: Dict[str, Any]) -> str:
        return _sha(iter(inputs["payloads"]))

    def load(self, fs: Any, inputs: Dict[str, Any]) -> None:
        # Partition-aligned layout: the state after the paper's §6.1.1
        # repartitioning job, so "remote" is decided by the mapper alone.
        buckets: List[List[Tuple[Any, Any]]] = [[] for _ in range(NUM_PLACES)]
        for key, payload in enumerate(inputs["payloads"]):
            buckets[key % NUM_PLACES].append((IntWritable(key), BytesWritable(payload)))
        for partition, bucket in enumerate(buckets):
            fs.write_pairs(
                f"{self.BASE}/input/part-{partition:05d}", bucket, at_node=partition
            )

    def run(self, engine: Any, inputs: Dict[str, Any], tweak: Tweak) -> List[Any]:
        sizes = inputs["sizes"]
        fs = engine.filesystem
        results: List[Any] = []
        current = f"{self.BASE}/input"
        for iteration in range(sizes["iterations"]):
            final = iteration == sizes["iterations"] - 1
            out = f"{self.BASE}/output" if final else f"{self.BASE}/temp-i{iteration}"
            conf = microbenchmark_job(
                current, out, self.REMOTE_PERCENT, NUM_PLACES, seed=iteration
            )
            tweak(conf)
            results.extend(JobSequence([conf]).run_all(engine))
            # The paper's cache management: a consumed input only wastes memory.
            fs.delete(current, recursive=True)
            current = out
        return results

    def output(self, fs: Any, inputs: Dict[str, Any]) -> Any:
        return sorted(
            (key.get(), value.get_bytes())
            for key, value in fs.read_kv_pairs(f"{self.BASE}/output")
        )

    def reference(self, inputs: Dict[str, Any]) -> Any:
        # At 100 % remote every iteration re-keys k → k + 1; values are
        # carried through unchanged.
        shift = inputs["sizes"]["iterations"]
        return sorted(
            (key + shift, payload) for key, payload in enumerate(inputs["payloads"])
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        InvertedIndex(),
        InvertedIndexIMC(),
        MatvecIter(),
        ShuffleRemote(),
        CachePressure(),
    )
}
