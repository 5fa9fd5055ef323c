"""The paper's shuffle microbenchmark (Section 6.1, Figure 6).

An iterated identity job parameterized by the fraction of pairs shuffled to
a *remote* partition:

* input: N pairs — ascending integer keys, 10 KB byte-array values (scaled
  down by default so the reproduction runs in seconds);
* mapper (``ImmutableOutput``): per pair, deterministically "flip a coin"
  weighted by the remote fraction; emit the key unchanged (stays in its own
  partition, hence — under M3R partition stability — in its own place) or
  re-keyed to the adjacent partition (guaranteed remote);
* partitioner: ``key mod num_partitions`` ("the partitioner simply mods the
  integer key");
* reducer: identity;
* three iterations, each consuming the previous output; all intermediate
  outputs are temporary (never flushed) and the previous iteration's input
  is explicitly deleted from cache+fs after each step, exactly as the paper
  describes its cache management.

On Hadoop the remote fraction does not matter (no partition stability, and
the disk-based shuffle costs the same for every destination); on M3R time
is linear in the remote fraction with a lower constant from iteration 2 on
(cache hits).  That is Figure 6.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput
from repro.api.formats import SequenceFileInputFormat, SequenceFileOutputFormat
from repro.api.mapred import IdentityReducer, Mapper, OutputCollector, Reporter
from repro.api.partitioner import Partitioner
from repro.api.writables import BytesWritable, IntWritable

REMOTE_PERCENT_KEY = "microbench.remote.percent"
SEED_KEY = "microbench.seed"


class ModPartitioner(Partitioner):
    """``partition = key mod numPartitions`` — the paper's partitioner."""

    def get_partition(self, key: IntWritable, value: object, num_partitions: int) -> int:
        return key.get() % num_partitions


class RemoteFractionMapperMutable(Mapper):
    """The mapper logic WITHOUT the ImmutableOutput marker.

    Functionally identical to :class:`RemoteFractionMapper`; exists so the
    cloning-cost ablation can run the same job with M3R's defensive copies
    enabled (an unmarked class cannot be derived from a marked one).
    """

    def __init__(self) -> None:
        self._remote_percent = 0
        self._seed = 0
        self._num_partitions = 1

    def configure(self, conf: JobConf) -> None:
        self._remote_percent = conf.get_int(REMOTE_PERCENT_KEY, 0)
        self._seed = conf.get_int(SEED_KEY, 0)
        self._num_partitions = max(1, conf.get_num_reduce_tasks())

    def _goes_remote(self, key: int) -> bool:
        # The coin is ``md5(seed:key)[0] * 100 < percent * 256`` with the
        # byte in [0, 255]: certain at percent <= 0 and percent >= 100.
        if self._remote_percent <= 0 or self._remote_percent >= 100:
            return self._remote_percent > 0
        digest = hashlib.md5(f"{self._seed}:{key}".encode("ascii")).digest()
        return digest[0] * 100 < self._remote_percent * 256

    def map(
        self,
        key: IntWritable,
        value: BytesWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        if self._goes_remote(key.get()):
            # "replaced with a key that partitions to a remote host": the
            # adjacent partition is remote under partition stability.
            output.collect(IntWritable(key.get() + 1), value)
        else:
            output.collect(key, value)


class RemoteFractionMapper(RemoteFractionMapperMutable, ImmutableOutput):
    """Emit each pair unchanged or re-keyed to the adjacent partition.

    The decision is a deterministic hash of (seed, key), so both engines
    shuffle exactly the same pairs to exactly the same partitions and the
    outputs stay comparable.  At 0 % and 100 % the coin is certain and no
    hash is computed; the decisions are the ones the hash would give.
    Marked ``ImmutableOutput`` per the paper's Section 6.1 methodology.
    """


class IdentityImmutableReducer(IdentityReducer, ImmutableOutput):
    """The identity reducer, marked so M3R may alias its output."""


def microbenchmark_job(
    input_path: str,
    output_path: str,
    remote_percent: int,
    num_reducers: int,
    seed: int = 0,
) -> JobConf:
    """One iteration of the microbenchmark."""
    if not 0 <= remote_percent <= 100:
        raise ValueError("remote percent must be within [0, 100]")
    conf = JobConf()
    conf.set_job_name(f"microbench[r={remote_percent}%]")
    conf.set_input_paths(input_path)
    conf.set_input_format(SequenceFileInputFormat)
    conf.set_mapper_class(RemoteFractionMapper)
    conf.set_reducer_class(IdentityImmutableReducer)
    conf.set_partitioner_class(ModPartitioner)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_output_path(output_path)
    conf.set_num_reduce_tasks(num_reducers)
    conf.set_int(REMOTE_PERCENT_KEY, remote_percent)
    conf.set_int(SEED_KEY, seed)
    return conf


def generate_input(
    fs,
    path: str,
    num_pairs: int,
    value_bytes: int,
    num_partitions: int,
    partition_aligned: bool = True,
) -> None:
    """Write the benchmark input: ascending int keys, fixed-size byte values.

    With ``partition_aligned`` the part files follow the mod-partitioner
    layout (the state after the paper's repartitioning job); without it the
    layout is scrambled the way a stock Hadoop generator would leave it.
    """
    buckets: List[List[Tuple[IntWritable, BytesWritable]]] = [
        [] for _ in range(num_partitions)
    ]
    payload = bytes(value_bytes)
    for k in range(num_pairs):
        bucket = (k % num_partitions) if partition_aligned else (k * 7919 % num_partitions)
        buckets[bucket].append((IntWritable(k), BytesWritable(payload)))
    for partition, bucket in enumerate(buckets):
        fs.write_pairs(
            f"{path.rstrip('/')}/part-{partition:05d}",
            bucket,
            at_node=partition if partition_aligned else None,
        )


@dataclass
class MicrobenchmarkResult:
    """Per-iteration timings for one remote-fraction setting."""

    remote_percent: int
    iteration_seconds: List[float]
    repartition_seconds: Optional[float] = None


def run_microbenchmark(
    engine,
    remote_percent: int,
    num_pairs: int = 2000,
    value_bytes: int = 1024,
    num_reducers: Optional[int] = None,
    iterations: int = 3,
    base_path: str = "/micro",
    mark_temporary: bool = True,
) -> MicrobenchmarkResult:
    """Drive the full three-iteration benchmark on either engine.

    The driver mirrors the paper's methodology: intermediate outputs are
    marked temporary (M3R never flushes them), the final output is real,
    and each iteration's input is deleted once consumed ("its presence in
    the cache wastes memory").
    """
    fs = engine.filesystem
    num_reducers = num_reducers if num_reducers is not None else engine.cluster.num_nodes
    input_path = f"{base_path}/input-r{remote_percent}"
    fs.delete(base_path, recursive=True)
    generate_input(fs, input_path, num_pairs, value_bytes, num_reducers)

    times: List[float] = []
    current = input_path
    for iteration in range(iterations):
        final = iteration == iterations - 1
        if final or not mark_temporary:
            out = f"{base_path}/output-r{remote_percent}-i{iteration}"
        else:
            out = f"{base_path}/temp-r{remote_percent}-i{iteration}"
        conf = microbenchmark_job(
            current, out, remote_percent, num_reducers, seed=iteration
        )
        result = engine.run_job(conf)
        if not result.succeeded:
            raise RuntimeError(f"microbenchmark iteration failed: {result.error}")
        times.append(result.simulated_seconds)
        # Explicitly drop the consumed input from cache and filesystem.
        fs.delete(current, recursive=True)
        current = out
    return MicrobenchmarkResult(remote_percent=remote_percent, iteration_seconds=times)
