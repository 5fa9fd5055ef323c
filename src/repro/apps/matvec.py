"""Iterated sparse matrix × dense vector multiply (paper Sections 3, 6.2).

This is the core computation inside PageRank and the paper's flagship
benchmark (Figure 7, up to ~45× over Hadoop).  The structure follows the
paper exactly:

* the sparse matrix ``G`` is blocked into ``b × b`` blocks keyed by a
  two-int :class:`~repro.api.writables.BlockIndexWritable`; block values
  are compressed-sparse-column :class:`MatrixBlockWritable`;
* the dense vector ``V`` is blocked into ``b × 1`` blocks, same key type
  with "a redundant column value of 0";
* one iteration = **two jobs**.  Job 1 multiplies: a pass-through mapper
  for ``G``, a broadcast mapper for ``V`` (each vector block is sent to
  every row block of its column — the de-duplication showcase), and a
  reducer that multiplies each ``G`` block by its vector block, emitting a
  partial result keyed by the ``G`` block's index.  Job 2 sums: its mapper
  rewrites keys to column 0 so one reduce call receives all partial sums
  of a row;
* everything is marked ``ImmutableOutput``; pairs are partitioned by *row
  chunk*, so with M3R's partition stability the only communication left is
  the inherent vector broadcast.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput
from repro.api.formats import SequenceFileInputFormat, SequenceFileOutputFormat
from repro.api.job import JobSequence
from repro.api.mapred import Mapper, OutputCollector, Reducer, Reporter
from repro.api.multiple_io import MultipleInputs
from repro.api.vectorized import VectorizedMapper
from repro.api.partitioner import Partitioner
from repro.api.writables import (
    BlockIndexWritable,
    MatrixBlockWritable,
    VectorBlockWritable,
)

NUM_ROW_BLOCKS_KEY = "matvec.num.row.blocks"


class RowChunkPartitioner(Partitioner):
    """Assigns contiguous chunks of block-rows to partitions.

    "e.g. one that assigns to place i the i-th contiguous chunk of rows" —
    with partition stability this pins each row stripe of ``G`` to one
    place for the whole job sequence.
    """

    def __init__(self) -> None:
        self._num_row_blocks = 1

    def configure(self, conf: JobConf) -> None:
        self._num_row_blocks = max(1, conf.get_int(NUM_ROW_BLOCKS_KEY, 1))

    def get_partition(
        self, key: BlockIndexWritable, value: object, num_partitions: int
    ) -> int:
        chunk = key.row * num_partitions // self._num_row_blocks
        return min(num_partitions - 1, max(0, chunk))


class GPassMapper(Mapper, ImmutableOutput, VectorizedMapper):
    """Job 1, matrix side: pass every ``G`` block through unchanged."""

    batch_arrays = True

    def map(
        self,
        key: BlockIndexWritable,
        value: MatrixBlockWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        output.collect(key, value)

    def map_batch(self, keys, values, output, reporter) -> None:
        collect = output.collect
        for i in range(len(keys)):
            collect(keys[i], values[i])


class VBroadcastMapper(Mapper, ImmutableOutput):
    """Job 1, vector side: broadcast block ``V_j`` to every row of column j.

    The same VectorBlockWritable object is emitted once per destination row
    block — on M3R the de-duplicating serializer sends one copy per place.
    """

    def __init__(self) -> None:
        self._num_row_blocks = 1

    def configure(self, conf: JobConf) -> None:
        self._num_row_blocks = max(1, conf.get_int(NUM_ROW_BLOCKS_KEY, 1))

    def map(
        self,
        key: BlockIndexWritable,
        value: VectorBlockWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        column = key.row  # a vector block (j, 0) feeds column j of G
        for row in range(self._num_row_blocks):
            output.collect(BlockIndexWritable(row, column), value)


class MultiplyReducer(Reducer, ImmutableOutput):
    """Job 1 reducer: ``partial(i) = G[i, j] @ V[j]``, keyed by ``(i, j)``."""

    def reduce(
        self,
        key: BlockIndexWritable,
        values: Iterator[object],
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        g_block: Optional[MatrixBlockWritable] = None
        v_block: Optional[VectorBlockWritable] = None
        for value in values:
            if isinstance(value, MatrixBlockWritable):
                g_block = value
            elif isinstance(value, VectorBlockWritable):
                v_block = value
        if g_block is None or v_block is None:
            # A block of G with no matching vector (or vice versa) cannot
            # contribute; this happens only for ragged edges.
            return
        partial = g_block.matrix @ v_block.values
        reporter.charge_flops(2.0 * g_block.nnz)
        output.collect(key.clone(), VectorBlockWritable(partial))


class PartialKeyMapper(Mapper, ImmutableOutput, VectorizedMapper):
    """Job 2 mapper: rewrite ``(i, j)`` to ``(i, 0)`` so one reduce call sees
    every partial sum of block-row i."""

    batch_arrays = True

    def map(
        self,
        key: BlockIndexWritable,
        value: VectorBlockWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        output.collect(BlockIndexWritable(key.row, 0), value)

    def map_batch(self, keys, values, output, reporter) -> None:
        collect = output.collect
        make_key = BlockIndexWritable
        for i in range(len(keys)):
            collect(make_key(keys[i].row, 0), values[i])


class SumReducer(Reducer, ImmutableOutput):
    """Job 2 reducer: element-wise sum of the partial vectors of one row."""

    def reduce(
        self,
        key: BlockIndexWritable,
        values: Iterator[VectorBlockWritable],
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        total: Optional[np.ndarray] = None
        count = 0
        for value in values:
            count += 1
            if total is None:
                total = value.values.copy()
            else:
                total = total + value.values
        if total is None:
            return
        reporter.charge_flops(float(count * len(total)))
        output.collect(key.clone(), VectorBlockWritable(total))


# --------------------------------------------------------------------------- #
# job construction
# --------------------------------------------------------------------------- #


def multiply_job(
    g_path: str,
    v_path: str,
    partial_path: str,
    num_row_blocks: int,
    num_reducers: int,
) -> JobConf:
    """Job 1 of an iteration: scalar (block) products."""
    conf = JobConf()
    conf.set_job_name("matvec.multiply")
    conf.set_int(NUM_ROW_BLOCKS_KEY, num_row_blocks)
    MultipleInputs.add_input_path(conf, g_path, SequenceFileInputFormat, GPassMapper)
    MultipleInputs.add_input_path(conf, v_path, SequenceFileInputFormat, VBroadcastMapper)
    conf.set_reducer_class(MultiplyReducer)
    conf.set_partitioner_class(RowChunkPartitioner)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_output_path(partial_path)
    conf.set_num_reduce_tasks(num_reducers)
    return conf


def sum_job(
    partial_path: str,
    v_out_path: str,
    num_row_blocks: int,
    num_reducers: int,
) -> JobConf:
    """Job 2 of an iteration: sum the partial products per block-row."""
    conf = JobConf()
    conf.set_job_name("matvec.sum")
    conf.set_int(NUM_ROW_BLOCKS_KEY, num_row_blocks)
    conf.set_input_paths(partial_path)
    conf.set_input_format(SequenceFileInputFormat)
    conf.set_mapper_class(PartialKeyMapper)
    conf.set_reducer_class(SumReducer)
    conf.set_partitioner_class(RowChunkPartitioner)
    conf.set_output_format(SequenceFileOutputFormat)
    conf.set_output_path(v_out_path)
    conf.set_num_reduce_tasks(num_reducers)
    return conf


def iteration_jobs(
    g_path: str,
    v_in: str,
    v_out: str,
    temp_dir: str,
    iteration: int,
    num_row_blocks: int,
    num_reducers: int,
) -> JobSequence:
    """The two jobs of one multiply iteration.

    The partial-product path lives under ``temp_dir`` and follows the
    temporary-output naming convention, so M3R never flushes it.
    """
    partial = f"{temp_dir.rstrip('/')}/temp-partials-{iteration}"
    return JobSequence(
        [
            multiply_job(g_path, v_in, partial, num_row_blocks, num_reducers),
            sum_job(partial, v_out, num_row_blocks, num_reducers),
        ]
    )


# --------------------------------------------------------------------------- #
# data generation and verification
# --------------------------------------------------------------------------- #


def generate_blocked_matrix(
    rows: int,
    block_size: int,
    sparsity: float = 0.001,
    seed: int = 11,
) -> List[Tuple[BlockIndexWritable, MatrixBlockWritable]]:
    """A square blocked sparse matrix with the paper's parameters
    (sparsity 0.001, square blocking)."""
    from scipy import sparse

    rng = np.random.default_rng(seed)
    num_blocks = (rows + block_size - 1) // block_size
    blocks: List[Tuple[BlockIndexWritable, MatrixBlockWritable]] = []
    for bi in range(num_blocks):
        block_rows = min(block_size, rows - bi * block_size)
        for bj in range(num_blocks):
            block_cols = min(block_size, rows - bj * block_size)
            nnz = rng.binomial(block_rows * block_cols, sparsity)
            if nnz == 0:
                continue
            data = rng.standard_normal(nnz)
            row_idx = rng.integers(0, block_rows, nnz)
            col_idx = rng.integers(0, block_cols, nnz)
            block = sparse.csc_matrix(
                (data, (row_idx, col_idx)), shape=(block_rows, block_cols)
            )
            blocks.append((BlockIndexWritable(bi, bj), MatrixBlockWritable(block)))
    return blocks


def generate_blocked_vector(
    rows: int, block_size: int, seed: int = 13
) -> List[Tuple[BlockIndexWritable, VectorBlockWritable]]:
    """A dense blocked vector ((j, 0) keys, arrays of double)."""
    rng = np.random.default_rng(seed)
    num_blocks = (rows + block_size - 1) // block_size
    blocks: List[Tuple[BlockIndexWritable, VectorBlockWritable]] = []
    for bj in range(num_blocks):
        block_rows = min(block_size, rows - bj * block_size)
        blocks.append(
            (BlockIndexWritable(bj, 0), VectorBlockWritable(rng.standard_normal(block_rows)))
        )
    return blocks


def write_partitioned(
    fs,
    path: str,
    pairs: List[Tuple[BlockIndexWritable, object]],
    num_row_blocks: int,
    num_partitions: int,
) -> None:
    """Write blocked data as part files following the row-chunk partitioner,
    so the on-disk layout matches M3R's partition → place mapping (the
    post-repartition state of Section 6.1.1)."""
    partitioner = RowChunkPartitioner()
    conf = JobConf()
    conf.set_int(NUM_ROW_BLOCKS_KEY, num_row_blocks)
    partitioner.configure(conf)
    buckets: List[List[Tuple[BlockIndexWritable, object]]] = [
        [] for _ in range(num_partitions)
    ]
    for key, value in pairs:
        buckets[partitioner.get_partition(key, value, num_partitions)].append(
            (key, value)
        )
    for partition, bucket in enumerate(buckets):
        fs.write_pairs(
            f"{path.rstrip('/')}/part-{partition:05d}", bucket, at_node=partition
        )


def blocked_vector_to_array(
    pairs: List[Tuple[BlockIndexWritable, VectorBlockWritable]], rows: int
) -> np.ndarray:
    """Reassemble a blocked vector into one dense numpy array."""
    out = np.zeros(rows)
    offset_of = {}
    cursor = 0
    for key, value in sorted(pairs, key=lambda kv: kv[0].row):
        offset_of[key.row] = cursor
        out[cursor : cursor + len(value.values)] = value.values
        cursor += len(value.values)
    return out[:cursor] if cursor != rows else out


def reference_multiply(
    g_pairs: List[Tuple[BlockIndexWritable, MatrixBlockWritable]],
    v_pairs: List[Tuple[BlockIndexWritable, VectorBlockWritable]],
    rows: int,
    block_size: int,
) -> np.ndarray:
    """NumPy ground truth for one ``G @ V`` iteration."""
    dense_v = np.zeros(rows)
    for key, value in v_pairs:
        start = key.row * block_size
        dense_v[start : start + len(value.values)] = value.values
    result = np.zeros(rows)
    for key, value in g_pairs:
        r0 = key.row * block_size
        c0 = key.col * block_size
        block = value.matrix
        result[r0 : r0 + block.shape[0]] += block @ dense_v[c0 : c0 + block.shape[1]]
    return result
