"""The MR job shapes the mini-SystemML compiler generates.

Five job templates cover the three benchmark algorithms: cross-join +
aggregate matrix multiply (SystemML's MMCJ/MMRJ pair), element-wise binary,
transpose, scalar/unary map, and aggregates (sum / rowSums / colSums).

Fidelity notes (paper Section 6.4):

* the generated classes are **not** marked ``ImmutableOutput`` — "the code
  generated by the compiler is not aware of ImmutableOutput (hence is not
  optimized for cloning)";
* partitioning is the default hash partitioner — the generated code "does
  not take advantage of partition-stability".

``OPTIMIZED_VARIANTS`` maps each class to an ``ImmutableOutput``-marked
subclass, implementing the paper's closing remark that "with appropriate
modifications to the SystemML compiler, much better numbers can be obtained
on M3R, without compromising the numbers obtained on Hadoop" — the
ablation benchmark measures exactly that.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
from scipy import sparse

from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput
from repro.api.mapred import Mapper, OutputCollector, Reducer, Reporter
from repro.api.vectorized import VectorizedMapper
from repro.api.writables import BlockIndexWritable, DoubleWritable, IntWritable
from repro.sysml.blocks import CellMatrixBlockWritable, TaggedBlockWritable

OP_KEY = "sysml.op"
SCALAR_KEY = "sysml.scalar"
OPTIMIZED_KEY = "sysml.optimized"


# --------------------------------------------------------------------------- #
# matrix multiply: cross join on the shared dimension, then aggregate
# --------------------------------------------------------------------------- #


class MatMulLeftMapper(Mapper):
    """A block (i, q) joins on q, remembering its row i."""

    def map(
        self,
        key: BlockIndexWritable,
        value: CellMatrixBlockWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        output.collect(IntWritable(key.col), TaggedBlockWritable("A", key.row, value))


class MatMulRightMapper(Mapper):
    """A block (q, j) joins on q, remembering its column j."""

    def map(
        self,
        key: BlockIndexWritable,
        value: CellMatrixBlockWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        output.collect(IntWritable(key.row), TaggedBlockWritable("B", key.col, value))


class MatMulCrossReducer(Reducer):
    """For join key q: emit every ``A(i,q) @ B(q,j)`` partial product."""

    def reduce(
        self,
        key: IntWritable,
        values: Iterator[TaggedBlockWritable],
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        left = []
        right = []
        for value in values:
            (left if value.tag == "A" else right).append((value.index, value.block))
        for i, a_block in left:
            a_csc = a_block.to_csc()
            for j, b_block in right:
                product = a_csc @ b_block.to_csc()
                reporter.charge_flops(2.0 * a_block.nnz * max(1, b_block.shape[1]))
                output.collect(
                    BlockIndexWritable(i, j), CellMatrixBlockWritable(product)
                )


class BlockSumMapper(Mapper):
    """Aggregate job mapper: pass partial products through."""

    def map(
        self,
        key: BlockIndexWritable,
        value: CellMatrixBlockWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        output.collect(key, value)


class BlockSumReducer(Reducer):
    """Aggregate job reducer: element-wise sum of one output block's partials."""

    def reduce(
        self,
        key: BlockIndexWritable,
        values: Iterator[CellMatrixBlockWritable],
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        total: Optional[sparse.spmatrix] = None
        for value in values:
            block = value.to_csc()
            total = block if total is None else total + block
            reporter.charge_flops(float(value.nnz))
        if total is not None:
            output.collect(key.clone(), CellMatrixBlockWritable(total))


# --------------------------------------------------------------------------- #
# element-wise binary
# --------------------------------------------------------------------------- #


class ElementwiseLeftMapper(Mapper):
    def map(self, key, value, output: OutputCollector, reporter: Reporter) -> None:
        output.collect(key, TaggedBlockWritable("L", 0, value))


class ElementwiseRightMapper(Mapper):
    def map(self, key, value, output: OutputCollector, reporter: Reporter) -> None:
        output.collect(key, TaggedBlockWritable("R", 0, value))


class ElementwiseReducer(Reducer):
    """Combines the (up to two) sides of one block index with the configured
    operator.  A missing side is an all-zero block of the other's shape."""

    def __init__(self) -> None:
        self._op = "add"

    def configure(self, conf: JobConf) -> None:
        self._op = conf.get(OP_KEY, "add")

    def reduce(
        self,
        key: BlockIndexWritable,
        values: Iterator[TaggedBlockWritable],
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        left: Optional[CellMatrixBlockWritable] = None
        right: Optional[CellMatrixBlockWritable] = None
        for value in values:
            if value.tag == "L":
                left = value.block
            else:
                right = value.block
        shape = (left or right).shape  # at least one side is present
        l_mat = left.to_csc() if left is not None else sparse.csc_matrix(shape)
        r_mat = right.to_csc() if right is not None else sparse.csc_matrix(shape)
        reporter.charge_flops(float((left.nnz if left else 0) + (right.nnz if right else 0)))
        if self._op == "add":
            result = l_mat + r_mat
        elif self._op == "sub":
            result = l_mat - r_mat
        elif self._op == "mul":
            result = l_mat.multiply(r_mat)
        elif self._op == "div":
            # SystemML semantics restricted to the support of the numerator;
            # cells where the denominator is zero become zero, not inf.
            l_coo = sparse.coo_matrix(l_mat)
            denominator = np.asarray(
                r_mat[l_coo.row, l_coo.col]
            ).reshape(-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(denominator != 0, l_coo.data / denominator, 0.0)
            result = sparse.coo_matrix((ratio, (l_coo.row, l_coo.col)), shape=shape)
        else:
            raise ValueError(f"unknown element-wise op {self._op!r}")
        output.collect(key.clone(), CellMatrixBlockWritable(result))


# --------------------------------------------------------------------------- #
# transpose
# --------------------------------------------------------------------------- #


class TransposeMapper(Mapper):
    """(i, j) block → (j, i) transposed block; the shuffle regroups."""

    def map(
        self,
        key: BlockIndexWritable,
        value: CellMatrixBlockWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        transposed = CellMatrixBlockWritable(value.to_csc().transpose())
        output.collect(BlockIndexWritable(key.col, key.row), transposed)


class PassThroughReducer(Reducer):
    def reduce(self, key, values, output: OutputCollector, reporter: Reporter) -> None:
        for value in values:
            output.collect(key, value)


# --------------------------------------------------------------------------- #
# scalar / unary map-only
# --------------------------------------------------------------------------- #


class ScalarOpMapper(Mapper, VectorizedMapper):
    """Applies a scalar/unary operator cell-wise (map-only job).

    Under the batched record path this is the SystemML showcase: one numpy
    op over the concatenated cell values of the whole batch replaces one op
    per block.  Every operator is element-wise, so the concatenated result
    sliced back per block is bitwise identical to the per-record result.
    """

    batch_arrays = True

    def __init__(self) -> None:
        self._op = "smul"
        self._scalar = 1.0

    def configure(self, conf: JobConf) -> None:
        self._op = conf.get(OP_KEY, "smul")
        self._scalar = conf.get_float(SCALAR_KEY, 1.0)

    def _apply(self, cells: np.ndarray) -> np.ndarray:
        if self._op == "smul":
            return cells * self._scalar
        if self._op == "sadd":
            # Sparse-safe: adds only to stored cells (SystemML's CP would
            # densify; the generated MR op keeps the sparse support).
            return cells + self._scalar
        if self._op == "spow":
            return np.power(cells, self._scalar)
        if self._op == "sqrt":
            return np.sqrt(np.abs(cells))
        if self._op == "abs":
            return np.abs(cells)
        if self._op == "recip":
            with np.errstate(divide="ignore"):
                return np.where(cells != 0, 1.0 / cells, 0.0)
        if self._op == "sdiv_rev":
            with np.errstate(divide="ignore"):
                return np.where(cells != 0, self._scalar / cells, 0.0)
        raise ValueError(f"unknown scalar op {self._op!r}")

    def map(
        self,
        key: BlockIndexWritable,
        value: CellMatrixBlockWritable,
        output: OutputCollector,
        reporter: Reporter,
    ) -> None:
        cells = value.cell_vals
        reporter.charge_flops(float(len(cells)))
        new_vals = self._apply(cells)
        fresh = value.clone()
        fresh.cell_vals = np.asarray(new_vals, dtype=np.float64)
        output.collect(key.clone(), fresh)

    def map_batch(self, keys, values, output, reporter) -> None:
        n = len(keys)
        if n == 0:
            return
        lengths = [len(value.cell_vals) for value in values]
        flat = (
            np.concatenate([value.cell_vals for value in values])
            if n > 1
            else values[0].cell_vals
        )
        new_flat = self._apply(flat)
        collect = output.collect
        charge = reporter.charge_flops
        offset = 0
        for i in range(n):
            end = offset + lengths[i]
            # Per-block flop charges in block order: same accumulation
            # order (hence same float sum) as the per-record path.
            charge(float(lengths[i]))
            fresh = values[i].clone()
            fresh.cell_vals = np.array(new_flat[offset:end], dtype=np.float64)
            collect(keys[i].clone(), fresh)
            offset = end


# --------------------------------------------------------------------------- #
# aggregates
# --------------------------------------------------------------------------- #


class FullSumMapper(Mapper):
    def map(self, key, value: CellMatrixBlockWritable, output, reporter) -> None:
        reporter.charge_flops(float(value.nnz))
        output.collect(IntWritable(0), DoubleWritable(float(value.cell_vals.sum())))


class DoubleSumReducer(Reducer):
    def reduce(self, key, values, output: OutputCollector, reporter: Reporter) -> None:
        total = 0.0
        for value in values:
            total += value.get()
        output.collect(key, DoubleWritable(total))


class RowSumsMapper(Mapper):
    """(i, j) block → (i, 0): a column-vector block of its row sums."""

    def map(
        self, key: BlockIndexWritable, value: CellMatrixBlockWritable,
        output: OutputCollector, reporter: Reporter,
    ) -> None:
        sums = np.asarray(value.to_csc().sum(axis=1)).reshape(-1, 1)
        reporter.charge_flops(float(value.nnz))
        output.collect(
            BlockIndexWritable(key.row, 0),
            CellMatrixBlockWritable(sparse.coo_matrix(sums)),
        )


class ColSumsMapper(Mapper):
    """(i, j) block → (0, j): a row-vector block of its column sums."""

    def map(
        self, key: BlockIndexWritable, value: CellMatrixBlockWritable,
        output: OutputCollector, reporter: Reporter,
    ) -> None:
        sums = np.asarray(value.to_csc().sum(axis=0)).reshape(1, -1)
        reporter.charge_flops(float(value.nnz))
        output.collect(
            BlockIndexWritable(0, key.col),
            CellMatrixBlockWritable(sparse.coo_matrix(sums)),
        )


# --------------------------------------------------------------------------- #
# optimized (ImmutableOutput) variants — the paper's future-work ablation
# --------------------------------------------------------------------------- #


def _immutable_variant(cls: type) -> type:
    return type(cls.__name__ + "Immutable", (cls, ImmutableOutput), {
        "__doc__": f"ImmutableOutput-marked variant of {cls.__name__}."
    })


MatMulLeftMapperImmutable = _immutable_variant(MatMulLeftMapper)
MatMulRightMapperImmutable = _immutable_variant(MatMulRightMapper)
MatMulCrossReducerImmutable = _immutable_variant(MatMulCrossReducer)
BlockSumMapperImmutable = _immutable_variant(BlockSumMapper)
BlockSumReducerImmutable = _immutable_variant(BlockSumReducer)
ElementwiseLeftMapperImmutable = _immutable_variant(ElementwiseLeftMapper)
ElementwiseRightMapperImmutable = _immutable_variant(ElementwiseRightMapper)
ElementwiseReducerImmutable = _immutable_variant(ElementwiseReducer)
TransposeMapperImmutable = _immutable_variant(TransposeMapper)
PassThroughReducerImmutable = _immutable_variant(PassThroughReducer)
ScalarOpMapperImmutable = _immutable_variant(ScalarOpMapper)
FullSumMapperImmutable = _immutable_variant(FullSumMapper)
DoubleSumReducerImmutable = _immutable_variant(DoubleSumReducer)
RowSumsMapperImmutable = _immutable_variant(RowSumsMapper)
ColSumsMapperImmutable = _immutable_variant(ColSumsMapper)

#: stock class → ImmutableOutput variant (used when ``optimized=True``).
OPTIMIZED_VARIANTS = {
    MatMulLeftMapper: MatMulLeftMapperImmutable,
    MatMulRightMapper: MatMulRightMapperImmutable,
    MatMulCrossReducer: MatMulCrossReducerImmutable,
    BlockSumMapper: BlockSumMapperImmutable,
    BlockSumReducer: BlockSumReducerImmutable,
    ElementwiseLeftMapper: ElementwiseLeftMapperImmutable,
    ElementwiseRightMapper: ElementwiseRightMapperImmutable,
    ElementwiseReducer: ElementwiseReducerImmutable,
    TransposeMapper: TransposeMapperImmutable,
    PassThroughReducer: PassThroughReducerImmutable,
    ScalarOpMapper: ScalarOpMapperImmutable,
    FullSumMapper: FullSumMapperImmutable,
    DoubleSumReducer: DoubleSumReducerImmutable,
    RowSumsMapper: RowSumsMapperImmutable,
    ColSumsMapper: ColSumsMapperImmutable,
}


def resolve(cls: type, optimized: bool) -> type:
    """The class to wire into a job, honoring the optimized flag."""
    if optimized:
        return OPTIMIZED_VARIANTS.get(cls, cls)
    return cls
