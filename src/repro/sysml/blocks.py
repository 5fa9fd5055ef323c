"""SystemML-style matrix blocks.

SystemML's runtime moves matrix blocks as cell-oriented structures; the
paper notes its in-memory representation is "about 10x less space-efficient
than in the sparse matrix multiply code we wrote manually", and that this
does not matter on Hadoop but does on M3R (which holds and clones blocks in
memory).  :class:`CellMatrixBlockWritable` reproduces the shape of that
inefficiency: a coordinate (COO) cell list with per-cell boxing overhead on
the wire, convertible to scipy CSC for the actual math.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.api.io_util import DataInputBuffer, DataOutputBuffer
from repro.api.writables import Writable
from repro.x10.serializer import Crossing, register_transport

#: Extra bytes per cell modelling the boxed-object overhead of SystemML's
#: in-memory representation (paper: ~10x the hand-written CSC blocks).
CELL_OVERHEAD_BYTES = 24


class CellMatrixBlockWritable(Writable):
    """A sparse matrix block stored as (row, col, value) cells."""

    def __init__(self, matrix: Optional[sparse.spmatrix] = None,
                 shape: Optional[Tuple[int, int]] = None):
        if matrix is not None:
            coo = sparse.coo_matrix(matrix)
            self.rows, self.cols = coo.shape
            self.cell_rows = coo.row.astype(np.int32)
            self.cell_cols = coo.col.astype(np.int32)
            self.cell_vals = coo.data.astype(np.float64)
        else:
            self.rows, self.cols = shape if shape is not None else (0, 0)
            self.cell_rows = np.zeros(0, dtype=np.int32)
            self.cell_cols = np.zeros(0, dtype=np.int32)
            self.cell_vals = np.zeros(0, dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return len(self.cell_vals)

    def to_csc(self) -> sparse.csc_matrix:
        """The scipy view used for actual arithmetic."""
        return sparse.csc_matrix(
            (self.cell_vals, (self.cell_rows, self.cell_cols)),
            shape=(self.rows, self.cols),
        )

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.to_csc().todense())

    def write(self, out: DataOutputBuffer) -> None:
        out.write_int(self.rows)
        out.write_int(self.cols)
        out.write_int(self.nnz)
        out.write_bytes(self.cell_rows.astype(">i4").tobytes())
        out.write_bytes(self.cell_cols.astype(">i4").tobytes())
        out.write_bytes(self.cell_vals.astype(">f8").tobytes())

    def read_fields(self, inp: DataInputBuffer) -> None:
        self.rows = inp.read_int()
        self.cols = inp.read_int()
        nnz = inp.read_int()
        self.cell_rows = np.frombuffer(inp.read_bytes(4 * nnz), dtype=">i4").astype(
            np.int32
        )
        self.cell_cols = np.frombuffer(inp.read_bytes(4 * nnz), dtype=">i4").astype(
            np.int32
        )
        self.cell_vals = np.frombuffer(inp.read_bytes(8 * nnz), dtype=">f8").astype(
            np.float64
        )

    def serialized_size(self) -> int:
        # 16 bytes of cell payload plus the boxing overhead the SystemML
        # representation pays per cell.
        return 12 + self.nnz * (16 + CELL_OVERHEAD_BYTES)

    def clone(self) -> "CellMatrixBlockWritable":
        # the transport's copy: the table's, or a subclass's deep copy with
        # its class and extra fields
        return Crossing().clone(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellMatrixBlockWritable):
            return False
        if self.shape != other.shape:
            return False
        return (self.to_csc() != other.to_csc()).nnz == 0

    def __repr__(self) -> str:
        return f"CellMatrixBlockWritable({self.rows}x{self.cols}, nnz={self.nnz})"


def _transport_cell_block(
    obj: CellMatrixBlockWritable, crossing: Crossing
) -> CellMatrixBlockWritable:
    fresh = object.__new__(CellMatrixBlockWritable)
    fresh.rows, fresh.cols = obj.rows, obj.cols
    fresh.cell_rows = crossing.array(obj.cell_rows)
    fresh.cell_cols = crossing.array(obj.cell_cols)
    fresh.cell_vals = crossing.array(obj.cell_vals)
    return fresh


# The transport table's entry (see api/writables.py): O(1) size, and a clone
# that is the three array copies; no run sizer, as for the other blocks
# (a run of blocks is few objects).  ``TaggedBlockWritable`` below holds
# another Writable, so it stays on the generic walk.
register_transport(CellMatrixBlockWritable, _transport_cell_block, crossing=True)


class TaggedBlockWritable(Writable):
    """A matrix block tagged with its origin side and index — the value type
    of the cross-join matrix-multiply job ('A' blocks carry their row index,
    'B' blocks their column index)."""

    def __init__(self, tag: str = "A", index: int = 0,
                 block: Optional[CellMatrixBlockWritable] = None):
        self.tag = tag
        self.index = index
        self.block = block if block is not None else CellMatrixBlockWritable()

    def write(self, out: DataOutputBuffer) -> None:
        out.write_utf(self.tag)
        out.write_int(self.index)
        self.block.write(out)

    def read_fields(self, inp: DataInputBuffer) -> None:
        self.tag = inp.read_utf()
        self.index = inp.read_int()
        self.block = CellMatrixBlockWritable()
        self.block.read_fields(inp)

    def serialized_size(self) -> int:
        return 2 + 4 + self.block.serialized_size()

    def clone(self) -> "TaggedBlockWritable":
        return TaggedBlockWritable(self.tag, self.index, self.block.clone())

    def __repr__(self) -> str:
        return f"TaggedBlockWritable({self.tag}, {self.index}, {self.block!r})"
