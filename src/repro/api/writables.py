"""Hadoop Writable types.

Hadoop moves every key and value through the ``Writable`` interface
(``write``/``readFields``); keys additionally implement
``WritableComparable`` so the shuffle can sort them.  Two Hadoop-isms matter
for the M3R story and are reproduced faithfully:

* **Writables are mutable.** ``IntWritable.set`` / ``Text.set`` exist so job
  code can reuse one object for millions of records.  Hadoop encourages this
  because it serializes output immediately; M3R must defensively ``clone()``
  unless the job implements :class:`~repro.api.extensions.ImmutableOutput`.
  (This is the whole subject of paper Section 4.1 and Figure 4.)
* **Exact wire sizes.** ``serialized_size()`` reports the Hadoop wire size;
  the simulation charges serialization, disk and network time per byte, so
  these sizes drive the reproduced performance numbers.

The six boxed scalars (``Int``/``Long``/``VInt``/``Float``/``Double``/
``Boolean``) are one declaration each, built by :func:`_scalar` together
with their transport-table entries and raw sort keys; ``FloatWritable``
holds a 32-bit value, as Java's does.  Besides them, this module provides
``Text``, ``BytesWritable``, ``NullWritable``, the composites and the
blocked-matrix writables the paper's Section 6.2 describes: a two-int block
index key, a compressed-sparse-column matrix block, and a dense vector block.
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.analysis.sanitizers import MUTATION_SANITIZER
from repro.api.io_util import DataInputBuffer, DataOutputBuffer, vint_size
from repro.x10.serializer import TRANSPORT_COPIES, Crossing, fixed_width_run, register_transport

if TYPE_CHECKING:
    from scipy import sparse


class Writable:
    """Base of all Hadoop-serializable types."""

    def write(self, out: DataOutputBuffer) -> None:
        """Serialize this object into ``out``."""
        raise NotImplementedError

    def read_fields(self, inp: DataInputBuffer) -> None:
        """Overwrite this object's fields from ``inp`` (Hadoop reuses objects)."""
        raise NotImplementedError

    def serialized_size(self) -> int:
        """Exact wire size in bytes (drives the simulation's cost accounting)."""
        raise NotImplementedError

    def clone(self) -> "Writable":
        """A deep copy (Hadoop's ``WritableUtils.clone``): the table's copy
        for an exact table class, else a wire round trip."""
        copy = TRANSPORT_COPIES.get(type(self))
        if copy is not None:
            return copy(self)
        return writable_from_bytes(type(self), writable_to_bytes(self))


class WritableComparable(Writable):
    """A Writable with a total order — required of shuffle keys."""

    def compare_to(self, other: "WritableComparable") -> int:
        """Negative / zero / positive like Java's ``compareTo``."""
        raise NotImplementedError

    def __lt__(self, other: "WritableComparable") -> bool:
        return self.compare_to(other) < 0

    def __le__(self, other: "WritableComparable") -> bool:
        return self.compare_to(other) <= 0

    def __gt__(self, other: "WritableComparable") -> bool:
        return self.compare_to(other) > 0

    def __ge__(self, other: "WritableComparable") -> bool:
        return self.compare_to(other) >= 0


#: Exact key class → extractor of a built-in value that orders and equates
#: exactly as ``compare_to`` does, so a run of such keys is sorted, merged
#: and grouped by C comparisons — the analogue of the raw comparators Hadoop
#: registers with ``WritableComparator.define``.  Read-only after import and
#: keyed by exact type: a subclass may override ``compare_to``.  The
#: scalars' entries come from their declarations below, the other keys'
#: from the end of this module.  Left to the comparator on purpose:
#: ``FloatWritable`` / ``DoubleWritable`` (``compare_to`` calls two NaNs
#: equal, but a raw NaN equals nothing) and ``PairWritable`` (parts of any
#: class; no app keys on it).
RAW_SORT_KEYS: Dict[type, Callable[[Any], Any]] = {}

#: Exact class → the one slot holding its whole, immutable state (the
#: scalars' ``value``, ``Text._value``), which Hadoop's object reuse
#: (``api.mapred._reuse_into``) copies to refill a reused object.
REUSE_FIELDS: Dict[type, str] = {}


def _scalar(
    name: str,
    coerce: Callable[[Any], Any],
    wire: str,
    width: Optional[int],
    doc: str,
    compare: Optional[Callable[[Any, Any], int]] = None,
) -> Type[WritableComparable]:
    """Build the boxed scalar ``name``: ``coerce`` makes the stored value of
    what ``__init__`` / ``set`` get, ``write_<wire>`` / ``read_<wire>`` are
    its buffer methods and ``width`` its wire size (``None``: the VInt size
    of the value).  The methods are closures over these, as fast as
    hand-written ones.  ``compare`` replaces the built-in order of the
    values in ``compare_to``.  Also registers the class for transport
    (with a run sizer when fixed-width) and, unless it has a ``compare``,
    in RAW_SORT_KEYS."""
    put = getattr(DataOutputBuffer, f"write_{wire}")
    take = getattr(DataInputBuffer, f"read_{wire}")

    class Scalar(WritableComparable):
        __doc__ = doc
        __qualname__ = name
        __slots__ = ("value",)

        def __init__(self, value=coerce(0)):
            self.value = coerce(value)

        def get(self):
            return self.value

        def set(self, value) -> None:
            self.value = coerce(value)

        def write(self, out: DataOutputBuffer) -> None:
            put(out, self.value)

        def read_fields(self, inp: DataInputBuffer) -> None:
            self.value = take(inp)

        if width is None:
            def serialized_size(self) -> int:
                return vint_size(self.value)
        else:
            def serialized_size(self) -> int:
                return width

        if compare is None:
            def compare_to(self, other) -> int:
                return (self.value > other.value) - (self.value < other.value)
        else:
            def compare_to(self, other) -> int:
                return compare(self.value, other.value)

        def __eq__(self, other: object) -> bool:
            return isinstance(other, Scalar) and other.value == self.value

        def __hash__(self) -> int:
            return hash(self.value)

        def __repr__(self) -> str:
            return f"{name}({self.value})"

    def transport(obj: Scalar, crossing: Optional[Crossing] = None) -> Scalar:
        fresh = object.__new__(Scalar)
        fresh.value = obj.value
        return fresh

    Scalar.__name__ = name
    register_transport(Scalar, transport, width and fixed_width_run(Scalar), crossing=False)
    REUSE_FIELDS[Scalar] = "value"
    if compare is None:
        RAW_SORT_KEYS[Scalar] = attrgetter("value")
    return Scalar


def _float_compare(a: float, b: float) -> int:
    """Java's ``Double.compare`` order, except that ±0.0 stay equal: a NaN
    equals every NaN and sorts above every other value, +inf included."""
    if a != a:
        return 0 if b != b else 1
    if b != b:
        return -1
    return (a > b) - (a < b)


IntWritable = _scalar("IntWritable", int, "int", 4, "A boxed 32-bit int.")
LongWritable = _scalar("LongWritable", int, "long", 8, "A boxed 64-bit long.")
VIntWritable = _scalar(
    "VIntWritable", int, "vint", None, "A zero-compressed variable-length int."
)
FloatWritable = _scalar(
    "FloatWritable",
    lambda value: array("f", (float(value),))[0],
    "float",
    4,
    """A boxed 32-bit float.  Setting it rounds like Java's ``(float)`` cast
    (nearest 32-bit value, ±inf beyond the range), so the stored value is
    what the wire carries whether an engine aliases the object or copies it.""",
    compare=_float_compare,
)
DoubleWritable = _scalar(
    "DoubleWritable", float, "double", 8, "A boxed 64-bit double.",
    compare=_float_compare,
)
BooleanWritable = _scalar("BooleanWritable", bool, "boolean", 1, "A boxed boolean.")


class Text(WritableComparable):
    """Hadoop ``Text``: a mutable UTF-8 string (VInt length prefix)."""

    __slots__ = ("_value",)

    def __init__(self, value: str = ""):
        self._value = str(value)

    def to_string(self) -> str:
        return self._value

    def get(self) -> str:
        return self._value

    def set(self, value: str) -> None:
        self._value = str(value)

    def write(self, out: DataOutputBuffer) -> None:
        out.write_utf(self._value)

    def read_fields(self, inp: DataInputBuffer) -> None:
        self._value = inp.read_utf()

    def serialized_size(self) -> int:
        value = self._value
        encoded = len(value) if value.isascii() else len(value.encode("utf-8"))
        return vint_size(encoded) + encoded

    def compare_to(self, other: "Text") -> int:
        # Hadoop compares the UTF-8 bytes; UTF-8 preserves code-point order,
        # which is how ``str`` compares, so nothing needs encoding.
        a, b = self._value, other._value
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Text) and other._value == self._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        return self._value

    def __repr__(self) -> str:
        return f"Text({self._value!r})"


class BytesWritable(WritableComparable):
    """A mutable byte buffer (4-byte length prefix, like Hadoop)."""

    __slots__ = ("_data",)

    def __init__(self, data: bytes = b""):
        self._data = bytes(data)

    def get_bytes(self) -> bytes:
        return self._data

    def get_length(self) -> int:
        return len(self._data)

    def set(self, data: bytes) -> None:
        self._data = bytes(data)

    def write(self, out: DataOutputBuffer) -> None:
        out.write_int(len(self._data))
        out.write_bytes(self._data)

    def read_fields(self, inp: DataInputBuffer) -> None:
        length = inp.read_int()
        self._data = inp.read_bytes(length)

    def serialized_size(self) -> int:
        return 4 + len(self._data)

    def compare_to(self, other: "BytesWritable") -> int:
        return (self._data > other._data) - (self._data < other._data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BytesWritable) and other._data == self._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        preview = self._data[:8]
        return f"BytesWritable(len={len(self._data)}, head={preview!r})"


class NullWritable(WritableComparable):
    """The zero-byte singleton placeholder."""

    _instance: Optional["NullWritable"] = None

    def __new__(cls) -> "NullWritable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @classmethod
    def get(cls) -> "NullWritable":
        return cls()

    def write(self, out: DataOutputBuffer) -> None:
        pass

    def read_fields(self, inp: DataInputBuffer) -> None:
        pass

    def serialized_size(self) -> int:
        return 0

    def compare_to(self, other: "NullWritable") -> int:
        return 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullWritable)

    def __hash__(self) -> int:
        return hash("NullWritable")

    def __repr__(self) -> str:
        return "NullWritable()"


class ArrayWritable(Writable):
    """A homogeneous array of writables of a declared element class."""

    def __init__(
        self,
        element_class: Type[Writable] = IntWritable,
        values: Optional[Sequence[Writable]] = None,
    ):
        self.element_class = element_class
        self.values: List[Writable] = list(values) if values is not None else []

    def get(self) -> List[Writable]:
        return self.values

    def set(self, values: Sequence[Writable]) -> None:
        self.values = list(values)

    def write(self, out: DataOutputBuffer) -> None:
        out.write_int(len(self.values))
        for value in self.values:
            value.write(out)

    def read_fields(self, inp: DataInputBuffer) -> None:
        length = inp.read_int()
        self.values = []
        for _ in range(length):
            element = self.element_class()
            element.read_fields(inp)
            self.values.append(element)

    def serialized_size(self) -> int:
        return 4 + sum(v.serialized_size() for v in self.values)

    def clone(self) -> "ArrayWritable":
        return ArrayWritable(self.element_class, [v.clone() for v in self.values])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrayWritable) and other.values == self.values

    def __hash__(self) -> int:
        return hash(tuple(self.values))

    def __repr__(self) -> str:
        return f"ArrayWritable({self.element_class.__name__}, n={len(self.values)})"


class PairWritable(WritableComparable):
    """A generic (first, second) pair of writables, ordered lexicographically."""

    def __init__(
        self,
        first: Optional[WritableComparable] = None,
        second: Optional[WritableComparable] = None,
        first_class: Type[WritableComparable] = IntWritable,
        second_class: Type[WritableComparable] = IntWritable,
    ):
        self.first = first if first is not None else first_class()
        self.second = second if second is not None else second_class()

    def write(self, out: DataOutputBuffer) -> None:
        self.first.write(out)
        self.second.write(out)

    def read_fields(self, inp: DataInputBuffer) -> None:
        self.first.read_fields(inp)
        self.second.read_fields(inp)

    def serialized_size(self) -> int:
        return self.first.serialized_size() + self.second.serialized_size()

    def clone(self) -> "PairWritable":
        return PairWritable(self.first.clone(), self.second.clone())

    def compare_to(self, other: "PairWritable") -> int:
        first_cmp = self.first.compare_to(other.first)
        if first_cmp != 0:
            return first_cmp
        return self.second.compare_to(other.second)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PairWritable)
            and other.first == self.first
            and other.second == self.second
        )

    def __hash__(self) -> int:
        return hash((self.first, self.second))

    def __repr__(self) -> str:
        return f"PairWritable({self.first!r}, {self.second!r})"


class BlockIndexWritable(WritableComparable):
    """The matvec key of paper Section 6.2: a pair of ints indexing a block.

    A matrix block is addressed ``(row, col)``; vector blocks reuse the type
    with ``col == 0`` ("a redundant column value of 0").  Row-major order.
    """

    __slots__ = ("row", "col")

    def __init__(self, row: int = 0, col: int = 0):
        self.row = int(row)
        self.col = int(col)

    def set(self, row: int, col: int) -> None:
        self.row = int(row)
        self.col = int(col)

    def write(self, out: DataOutputBuffer) -> None:
        out.write_int(self.row)
        out.write_int(self.col)

    def read_fields(self, inp: DataInputBuffer) -> None:
        self.row = inp.read_int()
        self.col = inp.read_int()

    def serialized_size(self) -> int:
        return 8

    def compare_to(self, other: "BlockIndexWritable") -> int:
        if self.row != other.row:
            return -1 if self.row < other.row else 1
        if self.col != other.col:
            return -1 if self.col < other.col else 1
        return 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BlockIndexWritable)
            and other.row == self.row
            and other.col == self.col
        )

    def __hash__(self) -> int:
        return hash((self.row, self.col))

    def __repr__(self) -> str:
        return f"BlockIndexWritable({self.row}, {self.col})"


#: ``scipy.sparse`` once the first block needed it (DESIGN.md §3).
_sparse: Any = None


def _import_sparse() -> Any:
    global _sparse
    from scipy import sparse as _sparse

    return _sparse


class MatrixBlockWritable(Writable):
    """A sparse matrix block in compressed-sparse-column form.

    This is the value type of paper Section 6.2 ("the value of such pairs is
    a compressed sparse column (CSC) representation of the sparse block").
    Backed by ``scipy.sparse.csc_matrix``; the wire format is shape + nnz +
    the three CSC arrays.  scipy is imported by the first block built
    (:func:`_import_sparse`), not with this module.
    """

    def __init__(self, matrix: Optional[sparse.spmatrix] = None):
        sparse = _sparse or _import_sparse()
        if matrix is None:
            matrix = sparse.csc_matrix((0, 0), dtype=np.float64)
        self.matrix = sparse.csc_matrix(matrix, dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def write(self, out: DataOutputBuffer) -> None:
        rows, cols = self.matrix.shape
        out.write_int(rows)
        out.write_int(cols)
        out.write_int(self.matrix.nnz)
        out.write_bytes(self.matrix.indptr.astype(">i4").tobytes())
        out.write_bytes(self.matrix.indices.astype(">i4").tobytes())
        out.write_bytes(self.matrix.data.astype(">f8").tobytes())

    def read_fields(self, inp: DataInputBuffer) -> None:
        rows = inp.read_int()
        cols = inp.read_int()
        nnz = inp.read_int()
        indptr = np.frombuffer(inp.read_bytes(4 * (cols + 1)), dtype=">i4").astype(
            np.int32
        )
        indices = np.frombuffer(inp.read_bytes(4 * nnz), dtype=">i4").astype(np.int32)
        data = np.frombuffer(inp.read_bytes(8 * nnz), dtype=">f8").astype(np.float64)
        sparse = _sparse or _import_sparse()
        self.matrix = sparse.csc_matrix((data, indices, indptr), shape=(rows, cols))

    def serialized_size(self) -> int:
        return 12 + 4 * (self.matrix.shape[1] + 1) + 12 * self.matrix.nnz

    def clone(self) -> "MatrixBlockWritable":
        if type(self) is MatrixBlockWritable:
            return super().clone()
        # a subclass keeps its class and extra fields: the transport's copy
        return Crossing().clone(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixBlockWritable):
            return False
        if self.matrix.shape != other.matrix.shape:
            return False
        return (self.matrix != other.matrix).nnz == 0

    def __repr__(self) -> str:
        rows, cols = self.matrix.shape
        return f"MatrixBlockWritable({rows}x{cols}, nnz={self.matrix.nnz})"


class VectorBlockWritable(Writable):
    """A dense vector block ("each value is an array of double")."""

    def __init__(self, values: Optional[np.ndarray] = None):
        if values is None:
            values = np.zeros(0, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64).reshape(-1)

    def __len__(self) -> int:
        return len(self.values)

    def write(self, out: DataOutputBuffer) -> None:
        out.write_int(len(self.values))
        out.write_bytes(self.values.astype(">f8").tobytes())

    def read_fields(self, inp: DataInputBuffer) -> None:
        length = inp.read_int()
        self.values = np.frombuffer(inp.read_bytes(8 * length), dtype=">f8").astype(
            np.float64
        )

    def serialized_size(self) -> int:
        return 4 + 8 * len(self.values)

    def clone(self) -> "VectorBlockWritable":
        if type(self) is VectorBlockWritable:
            return super().clone()
        # a subclass keeps its class and extra fields: the transport's copy
        return Crossing().clone(self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorBlockWritable) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:
        return f"VectorBlockWritable(n={len(self.values)})"


def writable_to_bytes(value: Writable) -> bytes:
    """Serialize one writable to raw bytes."""
    out = DataOutputBuffer()
    value.write(out)
    return out.to_bytes()


def writable_from_bytes(cls: Type[Writable], data: bytes) -> Writable:
    """Deserialize one writable of class ``cls`` from raw bytes."""
    value = cls()
    value.read_fields(DataInputBuffer(data))
    return value


def _sanitizer_wire_digest(obj: object) -> Optional[bytes]:
    """Fingerprint Writables by their Hadoop wire bytes for the mutation
    sanitizer.  Pickle would also capture lazy internal state (scipy sparse
    matrices grow ``_has_canonical_format`` in ``__dict__`` after read-only
    operations like ``.sum()``), which must not read as a mutation — the
    aliasing contract is about the bytes Hadoop would have serialized."""
    if isinstance(obj, Writable):
        return writable_to_bytes(obj)
    return None


MUTATION_SANITIZER.digest_hook = _sanitizer_wire_digest


# --------------------------------------------------------------------- #
# transport table (x10.serializer): the built-in Writables' clones and
# run sizers
# --------------------------------------------------------------------- #
# The scalars' entries come from their declarations above.  Each clone
# builds what a deep copy builds — a new object of the same class with the
# same field values, no constructor coercion.  For every class here a wire
# round trip *is* an exact copy, so an exact-class ``clone()`` is its table
# copy (``Writable.clone``): for a block, no scipy validating constructor
# runs, only the array copies.  Only the blocks' clones consult the
# crossing.  The composites (inner sharing) are left to the generic walk on
# purpose.  Each run sizer sums the ``serialized_size()`` of a collector's
# run without a Python-level call per object.


def _transport_text(obj: Text, crossing: Optional[Crossing] = None) -> Text:
    fresh = object.__new__(Text)
    fresh._value = obj._value
    return fresh


def _transport_bytes(obj: BytesWritable, crossing: Optional[Crossing] = None) -> BytesWritable:
    fresh = object.__new__(BytesWritable)
    fresh._data = obj._data
    return fresh


def _transport_block_index(
    obj: BlockIndexWritable, crossing: Optional[Crossing] = None
) -> BlockIndexWritable:
    fresh = object.__new__(BlockIndexWritable)
    fresh.row = obj.row
    fresh.col = obj.col
    return fresh


def _transport_matrix_block(
    obj: MatrixBlockWritable, crossing: Crossing
) -> MatrixBlockWritable:
    fresh = object.__new__(MatrixBlockWritable)
    fresh.matrix = crossing.arrays_of(obj.matrix, ("data", "indices", "indptr"))
    return fresh


def _transport_vector_block(
    obj: VectorBlockWritable, crossing: Crossing
) -> VectorBlockWritable:
    fresh = object.__new__(VectorBlockWritable)
    fresh.values = crossing.array(obj.values)
    return fresh


def _text_run(run: Sequence[Text]) -> Optional[int]:
    """All-ASCII strings of at most 127 characters: one VInt length byte
    and one byte per character each.  Any other run: string by string."""
    values = list(map(attrgetter("_value"), run))
    joined = "".join(values)
    if not joined.isascii() or max(map(len, values)) > 127:
        return None
    return len(values) + len(joined)


def _bytes_run(run: Sequence[BytesWritable]) -> int:
    return 4 * len(run) + sum(map(len, map(attrgetter("_data"), run)))


def _matrix_block_run(run: Sequence[MatrixBlockWritable]) -> int:
    """``serialized_size`` summed, with each block's nnz read as the last
    CSC column pointer: scipy's ``nnz`` property re-validates the arrays
    on every read."""
    total = 0
    for matrix in map(attrgetter("matrix"), run):
        total += 16 + 4 * matrix.shape[1] + 12 * int(matrix.indptr[-1])
    return total


register_transport(Text, _transport_text, _text_run, crossing=False)
register_transport(BytesWritable, _transport_bytes, _bytes_run, crossing=False)
register_transport(
    BlockIndexWritable, _transport_block_index, fixed_width_run(BlockIndexWritable), crossing=False
)
register_transport(  # a singleton stays one
    NullWritable, lambda obj, crossing=None: obj, fixed_width_run(NullWritable), crossing=False
)
register_transport(MatrixBlockWritable, _transport_matrix_block, _matrix_block_run, crossing=True)
# A vector block's size is one len(): no run sizer beats the per-object sum.
register_transport(VectorBlockWritable, _transport_vector_block, crossing=True)


# --------------------------------------------------------------------- #
# raw sort keys (api.job) of the other naturally ordered keys, and Text's
# reuse field (api.mapred)
# --------------------------------------------------------------------- #
RAW_SORT_KEYS[Text] = attrgetter("_value")
REUSE_FIELDS[Text] = "_value"
RAW_SORT_KEYS[BytesWritable] = attrgetter("_data")
RAW_SORT_KEYS[BlockIndexWritable] = attrgetter("row", "col")
RAW_SORT_KEYS[NullWritable] = lambda key: 0  # every instance is the singleton
