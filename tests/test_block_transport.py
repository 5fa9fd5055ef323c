"""The array-backed block Writables on the transport table.

``MatrixBlockWritable``, ``VectorBlockWritable`` and
``CellMatrixBlockWritable`` are sized by O(1) arithmetic and cloned without
a constructor: a shallow copy of the container and one ``ndarray.copy`` per
array, through the crossing's memo (``x10/serializer.py``).  The references
here are what those fast paths replaced — scipy's validating constructor
behind the old ``clone()``, the bytes ``write`` produces — over generated
shapes that include 0×0, nnz = 0, unsorted row indices and explicit zeros.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.api.writables import (
    BlockIndexWritable,
    MatrixBlockWritable,
    VectorBlockWritable,
    writable_from_bytes,
    writable_to_bytes,
)
from repro.sysml.blocks import CELL_OVERHEAD_BYTES, CellMatrixBlockWritable
from repro.x10.serializer import (
    _TRANSPORT,
    OBJECT_HEADER_BYTES,
    Crossing,
    DedupSerializer,
    clone_pairs,
    deep_copy_value,
    estimate_size,
)

values = st.one_of(
    st.just(0.0),  # an explicit zero is a stored entry
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


@st.composite
def csc_matrices(draw):
    """A CSC matrix assembled array by array, so that nothing sorted its
    row indices or dropped its zeros on the way in."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    indptr, indices, data = [0], [], []
    for _ in range(cols):
        column = draw(st.lists(st.integers(0, rows - 1), unique=True) if rows else st.just([]))
        indices += column  # in drawn order: unsorted more often than not
        data += [draw(values) for _ in column]
        indptr.append(len(indices))
    return sparse.csc_matrix(
        (
            np.array(data, dtype=np.float64),
            np.array(indices, dtype=np.int32),
            np.array(indptr, dtype=np.int32),
        ),
        shape=(rows, cols),
    )


vectors = st.lists(values, max_size=8).map(lambda xs: np.array(xs, dtype=np.float64))


def validating_clone(block):
    """``clone()`` as it was: through the constructors."""
    if isinstance(block, MatrixBlockWritable):
        return MatrixBlockWritable(block.matrix.copy())
    if isinstance(block, VectorBlockWritable):
        return VectorBlockWritable(block.values.copy())
    fresh = CellMatrixBlockWritable(shape=block.shape)
    fresh.cell_rows = block.cell_rows.copy()
    fresh.cell_cols = block.cell_cols.copy()
    fresh.cell_vals = block.cell_vals.copy()
    return fresh


def arrays_of(block):
    if isinstance(block, MatrixBlockWritable):
        return [block.matrix.data, block.matrix.indices, block.matrix.indptr]
    if isinstance(block, VectorBlockWritable):
        return [block.values]
    return [block.cell_rows, block.cell_cols, block.cell_vals]


def assert_same_block(clone, reference, source):
    assert type(clone) is type(reference)
    for mine, theirs in zip(arrays_of(clone), arrays_of(reference)):
        assert mine.dtype == theirs.dtype
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
    for mine, original in zip(arrays_of(clone), arrays_of(source)):
        assert not np.shares_memory(mine, original)
    if not isinstance(clone, VectorBlockWritable):
        assert clone.shape == reference.shape
    if isinstance(clone, MatrixBlockWritable):
        assert type(clone.matrix) is type(reference.matrix)
        assert clone.matrix.has_sorted_indices == reference.matrix.has_sorted_indices
        assert (
            clone.matrix.has_canonical_format == reference.matrix.has_canonical_format
        )
        assert clone == reference
    assert writable_to_bytes(clone) == writable_to_bytes(reference)


def every_clone(block):
    """The table clone and everything that is built on it."""
    key = BlockIndexWritable(0, 0)
    return [
        _TRANSPORT[type(block)][1](block, Crossing()),
        block.clone(),
        deep_copy_value(block),
        clone_pairs([(key, block)])[0][1],
        DedupSerializer().ship([[(key, block)]])[1][0][0][1],
    ]


class TestCloneEqualsTheValidatingClone:
    @given(matrix=csc_matrices(), touch_flags=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matrix_block(self, matrix, touch_flags):
        block = MatrixBlockWritable(matrix)
        if touch_flags:  # scipy caches these in the instance once asked
            block.matrix.has_sorted_indices, block.matrix.has_canonical_format
        for clone in every_clone(block):
            assert_same_block(clone, validating_clone(block), block)

    @given(array=vectors)
    @settings(max_examples=60, deadline=None)
    def test_vector_block(self, array):
        block = VectorBlockWritable(array)
        for clone in every_clone(block):
            assert_same_block(clone, validating_clone(block), block)

    @given(matrix=csc_matrices())
    @settings(max_examples=60, deadline=None)
    def test_cell_block(self, matrix):
        block = CellMatrixBlockWritable(matrix)
        for clone in every_clone(block):
            assert_same_block(clone, validating_clone(block), block)

    @given(matrix=csc_matrices(), array=vectors)
    @settings(max_examples=60, deadline=None)
    def test_a_wire_round_trip_is_the_same_copy(self, matrix, array):
        """Why an exact-class block's ``clone()`` may be its table clone:
        for these types ``write`` then ``read_fields`` loses nothing."""
        for block in (MatrixBlockWritable(matrix), VectorBlockWritable(array)):
            assert_same_block(
                writable_from_bytes(type(block), writable_to_bytes(block)),
                block.clone(),
                block,
            )


class TestSize:
    @given(matrix=csc_matrices(), array=vectors)
    @settings(max_examples=100, deadline=None)
    def test_size_is_header_plus_wire_bytes(self, matrix, array):
        for block in (MatrixBlockWritable(matrix), VectorBlockWritable(array)):
            wire = len(writable_to_bytes(block))
            assert estimate_size(block) == OBJECT_HEADER_BYTES + wire
        # The cell block's size models SystemML's boxed cells, not its bytes.
        cell = CellMatrixBlockWritable(matrix)
        assert estimate_size(cell) == OBJECT_HEADER_BYTES + 12 + matrix.nnz * (
            16 + CELL_OVERHEAD_BYTES
        )


def two_blocks_over_one_array(kind):
    if kind == "vector":
        first, second = VectorBlockWritable(np.arange(5.0)), VectorBlockWritable()
        second.values = first.values
    elif kind == "matrix":
        # The constructor wraps a float64 CSC without copying it, but in
        # views of ``data`` and ``indices``; make them the same objects.
        matrix = sparse.random(6, 5, density=0.4, format="csc", random_state=1)
        first, second = MatrixBlockWritable(matrix), MatrixBlockWritable(matrix)
        second.matrix.data = first.matrix.data
        second.matrix.indices = first.matrix.indices
    else:
        first = CellMatrixBlockWritable(sparse.identity(4, format="csc"))
        second = CellMatrixBlockWritable(shape=first.shape)
        second.cell_rows, second.cell_cols = first.cell_rows, first.cell_cols
        second.cell_vals = first.cell_vals
    assert first is not second
    assert all(a is b for a, b in zip(arrays_of(first), arrays_of(second)))
    return first, second


class TestSharedArrays:
    @pytest.mark.parametrize("kind", ["vector", "matrix", "cell"])
    def test_shared_within_one_ship_and_independent_across_two(self, kind):
        first, second = two_blocks_over_one_array(kind)
        runs = [[(BlockIndexWritable(0, 0), first)], [(BlockIndexWritable(1, 0), second)]]
        serializer = DedupSerializer()
        (one,), (two,) = serializer.ship(runs)[1]
        assert one[1] is not two[1]
        for a, b in zip(arrays_of(one[1]), arrays_of(two[1])):
            assert a is b  # two blocks over one array arrive as just that
        (again,), _ = serializer.ship(runs)[1]
        for source, a, b in zip(arrays_of(first), arrays_of(one[1]), arrays_of(again[1])):
            assert not np.shares_memory(a, b)
            assert not np.shares_memory(a, source)
        # ... which is what copy.deepcopy of the message builds.
        expected = copy.deepcopy(runs)
        for a, b in zip(arrays_of(expected[0][0][1]), arrays_of(expected[1][0][1])):
            assert a is b

    def test_two_blocks_over_one_scipy_container_share_its_clone(self):
        first, second = MatrixBlockWritable(), MatrixBlockWritable()
        second.matrix = first.matrix = sparse.identity(3, format="csc")
        pairs = [(BlockIndexWritable(0, 0), first), (BlockIndexWritable(0, 1), second)]
        (_, one), (_, two) = clone_pairs(pairs)
        assert one.matrix is two.matrix and one.matrix is not first.matrix

    def test_an_array_met_first_by_the_generic_walk_is_found_in_the_memo(self):
        """A subclass block is cloned by ``copy.deepcopy``, an exact-class
        block by the table, both on one memo."""
        generic, exact = SubclassVector(np.arange(3.0)), VectorBlockWritable()
        exact.values = generic.values
        for pairs in ([(generic, exact)], [(exact, generic)]):
            ((a, b),) = clone_pairs(pairs)
            assert a.values is b.values and a.values is not generic.values


class SubclassVector(VectorBlockWritable):
    def __init__(self, values=None, note="kept"):
        super().__init__(values)
        self.note = [note]


class SubclassMatrix(MatrixBlockWritable):
    pass


class SubclassCells(CellMatrixBlockWritable):
    pass


class TestSubclassesTakeTheGenericWalk:
    def test_transport_deep_copies_a_subclass_with_its_extra_field(self, monkeypatch):
        block = SubclassVector(np.arange(3.0))
        assert type(block) not in _TRANSPORT
        assert estimate_size(block) == OBJECT_HEADER_BYTES + block.serialized_size()
        calls = []
        deepcopy = copy.deepcopy
        monkeypatch.setattr(
            copy, "deepcopy", lambda *args: calls.append(args[0]) or deepcopy(*args)
        )
        ((_, arrived),) = clone_pairs([(BlockIndexWritable(0, 0), block)])
        assert calls == [block]
        assert type(arrived) is SubclassVector
        assert arrived.note == ["kept"] and arrived.note is not block.note

    def test_clone_of_a_subclass_keeps_its_class_and_extra_fields(self):
        """``clone()`` and ``deep_copy_value`` copy a subclass as the
        transport does: the same class, its extra fields deep-copied."""
        blocks = (
            SubclassVector(np.arange(3.0)),
            SubclassMatrix(sparse.identity(2, format="csc")),
            SubclassCells(sparse.identity(2, format="csc")),
        )
        for block in blocks:
            for clone in (block.clone(), deep_copy_value(block)):
                assert type(clone) is type(block)
                for mine, original in zip(arrays_of(clone), arrays_of(block)):
                    assert mine.tobytes() == original.tobytes()
                    assert not np.shares_memory(mine, original)
                assert writable_to_bytes(clone) == writable_to_bytes(block)
                assert vars(clone).keys() == vars(block).keys()
        vector = blocks[0]
        for clone in (vector.clone(), deep_copy_value(vector)):
            assert clone.note == ["kept"] and clone.note is not vector.note
