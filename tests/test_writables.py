"""Writable types: wire-format round trips, sizes, ordering, cloning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.api.io_util import DataInputBuffer, DataOutputBuffer
from repro.api.writables import (
    ArrayWritable,
    BlockIndexWritable,
    BooleanWritable,
    BytesWritable,
    DoubleWritable,
    FloatWritable,
    IntWritable,
    LongWritable,
    MatrixBlockWritable,
    NullWritable,
    PairWritable,
    Text,
    VectorBlockWritable,
    VIntWritable,
    Writable,
    writable_from_bytes,
    writable_to_bytes,
)


def roundtrip(writable):
    """Serialize and re-read a writable; returns the fresh object."""
    data = writable_to_bytes(writable)
    assert len(data) == writable.serialized_size()
    return writable_from_bytes(type(writable), data)


class TestScalars:
    @pytest.mark.parametrize("value", [0, 1, -1, 2**31 - 1, -(2**31)])
    def test_int_roundtrip(self, value):
        assert roundtrip(IntWritable(value)) == IntWritable(value)

    @pytest.mark.parametrize("value", [0, 1, -1, 2**63 - 1, -(2**63)])
    def test_long_roundtrip(self, value):
        assert roundtrip(LongWritable(value)) == LongWritable(value)

    @pytest.mark.parametrize("value", [0.0, 1.5, -2.25, 1e300, -1e-300])
    def test_double_roundtrip(self, value):
        assert roundtrip(DoubleWritable(value)) == DoubleWritable(value)

    def test_float_roundtrip(self):
        assert roundtrip(FloatWritable(1.5)) == FloatWritable(1.5)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_roundtrip(self, value):
        assert roundtrip(BooleanWritable(value)) == BooleanWritable(value)

    def test_int_set_get(self):
        w = IntWritable(5)
        w.set(9)
        assert w.get() == 9

    def test_int_ordering(self):
        assert IntWritable(1) < IntWritable(2)
        assert IntWritable(2) > IntWritable(1)
        assert IntWritable(3).compare_to(IntWritable(3)) == 0

    def test_null_writable_is_singleton(self):
        assert NullWritable.get() is NullWritable()
        assert NullWritable.get().serialized_size() == 0
        assert NullWritable.get().clone() is NullWritable.get()

    def test_hashable_as_dict_keys(self):
        counts = {IntWritable(1): "a", Text("x"): "b"}
        assert counts[IntWritable(1)] == "a"
        assert counts[Text("x")] == "b"


class TestVInt:
    @pytest.mark.parametrize("value", [0, 1, -1, 127, -112, 128, -113, 10**9, -(10**9)])
    def test_roundtrip(self, value):
        assert roundtrip(VIntWritable(value)) == VIntWritable(value)

    def test_small_values_are_one_byte(self):
        assert VIntWritable(0).serialized_size() == 1
        assert VIntWritable(127).serialized_size() == 1
        assert VIntWritable(-112).serialized_size() == 1

    def test_larger_values_grow(self):
        assert VIntWritable(128).serialized_size() == 2
        assert VIntWritable(1 << 20).serialized_size() == 4

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    @settings(max_examples=200)
    def test_roundtrip_property(self, value):
        assert roundtrip(VIntWritable(value)).get() == value


class TestText:
    @pytest.mark.parametrize("value", ["", "hello", "héllo wörld", "日本語", "a\tb\nc"])
    def test_roundtrip(self, value):
        assert roundtrip(Text(value)) == Text(value)

    def test_compares_as_utf8_bytes(self):
        # Hadoop compares the UTF-8 encodings, not code points.
        a, b = Text("a"), Text("é")
        assert (a < b) == (a.to_string().encode() < b.to_string().encode())

    def test_set_mutates(self):
        t = Text("x")
        t.set("y")
        assert t.to_string() == "y"

    def test_str(self):
        assert str(Text("abc")) == "abc"

    @given(st.text(max_size=200))
    @settings(max_examples=150)
    def test_roundtrip_property(self, value):
        assert roundtrip(Text(value)).to_string() == value

    #: One character from each UTF-8 length class, astral plane included.
    any_plane = st.one_of(
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
        st.characters(
            min_codepoint=0x800, max_codepoint=0xFFFF, blacklist_categories=("Cs",)
        ),
        st.characters(min_codepoint=0x10000),
    )

    @given(st.text(any_plane, max_size=12), st.text(any_plane, max_size=12))
    @settings(max_examples=400)
    def test_size_and_order_never_encode_yet_match_the_bytes(self, a, b):
        """``serialized_size`` counts ASCII by ``len`` and ``compare_to``
        compares code points; both must agree with the UTF-8 encoding."""
        encoded_a, encoded_b = a.encode("utf-8"), b.encode("utf-8")
        assert Text(a).serialized_size() == len(writable_to_bytes(Text(a)))
        expected = (encoded_a > encoded_b) - (encoded_a < encoded_b)
        assert Text(a).compare_to(Text(b)) == expected


class TestBytesWritable:
    @pytest.mark.parametrize("data", [b"", b"\x00\x01\x02", bytes(range(256))])
    def test_roundtrip(self, data):
        assert roundtrip(BytesWritable(data)) == BytesWritable(data)

    @given(st.binary(max_size=500))
    @settings(max_examples=100)
    def test_roundtrip_property(self, data):
        assert roundtrip(BytesWritable(data)).get_bytes() == data

    def test_length(self):
        assert BytesWritable(b"abc").get_length() == 3


class TestComposites:
    def test_array_roundtrip(self):
        arr = ArrayWritable(IntWritable, [IntWritable(i) for i in range(5)])
        back = roundtrip(arr)
        # read_fields on a default-constructed ArrayWritable uses its
        # declared element class, so round-trip through the declared type.
        data = writable_to_bytes(arr)
        fresh = ArrayWritable(IntWritable)
        from repro.api.io_util import DataInputBuffer

        fresh.read_fields(DataInputBuffer(data))
        assert fresh == arr

    def test_pair_roundtrip_and_order(self):
        p = PairWritable(IntWritable(1), IntWritable(2))
        data = writable_to_bytes(p)
        fresh = PairWritable(IntWritable(), IntWritable())
        fresh.read_fields(DataInputBuffer(data))
        assert fresh == p
        assert PairWritable(IntWritable(1), IntWritable(2)) < PairWritable(
            IntWritable(1), IntWritable(3)
        )
        assert PairWritable(IntWritable(0), IntWritable(9)) < PairWritable(
            IntWritable(1), IntWritable(0)
        )

    def test_block_index_ordering_row_major(self):
        assert BlockIndexWritable(0, 5) < BlockIndexWritable(1, 0)
        assert BlockIndexWritable(2, 1) < BlockIndexWritable(2, 3)
        assert BlockIndexWritable(1, 1) == BlockIndexWritable(1, 1)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=100)
    def test_block_index_roundtrip(self, row, col):
        back = roundtrip(BlockIndexWritable(row, col))
        assert (back.row, back.col) == (row, col)


class TestMatrixBlocks:
    def test_matrix_block_roundtrip(self):
        m = sparse.random(30, 20, density=0.2, format="csc", random_state=0)
        block = MatrixBlockWritable(m)
        back = roundtrip(block)
        assert back == block
        assert back.shape == (30, 20)

    def test_empty_matrix_block(self):
        block = MatrixBlockWritable(sparse.csc_matrix((10, 10)))
        assert roundtrip(block) == block
        assert block.nnz == 0

    def test_vector_block_roundtrip(self):
        v = VectorBlockWritable(np.arange(17, dtype=float))
        back = roundtrip(v)
        assert back == v
        assert len(back) == 17

    def test_clone_is_deep(self):
        v = VectorBlockWritable(np.ones(4))
        c = v.clone()
        c.values[0] = 99.0
        assert v.values[0] == 1.0

    def test_matrix_clone_is_deep(self):
        m = MatrixBlockWritable(sparse.eye(5, format="csc"))
        c = m.clone()
        c.matrix.data[0] = 42.0
        assert m.matrix.data[0] == 1.0


class TestClone:
    @pytest.mark.parametrize(
        "writable",
        [
            IntWritable(7),
            LongWritable(-9),
            Text("clone me"),
            BytesWritable(b"\x01\x02"),
            DoubleWritable(2.5),
            BlockIndexWritable(3, 4),
        ],
    )
    def test_clone_equal_but_distinct(self, writable):
        c = writable.clone()
        assert c == writable
        assert c is not writable

    def test_clone_then_mutate_original(self):
        t = Text("before")
        c = t.clone()
        t.set("after")
        assert c.to_string() == "before"

    @pytest.mark.parametrize(
        "writable",
        [
            IntWritable(-7),
            LongWritable(2**40),
            VIntWritable(300),
            FloatWritable(0.1),  # narrows to 32 bits on the wire
            DoubleWritable(0.1),
            BooleanWritable(True),
            Text("h\u00e9llo \U0001f600"),
            BytesWritable(b"\x00\xff"),
        ],
    )
    def test_direct_clone_is_the_wire_round_trip(self, writable):
        direct, via_wire = writable.clone(), Writable.clone(writable)
        assert type(direct) is type(writable) and direct is not writable
        assert writable_to_bytes(direct) == writable_to_bytes(via_wire)
        assert direct == via_wire

    def test_subclass_of_a_scalar_keeps_the_round_trip(self):
        class Stamped(IntWritable):
            def __init__(self, value: int = 0, stamp: int = 0):
                super().__init__(value)
                self.stamp = stamp

            def write(self, out):
                super().write(out)
                out.write_int(self.stamp)

            def read_fields(self, inp):
                super().read_fields(inp)
                self.stamp = inp.read_int()

        clone = Stamped(1, stamp=9).clone()
        assert type(clone) is Stamped and (clone.value, clone.stamp) == (1, 9)
