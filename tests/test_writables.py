"""Writable types: wire-format round trips, sizes, ordering, cloning."""

from __future__ import annotations

import contextlib
import copy
import functools
import heapq
import itertools
import math
import pickle
import struct
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.api import job as job_module
from repro.api import writables as writables_module
from repro.api.conf import JobConf
from repro.api.io_util import DataInputBuffer, DataOutputBuffer, vint_size
from repro.api.job import JobSpec, _natural_compare, merge_runs, sort_run
from repro.api.seqfile import decode_pairs, encode_pairs
from repro.api.writables import (
    RAW_SORT_KEYS,
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
    WritableComparable,
    writable_from_bytes,
    writable_to_bytes,
)
from repro.x10 import deep_copy_value, estimate_size
from repro.x10.serializer import run_size


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

    def test_float_holds_the_32_bit_value_it_writes(self):
        tenth = struct.unpack(">f", struct.pack(">f", 0.1))[0]
        assert FloatWritable(0.1).get() == tenth != 0.1
        w = FloatWritable()
        w.set(0.1)
        assert w.get() == tenth
        x = FloatWritable(0.1)
        assert x.clone() == writable_from_bytes(FloatWritable, writable_to_bytes(x))

    def test_float_beyond_the_32_bit_range_is_infinite(self):
        # Java's (float) cast; struct's ">f" would refuse to pack these.
        assert FloatWritable(1e39).get() == math.inf
        assert FloatWritable(-1e39).get() == -math.inf
        assert writable_to_bytes(FloatWritable(1e39)) == struct.pack(">f", math.inf)

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

    @pytest.mark.parametrize(
        "layout",
        [
            [((0, 0), 0.0)],  # the default block
            [((10, 10), 0.0), ((7, 3), 0.0)],  # nnz = 0
            # a 237 x 237 matrix cut into 100-blocks: ragged right and bottom
            [((100, 100), 0.1), ((100, 37), 0.1), ((37, 100), 0.1), ((37, 37), 0.1)],
            [((0, 0), 0.0), ((5, 0), 0.0), ((30, 20), 0.2), ((1, 1), 1.0)],
        ],
    )
    def test_matrix_run_sizer_is_the_sum_of_serialized_sizes(self, layout):
        rng = np.random.default_rng(len(layout))
        blocks = [
            MatrixBlockWritable(
                sparse.random(rows, cols, density=density, format="csc", random_state=rng)
            )
            for (rows, cols), density in layout
        ]
        sizer = writables_module._matrix_block_run
        wire = sum(len(writable_to_bytes(block)) for block in blocks)
        assert sizer(blocks) == sum(b.serialized_size() for b in blocks) == wire
        assert run_size(blocks) == sum(map(estimate_size, blocks))


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
            FloatWritable(0.1),  # already 32-bit when set
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

    def test_subclass_of_a_block_index_keeps_its_fields(self):
        """The defensive clone, Hadoop's collect-time snapshot and the
        sequence-file reader all clone keys; a ``BlockIndexWritable``
        subclass must come back whole, and measure as it did."""

        class Tile(BlockIndexWritable):
            __slots__ = ("level",)

            def __init__(self, row: int = 0, col: int = 0, level: int = 0):
                super().__init__(row, col)
                self.level = level

            def write(self, out):
                super().write(out)
                out.write_int(self.level)

            def read_fields(self, inp):
                super().read_fields(inp)
                self.level = inp.read_int()

            def serialized_size(self):
                return 12

        tile = Tile(1, 2, 7)
        clone = deep_copy_value(tile)
        assert type(clone) is Tile and clone is not tile
        assert (clone.row, clone.col, clone.level) == (1, 2, 7)
        assert estimate_size(clone) == estimate_size(tile) == 16


# --------------------------------------------------------------------- #
# raw sort keys: the C-compared form of the natural order (api/job.py)
# --------------------------------------------------------------------- #

I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

#: Registered class -> strategy of constructor arguments.  Keys are built
#: from a small pool of these, so every run has duplicates.
RAW_KEY_ARGS = {
    IntWritable: st.tuples(I32),
    LongWritable: st.tuples(I64),
    VIntWritable: st.tuples(I64),
    BooleanWritable: st.tuples(st.booleans()),
    Text: st.tuples(st.text(TestText.any_plane, max_size=6)),
    # short alphabet: equal strings, and strings that are prefixes of others
    BytesWritable: st.tuples(st.binary(max_size=4).map(lambda b: bytes(x & 3 for x in b))),
    # narrow rows: many ties on row that the column must break
    BlockIndexWritable: st.tuples(st.integers(-2, 2), I32),
    NullWritable: st.tuples(),
}

#: Naturally ordered keys left to ``compare_to``, and why.
COMPARATOR_ONLY = {
    # compare_to orders NaN as Java's Double.compare does: equal to every
    # NaN, above every other value.  The raw float equals nothing, not even
    # itself, so grouping and the heap merge's tie-break would differ.
    FloatWritable: "NaN",
    DoubleWritable: "NaN",
    # parts of any class, compared part by part; no app keys on it
    PairWritable: "composite",
}


@st.composite
def keyed_pairs(draw, cls):
    """(key, serial) pairs over a small pool of key values; every key is its
    own object, so the order of *objects* is what the tests compare."""
    pool = draw(st.lists(RAW_KEY_ARGS[cls], min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), max_size=24))
    return [(cls(*args), serial) for serial, args in enumerate(picks)]


def reference_key():
    """The comparator path, spelled out independently of api/job.py."""
    return functools.cmp_to_key(lambda a, b: _natural_compare(a[0], b[0]))


def reference_groups(pairs):
    groups = []
    for key, value in pairs:
        if groups and _natural_compare(key, groups[-1][0]) == 0:
            groups[-1][1].append(value)
        else:
            groups.append((key, [value]))
    return groups


def same_objects(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


@contextlib.contextmanager
def counting_natural_compare():
    """Count calls of ``api.job._natural_compare`` (the comparator path).
    Build the JobSpec inside: it holds the function it resolved."""
    calls = []

    def shim(a, b):
        calls.append((a, b))
        return _natural_compare(a, b)

    with mock.patch.object(job_module, "_natural_compare", shim):
        yield calls


def natural_spec(**comparators):
    conf = JobConf()
    conf.set_input_paths("/in")
    conf.set_output_path("/out")
    if "sort" in comparators:
        conf.set_output_key_comparator_class(comparators["sort"])
    if "group" in comparators:
        conf.set_output_value_grouping_comparator(comparators["group"])
    return JobSpec.from_conf(conf)


class TestRawSortKeys:
    def test_every_comparable_is_registered_or_comparator_only(self):
        shipped = {
            cls
            for cls in vars(writables_module).values()
            if isinstance(cls, type)
            and issubclass(cls, WritableComparable)
            and cls is not WritableComparable
        }
        assert set(RAW_SORT_KEYS) | set(COMPARATOR_ONLY) == shipped
        assert not set(RAW_SORT_KEYS) & set(COMPARATOR_ONLY)
        assert set(RAW_KEY_ARGS) == set(RAW_SORT_KEYS)

    @pytest.mark.parametrize("cls", [FloatWritable, DoubleWritable])
    def test_why_the_floats_stay_comparator_only(self, cls):
        nan, one = cls(float("nan")), cls(1.0)
        other_nan = cls(float("nan"))
        assert nan.compare_to(other_nan) == 0 and nan.value != other_nan.value
        assert nan.compare_to(one) > 0 > one.compare_to(nan)
        assert nan.compare_to(cls(float("inf"))) > 0
        # ... whereas the other awkward values would have been fine (a large
        # finite value the class can hold, next to the infinities):
        big = 3.0e38 if cls is FloatWritable else 1e308
        for a, b in [(0.0, -0.0), (float("inf"), big), (float("-inf"), -big)]:
            assert (cls(a).compare_to(cls(b)) == 0) == (a == b)

    @pytest.mark.parametrize("cls", sorted(RAW_KEY_ARGS, key=lambda c: c.__name__))
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_raw_order_is_the_comparator_order_object_for_object(self, cls, data):
        pairs = data.draw(keyed_pairs(cls))
        raw = RAW_SORT_KEYS[cls]
        for a, _ in pairs[:8]:
            for b, _ in pairs[:8]:
                assert (raw(a) == raw(b)) == (a.compare_to(b) == 0)
                assert (raw(a) < raw(b)) == (a.compare_to(b) < 0)

        expected = sorted(pairs, key=reference_key())
        third = len(pairs) // 3 + 1  # contiguous runs, as map tasks produce them
        runs = [
            sorted(pairs[start : start + third], key=reference_key())
            for start in range(0, 3 * third, third)
        ]
        merged = list(heapq.merge(*runs, key=reference_key()))
        with counting_natural_compare() as calls:
            spec = natural_spec()
            assert same_objects(sort_run(pairs, spec.sort_key()), expected)
            assert same_objects(merge_runs(runs, spec.sort_key()), merged)
            groups = list(spec.group_sorted_pairs(expected))
            assert calls == []  # not one comparator call on the raw path
            sorted(pairs, key=spec.sort_key())  # ... which the shim would see
            assert len(calls) >= len(pairs) - 1
        assert same_objects(merged, expected)  # stable merge == stable sort
        wanted = reference_groups(expected)
        assert same_objects([k for k, _ in groups], [k for k, _ in wanted])
        assert [values for _, values in groups] == [values for _, values in wanted]

    def test_a_subclass_orders_through_its_own_compare_to(self):
        class Descending(Text):
            def compare_to(self, other):
                return -super().compare_to(other)

        pairs = [(Descending(word), None) for word in ("b", "c", "a", "c")]
        with counting_natural_compare() as calls:
            spec = natural_spec()
            ordered = sort_run(pairs, spec.sort_key())
            merged = merge_runs([ordered[:2], ordered[2:]], spec.sort_key())
            groups = list(spec.group_sorted_pairs(ordered))
        assert [str(key) for key, _ in ordered] == ["c", "c", "b", "a"]
        assert same_objects(merged, ordered)
        assert [len(values) for _, values in groups] == [2, 1, 1]
        assert all(type(a) is Descending for a, _ in calls) and len(calls) >= 9

    def test_a_run_mixing_key_classes_orders_through_compare_to(self):
        pairs = [(IntWritable(3), "i3"), (LongWritable(1), "l1"), (IntWritable(2), "i2")]
        with counting_natural_compare() as calls:
            spec = natural_spec()
            ordered = sort_run(pairs, spec.sort_key())
            groups = list(spec.group_sorted_pairs(ordered))
        assert [value for _, value in ordered] == ["l1", "i2", "i3"]
        assert len(groups) == 3 and len(calls) >= 4
        # one class per run is enough for the sort; the merge sees both
        runs = [[(IntWritable(1), "a"), (IntWritable(5), "b")], [(LongWritable(3), "c")]]
        with counting_natural_compare() as calls:
            spec = natural_spec()
            assert [sort_run(run, spec.sort_key()) for run in runs] == runs
            assert calls == []
            merged = merge_runs(runs, spec.sort_key())
        assert [value for _, value in merged] == ["a", "c", "b"] and calls

    def test_unregistered_and_plain_python_keys_order_through_the_comparator(self):
        for keys in ([DoubleWritable(2.0), DoubleWritable(-1.0)], [7, 3]):
            with counting_natural_compare() as calls:
                sort_key = natural_spec().sort_key()
                ordered = sort_run([(key, None) for key in keys], sort_key)
            assert [key for key, _ in ordered] == sorted(keys) and calls

    def test_a_custom_sort_comparator_is_never_bypassed(self):
        seen = []

        class ByLength:
            def compare(self, a, b):
                seen.append((a, b))
                return len(str(a)) - len(str(b))

        pairs = [(Text(word), None) for word in ("ccc", "a", "bb", "z")]
        with counting_natural_compare() as calls:
            spec = natural_spec(sort=ByLength)
            ordered = sort_run(pairs, spec.sort_key())
            groups = list(spec.group_sorted_pairs(ordered))  # group = sort comparator
        assert [str(key) for key, _ in ordered] == ["a", "z", "bb", "ccc"]
        assert [len(values) for _, values in groups] == [2, 1, 1]
        assert seen and calls == []

    def test_natural_sort_with_a_grouping_comparator(self):
        """Sort on raw keys, group through the comparator."""
        seen = []

        class FirstLetter:
            def compare(self, a, b):
                seen.append((a, b))
                return (str(a)[0] > str(b)[0]) - (str(a)[0] < str(b)[0])

        pairs = [(Text(word), word) for word in ("bz", "ab", "ba", "aa")]
        with counting_natural_compare() as calls:
            spec = natural_spec(group=FirstLetter)
            assert not spec.uses_natural_ordering()
            ordered = sort_run(pairs, spec.sort_key())
            assert calls == [] and seen == []
            groups = list(spec.group_sorted_pairs(ordered))
        assert [values for _, values in groups] == [["aa", "ab"], ["ba", "bz"]]
        assert len(seen) == 3 and calls == []


# --------------------------------------------------------------------- #
# the six declared scalars against a reference spelled out here
# --------------------------------------------------------------------- #


def vlong_bytes(value):
    out = DataOutputBuffer()
    out.write_vlong(value)
    return out.to_bytes()


#: Declared scalar class -> the wire bytes of a stored value.
SCALAR_WIRE = {
    IntWritable: struct.Struct(">i").pack,
    LongWritable: struct.Struct(">q").pack,
    VIntWritable: vlong_bytes,
    FloatWritable: struct.Struct(">f").pack,
    DoubleWritable: struct.Struct(">d").pack,
    BooleanWritable: lambda value: b"\x01" if value else b"\x00",
}

#: Declared scalar class -> strategy of stored values (the raw sort key
#: classes draw theirs from RAW_KEY_ARGS).
SCALAR_VALUES = {
    **{
        cls: RAW_KEY_ARGS[cls].map(itemgetter(0))
        for cls in SCALAR_WIRE
        if cls in RAW_KEY_ARGS
    },
    FloatWritable: st.floats(width=32, allow_nan=False),
    DoubleWritable: st.floats(allow_nan=False),
}


def stamped(cls):
    """A subclass of ``cls`` that writes one more field."""

    class Stamped(cls):
        def __init__(self, value=cls().value, stamp=0):
            super().__init__(value)
            self.stamp = stamp

        def write(self, out):
            super().write(out)
            out.write_int(self.stamp)

        def read_fields(self, inp):
            super().read_fields(inp)
            self.stamp = inp.read_int()

    return Stamped


def sign(number):
    return (number > 0) - (number < 0)


class TestDeclaredScalars:
    @pytest.mark.parametrize("cls", SCALAR_WIRE, ids=lambda cls: cls.__name__)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference(self, cls, data):
        a, b = data.draw(SCALAR_VALUES[cls]), data.draw(SCALAR_VALUES[cls])
        x, y = cls(a), cls(b)
        wire = SCALAR_WIRE[cls](a)
        assert writable_to_bytes(x) == wire and x.serialized_size() == len(wire)
        if cls is VIntWritable:
            assert x.serialized_size() == vint_size(a)
        back = writable_from_bytes(cls, wire)
        assert type(back) is cls and back.value == a and back == x

        twin = x.clone()
        assert type(twin) is cls and twin is not x and twin == x
        assert sign(x.compare_to(y)) == (a > b) - (a < b)
        assert (x == y) == (a == b)
        assert hash(x) == hash(x.value) and repr(x) == f"{cls.__name__}({x.value})"

        sub = type("Sub", (cls,), {})(a)
        assert sub == x and x == sub
        extra = stamped(cls)(a, stamp=7)
        kept = extra.clone()
        assert type(kept) is type(extra) and (kept.value, kept.stamp) == (a, 7)

        for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(copied) is cls and copied == x and copied is not x
        ((key, value),) = decode_pairs(encode_pairs([(x, y)]))
        assert (type(key), type(value)) == (cls, cls) and (key, value) == (x, y)

    def test_classes_never_equal_each_other(self):
        for left, right in itertools.permutations(SCALAR_WIRE, 2):
            assert left(1) != right(1)

    def test_each_is_a_module_level_class_by_name(self):
        for cls in SCALAR_WIRE:
            assert cls.__module__ == writables_module.__name__
            assert getattr(writables_module, cls.__qualname__) is cls
            assert cls.__name__ == cls.__qualname__
