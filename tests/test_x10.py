"""The mini X10 runtime: places and the de-duplicating serializer."""

from __future__ import annotations

import ast
import copy
import pathlib
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import engine_common
from repro.analysis.sanitizers import MUTATION_SANITIZER, sanitizer_overrides
from repro.api import writables
from repro.api.counters import Counters
from repro.api.mapred import _reuse_into
from repro.api.partitioner import HashPartitioner
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
    WritableComparable,
    writable_from_bytes,
    writable_to_bytes,
)
from repro.sysml import blocks
from repro.sysml.blocks import CellMatrixBlockWritable, TaggedBlockWritable
from repro.x10 import (
    DedupSerializer,
    Place,
    deep_copy_value,
    estimate_size,
)
from repro.x10 import serializer as serializer_module
from repro.x10.serializer import (
    _TRANSPORT,
    BACKREF_BYTES,
    OBJECT_HEADER_BYTES,
    TRANSPORT_COPIES,
    Crossing,
    _columns,
    _dual_size_of,
    _size_of,
    clone_pairs,
    pairs_size,
    run_size,
)

from conftest import make_hadoop, make_m3r
from workloads import stress_job, write_corpus


class TestPlaces:
    def test_place_identity(self):
        assert Place(1) == Place(1)
        assert Place(1) != Place(2)
        assert hash(Place(3)) == hash(Place(3))

    def test_invalid_place(self):
        with pytest.raises(ValueError):
            Place(-1)
        with pytest.raises(ValueError):
            Place(0, workers=0)


class TestRuntime:
    @pytest.mark.parametrize("make_engine", [make_m3r, make_hadoop])
    def test_engine_shutdown_twice_leaves_no_worker_thread(self, make_engine):
        """Engines start no thread: after a job and shutdown the live
        threads are exactly those alive before the engine was built."""
        before = set(threading.enumerate())
        engine = make_engine()
        write_corpus(engine.filesystem, "/in", 2, parts=2)
        result = engine.run_job(stress_job("/in", "/out", reducers=2))
        assert result.succeeded, result.error
        engine.shutdown()
        engine.shutdown()  # the second call is a no-op
        assert set(threading.enumerate()) == before


class TestEstimateSize:
    def test_writables_use_wire_size(self):
        assert estimate_size(Text("abcd")) == 4 + Text("abcd").serialized_size()

    def test_scalars(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(3) >= 1
        assert estimate_size(3.5) == 8

    def test_big_ints_grow(self):
        assert estimate_size(2**40) > estimate_size(1)

    def test_containers_recurse(self):
        flat = estimate_size([1, 2, 3])
        nested = estimate_size([[1, 2, 3], [1, 2, 3]])
        assert nested > flat

    def test_numpy(self):
        arr = np.zeros(100)
        assert estimate_size(arr) >= arr.nbytes

    def test_bytes(self):
        assert estimate_size(b"x" * 100) >= 100


class TestDedupSerializer:
    def test_repeated_object_counted_once(self):
        serializer = DedupSerializer()
        shared = BytesWritable(b"z" * 1000)
        message = serializer.measure_message([shared, shared, shared])
        assert message.duplicate_refs == 2
        assert message.wire_bytes < message.raw_bytes
        assert message.wire_bytes == pytest.approx(
            estimate_size(shared) + 2 * BACKREF_BYTES
        )

    def test_equal_but_distinct_objects_not_deduped(self):
        serializer = DedupSerializer()
        message = serializer.measure_message(
            [BytesWritable(b"z" * 100), BytesWritable(b"z" * 100)]
        )
        assert message.duplicate_refs == 0
        assert message.wire_bytes == message.raw_bytes

    def test_memo_is_per_message(self):
        serializer = DedupSerializer()
        shared = Text("x" * 50)
        first = serializer.measure_message([shared])
        second = serializer.measure_message([shared])
        assert first.wire_bytes == second.wire_bytes  # no cross-message memo

    def test_measure_pairs_counts_records(self):
        serializer = DedupSerializer()
        one = IntWritable(1)
        message = serializer.measure_pairs([(Text("a"), one), (Text("b"), one)])
        assert message.records == 2
        assert message.duplicate_refs == 1  # the shared IntWritable

    def test_broadcast_idiom_savings(self):
        """The matvec broadcast: one big value to many keys."""
        serializer = DedupSerializer()
        vector = BytesWritable(b"v" * 10_000)
        pairs = [(IntWritable(i), vector) for i in range(20)]
        message = serializer.measure_pairs(pairs)
        assert message.dedup_savings > 19 * 9_000

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_dedup_never_exceeds_raw(self, indexes):
        pool = [Text("payload-%d" % i * 5) for i in range(6)]
        values = [pool[i] for i in indexes]
        message = DedupSerializer().measure_message(values)
        assert message.wire_bytes <= message.raw_bytes
        assert message.unique_objects <= len(set(indexes))


class TestDeepCopy:
    def test_uses_clone_when_available(self):
        original = Text("x")
        copy = deep_copy_value(original)
        assert copy == original and copy is not original

    def test_falls_back_to_deepcopy(self):
        original = {"a": [1, 2]}
        copy = deep_copy_value(original)
        copy["a"].append(3)
        assert original["a"] == [1, 2]

    def test_ship_preserves_sharing(self):
        """What the M3R shuffle relies on: aliases survive transport, within
        one message and across its runs, and never reach back to the sender."""
        shared = Text("shared")
        runs = [[(IntWritable(0), shared), (IntWritable(1), shared)], [(IntWritable(2), shared)]]
        message, (first, second) = DedupSerializer().ship(runs)
        assert first[0][1] is first[1][1] is second[0][1]
        assert first[0][1] is not shared and first[0][1] == shared
        assert message.records == 3 and message.duplicate_refs == 2

    def test_each_message_gets_its_own_clone(self):
        shared = Text("shared")
        pairs = [(IntWritable(0), shared)]
        serializer = DedupSerializer()
        (one,), (two,) = serializer.ship([pairs])[1], serializer.ship([pairs])[1]
        assert one[0][1] is not two[0][1]
        assert clone_pairs(pairs)[0][1] is not clone_pairs(pairs)[0][1]


# --------------------------------------------------------------------- #
# the transport table and the one-pass ship walk
# --------------------------------------------------------------------- #

#: Writables the table leaves to the generic walk, and why.
GENERIC_ON_PURPOSE = {
    # composites: their parts may be shared with other records, so they
    # are cloned by copy.deepcopy on the message's memo
    ArrayWritable,
    PairWritable,
    # holds a CellMatrixBlockWritable that may also travel on its own; its
    # size is one direct serialized_size() call
    TaggedBlockWritable,
}

ABSTRACT = {Writable, WritableComparable}


class TaggedInt(IntWritable):
    """A user subclass of a built-in: one more field than the table knows."""

    def __init__(self, value: int = 0, tag: str = ""):
        super().__init__(value)
        self.tag = [tag]


class Exotic:
    """A non-Writable value with attributes."""

    def __init__(self, held):
        self.held = held
        self.note = "exotic"


def one_of_each():
    """A sample of every registered class."""
    return [
        IntWritable(-3),
        LongWritable(2**40),
        VIntWritable(300),
        FloatWritable(0.1),
        DoubleWritable(2.5),
        BooleanWritable(True),
        Text("h\u00e9llo \U0001f600"),
        BytesWritable(b"x" * 10),
        NullWritable(),
        BlockIndexWritable(1, 2),
    ]


def one_of_each_block():
    """A sample of every registered array-backed block class."""
    matrix = sparse.random(5, 4, density=0.4, format="csc", random_state=2)
    return [
        MatrixBlockWritable(matrix),
        VectorBlockWritable(np.arange(4.0)),
        CellMatrixBlockWritable(matrix),
    ]


def fresh_pool(picks):
    """Objects for one generated message: every registered leaf, the
    composites and blocks (holding leaves that also travel on their own),
    a subclass of a built-in, and plain Python values with nesting, sharing
    and a cycle.  ``picks`` chooses what the composites hold."""
    leaves = one_of_each()
    shared = Text("shared")
    leaves.append(shared)

    def leaf(i):
        return leaves[picks[i % len(picks)] % len(leaves)]

    vector = VectorBlockWritable(np.arange(4.0))
    twin = VectorBlockWritable()
    twin.values = vector.values  # two blocks over one array
    cell = CellMatrixBlockWritable(sparse.identity(3, format="csc"))
    cycle = [leaf(0)]
    cycle.append(cycle)
    return leaves + [
        PairWritable(leaf(1), leaf(2)),
        PairWritable(shared, shared),
        ArrayWritable(Text, [shared, leaf(3), shared]),
        vector,
        twin,
        MatrixBlockWritable(sparse.identity(3, format="csc")),
        TaggedBlockWritable("A", 1, cell),
        cell,
        TaggedInt(7, "t"),
        None,
        True,
        7,
        2.5,
        "plain",
        b"bytes",
        [leaf(4), shared, [shared, leaf(5)]],
        {"k": leaf(6), "nested": {"again": shared}},
        (leaf(7), shared),
        cycle,
        Exotic(leaf(8)),
        np.arange(3),
    ]


_ATOMS = (type(None), bool, int, float, str, bytes, type)


def _children(obj):
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, dict):
        return [half for item in obj.items() for half in item]
    if isinstance(obj, np.ndarray):
        return []
    slots = [
        getattr(obj, name)
        for klass in type(obj).__mro__
        for name in getattr(klass, "__slots__", ())
        if hasattr(obj, name)
    ]
    return slots + list(getattr(obj, "__dict__", {}).values())


def graph_shape(root, source_ids=frozenset()):
    """One entry per visit of a pre-order walk over everything reachable:
    the type, which earlier visit it is the same object as (the ``is``
    partition), its value if it is a leaf, and whether it is one of the
    sender's objects.  Two graphs with equal shapes are equal, share
    alike inside, and alias the sender alike."""
    first_visit = {}
    shape = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMS):
            shape.append((type(obj), obj))
            continue
        revisit = id(obj) in first_visit
        label = first_visit.setdefault(id(obj), len(first_visit))
        leaf = (
            (obj.dtype.str, obj.shape, obj.tobytes())
            if isinstance(obj, np.ndarray)
            else None
        )
        shape.append((type(obj), label, leaf, id(obj) in source_ids))
        if not revisit:
            stack.extend(reversed(_children(obj)))
    return shape


def reachable_ids(root):
    ids = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMS) or id(obj) in ids:
            continue
        ids.add(id(obj))
        stack.extend(_children(obj))
    return ids


class TestShipMatchesDeepcopy:
    @given(
        picks=st.lists(st.integers(0, 50), min_size=1, max_size=9),
        draws=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 2)),
            max_size=14,
        ),
        repeat_a_pair=st.booleans(),
        list_shaped_pair=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_graph_and_same_message(
        self, picks, draws, repeat_a_pair, list_shaped_pair
    ):
        pool = fresh_pool(picks)
        runs = [[], [], []]
        for key_index, value_index, run in draws:
            pair = (pool[key_index % len(pool)], pool[value_index % len(pool)])
            runs[run].append(pair)
            if repeat_a_pair:
                runs[(run + 1) % 3].append(pair)  # the same tuple twice
        if list_shaped_pair:
            runs[0].append([pool[0], pool[-1]])

        serializer = DedupSerializer()
        message, shipped = serializer.ship(runs)
        expected = copy.deepcopy(runs)

        sender = reachable_ids(runs)
        assert graph_shape(shipped, sender) == graph_shape(expected, sender)
        flat = [pair for run in runs for pair in run]
        assert message == DedupSerializer().measure_pairs(flat)
        # The measurement-free crossing is the same clone.
        assert graph_shape(clone_pairs(flat), sender) == graph_shape(
            copy.deepcopy(flat), sender
        )

    def test_mixed_graph_keeps_sharing_across_table_and_deepcopy(self):
        """A leaf cloned by the table and met again inside a composite (and
        the other way round) is one object on the receiving side."""
        leaf, other = Text("leaf"), IntWritable(1)
        runs = [
            [(leaf, PairWritable(leaf, other))],
            [([other, leaf], other)],
        ]
        _, ((first,), (second,)) = DedupSerializer().ship(runs)
        assert first[1].first is first[0]
        assert second[0][0] is first[1].second is second[1]
        assert second[0][1] is first[0]
        assert first[0] is not leaf and second[1] is not other

    def test_null_writable_stays_the_singleton(self):
        pairs = [(NullWritable(), Text("v"))]
        _, ((arrived,),) = DedupSerializer().ship([pairs])
        assert arrived[0] is NullWritable.get()
        # copy.deepcopy returns an unchanged tuple as itself; so does ship.
        untouched = (NullWritable(), None)
        assert DedupSerializer().ship([[untouched]])[1][0][0] is untouched

    def test_subclass_of_a_builtin_takes_the_generic_path(self):
        tagged = TaggedInt(5, "keep me")
        assert type(tagged) not in _TRANSPORT
        assert estimate_size(tagged) == OBJECT_HEADER_BYTES + tagged.serialized_size()
        _, ((arrived,),) = DedupSerializer().ship([[(tagged, tagged)]])
        assert type(arrived[0]) is TaggedInt and arrived[0] is arrived[1]
        assert arrived[0].tag == ["keep me"] and arrived[0].tag is not tagged.tag
        # ... and still clones by its own (round-trip) rules, not IntWritable's.
        assert type(tagged.clone()) is TaggedInt


#: Every transport-table class, in a fixed order.
TABLE_CLASSES = sorted(_TRANSPORT, key=lambda cls: cls.__name__)

I32 = st.integers(-(2**31), 2**31 - 1)
I64 = st.integers(-(2**63), 2**63 - 1)

#: A fresh instance of each table leaf.  ``Text`` covers the run sizer's
#: case (short ASCII) and both of its fallbacks: non-ASCII, and 128 or more
#: characters (a two-byte length).
FRESH_LEAF = {
    IntWritable: st.builds(IntWritable, I32),
    LongWritable: st.builds(LongWritable, I64),
    VIntWritable: st.builds(VIntWritable, I64),
    FloatWritable: st.builds(FloatWritable, st.floats(allow_nan=False, width=32)),
    DoubleWritable: st.builds(DoubleWritable, st.floats(allow_nan=False)),
    BooleanWritable: st.builds(BooleanWritable, st.booleans()),
    Text: st.builds(
        Text,
        st.one_of(
            st.text(max_size=8),
            st.text("ab\u00e9\U0001f600", min_size=120, max_size=140),
            st.text("xy", min_size=127, max_size=130),
        ),
    ),
    BytesWritable: st.builds(BytesWritable, st.binary(max_size=20)),
    BlockIndexWritable: st.builds(BlockIndexWritable, I32, I32),
    NullWritable: st.builds(NullWritable),  # the singleton: at most one slot
}


@st.composite
def distinct_messages(draw):
    """Runs of fresh objects: each run's key and value class drawn from the
    whole table, a new object in every slot, empty runs, and blocks that
    are distinct objects over one array (a shallow copy of the message's
    template block) beside blocks with arrays of their own."""
    templates = {type(block): block for block in one_of_each_block()}

    def fresh(cls):
        if cls in templates:
            template = templates[cls]
            return copy.copy(template) if draw(st.booleans()) else template.clone()
        return draw(FRESH_LEAF[cls])

    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(TABLE_CLASSES),
                st.sampled_from(TABLE_CLASSES),
                st.integers(0, 5),
            ),
            max_size=4,
        )
    )
    return [
        [(fresh(key_cls), fresh(value_cls)) for _ in range(length)]
        for key_cls, value_cls, length in shapes
    ], fresh


def all_distinct(runs):
    slots = [id(half) for run in runs for pair in run for half in pair]
    return len(set(slots)) == len(slots)


def assert_ships_as_deepcopy(runs):
    """``ship`` measures what ``measure_pairs`` measures, and ``ship`` and
    ``clone_pairs`` build what ``copy.deepcopy`` builds."""
    message, shipped = DedupSerializer().ship(runs)
    sender = reachable_ids(runs)
    assert graph_shape(shipped, sender) == graph_shape(copy.deepcopy(runs), sender)
    flat = [pair for run in runs for pair in run]
    assert message == DedupSerializer().measure_pairs(flat)
    assert graph_shape(clone_pairs(flat), sender) == graph_shape(
        copy.deepcopy(flat), sender
    )


class TestColumnPathMatchesTheWalk:
    """The column path is an implementation of the memo walk for messages
    of distinct objects: the same message and the same clone graph."""

    def test_every_table_class_is_generated(self):
        assert set(FRESH_LEAF) | {type(b) for b in one_of_each_block()} == set(
            TABLE_CLASSES
        )

    @given(drawn=distinct_messages())
    @settings(max_examples=150, deadline=None)
    def test_distinct_message(self, drawn):
        runs, _ = drawn
        # Only the NullWritable singleton can put one object in two slots.
        assert (_columns(runs) is not None) == all_distinct(runs)
        assert_ships_as_deepcopy(runs)

    @given(
        drawn=distinct_messages(),
        miss=st.sampled_from(
            ["repeat", "repeat_pair", "subclass", "mixed", "list", "plain"]
        ),
        where=st.integers(0, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_near_miss_takes_the_walk(self, drawn, miss, where):
        runs, fresh = drawn
        runs.append([(IntWritable(-1), Text("anchor"))])
        filled = [run for run in runs if run]
        run = filled[where % len(filled)]
        key, value = run[where % len(run)]
        if miss == "repeat":  # one object in two slots, classes unchanged
            run.append((fresh(type(key)), value))
        elif miss == "repeat_pair":
            run.append(run[-1])
        elif miss == "subclass":
            run.append((TaggedInt(3, "t"), fresh(type(value))))
        elif miss == "mixed":
            other = TABLE_CLASSES[(TABLE_CLASSES.index(type(key)) + 1) % len(TABLE_CLASSES)]
            run.append((fresh(type(key)), fresh(type(value))))
            run.append((fresh(other), fresh(type(value))))
        elif miss == "list":
            run.append([fresh(type(key)), fresh(type(value))])
        else:
            run.append((fresh(type(key)), 7))
        assert _columns(runs) is None
        assert_ships_as_deepcopy(runs)

    def test_a_three_tuple_takes_the_walk(self):
        """``ship`` fails on a 3-tuple as ``measure_pairs`` does, and
        ``clone_pairs`` copies it as ``copy.deepcopy`` does."""
        triple = [(IntWritable(1), Text("a"), Text("b"))]
        assert _columns([triple]) is None
        with pytest.raises(ValueError):
            DedupSerializer().ship([triple])
        with pytest.raises(ValueError):
            DedupSerializer().measure_pairs(triple)
        sender = reachable_ids(triple)
        assert graph_shape(clone_pairs(triple), sender) == graph_shape(
            copy.deepcopy(triple), sender
        )

    def test_blocks_over_one_array_arrive_over_one_array(self):
        vector = VectorBlockWritable(np.arange(4.0))
        twin = copy.copy(vector)
        runs = [[(IntWritable(0), vector), (IntWritable(1), twin)]]
        assert _columns(runs) is not None
        _, ((first, second),) = DedupSerializer().ship(runs)
        assert first[1] is not second[1]
        assert first[1].values is second[1].values
        assert first[1].values is not vector.values


class TestTransportTable:
    def test_every_writable_is_registered_or_generic_on_purpose(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        shipped = {
            cls
            for cls in subclasses(Writable)
            if cls.__module__ in (writables.__name__, blocks.__name__)
        } | {Writable}
        registered = set(_TRANSPORT)
        assert registered | GENERIC_ON_PURPOSE | ABSTRACT == shipped
        assert not registered & (GENERIC_ON_PURPOSE | ABSTRACT)
        samples = one_of_each() + one_of_each_block()
        assert {type(sample) for sample in samples} == registered

    def test_table_size_equals_the_generic_walk(self, monkeypatch):
        samples = one_of_each() + [Text(""), Text("ascii"), BytesWritable(b"")]
        samples += one_of_each_block()
        with_table = [
            (estimate_size(s), _size_of(s, {}), _dual_size_of(s, {}))
            for s in samples
        ]
        nested_with_table = estimate_size([samples, {"k": samples[0]}])
        monkeypatch.setattr(serializer_module, "_TRANSPORT", {})
        for sample, sizes in zip(samples, with_table):
            generic = _size_of(sample, None)
            assert generic == OBJECT_HEADER_BYTES + sample.serialized_size()
            assert sizes == (generic, generic, (generic, generic)), sample
        assert estimate_size([samples, {"k": samples[0]}]) == nested_with_table

    def test_table_clone_is_a_deepcopy(self):
        for sample in one_of_each() + one_of_each_block():
            clone = _TRANSPORT[type(sample)][1](sample, Crossing())
            mine = reachable_ids(sample)
            assert graph_shape(clone, mine) == graph_shape(
                copy.deepcopy(sample), mine
            )
            assert (clone is sample) == (copy.deepcopy(sample) is sample)

    def test_no_deepcopy_outside_the_serializer(self):
        """One transport primitive: nothing else in the package deep-copies.
        One execution substrate: nothing in it imports a process pool.
        One measurement: no size memo — its class, its token protocol or a
        parameter that carries it — anywhere in the package, prose included.
        One dispatch path, one-path linter: no thread-era rule id, spawn API
        or portability report in the package or the CI workflow either.
        One admin command, no place heap: no retired ``*-stats`` command or
        heap accessor in the package or the workflow, and no retired command
        in the README or DESIGN.md.  Single-threaded by construction: no
        service worker or ``serve`` command anywhere, and no module takes a
        lock, keeps thread-local state or starts a thread — the KV store's
        two-phase locking is a checked protocol, with no lock-order
        sanitizer or switch beside it.  One replacement rule: no
        eviction-policy layer, knob or second shedding loop in the package
        or the workflow, and no policy knob in the README or DESIGN.md.
        One run sizer: no second pair-sequence sum beside ``pairs_size``.
        A knob needs a caller: no constant of a deleted test-only knob, no
        per-job sanitizer scope and no second metrics model (the stage-time
        bridge) in the package or the workflow.  One combine: no in-mapper
        fold sink, its entry bound, per-pair sizer or spill metric."""
        package = pathlib.Path(serializer_module.__file__).parents[1]
        commands = (
            "cache-stats|shuffle-stats|batch-stats|restore-stats|service-stats"
            r"|repro (--?[\w-]+ \S+ )*serve\b"
        )
        retired = re.compile(
            "SizeCache|size_token|size_cache"
            "|M3R001|M3R006|M3R008|SPAWN_APIS|spawn_roots|portability_inventory"
            "|finish_collect|bounded_task_fn|run_tasks_threaded|async_at"
            f"|{commands}|PlaceLocalHandle|get_root|heap_lock"
            "|_worker_loop|_run_lock|cmd_serve"
            "|EvictionPolicy|FIFOPolicy|GreedyDualSizePolicy|create_policy"
            "|EvictionCandidate|plan_tenant_eviction|_enforce_tenants"
            "|eviction-policy|EVICTION_POLICY"
            "|pairs_wire_size|pairs_bytes"
            "|SERVICE_(QUEUE_DEPTH|IN_FLIGHT|TENANT_WEIGHT|TENANT_BUDGET"
            "|SHARED_RESTORE)_KEY|RESTORE_MAX_ENTRIES_KEY|TRACE_RING_KEY"
            "|BATCH_SIZE_KEY|IMC_MAX_ENTRIES_KEY|SANITIZE_(MUTATION|LOCK_ORDER)_KEY"
            "|SanitizerSubscription|MetricsBridgeSink|stage_time_breakdown"
            "|InMapperCombineSink|IMC_MAX_ENTRIES|pair_bytes|imc_spills"
            "|LockOrderSanitizer|LOCK_ORDER_SANITIZER|M3R_SANITIZE_LOCK_ORDER"
        )
        threaded = re.compile(
            r"threading\.(Lock|RLock|Condition|Semaphore|Event|Thread|Barrier|local)\b"
        )
        root = package.parents[1]
        offenders = [
            f"{name}:{number}"
            for name, pattern in (
                (".github/workflows/ci.yml", retired),
                ("README.md", re.compile(f"{commands}|eviction-policy")),
                ("DESIGN.md", re.compile(f"{commands}|eviction-policy")),
            )
            for number, line in enumerate((root / name).read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        for path in sorted(package.rglob("*.py")):
            is_serializer = path == pathlib.Path(serializer_module.__file__)
            source = path.read_text()
            offenders += [
                f"{path.relative_to(package)}:{number}"
                for number, line in enumerate(source.splitlines(), 1)
                if retired.search(line) or threaded.search(line)
            ]
            for node in ast.walk(ast.parse(source, str(path))):
                names, modules = [], []
                if isinstance(node, ast.Call):
                    names = [getattr(node.func, "attr", getattr(node.func, "id", ""))]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                    if node.module == "copy":
                        names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                if ("deepcopy" in names and not is_serializer) or any(
                    module.split(".")[0] == "multiprocessing" for module in modules
                ):
                    offenders.append(f"{path.relative_to(package)}:{node.lineno}")
        assert offenders == []

    def test_only_the_kernels_run_user_code(self):
        """One task kernel for both engines: under ``lifecycle/`` nothing but
        ``kernels.py`` builds a collector, runs a combiner, merges or groups
        runs, or drives a mapper / reducer — so a stage provider cannot grow
        a second copy of a task body (prose naming these counts too)."""
        lifecycle = pathlib.Path(serializer_module.__file__).parents[1] / "lifecycle"
        user_code = re.compile(
            r"CollectorSink\(|run_combiner_if_any"
            r"|merge_runs|group_sorted_pairs|spec\.run_map_task|spec\.run_reduce_task"
        )
        hits = {
            path.name
            for path in lifecycle.glob("*.py")
            if user_code.search(path.read_text())
        }
        assert hits == {"kernels.py"}

    def test_collectors_only_append(self):
        """Size each run once: no per-record ``collect`` in ``engine_common``
        measures anything — not the streaming sink's method, and not one of
        the closures a buffering sink picks at construction — ``seal()``
        does, once per run, when the task closes."""
        sizers = {"estimate_size", "pair_bytes", "pairs_size", "run_size"}
        calls = {}
        for top in ast.parse(pathlib.Path(engine_common.__file__).read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef) and node.name == "collect":
                    calls.setdefault(top.name, []).append(
                        [
                            name
                            for call in ast.walk(node)
                            if isinstance(call, ast.Call)
                            for name in [
                                getattr(call.func, "attr", getattr(call.func, "id", ""))
                            ]
                            if name in sizers
                        ]
                    )
        # four policy x partitioner closures and the sanitizer's wrapper
        assert calls == {"_collect_into": [[]] * 5, "WriterCollector": [[]]}
        # ... and a buffering sink collects through one of them in every mode
        for mutation in (False, True):
            for copies in (False, True):
                for partitions, partitioner in ((1, None), (2, HashPartitioner())):
                    with sanitizer_overrides(mutation=mutation):
                        sink = engine_common.CollectorSink(
                            partitions, partitioner, Counters(), copies=copies
                        )
                    assert sink.collect.__qualname__ == "_collect_into.<locals>.collect"

    def test_blocks_are_measured_from_the_table_every_time(self):
        """What replaced the size memo: a block's size is the table's O(1)
        arithmetic on every ship, so a resize between two ships shows in
        the second and a serializer holds nothing between them."""
        block = VectorBlockWritable(np.ones(8))
        serializer = DedupSerializer()
        assert vars(serializer) == {}
        key = BlockIndexWritable(0, 0)
        first, _ = serializer.ship([[(key, block)]])
        again, _ = serializer.ship([[(key, block)]])
        block.values = np.ones(9)
        MUTATION_SANITIZER.forget(block)  # the sanitized row: a legal resize
        grown, _ = serializer.ship([[(key, block)]])
        assert first == again
        assert grown.wire_bytes == first.wire_bytes + 8
        assert estimate_size(block) == OBJECT_HEADER_BYTES + 4 + 8 * 9


# --------------------------------------------------------------------- #
# run sizers: a whole run measured in one call
# --------------------------------------------------------------------- #

#: Registered classes whose runs are measured object by object, and why.
PER_OBJECT_ON_PURPOSE = {
    VIntWritable,  # variable width: the size is a function of each value
    # blocks: a run is few objects, each O(1) from the table (the sparse
    # MatrixBlockWritable has a sizer: scipy's nnz re-validates per read)
    VectorBlockWritable,
    CellMatrixBlockWritable,
}


class ShoutedText(Text):
    """A user subclass of ``Text``: not the class the run sizer knows."""


_ASCII = st.text(st.characters(max_codepoint=127), max_size=140)
_ANY_TEXT = st.one_of(_ASCII, st.text(max_size=140))

#: One strategy per kind of object a run can hold.
_OBJECTS = [
    st.integers(-(2**31), 2**31 - 1).map(IntWritable),
    st.integers(-(2**63), 2**63 - 1).map(LongWritable),
    st.integers(-(2**40), 2**40).map(VIntWritable),
    st.floats().map(FloatWritable),
    st.floats().map(DoubleWritable),
    st.booleans().map(BooleanWritable),
    _ANY_TEXT.map(Text),
    st.binary(max_size=200).map(BytesWritable),
    st.just(NullWritable()),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(
        lambda cell: BlockIndexWritable(*cell)
    ),
    _ANY_TEXT.map(ShoutedText),
    st.sampled_from(one_of_each_block()),
    st.one_of(
        st.none(),
        st.integers(),
        st.floats(),
        st.text(max_size=10),
        st.binary(max_size=10),
        st.lists(st.integers(), max_size=3),
    ),
]

#: Runs of one kind (the sizers' fast path) and mixed runs (the fallback).
_RUNS = st.one_of(
    st.sampled_from(_OBJECTS).flatmap(lambda objects: st.lists(objects, max_size=12)),
    st.lists(st.one_of(_OBJECTS), max_size=12),
)


def _per_object(run):
    return sum(map(estimate_size, run))


class TestRunSize:
    @given(_RUNS)
    @example([])
    @example([Text("x" * 127), Text("")])  # the longest one-byte VInt
    @example([Text("x" * 128)])  # a two-byte VInt
    @example([Text("é" * 64)])  # 64 characters, 128 UTF-8 bytes
    @example([Text("café"), Text("ascii")])
    @settings(max_examples=300, deadline=None)
    def test_run_size_is_the_per_object_sum(self, run):
        assert run_size(run) == run_size(tuple(run)) == _per_object(run)

    @given(_RUNS, _RUNS)
    @example([], [])
    @example([Text("k")], [Text("é" * 64)])
    @settings(max_examples=200, deadline=None)
    def test_pairs_size_is_the_two_call_sum(self, keys, values):
        pairs = list(zip(keys, values))
        expected = sum(estimate_size(k) + estimate_size(v) for k, v in pairs)
        assert pairs_size(pairs) == pairs_size(tuple(pairs)) == expected

    def test_every_registered_class_has_a_run_sizer_or_is_per_object_on_purpose(self):
        with_sizer = {cls for cls, entry in _TRANSPORT.items() if entry[2] is not None}
        assert with_sizer | PER_OBJECT_ON_PURPOSE == set(_TRANSPORT)
        assert not with_sizer & PER_OBJECT_ON_PURPOSE
        for sample in one_of_each():
            assert run_size([sample] * 3) == 3 * estimate_size(sample)


# --------------------------------------------------------------------- #
# the copy table: one exact-class lookup per defensive copy
# --------------------------------------------------------------------- #


def _matrix(shape, density, seed):
    rows, cols = shape
    return sparse.random(rows, cols, density=density, format="csc", random_state=seed)


_SHAPES = st.tuples(st.integers(0, 6), st.integers(0, 6))
_DENSITY = st.sampled_from([0.0, 0.3, 1.0])
_FLOATS = st.floats(width=32)  # a DoubleWritable takes any, FloatWritable rounds

#: Generated values of every registered class; the examples below add an
#: empty block of each kind and the NaNs.
_REGISTERED = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(IntWritable),
    st.integers(-(2**63), 2**63 - 1).map(LongWritable),
    st.integers(-(2**40), 2**40).map(VIntWritable),
    st.floats().map(FloatWritable),
    st.floats().map(DoubleWritable),
    st.booleans().map(BooleanWritable),
    _ANY_TEXT.map(Text),
    st.binary(max_size=64).map(BytesWritable),
    st.just(NullWritable()),
    st.tuples(st.integers(-5, 99), st.integers(-5, 99)).map(
        lambda cell: BlockIndexWritable(*cell)
    ),
    st.builds(_matrix, _SHAPES, _DENSITY, st.integers(0, 9)).map(MatrixBlockWritable),
    st.builds(_matrix, _SHAPES, _DENSITY, st.integers(0, 9)).map(CellMatrixBlockWritable),
    st.lists(_FLOATS, max_size=8).map(lambda values: VectorBlockWritable(np.array(values))),
)


def _arrays(obj):
    """Every ndarray reachable from ``obj``."""
    found, stack, seen = [], [obj], set()
    while stack:
        item = stack.pop()
        if isinstance(item, _ATOMS) or id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        stack.extend(_children(item))
    return found


class TestCopyTable:
    """``deep_copy_value``, ``clone()`` and the wire round trip agree for
    every registered class: the table's copy is an exact copy."""

    def test_every_registered_class_is_generated(self):
        assert set(TRANSPORT_COPIES) == set(_TRANSPORT)
        drawn = set()

        @given(_REGISTERED)
        @settings(max_examples=400, deadline=None)
        def collect(value):
            drawn.add(type(value))

        collect()
        assert drawn == set(_TRANSPORT)

    @given(_REGISTERED)
    @example(FloatWritable(float("nan")))
    @example(DoubleWritable(float("nan")))
    @example(MatrixBlockWritable())
    @example(VectorBlockWritable())
    @example(CellMatrixBlockWritable())
    @example(Text(""))
    @example(BytesWritable(b""))
    @settings(max_examples=300, deadline=None)
    def test_three_copies_agree(self, value):
        wire = writable_to_bytes(value)
        copies = (
            deep_copy_value(value),
            value.clone(),
            writable_from_bytes(type(value), wire),
        )
        originals = {id(array) for array in _arrays(value)}
        for copied in copies:
            assert type(copied) is type(value)
            assert writable_to_bytes(copied) == wire  # equal, NaN included
            if value == value:  # a NaN equals nothing, itself included
                assert copied == value
            # NullWritable is a singleton, as copy.deepcopy of it is
            assert (copied is value) == (type(value) is NullWritable)
            arrays = _arrays(copied)
            assert not originals & {id(array) for array in arrays}
            assert not any(
                np.shares_memory(mine, theirs)
                for mine in arrays
                for theirs in _arrays(value)
            )

    def test_only_the_blocks_build_a_crossing(self, monkeypatch):
        built = []

        class CountingCrossing(Crossing):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(serializer_module, "Crossing", CountingCrossing)
        monkeypatch.setattr(blocks, "Crossing", CountingCrossing)
        for sample in one_of_each():
            deep_copy_value(sample)
            sample.clone()
        assert built == []
        for sample in one_of_each_block():
            deep_copy_value(sample)
            sample.clone()
        assert len(built) == 2 * len(one_of_each_block())

    def test_reuse_of_a_table_class_is_what_the_probes_decide(self):
        """``_reuse_into`` decides a table class by its class; the answer
        is the one probing the objects would give: refill the reused
        object when it has ``set`` and ``get``, else hand on the new one."""
        for sample in one_of_each() + one_of_each_block():
            reused = deep_copy_value(sample)
            refills = callable(getattr(reused, "read_instance", None)) or (
                callable(getattr(reused, "set", None))
                and callable(getattr(sample, "get", None))
            )
            arrived = _reuse_into(reused, sample)
            assert (arrived is sample) == (not refills), type(sample)
            assert writable_to_bytes(arrived) == writable_to_bytes(sample)

    def test_a_subclass_takes_the_round_trip(self):
        for value in (ShoutedText("loud"), TaggedInt(4, tag="t")):
            assert type(value) not in TRANSPORT_COPIES
            for copied in (deep_copy_value(value), value.clone()):
                assert type(copied) is type(value) and copied is not value
                assert writable_to_bytes(copied) == writable_to_bytes(value)
        # the round trip writes what the class writes: TaggedInt's tag is
        # not on its wire, so its clone comes back with the default
        assert TaggedInt(4, tag="t").clone().tag == [""]
