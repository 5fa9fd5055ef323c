"""The distributed key/value store (paper Section 5.2): API, locking, and
serializability over every interleaving of small transactions."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.writables import IntWritable, Text
from repro.kvstore import (
    BlockInfo,
    KeyValueStore,
    LockOrderViolation,
    LockTable,
    PathExistsError,
    PathMissingError,
    least_common_ancestor,
    path_components,
)
from repro.kvstore.locks import LockConflict, creation_locks, growing_phase
from repro.kvstore.paths import ancestors
from repro.x10.places import Place


@pytest.fixture
def store():
    return KeyValueStore([Place(i) for i in range(4)])


# --------------------------------------------------------------------- #
# Interleaving enumeration
#
# A transaction is a generator function of a shared model state (a dict
# of path -> tuple of blocks).  It yields a path to acquire it, or None to
# let another transaction run between two of its effects; it acquires
# what the store operation it models acquires.  The scheduler owns one
# LockTable and, at every yield, may step any transaction: a step
# acquires the yielded path (the table refuses a held one, and that
# branch is not taken) and runs the transaction up to its next yield.
# Generators cannot be copied, so each schedule prefix is replayed on a
# fresh state and table.
# --------------------------------------------------------------------- #

_DONE = object()

#: A directory in the model state.
DIR = "dir"


class _World:
    """One replay: the table, the model state and each transaction."""

    def __init__(self, programs, state):
        self.table = LockTable()
        self.state = dict(state)
        self.txns = [self.table.begin() for _ in programs]
        self.gens = [program(self.state) for program in programs]
        self.pending = [next(gen) for gen in self.gens]

    def live(self):
        return [i for i, path in enumerate(self.pending) if path is not _DONE]

    def step(self, i):
        path = self.pending[i]
        if path is not None:
            self.txns[i].acquire(path)  # LockConflict: refused, nothing changed
            assert not any(
                path in txn.held for j, txn in enumerate(self.txns)
                if j != i and txn.held
            ), f"{path} held by two transactions"
        self.pending[i] = next(self.gens[i], _DONE)
        if self.pending[i] is _DONE:
            self.txns[i].close()

    def final(self):
        assert self.table.live_entries() == 0
        return tuple(sorted(self.state.items()))


def _replay(programs, state, schedule):
    world = _World(programs, state)
    for i in schedule:
        world.step(i)
    return world


def interleavings(programs, state=()):
    """The final state of every interleaving of ``programs``, one per
    schedule; a state where no live transaction can step is a deadlock."""
    finals = []
    worlds = [((), _World(programs, state))]
    while worlds:
        schedule, world = worlds.pop()
        live = world.live()
        if not live:
            finals.append(world.final())
            continue
        children = []
        for i in live:
            try:
                children.append(
                    (schedule + (i,), _replay(programs, state, schedule + (i,)))
                )
            except LockConflict:
                pass
        assert children, f"deadlock after schedule {schedule}"
        worlds.extend(children)
    return finals


def serial_finals(programs, state=()):
    """The final states of running ``programs`` one after another, in
    every order."""
    finals = set()
    for order in itertools.permutations(range(len(programs))):
        world = _World(programs, state)
        for i in order:
            while world.pending[i] is not _DONE:
                world.step(i)
        finals.add(world.final())
    return finals


def assert_serializable(programs, state=()):
    finals = interleavings(programs, state)
    serial = serial_finals(programs, state)
    for final in finals:
        assert final in serial, final
    return finals


def _mkdirs_parent(state, path):
    for directory in ancestors(path):
        state.setdefault(directory, DIR)


def put(path, block):
    """``_commit_block``: the file's :func:`creation_locks`; makes its
    parent directories and appends one block."""
    def program(state):
        for lock in creation_locks(path):
            yield lock
        blocks = state.get(path, ())
        yield None
        _mkdirs_parent(state, path)
        state[path] = blocks + (block,)
    return program


def read(path):
    """``create_reader`` / ``get_info``: the path read; records what it saw."""
    def program(state):
        yield path
        state["seen " + path] = state.get(path)
    return program


def rename(src, dst):
    """``rename``: ``acquire_all([src, *creation_locks(dst)])``; moves
    nothing when ``dst`` exists or ``src`` does not."""
    def program(state):
        for path in growing_phase([src, *creation_locks(dst)]):
            yield path
        if dst in state or src not in state:
            return
        moved = state.pop(src)
        yield None
        _mkdirs_parent(state, dst)
        state[dst] = moved
    return program


def delete_tree(directory):
    """``delete`` of a directory: the directory, then the children one
    scan found, sorted; removes the directory, then each child."""
    def program(state):
        yield directory
        children = sorted(p for p in state if p.startswith(directory + "/"))
        for child in children:
            yield child
        state.pop(directory, None)
        for child in children:
            state.pop(child, None)
            yield None
    return program


def counter(path):
    """A read-modify-write of one path, split by a step."""
    def program(state):
        yield path
        value = state.get(path, 0)
        yield None
        state[path] = value + 1
    return program


class TestPathAlgebra:
    def test_components(self):
        assert path_components("/a/b/c") == ["a", "b", "c"]
        assert path_components("/") == []

    def test_lca(self):
        assert least_common_ancestor(["/a/b/c", "/a/b/d"]) == "/a/b"
        assert least_common_ancestor(["/a/b", "/c"]) == "/"
        assert least_common_ancestor(["/a/b"]) == "/a/b"
        assert least_common_ancestor(["/a/b", "/a/b/c"]) == "/a/b"
        with pytest.raises(ValueError):
            least_common_ancestor([])


class TestLockTable:
    def test_mutual_exclusion(self):
        table = LockTable()
        first = table.holding("/shared")
        with pytest.raises(LockConflict):
            table.holding("/shared")
        first.close()
        table.holding("/shared").close()
        # Three read-modify-writes: each runs whole once it holds the
        # path, so the 3! orders are the only interleavings.
        finals = assert_serializable([counter("/shared")] * 3)
        assert finals == [(("/shared", 3),)] * 6

    def test_table_drains_when_quiescent(self):
        table = LockTable()
        with table.holding("/a"):
            assert table.live_entries() == 1
        assert table.live_entries() == 0

    def test_release_unheld_raises(self):
        txn = LockTable().holding("/a")
        txn.close()
        with pytest.raises(RuntimeError):
            txn.close()
        with pytest.raises(RuntimeError):  # no growing after shrinking
            txn.acquire("/b")

    def test_acquire_all_no_deadlock_opposite_orders(self):
        """Two tasks locking {a, b} in opposite argument orders, beside a
        writer of b, finish in every interleaving — the LCA-ordered
        growing phase serializes them."""
        def swap(first, second):
            def program(state):
                for path in growing_phase([first, second]):
                    yield path
                a, b = state.get("/x/a", ()), state.get("/x/b", ())
                yield None
                state["/x/a"], state["/x/b"] = b, a
            return program

        finals = assert_serializable(
            [swap("/x/a", "/x/b"), swap("/x/b", "/x/a"), put("/x/b", "w")],
            {"/x/a": ("a",)},
        )
        # Each takes /x first — the swaps as the LCA, the put as the
        # directory of /x/b — so the 3! serial orders are the only ones.
        assert len(finals) == 6

    def test_acquire_all_empty(self):
        with LockTable().acquire_all([]):
            pass

    def test_two_lock_inversion_trips(self):
        table = LockTable()
        txn = table.holding("/data/b")
        with pytest.raises(LockOrderViolation) as excinfo:
            txn.acquire("/data/a")
        assert "'/data/a'" in str(excinfo.value)
        assert "'/data/b'" in str(excinfo.value)
        assert txn.held == ["/data/b"]  # the refused path was not taken
        txn.close()
        assert table.live_entries() == 0

    def test_consistent_order_never_trips(self):
        table = LockTable()
        for _ in range(3):
            with table.begin() as txn:
                for path in ("/a", "/b", "/c"):
                    txn.acquire(path)
        assert table.live_entries() == 0

    def test_acquire_all_lca_ordering_is_clean(self):
        table = LockTable()
        with table.acquire_all(["/dir/y", "/dir/x"]) as txn:
            assert txn.held == ["/dir", "/dir/x", "/dir/y"]
        with table.acquire_all(["/dir/y", "/dir/x", "/dir"]) as txn:
            assert txn.held == ["/dir", "/dir/x", "/dir/y"]
        assert table.live_entries() == 0

    def test_inverted_transaction_fails_before_it_can_wait(self):
        """b-then-a beside a-then-b could deadlock; the inverted
        acquisition raises instead, whatever the interleaving."""
        def ordered(*paths):
            def program(state):
                for path in paths:
                    yield path
            return program

        with pytest.raises(LockOrderViolation, match="'/a'.*'/b'"):
            interleavings([ordered("/a", "/b"), ordered("/b", "/a")])


class TestStoreApi:
    def test_writer_creates_block_at_place(self, store):
        with store.create_writer("/f", BlockInfo(place_id=2)) as writer:
            writer.write(IntWritable(1), Text("a"))
        info = store.get_info("/f")
        assert info is not None and not info.is_dir
        assert info.blocks[0].info.place_id == 2
        assert info.total_records == 1
        assert info.total_bytes > 0

    def test_multiple_blocks_accumulate(self, store):
        for place in (0, 1):
            with store.create_writer("/f", BlockInfo(place_id=place)) as writer:
                writer.write(IntWritable(place), Text("v"))
        info = store.get_info("/f")
        assert len(info.blocks) == 2
        assert store.create_reader("/f").read_all() == [
            (IntWritable(0), Text("v")), (IntWritable(1), Text("v")),
        ]

    def test_reader_filters_by_block_info(self, store):
        with store.create_writer("/f", BlockInfo(place_id=0, tag="a")) as w:
            w.write(IntWritable(0), Text("zero"))
        with store.create_writer("/f", BlockInfo(place_id=1, tag="b")) as w:
            w.write(IntWritable(1), Text("one"))
        only_b = store.create_reader("/f", BlockInfo(place_id=1, tag="b")).read_all()
        assert only_b == [(IntWritable(1), Text("one"))]

    def test_reader_missing_raises(self, store):
        with pytest.raises(PathMissingError):
            store.create_reader("/missing")

    def test_write_after_close_raises(self, store):
        writer = store.create_writer("/f", BlockInfo(place_id=0))
        writer.close()
        with pytest.raises(Exception):
            writer.write(IntWritable(1), Text("x"))

    def test_abandoned_writer_commits_nothing(self, store):
        try:
            with store.create_writer("/f", BlockInfo(place_id=0)) as writer:
                writer.write(IntWritable(1), Text("x"))
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert store.get_info("/f") is None

    def test_mkdirs_and_dir_info(self, store):
        store.mkdirs("/a/b/c")
        info = store.get_info("/a/b")
        assert info is not None and info.is_dir

    def test_write_over_dir_raises(self, store):
        store.mkdirs("/d")
        with pytest.raises(PathExistsError):
            with store.create_writer("/d", BlockInfo(place_id=0)) as writer:
                writer.write(IntWritable(1), Text("x"))

    def test_delete_file_and_blocks(self, store):
        with store.create_writer("/f", BlockInfo(place_id=3)) as writer:
            writer.write(IntWritable(1), Text("x"))
        assert store.total_bytes_at_place(3) > 0
        assert store.delete("/f")
        assert store.get_info("/f") is None
        assert store.total_bytes_at_place(3) == 0

    def test_delete_tree(self, store):
        for name in ("/t/a", "/t/sub/b"):
            with store.create_writer(name, BlockInfo(place_id=0)) as writer:
                writer.write(IntWritable(0), Text("v"))
        assert store.delete("/t")
        assert store.list_paths("/t") == []

    def test_delete_missing_false(self, store):
        assert store.delete("/missing") is False

    def test_rename_file(self, store):
        with store.create_writer("/old", BlockInfo(place_id=1)) as writer:
            writer.write(IntWritable(1), Text("x"))
        store.rename("/old", "/new/name")
        assert store.get_info("/old") is None
        assert store.create_reader("/new/name").read_all() == [
            (IntWritable(1), Text("x"))
        ]

    def test_rename_tree(self, store):
        with store.create_writer("/dir/leaf", BlockInfo(place_id=0)) as writer:
            writer.write(IntWritable(7), Text("deep"))
        store.mkdirs("/dir")
        store.rename("/dir", "/moved")
        assert store.create_reader("/moved/leaf").read_all() == [
            (IntWritable(7), Text("deep"))
        ]

    def test_rename_missing_raises(self, store):
        with pytest.raises(PathMissingError):
            store.rename("/none", "/dst")

    def test_rename_onto_existing_raises(self, store):
        for name in ("/a", "/b"):
            with store.create_writer(name, BlockInfo(place_id=0)) as writer:
                writer.write(IntWritable(0), Text("v"))
        with pytest.raises(PathExistsError):
            store.rename("/a", "/b")

    def test_rename_to_self_is_noop(self, store):
        with store.create_writer("/a", BlockInfo(place_id=0)) as writer:
            writer.write(IntWritable(0), Text("v"))
        store.rename("/a", "/a")
        assert store.exists("/a")

    def test_metadata_distribution_is_stable(self, store):
        assert store.metadata_place("/some/path") == store.metadata_place("/some/path")
        places = {store.metadata_place(f"/p{i}") for i in range(64)}
        assert len(places) > 1  # hashing actually spreads metadata

    def test_metadata_place_values_are_pinned(self):
        """The static partitioning itself: where each path's metadata lives
        must not move when the hashing is reorganised."""
        store = KeyValueStore([Place(i) for i in range(7)])
        paths = ["/", "/a", "a/b/", "/G/part-00003#0+1234",
                 "/scratch/iter0/part-00001", "/ünï/cödé"]
        assert [store.metadata_place(p) for p in paths] == [5, 3, 2, 0, 3, 3]

    def test_a_file_takes_no_children(self, store):
        store.put_block("/f", BlockInfo(place_id=0), [], nbytes=1)
        with pytest.raises(PathExistsError):
            store.mkdirs("/f")
        for nested in ("/f/x", "/f/x/y"):
            with pytest.raises(PathExistsError):
                store.put_block(nested, BlockInfo(place_id=0), [], nbytes=1)
            with pytest.raises(PathExistsError):
                store.mkdirs(nested)
        store.put_block("/g", BlockInfo(place_id=1), [], nbytes=2)
        with pytest.raises(PathExistsError):
            store.rename("/g", "/f/g")
        assert store.exists("/g") and store.list_paths() == ["/f", "/g"]
        assert store.total_bytes_at_place(1) == store.scan_bytes_at_place(1) == 2

    def test_put_block_aliases_not_copies(self, store):
        pairs = [(IntWritable(1), Text("shared"))]
        stored = store.put_block("/f", BlockInfo(place_id=0), pairs, nbytes=10)
        assert stored[0][1] is pairs[0][1]  # the cache keeps references

    def test_invalid_place_rejected(self, store):
        with pytest.raises(ValueError):
            store.create_writer("/f", BlockInfo(place_id=99))


class TestStoreConcurrency:
    def test_concurrent_disjoint_writers(self):
        finals = assert_serializable(
            [put(f"/w{t}/f", t) for t in range(3)]
        )
        assert len(finals) == 1680  # 9! / (3! 3! 3!): nothing ever waits
        assert set(finals) == {
            tuple(sorted([(f"/w{t}", DIR) for t in range(3)] + [(f"/w{t}/f", (t,)) for t in range(3)]))
        }

    def test_concurrent_same_path_appends_all_survive(self):
        finals = assert_serializable([put("/hot", t) for t in range(3)])
        assert len(finals) == 6
        assert {sorted(dict(final)["/hot"]) == [0, 1, 2] for final in finals} == {True}

    def test_rename_vs_read_atomicity(self):
        """A reader of the destination and a writer of the source around a
        rename: every interleaving ends as some serial order does, so the
        data is never lost or seen half moved."""
        assert_serializable(
            [rename("/ping", "/pong"), read("/pong"), put("/ping", "late")],
            {"/ping": ("payload",)},
        )

    def test_directory_delete_vs_writers_of_its_children(self):
        """A directory delete locks the directory, then the children one
        scan found; a writer of a child and a rename out of the directory
        serialize with it."""
        assert_serializable(
            [delete_tree("/d"), put("/d/a", "w"), rename("/d/b", "/e")],
            {"/d": DIR, "/d/a": ("a",), "/d/b": ("b",)},
        )

    @pytest.mark.parametrize(
        "create",
        [
            pytest.param(put("/d/c", "w"), id="put"),
            pytest.param(put("/d/e/c", "w"), id="put-making-a-directory"),
            pytest.param(rename("/x", "/d/c"), id="rename-into"),
        ],
    )
    def test_a_new_child_serializes_with_the_delete_of_its_directory(self, create):
        """Creating a path under ``/d`` adds an entry to ``/d``, so it locks
        ``/d``: no interleaving with the delete of ``/d`` ends with the new
        path and no ``/d``."""
        finals = assert_serializable(
            [delete_tree("/d"), create], {"/d": DIR, "/d/a": ("a",), "/x": ("x",)}
        )
        for final in map(dict, finals):
            if "/d/c" in final or "/d/e/c" in final:
                assert final.get("/d") == DIR, final


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "rename", "read"]),
            st.sampled_from(["/k/a", "/k/b", "/k/c", "/k/d"]),
            st.sampled_from(["/k/a", "/k/b", "/k/e", "/k/f"]),
            st.integers(0, 3),
        ),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_store_matches_dict_model(ops):
    """Sequential op streams agree with a plain dict model."""
    store = KeyValueStore([Place(i) for i in range(4)])
    model = {}
    for op, p1, p2, place in ops:
        if op == "put":
            store.delete(p1)
            with store.create_writer(p1, BlockInfo(place)) as w:
                w.write(IntWritable(place), Text(p1))
            model[p1] = [(IntWritable(place), Text(p1))]
        elif op == "delete":
            assert store.delete(p1) == (p1 in model)
            model.pop(p1, None)
        elif op == "rename":
            if p1 == p2:
                continue
            if p1 in model and p2 not in model:
                store.rename(p1, p2)
                model[p2] = model.pop(p1)
            else:
                with pytest.raises((PathMissingError, PathExistsError)):
                    store.rename(p1, p2)
        elif op == "read":
            if p1 in model:
                assert store.create_reader(p1).read_all() == model[p1]
            else:
                assert store.get_info(p1) is None
    for path, pairs in model.items():
        assert store.create_reader(path).read_all() == pairs
