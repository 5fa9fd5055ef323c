"""The distributed key/value store (paper Section 5.2): API, locking,
serializability under real concurrency."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.writables import IntWritable, Text
from repro.kvstore import (
    BlockInfo,
    KeyValueStore,
    LockTable,
    PathExistsError,
    PathMissingError,
    least_common_ancestor,
    path_components,
)
from repro.kvstore.paths import ancestors, is_ancestor_or_self
from repro.x10.places import Place


@pytest.fixture
def store():
    return KeyValueStore([Place(i) for i in range(4)])


class TestPathAlgebra:
    def test_components(self):
        assert path_components("/a/b/c") == ["a", "b", "c"]
        assert path_components("/") == []

    def test_ancestors(self):
        assert ancestors("/a/b/c") == ["/", "/a", "/a/b"]
        assert ancestors("/a") == ["/"]

    def test_lca(self):
        assert least_common_ancestor(["/a/b/c", "/a/b/d"]) == "/a/b"
        assert least_common_ancestor(["/a/b", "/c"]) == "/"
        assert least_common_ancestor(["/a/b"]) == "/a/b"
        assert least_common_ancestor(["/a/b", "/a/b/c"]) == "/a/b"
        with pytest.raises(ValueError):
            least_common_ancestor([])

    def test_is_ancestor_or_self(self):
        assert is_ancestor_or_self("/a", "/a/b")
        assert is_ancestor_or_self("/a/b", "/a/b")
        assert is_ancestor_or_self("/", "/anything")
        assert not is_ancestor_or_self("/a/b", "/a")
        assert not is_ancestor_or_self("/ab", "/a/b")


class TestLockTable:
    def test_mutual_exclusion(self):
        table = LockTable()
        counter = {"value": 0, "max": 0}

        def worker():
            for _ in range(200):
                with table.holding("/shared"):
                    counter["value"] += 1
                    counter["max"] = max(counter["max"], counter["value"])
                    counter["value"] -= 1

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["max"] == 1  # never two holders at once

    def test_table_drains_when_quiescent(self):
        table = LockTable()
        with table.holding("/a"):
            assert table.live_entries() == 1
        assert table.live_entries() == 0

    def test_release_unheld_raises(self):
        with pytest.raises(RuntimeError):
            LockTable().release("/never")

    def test_acquire_all_no_deadlock_opposite_orders(self):
        """Two tasks locking {a, b} in opposite argument orders must not
        deadlock — the LCA-ordered growing phase serializes them."""
        table = LockTable()
        done = []

        def task(paths):
            for _ in range(100):
                with table.acquire_all(paths):
                    pass
            done.append(True)

        t1 = threading.Thread(target=task, args=(["/x/a", "/x/b"],))
        t2 = threading.Thread(target=task, args=(["/x/b", "/x/a"],))
        t1.start(); t2.start()
        t1.join(timeout=30); t2.join(timeout=30)
        assert len(done) == 2
        assert table.live_entries() == 0

    def test_acquire_all_empty(self):
        with LockTable().acquire_all([]):
            pass


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
    def test_concurrent_disjoint_writers(self, store):
        errors = []

        def writer_task(tid):
            try:
                for i in range(50):
                    with store.create_writer(f"/w{tid}/f{i}", BlockInfo(tid % 4)) as w:
                        w.write(IntWritable(i), Text("x"))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer_task, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for tid in range(8):
            files = [
                p for p in store.list_paths(f"/w{tid}")
                if not store.get_info(p).is_dir
            ]
            assert len(files) == 50

    def test_concurrent_same_path_appends_all_survive(self, store):
        def appender(tid):
            for i in range(25):
                with store.create_writer("/hot", BlockInfo(tid % 4)) as w:
                    w.write(IntWritable(tid * 100 + i), Text("v"))

        threads = [threading.Thread(target=appender, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.get_info("/hot").total_records == 100

    def test_rename_vs_read_atomicity(self, store):
        """Readers see either the old path or the new one — never a torn
        state where the data is in neither."""
        with store.create_writer("/ping", BlockInfo(0)) as w:
            w.write(IntWritable(1), Text("payload"))
        stop = threading.Event()
        anomalies = []

        def flipper():
            current, other = "/ping", "/pong"
            for _ in range(200):
                store.rename(current, other)
                current, other = other, current
            stop.set()

        def reader():
            while not stop.is_set():
                spots = [store.exists("/ping"), store.exists("/pong")]
                if not any(spots):
                    # A second probe to filter the benign between-ops window:
                    # existence must be restored immediately.
                    if not (store.exists("/ping") or store.exists("/pong")):
                        anomalies.append(spots)

        t1 = threading.Thread(target=flipper)
        t2 = threading.Thread(target=reader)
        t1.start(); t2.start()
        t1.join(); t2.join()
        # rename holds both path locks, so the data is always reachable.
        assert not anomalies


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
