"""The cache and its filesystem interposition (paper Sections 3.2.1, 4.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.writables import IntWritable, Text
from repro.core.cache import KeyValueCache, split_cache_name
from repro.core.cachefs import CacheOnlyFileSystem, M3RFileSystem
from repro.fs import InMemoryFileSystem
from repro.kvstore.store import BlockInfo, PathExistsError
from repro.memory import MemoryGovernor, SpillManager, WatermarkLedger
from repro.sim.cost_model import paper_cluster_cost_model
from repro.x10.places import Place


@pytest.fixture
def cache():
    return KeyValueCache([Place(i) for i in range(4)])


@pytest.fixture
def m3rfs(cache):
    return M3RFileSystem(InMemoryFileSystem(), cache)


PAIRS = [(IntWritable(1), Text("a")), (IntWritable(2), Text("b"))]


def _file_names(cache):
    """The cache's index names and the store's file paths, both sorted."""
    store = cache.store
    return (
        sorted(entry.name for entry in cache.entries()),
        [p for p in store.list_paths() if not store.get_info(p).is_dir],
    )


class TestKeyValueCache:
    def test_put_get_file(self, cache):
        entry = cache.put_file("/out/part-0", 2, PAIRS, nbytes=100)
        assert cache.get_file("/out/part-0") is entry
        assert entry.place_id == 2
        assert entry.records == 2

    def test_put_replaces(self, cache):
        cache.put_file("/f", 0, PAIRS, 100)
        cache.put_file("/f", 1, PAIRS[:1], 50)
        entry = cache.get_file("/f")
        assert entry.place_id == 1 and entry.records == 1
        assert len(cache) == 1

    def test_split_exact_match(self, cache):
        cache.put_split("/data", 0, 64, 1, PAIRS, 64)
        assert cache.get_split("/data", 0, 64) is not None
        assert cache.get_split("/data", 64, 64) is None

    def test_whole_file_serves_covering_split(self, cache):
        cache.put_file("/data", 1, PAIRS, 128)
        assert cache.get_split("/data", 0, 128, file_length=128) is not None
        assert cache.get_split("/data", 0, 200, file_length=128) is not None
        assert cache.get_split("/data", 64, 64, file_length=128) is None

    def test_named_entries(self, cache):
        cache.put_named("my-generator", 3, PAIRS, 10)
        assert cache.get_named("my-generator").place_id == 3
        assert cache.get_named("/my-generator") is not None
        assert cache.get_named("other") is None

    def test_contains_path_covers_children_and_splits(self, cache):
        cache.put_file("/dir/part-0", 0, PAIRS, 10)
        cache.put_split("/other/file", 0, 5, 0, PAIRS, 5)
        assert cache.contains_path("/dir")
        assert cache.contains_path("/dir/part-0")
        assert cache.contains_path("/other/file")
        assert not cache.contains_path("/nope")

    def test_delete_path_removes_splits_and_children(self, cache):
        cache.put_file("/d/part-0", 0, PAIRS, 10)
        cache.put_split("/d/part-1", 0, 9, 1, PAIRS, 9)
        assert cache.delete_path("/d")
        assert len(cache) == 0
        assert not cache.delete_path("/d")

    def test_rename_path_rekeys(self, cache):
        cache.put_file("/old/part-0", 2, PAIRS, 10)
        cache.put_split("/old/part-1", 0, 7, 3, PAIRS, 7)
        cache.rename_path("/old", "/new")
        assert cache.get_file("/new/part-0") is not None
        assert cache.get_split("/new/part-1", 0, 7) is not None
        assert not cache.contains_path("/old")

    def test_rename_path_onto_a_cached_name_moves_nothing(self, cache):
        for path in ("/a/x", "/a/y", "/b/y"):
            cache.put_file(path, 0, PAIRS, 10)
        with pytest.raises(PathExistsError):
            cache.rename_path("/a", "/b")
        names = ["/a/x", "/a/y", "/b/y"]
        assert _file_names(cache) == (names, names)

    def test_rename_path_under_a_cached_file_moves_nothing(self):
        """``/a/x/q`` would land under the file ``/b/x``: the rename is
        refused before ``/a/p`` moves, and the governor's ledger, charged
        to a tenant that owns ``/b``, stays where it was."""
        governor = MemoryGovernor()
        governor.register_tenant("b", ["/b"])
        cache = KeyValueCache([Place(i) for i in range(4)], governor=governor)
        for place, path in enumerate(("/a/p", "/a/x/q", "/b/x")):
            cache.put_file(path, place, PAIRS, 10 * (place + 1))

        def state():
            return (
                _file_names(cache),
                sorted((e.name, e.path, e.place_id, e.nbytes) for e in cache.entries()),
                [cache.paths_under(p) for p in ("/", "/a", "/b", "/b/x")],
                [governor.budget.occupancy(place) for place in range(4)],
                governor.tenant_snapshot(),
            )

        before = state()
        with pytest.raises(PathExistsError):
            cache.rename_path("/a", "/b")
        assert state() == before
        assert before[0] == (["/a/p", "/a/x/q", "/b/x"],) * 2

    def test_rename_path_onto_a_resident_name_from_a_spilled_one(self):
        governor = MemoryGovernor(
            budget=WatermarkLedger(100, 0.9, 0.75),
            spill=SpillManager(InMemoryFileSystem(), paper_cluster_cost_model()),
            spill_enabled=True,
        )
        cache = KeyValueCache([Place(0)], governor=governor)
        cache.put_file("/a/y", 0, PAIRS, 60)
        cache.put_file("/b/y", 0, PAIRS, 60)  # over the watermark: /a/y spills
        assert cache.get_file("/a/y", materialize=False).spilled
        with pytest.raises(PathExistsError):
            cache.rename_path("/a", "/b")
        assert _file_names(cache) == (["/a/y", "/b/y"], ["/b/y"])
        assert cache.get_file("/a/y", materialize=False).spilled
        # The budget charges exactly the resident entries.
        assert governor.budget.occupancy(0) == cache.resident_bytes() == 60

    def test_accounting(self, cache):
        cache.put_file("/a", 0, PAIRS, 100)
        cache.put_file("/b", 1, PAIRS, 50)
        assert cache.total_bytes() == 150
        assert cache.bytes_at_place(0) == 100
        assert cache.bytes_at_place(1) == 50
        assert cache.bytes_at_place(2) == 0

    def test_clear(self, cache):
        cache.put_file("/a", 0, PAIRS, 1)
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes() == 0

    def test_paths_under(self, cache):
        cache.put_file("/d/x", 0, PAIRS, 1)
        cache.put_file("/d/sub/y", 0, PAIRS, 1)
        cache.put_file("/e/z", 0, PAIRS, 1)
        assert cache.paths_under("/d") == ["/d/sub/y", "/d/x"]

    def test_split_cache_name_distinct_from_paths(self):
        name = split_cache_name("/a/b", 10, 20)
        assert "#" in name and name.startswith("/a/b")


class TestM3RFileSystem:
    def test_union_visibility(self, m3rfs, cache):
        m3rfs.inner.write_text("/real.txt", "x")
        cache.put_file("/cached/part-0", 0, PAIRS, 42)
        assert m3rfs.exists("/real.txt")
        assert m3rfs.exists("/cached/part-0")
        assert m3rfs.exists("/cached")
        status = m3rfs.get_file_status("/cached/part-0")
        assert status.length == 42 and status.is_file
        assert m3rfs.get_file_status("/cached").is_dir

    def test_list_status_merges(self, m3rfs, cache):
        m3rfs.inner.write_pairs("/d/real", PAIRS)
        cache.put_file("/d/cached", 1, PAIRS, 10)
        names = [s.path for s in m3rfs.list_status("/d")]
        assert names == ["/d/cached", "/d/real"]

    def test_list_cache_only_directory(self, m3rfs, cache):
        cache.put_file("/only/part-0", 0, PAIRS, 10)
        assert [s.path for s in m3rfs.list_status("/only")] == ["/only/part-0"]

    def test_read_pairs_prefers_cache(self, m3rfs, cache):
        stale = [(IntWritable(9), Text("stale"))]
        m3rfs.inner.write_pairs("/f", stale)
        cache.put_file("/f", 0, PAIRS, 10)
        assert m3rfs.read_pairs("/f") == PAIRS

    def test_delete_hits_both(self, m3rfs, cache):
        m3rfs.inner.write_pairs("/f", PAIRS)
        cache.put_file("/f", 0, PAIRS, 10)
        assert m3rfs.delete("/f")
        assert not m3rfs.inner.exists("/f")
        assert not cache.contains_path("/f")

    def test_delete_root_empties_the_cache(self, m3rfs, cache):
        cache.put_file("/a/b", 0, PAIRS, 10)
        cache.put_split("/c", 0, 5, 1, PAIRS, 5)
        assert cache.contains_path("/") and m3rfs.exists("/a/b")
        assert m3rfs.delete("/", recursive=True)
        assert not m3rfs.exists("/a/b")
        assert m3rfs.get_cache_record_reader("/a/b") is None
        assert len(cache) == 0 and not cache.contains_path("/")

    def test_rename_hits_both(self, m3rfs, cache):
        m3rfs.inner.write_pairs("/a", PAIRS)
        cache.put_file("/a", 0, PAIRS, 10)
        assert m3rfs.rename("/a", "/b")
        assert m3rfs.inner.exists("/b")
        assert cache.get_file("/b") is not None
        assert not cache.contains_path("/a")

    def test_rename_cache_only_path(self, m3rfs, cache):
        cache.put_file("/only", 0, PAIRS, 10)
        assert m3rfs.rename("/only", "/moved")
        assert cache.get_file("/moved") is not None

    def test_rename_cache_only_path_onto_a_cached_name_moves_nothing(
        self, m3rfs, cache
    ):
        for path in ("/a/x", "/a/y", "/b/y"):
            cache.put_file(path, 0, PAIRS, 10)
        with pytest.raises(PathExistsError):
            m3rfs.rename("/a", "/b")
        names = ["/a/x", "/a/y", "/b/y"]
        assert _file_names(cache) == (names, names)
        assert [s.path for s in m3rfs.list_status("/a")] == ["/a/x", "/a/y"]

    def test_write_invalidates_cache(self, m3rfs, cache):
        cache.put_file("/f", 0, PAIRS, 10)
        m3rfs.write_pairs("/f", [(IntWritable(5), Text("new"))])
        assert cache.get_file("/f") is None
        assert m3rfs.read_pairs("/f")[0][1].to_string() == "new"

    def test_block_locations_for_cache_only(self, m3rfs, cache):
        cache.put_file("/only", 2, PAIRS, 10)
        assert m3rfs.get_block_locations("/only", 0, 1) == ["node02"]

    def test_get_cache_record_reader(self, m3rfs, cache):
        cache.put_file("/f", 0, PAIRS, 10)
        reader = m3rfs.get_cache_record_reader("/f")
        assert list(reader) == PAIRS
        assert m3rfs.get_cache_record_reader("/missing") is None


class TestCacheOnlyFileSystem:
    def test_operations_touch_only_cache(self, m3rfs, cache):
        m3rfs.inner.write_pairs("/f", PAIRS)
        cache.put_file("/f", 0, PAIRS, 10)
        raw = m3rfs.get_raw_cache()
        assert isinstance(raw, CacheOnlyFileSystem)
        assert raw.exists("/f")
        assert raw.delete("/f")
        assert not cache.contains_path("/f")
        assert m3rfs.inner.exists("/f")  # untouched on disk

    def test_rename_only_cache(self, m3rfs, cache):
        m3rfs.inner.write_pairs("/f", PAIRS)
        cache.put_file("/f", 0, PAIRS, 10)
        raw = m3rfs.get_raw_cache()
        assert raw.rename("/f", "/g")
        assert cache.get_file("/g") is not None
        assert m3rfs.inner.exists("/f") and not m3rfs.inner.exists("/g")

    def test_status_and_reads(self, m3rfs, cache):
        cache.put_file("/f", 1, PAIRS, 77)
        raw = m3rfs.get_raw_cache()
        assert raw.get_file_status("/f").length == 77
        assert raw.read_pairs("/f") == PAIRS
        with pytest.raises(FileNotFoundError):
            raw.read_pairs("/missing")

    def test_writes_rejected(self, m3rfs):
        raw = m3rfs.get_raw_cache()
        with pytest.raises(NotImplementedError):
            raw.write_pairs("/x", PAIRS)
        with pytest.raises(NotImplementedError):
            raw.write_bytes("/x", b"data")
        with pytest.raises(NotImplementedError):
            raw.mkdirs("/x")


# --------------------------------------------------------------------------- #
# the directory index agrees with a scan of every entry
# --------------------------------------------------------------------------- #

#: Files never nest under one another, so no put meets a file ancestor;
#: "/a" vs "/ab" and "/d/a" vs "/d/ab" share a string prefix, not a directory.
FILES = ("/a", "/ab", "/d/a", "/d/ab", "/d/e/f")
#: Named entries whose name extends a file's path by the range separator.
NAMES = ("/a#n", "/d/a#n")
QUERIES = ("/", "/a", "/ab", "/d", "/d/a", "/d/e", "/d/e/f", "/a#0+5", "/a#n")
RENAME_SOURCES = ("/a", "/ab", "/d", "/d/a", "/d/e")

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("file"), st.sampled_from(FILES), st.integers(0, 2)),
        st.tuples(st.just("split"), st.sampled_from(FILES), st.sampled_from([0, 5])),
        st.tuples(st.just("named"), st.sampled_from(NAMES), st.integers(0, 2)),
        st.tuples(st.just("delete"), st.sampled_from(QUERIES)),
        st.tuples(st.just("rename"), st.sampled_from(RENAME_SOURCES)),
    ),
    max_size=25,
)


class ScanModel:
    """The cache's namespace answered by scanning every entry, in
    admission order (renamed entries move to the end)."""

    def __init__(self):
        self.entries = {}  # name -> (path, place, nbytes)

    @staticmethod
    def _under(path, directory):
        return directory == "/" or path == directory or path.startswith(directory + "/")

    def put(self, name, path, place, nbytes):
        self.entries.pop(name, None)
        self.entries[name] = (path, place, nbytes)

    def delete(self, path):
        doomed = [
            name for name, (entry_path, _, _) in self.entries.items()
            if self._under(entry_path, path) or name.startswith(path + "#")
        ]
        for name in doomed:
            del self.entries[name]
        return bool(doomed)

    def rename(self, src, dst):
        for name, (path, place, nbytes) in list(self.entries.items()):
            if path == src or path.startswith(src + "/"):
                del self.entries[name]
                new_path = dst + path[len(src):]
                self.entries[new_path + name[len(path):]] = (new_path, place, nbytes)

    def contains(self, path):
        return path in self.entries or any(
            name.startswith(path + "#") or self._under(entry_path, path)
            for name, (entry_path, _, _) in self.entries.items()
        )

    def paths_under(self, directory):
        return sorted(
            path for name, (path, _, _) in self.entries.items()
            if name == path and self._under(path, directory)
        )

    def names_under(self, directory):
        return sorted(name for name in self.entries if self._under(name, directory))


class TestDirectoryIndex:
    @given(ops=OPS)
    @settings(max_examples=200, deadline=None)
    def test_index_agrees_with_a_scan(self, ops):
        cache = KeyValueCache([Place(i) for i in range(3)])
        model = ScanModel()
        renamed = 0
        for op in ops:
            kind, path = op[0], op[1]
            if kind == "file":
                cache.put_file(path, op[2], PAIRS, 10 + op[2])
                model.put(path, path, op[2], 10 + op[2])
            elif kind == "split":
                cache.put_split(path, op[2], 5, 1, PAIRS, 5)
                model.put(split_cache_name(path, op[2], 5), path, 1, 5)
            elif kind == "named":
                cache.put_named(path, op[2], PAIRS, 7)
                model.put(path, path, op[2], 7)
            elif kind == "delete":
                assert cache.delete_path(path) == model.delete(path)
            else:
                renamed += 1
                cache.rename_path(path, f"/r{renamed}")
                model.rename(path, f"/r{renamed}")
            self.check(cache, model)

    @staticmethod
    def check(cache, model):
        store = cache.store
        assert [entry.name for entry in cache.entries()] == list(model.entries)
        for query in QUERIES + ("/r1", "/nope"):
            assert cache.contains_path(query) == model.contains(query), query
            assert cache.paths_under(query) == model.paths_under(query), query
            files = [p for p in store.list_paths(query) if not store.get_info(p).is_dir]
            assert files == model.names_under(query), query
        for place in range(3):
            expected = sum(n for _, p, n in model.entries.values() if p == place)
            assert store.total_bytes_at_place(place) == expected
            assert store.scan_bytes_at_place(place) == expected
        for name in model.entries:  # a file has no children
            for nested in (name + "/x", name + "/x/y"):
                with pytest.raises(PathExistsError):
                    store.put_block(nested, BlockInfo(place_id=0), PAIRS, 1)

