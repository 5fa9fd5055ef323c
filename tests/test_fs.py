"""Filesystems: namespace semantics, HDFS placement, instrumentation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.writables import IntWritable, Text
from repro.fs import (
    BlockLocation,
    FsTally,
    InMemoryFileSystem,
    InstrumentedFileSystem,
    SimulatedHDFS,
    normalize_path,
    parent_path,
)
from repro.fs.filesystem import _normalize_parts
from repro.sim import Cluster


class TestPaths:
    @pytest.mark.parametrize("raw,expected", [
        ("/a/b", "/a/b"),
        ("a/b", "/a/b"),
        ("/a//b/", "/a/b"),
        ("/a/./b", "/a/b"),
        ("/a/b/../c", "/a/c"),
        ("/", "/"),
    ])
    def test_normalize(self, raw, expected):
        assert normalize_path(raw) == expected

    def test_escape_rejected(self):
        with pytest.raises(ValueError):
            normalize_path("/../x")
        with pytest.raises(ValueError):
            normalize_path("")

    @given(st.text(alphabet="/.ab", max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_an_already_normal_path_comes_back_unsplit(self, raw):
        """The fast path returns what the part-by-part walk returns and
        raises where it raises; a normal path comes back as it is."""
        try:
            expected = _normalize_parts(raw)
        except ValueError:
            with pytest.raises(ValueError):
                normalize_path(raw)
            return
        assert normalize_path(raw) == expected
        if "/." not in expected:  # a dot-led name takes the walk too
            assert normalize_path(expected) is expected  # not rebuilt

    @pytest.mark.parametrize("raw", ["", "..", "/..", "/a/../..", "a/./../../b"])
    def test_empty_or_escaping_paths_still_raise(self, raw):
        with pytest.raises(ValueError):
            normalize_path(raw)

    def test_parent(self):
        assert parent_path("/a/b") == "/a"
        assert parent_path("/a") == "/"
        assert parent_path("/") is None


class TestNamespace:
    def test_write_read_text(self, memfs):
        memfs.write_text("/a/b.txt", "hello")
        assert memfs.read_text("/a/b.txt") == "hello"
        assert memfs.exists("/a/b.txt")
        assert memfs.is_directory("/a")

    def test_write_creates_parents(self, memfs):
        memfs.write_text("/x/y/z.txt", "v")
        assert memfs.is_directory("/x")
        assert memfs.is_directory("/x/y")

    def test_mkdirs(self, memfs):
        assert memfs.mkdirs("/a/b/c")
        assert not memfs.mkdirs("/a/b/c")  # already there
        assert memfs.is_directory("/a/b")

    def test_mkdirs_over_file_raises(self, memfs):
        memfs.write_text("/f", "x")
        with pytest.raises(NotADirectoryError):
            memfs.mkdirs("/f")
        with pytest.raises(NotADirectoryError):
            memfs.write_text("/f/child", "y")

    def test_file_status(self, memfs):
        memfs.write_text("/f", "abc")
        status = memfs.get_file_status("/f")
        assert status.length == 3 and status.is_file
        assert memfs.get_file_status("/missing") is None

    def test_list_status_direct_children_only(self, memfs):
        memfs.write_text("/d/a", "1")
        memfs.write_text("/d/sub/b", "2")
        children = memfs.list_status("/d")
        assert [s.path for s in children] == ["/d/a", "/d/sub"]

    def test_list_status_missing_raises(self, memfs):
        with pytest.raises(FileNotFoundError):
            memfs.list_status("/missing")

    def test_list_files_recursive(self, memfs):
        memfs.write_text("/d/a", "1")
        memfs.write_text("/d/sub/b", "2")
        assert [s.path for s in memfs.list_files_recursive("/d")] == [
            "/d/a", "/d/sub/b",
        ]

    def test_delete_file(self, memfs):
        memfs.write_text("/f", "x")
        assert memfs.delete("/f")
        assert not memfs.exists("/f")
        assert not memfs.delete("/f")

    def test_delete_nonempty_dir_needs_recursive(self, memfs):
        memfs.write_text("/d/f", "x")
        with pytest.raises(IsADirectoryError):
            memfs.delete("/d")
        assert memfs.delete("/d", recursive=True)
        assert not memfs.exists("/d/f")

    def test_rename_file(self, memfs):
        memfs.write_text("/a", "v")
        assert memfs.rename("/a", "/b/c")
        assert memfs.read_text("/b/c") == "v"
        assert not memfs.exists("/a")

    def test_rename_tree(self, memfs):
        memfs.write_text("/src/one", "1")
        memfs.write_text("/src/deep/two", "2")
        memfs.rename("/src", "/dst")
        assert memfs.read_text("/dst/one") == "1"
        assert memfs.read_text("/dst/deep/two") == "2"
        assert not memfs.exists("/src")

    def test_rename_to_existing_raises(self, memfs):
        memfs.write_text("/a", "1")
        memfs.write_text("/b", "2")
        with pytest.raises(FileExistsError):
            memfs.rename("/a", "/b")

    def test_rename_missing_returns_false(self, memfs):
        assert memfs.rename("/nope", "/dst") is False

    def test_rename_beneath_itself_raises_and_moves_nothing(self, memfs):
        memfs.write_text("/a/f", "1")
        with pytest.raises(ValueError):
            memfs.rename("/a", "/a/b")
        assert memfs.read_text("/a/f") == "1"
        assert [s.path for s in memfs.list_status("/a")] == ["/a/f"]

    def test_a_subtree_leaves_and_moves_file_by_file(self):
        """The child index visits a directory by children, yet a directory
        rename or delete fires the hooks once per file beneath it, at any
        depth, with each file removed before its new name is written."""
        calls = []

        class Recording(InMemoryFileSystem):
            def _on_file_written(self, path, length, at_node):
                calls.append(("written", path))

            def _on_file_removed(self, path):
                calls.append(("removed", path))

        fs = Recording()
        for path in ("/d/z", "/d/sub/b", "/elsewhere", "/d/a", "/d/sub/a"):
            fs.write_text(path, "x")
        fs.rename("/elsewhere", "/d/sub/moved")
        moved = ["/d/z", "/d/sub/b", "/d/a", "/d/sub/a", "/d/sub/moved"]
        del calls[:]
        fs.rename("/d", "/e")
        assert sorted(calls) == sorted(
            call for path in moved
            for call in (("removed", path), ("written", "/e" + path[2:]))
        )
        assert all(
            calls.index(("removed", path)) < calls.index(("written", "/e" + path[2:]))
            for path in moved
        )
        assert [s.path for s in fs.list_files_recursive("/e")] == sorted(
            "/e" + path[2:] for path in moved
        )
        del calls[:]
        fs.delete("/e", recursive=True)
        assert sorted(calls) == sorted(("removed", "/e" + path[2:]) for path in moved)
        assert fs.list_status("/") == []

    def test_pairs_roundtrip(self, memfs):
        pairs = [(IntWritable(i), Text(f"v{i}")) for i in range(3)]
        memfs.write_pairs("/p", pairs)
        assert memfs.read_pairs("/p") == pairs
        status = memfs.get_file_status("/p")
        assert status.length > 0

    def test_pairs_from_an_iterator_are_stored_and_measured_once(self, memfs):
        pairs = [(IntWritable(i), Text(f"v{i}")) for i in range(3)]
        memfs.write_pairs("/listed", pairs)
        memfs.write_pairs("/streamed", (pair for pair in pairs))
        assert memfs.read_pairs("/streamed") == pairs
        assert (
            memfs.get_file_status("/streamed").length
            == memfs.get_file_status("/listed").length
            == 3 * (8 + 7)  # IntWritable 4 + 4, Text "vN" 4 + 1 + 2
        )

    def test_type_confusion_raises(self, memfs):
        memfs.write_text("/t", "text")
        with pytest.raises(TypeError):
            memfs.read_pairs("/t")
        memfs.write_pairs("/p", [(IntWritable(1), Text("v"))])
        with pytest.raises(TypeError):
            memfs.read_bytes("/p")

    def test_read_kv_pairs_over_directory_skips_hidden(self, memfs):
        memfs.write_pairs("/d/part-00000", [(IntWritable(0), Text("a"))])
        memfs.write_pairs("/d/part-00001", [(IntWritable(1), Text("b"))])
        memfs.write_pairs("/d/_SUCCESS", [])
        pairs = memfs.read_kv_pairs("/d")
        assert len(pairs) == 2


class TestSimulatedHDFS:
    def test_block_placement_deterministic(self):
        fs1 = SimulatedHDFS(Cluster(5), block_size=10, replication=2)
        fs2 = SimulatedHDFS(Cluster(5), block_size=10, replication=2)
        fs1.write_text("/f", "x" * 35)
        fs2.write_text("/f", "x" * 35)
        assert fs1.file_blocks("/f") == fs2.file_blocks("/f")

    def test_block_count_and_sizes(self, hdfs):
        hdfs.write_text("/f", "x" * (64 * 1024 * 2 + 10))
        blocks = hdfs.file_blocks("/f")
        assert len(blocks) == 3
        assert blocks[0].length == 64 * 1024
        assert blocks[-1].length == 10

    def test_replication_capped_by_cluster(self):
        fs = SimulatedHDFS(Cluster(2), replication=5)
        assert fs.replication == 2

    def test_writer_node_gets_first_replica(self, hdfs):
        hdfs.write_text("/f", "data", at_node=2)
        assert hdfs.file_blocks("/f")[0].hosts[0] == "node02"
        assert hdfs.primary_node_of("/f") == 2

    def test_get_block_locations(self, hdfs):
        hdfs.write_text("/f", "x" * (64 * 1024 + 5), at_node=1)
        first = hdfs.get_block_locations("/f", 0, 10)
        second = hdfs.get_block_locations("/f", 64 * 1024 + 1, 2)
        assert first[0] == "node01"
        assert len(first) == hdfs.replication
        assert second  # metadata for the second block exists

    def test_locations_of_missing_file(self, hdfs):
        assert hdfs.get_block_locations("/missing", 0, 1) == []

    def test_delete_drops_blocks(self, hdfs):
        hdfs.write_text("/f", "x")
        hdfs.delete("/f")
        assert hdfs.file_blocks("/f") == []

    def test_rename_keeps_data(self, hdfs):
        hdfs.write_text("/f", "payload")
        hdfs.rename("/f", "/g")
        assert hdfs.read_text("/g") == "payload"
        assert hdfs.file_blocks("/g")

    def test_replicated_bytes(self, hdfs):
        hdfs.write_text("/f", "x" * 100)
        assert hdfs.replicated_bytes("/f") == 100 * hdfs.replication

    def test_namenode_ops_counted(self, hdfs):
        before = hdfs.namenode_ops
        hdfs.write_text("/f", "x")
        hdfs.get_block_locations("/f", 0, 1)
        hdfs.delete("/f")
        assert hdfs.namenode_ops >= before + 3

    def test_empty_file_still_has_block_metadata(self, hdfs):
        hdfs.write_text("/empty", "")
        assert len(hdfs.file_blocks("/empty")) == 1


class TestInstrumentedFS:
    def test_tallies_reads_writes(self, hdfs):
        tally = FsTally()
        view = InstrumentedFileSystem(hdfs, tally)
        view.write_text("/f", "abcd")
        view.read_text("/f")
        assert tally.bytes_written == 4
        assert tally.bytes_read == 4
        assert tally.write_ops == 1
        assert tally.read_ops == 1

    def test_tallies_metadata_ops(self, hdfs):
        tally = FsTally()
        view = InstrumentedFileSystem(hdfs, tally)
        view.exists("/x")
        view.mkdirs("/d")
        view.get_file_status("/d")
        assert tally.metadata_ops == 3

    def test_pair_files_tally_wire_size(self, hdfs):
        tally = FsTally()
        view = InstrumentedFileSystem(hdfs, tally)
        view.write_pairs("/p", [(IntWritable(1), Text("abc"))])
        written = tally.bytes_written
        assert written == hdfs.get_file_status("/p").length
        view.read_pairs("/p")
        assert tally.bytes_read == written

    def test_at_node_defaulting(self, hdfs):
        view = InstrumentedFileSystem(hdfs, FsTally(), at_node=3)
        view.write_text("/f", "x")
        assert hdfs.primary_node_of("/f") == 3
        view.write_text("/g", "y", at_node=1)
        assert hdfs.primary_node_of("/g") == 1

    def test_shares_underlying_storage(self, hdfs):
        a = InstrumentedFileSystem(hdfs, FsTally())
        b = InstrumentedFileSystem(hdfs, FsTally())
        a.write_text("/shared", "v")
        assert b.read_text("/shared") == "v"

    def test_reset(self):
        tally = FsTally(bytes_read=5, read_ops=1)
        tally.reset()
        assert tally.bytes_read == 0 and tally.read_ops == 0


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["write", "delete", "rename", "mkdirs"]),
            st.sampled_from(["/a", "/b", "/a/x", "/b/y", "/c/z"]),
            st.sampled_from(["/a", "/b", "/d", "/c/w"]),
        ),
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_fs_model_property(ops):
    """The filesystem agrees with a naive dict model for flat operations."""
    fs = InMemoryFileSystem()
    model = {}
    for op, p1, p2 in ops:
        if op == "write":
            try:
                fs.write_text(p1, "v" + p1)
            except (IsADirectoryError, NotADirectoryError):
                continue  # path collides with a directory / file ancestor
            model[p1] = "v" + p1
        elif op == "delete":
            try:
                fs.delete(p1, recursive=True)
            except IsADirectoryError:
                pass
            model = {k: v for k, v in model.items()
                     if not (k == p1 or k.startswith(p1 + "/"))}
        elif op == "rename":
            src_files = {k for k in model if k == p1 or k.startswith(p1 + "/")}
            try:
                renamed = fs.rename(p1, p2)
            except (FileExistsError, NotADirectoryError):
                continue
            if renamed and src_files:
                for k in src_files:
                    model[p2 + k[len(p1):]] = model.pop(k)
        elif op == "mkdirs":
            try:
                fs.mkdirs(p1)
            except NotADirectoryError:
                pass
    for path, content in model.items():
        assert fs.read_text(path) == content
