"""The distributed in-memory key/value store itself.

Layout (paper Section 5.2): every place owns two hash tables — one for
metadata, one for data blocks.  A path's *metadata* lives at the place
selected by hashing the path (static partitioning); its *data blocks* live
wherever they were created ("the createWriter call will create a block at
the place where it is invoked"), with the location recorded in the block's
metadata.  The store is generic in block metadata; it only requires a
reasonable equality, which :class:`BlockInfo` provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fs.filesystem import normalize_path
from repro.kvstore.locks import LockTable, creation_locks
from repro.x10.places import Place
from repro.x10.serializer import pairs_size


class KVStoreError(RuntimeError):
    """Base class for store failures."""


class PathExistsError(KVStoreError):
    """Raised when creating over an existing path without permission."""


class PathMissingError(KVStoreError):
    """Raised when an operation references a path that does not exist."""


@dataclass(frozen=True)
class BlockInfo:
    """User-facing block metadata: where the block lives plus a free tag.

    The store is generic in metadata but requires a usable ``__eq__``
    (paper: "requires that it implement a reasonable equals method") —
    the frozen dataclass provides it.
    """

    place_id: int
    tag: str = ""


@dataclass
class BlockMeta:
    """A registered block: its info plus size accounting."""

    info: BlockInfo
    records: int
    nbytes: int


@dataclass
class PathInfo:
    """Metadata snapshot for one path (paper's ``getInfo``)."""

    path: str
    is_dir: bool
    blocks: List[BlockMeta] = field(default_factory=list)

    @property
    def total_records(self) -> int:
        return sum(b.records for b in self.blocks)

    @property
    def total_bytes(self) -> int:
        return sum(b.nbytes for b in self.blocks)


class _PathMeta:
    """The metadata record stored at a path's home place."""

    __slots__ = ("is_dir", "blocks")

    def __init__(self, is_dir: bool):
        self.is_dir = is_dir
        self.blocks: List[BlockMeta] = []


class Writer:
    """Buffers pairs for one block; ``close`` sizes the block once and
    registers it atomically."""

    def __init__(self, store: "KeyValueStore", path: str, info: BlockInfo):
        self._store = store
        self._path = path
        self._info = info
        self._pairs: List[Tuple[Any, Any]] = []
        self._closed = False

    def write(self, key: Any, value: Any) -> None:
        if self._closed:
            raise KVStoreError("write after close")
        self._pairs.append((key, value))

    def write_pairs(self, pairs: Sequence[Tuple[Any, Any]]) -> None:
        for key, value in pairs:
            self.write(key, value)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._store._commit_block(
                self._path, self._info, self._pairs, pairs_size(self._pairs)
            )

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, exc_type: object, *rest: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True  # abandon the buffer on error


class Reader:
    """Iterates the pairs of one block (or of all blocks of a path)."""

    def __init__(self, blocks: List[List[Tuple[Any, Any]]]):
        self._blocks = blocks

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        for block in self._blocks:
            yield from block

    def read_all(self) -> List[Tuple[Any, Any]]:
        out: List[Tuple[Any, Any]] = []
        for block in self._blocks:
            out.extend(block)
        return out


class KeyValueStore:
    """The store: metadata partitioned by path hash, blocks at their place.

    All public operations are serializable: each opens one transaction on
    :class:`~repro.kvstore.locks.LockTable` and takes the involved path
    locks under two-phase locking with LCA ordering, which the table
    checks on every acquire.  An operation that may create a path (a
    put, ``mkdirs``, a rename's destination) also locks the path's
    ancestors, the directories it may add an entry to.
    """

    def __init__(self, places: Sequence[Place]):
        if not places:
            raise ValueError("need at least one place")
        self._places = list(places)
        self._locks = LockTable()
        # Per-place tables, as in the paper ("each place has a handle to its
        # own concurrent hash tables, one for the metadata and one for the
        # data"); path-level atomicity comes from the lock table.
        self._meta: List[Dict[str, _PathMeta]] = [dict() for _ in places]
        self._data: List[Dict[Tuple[str, int], List[Tuple[Any, Any]]]] = [
            dict() for _ in places
        ]
        # Running per-place byte totals, maintained on commit/delete, so
        # memory-governance callers get O(1) occupancy instead of a full
        # metadata scan.  Rename keeps blocks at their place, so it never
        # touches these.
        self._place_bytes: List[int] = [0 for _ in places]

    # -- placement ---------------------------------------------------------- #

    @property
    def num_places(self) -> int:
        return len(self._places)

    def metadata_place(self, path: str) -> int:
        """The place holding ``path``'s metadata (static hash partitioning)."""
        return self._home(normalize_path(path))

    def _home(self, path: str) -> int:
        """:meth:`metadata_place` of a normalized path.  Each operation
        hashes each path it touches once and hands the place on."""
        digest = 0
        for ch in path:
            digest = (digest * 131 + ord(ch)) & 0x7FFFFFFF
        return digest % len(self._places)

    def _drop_blocks(self, path: str, meta: _PathMeta) -> None:
        """Free the blocks of a file whose metadata was just removed."""
        for block_id, block in enumerate(meta.blocks):
            place_id = block.info.place_id
            self._data[place_id].pop((path, block_id), None)
            self._place_bytes[place_id] -= block.nbytes

    # -- API (paper Figure 5) ------------------------------------------------- #

    def mkdirs(self, path: str) -> None:
        """Create a directory and its ancestors (idempotent for
        directories; a file on the way raises :class:`PathExistsError`)."""
        path = normalize_path(path)
        with self._locks.creating(path):
            self._mkdirs_unlocked(path)

    def _mkdirs_unlocked(self, path: str) -> None:
        """Walk up from the normalized ``path`` to the first existing
        directory — every ancestor of a path exists, and no path lies
        under a file — then create the missing ones top-down."""
        missing: List[Tuple[int, str]] = []
        probe = path
        while probe != "/":
            home = self._home(probe)
            meta = self._meta[home].get(probe)
            if meta is not None:
                if not meta.is_dir:
                    raise PathExistsError(f"{probe} is a file")
                break
            missing.append((home, probe))
            probe = probe.rpartition("/")[0] or "/"
        for home, directory in reversed(missing):
            self._meta[home][directory] = _PathMeta(is_dir=True)

    def create_writer(self, path: str, info: BlockInfo) -> Writer:
        """Create a writer that appends one block to ``path``.

        The block is created at ``info.place_id`` — the paper's "at the
        place where it is invoked" — when the writer is closed.
        """
        path = normalize_path(path)
        if not 0 <= info.place_id < len(self._places):
            raise ValueError(f"block place {info.place_id} out of range")
        return Writer(self, path, info)

    def _commit_block(
        self,
        path: str,
        info: BlockInfo,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
    ) -> None:
        table = self._meta[self._home(path)]
        with self._locks.creating(path):
            meta = table.get(path)
            if meta is None:
                self._mkdirs_unlocked_parent(path)
                meta = _PathMeta(is_dir=False)
                table[path] = meta
            elif meta.is_dir:
                raise PathExistsError(f"{path} is a directory")
            block_id = len(meta.blocks)
            meta.blocks.append(BlockMeta(info=info, records=len(pairs), nbytes=nbytes))
            self._data[info.place_id][(path, block_id)] = pairs
            self._place_bytes[info.place_id] += nbytes

    def _mkdirs_unlocked_parent(self, path: str) -> None:
        """Make the parent of the normalized ``path`` a directory."""
        parent = path.rpartition("/")[0]
        if parent:  # else the root, which always exists
            self._mkdirs_unlocked(parent)

    def put_block(
        self,
        path: str,
        info: BlockInfo,
        pairs: List[Tuple[Any, Any]],
        nbytes: Optional[int] = None,
    ) -> List[Tuple[Any, Any]]:
        """Append ``pairs`` as one block of ``path`` without copying.

        This is the in-memory cache's fast path: the list reference is
        stored as-is (``nbytes`` may be precomputed to skip size
        estimation).  Returns the stored list.
        """
        stored = list(pairs)
        if nbytes is None:
            nbytes = pairs_size(stored)
        self._commit_block(normalize_path(path), info, stored, nbytes)
        return stored

    def create_reader(
        self, path: str, info: Optional[BlockInfo] = None
    ) -> Reader:
        """Read the pairs of ``path`` — all blocks, or just those matching
        ``info`` (the paper's per-block reader)."""
        path = normalize_path(path)
        with self._locks.holding(path):
            meta = self._meta[self._home(path)].get(path)
            if meta is None or meta.is_dir:
                raise PathMissingError(path)
            return Reader([
                self._data[block.info.place_id][(path, block_id)]
                for block_id, block in enumerate(meta.blocks)
                if info is None or block.info == info
            ])

    def get_info(self, path: str) -> Optional[PathInfo]:
        """Metadata snapshot, or ``None`` when the path does not exist."""
        path = normalize_path(path)
        with self._locks.holding(path):
            meta = self._meta[self._home(path)].get(path)
            if meta is None:
                return None
            return PathInfo(path=path, is_dir=meta.is_dir, blocks=list(meta.blocks))

    def exists(self, path: str) -> bool:
        return self.get_info(path) is not None

    def delete(self, path: str) -> bool:
        """Remove a path (and, for directories, everything under it).

        A file has no children (no path is created under a file), so
        deleting one pops its own metadata and blocks.  For a directory,
        child locks are acquired while holding the directory's own lock —
        the directory is the LCA of its children, so the paper's ordering
        rule is satisfied.  A directory's children are found by one scan
        of every place's metadata table: O(paths in the store), paid by
        directory deletes only.  File deletes — every cache eviction,
        rehydration and replacement — never scan.
        """
        path = normalize_path(path)
        table = self._meta[self._home(path)]
        with self._locks.holding(path) as txn:
            meta = table.get(path)
            if meta is not None and not meta.is_dir:
                del table[path]
                self._drop_blocks(path, meta)
                return True
            children = self._children_of(path)
            for child, _ in children:
                txn.acquire(child)
            removed = table.pop(path, None) is not None
            for child, child_table in children:
                child_meta = child_table.pop(child)
                if not child_meta.is_dir:
                    self._drop_blocks(child, child_meta)
            return removed or bool(children)

    def _children_of(self, path: str) -> List[Tuple[str, Dict[str, _PathMeta]]]:
        """Every path strictly under the normalized ``path``, sorted, each
        with the metadata table that holds it."""
        prefix = "/" if path == "/" else path + "/"
        return sorted(
            (child, table)
            for table in self._meta
            for child in table
            if child.startswith(prefix)
        )

    def rename(self, src: str, dst: str) -> None:
        """Atomically move ``src`` (file or tree) to ``dst``."""
        src = normalize_path(src)
        dst = normalize_path(dst)
        if src == dst:
            return
        with self._locks.acquire_all([src, *creation_locks(dst)]):
            dst_home = self._home(dst)
            if dst in self._meta[dst_home]:
                raise PathExistsError(f"rename target exists: {dst}")
            meta = self._rename_one(self._meta[self._home(src)], src, dst_home, dst)
            if meta is None:
                raise PathMissingError(src)
            if not meta.is_dir:  # a file has no children to move
                return
            for child, table in self._children_of(src):
                moved = dst + child[len(src):]
                self._rename_one(table, child, self._home(moved), moved)

    def _rename_one(
        self, src_table: Dict[str, _PathMeta], src: str, dst_home: int, dst: str
    ) -> Optional[_PathMeta]:
        """Move one path's metadata and blocks; the moved metadata, or
        ``None`` when ``src`` is gone."""
        if src not in src_table:
            return None
        # Before anything moves: a file parent raises with ``src`` intact.
        self._mkdirs_unlocked_parent(dst)
        meta = src_table.pop(src)
        if not meta.is_dir:
            for block_id, block in enumerate(meta.blocks):
                data = self._data[block.info.place_id]
                data[(dst, block_id)] = data.pop((src, block_id))
        self._meta[dst_home][dst] = meta
        return meta

    # -- namespace queries ----------------------------------------------------- #

    def list_paths(self, prefix: str = "/") -> List[str]:
        """All known paths at or under ``prefix`` (sorted)."""
        prefix = normalize_path(prefix)
        match = "/" if prefix == "/" else prefix + "/"
        return sorted(
            path
            for table in self._meta
            for path in table
            if path == prefix or path.startswith(match)
        )

    def total_bytes_at_place(self, place_id: int) -> int:
        """Bytes of block data stored at one place (memory accounting).

        O(1): a running counter maintained by commit and delete.  The
        metadata-scan equivalent survives as :meth:`scan_bytes_at_place`
        for verification.
        """
        return self._place_bytes[place_id]

    def scan_bytes_at_place(self, place_id: int) -> int:
        """The O(n) metadata-scan computation of the same total."""
        return sum(
            block.nbytes
            for table in self._meta
            for meta in table.values()
            for block in meta.blocks
            if block.info.place_id == place_id
        )
