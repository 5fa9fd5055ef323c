"""The FileSystem abstraction (Hadoop's ``FileSystem`` surface, reduced to
what map/reduce jobs actually touch).

Files hold either raw bytes (text inputs) or a typed key/value pair list
(sequence files).  Pair files record their exact Hadoop wire size at write
time, so I/O costs are identical whether data is stored as bytes or as
structured pairs — engines always charge by ``FileStatus.length``.

M3R's cache interposes on exactly this interface: the paper's Section 4.2.3
says ``rename``/``delete``/``getFileStatus`` are transparently sent "to both
the cache and the underlying file system".  Keeping the surface small and
explicit here is what makes that interposition (in
:mod:`repro.core.cachefs`) auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.x10.serializer import pairs_size


def normalize_path(path: str) -> str:
    """Normalize to an absolute, slash-separated, no-trailing-slash path.

    A path that is already normal — a leading ``/``, no empty, ``.`` or
    ``..`` part, no trailing ``/`` unless it is the root — comes back as
    it is, without a split; anything else goes through
    :func:`_normalize_parts`."""
    if (
        path.startswith("/")
        and "//" not in path
        and "/." not in path
        and (path == "/" or not path.endswith("/"))
    ):
        return path
    return _normalize_parts(path)


def _normalize_parts(path: str) -> str:
    """:func:`normalize_path` part by part: drop empty and ``.`` parts,
    resolve ``..`` (raising if it escapes the root)."""
    if not path:
        raise ValueError("empty path")
    if not path.startswith("/"):
        path = "/" + path
    parts: List[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if not parts:
                raise ValueError(f"path escapes root: {path!r}")
            parts.pop()
        else:
            parts.append(part)
    return "/" + "/".join(parts)


def parent_path(path: str) -> Optional[str]:
    """The parent of a normalized path, or ``None`` for the root."""
    path = normalize_path(path)
    if path == "/":
        return None
    head, _, _ = path.rpartition("/")
    return head or "/"


@dataclass(frozen=True)
class FileStatus:
    """Metadata for one path (Hadoop's ``FileStatus``)."""

    path: str
    length: int
    is_dir: bool
    modification_stamp: int = 0

    @property
    def is_file(self) -> bool:
        return not self.is_dir


class _Entry:
    """One stored file: raw bytes or a pair list, plus its wire length."""

    __slots__ = ("data", "pairs", "length", "stamp")

    def __init__(
        self,
        data: Optional[bytes],
        pairs: Optional[List[Tuple[Any, Any]]],
        length: int,
        stamp: int,
    ):
        self.data = data
        self.pairs = pairs
        self.length = length
        self.stamp = stamp


class FileSystem:
    """A hierarchical in-process filesystem.

    Subclasses hook :meth:`_on_file_written` / :meth:`_on_file_removed` for
    block placement (HDFS) and may override :meth:`get_block_locations`.
    """

    def __init__(self) -> None:
        self._files: Dict[str, _Entry] = {}
        self._dirs: set = {"/"}
        self._stamp = 0

    # -- internal helpers ------------------------------------------------- #

    def _next_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    def _ensure_parents(self, path: str) -> None:
        parent = parent_path(path)
        ancestors: List[str] = []
        while parent is not None and parent not in self._dirs:
            if parent in self._files:
                raise NotADirectoryError(f"{parent} is a file")
            ancestors.append(parent)
            parent = parent_path(parent)
        for ancestor in reversed(ancestors):
            self._dirs.add(ancestor)

    def _on_file_written(self, path: str, length: int, at_node: Optional[int]) -> None:
        """Subclass hook: called after a file (re)write."""

    def _on_file_removed(self, path: str) -> None:
        """Subclass hook: called after a file removal."""

    # -- namespace operations ----------------------------------------------- #

    def exists(self, path: str) -> bool:
        path = normalize_path(path)
        return path in self._files or path in self._dirs

    def is_directory(self, path: str) -> bool:
        path = normalize_path(path)
        return path in self._dirs

    def mkdirs(self, path: str) -> bool:
        """Create a directory and all missing ancestors; True if created."""
        path = normalize_path(path)
        if path in self._files:
            raise NotADirectoryError(f"{path} is a file")
        if path in self._dirs:
            return False
        self._ensure_parents(path)
        self._dirs.add(path)
        return True

    def get_file_status(self, path: str) -> Optional[FileStatus]:
        path = normalize_path(path)
        entry = self._files.get(path)
        if entry is not None:
            return FileStatus(path, entry.length, is_dir=False,
                              modification_stamp=entry.stamp)
        if path in self._dirs:
            return FileStatus(path, 0, is_dir=True)
        return None

    def list_status(self, path: str) -> List[FileStatus]:
        """Direct children of a directory (Hadoop ``listStatus``)."""
        path = normalize_path(path)
        if path in self._files:
            return [self.get_file_status(path)]  # type: ignore[list-item]
        if path not in self._dirs:
            raise FileNotFoundError(path)
        prefix = "/" if path == "/" else path + "/"
        children: List[FileStatus] = []
        for file_path, entry in self._files.items():
            if file_path.startswith(prefix) and "/" not in file_path[len(prefix):]:
                children.append(
                    FileStatus(file_path, entry.length, is_dir=False,
                               modification_stamp=entry.stamp)
                )
        for dir_path in self._dirs:
            if (
                dir_path != path
                and dir_path.startswith(prefix)
                and "/" not in dir_path[len(prefix):]
            ):
                children.append(FileStatus(dir_path, 0, is_dir=True))
        return sorted(children, key=lambda s: s.path)

    def list_files_recursive(self, path: str) -> List[FileStatus]:
        """Every file at or under ``path``."""
        path = normalize_path(path)
        if path in self._files:
            return [self.get_file_status(path)]  # type: ignore[list-item]
        prefix = "/" if path == "/" else path + "/"
        return sorted(
            (
                FileStatus(p, e.length, is_dir=False, modification_stamp=e.stamp)
                for p, e in self._files.items()
                if p.startswith(prefix)
            ),
            key=lambda s: s.path,
        )

    def delete(self, path: str, recursive: bool = False) -> bool:
        """Remove a file or directory; True when something was removed."""
        path = normalize_path(path)
        if path in self._files:
            del self._files[path]
            self._on_file_removed(path)
            return True
        if path not in self._dirs:
            return False
        prefix = "/" if path == "/" else path + "/"
        nested_files = [p for p in self._files if p.startswith(prefix)]
        nested_dirs = [d for d in self._dirs if d != path and d.startswith(prefix)]
        if (nested_files or nested_dirs) and not recursive:
            raise IsADirectoryError(f"{path} is a non-empty directory")
        for file_path in nested_files:
            del self._files[file_path]
            self._on_file_removed(file_path)
        for dir_path in nested_dirs:
            self._dirs.discard(dir_path)
        if path != "/":
            self._dirs.discard(path)
        return True

    def rename(self, src: str, dst: str) -> bool:
        """Move a file or directory tree; False when ``src`` is absent."""
        src = normalize_path(src)
        dst = normalize_path(dst)
        if src == dst:
            return src in self._files or src in self._dirs
        if dst in self._files or dst in self._dirs:
            raise FileExistsError(f"rename target exists: {dst}")
        if src in self._files:
            self._ensure_parents(dst)
            entry = self._files.pop(src)
            entry.stamp = self._next_stamp()
            self._files[dst] = entry
            self._on_file_removed(src)
            self._on_file_written(dst, entry.length, at_node=None)
            return True
        if src in self._dirs:
            self._ensure_parents(dst)
            prefix = "/" if src == "/" else src + "/"
            moved_files = [p for p in self._files if p.startswith(prefix)]
            moved_dirs = [d for d in self._dirs if d == src or d.startswith(prefix)]
            for dir_path in moved_dirs:
                self._dirs.discard(dir_path)
                self._dirs.add(dst + dir_path[len(src):])
            for file_path in moved_files:
                entry = self._files.pop(file_path)
                new_path = dst + file_path[len(src):]
                self._files[new_path] = entry
                self._on_file_removed(file_path)
                self._on_file_written(new_path, entry.length, at_node=None)
            return True
        return False

    # -- data operations ---------------------------------------------------- #

    def write_bytes(self, path: str, data: bytes, at_node: Optional[int] = None) -> None:
        """Create or replace ``path`` with raw bytes."""
        path = normalize_path(path)
        if path in self._dirs:
            raise IsADirectoryError(path)
        self._ensure_parents(path)
        self._files[path] = _Entry(
            data=bytes(data), pairs=None, length=len(data),
            stamp=self._next_stamp(),
        )
        self._on_file_written(path, len(data), at_node)

    def read_bytes(self, path: str) -> bytes:
        path = normalize_path(path)
        entry = self._files.get(path)
        if entry is None:
            raise FileNotFoundError(path)
        if entry.data is None:
            raise TypeError(f"{path} is a sequence (pair) file, not bytes")
        return entry.data

    def write_text(self, path: str, text: str, at_node: Optional[int] = None) -> None:
        self.write_bytes(path, text.encode("utf-8"), at_node=at_node)

    def read_text(self, path: str) -> str:
        return self.read_bytes(path).decode("utf-8")

    def write_pairs(
        self,
        path: str,
        pairs: Iterable[Tuple[Any, Any]],
        at_node: Optional[int] = None,
        length: Optional[int] = None,
    ) -> None:
        """Create or replace ``path`` with a typed key/value sequence (any
        iterable: it is materialised once, then measured, unless the
        caller already knows its ``pairs_size`` and passes it as
        ``length``)."""
        path = normalize_path(path)
        stored = list(pairs)
        if length is None:
            length = pairs_size(stored)
        if path in self._dirs:
            raise IsADirectoryError(path)
        self._ensure_parents(path)
        self._files[path] = _Entry(
            data=None, pairs=stored, length=length,
            stamp=self._next_stamp(),
        )
        self._on_file_written(path, length, at_node)

    def read_pairs(self, path: str) -> List[Tuple[Any, Any]]:
        path = normalize_path(path)
        entry = self._files.get(path)
        if entry is None:
            raise FileNotFoundError(path)
        if entry.pairs is None:
            raise TypeError(f"{path} is a byte file, not a sequence file")
        return list(entry.pairs)

    def read_kv_pairs(self, path_or_dir: str) -> List[Tuple[Any, Any]]:
        """All pairs at ``path``, or concatenated over a directory's part files."""
        path = normalize_path(path_or_dir)
        if path in self._files:
            return self.read_pairs(path)
        pairs: List[Tuple[Any, Any]] = []
        for status in self.list_files_recursive(path):
            basename = status.path.rsplit("/", 1)[-1]
            if basename.startswith((".", "_")):
                continue
            pairs.extend(self.read_pairs(status.path))
        return pairs

    # -- locality metadata ------------------------------------------------ #

    def get_block_locations(self, path: str, start: int, length: int) -> List[str]:
        """Hostnames storing the given byte range (locality scheduling input).

        The base (node-local) filesystem reports no locality information.
        """
        return []

    def total_bytes(self) -> int:
        """Total stored bytes (capacity accounting for tests)."""
        return sum(e.length for e in self._files.values())
