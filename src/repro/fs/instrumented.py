"""Per-task filesystem instrumentation.

User code performs I/O inside RecordReaders, RecordWriters and arbitrary
mapper/reducer logic.  The engines cannot see those calls directly, so each
task gets an :class:`InstrumentedFileSystem` view of the shared filesystem:
every operation is delegated unchanged, and the bytes/op counts accumulate
in a private :class:`FsTally` the engine converts into simulated seconds
after the task finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.fs.filesystem import FileStatus, FileSystem


@dataclass
class FsTally:
    """What one task did through the filesystem."""

    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0
    metadata_ops: int = 0

    def add_read(self, nbytes: int) -> None:
        self.read_ops += 1
        self.bytes_read += nbytes

    def add_write(self, nbytes: int) -> None:
        self.write_ops += 1
        self.bytes_written += nbytes

    def add_metadata_op(self) -> None:
        self.metadata_ops += 1

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        self.metadata_ops = 0


class InstrumentedFileSystem(FileSystem):
    """A delegating FileSystem view that tallies I/O into a :class:`FsTally`.

    Only the public surface is wrapped; the underlying store is shared, so
    writes through one view are visible through every other view (exactly
    like tasks sharing one HDFS).
    """

    def __init__(
        self,
        inner: FileSystem,
        tally: Optional[FsTally] = None,
        at_node: Optional[int] = None,
    ):
        # Deliberately do NOT call super().__init__(): this object owns no
        # storage; every operation forwards to ``inner``.
        self.inner = inner
        self.tally = tally if tally is not None else FsTally()
        #: The node this task runs on; writes that do not say otherwise are
        #: placed here (HDFS puts the first replica on the writing node).
        self.at_node = at_node

    # -- namespace ---------------------------------------------------------- #

    def exists(self, path: str) -> bool:
        self.tally.add_metadata_op()
        return self.inner.exists(path)

    def is_directory(self, path: str) -> bool:
        self.tally.add_metadata_op()
        return self.inner.is_directory(path)

    def mkdirs(self, path: str) -> bool:
        self.tally.add_metadata_op()
        return self.inner.mkdirs(path)

    def get_file_status(self, path: str) -> Optional[FileStatus]:
        self.tally.add_metadata_op()
        return self.inner.get_file_status(path)

    def list_status(self, path: str) -> List[FileStatus]:
        self.tally.add_metadata_op()
        return self.inner.list_status(path)

    def list_files_recursive(self, path: str) -> List[FileStatus]:
        self.tally.add_metadata_op()
        return self.inner.list_files_recursive(path)

    def delete(self, path: str, recursive: bool = False) -> bool:
        self.tally.add_metadata_op()
        return self.inner.delete(path, recursive=recursive)

    def rename(self, src: str, dst: str) -> bool:
        self.tally.add_metadata_op()
        return self.inner.rename(src, dst)

    # -- data ------------------------------------------------------------ #

    def write_bytes(self, path: str, data: bytes, at_node: Optional[int] = None) -> None:
        self.tally.add_write(len(data))
        self.inner.write_bytes(
            path, data, at_node=at_node if at_node is not None else self.at_node
        )

    def read_bytes(self, path: str) -> bytes:
        data = self.inner.read_bytes(path)
        self.tally.add_read(len(data))
        return data

    def write_text(self, path: str, text: str, at_node: Optional[int] = None) -> None:
        self.write_bytes(path, text.encode("utf-8"), at_node=at_node)

    def read_text(self, path: str) -> str:
        return self.read_bytes(path).decode("utf-8")

    def write_pairs(
        self, path: str, pairs: List[Tuple[Any, Any]], at_node: Optional[int] = None
    ) -> None:
        self.inner.write_pairs(
            path, pairs, at_node=at_node if at_node is not None else self.at_node
        )
        status = self.inner.get_file_status(path)
        self.tally.add_write(status.length if status else 0)

    def read_pairs(self, path: str) -> List[Tuple[Any, Any]]:
        status = self.inner.get_file_status(path)
        pairs = self.inner.read_pairs(path)
        self.tally.add_read(status.length if status else 0)
        return pairs

    def read_kv_pairs(self, path_or_dir: str) -> List[Tuple[Any, Any]]:
        status = self.inner.get_file_status(path_or_dir)
        if status is not None and status.is_file:
            return self.read_pairs(path_or_dir)
        pairs: List[Tuple[Any, Any]] = []
        for child in self.inner.list_files_recursive(path_or_dir):
            basename = child.path.rsplit("/", 1)[-1]
            if basename.startswith((".", "_")):
                continue
            pairs.extend(self.read_pairs(child.path))
        return pairs

    # -- locality ----------------------------------------------------------- #

    def get_block_locations(self, path: str, start: int, length: int) -> List[str]:
        self.tally.add_metadata_op()
        return self.inner.get_block_locations(path, start, length)

    def total_bytes(self) -> int:
        return self.inner.total_bytes()
