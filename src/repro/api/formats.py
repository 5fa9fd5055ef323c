"""Input and output formats.

The format layer is where jobs meet the filesystem: an
:class:`InputFormat` turns the configured input paths into
:class:`~repro.api.splits.InputSplit` metadata and per-split
:class:`RecordReader` streams; an :class:`OutputFormat` supplies a
:class:`RecordWriter` per reduce partition (plus an
:class:`OutputCommitter` that promotes task output on success).

M3R "understands how standard Hadoop input and output formats work, in
particular the File(Input/Output)Format classes and the FileSplit class"
(paper Section 4.2.1) — its cache keys data by the file names these classes
expose.  Our M3R engine has the same special knowledge of the classes in
this module, and falls back to the ``NamedSplit``/``DelegatingSplit``
extension interfaces for user-defined splits, exactly as the paper
describes.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.api.conf import JobConf
from repro.api.mapred import RecordReaderLike, Reporter
from repro.api.splits import FileSplit, InputSplit
from repro.api.writables import LongWritable, Text
from repro.x10.serializer import TRANSPORT_COPIES, copy_unregistered


class RecordReader(RecordReaderLike):
    """Streams (key, value) records out of one split."""

    def next_pair(self) -> Optional[Tuple[Any, Any]]:
        """The next record, or ``None`` at end of split."""
        raise NotImplementedError

    def get_progress(self) -> float:
        """Fraction of the split consumed, in [0, 1]."""
        return 0.0

    def close(self) -> None:
        """Release resources."""

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        while True:
            pair = self.next_pair()
            if pair is None:
                return
            yield pair


class MaterializedReader(RecordReader):
    """A reader over an in-memory pair list (cache hits, reduce feeds,
    sequence files).  With ``clone=True`` each record is defensively
    copied before being handed out: M3R's cache hits for a job without
    ImmutableOutput, and every sequence-file read, since a real reader
    deserializes fresh objects that a consumer (Hadoop's object-reusing
    MapRunnable) may mutate without touching the "on-disk" data."""

    def __init__(self, pairs: List[Tuple[Any, Any]], clone: bool = False):
        self._pairs = pairs
        self._index = 0
        self._clone = clone

    def next_pair(self) -> Optional[Tuple[Any, Any]]:
        if self._index >= len(self._pairs):
            return None
        key, value = self._pairs[self._index]
        self._index += 1
        if self._clone:
            get, other = TRANSPORT_COPIES.get, copy_unregistered
            return get(type(key), other)(key), get(type(value), other)(value)
        return key, value

    def take_run(self) -> Optional[List[Tuple[Any, Any]]]:
        """Every unread record in one list, when the reader copies nothing
        (the list itself when nothing was read yet); ``None`` for a
        cloning reader, whose records are handed out one by one."""
        if self._clone:
            return None
        rest = self._pairs if self._index == 0 else self._pairs[self._index :]
        self._index = len(self._pairs)
        return rest

    def take_batch(self, n: int) -> List[Tuple[Any, Any]]:
        """Native batch slice (same records, same order as ``next_pair``)."""
        chunk = self._pairs[self._index : self._index + n]
        self._index += len(chunk)
        if self._clone:
            get, other = TRANSPORT_COPIES.get, copy_unregistered
            return [(get(type(k), other)(k), get(type(v), other)(v)) for k, v in chunk]
        return chunk

    def get_progress(self) -> float:
        if not self._pairs:
            return 1.0
        return self._index / len(self._pairs)


def read_all(reader: RecordReaderLike) -> List[Tuple[Any, Any]]:
    """Every record ``reader`` has left, in one new list: a
    :class:`MaterializedReader`'s rest in one ``take_batch``, any other
    reader's by one ``next_pair`` call per record."""
    if isinstance(reader, MaterializedReader):
        return reader.take_batch(len(reader._pairs))
    return list(iter(reader.next_pair, None))


class RecordWriter:
    """Consumes the (key, value) records of one reduce (or map-only) task."""

    def write(self, key: Any, value: Any) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources."""


class InputFormat:
    """Produces splits and per-split readers for a job's input."""

    def get_splits(self, fs: Any, conf: JobConf, num_splits: int) -> List[InputSplit]:
        raise NotImplementedError

    def get_record_reader(
        self, fs: Any, split: InputSplit, conf: JobConf, reporter: Reporter
    ) -> RecordReader:
        raise NotImplementedError


class OutputCommitter:
    """Task/job commit protocol (simplified two-step: task output is staged
    per task and promoted on job commit)."""

    def setup_job(self, fs: Any, conf: JobConf) -> None:
        """Prepare the output location (create the directory)."""

    def commit_job(self, fs: Any, conf: JobConf) -> None:
        """Promote all task output; called once after every task succeeded."""

    def abort_job(self, fs: Any, conf: JobConf) -> None:
        """Discard staged output after a failure."""


class OutputFormat:
    """Produces one writer per output partition."""

    def check_output_specs(self, fs: Any, conf: JobConf) -> None:
        """Validate the output location before the job runs (Hadoop refuses
        to clobber an existing output directory)."""

    def get_record_writer(
        self, fs: Any, conf: JobConf, name: str, reporter: Reporter
    ) -> RecordWriter:
        raise NotImplementedError

    def get_output_committer(self) -> OutputCommitter:
        return OutputCommitter()


# --------------------------------------------------------------------------- #
# File-based input
# --------------------------------------------------------------------------- #


class FileInputFormat(InputFormat):
    """Common machinery for inputs stored as files: enumerate the configured
    input paths, expand directories, and carve files into splits."""

    #: Smallest split this format will produce, in bytes.
    MIN_SPLIT_SIZE = 1

    def list_input_files(self, fs: Any, conf: JobConf) -> List[str]:
        """Expand the configured input paths to concrete files."""
        files: List[str] = []
        for path in conf.get_input_paths():
            status = fs.get_file_status(path)
            if status is None:
                raise FileNotFoundError(f"input path does not exist: {path}")
            if status.is_dir:
                for child in sorted(fs.list_status(path), key=lambda s: s.path):
                    if not child.is_dir and not _is_hidden(child.path):
                        files.append(child.path)
            else:
                files.append(path)
        if not files:
            raise FileNotFoundError(
                f"no input files under {conf.get_input_paths()!r}"
            )
        return files

    def is_splitable(self, fs: Any, path: str) -> bool:
        """Whether one file may be carved into multiple splits."""
        return True

    def get_splits(self, fs: Any, conf: JobConf, num_splits: int) -> List[InputSplit]:
        files = self.list_input_files(fs, conf)
        total = sum(fs.get_file_status(f).length for f in files)
        goal = max(self.MIN_SPLIT_SIZE, total // max(1, num_splits))
        splits: List[InputSplit] = []
        for path in files:
            length = fs.get_file_status(path).length
            if length == 0:
                splits.append(FileSplit(path, 0, 0, fs.get_block_locations(path, 0, 0)))
                continue
            if not self.is_splitable(fs, path):
                hosts = fs.get_block_locations(path, 0, length)
                splits.append(FileSplit(path, 0, length, hosts))
                continue
            offset = 0
            while offset < length:
                chunk = min(goal, length - offset)
                # Avoid a tiny tail split (Hadoop's SPLIT_SLOP = 1.1).
                if length - offset - chunk < goal * 0.1:
                    chunk = length - offset
                hosts = fs.get_block_locations(path, offset, chunk)
                splits.append(FileSplit(path, offset, chunk, hosts))
                offset += chunk
        return splits


def _is_hidden(path: str) -> bool:
    basename = path.rstrip("/").rsplit("/", 1)[-1]
    return basename.startswith(".") or basename.startswith("_")


class _TextRecordReader(RecordReader):
    """Reads newline-delimited records from a byte range of one file.

    Hadoop split semantics: a record belongs to the split its first byte
    falls in; a reader whose range starts mid-record skips forward to the
    next newline.
    """

    def __init__(self, data: bytes, start: int, length: int):
        self._data = data
        self._end = min(len(data), start + length)
        if start == 0:
            self._pos = 0
        else:
            newline = data.find(b"\n", start - 1)
            self._pos = len(data) if newline < 0 else newline + 1
        self._start = self._pos

    def next_pair(self) -> Optional[Tuple[LongWritable, Text]]:
        if self._pos >= self._end or self._pos >= len(self._data):
            return None
        newline = self._data.find(b"\n", self._pos)
        line_end = len(self._data) if newline < 0 else newline
        line = self._data[self._pos : line_end]
        key = LongWritable(self._pos)
        self._pos = line_end + 1
        return key, Text(line.decode("utf-8"))

    def get_progress(self) -> float:
        if self._end <= self._start:
            return 1.0
        return min(1.0, (self._pos - self._start) / (self._end - self._start))


class TextInputFormat(FileInputFormat):
    """Line-oriented text: key = byte offset, value = the line."""

    def get_record_reader(
        self, fs: Any, split: InputSplit, conf: JobConf, reporter: Reporter
    ) -> RecordReader:
        if not isinstance(split, FileSplit):
            raise TypeError(f"TextInputFormat expects FileSplit, got {type(split)}")
        data = fs.read_bytes(split.path)
        return _TextRecordReader(data, split.start, split.length)


class _KeyValueTextRecordReader(_TextRecordReader):
    """Splits each line at the first tab into (Text key, Text value)."""

    def next_pair(self) -> Optional[Tuple[Text, Text]]:
        pair = super().next_pair()
        if pair is None:
            return None
        _, line = pair
        text = line.to_string()
        key_part, sep, value_part = text.partition("\t")
        return Text(key_part), Text(value_part if sep else "")


class KeyValueTextInputFormat(FileInputFormat):
    """Tab-separated text: key = text before the first tab, value = the rest."""

    def get_record_reader(
        self, fs: Any, split: InputSplit, conf: JobConf, reporter: Reporter
    ) -> RecordReader:
        if not isinstance(split, FileSplit):
            raise TypeError(
                f"KeyValueTextInputFormat expects FileSplit, got {type(split)}"
            )
        data = fs.read_bytes(split.path)
        return _KeyValueTextRecordReader(data, split.start, split.length)


class SequenceFileInputFormat(FileInputFormat):
    """Typed binary key/value files (one split per file — sequence files
    written by reducers arrive as part-files that parallelize naturally)."""

    def is_splitable(self, fs: Any, path: str) -> bool:
        return False

    def get_record_reader(
        self, fs: Any, split: InputSplit, conf: JobConf, reporter: Reporter
    ) -> RecordReader:
        if not isinstance(split, FileSplit):
            raise TypeError(
                f"SequenceFileInputFormat expects FileSplit, got {type(split)}"
            )
        return MaterializedReader(fs.read_pairs(split.path), clone=True)


# --------------------------------------------------------------------------- #
# File-based output
# --------------------------------------------------------------------------- #


class _FileOutputCommitter(OutputCommitter):
    """Hadoop's FileOutputCommitter, reduced to its observable behaviour:
    the output directory exists up front, and a ``_SUCCESS`` marker appears
    once every task has committed."""

    def setup_job(self, fs: Any, conf: JobConf) -> None:
        output = conf.get_output_path()
        if output is not None:
            fs.mkdirs(output)

    def commit_job(self, fs: Any, conf: JobConf) -> None:
        output = conf.get_output_path()
        if output is not None:
            fs.write_bytes(f"{output.rstrip('/')}/_SUCCESS", b"")

    def abort_job(self, fs: Any, conf: JobConf) -> None:
        """Nothing staged to discard in this model; the marker never appears."""


class FileOutputFormat(OutputFormat):
    """Common machinery for outputs written as ``<dir>/part-NNNNN`` files."""

    def get_output_committer(self) -> OutputCommitter:
        return _FileOutputCommitter()

    def check_output_specs(self, fs: Any, conf: JobConf) -> None:
        output = conf.get_output_path()
        if output is None:
            raise ValueError("no output path configured")
        if fs.exists(output):
            raise FileExistsError(f"output path already exists: {output}")

    @staticmethod
    def part_name(partition: int) -> str:
        return f"part-{partition:05d}"

    @staticmethod
    def part_path(conf: JobConf, partition: int) -> str:
        output = conf.get_output_path()
        if output is None:
            raise ValueError("no output path configured")
        return f"{output.rstrip('/')}/{FileOutputFormat.part_name(partition)}"


class _TextRecordWriter(RecordWriter):
    """Buffers ``key<TAB>value`` lines, flushing to the FS on close."""

    def __init__(self, fs: Any, path: str):
        self._fs = fs
        self._path = path
        self._lines: List[str] = []
        self._closed = False

    def write(self, key: Any, value: Any) -> None:
        # Hadoop TextOutputFormat semantics: a null (or NullWritable) key or
        # value is omitted along with its separator.
        key_absent = key is None or type(key).__name__ == "NullWritable"
        value_absent = value is None or type(value).__name__ == "NullWritable"
        if key_absent and value_absent:
            self._lines.append("\n")
        elif key_absent:
            self._lines.append(f"{value}\n")
        elif value_absent:
            self._lines.append(f"{key}\n")
        else:
            self._lines.append(f"{key}\t{value}\n")

    def close(self) -> None:
        if not self._closed:
            self._fs.write_text(self._path, "".join(self._lines))
            self._closed = True


class TextOutputFormat(FileOutputFormat):
    """Writes ``key<TAB>value`` lines to ``<dir>/part-NNNNN``."""

    def get_record_writer(
        self, fs: Any, conf: JobConf, name: str, reporter: Reporter
    ) -> RecordWriter:
        output = conf.get_output_path()
        if output is None:
            raise ValueError("no output path configured")
        return _TextRecordWriter(fs, f"{output.rstrip('/')}/{name}")


class _SequenceFileRecordWriter(RecordWriter):
    """Buffers typed pairs, flushing as a sequence file on close."""

    def __init__(self, fs: Any, path: str):
        self._fs = fs
        self._path = path
        self._pairs: List[Tuple[Any, Any]] = []
        self._closed = False

    def write(self, key: Any, value: Any) -> None:
        self._pairs.append((key, value))

    def close(self) -> None:
        if not self._closed:
            self._fs.write_pairs(self._path, self._pairs)
            self._closed = True


class SequenceFileOutputFormat(FileOutputFormat):
    """Writes typed binary key/value pairs to ``<dir>/part-NNNNN``."""

    def get_record_writer(
        self, fs: Any, conf: JobConf, name: str, reporter: Reporter
    ) -> RecordWriter:
        output = conf.get_output_path()
        if output is None:
            raise ValueError("no output path configured")
        return _SequenceFileRecordWriter(fs, f"{output.rstrip('/')}/{name}")


class _NullRecordWriter(RecordWriter):
    def write(self, key: Any, value: Any) -> None:
        pass

    def close(self) -> None:
        pass


class NullOutputFormat(OutputFormat):
    """Discards all output (useful for side-effect-only jobs and tests)."""

    def check_output_specs(self, fs: Any, conf: JobConf) -> None:
        pass

    def get_record_writer(
        self, fs: Any, conf: JobConf, name: str, reporter: Reporter
    ) -> RecordWriter:
        return _NullRecordWriter()
