"""MultipleInputs / MultipleOutputs (paper Section 4.2.2).

The Hadoop model allows one input format and one output stream per job; for
anything richer (e.g. the matvec job's separate matrix and vector inputs,
each routed to its own mapper) the standard library supplies
``MultipleInputs`` — which tags each split with its base format and mapper —
and ``MultipleOutputs`` — which gives reducers additional named output
streams.

The paper notes both classes must be made cache-aware to work with M3R
("this code needs to be modified to enable caching ... transparently done by
M3R").  Here the M3R engine achieves the same transparency by unwrapping
:class:`TaggedInputSplit` through the :class:`~repro.api.extensions.DelegatingSplit`
interface, so the cache sees the underlying ``FileSplit``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

from repro.api.conf import (
    ACTUAL_MAPPER_KEY as _ACTUAL_MAPPER_KEY,
    JobConf,
    TASK_FS_KEY,
    TASK_PARTITION_KEY,
)
from repro.api.extensions import DelegatingSplit
from repro.api.formats import (
    FileOutputFormat,
    InputFormat,
    OutputFormat,
    RecordReader,
    RecordWriter,
)
from repro.api.mapred import Mapper, OutputCollector, Reporter
from repro.api.splits import InputSplit

#: Conf key holding {path: [(InputFormat class, Mapper class | None), ...]}.
#: A list per path so the same input can feed two different mappers (the
#: self-join / ``X * X`` pattern higher layers generate).
MULTIPLE_INPUTS_KEY = "mapreduce.input.multipleinputs.dir.registrations"
#: Conf key holding {name: (OutputFormat class, key cls, value cls)}.
MULTIPLE_OUTPUTS_KEY = "mapreduce.multipleoutputs.named"

# Private engine-to-task keys (TASK_FS_KEY / TASK_PARTITION_KEY, imported
# above): the running engine injects the task's filesystem and partition so
# MultipleOutputs can create writers.  Registered as internal knobs in the
# KnobRegistry, so they validate like every other m3r.* key.


class TaggedInputSplit(InputSplit, DelegatingSplit):
    """A split tagged with the input format and mapper that should process it."""

    def __init__(
        self,
        delegate: InputSplit,
        input_format_class: Type[InputFormat],
        mapper_class: Type[Any],
    ):
        self.delegate = delegate
        self.input_format_class = input_format_class
        self.mapper_class = mapper_class

    def get_length(self) -> int:
        return self.delegate.get_length()

    def get_locations(self) -> List[str]:
        return self.delegate.get_locations()

    def get_delegate(self) -> InputSplit:
        return self.delegate

    def __repr__(self) -> str:
        return (
            f"TaggedInputSplit({self.delegate!r}, "
            f"format={self.input_format_class.__name__}, "
            f"mapper={self.mapper_class.__name__})"
        )


class MultipleInputs:
    """Registers per-path input formats and mappers on a JobConf."""

    @staticmethod
    def add_input_path(
        conf: JobConf,
        path: str,
        input_format_class: Type[InputFormat],
        mapper_class: Optional[Type[Any]] = None,
    ) -> None:
        """Route ``path`` through ``input_format_class`` (and optionally a
        dedicated mapper), switching the job onto the delegating machinery.

        The same path may be registered more than once with different
        mappers; each registration produces its own tagged splits.
        """
        registrations: Dict[str, List[Tuple[type, Optional[type]]]] = {
            p: list(regs) for p, regs in (conf.get(MULTIPLE_INPUTS_KEY) or {}).items()
        }
        registrations.setdefault(path, []).append((input_format_class, mapper_class))
        conf.set(MULTIPLE_INPUTS_KEY, registrations)
        if path not in conf.get_input_paths():
            conf.add_input_path(path)
        conf.set_input_format(DelegatingInputFormat)


class DelegatingInputFormat(InputFormat):
    """Computes splits per registered path with its base format, then tags
    each split so the engine can route it to the right mapper."""

    def get_splits(self, fs: Any, conf: JobConf, num_splits: int) -> List[InputSplit]:
        registrations: Dict[str, List[Tuple[type, Optional[type]]]] = (
            conf.get(MULTIPLE_INPUTS_KEY) or {}
        )
        if not registrations:
            raise ValueError("DelegatingInputFormat configured without MultipleInputs")
        total = sum(len(regs) for regs in registrations.values())
        splits: List[InputSplit] = []
        for path in sorted(registrations):
            for format_class, mapper_class in registrations[path]:
                scoped = JobConf(conf)
                scoped.set_input_paths(path)
                base_format = format_class()
                resolved_mapper = mapper_class or conf.get_mapper_class()
                if resolved_mapper is None:
                    raise ValueError(f"no mapper registered for input path {path}")
                per_registration = max(1, num_splits // max(1, total))
                for split in base_format.get_splits(fs, scoped, per_registration):
                    splits.append(TaggedInputSplit(split, format_class, resolved_mapper))
        return splits

    def get_record_reader(
        self, fs: Any, split: InputSplit, conf: JobConf, reporter: Reporter
    ) -> RecordReader:
        if not isinstance(split, TaggedInputSplit):
            raise TypeError(f"expected TaggedInputSplit, got {type(split)}")
        base_format = split.input_format_class()
        return base_format.get_record_reader(fs, split.get_delegate(), conf, reporter)


class DelegatingMapper(Mapper):
    """Instantiates the tagged mapper for the current split and forwards to it.

    Engines set :data:`ACTUAL_MAPPER_KEY` on the task-scoped conf before
    configuring this class (Hadoop does the same through
    ``TaggedInputSplit`` + conf plumbing).
    """

    ACTUAL_MAPPER_KEY = _ACTUAL_MAPPER_KEY

    def __init__(self) -> None:
        self._actual: Optional[Mapper] = None

    def configure(self, conf: JobConf) -> None:
        actual_class = conf.get_class(self.ACTUAL_MAPPER_KEY)
        if actual_class is None:
            raise ValueError(
                "DelegatingMapper used outside MultipleInputs task context"
            )
        self._actual = actual_class()
        self._actual.configure(conf)

    def map(self, key: Any, value: Any, output: OutputCollector, reporter: Reporter) -> None:
        if self._actual is None:
            raise RuntimeError("DelegatingMapper.map before configure")
        self._actual.map(key, value, output, reporter)

    def close(self) -> None:
        if self._actual is not None:
            self._actual.close()


class MultipleOutputs:
    """Named side outputs for a reduce (or map-only) task.

    Usage mirrors Hadoop::

        MultipleOutputs.add_named_output(conf, "rejected", TextOutputFormat,
                                         Text, Text)
        ...
        def configure(self, conf):
            self.mos = MultipleOutputs(conf)
        def reduce(self, key, values, output, reporter):
            self.mos.collect("rejected", reporter, key, bad_value)
        def close(self):
            self.mos.close()

    Named files land at ``<output dir>/<name>-r-<partition>``.
    """

    @staticmethod
    def add_named_output(
        conf: JobConf,
        name: str,
        output_format_class: Type[OutputFormat],
        key_class: type,
        value_class: type,
    ) -> None:
        if not name.isidentifier():
            raise ValueError(f"named output {name!r} must be a simple identifier")
        named: Dict[str, Tuple[type, type, type]] = dict(conf.get(MULTIPLE_OUTPUTS_KEY) or {})
        named[name] = (output_format_class, key_class, value_class)
        conf.set(MULTIPLE_OUTPUTS_KEY, named)

    @staticmethod
    def get_named_outputs(conf: JobConf) -> Dict[str, Tuple[type, type, type]]:
        return dict(conf.get(MULTIPLE_OUTPUTS_KEY) or {})

    def __init__(self, conf: JobConf):
        self._conf = conf
        self._named = self.get_named_outputs(conf)
        self._fs = conf.get(TASK_FS_KEY)
        self._partition = conf.get_int(TASK_PARTITION_KEY, 0)
        if self._fs is None:
            raise RuntimeError(
                "MultipleOutputs needs the task filesystem; run inside an engine"
            )
        self._writers: Dict[str, RecordWriter] = {}

    def collect(self, name: str, reporter: Reporter, key: Any, value: Any) -> None:
        """Emit a pair on the named stream."""
        self._writer(name, reporter).write(key, value)

    def _writer(self, name: str, reporter: Reporter) -> RecordWriter:
        if name not in self._named:
            raise KeyError(f"named output {name!r} was never registered")
        if name not in self._writers:
            format_class, _key_class, _value_class = self._named[name]
            output_format = format_class()
            file_name = f"{name}-r-{self._partition:05d}"
            self._writers[name] = output_format.get_record_writer(
                self._fs, self._conf, file_name, reporter
            )
        return self._writers[name]

    def close(self) -> None:
        """Close all named writers (must be called from the task's close)."""
        for writer in self._writers.values():  # noqa: M3R002 - insertion-ordered dict, deterministic
            writer.close()
        self._writers.clear()
