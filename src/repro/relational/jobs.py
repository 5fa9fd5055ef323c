"""The job classes and runner plumbing Pig and Jaql share.

Both front-ends lower their operators onto the same few HMR jobs: a copy,
a group key, a total-order sort sampled before submission, and a
single-reducer limit.  The jobs read the language's :class:`Dialect` from
the conf, so the same job classes (and so the same ReStore fingerprints)
serve both languages.  Intermediates are sequence files under the
temporary-output naming convention, in memory on M3R.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterator, List, Optional

from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput
from repro.api.formats import (
    SequenceFileOutputFormat,
    TextInputFormat,
    TextOutputFormat,
)
from repro.api.mapred import Mapper, OutputCollector, Reducer, Reporter
from repro.api.partitioner import TotalOrderPartitioner
from repro.api.writables import DoubleWritable, IntWritable, NullWritable, Text
from repro.engine_common import EngineResult
from repro.relational.expr import evaluate

DIALECT_KEY = "relational.dialect"
SCHEMA_KEY = "relational.schema"
KEY_EXPR_KEY = "relational.key.expr"
ORDER_KEY = "relational.sort.order"
LIMIT_KEY = "relational.limit"


@dataclass(frozen=True)
class SortOrder:
    """A total-order sort: the key expression, how the script wrote it
    (for error messages) and the direction."""

    key_expr: tuple
    label: str
    descending: bool


def sort_key(value: Any, order: SortOrder, dialect: type) -> Any:
    """The shuffle key a sort value sorts as (numbers negated to sort
    descending); ``ValueError`` when the value cannot be one."""
    key_class = dialect.sort_keys.get(type(value))
    if key_class is DoubleWritable:
        return DoubleWritable(-float(value) if order.descending else float(value))
    if key_class is not None and not order.descending:
        return key_class(value)
    direction = " desc" if order.descending else ""
    raise ValueError(f"cannot sort by {order.label}{direction}: "
                     f"{value!r} is not a sortable key")


class CopyMapper(Mapper, ImmutableOutput):
    """Emits each record unchanged under a null key."""

    def map(self, key, value: Text, output: OutputCollector,
            reporter: Reporter) -> None:
        output.collect(NullWritable.get(), Text(value.to_string()))


class EmitValuesReducer(Reducer, ImmutableOutput):
    """Emits each value under a null key, dropping the shuffle key."""

    def reduce(self, key, values: Iterator[Text], output: OutputCollector,
               reporter: Reporter) -> None:
        for value in values:
            output.collect(NullWritable.get(), Text(value.to_string()))


class LimitMapper(Mapper, ImmutableOutput):
    """Keys every record 0 so one reducer sees the whole (ordered) stream."""

    def map(self, key, value: Text, output: OutputCollector,
            reporter: Reporter) -> None:
        output.collect(IntWritable(0), Text(value.to_string()))


class LimitReducer(EmitValuesReducer):
    """Emits the first ``relational.limit`` values."""

    def configure(self, conf: JobConf) -> None:
        self._limit = conf.get_int(LIMIT_KEY, 0)

    def reduce(self, key, values: Iterator[Text], output: OutputCollector,
               reporter: Reporter) -> None:
        super().reduce(key, islice(values, self._limit), output, reporter)


class KeyByExprMapper(Mapper, ImmutableOutput):
    """Keys each record by an expression's value, as the dialect encodes
    a grouping key; the record travels unchanged."""

    def configure(self, conf: JobConf) -> None:
        self.dialect = conf.get(DIALECT_KEY)
        self.schema = conf.get(SCHEMA_KEY)
        self.key_expr = conf.get(KEY_EXPR_KEY)

    def map(self, key, value: Text, output: OutputCollector,
            reporter: Reporter) -> None:
        line = value.to_string()
        scope = self.dialect.decode(line, self.schema)
        output.collect(self.key(evaluate(self.key_expr, scope, self.dialect)),
                       Text(line))

    def key(self, value: Any) -> Any:
        return Text(self.dialect.encode_key(value))


class SortKeyMapper(KeyByExprMapper):
    """Keys each record by its :func:`sort_key`."""

    def configure(self, conf: JobConf) -> None:
        super().configure(conf)
        self.order = conf.get(ORDER_KEY)
        self.key_expr = self.order.key_expr

    def key(self, value: Any) -> Any:
        return sort_key(value, self.order, self.dialect)


class Runner:
    """Compiles one language's scripts and runs them against one engine;
    a subclass sets :attr:`dialect`."""

    dialect: type

    def __init__(self, engine, workdir: str, num_reducers: Optional[int] = None):
        self.engine = engine
        self.workdir = workdir.rstrip("/")
        self.num_reducers = (
            num_reducers if num_reducers is not None else engine.cluster.num_nodes
        )
        self.results: List[EngineResult] = []
        self._counter = 0

    @property
    def total_seconds(self) -> float:
        return sum(r.simulated_seconds for r in self.results)

    @property
    def jobs_run(self) -> int:
        return len(self.results)

    def read_output(self, path: str) -> List[str]:
        """Read a stored output back as text rows."""
        return self._lines(path)

    def _lines(self, path: str) -> List[str]:
        """The non-empty lines of ``path``'s data files, in part order."""
        fs = self.engine.filesystem
        lines: List[str] = []
        for status in sorted(fs.list_files_recursive(path), key=lambda s: s.path):
            basename = status.path.rsplit("/", 1)[-1]
            if basename.startswith((".", "_")):
                continue
            lines.extend(line for line in fs.read_text(status.path).splitlines()
                         if line)
        return lines

    def _temp_path(self, name: str) -> str:
        self._counter += 1
        return f"{self.workdir}/temp-{name}-{self._counter}"

    def _submit(self, conf: JobConf) -> EngineResult:
        result = self.engine.run_job(conf)
        self.results.append(result)
        if not result.succeeded:
            raise RuntimeError(f"job {conf.get_job_name()!r} failed: {result.error}")
        return result

    def _conf(self, name: str, out: str, src: Optional[str] = None,
              src_format: Optional[type] = None, final: bool = False,
              reducers: Optional[int] = None) -> JobConf:
        """A job writing ``out`` (text when ``final``, else a sequence
        file) and, given ``src``, reading it."""
        conf = JobConf()
        conf.set_job_name(name)
        if src is not None:
            conf.set_input_paths(src)
            conf.set_input_format(src_format)
        conf.set_output_path(out)
        conf.set_output_format(TextOutputFormat if final else SequenceFileOutputFormat)
        conf.set_num_reduce_tasks(self.num_reducers if reducers is None else reducers)
        conf.set(DIALECT_KEY, self.dialect)
        return conf

    def _sort_conf(self, name: str, out: str, src: str, src_format: type,
                   final: bool, order: SortOrder, schema: Any = None) -> JobConf:
        """A total-order sort.  The runner samples every key first, the
        way Pig and Jaql run a sampling pass, so a bad key fails before
        the job is submitted."""
        if src_format is TextInputFormat:
            lines = self._lines(src)
        else:
            lines = [v.to_string() for _, v in self.engine.filesystem.read_kv_pairs(src)]
        sample: List[Any] = []
        for line in lines:
            value = evaluate(order.key_expr, self.dialect.decode(line, schema),
                             self.dialect)
            key = sort_key(value, order, self.dialect)
            if sample and type(key) is not type(sample[0]):
                raise ValueError(f"cannot sort by {order.label}: {value!r} does "
                                 f"not sort with {type(sample[0]).__name__} keys")
            sample.append(key)
        reducers = min(self.num_reducers, max(1, len(sample)))
        cuts = TotalOrderPartitioner.sample_cut_points(sample, reducers)
        conf = self._conf(name, out, src, src_format, final, reducers=len(cuts) + 1)
        conf.set(SCHEMA_KEY, schema)
        conf.set(ORDER_KEY, order)
        conf.set_mapper_class(SortKeyMapper)
        conf.set_reducer_class(EmitValuesReducer)
        conf.set_partitioner_class(TotalOrderPartitioner)
        conf.set("total.order.partitioner.cuts", cuts)
        return conf

    def _limit_conf(self, name: str, out: str, src: str, src_format: type,
                    final: bool, count: int) -> JobConf:
        """The first ``count`` records, in input order, through one reducer."""
        conf = self._conf(name, out, src, src_format, final, reducers=1)
        conf.set_int(LIMIT_KEY, count)
        conf.set_mapper_class(LimitMapper)
        conf.set_reducer_class(LimitReducer)
        return conf
