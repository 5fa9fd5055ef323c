"""The Jaql runner: pipeline operators → HMR jobs.

Consecutive map-side operators (``filter``/``transform``) are fused into a
single map-only job, as Jaql's rewriter does; ``group`` becomes a full
map/shuffle/reduce job; ``sort`` is a total-order sort with driver-side key
sampling; ``top`` is a single-reducer truncation of sorted input.  Records
travel as JSON text lines, and intermediates follow the temporary-output
convention (in-memory on M3R).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput
from repro.api.formats import SequenceFileInputFormat, TextInputFormat
from repro.api.mapred import Mapper, OutputCollector, Reducer, Reporter
from repro.api.writables import NullWritable, Text
from repro.jaql.expr import Jaql, dumps, evaluate_expr, loads
from repro.jaql.parser import (
    FilterOp,
    GroupOp,
    Pipeline,
    SortOp,
    TopOp,
    TransformOp,
    parse_pipeline,
)
from repro.relational.jobs import KEY_EXPR_KEY, CopyMapper, KeyByExprMapper, Runner

JAQL_OPS_KEY = "jaql.fused.ops"
JAQL_GROUP_KEY = "jaql.group.op"


class FusedMapMapper(Mapper, ImmutableOutput):
    """Applies a fused chain of filter/transform ops to each record."""

    def __init__(self) -> None:
        self._ops: List[object] = []

    def configure(self, conf: JobConf) -> None:
        self._ops = conf.get(JAQL_OPS_KEY) or []

    def map(self, key, value: Text, output: OutputCollector,
            reporter: Reporter) -> None:
        line = value.to_string()
        if not line.strip():
            return
        record = loads(line)
        for op in self._ops:
            if isinstance(op, FilterOp):
                if not evaluate_expr(op.predicate, record):
                    return
            elif isinstance(op, TransformOp):
                record = evaluate_expr(op.projection, record)
            else:  # pragma: no cover - parser only emits the two kinds
                raise TypeError(f"unfusable op {type(op).__name__}")
        output.collect(NullWritable.get(), Text(dumps(record)))


class GroupIntoReducer(Reducer, ImmutableOutput):
    def __init__(self) -> None:
        self._group: Optional[GroupOp] = None

    def configure(self, conf: JobConf) -> None:
        self._group = conf.get(JAQL_GROUP_KEY)

    def reduce(self, key: Text, values: Iterator[Text],
               output: OutputCollector, reporter: Reporter) -> None:
        group_key = loads(key.to_string())
        members = [loads(v.to_string()) for v in values]
        result = evaluate_expr(
            self._group.into_expr, record=None, group_key=group_key,
            group_records=members,
        )
        output.collect(NullWritable.get(), Text(dumps(result)))


class JaqlRunner(Runner):
    """Compiles and runs Jaql pipelines against one engine."""

    dialect = Jaql

    def __init__(self, engine, workdir: str = "/jaql",
                 num_reducers: Optional[int] = None):
        super().__init__(engine, workdir, num_reducers)

    # -- public API ------------------------------------------------------- #

    def run(self, source: str) -> str:
        """Run a pipeline; returns the sink path."""
        pipeline = parse_pipeline(source)
        current_path = pipeline.source.path
        current_format = TextInputFormat

        stages = self._fuse(pipeline)
        for index, stage in enumerate(stages):
            last = index == len(stages) - 1
            out = pipeline.sink.path if last else self._temp_path(stage["name"])
            self._run_stage(stage, current_path, current_format, out, last)
            current_path = out
            current_format = SequenceFileInputFormat if not last else None
        return pipeline.sink.path

    def read_output(self, path: str) -> List[Any]:
        """Read a written pipeline output back as JSON records."""
        return [loads(line) for line in self._lines(path)]

    # -- compilation ------------------------------------------------------- #

    def _fuse(self, pipeline: Pipeline) -> List[Dict[str, Any]]:
        """Group pipeline ops into MR stages (consecutive map ops fused)."""
        stages: List[Dict[str, Any]] = []
        pending_maps: List[object] = []

        def flush_maps() -> None:
            if pending_maps:
                stages.append({"name": "map", "kind": "map", "ops": list(pending_maps)})
                pending_maps.clear()

        for op in pipeline.ops:
            if isinstance(op, (FilterOp, TransformOp)):
                pending_maps.append(op)
            elif isinstance(op, GroupOp):
                flush_maps()
                stages.append({"name": "group", "kind": "group", "op": op})
            elif isinstance(op, SortOp):
                flush_maps()
                stages.append({"name": "sort", "kind": "sort", "op": op})
            elif isinstance(op, TopOp):
                flush_maps()
                stages.append({"name": "top", "kind": "top", "op": op})
            else:  # pragma: no cover
                raise TypeError(f"unknown op {type(op).__name__}")
        flush_maps()
        if not stages:
            stages.append({"name": "copy", "kind": "map", "ops": []})
        return stages

    def _run_stage(self, stage: Dict[str, Any], src: str, src_format,
                   out: str, final: bool) -> None:
        kind = stage["kind"]
        name = f"jaql.{kind}"
        if kind == "map":
            conf = self._conf(name, out, src, src_format, final, reducers=0)
            if stage["ops"]:
                conf.set_mapper_class(FusedMapMapper)
                conf.set(JAQL_OPS_KEY, stage["ops"])
            else:
                conf.set_mapper_class(CopyMapper)
        elif kind == "group":
            conf = self._conf(name, out, src, src_format, final)
            conf.set(KEY_EXPR_KEY, stage["op"].key_expr)
            conf.set_mapper_class(KeyByExprMapper)
            conf.set_reducer_class(GroupIntoReducer)
            conf.set(JAQL_GROUP_KEY, stage["op"])
        elif kind == "sort":
            conf = self._sort_conf(name, out, src, src_format, final, stage["op"])
        elif kind == "top":
            conf = self._limit_conf(name, out, src, src_format, final,
                                    stage["op"].count)
        else:  # pragma: no cover
            raise TypeError(kind)
        self._submit(conf)
