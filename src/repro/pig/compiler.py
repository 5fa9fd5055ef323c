"""The Pig compiler/runner: logical plan nodes → HMR jobs.

Each relational operator lowers to one ordinary HMR job (map-only for
FILTER/FOREACH, full map/shuffle/reduce for GROUP/JOIN/DISTINCT/ORDER), and
intermediate relations are sequence files under temporary-convention paths
— so a multi-statement script becomes a Hadoop job pipeline whose
intermediates M3R keeps entirely in memory, while the stock engine writes
and re-reads each one.  Rows travel as tab-separated ``Text``; fields are
coerced Pig-style (numeric-looking text becomes a number).  GROUP keys,
ORDER, LIMIT, LOAD and STORE run the job classes shared with Jaql
(:mod:`repro.relational.jobs`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput
from repro.api.formats import SequenceFileInputFormat, TextInputFormat
from repro.api.mapred import Mapper, OutputCollector, Reducer, Reporter
from repro.api.multiple_io import MultipleInputs
from repro.api.writables import NullWritable, Text
from repro.pig.expr import Pig, coerce, evaluate, format_value, parse_row, row_to_text
from repro.pig.plan import (
    DistinctNode,
    FilterNode,
    ForeachNode,
    GroupNode,
    JoinNode,
    LimitNode,
    LoadNode,
    OrderNode,
    PigScript,
    PlanNode,
    Schema,
)
from repro.pig.parser import parse_pig_script
from repro.relational.jobs import (
    KEY_EXPR_KEY,
    SCHEMA_KEY,
    CopyMapper,
    KeyByExprMapper,
    Runner,
    SortOrder,
)

PIG_NODE_KEY = "pig.plan.node"
PIG_SIDE_KEY = "pig.join.side"
_JOIN_SEP = "\x01"


class _RowMapperBase(Mapper, ImmutableOutput):
    """Shared plumbing: resolve the plan node + input schema from the conf
    and normalize the record into a row dict."""

    def __init__(self) -> None:
        self.node: Optional[PlanNode] = None
        self.schema: Optional[Schema] = None

    def configure(self, conf: JobConf) -> None:
        self.node = conf.get(PIG_NODE_KEY)
        self.schema = conf.get(SCHEMA_KEY)

    def _row(self, value: Text) -> Dict[str, Any]:
        return parse_row(value.to_string(), self.schema)


class FilterMapper(_RowMapperBase):
    def map(self, key, value: Text, output: OutputCollector, reporter: Reporter) -> None:
        row = self._row(value)
        if evaluate(self.node.predicate, row):
            output.collect(NullWritable.get(), Text(value.to_string()))


class ForeachMapper(_RowMapperBase):
    def map(self, key, value: Text, output: OutputCollector, reporter: Reporter) -> None:
        row = self._row(value)
        projected = [evaluate(ast, row) for _, ast in self.node.projections]
        output.collect(NullWritable.get(), row_to_text(projected))


class BareGroupReducer(Reducer, ImmutableOutput):
    """GROUP without aggregation: emit (group, original row) tuples."""

    def reduce(self, key: Text, values: Iterator[Text], output: OutputCollector,
               reporter: Reporter) -> None:
        for value in values:
            output.collect(
                NullWritable.get(), Text(f"{key.to_string()}\t{value.to_string()}")
            )


class AggregatingGroupReducer(Reducer, ImmutableOutput):
    """GROUP with folded aggregates: one output row per group."""

    def __init__(self) -> None:
        self.node: Optional[GroupNode] = None
        self.source_schema: Optional[Schema] = None

    def configure(self, conf: JobConf) -> None:
        self.node = conf.get(PIG_NODE_KEY)
        self.source_schema = conf.get(SCHEMA_KEY)

    def reduce(self, key: Text, values: Iterator[Text], output: OutputCollector,
               reporter: Reporter) -> None:
        count = 0
        sums: Dict[str, float] = {}
        mins: Dict[str, float] = {}
        maxs: Dict[str, float] = {}
        needed = {field for _, func, field in self.node.aggregates if field}
        for value in values:
            count += 1
            if needed:
                row = parse_row(value.to_string(), self.source_schema)
                for field in needed:
                    x = float(row[field])
                    sums[field] = sums.get(field, 0.0) + x
                    mins[field] = min(mins.get(field, x), x)
                    maxs[field] = max(maxs.get(field, x), x)
        out: List[Any] = []
        for _, func, field in self.node.aggregates:
            if func == "GROUP":
                out.append(coerce(key.to_string()))
            elif func == "COUNT":
                out.append(float(count))
            elif func == "SUM":
                out.append(sums.get(field, 0.0))
            elif func == "AVG":
                out.append(sums.get(field, 0.0) / count if count else 0.0)
            elif func == "MIN":
                out.append(mins.get(field, 0.0))
            elif func == "MAX":
                out.append(maxs.get(field, 0.0))
            else:
                raise ValueError(f"unknown aggregate {func!r}")
        output.collect(NullWritable.get(), row_to_text(out))


class JoinSideMapper(_RowMapperBase):
    """Tags one side of a join; the side and key come from the conf."""

    def __init__(self) -> None:
        super().__init__()
        self._side = "L"
        self._key_expr: Optional[tuple] = None

    def configure(self, conf: JobConf) -> None:
        super().configure(conf)
        self._side = conf.get(PIG_SIDE_KEY, "L")
        node: JoinNode = self.node
        self._key_expr = node.left_key if self._side == "L" else node.right_key

    def map(self, key, value: Text, output: OutputCollector, reporter: Reporter) -> None:
        row = self._row(value)
        join_key = evaluate(self._key_expr, row)
        output.collect(
            Text(format_value(join_key)),
            Text(f"{self._side}{_JOIN_SEP}{value.to_string()}"),
        )


class LeftJoinMapper(JoinSideMapper):
    def configure(self, conf: JobConf) -> None:
        conf = JobConf(conf)
        conf.set(PIG_SIDE_KEY, "L")
        conf.set(SCHEMA_KEY, conf.get("pig.join.left.schema"))
        super().configure(conf)


class RightJoinMapper(JoinSideMapper):
    def configure(self, conf: JobConf) -> None:
        conf = JobConf(conf)
        conf.set(PIG_SIDE_KEY, "R")
        conf.set(SCHEMA_KEY, conf.get("pig.join.right.schema"))
        super().configure(conf)


class JoinReducer(Reducer, ImmutableOutput):
    def reduce(self, key: Text, values: Iterator[Text], output: OutputCollector,
               reporter: Reporter) -> None:
        left_rows: List[str] = []
        right_rows: List[str] = []
        for value in values:
            side, _, payload = value.to_string().partition(_JOIN_SEP)
            (left_rows if side == "L" else right_rows).append(payload)
        for l_row in left_rows:
            for r_row in right_rows:
                output.collect(NullWritable.get(), Text(f"{l_row}\t{r_row}"))


class DistinctMapper(Mapper, ImmutableOutput):
    def map(self, key, value: Text, output: OutputCollector, reporter: Reporter) -> None:
        output.collect(Text(value.to_string()), NullWritable.get())


class DistinctReducer(Reducer, ImmutableOutput):
    def reduce(self, key: Text, values: Iterator, output: OutputCollector,
               reporter: Reporter) -> None:
        output.collect(NullWritable.get(), Text(key.to_string()))


class PigRunner(Runner):
    """Compiles and runs Pig scripts against one engine."""

    dialect = Pig

    def __init__(self, engine, workdir: str = "/pig", num_reducers: Optional[int] = None):
        super().__init__(engine, workdir, num_reducers)
        self._materialized: Dict[str, str] = {}

    def run(self, source: str) -> List[str]:
        """Run a script; returns the STORE output paths in statement order."""
        script = parse_pig_script(source)
        if not script.stores:
            raise ValueError("script has no STORE statement; nothing to execute")
        outputs: List[str] = []
        for store in script.stores:
            intermediate = self._materialize(script, store.source)
            conf = self._conf(f"pig.store[{store.source}]", store.path,
                              intermediate, SequenceFileInputFormat,
                              final=True, reducers=0)
            conf.set_mapper_class(CopyMapper)
            self._submit(conf)
            outputs.append(store.path)
        return outputs

    def _input(self, script: PigScript, source: str) -> Tuple[str, type]:
        """Where a job reads relation ``source``: a LOAD's text directly,
        any other relation from its materialized sequence file."""
        node = script.nodes[source]
        if isinstance(node, LoadNode):
            return node.path, TextInputFormat
        return self._materialize(script, source), SequenceFileInputFormat

    def _job(self, name: str, node: PlanNode, out: str, script: PigScript,
             source: str, reducers: Optional[int] = None) -> JobConf:
        """A job over relation ``source`` that carries ``node``."""
        src, src_format = self._input(script, source)
        conf = self._conf(name, out, src, src_format, final=False,
                          reducers=reducers)
        conf.set(PIG_NODE_KEY, node)
        conf.set(SCHEMA_KEY, script.nodes[source].schema)
        return conf

    def _materialize(self, script: PigScript, alias: str) -> str:
        """Run the job(s) producing ``alias``; returns its data path."""
        if alias in self._materialized:
            return self._materialized[alias]
        node = script.nodes[alias]
        out = self._temp_path(alias)
        if isinstance(node, LoadNode):
            # Normalize text input once into the row encoding.
            conf = self._conf(f"pig.load[{alias}]", out, node.path,
                              TextInputFormat, final=False, reducers=0)
            conf.set_mapper_class(CopyMapper)
        elif isinstance(node, FilterNode):
            conf = self._job(f"pig.filter[{alias}]", node, out, script,
                             node.source, reducers=0)
            conf.set_mapper_class(FilterMapper)
        elif isinstance(node, ForeachNode):
            conf = self._job(f"pig.foreach[{alias}]", node, out, script,
                             node.source, reducers=0)
            conf.set_mapper_class(ForeachMapper)
        elif isinstance(node, GroupNode):
            conf = self._job(f"pig.group[{alias}]", node, out, script, node.source)
            conf.set(KEY_EXPR_KEY, node.key_expr)
            conf.set_mapper_class(KeyByExprMapper)
            conf.set_reducer_class(
                AggregatingGroupReducer if node.aggregates else BareGroupReducer
            )
        elif isinstance(node, JoinNode):
            conf = self._conf(f"pig.join[{alias}]", out)
            conf.set(PIG_NODE_KEY, node)
            for side, source, mapper in (("left", node.left_source, LeftJoinMapper),
                                         ("right", node.right_source, RightJoinMapper)):
                conf.set(f"pig.join.{side}.schema", script.nodes[source].schema)
                MultipleInputs.add_input_path(conf, self._materialize(script, source),
                                              SequenceFileInputFormat, mapper)
            conf.set_reducer_class(JoinReducer)
        elif isinstance(node, DistinctNode):
            conf = self._job(f"pig.distinct[{alias}]", node, out, script, node.source)
            conf.set_mapper_class(DistinctMapper)
            conf.set_reducer_class(DistinctReducer)
        elif isinstance(node, OrderNode):
            order = SortOrder(("field", node.order_field), node.order_field,
                              node.descending)
            conf = self._sort_conf(f"pig.order[{alias}]", out,
                                   self._materialize(script, node.source),
                                   SequenceFileInputFormat, False, order, node.schema)
        elif isinstance(node, LimitNode):
            src, src_format = self._input(script, node.source)
            conf = self._limit_conf(f"pig.limit[{alias}]", out, src, src_format,
                                    False, node.count)
        else:
            raise TypeError(f"cannot compile node {type(node).__name__}")
        self._submit(conf)
        self._materialized[alias] = out
        return out
