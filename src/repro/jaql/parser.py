"""The Jaql pipeline parser: arrow-chained operators."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.jaql.expr import parse_expr
from repro.relational.expr import ExprError, split_top_level, strip_comments, unquote
from repro.relational.jobs import SortOrder


class JaqlParseError(SyntaxError):
    """Raised on malformed pipelines."""


@dataclass
class ReadOp:
    path: str


@dataclass
class FilterOp:
    predicate: tuple


@dataclass
class TransformOp:
    projection: tuple  # an ("obj", ...) or any expression AST


@dataclass
class GroupOp:
    key_expr: tuple
    into_expr: tuple  # evaluated with key/group context


#: A sort stage is the shared total-order sort spec.
SortOp = SortOrder


@dataclass
class TopOp:
    count: int


@dataclass
class WriteOp:
    path: str


@dataclass
class Pipeline:
    source: ReadOp
    ops: List[object] = field(default_factory=list)
    sink: Optional[WriteOp] = None


def _expr(text: str) -> tuple:
    try:
        return parse_expr(text)
    except ExprError as exc:
        raise JaqlParseError(f"bad expression {text!r}: {exc}") from exc


def parse_pipeline(source: str) -> Pipeline:
    """Parse one arrow pipeline."""
    stages = [" ".join(stage.split())
              for stage in split_top_level(strip_comments(source, "//"), "->")]
    if not stages:
        raise JaqlParseError("empty pipeline")

    read = re.match(r"(?i)^read\s*\((.+)\)$", stages[0])
    if not read:
        raise JaqlParseError(f"pipelines start with read(...), got {stages[0]!r}")
    pipeline = Pipeline(source=ReadOp(unquote(read.group(1), JaqlParseError)))

    for stage in stages[1:]:
        if pipeline.sink is not None:
            raise JaqlParseError("write(...) must be the final stage")
        write = re.match(r"(?i)^write\s*\((.+)\)$", stage)
        if write:
            pipeline.sink = WriteOp(unquote(write.group(1), JaqlParseError))
            continue
        filt = re.match(r"(?i)^filter\s+(.+)$", stage)
        if filt:
            pipeline.ops.append(FilterOp(_expr(filt.group(1))))
            continue
        transform = re.match(r"(?i)^transform\s+(.+)$", stage)
        if transform:
            pipeline.ops.append(TransformOp(_expr(transform.group(1))))
            continue
        group = re.match(r"(?i)^group\s+by\s+(.+?)\s+into\s+(.+)$", stage)
        if group:
            pipeline.ops.append(
                GroupOp(_expr(group.group(1)), _expr(group.group(2)))
            )
            continue
        sort = re.match(r"(?i)^sort\s+by\s+(.+?)(\s+desc|\s+asc)?$", stage)
        if sort:
            descending = bool(sort.group(2)) and sort.group(2).strip().lower() == "desc"
            key = sort.group(1)
            pipeline.ops.append(SortOp(_expr(key), key, descending))
            continue
        top = re.match(r"(?i)^top\s+(\d+)$", stage)
        if top:
            pipeline.ops.append(TopOp(int(top.group(1))))
            continue
        raise JaqlParseError(f"cannot parse stage: {stage!r}")

    if pipeline.sink is None:
        raise JaqlParseError("pipeline has no write(...) sink")
    return pipeline
