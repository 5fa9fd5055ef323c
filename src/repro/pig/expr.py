"""Pig's dialect of the shared expression language.

FILTER predicates, FOREACH projections and GROUP / JOIN keys are
expressions of :mod:`repro.relational.expr`.  Pig supplies bare field
names, case-insensitive ``AND`` / ``OR`` / ``NOT``, and its
bytearray-with-coercion typing reduced to its observable essentials:
fields parse as floats when they look numeric, otherwise stay strings,
and arithmetic coerces numeric-looking strings.  A field the row lacks
raises.  Rows travel as tab-separated text decoded against a
:class:`~repro.pig.plan.Schema`.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Union

from repro.api.writables import DoubleWritable, Text
from repro.pig.plan import Schema
from repro.relational.expr import Dialect, ExprError, Parser
from repro.relational.expr import evaluate as _evaluate
from repro.relational.expr import parse

Value = Union[float, str, bool]


def coerce(value: str) -> Value:
    """Pig's implicit coercion: numeric-looking text becomes a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return value


def format_value(value: Any) -> str:
    """Render a field for the tab-separated row encoding."""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def row_to_text(values: List[Any]) -> Text:
    return Text("\t".join(format_value(v) for v in values))


def parse_row(line: str, schema: Schema) -> Dict[str, Any]:
    parts = line.split("\t")
    if len(parts) < len(schema.fields):
        parts = parts + [""] * (len(schema.fields) - len(parts))
    return {name: coerce(parts[i]) for i, name in enumerate(schema.fields)}


def _atom(parser: Parser, kind: str, text: str) -> tuple:
    if kind == "NAME":
        return ("field", text)
    raise ExprError(f"unexpected token {text!r}")


def _field(ast: tuple, row: Dict[str, Value]) -> Value:
    name = ast[1]
    if name not in row:
        raise ExprError(f"unknown field {name!r}; row has {sorted(row)}")
    return row[name]


class Pig(Dialect):
    keywords = re.compile("and|or|not", re.IGNORECASE)
    atom = staticmethod(_atom)
    numeric = (int, float, str)
    leaves = {"field": _field}
    decode = staticmethod(parse_row)
    encode_key = staticmethod(format_value)
    sort_keys = {float: DoubleWritable, str: Text}


def parse_expression(text: str) -> tuple:
    """Parse one Pig expression to its tuple AST."""
    return parse(text, Pig)


def evaluate(ast: tuple, row: Dict[str, Value]) -> Value:
    """Evaluate an expression AST against one row (field → value)."""
    return _evaluate(ast, row, Pig)


def fields_used(ast: tuple) -> List[str]:
    """All field names referenced by an expression (for schema checks)."""
    kind = ast[0]
    if kind == "field":
        return [ast[1]]
    if kind == "un":
        return fields_used(ast[2])
    if kind == "bin":
        return fields_used(ast[2]) + fields_used(ast[3])
    return []
