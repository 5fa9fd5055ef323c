"""Jaql's dialect of the shared expression language.

``$`` is the current record; ``$.a.b`` navigates objects (a missing step
is ``null``); ``true``, ``false`` and ``null`` are literals and
``{ name: expr, ... }`` builds an object.  Arithmetic takes numbers only.
Inside a ``group ... into`` body, ``key`` denotes the group key and the
aggregate functions ``count($)``, ``sum($.f)``, ``avg($.f)``, ``min($.f)``,
``max($.f)`` fold over the group's records.  Records travel as JSON text.

Atoms beyond :mod:`repro.relational.expr`'s::

    atom    := 'true' | 'false' | 'null' | 'key'
             | PATH | AGG '(' (PATH|'$') ')'
             | '{' (NAME ':' expr (',' NAME ':' expr)*)? '}'
    PATH    := '$' ('.' NAME)*
"""

from __future__ import annotations

import json
import re
from typing import Any, List, NamedTuple, Optional, Sequence

from repro.api.writables import DoubleWritable
from repro.relational.expr import Dialect, ExprError, Parser
from repro.relational.expr import evaluate as _evaluate
from repro.relational.expr import parse

AGG_FUNCS = ("count", "sum", "avg", "min", "max")
_LITERALS = {"true": True, "false": False, "null": None}


class Scope(NamedTuple):
    """What a Jaql expression sees: the record and, inside
    ``group ... into``, the group key and members."""

    record: Any
    key: Any = None
    members: Optional[List[Any]] = None


def dumps(record: Any) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def loads(line: str) -> Any:
    return json.loads(line)


def _path(text: str) -> tuple:
    return tuple(text.split(".")[1:])


def _atom(parser: Parser, kind: str, text: str) -> tuple:
    if kind == "PATH":
        return ("path", _path(text))
    if kind == "KW" and text in _LITERALS:
        return ("lit", _LITERALS[text])
    if (kind, text) == ("KW", "key"):
        return ("key",)
    if kind == "NAME" and text in AGG_FUNCS:
        parser.expect("(")
        arg_kind, arg = parser.take()
        if arg_kind != "PATH":
            raise ExprError(f"{text}() takes $ or a $.field path, got {arg!r}")
        parser.expect(")")
        return ("agg", text, _path(arg))
    if (kind, text) == ("OP", "{"):
        fields = []
        if parser.peek() != ("OP", "}"):
            while True:
                name_kind, name = parser.take()
                if name_kind not in ("NAME", "KW"):
                    raise ExprError(f"bad field name {name!r}")
                parser.expect(":")
                fields.append((name, parser.expr()))
                if parser.peek() != ("OP", ","):
                    break
                parser.take()
        parser.expect("}")
        return ("obj", tuple(fields))
    raise ExprError(f"unexpected token {text!r}")


def _navigate(record: Any, parts: Sequence[str]) -> Any:
    current = record
    for part in parts:
        if isinstance(current, dict):
            current = current.get(part)
        else:
            return None
    return current


def _aggregate(ast: tuple, scope: Scope) -> Any:
    if scope.members is None:
        raise ExprError(f"{ast[1]}() is only valid inside group ... into")
    if ast[1] == "count":
        return float(len(scope.members))
    values = [_navigate(member, ast[2]) for member in scope.members]
    numbers = [float(v) for v in values if v is not None]
    if not numbers:
        return None
    if ast[1] == "sum":
        return float(sum(numbers))
    if ast[1] == "avg":
        return float(sum(numbers) / len(numbers))
    if ast[1] == "min":
        return float(min(numbers))
    if ast[1] == "max":
        return float(max(numbers))
    raise ExprError(f"unknown aggregate {ast[1]!r}")


def _decode(line: str, schema: Any) -> Scope:
    return Scope(loads(line))


class Jaql(Dialect):
    keywords = re.compile("and|or|not|true|false|null|key")
    atom = staticmethod(_atom)
    numeric = (int, float)
    leaves = {
        "path": lambda ast, scope: _navigate(scope.record, ast[1]),
        "key": lambda ast, scope: scope.key,
        "agg": _aggregate,
        "obj": lambda ast, scope: {name: _evaluate(sub, scope, Jaql)
                                   for name, sub in ast[1]},
    }
    decode = staticmethod(_decode)
    encode_key = staticmethod(dumps)
    sort_keys = {int: DoubleWritable, float: DoubleWritable}


def parse_expr(text: str) -> tuple:
    """Parse one Jaql expression to its AST."""
    return parse(text, Jaql)


def evaluate_expr(
    ast: tuple,
    record: Any,
    group_key: Any = None,
    group_records: Optional[List[Any]] = None,
) -> Any:
    """Evaluate an AST against one record (or, for aggregates, a group)."""
    return _evaluate(ast, Scope(record, group_key, group_records), Jaql)
