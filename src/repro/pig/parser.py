"""Pig Latin parser.

Supports the statement forms the BigSheets-style workloads exercise::

    A = LOAD '/path' AS (f1, f2, f3);
    B = FILTER A BY f2 > 10 AND f1 != 'x';
    C = FOREACH B GENERATE f1, f2 * 2 AS doubled;
    D = GROUP C BY f1;
    E = FOREACH D GENERATE group, COUNT(C) AS n, SUM(C.doubled) AS total;
    F = JOIN A BY f1, C BY f1;
    G = DISTINCT C;
    H = ORDER E BY total DESC;
    I = LIMIT H 10;
    STORE E INTO '/out/e';

Statements end with ``;``; ``--`` starts a comment; neither counts inside
quotes.  An aggregating FOREACH over a grouped relation is folded into the
group (which is how Pig's compiler produces a single MR job with a combiner
for it).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.pig.expr import parse_expression
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
    Schema,
    StoreStatement,
)
from repro.relational.expr import ExprError, split_top_level, strip_comments, unquote

_AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class PigParseError(SyntaxError):
    """Raised on malformed Pig Latin."""


def _expr(text: str):
    """Parse an embedded expression, converting failures to parse errors."""
    try:
        return parse_expression(text)
    except ExprError as exc:
        raise PigParseError(f"bad expression {text!r}: {exc}") from exc


def parse_pig_script(source: str) -> PigScript:
    """Parse a Pig Latin script into a :class:`PigScript` plan."""
    script = PigScript()
    for statement in split_top_level(strip_comments(source, "--"), ";"):
        _parse_statement(" ".join(statement.split()), script)
    return script


def _require_alias(script: PigScript, alias: str) -> None:
    if alias not in script.nodes:
        raise PigParseError(f"relation {alias!r} is not defined")


def _add(script: PigScript, node) -> None:
    script.nodes[node.alias] = node
    script.order.append(node.alias)


def _parse_statement(text: str, script: PigScript) -> None:
    store = re.match(r"(?i)^STORE\s+(\w+)\s+INTO\s+(.+)$", text)
    if store:
        alias = store.group(1)
        _require_alias(script, alias)
        path = unquote(store.group(2), PigParseError)
        script.stores.append(StoreStatement(alias, path))
        return

    assign = re.match(r"^(\w+)\s*=\s*(.+)$", text)
    if not assign:
        raise PigParseError(f"cannot parse statement: {text!r}")
    alias, body = assign.group(1), assign.group(2)

    load = re.match(r"(?i)^LOAD\s+(\S+)\s+AS\s+\((.+)\)$", body)
    if load:
        fields = tuple(f.strip() for f in load.group(2).split(","))
        path = unquote(load.group(1), PigParseError)
        _add(script, LoadNode(alias, path, Schema(fields)))
        return

    filt = re.match(r"(?i)^FILTER\s+(\w+)\s+BY\s+(.+)$", body)
    if filt:
        source = filt.group(1)
        _require_alias(script, source)
        _add(
            script,
            FilterNode(alias, source, _expr(filt.group(2)),
                       script.nodes[source].schema),
        )
        return

    foreach = re.match(r"(?i)^FOREACH\s+(\w+)\s+GENERATE\s+(.+)$", body)
    if foreach:
        source = foreach.group(1)
        _require_alias(script, source)
        _parse_foreach(alias, source, foreach.group(2), script)
        return

    group = re.match(r"(?i)^GROUP\s+(\w+)\s+BY\s+(.+)$", body)
    if group:
        source = group.group(1)
        _require_alias(script, source)
        source_schema = script.nodes[source].schema
        _add(
            script,
            GroupNode(
                alias, source, _expr(group.group(2)), aggregates=[],
                schema=Schema(("group",) + source_schema.fields),
            ),
        )
        return

    join = re.match(
        r"(?i)^JOIN\s+(\w+)\s+BY\s+(.+?)\s*,\s*(\w+)\s+BY\s+(.+)$", body
    )
    if join:
        left, left_key, right, right_key = join.groups()
        _require_alias(script, left)
        _require_alias(script, right)
        left_schema = script.nodes[left].schema
        right_schema = script.nodes[right].schema
        joined = tuple(f"{left}::{f}" for f in left_schema.fields) + tuple(
            f"{right}::{f}" for f in right_schema.fields
        )
        _add(
            script,
            JoinNode(alias, left, _expr(left_key), right,
                     _expr(right_key), Schema(joined)),
        )
        return

    distinct = re.match(r"(?i)^DISTINCT\s+(\w+)$", body)
    if distinct:
        source = distinct.group(1)
        _require_alias(script, source)
        _add(script, DistinctNode(alias, source, script.nodes[source].schema))
        return

    order = re.match(r"(?i)^ORDER\s+(\w+)\s+BY\s+(\w+)(\s+DESC|\s+ASC)?$", body)
    if order:
        source = order.group(1)
        _require_alias(script, source)
        schema = script.nodes[source].schema
        field = order.group(2)
        if field not in schema:
            raise PigParseError(f"ORDER BY unknown field {field!r}")
        descending = bool(order.group(3)) and order.group(3).strip().upper() == "DESC"
        _add(script, OrderNode(alias, source, field, descending, schema))
        return

    limit = re.match(r"(?i)^LIMIT\s+(\w+)\s+(\d+)$", body)
    if limit:
        source = limit.group(1)
        _require_alias(script, source)
        _add(
            script,
            LimitNode(alias, source, int(limit.group(2)),
                      script.nodes[source].schema),
        )
        return

    raise PigParseError(f"cannot parse statement: {text!r}")


def _parse_foreach(alias: str, source: str, generate: str, script: PigScript) -> None:
    source_node = script.nodes[source]
    items = split_top_level(generate, ",")

    if isinstance(source_node, GroupNode) and not source_node.aggregates:
        folded = _try_fold_aggregates(alias, source_node, items)
        if folded is not None:
            _add(script, folded)
            return

    projections: List[Tuple[str, tuple]] = []
    names: List[str] = []
    for index, item in enumerate(items):
        expr_text, name = _split_as(item)
        ast = _expr(expr_text)
        if name is None:
            name = expr_text if ast[0] == "field" else f"col{index}"
        projections.append((name, ast))
        names.append(name)
    _add(script, ForeachNode(alias, source, projections, Schema(tuple(names))))


def _split_as(item: str) -> Tuple[str, Optional[str]]:
    match = re.match(r"(?i)^(.*?)\s+AS\s+(\w+)$", item)
    if match:
        return match.group(1).strip(), match.group(2)
    return item.strip(), None


def _try_fold_aggregates(
    alias: str, group_node: GroupNode, items: List[str]
) -> Optional[GroupNode]:
    """Fold ``FOREACH grouped GENERATE group, AGG(rel.field) ...`` into the
    group node; returns None when the projection is not pure aggregation."""
    aggregates: List[Tuple[str, str, str]] = []
    names: List[str] = []
    for index, item in enumerate(items):
        expr_text, name = _split_as(item)
        if expr_text.lower() == "group":
            names.append(name or "group")
            aggregates.append((names[-1], "GROUP", ""))
            continue
        agg = re.match(
            r"(?i)^(COUNT|SUM|AVG|MIN|MAX)\s*\(\s*(\w+)(?:\.(\w+))?\s*\)$", expr_text
        )
        if agg is None:
            return None
        func = agg.group(1).upper()
        relation = agg.group(2)
        field = agg.group(3) or ""
        if relation != group_node.source:
            raise PigParseError(
                f"aggregate over {relation!r}, but the group packs "
                f"{group_node.source!r}"
            )
        if func != "COUNT" and not field:
            raise PigParseError(f"{func} needs a field, e.g. {func}({relation}.x)")
        out_name = name or (func.lower() if not field else f"{func.lower()}_{field}")
        aggregates.append((out_name, func, field))
        names.append(out_name)
    return GroupNode(
        alias,
        group_node.source,
        group_node.key_expr,
        aggregates,
        Schema(tuple(names)),
    )
