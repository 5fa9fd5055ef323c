"""The mini Pig layer: expressions, parser, compiler, engine equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pig import (
    DistinctNode,
    ExprError,
    FilterNode,
    ForeachNode,
    GroupNode,
    JoinNode,
    LimitNode,
    LoadNode,
    OrderNode,
    PigParseError,
    PigRunner,
    evaluate,
    parse_expression,
    parse_pig_script,
)
from repro.pig.expr import coerce, fields_used

from conftest import make_hadoop, make_m3r


class TestExpressions:
    def test_arithmetic(self):
        ast = parse_expression("a * 2 + b")
        assert evaluate(ast, {"a": 3.0, "b": 1.0}) == 7.0

    def test_precedence(self):
        assert evaluate(parse_expression("2 + 3 * 4"), {}) == 14.0
        assert evaluate(parse_expression("(2 + 3) * 4"), {}) == 20.0

    def test_comparisons(self):
        row = {"x": 5.0}
        assert evaluate(parse_expression("x >= 5"), row) is True
        assert evaluate(parse_expression("x != 5"), row) is False
        assert evaluate(parse_expression("x < 10 AND x > 0"), row) is True
        assert evaluate(parse_expression("NOT x == 5"), row) is False
        assert evaluate(parse_expression("x == 99 OR x == 5"), row) is True

    def test_strings(self):
        row = {"name": "bob"}
        assert evaluate(parse_expression("name == 'bob'"), row) is True
        assert evaluate(parse_expression('name != "alice"'), row) is True

    def test_modulo_and_unary(self):
        assert evaluate(parse_expression("7 % 3"), {}) == 1.0
        assert evaluate(parse_expression("-x"), {"x": 4.0}) == -4.0

    def test_unknown_field(self):
        with pytest.raises(ExprError):
            evaluate(parse_expression("missing + 1"), {"x": 1.0})

    def test_type_error_on_string_math(self):
        with pytest.raises(ExprError):
            evaluate(parse_expression("name + 1"), {"name": "bob"})

    def test_parse_errors(self):
        for bad in ("a +", "(a", "a ==", "a @ b"):
            with pytest.raises(ExprError):
                parse_expression(bad)

    def test_fields_used(self):
        assert sorted(fields_used(parse_expression("a*b + c > d"))) == list("abcd")

    def test_coerce(self):
        assert coerce("3.5") == 3.5
        assert coerce("abc") == "abc"
        assert coerce("") == ""

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=80)
    def test_arithmetic_property(self, a, b):
        row = {"a": a, "b": b}
        assert evaluate(parse_expression("a + b"), row) == pytest.approx(a + b)
        assert evaluate(parse_expression("a * b"), row) == pytest.approx(a * b)
        assert evaluate(parse_expression("a - b"), row) == pytest.approx(a - b)


class TestPigParser:
    SCRIPT = """
    -- full-surface script
    raw = LOAD '/data/x.txt' AS (a, b, c);
    filtered = FILTER raw BY a > 1 AND c == 'ok';
    shaped = FOREACH filtered GENERATE a, b * 2 AS doubled;
    grouped = GROUP shaped BY a;
    stats = FOREACH grouped GENERATE group, COUNT(shaped) AS n, SUM(shaped.doubled);
    pairs = JOIN shaped BY a, stats BY group;
    uniq = DISTINCT shaped;
    ranked = ORDER stats BY n DESC;
    first = LIMIT ranked 5;
    STORE stats INTO '/out/stats';
    """

    def test_node_types(self):
        script = parse_pig_script(self.SCRIPT)
        types = {alias: type(node) for alias, node in script.nodes.items()}
        assert types["raw"] is LoadNode
        assert types["filtered"] is FilterNode
        assert types["shaped"] is ForeachNode
        assert types["grouped"] is GroupNode
        assert types["stats"] is GroupNode  # aggregation folded
        assert types["pairs"] is JoinNode
        assert types["uniq"] is DistinctNode
        assert types["ranked"] is OrderNode
        assert types["first"] is LimitNode
        assert len(script.stores) == 1

    def test_schemas(self):
        script = parse_pig_script(self.SCRIPT)
        assert script.nodes["raw"].schema.fields == ("a", "b", "c")
        assert script.nodes["shaped"].schema.fields == ("a", "doubled")
        assert script.nodes["stats"].schema.fields == ("group", "n", "sum_doubled")
        assert script.nodes["pairs"].schema.fields == (
            "shaped::a", "shaped::doubled", "stats::group", "stats::n",
            "stats::sum_doubled",
        )

    def test_aggregation_folding(self):
        script = parse_pig_script(self.SCRIPT)
        stats = script.nodes["stats"]
        assert [(f, n) for _, f, n in stats.aggregates] == [
            ("GROUP", ""), ("COUNT", ""), ("SUM", "doubled"),
        ]

    def test_unfolded_foreach_over_group(self):
        script = parse_pig_script(
            "a = LOAD '/x' AS (k, v); g = GROUP a BY k;"
            " plain = FOREACH g GENERATE group;"
        )
        # 'group' alone with no aggregates folds into a GroupNode too.
        assert isinstance(script.nodes["plain"], GroupNode)

    @pytest.mark.parametrize("bad", [
        "x = FILTER missing BY a > 1;",
        "x = LOAD '/p';",  # no schema
        "STORE nothing INTO '/out';",
        "x = ORDER y BY f;",
        "x = JUNK something;",
        "a = LOAD '/x' AS (k, v); s = FOREACH a GENERATE SUM(other.v);",
    ])
    def test_errors(self, bad):
        with pytest.raises(PigParseError):
            parse_pig_script(bad)

    def test_order_by_unknown_field(self):
        with pytest.raises(PigParseError):
            parse_pig_script(
                "a = LOAD '/x' AS (k, v); o = ORDER a BY missing;"
            )


DATA = "\n".join(
    f"{day}\t{item}\t{qty}"
    for day, item, qty in [
        ("mon", "apple", 10), ("mon", "pear", 4), ("tue", "apple", 7),
        ("tue", "plum", 2), ("wed", "apple", 1), ("wed", "pear", 9),
    ]
) + "\n"


SCRIPT = """
sales = LOAD '/data/sales.txt' AS (day, item, qty);
big = FILTER sales BY qty >= 4;
byitem = GROUP big BY item;
stats = FOREACH byitem GENERATE group, COUNT(big) AS n, SUM(big.qty) AS total,
                               MIN(big.qty) AS lo, MAX(big.qty) AS hi;
ranked = ORDER stats BY total DESC;
uniqdays = DISTINCT sales;
top = LIMIT ranked 2;
STORE stats INTO '/out/stats';
STORE ranked INTO '/out/ranked';
STORE top INTO '/out/top';
"""


class TestPigExecution:
    def run_engine(self, factory):
        engine = factory()
        engine.filesystem.write_text("/data/sales.txt", DATA)
        runner = PigRunner(engine, num_reducers=4)
        runner.run(SCRIPT)
        return runner

    def test_equivalent_on_both_engines(self):
        rows = {}
        for factory in (make_hadoop, make_m3r):
            runner = self.run_engine(factory)
            rows[factory.__name__] = {
                "stats": sorted(runner.read_output("/out/stats")),
                "ranked": runner.read_output("/out/ranked"),
                "top": runner.read_output("/out/top"),
            }
        assert rows["make_hadoop"] == rows["make_m3r"]

    def test_aggregate_values(self):
        runner = self.run_engine(make_m3r)
        stats = dict(
            (line.split("\t")[0], line.split("\t")[1:])
            for line in runner.read_output("/out/stats")
        )
        assert stats["apple"] == ["2", "17", "7", "10"]
        assert stats["pear"] == ["2", "13", "4", "9"]
        assert "plum" not in stats  # filtered (qty 2 < 4)

    def test_order_and_limit(self):
        runner = self.run_engine(make_m3r)
        ranked = [line.split("\t")[0] for line in runner.read_output("/out/ranked")]
        assert ranked == ["apple", "pear"]
        assert len(runner.read_output("/out/top")) == 2

    def test_intermediates_temporary_on_m3r(self):
        runner = self.run_engine(make_m3r)
        engine = runner.engine
        temp_files = [
            status.path
            for status in engine.raw_filesystem.list_files_recursive("/pig")
        ] if engine.raw_filesystem.exists("/pig") else []
        assert temp_files == []  # nothing flushed
        assert engine.cache.total_bytes() > 0

    def test_store_without_statement_raises(self):
        engine = make_m3r()
        with pytest.raises(ValueError):
            PigRunner(engine).run("a = LOAD '/x' AS (f);")

    def test_join_cross_product(self):
        engine = make_m3r()
        engine.filesystem.write_text("/l.txt", "1\tx\n1\ty\n2\tz\n")
        engine.filesystem.write_text("/r.txt", "1\tA\n1\tB\n3\tC\n")
        runner = PigRunner(engine, num_reducers=2)
        runner.run(
            "l = LOAD '/l.txt' AS (k, lv); r = LOAD '/r.txt' AS (k2, rv);"
            " j = JOIN l BY k, r BY k2; STORE j INTO '/out/j';"
        )
        rows = sorted(runner.read_output("/out/j"))
        assert rows == sorted([
            "1\tx\t1\tA", "1\tx\t1\tB", "1\ty\t1\tA", "1\ty\t1\tB",
        ])

    def test_distinct(self):
        engine = make_m3r()
        engine.filesystem.write_text("/d.txt", "a\t1\na\t1\nb\t2\n")
        runner = PigRunner(engine, num_reducers=2)
        runner.run("x = LOAD '/d.txt' AS (k, v); u = DISTINCT x;"
                   " STORE u INTO '/out/u';")
        assert sorted(runner.read_output("/out/u")) == ["a\t1", "b\t2"]

    @pytest.mark.parametrize("literal", ["x--y", "x;y"])
    def test_comment_marker_and_separator_inside_quotes(self, literal):
        engine = make_m3r()
        engine.filesystem.write_text("/q.txt", f"{literal}\nz\n")
        runner = PigRunner(engine, num_reducers=2)
        runner.run(f"A = LOAD '/q.txt' AS (b); B = FILTER A BY b == '{literal}';"
                   " STORE B INTO '/out/q';")
        assert runner.read_output("/out/q") == [literal]

    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_order_by_mixed_column_fails_before_the_sort(self, factory):
        engine = factory()
        engine.filesystem.write_text("/m.txt", "a\t1\nb\tzz\nc\t3\n")
        runner = PigRunner(engine, num_reducers=2)
        with pytest.raises(ValueError, match=r"\bv\b.*'zz'"):
            runner.run("x = LOAD '/m.txt' AS (k, v); o = ORDER x BY v;"
                       " STORE o INTO '/out/o';")
        assert [r.job_name for r in runner.results] == ["pig.load[x]"]

    def test_order_ascending_strings(self):
        engine = make_m3r()
        engine.filesystem.write_text("/s.txt", "pear\nzeta\napple\n")
        runner = PigRunner(engine, num_reducers=2)
        runner.run("x = LOAD '/s.txt' AS (w); o = ORDER x BY w;"
                   " STORE o INTO '/out/o';")
        assert runner.read_output("/out/o") == ["apple", "pear", "zeta"]
