"""The mini Jaql layer: expressions, pipeline parser, compiler, engines."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jaql import (
    ExprError,
    JaqlParseError,
    JaqlRunner,
    evaluate_expr,
    parse_expr,
    parse_pipeline,
)
from repro.jaql.parser import FilterOp, GroupOp, SortOp, TopOp, TransformOp

from conftest import make_hadoop, make_m3r


class TestExpressions:
    def test_path_navigation(self):
        record = {"a": {"b": 3}, "c": "x"}
        assert evaluate_expr(parse_expr("$.a.b"), record) == 3
        assert evaluate_expr(parse_expr("$.c"), record) == "x"
        assert evaluate_expr(parse_expr("$.missing"), record) is None
        assert evaluate_expr(parse_expr("$.a.b.c"), record) is None

    def test_whole_record(self):
        record = {"k": 1}
        assert evaluate_expr(parse_expr("$"), record) == record

    def test_arithmetic_and_comparison(self):
        record = {"x": 10, "y": 4}
        assert evaluate_expr(parse_expr("$.x + $.y * 2"), record) == 18
        assert evaluate_expr(parse_expr("$.x % $.y"), record) == 2
        assert evaluate_expr(parse_expr("$.x > 5 and not ($.y == 4)"), record) is False
        assert evaluate_expr(parse_expr("$.x == 10 or $.y > 100"), record) is True

    def test_literals(self):
        assert evaluate_expr(parse_expr("true"), {}) is True
        assert evaluate_expr(parse_expr("null"), {}) is None
        assert evaluate_expr(parse_expr("'text'"), {}) == "text"
        assert evaluate_expr(parse_expr("-2.5"), {}) == -2.5

    def test_object_construction(self):
        record = {"name": "ada", "age": 36}
        projected = evaluate_expr(
            parse_expr("{ who: $.name, next: $.age + 1 }"), record
        )
        assert projected == {"who": "ada", "next": 37}

    def test_empty_object(self):
        assert evaluate_expr(parse_expr("{}"), {"x": 1}) == {}

    def test_aggregates_require_group_context(self):
        with pytest.raises(ExprError):
            evaluate_expr(parse_expr("count($)"), {"x": 1})

    def test_aggregates(self):
        group = [{"v": 1}, {"v": 3}, {"v": 5}, {"other": 9}]
        env = dict(record=None, group_key="k", group_records=group)
        assert evaluate_expr(parse_expr("count($)"), **env) == 4.0
        assert evaluate_expr(parse_expr("sum($.v)"), **env) == 9.0
        assert evaluate_expr(parse_expr("avg($.v)"), **env) == 3.0
        assert evaluate_expr(parse_expr("min($.v)"), **env) == 1.0
        assert evaluate_expr(parse_expr("max($.v)"), **env) == 5.0
        assert evaluate_expr(parse_expr("key"), **env) == "k"

    def test_agg_over_all_missing_is_null(self):
        env = dict(record=None, group_key=None, group_records=[{"a": 1}])
        assert evaluate_expr(parse_expr("sum($.v)"), **env) is None

    @pytest.mark.parametrize("bad", [
        "$.x +", "count(3)", "{ a 1 }", "(1", "$..x", "frobnicate($)",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ExprError):
            parse_expr(bad)

    def test_string_math_rejected(self):
        with pytest.raises(ExprError):
            evaluate_expr(parse_expr("$.s + 1"), {"s": "text"})

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=60)
    def test_arithmetic_property(self, a, b):
        record = {"a": a, "b": b}
        assert evaluate_expr(parse_expr("$.a + $.b"), record) == pytest.approx(a + b)
        assert evaluate_expr(parse_expr("$.a * $.b"), record) == pytest.approx(a * b)


class TestPipelineParser:
    SOURCE = """
    read("/in.json")                       // comment
      -> filter $.ok == true
      -> transform { v: $.v * 2 }
      -> group by $.k into { k: key, n: count($) }
      -> sort by $.n desc
      -> top 5
      -> write("/out")
    """

    def test_stage_kinds(self):
        pipeline = parse_pipeline(self.SOURCE)
        assert pipeline.source.path == "/in.json"
        kinds = [type(op) for op in pipeline.ops]
        assert kinds == [FilterOp, TransformOp, GroupOp, SortOp, TopOp]
        assert pipeline.sink.path == "/out"

    def test_sort_direction(self):
        ascending = parse_pipeline(
            "read('/a') -> sort by $.x -> write('/b')"
        ).ops[0]
        descending = parse_pipeline(
            "read('/a') -> sort by $.x desc -> write('/b')"
        ).ops[0]
        assert not ascending.descending
        assert descending.descending

    def test_arrow_inside_braces_not_split(self):
        pipeline = parse_pipeline(
            "read('/a') -> transform { v: $.x - 1 } -> write('/b')"
        )
        assert isinstance(pipeline.ops[0], TransformOp)

    @pytest.mark.parametrize("bad", [
        "filter $.x > 1 -> write('/b')",          # no read
        "read('/a') -> filter $.x > 1",           # no write
        "read('/a') -> write('/b') -> top 3",     # ops after write
        "read('/a') -> frob $.x -> write('/b')",  # unknown op
        "read(noquotes) -> write('/b')",
        "",
    ])
    def test_errors(self, bad):
        with pytest.raises(JaqlParseError):
            parse_pipeline(bad)


RECORDS = [
    {"user": "u1", "status": 200, "ms": 120},
    {"user": "u2", "status": 404, "ms": 50},
    {"user": "u1", "status": 200, "ms": 480},
    {"user": "u3", "status": 200, "ms": 9000},
    {"user": "u2", "status": 200, "ms": 300},
    {"user": "u1", "status": 200, "ms": 60},
]

PIPELINE = """
read("/logs/events.json")
  -> filter $.status == 200 and $.ms < 5000
  -> transform { user: $.user, sec: $.ms / 1000 }
  -> group by $.user into { user: key, hits: count($), total: sum($.sec) }
  -> sort by $.hits desc
  -> top 2
  -> write("/out/top_users")
"""


def stage_data(engine):
    engine.filesystem.write_text(
        "/logs/events.json",
        "\n".join(json.dumps(r) for r in RECORDS) + "\n",
    )


class TestExecution:
    def test_full_pipeline_equivalent_on_both_engines(self):
        outputs = {}
        for factory in (make_hadoop, make_m3r):
            engine = factory()
            stage_data(engine)
            runner = JaqlRunner(engine, num_reducers=4)
            outputs[factory.__name__] = runner.read_output(runner.run(PIPELINE))
        assert outputs["make_hadoop"] == outputs["make_m3r"]
        top = outputs["make_m3r"]
        assert top[0]["user"] == "u1" and top[0]["hits"] == 3.0
        assert top[0]["total"] == pytest.approx(0.66)
        assert len(top) == 2

    def test_map_ops_fused_into_one_job(self):
        engine = make_m3r()
        stage_data(engine)
        runner = JaqlRunner(engine, num_reducers=4)
        runner.run(
            "read('/logs/events.json') -> filter $.status == 200"
            " -> transform { m: $.ms } -> filter $.m < 500"
            " -> write('/out/fused')"
        )
        assert runner.jobs_run == 1  # three map ops, one map-only job
        values = sorted(r["m"] for r in runner.read_output("/out/fused"))
        assert values == [60, 120, 300, 480]

    def test_intermediates_temporary_on_m3r(self):
        engine = make_m3r()
        stage_data(engine)
        runner = JaqlRunner(engine, num_reducers=4)
        runner.run(PIPELINE)
        assert not engine.raw_filesystem.exists("/jaql")
        assert engine.raw_filesystem.exists("/out/top_users")

    def test_copy_only_pipeline(self):
        engine = make_m3r()
        stage_data(engine)
        runner = JaqlRunner(engine, num_reducers=2)
        runner.run("read('/logs/events.json') -> write('/out/copy')")
        assert len(runner.read_output("/out/copy")) == len(RECORDS)

    def test_sort_ascending_numeric(self):
        engine = make_m3r()
        stage_data(engine)
        runner = JaqlRunner(engine, num_reducers=3)
        runner.run("read('/logs/events.json') -> sort by $.ms"
                   " -> write('/out/sorted')")
        values = [r["ms"] for r in runner.read_output("/out/sorted")]
        assert values == sorted(values)

    def test_sort_by_non_numeric_fails(self):
        engine = make_m3r()
        stage_data(engine)
        runner = JaqlRunner(engine, num_reducers=2)
        with pytest.raises(Exception):
            runner.run("read('/logs/events.json') -> sort by $.user"
                       " -> write('/out/bad')")

    def test_comment_marker_inside_quotes(self):
        engine = make_m3r()
        engine.filesystem.write_text(
            "/urls.json", '{"url": "http://a"}\n{"url": "http://b"}\n'
        )
        runner = JaqlRunner(engine, num_reducers=2)
        runner.run('read("/urls.json") -> filter $.url == "http://a"'
                   ' -> write("/out/urls")')
        assert runner.read_output("/out/urls") == [{"url": "http://a"}]

    @pytest.mark.parametrize("factory", [make_hadoop, make_m3r])
    def test_sort_by_missing_field_fails_before_the_sort(self, factory):
        engine = factory()
        engine.filesystem.write_text("/v.json", '{"v": 2}\n{"w": 1}\n')
        runner = JaqlRunner(engine, num_reducers=2)
        with pytest.raises(ValueError, match=r"\$\.v\b.*None"):
            runner.run("read('/v.json') -> sort by $.v -> write('/out/v')")
        assert runner.jobs_run == 0

    def test_group_without_sort(self):
        engine = make_m3r()
        stage_data(engine)
        runner = JaqlRunner(engine, num_reducers=4)
        runner.run(
            "read('/logs/events.json')"
            " -> group by $.status into { s: key, n: count($) }"
            " -> write('/out/by_status')"
        )
        by_status = {r["s"]: r["n"] for r in runner.read_output("/out/by_status")}
        assert by_status == {200: 5.0, 404: 1.0}
