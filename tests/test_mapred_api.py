"""The old-style ``mapred`` API: runners, reuse semantics, reporters."""

from __future__ import annotations

import pytest

from repro.api.conf import JobConf
from repro.api.extensions import ImmutableOutput, is_immutable_output
from repro.api.formats import MaterializedReader
from repro.api.mapred import (
    DefaultMapRunnable,
    FreshObjectMapRunnable,
    IdentityMapper,
    IdentityReducer,
    Mapper,
    OutputCollector,
    Reporter,
)
from repro.api.writables import IntWritable, Text


class ListCollector(OutputCollector):
    def __init__(self):
        self.pairs = []

    def collect(self, key, value):
        self.pairs.append((key, value))


class TestReporter:
    def test_status(self):
        r = Reporter()
        r.set_status("working")
        assert r.get_status() == "working"

    def test_progress_clamped(self):
        r = Reporter()
        r.progress(1.5)
        assert r.get_progress() == 1.0
        r.progress(-1)
        assert r.get_progress() == 0.0

    def test_counters(self):
        r = Reporter()
        r.incr_counter("g", "c", 2)
        assert r.get_counter("g", "c") == 2

    def test_charge_compute_accumulates_and_drains(self):
        r = Reporter()
        r.charge_compute(0.5)
        r.charge_flops(1.1e9)  # 1 second at default rate
        assert r.consume_compute_seconds() == pytest.approx(1.5)
        assert r.consume_compute_seconds() == 0.0

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Reporter().charge_compute(-1)


class TestDefaultRunnerReuseSemantics:
    """The Hadoop quirk that motivates paper Section 4.1."""

    def test_identity_mapper_output_aliases_mutate(self):
        """With the default runner, an identity mapper's earlier outputs are
        mutated by later records — the exact hazard the paper describes."""
        pairs = [(IntWritable(1), Text("first")), (IntWritable(2), Text("second"))]
        collector = ListCollector()
        runner = DefaultMapRunnable(IdentityMapper())
        runner.run(MaterializedReader(pairs), collector, Reporter())
        # Both collected values are the SAME reused object, now "second".
        assert collector.pairs[0][1] is collector.pairs[1][1]
        assert collector.pairs[0][1].to_string() == "second"
        assert collector.pairs[0][0].get() == 2

    def test_fresh_runner_preserves_outputs(self):
        pairs = [(IntWritable(1), Text("first")), (IntWritable(2), Text("second"))]
        collector = ListCollector()
        runner = FreshObjectMapRunnable(IdentityMapper())
        runner.run(MaterializedReader(pairs), collector, Reporter())
        assert [v.to_string() for _, v in collector.pairs] == ["first", "second"]
        assert collector.pairs[0][1] is not collector.pairs[1][1]

    def test_fresh_runner_is_immutable_output(self):
        assert is_immutable_output(FreshObjectMapRunnable(IdentityMapper()))
        assert not is_immutable_output(DefaultMapRunnable(IdentityMapper()))


class TestIdentityClasses:
    def test_identity_mapper(self):
        collector = ListCollector()
        IdentityMapper().map(IntWritable(1), Text("v"), collector, Reporter())
        assert collector.pairs == [(IntWritable(1), Text("v"))]

    def test_identity_reducer(self):
        collector = ListCollector()
        IdentityReducer().reduce(
            IntWritable(1), iter([Text("a"), Text("b")]), collector, Reporter()
        )
        assert [v.to_string() for _, v in collector.pairs] == ["a", "b"]

    def test_configure_close_are_optional(self):
        m = IdentityMapper()
        m.configure(JobConf())
        m.close()


class TestImmutableOutputMarker:
    def test_class_marker(self):
        class Marked(Mapper, ImmutableOutput):
            pass

        class Unmarked(Mapper):
            pass

        assert is_immutable_output(Marked)
        assert is_immutable_output(Marked())
        assert not is_immutable_output(Unmarked)
        assert not is_immutable_output(Unmarked())
