"""Self-test of the measurement spine (``python -m pytest benchmarks/spine -q``).

Runs at the ``--quick`` scale, whose numbers are not comparable with the
committed full-scale results; it checks the harness, not the engines' speed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import spine_harness as harness  # noqa: E402
import spine_workloads as workloads  # noqa: E402
from spine_tracing import LayerProfile  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(*argv):
    """``run.py`` in a child; returns (exit code, last-line JSON, record)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *argv],
        capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.splitlines()
    record = next(
        json.loads(line[len(run.RECORD_PREFIX):])
        for line in lines if line.startswith(run.RECORD_PREFIX)
    )
    return done.returncode, json.loads(lines[-1]), record


def test_declared_names_are_wellformed_and_unique():
    spec = declared()
    names = [entry["name"] for entry in spec["end_to_end"] + spec["per_layer"]]
    names += [entry["name"] for entry in spec["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [entry["name"] for entry in spec["workloads"]] == list(workloads.WORKLOADS)
    assert any(
        entry == {"name": "setup_s", "unit": "s", "better": "lower", "bound": entry["bound"]}
        for entry in spec["end_to_end"]
    )
    assert all(0 < entry["bound"] <= 0.25 for entry in spec["end_to_end"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_reports_exactly_the_declared_metrics(trace, section):
    spec = declared()
    code, result, record = run_cli(
        "--workload", "invindex_imc", "--seed", "5", "--seconds", "1", "--trace", str(trace)
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"] for entry in spec[section]]
    for entry in spec[section]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert record["comparable"] is False  # quick scale is labelled
    if trace:
        assert result["metrics"]["m3r.engine_common.imc_folded_records"]["value"] > 0
        assert result["metrics"]["m3r.engine_common.batch_batches"]["value"] > 0
    else:
        assert all(metric["value"] != 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workload.input_digest(workload.generate(3, True))
    again = workload.input_digest(workload.generate(3, True))
    other = workload.input_digest(workload.generate(4, True))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ["invindex", "matvec_iter", "shuffle_remote"])
def test_same_seed_gives_identical_exact_metrics_and_outputs(name):
    workload = workloads.WORKLOADS[name]
    runs = []
    for _ in range(2):
        inputs = workload.generate(7, True)
        expected = workload.reference(inputs)
        reps = harness.warm_up(workload, inputs, expected)
        assert all(rep.correct and rep.failed == 0 for rep in reps)
        assert harness.verdict(reps)["engines_agree"]
        runs.append([(rep.exact, rep.work, rep.digest) for rep in reps])
    assert runs[0] == runs[1]


def test_pressure_appears_only_where_the_budget_is_set():
    pressured = [f"m3r.{what}" for what in ("memory.evictions", "memory.spills", "memory.rehydrations")]
    for name in ("cache_pressure", "matvec_iter"):
        workload = workloads.WORKLOADS[name]
        inputs = workload.generate(7, True)
        rep = harness.run_repetition(
            workload, inputs, workload.reference(inputs), "m3r", workload.tweak
        )
        assert rep.correct
        if name == "cache_pressure":
            assert all(rep.work[metric] > 0 for metric in pressured)
        else:
            assert all(rep.work[metric] == 0 for metric in pressured)
            assert rep.work["m3r.core.cache_hits"] > 0


def test_spans_are_wellformed_and_the_profile_covers_the_traced_wall():
    workload = workloads.WORKLOADS["invindex"]
    inputs = workload.generate(7, True)
    expected, baseline_s = harness.timed_reference(workload, inputs)
    traced = harness.traced_layers(workload, inputs, expected, baseline_s, harness.HostSpeed())
    assert 0.9 <= traced["metrics"]["trace.coverage"] <= 1.1
    for trace in traced["traces"].values():
        assert trace["exact_equals_untraced"]
        for spans in (trace["spans"], trace["profiled_spans"]):
            by_id = {span["id"]: span for span in spans}
            assert len({span["trace"] for span in spans}) == 1
            children = {}
            for span in spans:
                assert span["end"] is not None and span["start"] <= span["end"]
                if span["parent"] is None:
                    assert span["name"] == "repetition"
                    continue
                parent = by_id[span["parent"]]  # every parent exists
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                children.setdefault(parent["id"], []).append(span["end"] - span["start"])
            for parent_id, durations in children.items():
                parent = by_id[parent_id]
                assert sum(durations) <= (parent["end"] - parent["start"]) * (1 + 1e-9)


def test_the_profile_bootstrap_covers_worker_threads():
    # Default knobs run the mappers on pool threads: without the
    # threading.setprofile bootstrap the profile would not see them.
    workload = workloads.WORKLOADS["invindex"]
    inputs = workload.generate(7, True)
    profile = LayerProfile()
    rep = harness.run_repetition(
        workload, inputs, workload.reference(inputs), "m3r", workload.tweak, (profile,)
    )
    layers, calls = profile.fold()
    assert rep.correct
    assert layers["user"] > 0
    assert calls["engine_common.collect_calls"] >= rep.work["m3r.map_output_records"]


class PoisonedMapper(workloads.TokenizeMapper):
    """Raises on one document, so job 1 of the sequence fails."""

    def map(self, key, value, output, reporter):
        if value.to_string().startswith("d003\t"):
            raise ValueError("poisoned record")
        super().map(key, value, output, reporter)


class PoisonedIndex(workloads.InvertedIndex):
    name = "invindex"

    def jobs(self, inputs):
        sequence = super().jobs(inputs)
        sequence.confs[0].set_mapper_class(PoisonedMapper)
        return sequence


class WrongReferenceIndex(workloads.InvertedIndex):
    name = "invindex"

    def reference(self, inputs):
        return super().reference(inputs)[:-1]


def test_a_poisoned_job_is_counted_failed():
    workload = PoisonedIndex()
    inputs = workload.generate(7, True)
    reps = harness.warm_up(workload, inputs, workloads.InvertedIndex().reference(inputs))
    verdict = harness.verdict(reps)
    assert verdict["correct"] is False
    assert verdict["failed"] == verdict["attempted"] > 0
    assert any("poisoned record" in error for error in verdict["errors"])


def test_a_wrong_output_fails_every_job_of_the_sequence():
    workload = WrongReferenceIndex()
    inputs = workload.generate(7, True)
    reps = harness.warm_up(workload, inputs, workload.reference(inputs))
    verdict = harness.verdict(reps)
    assert verdict["correct"] is False and verdict["errors"] == []
    assert verdict["failed"] == verdict["attempted"] == 4  # 2 jobs x 2 engines


def test_a_failure_reaches_the_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "invindex", PoisonedIndex())
    code = run.main(["--workload", "invindex", "--quick", "--seconds", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_a_deleted_knob_degrades_to_the_default_path(monkeypatch):
    monkeypatch.delattr(workloads.api_conf, "IMC_ENABLED_KEY")
    workload = workloads.WORKLOADS["invindex_imc"]
    assert harness.missing_knobs(workload) == ["IMC_ENABLED_KEY"]
    inputs = workload.generate(7, True)
    rep = harness.run_repetition(
        workload, inputs, workload.reference(inputs), "m3r", workload.tweak
    )
    assert rep.correct and rep.work["m3r.engine_common.imc_folded_records"] == 0
