"""The command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.conf import (
    CACHE_CAPACITY_KEY,
    CACHE_HIGH_WATERMARK_KEY,
    CACHE_LOW_WATERMARK_KEY,
    CACHE_SPILL_KEY,
    TASK_PARTITION_KEY,
)
from repro.cli import STATS_SCHEMA_VERSION, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_choices(self):
        args = build_parser().parse_args(["--engine", "m3r", "micro"])
        assert args.engine == "m3r"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "spark", "micro"])

    def test_defaults(self):
        args = build_parser().parse_args(["wordcount"])
        assert args.engine == "both"
        assert args.nodes == 8
        assert args.lines == 2000

    def test_subcommands(self):
        assert sorted(subcommands()) == sorted([
            "wordcount", "micro", "matvec", "sysml", "trace", "stats",
            "jaql", "pig", "analyze",
        ])

    def test_global_options_survive_every_subcommand(self):
        """A sub-command option whose ``dest`` collides with a global one
        silently overrides it (argparse lets the sub-parser's default win)."""
        for name, sub in subcommands().items():
            required = [
                arg
                for action in sub._actions
                if action.required and action.option_strings
                for arg in (action.option_strings[0], "x")
            ]
            args = build_parser().parse_args(
                ["--engine", "hadoop", "--nodes", "3", name, *required]
            )
            assert (args.engine, args.nodes) == ("hadoop", 3), name

    def test_set_rejects_an_unknown_knob(self, capsys):
        unknown = "m3r.no.such-key"
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--set", f"{unknown}=1"])
        assert excinfo.value.code == 2
        assert unknown in capsys.readouterr().err

    def test_set_parses_the_knob_type(self, capsys):
        args = build_parser().parse_args([
            "stats", "--set", f"{CACHE_CAPACITY_KEY}=6000",
            "--set", f"{CACHE_SPILL_KEY}=off",
            "--set", f"{CACHE_HIGH_WATERMARK_KEY}=0.5",
        ])
        assert args.settings == [
            (CACHE_CAPACITY_KEY, 6000),
            (CACHE_SPILL_KEY, False),
            (CACHE_HIGH_WATERMARK_KEY, 0.5),
        ]
        for bad in (f"{CACHE_CAPACITY_KEY}=lots", f"{CACHE_SPILL_KEY}=maybe",
                    f"{TASK_PARTITION_KEY}=1", CACHE_SPILL_KEY):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["stats", "--set", bad])
        assert TASK_PARTITION_KEY in capsys.readouterr().err


def subcommands():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def stats_docs(capsys, *argv):
    """Run ``repro <argv> --format json`` (a ``stats`` invocation) and
    return its documents, keyed by engine."""
    assert main([*argv, "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    for kind, doc in docs.items():
        assert doc["schema_version"] == STATS_SCHEMA_VERSION
        assert doc["engine"] == kind
    return docs


class TestCommands:
    def test_wordcount_both_engines(self, capsys):
        assert main(["--nodes", "4", "wordcount", "--lines", "100",
                     "--reducers", "4"]) == 0
        out = capsys.readouterr().out
        assert "hadoop" in out and "m3r" in out
        assert "outputs verified identical" in out

    def test_wordcount_mutating_variant(self, capsys):
        assert main(["--engine", "m3r", "--nodes", "2", "wordcount",
                     "--lines", "50", "--reducers", "2", "--mutating"]) == 0

    def test_micro(self, capsys):
        assert main(["--engine", "m3r", "--nodes", "4", "micro",
                     "--remote", "40", "--pairs", "100",
                     "--value-bytes", "64"]) == 0
        assert "iterations:" in capsys.readouterr().out

    def test_matvec_checks_equivalence(self, capsys):
        assert main(["--nodes", "4", "matvec", "--rows", "200",
                     "--iterations", "1", "--sparsity", "0.05"]) == 0
        out = capsys.readouterr().out
        assert out.count("checksum") == 2

    def test_sysml(self, capsys):
        assert main(["--engine", "m3r", "--nodes", "4", "sysml",
                     "--algorithm", "pagerank", "--size", "100",
                     "--block", "50", "--iterations", "1",
                     "--sparsity", "0.05"]) == 0
        assert "generated jobs" in capsys.readouterr().out

    def test_jaql_script_on_both_engines(self, tmp_path, capsys):
        data = tmp_path / "rows.jsonl"
        data.write_text("".join(f'{{"k": "r{i}", "v": {i}}}\n' for i in range(3)))
        script = tmp_path / "pipeline.jaql"
        script.write_text(
            "read('/data/input.json') -> filter $.v > 0"
            " -> transform { k: $.k, w: $.v * 10 } -> write('/out')\n"
        )
        assert main(["--nodes", "2", "jaql", "--script", str(script),
                     "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert out.count("(1 jobs)") == 2  # hadoop and m3r
        assert "outputs verified identical across engines" in out

    def test_cache_stats_unbounded(self, capsys):
        docs = stats_docs(capsys, "--nodes", "4", "stats", "--workload",
                          "matvec", "--rows", "100", "--runs", "1")
        cache = docs["m3r"]["cache"]
        assert cache["capacity_bytes"] == 0
        counters = cache["lifetime"]["counters"]
        assert counters.get("cache_evictions", 0) == 0
        assert counters.get("cache_spills", 0) == 0

    def test_cache_stats_under_pressure(self, capsys):
        docs = stats_docs(capsys, "--engine", "m3r", "--nodes", "4", "stats",
                          "--workload", "matvec", "--rows", "200",
                          "--iterations", "2", "--runs", "1",
                          "--set", f"{CACHE_CAPACITY_KEY}=6000",
                          "--set", f"{CACHE_LOW_WATERMARK_KEY}=0.5")
        doc = docs["m3r"]
        assert doc["settings"] == {CACHE_CAPACITY_KEY: 6000,
                                   CACHE_LOW_WATERMARK_KEY: 0.5}
        cache = doc["cache"]
        assert cache["low_watermark"] == 0.5
        assert cache["lifetime"]["counters"]["cache_evictions"] > 0
        assert cache["spill_enabled"] is True

    def test_cache_stats_json_round_trip(self, capsys):
        docs = stats_docs(capsys, "--engine", "m3r", "--nodes", "4", "stats",
                          "--workload", "matvec", "--rows", "100", "--runs", "1")
        cache = docs["m3r"]["cache"]
        assert cache["spill_enabled"] is True
        assert sorted(cache["places"]) == ["0", "1", "2", "3"]
        for slot in cache["places"].values():
            assert slot["entries"] >= 0 and slot["resident_bytes"] >= 0

    def test_shuffle_stats_json_round_trip(self, capsys):
        docs = stats_docs(capsys, "--engine", "m3r", "--nodes", "4", "stats",
                          "--workload", "wordcount", "--lines", "200",
                          "--runs", "1")
        doc = docs["m3r"]
        assert doc["workload"] == "wordcount" and doc["runs"][0]["jobs"] == 1
        shuffle = doc["shuffle"]
        assert all(isinstance(k, str) for k in shuffle["places"])
        assert shuffle["traffic"]["remote_bytes"] >= 0
        assert shuffle["skew"]["skew_ratio"] >= 1.0

    def test_stats_batch_totals(self, capsys):
        docs = stats_docs(capsys, "--nodes", "2", "stats", "--workload", "grep",
                          "--lines", "100", "--runs", "1",
                          "--set", "m3r.batch.enabled=true",
                          "--set", "m3r.imc.enabled=true")
        for doc in docs.values():
            assert doc["runs"][0]["jobs"] == 2
            assert doc["batch"]["batch_batches"] > 0
            assert doc["batch"]["imc_folded_records"] > 0

    def test_stats_hadoop_has_no_cache_section(self, capsys):
        docs = stats_docs(capsys, "--engine", "hadoop", "--nodes", "2", "stats",
                          "--lines", "100", "--runs", "1")
        assert list(docs) == ["hadoop"]
        assert "cache" not in docs["hadoop"]
        assert {"runs", "shuffle", "batch", "restore"} <= set(docs["hadoop"])

    def test_stats_through_the_service(self, capsys):
        docs = stats_docs(capsys, "--engine", "m3r", "--nodes", "2", "stats",
                          "--lines", "100", "--tenants", "3", "--runs", "2")
        doc = docs["m3r"]
        service = doc["service"]
        assert len(service["schedule"]) == 6
        assert sorted(service["tenants"]) == ["t0", "t1", "t2"]
        for tenant in service["tenants"].values():
            assert tenant["jobs_run"] == 2
        assert [run["jobs"] for run in doc["runs"]] == [3, 3]

    def test_stats_tenant_weights(self, capsys):
        docs = stats_docs(capsys, "--engine", "m3r", "--nodes", "2", "stats",
                          "--lines", "100", "--tenants", "3",
                          "--weights", "2,1,1", "--runs", "2")
        service = docs["m3r"]["service"]
        weights = {name: t["weight"] for name, t in service["tenants"].items()}
        assert weights == {"t0": 2, "t1": 1, "t2": 1}
        assert len(service["schedule"]) == 6
        assert "worker" not in service

    def test_restore_stats_text(self, capsys):
        assert main(["--engine", "m3r", "--nodes", "4", "stats", "--lines",
                     "200", "--set", "m3r.restore.enabled=true"]) == 0
        out = capsys.readouterr().out
        for line in ("m3r:", f"  schema_version: {STATS_SCHEMA_VERSION}",
                     "  runs:", "  speedup: ",
                     "  restore:", "    lifetime:", "      hits: 1",
                     "      misses: 1", "  cache:", "  shuffle:"):
            assert line + ("" if line.endswith(" ") else "\n") in out, line

    def test_restore_stats_json_round_trip(self, capsys):
        docs = stats_docs(capsys, "--nodes", "4", "stats", "--workload",
                          "matvec", "--rows", "64",
                          "--set", "m3r.restore.enabled=true")
        for doc in docs.values():
            assert doc["workload"] == "matvec"
            runs = doc["runs"]
            assert len(runs) == 2
            # First run executes tasks and misses; the rerun is a pure hit.
            assert runs[0]["tasks"] > 0 and runs[0]["hits"] == 0
            assert runs[1]["tasks"] == 0 and runs[1]["hits"] == 2
            assert runs[1]["seconds"] < runs[0]["seconds"]
            assert doc["speedup"] > 1.0
            assert doc["restore"]["lifetime"]["hits"] == 2
            assert len(doc["restore"]["entries"]) == 2

    def test_restore_stats_single_run_no_speedup(self, capsys):
        docs = stats_docs(capsys, "--nodes", "2", "stats", "--lines", "100",
                          "--runs", "1", "--set", "m3r.restore.enabled=true")
        for doc in docs.values():
            assert doc["speedup"] is None
            assert len(doc["runs"]) == 1

    def test_trace_matvec_stage_seconds_sum_to_total(self, tmp_path, capsys):
        """Acceptance: the trace's per-stage seconds reconstruct each
        job's EngineResult total (JobEnd mirrors it byte-exactly)."""
        out = tmp_path / "trace.jsonl"
        assert main(["--nodes", "4", "trace", "--workload", "matvec",
                     "--rows", "160", "--iterations", "1",
                     "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert out.exists()
        jobs = doc["jobs"]
        assert len(jobs) == 4  # multiply + sum, on both engines
        assert {j["engine"] for j in jobs} == {"hadoop", "m3r"}
        for job in jobs:
            assert job["succeeded"]
            assert sum(s["seconds"] for s in job["stages"]) == pytest.approx(
                job["seconds"], rel=1e-12
            )
            assert job["stages"][-1]["clock"] == job["seconds"]

    def test_trace_text_renders_waterfall(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["--engine", "m3r", "--nodes", "4", "trace",
                     "--workload", "wordcount", "--lines", "100",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trace written to" in text
        for stage in ("setup", "map", "shuffle", "reduce", "commit"):
            assert stage in text

    def test_trace_out_file_starts_fresh(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        out.write_text('{"event": "stale"}\n')
        assert main(["--engine", "m3r", "--nodes", "2", "trace",
                     "--workload", "wordcount", "--lines", "50",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert "stale" not in out.read_text()

    def test_analyze_clean_tree_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "clean.py"
        src.write_text("def add(a, b):\n    return a + b\n")
        assert main(["analyze", str(src)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_analyze_json_round_trip_and_gate(self, tmp_path, capsys):
        src = tmp_path / "dirty.py"
        src.write_text(
            "import threading\n\n"
            "class Worker:\n"
            "    def run(self, st):\n"
            "        st['key'] = 1\n"
        )
        code = main(["analyze", str(src), "--format", "json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert isinstance(doc, dict) or isinstance(doc, list)
        assert code in (0, 1)

    def test_analyze_json_has_schema_version(self, tmp_path, capsys):
        from repro.analysis.report import REPORT_SCHEMA_VERSION

        src = tmp_path / "clean.py"
        src.write_text("VALUE = 1\n")
        assert main(["analyze", str(src), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION == 2

    def test_analyze_exit_codes_documented_triple(self, tmp_path, capsys):
        """0 = clean, 1 = findings, 2 = usage error."""
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["analyze", str(clean)]) == 0

        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "def build_plan(parts):\n"
            "    return [p for p in set(parts)]\n"
        )
        assert main(["analyze", str(dirty)]) == 1
        assert "FAIL: 1 unsuppressed finding(s)" in capsys.readouterr().err

        # Unknown rule id: usage error.
        assert main(["analyze", "--explain", "M3R999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id" in err and "M3R002" in err

        # argparse itself exits 2 on a bad flag (a retired one here).
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--report", "portability"])
        assert excinfo.value.code == 2

    def test_analyze_explain_prints_rule_card(self, capsys):
        assert main(["analyze", "--explain", "M3R007"]) == 0
        out = capsys.readouterr().out
        assert "M3R007" in out
        assert "rationale:" in out
        assert "example:" in out
        assert "fix:" in out
        assert "ReStore" in out

        # A retired id is a usage error that names the live catalog.
        from repro.analysis import default_rules

        for retired in (
            "M3R001", "M3R003", "M3R004", "M3R005", "M3R006", "M3R008",
            "M3R009", "M3R010",
        ):
            assert main(["analyze", "--explain", retired]) == 2
            err = capsys.readouterr().err
            assert "unknown rule id" in err
            assert all(rule.id in err for rule in default_rules())
            assert retired not in err.split("known rules:")[1]

    def test_analyze_explain_covers_every_rule(self, capsys):
        from repro.analysis import default_rules

        for rule in default_rules():
            assert main(["analyze", "--explain", rule.id]) == 0
            out = capsys.readouterr().out
            assert rule.id in out and "rationale:" in out

    def test_analyze_check_docs_passes_on_shipped_readme(self, capsys, monkeypatch):
        import repro

        repo_root = Path(repro.__file__).parent.parent.parent
        monkeypatch.chdir(repo_root)
        assert main(["analyze", "--check-docs"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_analyze_check_docs_fails_on_drift(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "README.md").write_text(
            "# stub\n<!-- knob-table:begin -->\n| stale |\n"
            "<!-- knob-table:end -->\n"
        )
        assert main(["analyze", "--check-docs"]) == 1
        assert "drifted" in capsys.readouterr().err

    def test_analyze_check_docs_fails_without_markers(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "README.md").write_text("# no markers here\n")
        assert main(["analyze", "--check-docs"]) == 1
        assert "markers" in capsys.readouterr().err

    def test_pig_script(self, tmp_path, capsys):
        script = tmp_path / "s.pig"
        script.write_text(
            "x = LOAD '/data/input.txt' AS (k, v);\n"
            "f = FILTER x BY v > 1;\n"
            "STORE f INTO '/out/f';\n"
        )
        data = tmp_path / "d.txt"
        data.write_text("a\t1\nb\t2\nc\t3\n")
        assert main(["--nodes", "2", "pig", "--script", str(script),
                     "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "outputs verified identical" in out
