"""The command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


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

    def test_cache_stats_unbounded(self, capsys):
        assert main(["--nodes", "4", "cache-stats", "--rows", "100",
                     "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "capacity=unbounded" in out
        assert "evictions=0" in out and "spills=0" in out

    def test_cache_stats_under_pressure(self, capsys):
        assert main(["--nodes", "4", "cache-stats", "--rows", "200",
                     "--iterations", "2", "--capacity-bytes", "6000",
                     "--policy", "gds"]) == 0
        out = capsys.readouterr().out
        assert "policy=gds" in out
        assert "evictions=0" not in out  # pressure produced evictions
        assert "spill=on" in out

    def test_cache_stats_json_round_trip(self, capsys):
        assert main(["--nodes", "4", "cache-stats", "--rows", "100",
                     "--iterations", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["capacity_bytes"] == 0
        assert doc["policy"] == "lru"
        assert doc["spill_enabled"] is True
        assert sorted(doc["places"]) == ["0", "1", "2", "3"]
        for slot in doc["places"].values():
            assert slot["entries"] >= 0 and slot["resident_bytes"] >= 0
        assert doc["lifetime"]["counters"].get("cache_evictions", 0) == 0

    def test_shuffle_stats_json_round_trip(self, capsys):
        assert main(["--nodes", "4", "shuffle-stats", "--workload",
                     "wordcount", "--lines", "200", "--iterations", "1",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "wordcount" and doc["jobs"] == 1
        assert all(isinstance(k, str) for k in doc["places"])
        assert doc["traffic"]["remote_bytes"] >= 0
        assert doc["skew"]["skew_ratio"] >= 1.0

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

    def test_restore_stats_text(self, capsys):
        assert main(["--nodes", "4", "restore-stats", "--lines", "200"]) == 0
        out = capsys.readouterr().out
        assert "restore-stats: wordcount, 2 run(s)" in out
        assert "rerun speedup:" in out
        assert "hits=1 misses=1" in out

    def test_restore_stats_json_round_trip(self, capsys):
        assert main(["--nodes", "4", "restore-stats", "--workload", "matvec",
                     "--rows", "64", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "matvec"
        assert len(doc["runs"]) == 2
        # First run executes tasks and misses; the rerun is a pure hit.
        assert doc["runs"][0]["tasks"] > 0 and doc["runs"][0]["hits"] == 0
        assert doc["runs"][1]["tasks"] == 0 and doc["runs"][1]["hits"] == 2
        assert doc["runs"][1]["seconds"] < doc["runs"][0]["seconds"]
        assert doc["speedup"] > 1.0
        assert doc["store"]["lifetime"]["hits"] == 2
        assert len(doc["store"]["entries"]) == 2

    def test_restore_stats_single_run_no_speedup(self, capsys):
        assert main(["--nodes", "2", "restore-stats", "--lines", "100",
                     "--runs", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["speedup"] is None
        assert len(doc["runs"]) == 1

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

        for retired in ("M3R001", "M3R006", "M3R008"):
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
