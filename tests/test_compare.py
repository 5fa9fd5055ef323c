"""Smoke test of ``benchmarks/compare.py``: one quick pair against HEAD."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def in_a_checkout():
    try:
        return git("rev-parse", "--verify", "HEAD").returncode == 0
    except OSError:  # no git at all
        return False


@pytest.mark.skipif(not in_a_checkout(), reason="compare.py needs a git checkout")
def test_one_quick_pair_against_head(tmp_path):
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps({"rows": []}))
    worktrees = git("worktree", "list").stdout
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "compare.py"), "HEAD",
         "--workload", "invindex", "--pairs", "1", "--quick", "--seconds", "1",
         "--label", "smoke", "--trajectory", str(trajectory)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert "invindex: 1 pairs" in done.stdout, done.stdout + done.stderr
    (row,) = json.loads(trajectory.read_text())["rows"]
    assert (row["label"], row["scale"], row["seconds"]) == ("smoke", "quick", 1)
    summary = row["workloads"]["invindex"]
    assert summary["pairs"] == 1 and summary["failed"] == 0
    for name in ("m3r_wall_s", "hadoop_wall_s", "m3r_sim_s", "setup_s"):
        assert summary["metrics"][name]["wins"] in (0, 1)
    if not git("status", "--porcelain", "src").stdout:
        # the same source on both sides: every exact number repeats
        assert summary["exact_equal"] and summary["digests_equal"]
        assert done.returncode == 0
    assert git("worktree", "list").stdout == worktrees  # the parent tree is gone
