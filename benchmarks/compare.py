#!/usr/bin/env python3
"""A/B the measurement spine: this working tree against a git ref.

    python3 benchmarks/compare.py HEAD~1                       # 10 pairs, every workload
    python3 benchmarks/compare.py HEAD~1 --workload shuffle_remote --label "copy table"
    python3 benchmarks/compare.py HEAD --workload invindex --pairs 1 --quick --seconds 1 --no-record

``REF`` is checked out with ``git worktree add`` into a temporary directory
(removed at exit).  For each workload, ``benchmarks/spine/run.py --workload W``
runs ``--pairs`` times in each tree, alternating, and in every other pair the
change runs first, so a drift of the host falls on both trees alike.  The
report gives, per end-to-end metric of BENCHMARK.json, both medians, the
change's shift, in how many pairs the change was better, and the parent's
inter-quartile distance.  It also says whether every exact metric
(``*_sim_s``, ``m3r_shuffle_bytes``, ``m3r_mem_mb_s``) and the output digest
were equal in every run of both trees.  A claimed gain needs the change to win
at least 9 of 10 pairs and to move the median by more than the parent's
inter-quartile distance.

Unless ``--no-record`` is given, one row with both medians and the wins is
appended to ``benchmarks/results/trajectory.json``.  The exit code is 1 when
a run failed or an exact metric or digest differed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPINE = os.path.join("benchmarks", "spine", "run.py")
TRAJECTORY = os.path.join(ROOT, "benchmarks", "results", "trajectory.json")
RECORD_PREFIX = "#record "
EXACT = ("m3r_sim_s", "hadoop_sim_s", "m3r_shuffle_bytes", "m3r_mem_mb_s")
TREES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_spine(tree: str, workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One ``run.py --workload`` child in ``tree``; its ``#record`` line."""
    command = [sys.executable, os.path.join(tree, SPINE), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command + (["--quick"] if args.quick else []), cwd=tree,
                          capture_output=True, text=True)
    for line in done.stdout.splitlines():
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
            record["exit_code"] = done.returncode
            return record
    sys.stderr.write(done.stderr)
    raise RuntimeError(f"{workload} in {tree} produced no record (exit {done.returncode})")


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: Dict[str, List[Dict[str, Any]]], better: Dict[str, str]) -> Dict[str, Any]:
    """Medians, shift, wins and parent IQR per metric; exact equality."""
    metrics: Dict[str, Any] = {}
    for name, direction in better.items():
        values = {tree: [run["metrics"][name]["value"] for run in runs[tree]] for tree in TREES}
        sign = 1 if direction == "lower" else -1
        parent, change = (statistics.median(values[tree]) for tree in TREES)
        metrics[name] = {
            "parent": parent,
            "change": change,
            "shift": (change - parent) / parent if parent else 0.0,
            "wins": sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
            "parent_iqr": iqr(values["parent"]),
            "equal": len(set(values["parent"] + values["change"])) == 1,
        }
    every = runs["parent"] + runs["change"]
    return {
        "pairs": len(runs["change"]),
        "metrics": metrics,
        "exact_equal": all(metrics[name]["equal"] for name in EXACT),
        "digests_equal": len({run["output_digest"] for run in every}) == 1,
        "failed": sum(run["failed"] + (run["exit_code"] != 0) for run in every),
    }


def report(workload: str, summary: Dict[str, Any]) -> None:
    print(f"\n{workload}: {summary['pairs']} pairs  exact metrics equal={summary['exact_equal']}"
          f"  output digests equal={summary['digests_equal']}  failed runs={summary['failed']}")
    print(f"  {'metric':<20}{'parent':>12}{'change':>12}{'shift':>9}{'wins':>7}{'parent IQR':>12}")
    for name, row in summary["metrics"].items():
        wins = "equal" if row["equal"] else f"{row['wins']}/{summary['pairs']}"
        print(f"  {name:<20}{row['parent']:>12.6g}{row['change']:>12.6g}{row['shift']:>+9.1%}"
              f"{wins:>7}{row['parent_iqr']:>12.4g}")


def record_row(path: str, row: Dict[str, Any]) -> None:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    document["rows"].append(row)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git ref to compare this working tree against")
    parser.add_argument("--workload", action="append", help="repeatable (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--quick", action="store_true", help="small inputs; numbers are NOT comparable")
    parser.add_argument("--label", default=None, help="the trajectory row's label (default: the commit subject)")
    parser.add_argument("--trajectory", default=TRAJECTORY, help="the file the row is appended to")
    parser.add_argument("--no-record", action="store_true", help="append no row")
    args = parser.parse_args(argv)
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}

    parent_tree = tempfile.mkdtemp(prefix="compare-")
    os.rmdir(parent_tree)  # git worktree add wants to create it
    git("worktree", "add", "--detach", parent_tree, args.ref)
    try:
        trees = {"parent": parent_tree, "change": ROOT}
        summaries = {}
        for workload in workloads:
            runs: Dict[str, List[Dict[str, Any]]] = {tree: [] for tree in TREES}
            for pair in range(args.pairs):
                for tree in (TREES if pair % 2 == 0 else reversed(TREES)):
                    runs[tree].append(run_spine(trees[tree], workload, args))
            summaries[workload] = summarize(runs, better)
            report(workload, summaries[workload])
    finally:
        git("worktree", "remove", "--force", parent_tree)
        shutil.rmtree(parent_tree, ignore_errors=True)

    if not args.no_record:
        record_row(args.trajectory, {
            "label": args.label or git("log", "-1", "--format=%s"),
            "parent": git("rev-parse", "--short=12", args.ref),
            "head": git("describe", "--always", "--dirty", "--abbrev=12"),
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "nproc": os.cpu_count(),
            "seconds": args.seconds,
            "scale": "quick" if args.quick else "full",
            "workloads": summaries,
        })
        print(f"\nappended a row to {args.trajectory}")
    clean = all(s["exact_equal"] and s["digests_equal"] and not s["failed"] for s in summaries.values())
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
