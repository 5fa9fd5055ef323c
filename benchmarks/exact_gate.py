#!/usr/bin/env python3
"""The spine's exact gate: its quick run must repeat the committed numbers.

    python3 benchmarks/exact_gate.py            # check; exit 1 on any difference
    python3 benchmarks/exact_gate.py --write    # regenerate the committed file

Runs ``benchmarks/spine/run.py --quick --seconds 1`` (every workload, one
child each) and demands ``==`` against ``benchmarks/results/spine_quick_exact.json``
for each workload's exact end-to-end metrics (``*_sim_s``,
``m3r_shuffle_bytes``, ``m3r_mem_mb_s``) and its output digest.  These are
functions of the seed and the cost model alone, so a change that moves one
regenerates the file and says why.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "results", "spine_quick_exact.json")
SEED = 12
EXACT = ("m3r_sim_s", "hadoop_sim_s", "m3r_shuffle_bytes", "m3r_mem_mb_s")


def quick_run() -> Dict[str, Dict[str, Any]]:
    """Per workload: its exact metrics and output digest from one quick run."""
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "quick.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "spine", "run.py"), "--quick", "--seconds", "1",
             "--seed", str(SEED), "--out", out],
            check=True, stdout=subprocess.DEVNULL,
        )
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
    exact = {}
    for name, runs in document["workloads"].items():
        record = runs["untraced"]
        exact[name] = {metric: record["metrics"][metric]["value"] for metric in EXACT}
        exact[name]["output_digest"] = record["output_digest"]
    return exact


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the committed file")
    args = parser.parse_args(argv)
    got = {"seed": SEED, "workloads": quick_run()}
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(got, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN}")
        return 0
    with open(GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)["workloads"]
    got = got["workloads"]
    differences = [
        f"{workload}.{name}: committed {want.get(workload, {}).get(name)!r}, "
        f"got {got.get(workload, {}).get(name)!r}"
        for workload in sorted(set(want) | set(got))
        for name in (*EXACT, "output_digest")
        if want.get(workload, {}).get(name) != got.get(workload, {}).get(name)
    ]
    for line in differences:
        print(line)
    print(f"exact gate: {len(want)} workloads, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
