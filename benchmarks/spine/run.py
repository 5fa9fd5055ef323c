#!/usr/bin/env python3
"""The measurement spine's one command.

    python3 benchmarks/spine/run.py                      # all five workloads
    python3 benchmarks/spine/run.py --trace              # ... plus the traced run
    python3 benchmarks/spine/run.py --workload invindex --seed 12 --seconds 8 --trace 0
    python3 benchmarks/spine/run.py --sets 2 --seeds 10  # noise study against the bounds

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``
holding every ``end_to_end`` metric of BENCHMARK.json (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).  Without it this process is only a
driver: it spawns one fresh child per workload, one after another, so every
workload gets its own peak RSS and set-up time.

Metric names, units and bounds are read from BENCHMARK.json — the one place
they are written down.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start before any import
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")

#: Set-up is sampled this many times per run — this process's own set-up
#: plus fresh probe children — and ``setup_s`` is the median.
SETUP_SAMPLES = 3

#: A child that takes longer than this is killed (the contract's per-run cap).
CHILD_TIMEOUT_S = 170

RECORD_PREFIX = "#record "


def declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_harness() -> Any:
    """Import the harness (and with it ``repro``, numpy and scipy)."""
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spine_harness

    return spine_harness


# --------------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------------- #


def child_command(workload: str, seed: int, quick: bool, *extra: str) -> List[str]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed)]
    return command + (["--quick"] if quick else []) + list(extra)


def probe_setup(args: argparse.Namespace) -> float:
    """One more set-up sample from a fresh child process."""
    done = subprocess.run(
        child_command(args.workload, args.seed, args.quick, "--setup-only"),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def prepare(args: argparse.Namespace) -> Tuple[Any, Any, Dict[str, Any], Dict[str, float]]:
    """Imports and input generation, timed: ``(harness, workload, inputs,
    {import, generate} seconds)`` — the part of set-up before the warm-up."""
    harness = import_harness()
    from spine_workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    inputs = workload.generate(args.seed, args.quick)
    return harness, workload, inputs, {"import": import_s, "generate": time.perf_counter() - started}


def setup_seconds(phases: Dict[str, float], warm: Sequence[Any]) -> float:
    """Process start → ready for the first timed repetition: imports, input
    generation and both engines' warm-up repetitions (engine construction,
    first filesystem load, first run of the job sequence)."""
    return sum(phases.values()) + sum(r.build_s + r.load_s + r.wall_s for r in warm)


def run_setup_probe(args: argparse.Namespace) -> int:
    """``--setup-only``: set up like any run, print how long it took, exit."""
    harness, workload, inputs, phases = prepare(args)
    warm = harness.warm_up(workload, inputs, None)
    print(json.dumps({"setup_s": setup_seconds(phases, warm)}))
    return 0


def measure_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in this process; returns its full record."""
    spec = declared()
    harness, workload, inputs, phases = prepare(args)
    speed = harness.HostSpeed()
    expected, baseline_s = harness.timed_reference(workload, inputs)
    warm = harness.warm_up(workload, inputs, expected)
    reps = list(warm)
    metrics: Dict[str, Dict[str, Any]] = {}
    info: Dict[str, Any] = {"baseline.python_s": baseline_s}

    if args.trace:
        section = "per_layer"
        traced = harness.traced_layers(workload, inputs, expected, baseline_s, speed)
        reps += traced["reps"]
        metrics.update({name: {"value": value} for name, value in traced["metrics"].items()})
        info["exact_equals_untraced"] = {
            kind: trace["exact_equals_untraced"] for kind, trace in traced["traces"].items()
        }
        os.makedirs(RESULTS, exist_ok=True)
        for kind, trace in traced["traces"].items():
            write_json(os.path.join(RESULTS, f"trace-{workload.name}-{kind}.json"), trace)
    else:
        section = "end_to_end"
        timed = harness.timed_loop(workload, inputs, expected, args.seconds, speed)
        for kind_reps in timed.values():
            reps += kind_reps
        samples = [setup_seconds(phases, warm)]
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(probe_setup(args))
            speed.sample()
        metrics.update(harness.end_to_end(timed, speed))
        metrics["setup_s"] = harness.summarize(samples, speed.factor)
        metrics["setup_s"]["raw_median_s"] = statistics.median(samples)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0}
        info["setup_breakdown_s"] = phases
        m3r_sim_s = metrics["m3r_sim_s"]["value"]  # 0 only when every sequence failed
        info["sim_speedup_x"] = metrics["hadoop_sim_s"]["value"] / m3r_sim_s if m3r_sim_s else None

    return {
        "workload": workload.name,
        "seed": args.seed,
        "scale": "quick" if args.quick else "full",
        "comparable": not args.quick,
        "trace": bool(args.trace),
        "sizes": inputs["sizes"],
        "input_digest": workload.input_digest(inputs),
        "missing_knobs": harness.missing_knobs(workload),
        "host_speed": {
            "kernel_mean_s": speed.mean_s,
            "kernel_nominal_s": speed.NOMINAL_S,
            "samples": len(speed.samples),
        },
        "noisy": speed.noisy,
        "info": info,
        # Exactly the declared metrics of this section, in declared order.
        "metrics": {
            entry["name"]: dict(metrics[entry["name"]], unit=entry["unit"])
            for entry in spec[section]
        },
        **harness.verdict(reps),
    }


def run_workload(args: argparse.Namespace) -> int:
    record = measure_workload(args)
    scale = "full" if record["comparable"] else "quick (NOT comparable)"
    print(f"spine workload={record['workload']} seed={record['seed']} scale={scale} trace={int(record['trace'])}")
    print(f"  sizes: {json.dumps(record['sizes'], sort_keys=True)}")
    for name, metric in record["metrics"].items():
        extra = ""
        if "n" in metric:
            extra = f"  N={metric['n']} min={metric['min']:.6g} max={metric['max']:.6g}"
        if "raw_median_s" in metric:
            extra += f" raw={metric['raw_median_s']:.6g}"
        if metric.get("repeats_exactly") is False:
            extra += "  (varies between repetitions)"
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']:<9}{extra}")
    if record["info"].get("sim_speedup_x"):
        print(f"  hadoop_sim_s / m3r_sim_s = {record['info']['sim_speedup_x']:.3f}x (information, not gated)")
    print(
        f"  jobs attempted={record['attempted']} failed={record['failed']} "
        f"correct={record['correct']} engines_agree={record['engines_agree']}"
    )
    host = record["host_speed"]
    print(
        f"  host speed: kernel mean {host['kernel_mean_s']:.4f} s over {host['samples']} samples "
        f"(nominal {host['kernel_nominal_s']} s)" + ("  NOISY HOST" if record["noisy"] else "")
    )
    for error in record["errors"]:
        print(f"  error: {error}")
    print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in record["metrics"].items()
        },
    }))
    return 0 if record["correct"] and record["failed"] == 0 else 1


# --------------------------------------------------------------------------- #
# the driver: one fresh child per workload, never two at once
# --------------------------------------------------------------------------- #


def run_child(workload: str, seed: int, seconds: int, trace: bool, quick: bool) -> Dict[str, Any]:
    done = subprocess.run(
        child_command(workload, seed, quick, "--seconds", str(seconds), "--trace", str(int(trace))),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    record: Optional[Dict[str, Any]] = None
    for line in done.stdout.splitlines()[:-1]:
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
        else:
            print(line)
    if record is None:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"workload {workload!r} produced no result (exit {done.returncode})")
    record["exit_code"] = done.returncode
    return record


def envelope(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "quick" if args.quick else "full",
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_json(path: str, document: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_all(args: argparse.Namespace) -> int:
    spec = declared()
    document: Dict[str, Any] = {"envelope": envelope(args), "workloads": {}}
    exit_code = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = {"untraced": run_child(name, args.seed, args.seconds, False, args.quick)}
        if args.trace:
            runs["traced"] = run_child(name, args.seed, args.seconds, True, args.quick)
        document["workloads"][name] = runs
        exit_code = max([exit_code] + [run["exit_code"] for run in runs.values()])
    if args.out:
        write_json(args.out, document)
        print(f"wrote {args.out}")
    return exit_code


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def _spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def _compare_sets(sets: Sequence[Sequence[float]], better: str) -> Dict[str, List[float]]:
    medians = [statistics.median(values) for values in sets]
    return {
        "set_medians": medians,
        "set_spreads": [_spread(values) for values in sets] if len(sets[0]) >= 2 else [],
        "worse_by": [_worse_by(medians[0], median, better) for median in medians[1:]],
    }


def run_sets(args: argparse.Namespace) -> int:
    """The noise study: ``--sets`` sets of ``--seeds`` runs per workload.

    Per (end-to-end metric, workload) it prints the spread inside each set
    and how much worse each later set's median is than the first's, beside
    the bound, and fails when either exceeds it — the acceptance test the
    bounds in BENCHMARK.json have to survive on identical code.  For the
    normalised timings the same two figures of the raw medians are kept
    beside them (not gated): the difference is what normalising buys."""
    spec = declared()
    seeds = [args.seed + offset for offset in range(args.seeds)]
    # values[workload][metric or "raw:"+metric][set] -> one value per seed
    values: Dict[str, Dict[str, List[List[float]]]] = {}
    failed_jobs = 0
    for set_index in range(args.sets):
        for entry in spec["workloads"]:
            per_metric = values.setdefault(entry["name"], {})
            for seed in seeds:
                record = run_child(entry["name"], seed, args.seconds, False, args.quick)
                failed_jobs += record["failed"]
                for name, metric in record["metrics"].items():
                    series = {name: metric["value"]}
                    if "raw_median_s" in metric:
                        series["raw:" + name] = metric["raw_median_s"]
                    for key, value in series.items():
                        sets = per_metric.setdefault(key, [[] for _ in range(args.sets)])
                        sets[set_index].append(value)
    rows: List[Dict[str, Any]] = []
    over = 0
    print(f"\nnoise study: {args.sets} sets x {len(seeds)} seeds (from {args.seed})")
    print(f"{'workload':<16}{'metric':<20}{'bound':>8}{'spread':>18}{'worse-by':>10}{'raw spread':>20}")
    for workload, per_metric in values.items():
        for entry in spec["end_to_end"]:
            name = entry["name"]
            row = _compare_sets(per_metric[name], entry["better"])
            # The set-up spread is reported but not gated: its first sample
            # in a fresh checkout compiles bytecode.
            gated = row["worse_by"] + (row["set_spreads"] if name != "setup_s" else [])
            bad = any(x > entry["bound"] for x in gated)
            over += bad
            raw = _compare_sets(per_metric["raw:" + name], entry["better"]) if "raw:" + name in per_metric else None
            rows.append({
                "workload": workload, "metric": name, "bound": entry["bound"],
                **row, "within_bound": not bad, "raw": raw,
            })
            print(
                f"{workload:<16}{name:<20}{entry['bound']:>8.3f}"
                f"{'/'.join(f'{x:.4f}' for x in row['set_spreads']):>18}"
                f"{'/'.join(f'{x:+.4f}' for x in row['worse_by']):>10}"
                f"{'/'.join(f'{x:.4f}' for x in raw['set_spreads']) if raw else '':>20}"
                + ("   OVER BOUND" if bad else "")
            )
    print(f"{over} (metric, workload) pairs over their bound; {failed_jobs} failed jobs")
    if args.out:
        write_json(args.out, {
            "envelope": envelope(args), "sets": args.sets, "seeds": seeds, "rows": rows,
        })
        print(f"wrote {args.out}")
    return 1 if over or failed_jobs else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=12, help="every input derives from it")
    parser.add_argument("--seconds", type=int, default=None, help="length of the timed loop (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="1: the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true", help="small inputs for the self-test; numbers are NOT comparable")
    parser.add_argument("--sets", type=int, default=1, help="noise study: run everything this many times")
    parser.add_argument("--seeds", type=int, default=1, help="noise study: seeds per set, counting up from --seed")
    parser.add_argument("--out", help="write the full result (or noise study) as JSON here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    if args.workload is not None:
        return run_setup_probe(args) if args.setup_only else run_workload(args)
    if args.sets > 1 or args.seeds > 1:
        return run_sets(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
