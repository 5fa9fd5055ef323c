"""Command-line interface: run the paper's workloads from a shell.

::

    python -m repro --engine both wordcount --lines 2000
    python -m repro --engine m3r micro --remote 60
    python -m repro --engine both matvec --rows 800 --iterations 3
    python -m repro --engine m3r sysml --algorithm pagerank --size 400
    python -m repro --engine both pig --script my_script.pig
    python -m repro --engine m3r stats --workload matvec \\
        --set m3r.restore.enabled=true --format json

Each command builds a fresh simulated cluster, generates the workload,
runs it on the selected engine(s) and prints simulated seconds plus the
headline metrics.  ``--engine both`` also verifies output equivalence,
which is the paper's own methodology.  ``wordcount``, ``matvec``,
``trace`` and ``stats`` stage their input and build each run's jobs
through one staging function (:func:`_stage`); ``stats`` is the
administrative view (paper §5.3): one schema-versioned document per
engine, with ``--tenants`` run through a caller-driven job service.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import hadoop_engine, m3r_engine
from repro.fs import SimulatedHDFS
from repro.sim import Cluster

#: The workloads :func:`_stage` builds.
WORKLOADS = ("wordcount", "grep", "matvec")

#: Version of the ``stats`` document layout; bump on any key change.
STATS_SCHEMA_VERSION = 3

#: What :func:`_stage` reads from every command that runs a workload;
#: each command's own flags override these.
_STAGE_DEFAULTS: Dict[str, Any] = dict(
    workload="wordcount", lines=2000, rows=400, sparsity=0.01, iterations=1,
    pattern="[a-f]+", reducers=None, mutating=False, settings=(),
)

#: One run's job confs and the path its result lands at.
Plan = Callable[[str], Tuple[list, str]]


class _JobFailed(Exception):
    """A workload job failed; :func:`main` reports it and exits 1."""


def _engine(kind: str, nodes: int):
    fs = SimulatedHDFS(Cluster(nodes), block_size=256 * 1024, replication=1)
    return m3r_engine(filesystem=fs) if kind == "m3r" else hadoop_engine(filesystem=fs)


def _engines(args: argparse.Namespace):
    kinds = ("hadoop", "m3r") if args.engine == "both" else (args.engine,)
    for kind in kinds:
        yield kind, _engine(kind, args.nodes)


def _stage(args: argparse.Namespace, kind: str, engine) -> Plan:
    """Write ``args.workload``'s input on ``engine`` once — on M3R also
    warm it into the cache, the paper's §6.2 methodology — and return
    ``plan(root)``: one run's job confs, every output under ``root`` and
    every ``--set`` knob applied, and the path the run's result lands at."""
    fs, nodes = engine.filesystem, args.nodes
    if args.workload == "matvec":
        from repro.apps import matvec

        block = max(1, args.rows // 8)
        row_blocks = (args.rows + block - 1) // block
        matrix = matvec.generate_blocked_matrix(args.rows, block, sparsity=args.sparsity)
        vector = matvec.generate_blocked_vector(args.rows, block)
        matvec.write_partitioned(fs, "/G", matrix, row_blocks, nodes)
        matvec.write_partitioned(fs, "/V0", vector, row_blocks, nodes)
        if kind == "m3r":
            engine.warm_cache_from("/G")
            engine.warm_cache_from("/V0")

        def build(root: str) -> Tuple[list, str]:
            confs: list = []
            current = "/V0"
            for iteration in range(args.iterations):
                nxt = f"{root}/V{iteration + 1}"
                confs += matvec.iteration_jobs(
                    "/G", current, nxt, f"{root}/scratch", iteration,
                    row_blocks, nodes,
                )
                current = nxt
            return confs, current
    else:
        from repro.apps.grep import grep_sequence
        from repro.apps.wordcount import generate_text, wordcount_job

        fs.write_text("/in.txt", generate_text(args.lines))

        def build(root: str) -> Tuple[list, str]:
            out = f"{root}/out"
            if args.workload == "grep":
                return list(grep_sequence(
                    "/in.txt", out, args.pattern, temp_dir=f"{root}/tmp-grep",
                    num_reducers=nodes,
                )), out
            return [wordcount_job("/in.txt", out, args.reducers or nodes,
                                  immutable=not args.mutating)], out

    def plan(root: str) -> Tuple[list, str]:
        confs, out = build(root)
        for conf in confs:
            for key, value in args.settings:
                conf.set(key, value)
        return confs, out

    return plan


def _checked(result):
    """``result`` if its job succeeded; a failed job ends the command."""
    if not result.succeeded:
        raise _JobFailed(f"{result.job_name}: FAILED — {result.error}")
    return result


def _run(engine, confs: list) -> list:
    """Run one workload run's jobs in order."""
    return [_checked(engine.run_job(conf)) for conf in confs]


def _seconds(results: list) -> float:
    return sum(result.simulated_seconds for result in results)


def _report(kind: str, seconds: float, extra: str = "") -> None:
    print(f"  {kind:>6}: {seconds:10.2f} simulated s{extra}")


def cmd_wordcount(args: argparse.Namespace) -> int:
    outputs: Dict[str, Dict[str, int]] = {}
    print(f"wordcount over {args.lines} lines, {args.nodes} nodes:")
    for kind, engine in _engines(args):
        confs, out = _stage(args, kind, engine)("")
        seconds = _seconds(_run(engine, confs))
        outputs[kind] = {
            str(k): v.get() for k, v in engine.filesystem.read_kv_pairs(out)
        }
        _report(kind, seconds, f"  ({len(outputs[kind])} distinct words)")
    return _check_equivalence(outputs)


def cmd_micro(args: argparse.Namespace) -> int:
    from repro.apps.microbenchmark import run_microbenchmark

    print(f"shuffle microbenchmark, remote={args.remote}%, "
          f"{args.pairs} pairs x {args.value_bytes} B:")
    for kind, engine in _engines(args):
        result = run_microbenchmark(
            engine, args.remote, num_pairs=args.pairs,
            value_bytes=args.value_bytes, num_reducers=args.nodes,
        )
        iters = " / ".join(f"{t:.2f}" for t in result.iteration_seconds)
        _report(kind, sum(result.iteration_seconds), f"  (iterations: {iters})")
    return 0


def cmd_matvec(args: argparse.Namespace) -> int:
    print(f"sparse matvec, {args.rows} rows, {args.iterations} iterations:")
    checksums: Dict[str, float] = {}
    for kind, engine in _engines(args):
        confs, out = _stage(args, kind, engine)("")
        seconds = _seconds(_run(engine, confs))
        checksum = sum(
            float(value.values.sum())
            for _, value in engine.filesystem.read_kv_pairs(out)
        )
        checksums[kind] = round(checksum, 9)
        _report(kind, seconds, f"  (checksum {checksum:+.6e})")
    if len(checksums) == 2 and len(set(checksums.values())) != 1:
        print("  ERROR: engines disagree on the result")
        return 1
    return 0


def cmd_sysml(args: argparse.Namespace) -> int:
    from repro.sysml import run_script
    from repro.sysml import scripts as dml

    builders = {
        "pagerank": lambda fs: dml.pagerank_inputs(
            fs, args.size, args.block, sparsity=args.sparsity,
            num_partitions=args.nodes),
        "linreg": lambda fs: dml.linreg_inputs(
            fs, args.size, max(10, args.size // 4), args.block,
            sparsity=args.sparsity, num_partitions=args.nodes),
        "gnmf": lambda fs: dml.gnmf_inputs(
            fs, args.size, max(10, args.size // 2), 10, args.block,
            sparsity=args.sparsity, num_partitions=args.nodes),
    }
    scripts = {"pagerank": dml.PAGERANK_SCRIPT, "linreg": dml.LINREG_SCRIPT,
               "gnmf": dml.GNMF_SCRIPT}
    print(f"SystemML {args.algorithm}, size {args.size}, "
          f"{args.iterations} iterations:")
    for kind, engine in _engines(args):
        inputs = builders[args.algorithm](engine.filesystem)
        script = dml.with_iterations(scripts[args.algorithm], args.iterations)
        _, runtime = run_script(
            script, engine, inputs=inputs, block_size=args.block,
            num_reducers=args.nodes,
        )
        _report(kind, runtime.total_seconds,
                f"  ({runtime.jobs_run} generated jobs)")
    return 0


def cmd_jaql(args: argparse.Namespace) -> int:
    from repro.jaql import JaqlRunner

    with open(args.script) as handle:
        source = handle.read()
    data: Optional[str] = None
    if args.data:
        with open(args.data) as handle:
            data = handle.read()
    print(f"jaql pipeline {args.script}:")
    outputs: Dict[str, List[object]] = {}
    for kind, engine in _engines(args):
        if data is not None:
            engine.filesystem.write_text(args.data_path, data)
        runner = JaqlRunner(engine, num_reducers=args.nodes)
        sink = runner.run(source)
        _report(kind, runner.total_seconds, f"  ({runner.jobs_run} jobs)")
        outputs[kind] = runner.read_output(sink)
    return _check_equivalence(outputs)


def cmd_pig(args: argparse.Namespace) -> int:
    from repro.pig import PigRunner

    with open(args.script) as handle:
        source = handle.read()
    data: Optional[str] = None
    if args.data:
        with open(args.data) as handle:
            data = handle.read()
    print(f"pig script {args.script}:")
    outputs: Dict[str, List[str]] = {}
    for kind, engine in _engines(args):
        if data is not None:
            engine.filesystem.write_text(args.data_path, data)
        runner = PigRunner(engine, num_reducers=args.nodes)
        stored = runner.run(source)
        _report(kind, runner.total_seconds, f"  ({runner.jobs_run} jobs)")
        outputs[kind] = sorted(
            row for path in stored for row in runner.read_output(path)
        )
    return _check_equivalence(outputs)


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a workload with lifecycle tracing enabled, write the JSONL
    event stream to ``--out`` and render the per-stage / per-place
    waterfall (text or JSON)."""
    from repro.lifecycle.trace import (
        collect_waterfalls,
        read_jsonl,
        render_json,
        render_text,
    )

    out = args.out
    if os.path.exists(out):
        os.remove(out)  # the JSONL sink appends; a CLI run starts fresh
    for kind, engine in _engines(args):
        engine.trace_path = out
        _run(engine, _stage(args, kind, engine)("")[0])

    events = read_jsonl(out)
    waterfalls = collect_waterfalls(events)
    if args.format == "json":
        print(json.dumps(render_json(waterfalls), indent=2, sort_keys=True))
    else:
        print(render_text(waterfalls))
        print(f"trace written to {out} ({len(events)} events)")
    return 0


def _stats_doc(args: argparse.Namespace, kind: str, engine, runs: List[list],
               service) -> Dict[str, Any]:
    """One engine's administrative document, built from the accessors the
    subsystems already expose and from the runs' summed job metrics."""
    from repro.api.counters import JobCounter
    from repro.sim.metrics import Metrics, shuffle_place_bytes, shuffle_skew

    totals = Metrics()
    for results in runs:
        for result in results:
            totals.merge(result.metrics)
    seconds = [_seconds(results) for results in runs]
    doc: Dict[str, Any] = {
        "schema_version": STATS_SCHEMA_VERSION,
        "engine": kind,
        "workload": args.workload,
        "nodes": args.nodes,
        "settings": dict(args.settings),
        "runs": [
            {
                "seconds": run_seconds,
                "jobs": len(results),
                "tasks": sum(
                    r.counters.value(JobCounter.TOTAL_LAUNCHED_MAPS)
                    + r.counters.value(JobCounter.TOTAL_LAUNCHED_REDUCES)
                    for r in results
                ),
                "hits": sum(r.metrics.get("restore_hits") for r in results),
                "misses": sum(r.metrics.get("restore_misses") for r in results),
                "served_bytes": sum(
                    r.metrics.get("restore_served_bytes") for r in results
                ),
            }
            for run_seconds, results in zip(seconds, runs)
        ],
        "speedup": (
            seconds[0] / seconds[1]
            if len(seconds) > 1 and seconds[1] > 0 else None
        ),
        "shuffle": {
            "places": shuffle_place_bytes(totals),
            "skew": shuffle_skew(totals),
            "traffic": {
                name: totals.get(f"shuffle_{name}")
                for name in ("remote_bytes", "remote_records",
                             "local_bytes", "local_records")
            },
            "dedup_saved_bytes": totals.get("dedup_saved_bytes"),
        },
        "batch": {
            name: value for name, value in sorted(totals.counters.items())
            if name.startswith(("batch_", "imc_"))
        },
        "restore": engine.restore.stats(),
    }
    if kind == "m3r":
        doc["cache"] = engine.cache.stats()
    if service is not None:
        stats = service.service_stats()
        stats["schedule"] = [ticket for _, ticket in service.schedule_log()]
        stats["tenants"] = {name: service.tenant_stats(name) for name in stats["tenants"]}
        doc["service"] = stats
    return doc


def _render(doc: Dict[Any, Any], depth: int = 0) -> None:
    """The text view of a stats document: a ``key: value`` line per leaf,
    nested sections indented, a list of rows one line per row."""
    pad = "  " * depth
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            print(f"{pad}{key}:")
            _render(value, depth + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for index, row in enumerate(value):
                cells = "  ".join(f"{k}={_cell(v)}" for k, v in row.items())
                print(f"{pad}  [{index}] {cells}")
        else:
            print(f"{pad}{key}: {_cell(value)}")


def _cell(value: Any) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:,.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, list):
        return " ".join(_cell(item) for item in value)
    return str(value)


def cmd_stats(args: argparse.Namespace) -> int:
    """The administrative view (paper §5.3): run the workload ``--runs``
    times per engine — each run under its own output root, so a rerun
    with ``m3r.restore.enabled`` is a reuse hit — directly or, with
    ``--tenants``, through a caller-driven service, then print one
    schema-versioned document per engine.

    The service is configured with the ``--set`` knobs; tenant ``t<i>``
    has the ``i``-th ``--weights`` entry, owns ``/out/t<i>`` and submits
    one job sequence per run."""
    from repro.api.conf import Configuration
    from repro.api.job import JobSequence
    from repro.service import JobService

    weights = [int(w) for w in args.weights.split(",")] if args.weights else []
    docs: Dict[str, Dict[str, Any]] = {}
    for kind, engine in _engines(args):
        plan = _stage(args, kind, engine)
        service = None
        if args.tenants:
            config = Configuration()
            for key, value in args.settings:
                config.set(key, value)
            service = JobService(engine, config)
            clients = [
                service.register_tenant(
                    f"t{i}",
                    weight=weights[i] if i < len(weights) else None,
                    prefixes=(f"/out/t{i}",),
                )
                for i in range(args.tenants)
            ]
            tickets = [
                [
                    client.submit(
                        JobSequence(plan(f"/out/{client.tenant}/run-{run}")[0])
                    )
                    for client in clients
                ]
                for run in range(args.runs)
            ]
            service.drain()
            runs = [
                [_checked(r) for ticket in run for r in service.wait(ticket)]
                for run in tickets
            ]
        else:
            runs = [_run(engine, plan(f"/run-{i}")[0]) for i in range(args.runs)]
        docs[kind] = _stats_doc(args, kind, engine, runs, service)
    if args.format == "json":
        print(json.dumps(docs, indent=2, sort_keys=True))
    else:
        _render(docs)
    return 0


#: What ``--set`` accepts for a bool knob.
_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _knob_setting(text: str) -> Tuple[str, Any]:
    """``--set KEY=VALUE``: KEY must be a user-settable ``KnobRegistry``
    key and VALUE must parse as that knob's type."""
    from repro.analysis.knobs import REGISTRY

    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    if key not in REGISTRY or REGISTRY.get(key).internal:
        raise argparse.ArgumentTypeError(
            f"unknown knob {key!r}: not a settable KnobRegistry key"
        )
    kind = REGISTRY.get(key).type
    if kind == "bool":
        flag = raw.strip().lower()
        if flag not in _BOOLEANS:
            raise argparse.ArgumentTypeError(f"{key} is a bool, got {raw!r}")
        return key, _BOOLEANS[flag]
    try:
        return key, {"int": int, "float": float}.get(kind, str)(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{key} is {kind}, got {raw!r}") from None


def _explain_rule(code: str) -> int:
    from repro.analysis import default_rules, rule_by_id

    rule = rule_by_id(code)
    if rule is None:
        known = ", ".join(r.id for r in default_rules())
        print(
            f"unknown rule id {code!r}; known rules: {known}",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.id} — {rule.summary}")
    print()
    print(f"rationale: {rule.rationale}")
    print()
    print("example:")
    for line in rule.example.splitlines():
        print(f"  {line}")
    print()
    print(f"fix: {rule.fix}")
    return 0


#: Markers bounding the generated knob table in README.md.
KNOB_TABLE_BEGIN = "<!-- knob-table:begin -->"
KNOB_TABLE_END = "<!-- knob-table:end -->"


def _check_docs(readme_path) -> int:
    from repro.analysis import render_markdown_table

    if not readme_path.exists():
        print(f"FAIL: {readme_path} not found", file=sys.stderr)
        return 1
    text = readme_path.read_text(encoding="utf-8")
    try:
        head, rest = text.split(KNOB_TABLE_BEGIN, 1)
        block, _ = rest.split(KNOB_TABLE_END, 1)
    except ValueError:
        print(
            f"FAIL: {readme_path} is missing the "
            f"{KNOB_TABLE_BEGIN}/{KNOB_TABLE_END} markers",
            file=sys.stderr,
        )
        return 1
    expected = render_markdown_table()
    if block.strip() != expected.strip():
        print(
            "FAIL: README knob table has drifted from the KnobRegistry — "
            "regenerate the block between the knob-table markers from "
            "repro.analysis.knobs.render_markdown_table()",
            file=sys.stderr,
        )
        return 1
    print("README knob table matches the KnobRegistry")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.analysis import Analyzer, render_json, render_text

    if args.explain:
        return _explain_rule(args.explain)
    if args.check_docs:
        return _check_docs(Path("README.md"))

    roots = (
        [Path(p) for p in args.paths]
        if args.paths
        else [Path(repro.__file__).parent]
    )
    findings = Analyzer().run(roots)
    print(render_json(findings) if args.format == "json" else render_text(findings))
    active = sum(1 for f in findings if not f.suppressed)
    if active:
        print(f"FAIL: {active} unsuppressed finding(s)", file=sys.stderr)
        return 1
    return 0


def _check_equivalence(outputs: Dict[str, object]) -> int:
    if len(outputs) == 2:
        hadoop_out, m3r_out = outputs.get("hadoop"), outputs.get("m3r")
        if hadoop_out != m3r_out:
            print("  ERROR: engines disagree on the output")
            return 1
        print("  outputs verified identical across engines")
    return 0


def _workload_parser(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    """A sub-command that runs a workload through :func:`_stage`."""
    p = sub.add_parser(name, **kwargs)
    # Before the flags: a flag's own default must win over these.
    p.set_defaults(func=func, **_STAGE_DEFAULTS)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="M3R reproduction: run the paper's workloads on the "
                    "simulated cluster",
    )
    parser.add_argument("--engine", choices=("m3r", "hadoop", "both"),
                        default="both")
    parser.add_argument("--nodes", type=int, default=8,
                        help="cluster size (default 8)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _workload_parser(sub, "wordcount", cmd_wordcount, help="Figure 8 workload")
    p.add_argument("--lines", type=int, default=2000)
    p.add_argument("--reducers", type=int, default=8)
    p.add_argument("--mutating", action="store_true",
                   help="use the object-reusing (non-ImmutableOutput) variant")

    p = sub.add_parser("micro", help="Figure 6 workload")
    p.add_argument("--remote", type=int, default=50)
    p.add_argument("--pairs", type=int, default=2000)
    p.add_argument("--value-bytes", type=int, default=4096)
    p.set_defaults(func=cmd_micro)

    p = _workload_parser(sub, "matvec", cmd_matvec, help="Figure 7 workload")
    p.set_defaults(workload="matvec")
    p.add_argument("--rows", type=int, default=800)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--sparsity", type=float, default=0.01)

    p = sub.add_parser("sysml", help="Figures 9-11 workloads")
    p.add_argument("--algorithm", choices=("gnmf", "linreg", "pagerank"),
                   default="pagerank")
    p.add_argument("--size", type=int, default=400)
    p.add_argument("--block", type=int, default=100)
    p.add_argument("--sparsity", type=float, default=0.02)
    p.add_argument("--iterations", type=int, default=2)
    p.set_defaults(func=cmd_sysml)

    p = _workload_parser(
        sub, "trace", cmd_trace,
        help="run a workload with lifecycle tracing and render the "
             "per-stage / per-place waterfall",
    )
    p.add_argument("--workload", choices=WORKLOADS, default="matvec")
    p.add_argument("--out", default="m3r-trace.jsonl",
                   help="JSONL event stream destination "
                        "(default m3r-trace.jsonl)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--lines", type=int, default=2000,
                   help="wordcount / grep input size")
    p.add_argument("--rows", type=int, default=400, help="matvec matrix rows")
    p.add_argument("--iterations", type=int, default=2)
    p.add_argument("--sparsity", type=float, default=0.01)

    p = _workload_parser(
        sub, "stats", cmd_stats,
        help="administrative view: run a workload --runs times, then print "
             "per-run seconds and reuse, cache, shuffle, batch, ReStore "
             "and (with --tenants) service statistics per engine",
    )
    p.add_argument("--workload", choices=WORKLOADS, default="wordcount")
    p.add_argument("--runs", type=int, default=2,
                   help="runs of the workload, each under its own output root")
    p.add_argument("--set", dest="settings", action="append", default=[],
                   type=_knob_setting, metavar="KEY=VALUE",
                   help="a KnobRegistry knob for every job (and the service "
                        "configuration); repeatable")
    p.add_argument("--tenants", type=int, default=0,
                   help="route the runs through a job service with this "
                        "many tenants, drained caller-driven (0 = direct)")
    p.add_argument("--weights", default="",
                   help="comma-separated fair-share weights of the "
                        "--tenants tenants, e.g. 2,1,1")
    p.add_argument("--lines", type=int, default=2000,
                   help="wordcount / grep input size")
    p.add_argument("--rows", type=int, default=400, help="matvec matrix rows")
    p.add_argument("--iterations", type=int, default=1,
                   help="matvec iterations per run")
    p.add_argument("--sparsity", type=float, default=0.01)
    p.add_argument("--pattern", default="[a-f]+", help="grep pattern")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("jaql", help="run a Jaql JSON pipeline")
    p.add_argument("--script", required=True, help="path to the pipeline file")
    p.add_argument("--data", help="local jsonl file to stage into the cluster")
    p.add_argument("--data-path", default="/data/input.json",
                   help="cluster path for --data (default /data/input.json)")
    p.set_defaults(func=cmd_jaql)

    p = sub.add_parser("pig", help="run a Pig Latin script")
    p.add_argument("--script", required=True, help="path to the .pig file")
    p.add_argument("--data", help="local file to stage into the cluster")
    p.add_argument("--data-path", default="/data/input.txt",
                   help="cluster path for --data (default /data/input.txt)")
    p.set_defaults(func=cmd_pig)

    from repro.analysis import default_rules

    p = sub.add_parser(
        "analyze",
        help="static lint: check the source tree against the M3R "
             "determinism/immutability/fingerprintability/knob rules ("
             + ", ".join(rule.id for rule in default_rules()) + ")",
        description="Static analysis over the source tree.  Exit codes: "
                    "0 = clean (no unsuppressed findings), "
                    "1 = findings or doc drift, 2 = usage error (unknown "
                    "rule id, bad flag).",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to analyze (default: the "
                        "installed repro package)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--explain", metavar="M3R00x",
                   help="print one rule's rationale, example and fix, "
                        "then exit")
    p.add_argument("--check-docs", action="store_true",
                   help="verify the README knob table matches the "
                        "KnobRegistry (exit 1 on drift)")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _JobFailed as failure:
        print(f"  {failure}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
