"""Command-line interface: run the paper's workloads from a shell.

::

    python -m repro wordcount --lines 2000 --engine both
    python -m repro micro --remote 60 --engine m3r
    python -m repro matvec --rows 800 --iterations 3 --engine both
    python -m repro sysml --algorithm pagerank --size 400 --engine m3r
    python -m repro pig --script my_script.pig --engine both

Each command builds a fresh simulated cluster, generates the workload,
runs it on the selected engine(s) and prints simulated seconds plus the
headline metrics.  ``--engine both`` also verifies output equivalence,
which is the paper's own methodology.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro import hadoop_engine, m3r_engine
from repro.fs import SimulatedHDFS
from repro.sim import Cluster


def _engines(args: argparse.Namespace):
    kinds = ("hadoop", "m3r") if args.engine == "both" else (args.engine,)
    for kind in kinds:
        cluster = Cluster(args.nodes)
        fs = SimulatedHDFS(cluster, block_size=256 * 1024, replication=1)
        if kind == "hadoop":
            yield kind, hadoop_engine(filesystem=fs)
        else:
            yield kind, m3r_engine(filesystem=fs)


def _report(kind: str, seconds: float, extra: str = "") -> None:
    print(f"  {kind:>6}: {seconds:10.2f} simulated s{extra}")


def cmd_wordcount(args: argparse.Namespace) -> int:
    from repro.apps.wordcount import generate_text, wordcount_job

    text = generate_text(args.lines)
    outputs: Dict[str, Dict[str, int]] = {}
    print(f"wordcount over {len(text)} bytes, {args.nodes} nodes:")
    for kind, engine in _engines(args):
        engine.filesystem.write_text("/in.txt", text)
        result = engine.run_job(
            wordcount_job("/in.txt", "/out", args.reducers,
                          immutable=not args.mutating)
        )
        if not result.succeeded:
            print(f"  {kind}: FAILED — {result.error}")
            return 1
        outputs[kind] = {
            str(k): v.get() for k, v in engine.filesystem.read_kv_pairs("/out")
        }
        _report(kind, result.simulated_seconds,
                f"  ({len(outputs[kind])} distinct words)")
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
    from repro.apps import matvec

    block = max(1, args.rows // 8)
    num_row_blocks = (args.rows + block - 1) // block
    print(f"sparse matvec, {args.rows} rows, {args.iterations} iterations:")
    checksums: Dict[str, float] = {}
    for kind, engine in _engines(args):
        g = matvec.generate_blocked_matrix(args.rows, block, sparsity=args.sparsity)
        v = matvec.generate_blocked_vector(args.rows, block)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks,
                                 args.nodes)
        matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks,
                                 args.nodes)
        if kind == "m3r":
            engine.warm_cache_from("/G")
            engine.warm_cache_from("/V0")
        total = 0.0
        current = "/V0"
        for iteration in range(args.iterations):
            nxt = f"/V{iteration + 1}"
            sequence = matvec.iteration_jobs(
                "/G", current, nxt, "/scratch", iteration, num_row_blocks,
                args.nodes,
            )
            total += sum(r.simulated_seconds for r in sequence.run_all(engine))
            current = nxt
        checksum = sum(
            float(value.values.sum())
            for _, value in engine.filesystem.read_kv_pairs(current)
        )
        checksums[kind] = round(checksum, 9)
        _report(kind, total, f"  (checksum {checksum:+.6e})")
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
        if args.workload == "wordcount":
            from repro.apps.wordcount import generate_text, wordcount_job

            engine.filesystem.write_text("/in.txt", generate_text(args.lines))
            result = engine.run_job(
                wordcount_job("/in.txt", "/out", args.nodes)
            )
            if not result.succeeded:
                print(f"  {result.job_name}: FAILED — {result.error}")
                return 1
        else:
            from repro.apps import matvec

            block = max(1, args.rows // 8)
            num_row_blocks = (args.rows + block - 1) // block
            g = matvec.generate_blocked_matrix(
                args.rows, block, sparsity=args.sparsity
            )
            v = matvec.generate_blocked_vector(args.rows, block)
            matvec.write_partitioned(
                engine.filesystem, "/G", g, num_row_blocks, args.nodes
            )
            matvec.write_partitioned(
                engine.filesystem, "/V0", v, num_row_blocks, args.nodes
            )
            if kind == "m3r":
                engine.warm_cache_from("/G")
                engine.warm_cache_from("/V0")
            current = "/V0"
            for iteration in range(args.iterations):
                nxt = f"/V{iteration + 1}"
                sequence = matvec.iteration_jobs(
                    "/G", current, nxt, "/scratch", iteration,
                    num_row_blocks, args.nodes,
                )
                for result in sequence.run_all(engine):
                    if not result.succeeded:
                        print(f"  {result.job_name}: FAILED — {result.error}")
                        return 1
                current = nxt

    events = read_jsonl(out)
    waterfalls = collect_waterfalls(events)
    if args.format == "json":
        print(json.dumps(render_json(waterfalls), indent=2, sort_keys=True))
    else:
        print(render_text(waterfalls))
        print(f"trace written to {out} ({len(events)} events)")
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """Admin view of memory governance: run an iterative workload on an
    M3R engine with the requested budget, then print per-place occupancy
    and the lifetime eviction/spill/rehydration counters."""
    from repro.apps import matvec

    cluster = Cluster(args.nodes)
    fs = SimulatedHDFS(cluster, block_size=256 * 1024, replication=1)
    engine = m3r_engine(
        filesystem=fs,
        cache_capacity_bytes=args.capacity_bytes,
        cache_high_watermark=args.high_watermark,
        cache_low_watermark=args.low_watermark,
        cache_eviction_policy=args.policy,
        cache_spill=not args.no_spill,
    )
    block = max(1, args.rows // 8)
    num_row_blocks = (args.rows + block - 1) // block
    g = matvec.generate_blocked_matrix(args.rows, block, sparsity=args.sparsity)
    v = matvec.generate_blocked_vector(args.rows, block)
    matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks, args.nodes)
    matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks, args.nodes)
    engine.warm_cache_from("/G")
    engine.warm_cache_from("/V0")
    current = "/V0"
    for iteration in range(args.iterations):
        nxt = f"/V{iteration + 1}"
        sequence = matvec.iteration_jobs(
            "/G", current, nxt, "/scratch", iteration, num_row_blocks, args.nodes,
        )
        for result in sequence.run_all(engine):
            if not result.succeeded:
                print(f"  {result.job_name}: FAILED — {result.error}")
                return 1
        current = nxt

    stats = engine.cache.stats()
    capacity = stats["capacity_bytes"]
    if args.format == "json":
        doc = {
            "workload": "matvec",
            "iterations": args.iterations,
            "nodes": args.nodes,
            "policy": stats["policy"],
            "capacity_bytes": capacity,
            "high_watermark": stats["high_watermark"],
            "low_watermark": stats["low_watermark"],
            "spill_enabled": stats["spill_enabled"],
            "places": {
                str(place_id): stats["places"][place_id]
                for place_id in sorted(stats["places"])
            },
            "lifetime": stats["lifetime"],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(
        f"cache-stats after {args.iterations} matvec iteration(s), "
        f"{args.nodes} places:"
    )
    print(
        f"  policy={stats['policy']}"
        f"  capacity={'unbounded' if capacity <= 0 else f'{capacity:,} B'}"
        f"  watermarks={stats['high_watermark']:.2f}/{stats['low_watermark']:.2f}"
        f"  spill={'on' if stats['spill_enabled'] else 'off'}"
    )
    header = (f"  {'place':>5}  {'entries':>7}  {'spilled':>7}  "
              f"{'resident B':>12}  {'occupancy B':>12}  {'high-water B':>12}")
    print(header)
    for place_id in sorted(stats["places"]):
        slot = stats["places"][place_id]
        print(
            f"  {place_id:>5}  {slot['entries']:>7}  {slot['spilled']:>7}  "
            f"{slot['resident_bytes']:>12,}  {slot['occupancy_bytes']:>12,}  "
            f"{slot['high_water_bytes']:>12,}"
        )
    counters = stats["lifetime"]["counters"]
    print(
        f"  totals: hits={counters.get('cache_lookup_hits', 0)}"
        f" misses={counters.get('cache_lookup_misses', 0)}"
        f" evictions={counters.get('cache_evictions', 0)}"
        f" spills={counters.get('cache_spills', 0)}"
        f" rehydrations={counters.get('cache_rehydrations', 0)}"
        f" spill-bytes={counters.get('cache_spill_bytes', 0):,}"
    )
    return 0


def cmd_shuffle_stats(args: argparse.Namespace) -> int:
    """Admin view of the shuffle: run a workload on an M3R engine, then
    print per-place shuffle bytes (the skew view), local vs remote traffic
    and de-duplication savings."""
    from repro.sim.metrics import Metrics, shuffle_place_bytes, shuffle_skew

    cluster = Cluster(args.nodes)
    fs = SimulatedHDFS(cluster, block_size=256 * 1024, replication=1)
    engine = m3r_engine(filesystem=fs)
    totals = Metrics()
    jobs = 0

    if args.workload == "wordcount":
        from repro.apps.wordcount import generate_text, wordcount_job

        engine.filesystem.write_text("/in.txt", generate_text(args.lines))
        for iteration in range(args.iterations):
            result = engine.run_job(
                wordcount_job("/in.txt", f"/out-{iteration}", args.nodes)
            )
            if not result.succeeded:
                print(f"  {result.job_name}: FAILED — {result.error}")
                return 1
            totals.merge(result.metrics)
            jobs += 1
    else:
        from repro.apps import matvec

        block = max(1, args.rows // 8)
        num_row_blocks = (args.rows + block - 1) // block
        g = matvec.generate_blocked_matrix(
            args.rows, block, sparsity=args.sparsity
        )
        v = matvec.generate_blocked_vector(args.rows, block)
        matvec.write_partitioned(
            engine.filesystem, "/G", g, num_row_blocks, args.nodes
        )
        matvec.write_partitioned(
            engine.filesystem, "/V0", v, num_row_blocks, args.nodes
        )
        engine.warm_cache_from("/G")
        engine.warm_cache_from("/V0")
        current = "/V0"
        for iteration in range(args.iterations):
            nxt = f"/V{iteration + 1}"
            sequence = matvec.iteration_jobs(
                "/G", current, nxt, "/scratch", iteration, num_row_blocks,
                args.nodes,
            )
            for result in sequence.run_all(engine):
                if not result.succeeded:
                    print(f"  {result.job_name}: FAILED — {result.error}")
                    return 1
                totals.merge(result.metrics)
                jobs += 1
            current = nxt

    per_place = shuffle_place_bytes(totals)
    skew = shuffle_skew(totals)
    if args.format == "json":
        doc = {
            "workload": args.workload,
            "jobs": jobs,
            "nodes": args.nodes,
            "places": {str(place): per_place[place] for place in sorted(per_place)},
            "skew": skew,
            "traffic": {
                "remote_bytes": totals.get("shuffle_remote_bytes"),
                "remote_records": totals.get("shuffle_remote_records"),
                "local_bytes": totals.get("shuffle_local_bytes"),
                "local_records": totals.get("shuffle_local_records"),
            },
            "dedup_saved_bytes": totals.get("dedup_saved_bytes"),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(
        f"shuffle-stats: {args.workload}, {jobs} job(s), {args.nodes} places:"
    )
    print(f"  {'place':>5}  {'shuffle bytes':>13}")
    peak = max(per_place.values(), default=1) or 1
    for place in sorted(per_place):
        nbytes = per_place[place]
        bar = "#" * round(40 * nbytes / peak)
        print(f"  {place:>5}  {nbytes:>13,}  {bar}")
    print(
        f"  skew: max={skew['max_bytes']:,.0f} B"
        f"  mean={skew['mean_bytes']:,.1f} B"
        f"  ratio={skew['skew_ratio']:.3f}"
    )
    print(
        f"  traffic: remote={totals.get('shuffle_remote_bytes'):,} B"
        f" ({totals.get('shuffle_remote_records'):,} records)"
        f"  local={totals.get('shuffle_local_bytes'):,} B"
        f" ({totals.get('shuffle_local_records'):,} records)"
    )
    print(f"  dedup saved: {totals.get('dedup_saved_bytes'):,} B")
    return 0


def cmd_batch_stats(args: argparse.Namespace) -> int:
    """Admin view of the batched record path (DESIGN.md §14): run one
    workload through the per-record, batched and batched+imc paths, verify
    they are byte-identical, and print wall-clock, shuffle volume and the
    ``batch_*`` / ``imc_*`` metrics side by side."""
    import time

    from repro.api.conf import BATCH_ENABLED_KEY, BATCH_SIZE_KEY, IMC_ENABLED_KEY

    modes = ("per-record", "batched", "batched+imc")
    engines = ("m3r", "hadoop") if args.engine == "both" else (args.engine,)
    doc: Dict[str, object] = {
        "workload": args.workload,
        "nodes": args.nodes,
        "engines": {},
    }

    for kind in engines:
        runs: Dict[str, Dict[str, object]] = {}
        for mode in modes:
            cluster = Cluster(args.nodes)
            fs = SimulatedHDFS(cluster, block_size=256 * 1024, replication=1)
            engine = (
                m3r_engine(filesystem=fs)
                if kind == "m3r"
                else hadoop_engine(filesystem=fs)
            )
            if args.workload == "wordcount":
                from repro.apps.wordcount import generate_text, wordcount_job

                engine.filesystem.write_text("/in.txt", generate_text(args.lines))
                confs = [wordcount_job("/in.txt", "/out", args.nodes)]
                final_out = "/out"
            else:
                from repro.apps.grep import grep_sequence
                from repro.apps.wordcount import generate_text

                engine.filesystem.write_text("/in.txt", generate_text(args.lines))
                confs = list(
                    grep_sequence("/in.txt", "/out", args.pattern, num_reducers=args.nodes)
                )
                final_out = "/out"
            for conf in confs:
                if mode != "per-record":
                    conf.set_boolean(BATCH_ENABLED_KEY, True)
                    conf.set_int(BATCH_SIZE_KEY, args.batch_size)
                if mode == "batched+imc":
                    conf.set_boolean(IMC_ENABLED_KEY, True)
            started = time.perf_counter()
            simulated = 0.0
            shuffle_bytes = 0
            metrics: Dict[str, int] = {}
            for conf in confs:
                result = engine.run_job(conf)
                if not result.succeeded:
                    print(f"  {result.job_name}: FAILED — {result.error}")
                    return 1
                simulated += result.simulated_seconds
                task_counters = result.counters.as_dict().get(
                    "org.apache.hadoop.mapreduce.TaskCounter", {}
                )
                shuffle_bytes += task_counters.get("REDUCE_SHUFFLE_BYTES", 0)
                for name, value in result.metrics.counters.items():
                    if name.startswith(("batch_", "imc_")):
                        metrics[name] = metrics.get(name, 0) + value
            wall = time.perf_counter() - started
            runs[mode] = {
                "wall_seconds": wall,
                "simulated_seconds": simulated,
                "reduce_shuffle_bytes": shuffle_bytes,
                "metrics": metrics,
                "output": sorted(
                    (str(k), str(v))
                    for k, v in engine.filesystem.read_kv_pairs(final_out)
                ),
            }
            if hasattr(engine, "shutdown"):
                engine.shutdown()
        base = runs["per-record"]
        for mode in modes[1:]:
            if (
                runs[mode]["output"] != base["output"]
                or runs[mode]["simulated_seconds"] != base["simulated_seconds"]
            ):
                print(f"  IDENTITY VIOLATION: {kind}/{mode} diverged "
                      "from the per-record path")
                return 1
        doc["engines"][kind] = {  # type: ignore[index]
            mode: {k: v for k, v in run.items() if k != "output"}
            for mode, run in runs.items()
        }

    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"batch-stats: {args.workload}, {args.nodes} nodes, "
          f"batch size {args.batch_size} (outputs verified identical)")
    for kind, runs in doc["engines"].items():  # type: ignore[union-attr]
        print(f"  {kind}:")
        base_wall = runs["per-record"]["wall_seconds"]
        for mode, run in runs.items():
            speedup = base_wall / run["wall_seconds"] if run["wall_seconds"] else 0.0
            m = run["metrics"]
            extras = ""
            if m.get("batch_batches"):
                extras += f"  batches={m['batch_batches']:,}"
            if m.get("imc_input_records"):
                extras += (
                    f"  imc: {m['imc_input_records']:,}→"
                    f"{m['imc_output_records']:,} records"
                    f" ({m.get('imc_spills', 0)} spills)"
                )
            print(
                f"    {mode:>12}: wall={run['wall_seconds']:.3f}s"
                f" ({speedup:.2f}x)"
                f"  simulated={run['simulated_seconds']:.4f}s"
                f"  shuffle={run['reduce_shuffle_bytes']:,} B{extras}"
            )
    return 0


def cmd_restore_stats(args: argparse.Namespace) -> int:
    """Cross-job reuse admin view: run the same workload ``--runs`` times
    on one M3R engine with ``m3r.restore.enabled`` on, then print per-run
    seconds, the rerun speedup, and the result store's contents."""
    from repro.api.conf import RESTORE_ENABLED_KEY
    from repro.api.counters import JobCounter

    cluster = Cluster(args.nodes)
    fs = SimulatedHDFS(cluster, block_size=256 * 1024, replication=1)
    engine = m3r_engine(filesystem=fs)

    if args.workload == "wordcount":
        from repro.apps.wordcount import generate_text, wordcount_job

        engine.filesystem.write_text("/in.txt", generate_text(args.lines))

        def run_once(tag: int):
            conf = wordcount_job("/in.txt", f"/out-{tag}", args.nodes)
            conf.set_boolean(RESTORE_ENABLED_KEY, True)
            return [engine.run_job(conf)]
    else:
        from repro.apps import matvec

        block = max(1, args.rows // 8)
        num_row_blocks = (args.rows + block - 1) // block
        g = matvec.generate_blocked_matrix(args.rows, block,
                                           sparsity=args.sparsity)
        v = matvec.generate_blocked_vector(args.rows, block)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks,
                                 args.nodes)
        matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks,
                                 args.nodes)

        def run_once(tag: int):
            sequence = matvec.iteration_jobs(
                "/G", "/V0", f"/V1-{tag}", f"/scratch-{tag}", 0,
                num_row_blocks, args.nodes,
            )
            for conf in sequence.confs:
                conf.set_boolean(RESTORE_ENABLED_KEY, True)
            return sequence.run_all(engine)

    runs = []
    for index in range(args.runs):
        results = run_once(index)
        for result in results:
            if not result.succeeded:
                print(f"  {result.job_name}: FAILED — {result.error}")
                return 1
        runs.append({
            "seconds": sum(r.simulated_seconds for r in results),
            "hits": sum(r.metrics.get("restore_hits") for r in results),
            "misses": sum(r.metrics.get("restore_misses") for r in results),
            "tasks": sum(
                r.counters.value(JobCounter.TOTAL_LAUNCHED_MAPS)
                + r.counters.value(JobCounter.TOTAL_LAUNCHED_REDUCES)
                for r in results
            ),
            "served_bytes": sum(
                r.metrics.get("restore_served_bytes") for r in results
            ),
        })

    speedup = (
        runs[0]["seconds"] / runs[1]["seconds"]
        if len(runs) > 1 and runs[1]["seconds"] > 0
        else None
    )
    stats = engine.restore.stats()
    if args.format == "json":
        doc = {
            "workload": args.workload,
            "nodes": args.nodes,
            "runs": runs,
            "speedup": speedup,
            "store": stats,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"restore-stats: {args.workload}, {args.runs} run(s), "
          f"{args.nodes} places:")
    print(f"  {'run':>3}  {'seconds':>10}  {'tasks':>6}  {'hits':>4}  "
          f"{'misses':>6}  {'served B':>10}")
    for index, run in enumerate(runs):
        print(f"  {index:>3}  {run['seconds']:>10.4f}  {run['tasks']:>6}  "
              f"{run['hits']:>4}  {run['misses']:>6}  "
              f"{run['served_bytes']:>10,}")
    if speedup is not None:
        print(f"  rerun speedup: {speedup:.1f}x")
    lifetime = stats["lifetime"]
    print(
        f"  store: {len(stats['entries'])}/{stats['max_entries']} entries"
        f"  lineage={stats['lineage_entries']}"
        f"  hits={lifetime.get('hits', 0)}"
        f" misses={lifetime.get('misses', 0)}"
        f" invalidations={lifetime.get('invalidations', 0)}"
        f" bypasses={lifetime.get('bypasses', 0)}"
        f" evicted={lifetime.get('evicted', 0)}"
    )
    for entry in stats["entries"]:
        print(
            f"    {entry['fingerprint'][:12]}…  {entry['job_name']}"
            f"  → {entry['output_path']}  ({entry['parts']} part(s),"
            f" {entry['nbytes']:,} B)"
        )
    return 0


def _service_demo(args: argparse.Namespace):
    """Build one engine + a JobService and submit the demo workload:
    ``--tenants`` tenants, each with its own /out/<tenant> namespace and
    ``--jobs`` wordcount jobs over a shared corpus.  Returns the service
    (queues loaded, nothing run yet) so the caller picks the drive mode."""
    from repro.apps.wordcount import generate_text, wordcount_job
    from repro.service import JobService

    kind = "m3r" if args.engine == "both" else args.engine
    cluster = Cluster(args.nodes)
    fs = SimulatedHDFS(cluster, block_size=256 * 1024, replication=1)
    engine = m3r_engine(filesystem=fs) if kind == "m3r" else hadoop_engine(
        filesystem=fs
    )
    fs.write_text("/in.txt", generate_text(args.lines))

    weights = [int(w) for w in args.weights.split(",")] if args.weights else []
    service = JobService(engine)
    clients = []
    for i in range(args.tenants):
        name = f"t{i}"
        clients.append(
            service.register_tenant(
                name,
                weight=weights[i] if i < len(weights) else 1,
                prefixes=(f"/out/{name}",),
            )
        )
    tickets = []
    for job in range(args.jobs):
        for client in clients:
            tickets.append(
                client.submit(
                    wordcount_job("/in.txt", f"/out/{client.tenant}/run-{job}")
                )
            )
    return service, tickets


def cmd_serve(args: argparse.Namespace) -> int:
    """Always-on server demo: start the background worker, stream the
    admission/scheduling narration as the queues drain, then summarize."""
    service, tickets = _service_demo(args)
    print(
        f"serving {len(tickets)} submission(s) from {args.tenants} tenant(s) "
        f"on one {service.service_stats()['engine']} engine:"
    )
    with service:
        for ticket in tickets:
            service.wait(ticket)
    for event in service.events():
        line = f"  [{event.action:>9}] {event.tenant:<6} {event.job_id}"
        if event.detail:
            line += f"  ({event.detail})"
        print(line)
    stats = service.service_stats()
    print("per-tenant totals:")
    for name, tstats in stats["tenants"].items():
        print(
            f"  {name:>6}: weight={tstats['weight']}"
            f"  jobs={tstats['jobs_run']}"
            f"  simulated={tstats['simulated_seconds']:.2f}s"
        )
    return 0


def cmd_service_stats(args: argparse.Namespace) -> int:
    """Deterministic admission/fairness accounting: load the demo queues,
    drain them caller-driven (single thread, reproducible schedule) and
    print the schedule plus the per-tenant isolation accounting."""
    service, _ = _service_demo(args)
    service.drain()
    if args.format == "json":
        stats = service.service_stats()
        stats["schedule"] = service.schedule_log()
        for name in list(stats["tenants"]):
            stats["tenants"][name] = service.tenant_stats(name)
        print(json.dumps(stats, indent=2, default=str))
        return 0
    stats = service.service_stats()
    print(f"service over one {stats['engine']} engine "
          f"(queue depth {stats['queue_depth']}):")
    print("  schedule:", " ".join(t for t, _ in service.schedule_log()))
    print(
        f"  {'tenant':>8} {'weight':>6} {'jobs':>5} {'sim s':>9}"
        f" {'cache B':>10} {'restore':>8}"
    )
    for name in sorted(stats["tenants"]):
        tstats = service.tenant_stats(name)
        cache = tstats.get("cache", {})
        restore = tstats.get("restore", {})
        print(
            f"  {name:>8} {tstats['weight']:>6} {tstats['jobs_run']:>5}"
            f" {tstats['simulated_seconds']:>9.2f}"
            f" {cache.get('occupancy_bytes', 0):>10,}"
            f" {len(restore.get('entries', ())):>8}"
        )
    return 0


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

    p = sub.add_parser("wordcount", help="Figure 8 workload")
    p.add_argument("--lines", type=int, default=2000)
    p.add_argument("--reducers", type=int, default=8)
    p.add_argument("--mutating", action="store_true",
                   help="use the object-reusing (non-ImmutableOutput) variant")
    p.set_defaults(func=cmd_wordcount)

    p = sub.add_parser("micro", help="Figure 6 workload")
    p.add_argument("--remote", type=int, default=50)
    p.add_argument("--pairs", type=int, default=2000)
    p.add_argument("--value-bytes", type=int, default=4096)
    p.set_defaults(func=cmd_micro)

    p = sub.add_parser("matvec", help="Figure 7 workload")
    p.add_argument("--rows", type=int, default=800)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--sparsity", type=float, default=0.01)
    p.set_defaults(func=cmd_matvec)

    p = sub.add_parser("sysml", help="Figures 9-11 workloads")
    p.add_argument("--algorithm", choices=("gnmf", "linreg", "pagerank"),
                   default="pagerank")
    p.add_argument("--size", type=int, default=400)
    p.add_argument("--block", type=int, default=100)
    p.add_argument("--sparsity", type=float, default=0.02)
    p.add_argument("--iterations", type=int, default=2)
    p.set_defaults(func=cmd_sysml)

    p = sub.add_parser(
        "trace",
        help="run a workload with lifecycle tracing and render the "
             "per-stage / per-place waterfall",
    )
    p.add_argument("--workload", choices=("wordcount", "matvec"),
                   default="matvec")
    p.add_argument("--out", default="m3r-trace.jsonl",
                   help="JSONL event stream destination "
                        "(default m3r-trace.jsonl)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--lines", type=int, default=2000,
                   help="wordcount input size")
    p.add_argument("--rows", type=int, default=400, help="matvec matrix rows")
    p.add_argument("--iterations", type=int, default=2)
    p.add_argument("--sparsity", type=float, default=0.01)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "cache-stats",
        help="memory-governance admin view: per-place occupancy, budget "
             "and eviction/spill counters after an iterative workload",
    )
    p.add_argument("--capacity-bytes", type=int, default=0,
                   help="per-place cache budget (0 = unbounded)")
    p.add_argument("--high-watermark", type=float, default=0.9)
    p.add_argument("--low-watermark", type=float, default=0.75)
    p.add_argument("--policy", choices=("lru", "fifo", "gds"), default="lru")
    p.add_argument("--no-spill", action="store_true",
                   help="drop evicted durable entries instead of spilling")
    p.add_argument("--rows", type=int, default=400)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--sparsity", type=float, default=0.01)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cache_stats)

    p = sub.add_parser(
        "shuffle-stats",
        help="shuffle admin view: per-place shuffle bytes, skew ratio, "
             "local/remote traffic, dedup savings",
    )
    p.add_argument("--workload", choices=("wordcount", "matvec"),
                   default="matvec")
    p.add_argument("--lines", type=int, default=2000,
                   help="wordcount input size")
    p.add_argument("--rows", type=int, default=400, help="matvec matrix rows")
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--sparsity", type=float, default=0.01)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_shuffle_stats)

    p = sub.add_parser(
        "batch-stats",
        help="batched record path admin view: per-record vs batched vs "
             "batched+imc wall-clock, shuffle bytes and fold metrics, with "
             "byte-identity verified",
    )
    p.add_argument("--workload", choices=("wordcount", "grep"),
                   default="wordcount")
    p.add_argument("--lines", type=int, default=2000,
                   help="generated input size")
    p.add_argument("--pattern", default="[a-f]+",
                   help="grep pattern (grep workload only)")
    p.add_argument("--batch-size", type=int, default=256,
                   help="m3r.batch.size for the batched modes")
    p.add_argument("--engine", choices=("m3r", "hadoop", "both"),
                   default="m3r")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_batch_stats)

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

    p = sub.add_parser(
        "restore-stats",
        help="cross-job reuse admin view: run a workload repeatedly with "
             "the result store on, show the rerun speedup and store "
             "contents",
    )
    p.add_argument("--workload", choices=("wordcount", "matvec"),
                   default="wordcount")
    p.add_argument("--lines", type=int, default=2000,
                   help="wordcount input size")
    p.add_argument("--rows", type=int, default=400, help="matvec matrix rows")
    p.add_argument("--sparsity", type=float, default=0.01)
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_restore_stats)

    p = sub.add_parser(
        "serve",
        help="multi-tenant job service demo: start the always-on worker, "
             "stream admission/scheduling events while tenant queues drain",
    )
    p.add_argument("--tenants", type=int, default=3)
    p.add_argument("--jobs", type=int, default=2,
                   help="submissions per tenant")
    p.add_argument("--lines", type=int, default=500,
                   help="shared wordcount corpus size")
    p.add_argument("--weights", default="",
                   help="comma-separated fair-share weights, e.g. 2,1,1")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "service-stats",
        help="deterministic service accounting: drain the demo tenant "
             "queues caller-driven and print the fair schedule plus "
             "per-tenant isolation stats",
    )
    p.add_argument("--tenants", type=int, default=3)
    p.add_argument("--jobs", type=int, default=2,
                   help="submissions per tenant")
    p.add_argument("--lines", type=int, default=500,
                   help="shared wordcount corpus size")
    p.add_argument("--weights", default="",
                   help="comma-separated fair-share weights, e.g. 2,1,1")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_service_stats)

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
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
