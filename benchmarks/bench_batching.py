"""Batched record path + automatic in-mapper combining — wall-clock gate.

The batched execution path (DESIGN.md §14) moves records from split to
collector in batches of ``engine_common.BATCH_SIZE`` and, when the job's
combiner is a licensed associative fold, collapses duplicate keys in a
bounded map-side hash aggregate *before* the sort/measure/transport
pipeline sees them (``m3r.imc.enabled``).  This benchmark checks the
design's two promises:

* **byte-identity** — for one job configuration, the per-record, batched
  and batched+imc paths commit identical output, identical counters and
  identical *simulated* seconds (exact equality, both engines);
* **wall-clock** — batching amortizes per-record Python dispatch and
  in-mapper combining skips the map-side sort of pre-combine records, so
  batched+imc beats the classic per-record path; the ≥1.5x wordcount
  assertion arms on non-smoke hosts with 4+ cores.

Shuffle volume is compared against the honest baseline: a wordcount with
*no* combiner at all (with a combiner configured, all three paths shuffle
the same bytes — that is the identity contract, not a regression).

Set ``BENCH_SMOKE=1`` to shrink the run for CI smoke jobs.
"""

from __future__ import annotations

import os
import time

import pytest

from common import format_table, fresh_engine, publish, scaled_cost_model
from repro.api.conf import BATCH_ENABLED_KEY, IMC_ENABLED_KEY
from repro.apps import matvec
from repro.apps.grep import grep_sequence
from repro.apps.wordcount import generate_text, wordcount_job
from repro.engine_common import BATCH_SIZE

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

PLACES = 8
LINES_PER_PART = 40 if SMOKE else 600
PARTS_PER_PLACE = 2 if SMOKE else 4

GREP_LINES = 200 if SMOKE else 4000
GREP_PATTERN = "[a-f]+"

MATVEC_ROWS = 400 if SMOKE else 1600
MATVEC_BLOCK = 100 if SMOKE else 200
MATVEC_ITERATIONS = 2

ENGINES = ("m3r", "hadoop")

#: mode name -> (batch enabled, imc enabled)
MODES = {
    "per-record": (False, False),
    "batched": (True, False),
    "batched+imc": (True, True),
}

IMC_METRICS = (
    "batch_batches",
    "batch_records",
    "imc_input_records",
    "imc_output_records",
    "imc_folded_records",
    "imc_spills",
)


def _apply_mode(conf, mode: str) -> None:
    batch, imc = MODES[mode]
    if batch:
        conf.set_boolean(BATCH_ENABLED_KEY, True)
    if imc:
        conf.set_boolean(IMC_ENABLED_KEY, True)


def _digest(fs, path: str):
    return tuple(
        (repr(k), repr(v))
        for status in fs.list_status(path)
        if not status.path.endswith("_SUCCESS")
        for k, v in fs.read_kv_pairs(status.path)
    )


def _summarize(results, wall: float, digest) -> dict:
    """Fold a job sequence's results into one comparable record."""
    counters = {}
    shuffle = 0
    simulated = 0.0
    metrics = {name: 0 for name in IMC_METRICS}
    for i, result in enumerate(results):
        assert result.succeeded, result.error
        per_job = result.counters.as_dict()
        counters[f"job{i}"] = per_job
        shuffle += per_job.get(
            "org.apache.hadoop.mapreduce.TaskCounter", {}
        ).get("REDUCE_SHUFFLE_BYTES", 0)
        simulated += result.simulated_seconds
        for name in IMC_METRICS:
            metrics[name] += result.metrics.get(name)
    return {
        "wall": wall,
        "digest": digest,
        "counters": counters,
        "shuffle_bytes": shuffle,
        "simulated": simulated,
        "metrics": metrics,
    }


def _wordcount_run(kind: str, mode: str, use_combiner: bool) -> dict:
    engine = fresh_engine(kind, num_nodes=PLACES, cost_model=scaled_cost_model())
    try:
        for part in range(PLACES * PARTS_PER_PLACE):
            engine.filesystem.write_text(
                f"/in/part-{part:05d}",
                generate_text(LINES_PER_PART, seed=7000 + part),
            )
        conf = wordcount_job(
            "/in", "/out", num_reducers=PLACES * 2, use_combiner=use_combiner
        )
        _apply_mode(conf, mode)
        started = time.perf_counter()
        result = engine.run_job(conf)
        wall = time.perf_counter() - started
        return _summarize([result], wall, _digest(engine.filesystem, "/out"))
    finally:
        if hasattr(engine, "shutdown"):
            engine.shutdown()


def _grep_run(kind: str, mode: str) -> dict:
    engine = fresh_engine(kind, num_nodes=PLACES, cost_model=scaled_cost_model())
    try:
        engine.filesystem.write_text("/in.txt", generate_text(GREP_LINES))
        sequence = grep_sequence(
            "/in.txt", "/out", GREP_PATTERN, num_reducers=PLACES
        )
        for conf in sequence:
            _apply_mode(conf, mode)
        started = time.perf_counter()
        results = sequence.run_all(engine)
        wall = time.perf_counter() - started
        return _summarize(results, wall, _digest(engine.filesystem, "/out"))
    finally:
        if hasattr(engine, "shutdown"):
            engine.shutdown()


def _matvec_run(kind: str, mode: str) -> dict:
    engine = fresh_engine(kind, num_nodes=PLACES, cost_model=scaled_cost_model())
    try:
        num_blocks = (MATVEC_ROWS + MATVEC_BLOCK - 1) // MATVEC_BLOCK
        g = matvec.generate_blocked_matrix(MATVEC_ROWS, MATVEC_BLOCK, sparsity=0.05)
        v = matvec.generate_blocked_vector(MATVEC_ROWS, MATVEC_BLOCK)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_blocks, PLACES)
        matvec.write_partitioned(engine.filesystem, "/V0", v, num_blocks, PLACES)
        results = []
        started = time.perf_counter()
        current = "/V0"
        for iteration in range(MATVEC_ITERATIONS):
            nxt = f"/V{iteration + 1}"
            sequence = matvec.iteration_jobs(
                "/G", current, nxt, "/scratch", iteration, num_blocks, PLACES
            )
            for conf in sequence:
                _apply_mode(conf, mode)
            results.extend(sequence.run_all(engine))
            current = nxt
        wall = time.perf_counter() - started
        return _summarize(results, wall, _digest(engine.filesystem, current))
    finally:
        if hasattr(engine, "shutdown"):
            engine.shutdown()


def _assert_identical(base: dict, other: dict, context: str) -> None:
    assert other["digest"] == base["digest"], f"{context}: output diverged"
    assert other["counters"] == base["counters"], f"{context}: counters diverged"
    assert other["simulated"] == base["simulated"], (
        f"{context}: simulated seconds diverged "
        f"({base['simulated']!r} vs {other['simulated']!r})"
    )


@pytest.mark.benchmark(group="batching")
def test_batched_record_path(benchmark, capfd):
    data = {}

    def run():
        wordcount = {}
        for kind in ENGINES:
            runs = {"per-record/no-combiner": _wordcount_run(kind, "per-record", False)}
            for mode in MODES:
                runs[mode] = _wordcount_run(kind, mode, True)
            wordcount[kind] = runs
        data["wordcount"] = wordcount
        data["grep"] = {
            kind: {mode: _grep_run(kind, mode) for mode in MODES}
            for kind in ENGINES
        }
        data["matvec"] = {
            kind: {
                mode: _matvec_run(kind, mode)
                for mode in ("per-record", "batched")
            }
            for kind in ENGINES
        }

    benchmark.pedantic(run, rounds=1, iterations=1)

    # ---- report ---------------------------------------------------------- #
    lines = []
    json_doc = {"smoke": SMOKE, "host_cores": os.cpu_count(), "workloads": {}}
    for workload in ("wordcount", "grep", "matvec"):
        rows = []
        json_doc["workloads"][workload] = {}
        for kind in ENGINES:
            runs = data[workload][kind]
            base_wall = runs["per-record"]["wall"]
            json_doc["workloads"][workload][kind] = {}
            for mode, run in runs.items():
                rows.append((
                    kind,
                    mode,
                    run["wall"],
                    base_wall / max(run["wall"], 1e-9),
                    run["simulated"],
                    run["shuffle_bytes"] / 1024.0,
                    run["metrics"]["imc_input_records"],
                    run["metrics"]["imc_output_records"],
                    run["metrics"]["imc_spills"],
                ))
                json_doc["workloads"][workload][kind][mode] = {
                    "wall_seconds": run["wall"],
                    "speedup_vs_per_record": base_wall / max(run["wall"], 1e-9),
                    "simulated_seconds": run["simulated"],
                    "reduce_shuffle_bytes": run["shuffle_bytes"],
                    "metrics": run["metrics"],
                }
        titles = {
            "wordcount": f"Wordcount, {PARTS_PER_PLACE} parts/place x "
                         f"{LINES_PER_PART} lines, batch size {BATCH_SIZE}",
            "grep": f"Grep (2-job sequence), {GREP_LINES} lines, "
                    f"pattern {GREP_PATTERN!r}",
            "matvec": f"Matvec {MATVEC_ROWS} rows x {MATVEC_ITERATIONS} "
                      f"iterations (vectorized map_batch)",
        }
        lines.append(format_table(
            titles[workload],
            ["engine", "mode", "wall (s)", "speedup", "simulated (s)",
             "shuffle KiB", "imc in", "imc out", "spills"],
            rows,
        ))
        lines.append("")
    publish("batching", "\n".join(lines).rstrip(), capfd, data=json_doc)

    # ---- byte-identity: one job config, three record paths --------------- #
    for workload in ("wordcount", "grep", "matvec"):
        for kind in ENGINES:
            runs = data[workload][kind]
            base = runs["per-record"]
            for mode, run in runs.items():
                if mode in ("per-record", "per-record/no-combiner"):
                    continue
                _assert_identical(base, run, f"{workload}/{kind}/{mode}")

    # ---- the batched path actually batched ------------------------------- #
    for workload in ("wordcount", "grep", "matvec"):
        for kind in ENGINES:
            assert data[workload][kind]["batched"]["metrics"]["batch_batches"] > 0

    for kind in ENGINES:
        wc = data["wordcount"][kind]
        # Dropping the combiner never changes committed output.
        assert wc["per-record/no-combiner"]["digest"] == wc["per-record"]["digest"]
        # IMC engaged and conserved records: folded + surviving == input.
        imc = wc["batched+imc"]["metrics"]
        assert imc["imc_input_records"] > 0
        assert imc["imc_output_records"] < imc["imc_input_records"]
        assert (imc["imc_output_records"] + imc["imc_folded_records"]
                == imc["imc_input_records"])
        # The point of combining before measurement/transport: the shuffle
        # shrinks vs the uncombined classic path.
        assert (wc["batched+imc"]["shuffle_bytes"]
                < wc["per-record/no-combiner"]["shuffle_bytes"])

    # ---- wall-clock gate: only meaningful with real cores ----------------- #
    if not SMOKE and (os.cpu_count() or 1) >= 4:
        for kind in ENGINES:
            wc = data["wordcount"][kind]
            speedup = (wc["per-record/no-combiner"]["wall"]
                       / max(wc["batched+imc"]["wall"], 1e-9))
            assert speedup >= 1.5, (
                f"wordcount/{kind}: batched+imc {speedup:.2f}x vs classic "
                f"per-record path "
                f"(per-record {wc['per-record/no-combiner']['wall']:.3f}s, "
                f"batched+imc {wc['batched+imc']['wall']:.3f}s)"
            )
