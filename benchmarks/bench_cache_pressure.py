"""Cache pressure — iterative matvec under per-place memory budgets.

The paper assumes the working set fits in cluster memory (Sections 3.2.1
and 7); the memory-governance subsystem lifts that assumption.  This
benchmark runs the Figure-7 iterative matvec with the per-place cache
budget set to 50% / 100% / 200% of the measured warm working set and
checks the two properties the subsystem promises:

* **correctness under pressure** — the result checksum is identical to
  the unbounded run at every ratio (evicted entries spill and rehydrate,
  they never corrupt);
* **cost shape** — below-working-set budgets produce evictions and
  spills and therefore cost more simulated time; at or above the working
  set there is no pressure, no evictions, and the unbounded timing;
* **conservation** — after every run, each place's budget occupancy, the
  bytes of its resident entries, the store's running byte counter and a
  full scan of the store's metadata are one number.

Set ``BENCH_SMOKE=1`` to shrink the run for CI smoke jobs.
"""

from __future__ import annotations

import os

import pytest

from common import BENCH_NODES, format_table, fresh_engine, publish, scaled_cost_model
from repro.apps import matvec

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

ROWS = 800 if SMOKE else 4000
BLOCK = 100 if SMOKE else 200
SPARSITY = 0.05
ITERATIONS = 2 if SMOKE else 3

#: Budget as a fraction of the measured per-place warm working set.
CAPACITY_RATIOS = (0.5, 1.0, 2.0)


def _assert_conserved(engine) -> None:
    """Occupancy == resident bytes == store counter == store scan, per place."""
    store = engine.cache.store
    for place in range(engine.num_places):
        resident = sum(
            entry.nbytes
            for entry in engine.cache.entries()
            if entry.place_id == place and not entry.spilled
        )
        counts = (
            engine.governor.budget.occupancy(place),
            resident,
            store.total_bytes_at_place(place),
            store.scan_bytes_at_place(place),
        )
        assert len(set(counts)) == 1, f"place {place}: {counts}"


def _run(capacity_bytes: int):
    """One governed matvec run; returns (checksum, seconds, stats)."""
    engine = fresh_engine(
        "m3r",
        cost_model=scaled_cost_model(),
        cache_capacity_bytes=capacity_bytes,
    )
    num_row_blocks = (ROWS + BLOCK - 1) // BLOCK
    g = matvec.generate_blocked_matrix(ROWS, BLOCK, sparsity=SPARSITY)
    v = matvec.generate_blocked_vector(ROWS, BLOCK)
    matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks, BENCH_NODES)
    matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks, BENCH_NODES)
    engine.warm_cache_from("/G")
    engine.warm_cache_from("/V0")
    warm_per_place = max(
        engine.cache.bytes_at_place(p) for p in range(engine.num_places)
    )
    total = 0.0
    current = "/V0"
    for iteration in range(ITERATIONS):
        nxt = f"/V{iteration + 1}"
        sequence = matvec.iteration_jobs(
            "/G", current, nxt, "/scratch", iteration, num_row_blocks, BENCH_NODES
        )
        for result in sequence.run_all(engine):
            assert result.succeeded, result.error
            total += result.simulated_seconds
        current = nxt
    checksum = round(
        sum(
            float(value.values.sum())
            for _, value in engine.filesystem.read_kv_pairs(current)
        ),
        9,
    )
    _assert_conserved(engine)
    counters = engine.governor.lifetime.counters
    stats = {
        "evictions": counters.get("cache_evictions", 0),
        "spills": counters.get("cache_spills", 0),
        "rehydrations": counters.get("cache_rehydrations", 0),
    }
    engine.shutdown()
    return checksum, total, warm_per_place, stats


@pytest.mark.benchmark(group="cache_pressure")
def test_cache_pressure_matvec(benchmark, capfd):
    data = {}

    def run():
        # Unbounded baseline also measures the warm per-place working set,
        # which the capacity ratios are derived from.
        base_checksum, base_seconds, warm, base_stats = _run(0)
        series = []
        for ratio in CAPACITY_RATIOS:
            capacity = int(warm * ratio)
            checksum, seconds, _, stats = _run(capacity)
            series.append((ratio, capacity, checksum, seconds, stats))
        data["base"] = (base_checksum, base_seconds, base_stats)
        data["series"] = series

    benchmark.pedantic(run, rounds=1, iterations=1)

    base_checksum, base_seconds, base_stats = data["base"]
    rows = [
        ("unbounded", "-", base_seconds, base_stats["evictions"],
         base_stats["spills"], base_stats["rehydrations"]),
    ]
    for ratio, capacity, _, seconds, stats in data["series"]:
        rows.append((
            f"{int(ratio * 100)}%", capacity, seconds,
            stats["evictions"], stats["spills"], stats["rehydrations"],
        ))
    text = format_table(
        f"Cache pressure: matvec {ROWS} rows x {ITERATIONS} iterations, "
        f"budget vs warm working set",
        ["budget", "bytes/place", "M3R (s)", "evictions", "spills", "rehydr"],
        rows,
    )
    publish("cache_pressure", text, capfd)

    # --- promised properties -------------------------------------------- #
    # Byte-identical output at every budget.
    for ratio, _, checksum, _, _ in data["series"]:
        assert checksum == base_checksum, (
            f"budget {ratio} changed the answer: {checksum} != {base_checksum}"
        )
    by_ratio = {ratio: stats for ratio, _, _, _, stats in data["series"]}
    # Below the working set: real pressure.
    assert by_ratio[0.5]["evictions"] > 0
    assert by_ratio[0.5]["spills"] > 0
    # Comfortably above the working set: no pressure, baseline timing.
    assert by_ratio[2.0]["evictions"] == 0
    over_seconds = next(s for r, _, _, s, _ in data["series"] if r == 2.0)
    assert over_seconds == pytest.approx(base_seconds, rel=1e-9)
