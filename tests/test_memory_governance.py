"""Memory governance: ledgers, LRU replacement, spill and rehydration.

Covers the unit layer (ledger arithmetic), the cache integration (LRU
victim selection, eviction/spill/rehydrate, pinning, range-alias safety,
the nbytes fallback) and the engine layer (bounded runs stay byte-identical
to unbounded runs, conf-key overrides, metrics attribution), plus the
invariants under several clients' put / lookup / evict streams,
interleaved round-robin on one cache.
"""

from __future__ import annotations

import pytest

from repro.api.conf import (
    CACHE_CAPACITY_KEY,
    CACHE_HIGH_WATERMARK_KEY,
    CACHE_LOW_WATERMARK_KEY,
    CACHE_PINNED_PATHS_KEY,
    CACHE_SPILL_KEY,
    JobConf,
    UnknownKnobWarning,
)
from repro.core.cache import KeyValueCache, split_cache_name
from repro.fs import InMemoryFileSystem
from repro.kvstore.store import BlockInfo, KeyValueStore
from repro.memory import MemoryGovernor, SpillManager, WatermarkLedger
from repro.sim.cost_model import paper_cluster_cost_model
from repro.x10.places import Place
from repro.x10.serializer import DedupSerializer, pairs_size
from tests.conftest import make_m3r


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #

def _places(n: int = 2):
    return [Place(i) for i in range(n)]


def _governed_cache(
    capacity: int,
    *,
    places: int = 2,
    spill: bool = True,
    high: float = 0.9,
    low: float = 0.75,
):
    fs = InMemoryFileSystem()
    governor = MemoryGovernor(
        budget=WatermarkLedger(capacity, high, low),
        spill=SpillManager(fs, paper_cluster_cost_model()),
        spill_enabled=spill,
    )
    return KeyValueCache(_places(places), governor=governor), fs


def _pairs(tag: str, n: int = 4):
    return [(f"{tag}-{i}", i) for i in range(n)]


# --------------------------------------------------------------------------- #
# ledger
# --------------------------------------------------------------------------- #

def test_budget_charge_release_and_watermarks():
    budget = WatermarkLedger(1000, high_watermark=0.9, low_watermark=0.5)
    budget.charge(0, 800)
    assert budget.occupancy(0) == 800
    assert not budget.over_high_watermark(0)
    budget.charge(0, 150)
    assert budget.over_high_watermark(0)
    # Eviction target reaches down to the LOW watermark (hysteresis).
    assert budget.eviction_target(0) == 950 - 500
    budget.release(0, 600)
    assert budget.occupancy(0) == 350
    assert budget.high_water(0) == 950  # high-water mark persists


def test_budget_unbounded_never_evicts():
    budget = WatermarkLedger()
    budget.charge(3, 10**12)
    assert not budget.over_high_watermark(3)
    assert budget.eviction_target(3) == 0


def test_budget_validation():
    with pytest.raises(ValueError):
        WatermarkLedger(-1)
    with pytest.raises(ValueError):
        WatermarkLedger(100, high_watermark=0.5, low_watermark=0.9)
    with pytest.raises(ValueError):
        WatermarkLedger(100, high_watermark=1.5)
    with pytest.raises(ValueError):
        WatermarkLedger().set_capacity("t", -1)


def test_ledger_capacity_is_per_owner():
    """The tenant ledger's shape: unbounded by default, each owner with its
    own ceiling, and the ``None`` owner (a path no tenant claims) untracked."""
    ledger = WatermarkLedger()
    ledger.set_capacity("small", 100)
    ledger.charge("small", 95)
    ledger.charge("free", 10**6)
    ledger.charge(None, 50)
    assert ledger.over_high_watermark("small")
    assert ledger.eviction_target("small") == 95 - 75
    assert not ledger.over_high_watermark("free")
    assert ledger.capacity("free") == 0 and ledger.occupancy(None) == 0


# --------------------------------------------------------------------------- #
# replacement: least recently used, through the cache
# --------------------------------------------------------------------------- #

def _resident(cache, path):
    return not cache.get_file(path, materialize=False).spilled


def test_lru_evicts_least_recently_touched():
    cache, _ = _governed_cache(40)  # evict above 36, down to 30
    for name in ("/a", "/b", "/c"):
        cache.put_file(name, 0, _pairs(name), 10)
    cache.get_file("/a")  # refresh a: b is now the coldest
    cache.put_file("/d", 0, _pairs("d"), 10)  # 40 > 36: free 10
    assert [p for p in ("/a", "/b", "/c", "/d") if not _resident(cache, p)] == ["/b"]


def test_policy_victims_cover_requested_bytes():
    cache, _ = _governed_cache(100, low=0.7)  # evict above 90, down to 70
    for name in ("/a", "/b", "/c"):
        cache.put_file(name, 0, _pairs(name), 30)
    cache.governor.pin_prefix("/d")
    cache.put_file("/d", 0, _pairs("d"), 30)  # 120 > 90: free 50
    # 60 >= 50 after /a and /b: the wave stops there.
    assert [p for p in ("/a", "/b", "/c", "/d") if not _resident(cache, p)] == ["/a", "/b"]
    assert cache.governor.lifetime.counters["cache_evictions"] == 2
    cache.governor.unpin_prefix("/d")


def test_rename_keeps_recency():
    cache, _ = _governed_cache(40)
    cache.put_file("/old/a", 0, _pairs("a"), 10)
    cache.put_file("/b", 0, _pairs("b"), 10)
    cache.get_file("/old/a")  # a is now more recent than b
    cache.rename_path("/old", "/new")
    cache.put_file("/c", 0, _pairs("c"), 20)  # 40 > 36: free 10
    assert _resident(cache, "/new/a")
    assert not _resident(cache, "/b")


def test_retired_eviction_policy_key_warns():
    with pytest.warns(UnknownKnobWarning):
        JobConf().set("m3r.cache.eviction-policy", "gds")


# --------------------------------------------------------------------------- #
# cache integration: eviction, spill, rehydration
# --------------------------------------------------------------------------- #

def test_eviction_spills_and_rehydrates_byte_identical():
    cache, fs = _governed_cache(100)
    first = _pairs("first")
    cache.put_file("/a", 0, list(first), 60)
    cache.put_file("/b", 0, _pairs("second"), 60)  # pushes over 90
    entry_a = cache.get_file("/a", materialize=False)
    assert entry_a is not None and entry_a.spilled and entry_a.pairs is None
    # The spill file exists on the raw filesystem, outside job namespaces.
    assert fs.exists(entry_a.spill.path)
    stats = cache.governor.lifetime.counters
    assert stats["cache_evictions"] == 1 and stats["cache_spills"] == 1
    # A materializing lookup transparently rehydrates, identical pairs.
    hit = cache.get_file("/a")
    assert hit is not None and not hit.spilled
    assert hit.pairs == first
    assert cache.governor.lifetime.counters["cache_rehydrations"] == 1


def test_spilled_entries_remain_visible_to_namespace_queries():
    cache, _ = _governed_cache(100)
    cache.put_file("/dir/a", 0, _pairs("a"), 60)
    cache.put_file("/dir/b", 0, _pairs("b"), 60)
    assert cache.get_file("/dir/a", materialize=False).spilled
    # contains/paths_under still see the spilled entry (cachefs union view).
    assert cache.contains_path("/dir/a")
    assert cache.paths_under("/dir") == ["/dir/a", "/dir/b"]
    # Metadata peeks did NOT rehydrate anything.
    assert cache.governor.lifetime.counters.get("cache_rehydrations", 0) == 0


def test_peek_does_not_perturb_lru_order():
    cache, _ = _governed_cache(200)
    cache.put_file("/a", 0, _pairs("a"), 60)
    cache.put_file("/b", 0, _pairs("b"), 60)
    # Metadata peeks at /a must not refresh it...
    for _ in range(5):
        cache.get_file("/a", materialize=False)
    cache.put_file("/c", 0, _pairs("c"), 80)  # 200 > 180 high watermark
    # ...so /a (the true LRU) is the victim, not /b.
    assert cache.get_file("/a", materialize=False).spilled
    assert not cache.get_file("/b", materialize=False).spilled


def test_whole_file_eviction_leaves_no_stale_range_alias():
    """A split lookup that matched the whole-file entry must keep working
    after that entry is evicted — and must never see pairs=None."""
    cache, _ = _governed_cache(100)
    data = _pairs("whole", 8)
    cache.put_file("/f", 0, list(data), 60)
    # Whole-file alias serves the full-range split.
    alias = cache.get_split("/f", 0, 60, file_length=60)
    assert alias is not None and alias.pairs == data
    cache.put_file("/g", 0, _pairs("other"), 60)  # evicts /f
    assert cache.get_file("/f", materialize=False).spilled
    # The alias path rehydrates through the same entry: no stale alias, no
    # spilled entry ever escapes a materializing lookup.
    again = cache.get_split("/f", 0, 60, file_length=60)
    assert again is not None
    assert again.pairs == data and not again.spilled
    # An exact-range entry under the same path is independent of the whole
    # file and survives its eviction.
    cache.put_split("/f", 0, 30, 1, _pairs("range"), 20)
    ranged = cache.get_split("/f", 0, 30)
    assert ranged is not None and ranged.name == split_cache_name("/f", 0, 30)


def test_pinned_entries_survive_eviction_waves():
    cache, _ = _governed_cache(100)
    cache.put_file("/keep", 0, _pairs("keep"), 60)
    assert cache.pin("/keep")
    cache.put_file("/loser", 0, _pairs("loser"), 60)
    # /keep is older but pinned; /loser takes the eviction.
    assert not cache.get_file("/keep", materialize=False).spilled
    assert cache.get_file("/loser", materialize=False).spilled
    cache.unpin("/keep")
    cache.put_file("/new", 0, _pairs("new"), 60)
    assert cache.get_file("/keep", materialize=False).spilled


def test_pinned_prefix_protects_job_outputs():
    cache, _ = _governed_cache(100)
    cache.governor.pin_prefix("/out")
    cache.put_file("/out/part-00000", 0, _pairs("out"), 60)
    cache.put_file("/other", 0, _pairs("other"), 60)
    assert not cache.get_file("/out/part-00000", materialize=False).spilled
    assert cache.get_file("/other", materialize=False).spilled
    cache.governor.unpin_prefix("/out")


def test_spill_disabled_drops_durable_keeps_temp():
    cache, _ = _governed_cache(100, spill=False)
    cache.put_file("/durable", 0, _pairs("d"), 60, durable=True)
    cache.put_file("/tmp/x", 0, _pairs("t"), 60, durable=False)
    cache.put_file("/durable2", 0, _pairs("d2"), 60, durable=True)
    # Durable entries may be dropped outright (re-readable from the FS)...
    assert cache.get_file("/durable", materialize=False) is None
    # ...but the non-durable temp output exists only here: never dropped.
    temp = cache.get_file("/tmp/x", materialize=False)
    assert temp is not None and not temp.spilled
    assert cache.governor.lifetime.counters["cache_evictions"] >= 1
    assert cache.governor.lifetime.counters.get("cache_spills", 0) == 0


def test_put_nbytes_fallback_uses_serializer_estimate():
    cache, _ = _governed_cache(0)  # unbounded: accounting only
    pairs = _pairs("sized", 16)
    entry = cache.put_file("/z", 0, pairs, 0)  # caller passed no size
    assert entry.nbytes > 0
    assert cache.governor.budget.occupancy(0) == entry.nbytes
    neg = cache.put_file("/neg", 0, pairs, -5)
    assert neg.nbytes == entry.nbytes


def test_delete_path_releases_budget_and_spill_files():
    cache, fs = _governed_cache(100)
    cache.put_file("/a", 0, _pairs("a"), 60)
    cache.put_file("/b", 0, _pairs("b"), 60)  # /a spills
    spilled = cache.get_file("/a", materialize=False)
    spill_path = spilled.spill.path
    assert fs.exists(spill_path)
    assert cache.delete_path("/a")
    assert not fs.exists(spill_path)  # spill file discarded with the entry
    assert cache.delete_path("/b")
    assert cache.governor.budget.occupancy(0) == 0
    assert len(cache) == 0


def test_rename_keeps_spilled_entries_and_policy_state():
    cache, _ = _governed_cache(100)
    cache.put_file("/old/a", 0, _pairs("a"), 60)
    cache.put_file("/old/b", 0, _pairs("b"), 60)  # /old/a spills
    cache.rename_path("/old", "/new")
    assert cache.get_file("/old/a", materialize=False) is None
    moved = cache.get_file("/new/a")
    assert moved is not None and moved.pairs == _pairs("a")
    resident = cache.get_file("/new/b")
    assert resident is not None and resident.pairs == _pairs("b")


def test_reconfigure_shrinks_budget_and_enforces():
    cache, _ = _governed_cache(0)  # starts unbounded
    cache.put_file("/a", 0, _pairs("a"), 60)
    cache.put_file("/b", 0, _pairs("b"), 60)
    assert cache.governor.lifetime.counters.get("cache_evictions", 0) == 0
    cache.reconfigure(capacity_bytes=100)
    assert cache.governor.lifetime.counters["cache_evictions"] >= 1
    assert cache.governor.budget.occupancy(0) <= 100


def test_stats_shape():
    cache, _ = _governed_cache(100)
    cache.put_file("/a", 0, _pairs("a"), 60)
    cache.put_file("/b", 1, _pairs("b"), 60)
    stats = cache.stats()
    assert stats["capacity_bytes"] == 100
    assert "policy" not in stats
    assert set(stats["places"]) == {0, 1}
    assert stats["places"][0]["resident_bytes"] == 60
    assert "counters" in stats["lifetime"]


@pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared-value"])
def test_spill_is_sized_as_the_memo_walk_sizes_it(shared):
    """A block entry of distinct objects is sized by its columns, one whose
    pairs share a value object by the memo walk; either way the record
    carries the de-duplicated wire size and the file its raw length."""
    from repro.apps import matvec

    pairs = list(matvec.generate_blocked_matrix(250, 100, sparsity=0.1, seed=3))
    if shared:
        pairs = [(key, pairs[0][1]) for key, _ in pairs]
    fs = InMemoryFileSystem()
    record, _ = SpillManager(fs, paper_cluster_cost_model()).spill(pairs)
    message = DedupSerializer().measure_pairs(pairs)
    assert (record.wire_bytes, record.records) == (message.wire_bytes, len(pairs))
    assert fs.get_file_status(record.path).length == pairs_size(pairs)
    assert (message.wire_bytes < pairs_size(pairs)) == shared


# --------------------------------------------------------------------------- #
# kvstore byte accounting
# --------------------------------------------------------------------------- #

def test_store_place_bytes_counter_matches_scan():
    store = KeyValueStore(_places(3))
    store.put_block("/x", BlockInfo(place_id=0), _pairs("x"), 100)
    store.put_block("/y", BlockInfo(place_id=1), _pairs("y"), 40)
    store.put_block("/dir/z", BlockInfo(place_id=0), _pairs("z"), 60)
    for place in range(3):
        assert store.total_bytes_at_place(place) == store.scan_bytes_at_place(place)
    assert store.total_bytes_at_place(0) == 160
    store.rename("/x", "/renamed")
    assert store.total_bytes_at_place(0) == store.scan_bytes_at_place(0) == 160
    store.delete("/dir")
    assert store.total_bytes_at_place(0) == store.scan_bytes_at_place(0) == 100
    store.delete("/renamed")
    assert store.total_bytes_at_place(0) == store.scan_bytes_at_place(0) == 0


# --------------------------------------------------------------------------- #
# interleaving: put/get/evict streams of several clients, round-robin
# --------------------------------------------------------------------------- #

def test_concurrent_put_and_evict_invariants():
    """Eight writers' put/get streams, interleaved round-robin on one
    governed cache and split between two tenants (one budgeted), with one
    rename across their namespaces midway: every materializing lookup
    returns live pairs, and the final place and tenant ledgers reconcile
    exactly with the resident entries."""
    cache, _ = _governed_cache(2000, places=4)
    tenants = {
        "left": ("/w0", "/w1", "/w2", "/w3"),
        "right": ("/w4", "/w5", "/w6", "/w7"),
    }
    cache.governor.register_tenant("left", tenants["left"], capacity_bytes=1500)
    cache.governor.register_tenant("right", tenants["right"])
    for i in range(40):
        if i == 20:
            cache.rename_path("/w0", "/w7/from-w0")
        for worker_id in range(8):
            path = f"/w{worker_id}/f{i % 10}"
            pairs = _pairs(f"{worker_id}-{i}", 6)
            cache.put_file(path, (worker_id + i) % 4, list(pairs), 120)
            hit = cache.get_file(path)
            assert hit is not None and hit.pairs is not None
            assert not hit.spilled
    # Ledger reconciliation: occupancy equals the bytes of resident entries.
    per_place = {p: 0 for p in range(4)}
    per_tenant = {name: 0 for name in tenants}
    for entry in cache.entries():
        if not entry.spilled:
            per_place[entry.place_id] += entry.nbytes
            for name, prefixes in tenants.items():
                if entry.path.startswith(tuple(p + "/" for p in prefixes)):
                    per_tenant[name] += entry.nbytes
    for place, expect in per_place.items():
        assert cache.governor.budget.occupancy(place) == expect
    for name, expect in per_tenant.items():
        assert cache.governor.tenants.occupancy(name) == expect
    assert per_tenant["right"] > 0 and any(
        entry.path.startswith("/w7/from-w0/") for entry in cache.entries()
    )
    assert cache.governor.lifetime.counters.get("cache_evictions", 0) > 0


def test_concurrent_lookup_during_eviction_never_sees_spilled():
    """A churning writer and three readers, interleaved round-robin: after
    every put, each reader looks up every seed entry, and a materialised
    hit is never spilled — even when the churn had just evicted it."""
    cache, _ = _governed_cache(500)
    for i in range(4):
        cache.put_file(f"/seed{i}", 0, _pairs(f"seed{i}"), 100)
    for i in range(120):
        cache.put_file(f"/churn{i % 6}", 0, _pairs(f"c{i}"), 100)
        for _reader in range(3):
            for seed in range(4):
                hit = cache.get_file(f"/seed{seed}")
                if hit is not None:
                    assert hit.pairs is not None and not hit.spilled
    assert cache.governor.lifetime.counters.get("cache_rehydrations", 0) > 0


# --------------------------------------------------------------------------- #
# engine integration
# --------------------------------------------------------------------------- #

def _run_matvec(engine, iterations: int = 2, rows: int = 200):
    from repro.apps import matvec

    block = max(1, rows // 8)
    num_row_blocks = (rows + block - 1) // block
    g = matvec.generate_blocked_matrix(rows, block, sparsity=0.05)
    v = matvec.generate_blocked_vector(rows, block)
    matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks, 4)
    matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks, 4)
    engine.warm_cache_from("/G")
    engine.warm_cache_from("/V0")
    current = "/V0"
    for iteration in range(iterations):
        nxt = f"/V{iteration + 1}"
        sequence = matvec.iteration_jobs(
            "/G", current, nxt, "/scratch", iteration, num_row_blocks, 4
        )
        for result in sequence.run_all(engine):
            assert result.succeeded, result.error
        current = nxt
    return sorted(
        (key, tuple(value.values.ravel().tolist()))
        for key, value in engine.filesystem.read_kv_pairs(current)
    )


def test_bounded_engine_matches_unbounded_byte_for_byte():
    unbounded = make_m3r(4)
    try:
        expected = _run_matvec(unbounded)
        assert unbounded.governor.lifetime.counters.get("cache_evictions", 0) == 0
    finally:
        unbounded.shutdown()

    bounded = make_m3r(4, cache_capacity_bytes=6000)
    try:
        actual = _run_matvec(bounded)
        # Pressure actually occurred, and the answer did not change.
        assert bounded.governor.lifetime.counters["cache_evictions"] > 0
        assert bounded.governor.lifetime.counters["cache_spills"] > 0
    finally:
        bounded.shutdown()
    assert actual == expected


def test_jobconf_overrides_reconfigure_governor():
    from repro.apps.wordcount import generate_text, wordcount_job

    engine = make_m3r(4)
    try:
        governor = engine.governor
        defaults = (
            governor.budget.capacity_bytes,
            governor.budget.high_watermark,
            governor.budget.low_watermark,
            governor.spill_enabled,
        )
        assert defaults == (0, 0.9, 0.75, True)
        engine.filesystem.write_text("/in.txt", generate_text(200))
        conf = wordcount_job("/in.txt", "/out", 4)
        conf.set_int(CACHE_CAPACITY_KEY, 50_000)
        conf.set(CACHE_HIGH_WATERMARK_KEY, 0.95)
        conf.set(CACHE_LOW_WATERMARK_KEY, 0.5)
        conf.set_boolean(CACHE_SPILL_KEY, False)
        conf.set_strings(CACHE_PINNED_PATHS_KEY, ["/precious"])
        result = engine.run_job(conf)
        assert result.succeeded
        # Every m3r.cache.* override reached the governor, and outlives
        # the job: it reconfigured the engine.
        assert (
            governor.budget.capacity_bytes,
            governor.budget.high_watermark,
            governor.budget.low_watermark,
            governor.spill_enabled,
        ) == (50_000, 0.95, 0.5, False)
        # Job-scoped pins are released after the job.
        assert engine.governor.pinned_prefixes() == []
    finally:
        engine.shutdown()


def test_spill_time_lands_on_job_clock_and_metrics():
    engine = make_m3r(4, cache_capacity_bytes=6000)
    try:
        from repro.apps import matvec

        rows, block = 200, 25
        num_row_blocks = (rows + block - 1) // block
        g = matvec.generate_blocked_matrix(rows, block, sparsity=0.05)
        v = matvec.generate_blocked_vector(rows, block)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_row_blocks, 4)
        matvec.write_partitioned(engine.filesystem, "/V0", v, num_row_blocks, 4)
        engine.warm_cache_from("/G")
        engine.warm_cache_from("/V0")
        sequence = matvec.iteration_jobs(
            "/G", "/V0", "/V1", "/scratch", 0, num_row_blocks, 4
        )
        results = [engine.run_job(conf) for conf in sequence]
        assert all(r.succeeded for r in results)
        spill_write = sum(
            r.metrics.time.get("spill_write") for r in results
        )
        if engine.governor.lifetime.counters.get("cache_spills", 0):
            assert spill_write > 0
            # Lifetime view accumulates the same category.
            assert engine.governor.lifetime.time.get("spill_write") >= spill_write
    finally:
        engine.shutdown()


def test_unbounded_default_changes_nothing():
    """Capacity 0 (the default) must leave per-job timings untouched by
    governance: no evictions, no spill charges, no governor seconds."""
    engine = make_m3r(4)
    try:
        expected = _run_matvec(engine)
        assert expected  # produced output
        counters = engine.governor.lifetime.counters
        assert counters.get("cache_evictions", 0) == 0
        assert counters.get("cache_spills", 0) == 0
        assert engine.governor.lifetime.time.get("spill_write") == 0.0
        assert engine.governor.drain_seconds() == 0.0
    finally:
        engine.shutdown()
