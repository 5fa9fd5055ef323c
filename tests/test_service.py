"""The multi-tenant job service: admission, isolation, fair scheduling.

The contracts under test are the service package's invariants:

* backpressure is typed and accounted (queue depth, per-tenant in-flight);
* cancel withdraws queued submissions and refuses running ones;
* a submission cannot drive the service from inside its own job;
* a tenant's cache budget evicts only that tenant's unpinned entries;
* the stride schedule, every output byte and every simulated second are a
  pure function of the admission order (20-seed sweep, both engines);
* each tenant's outputs are byte-identical to a solo engine run;
* ReStore visibility: private stores never serve another tenant's
  results, the shared namespace does.
"""

from __future__ import annotations

import pytest

from repro import hadoop_engine, m3r_engine
from repro.apps.wordcount import WordCountMapperImmutable, wordcount_job
from repro.fs import SimulatedHDFS
from repro.service import (
    AdmissionError,
    JobService,
    QueueFull,
    TenantLimitExceeded,
    TenantSpec,
)
from repro.sim import Cluster
from workloads import (
    enable_restore,
    histogram_job,
    snapshot_output,
    write_corpus,
)


# This suite constructs its own JobService around each engine, so it
# always builds bare engines — the conftest M3R_SERVICE=1 proxy would
# nest a service inside a service.
def make_m3r(num_nodes: int = 4):
    fs = SimulatedHDFS(Cluster(num_nodes), block_size=64 * 1024, replication=2)
    return m3r_engine(filesystem=fs)


def make_hadoop(num_nodes: int = 4):
    fs = SimulatedHDFS(Cluster(num_nodes), block_size=64 * 1024, replication=2)
    return hadoop_engine(filesystem=fs)


def wc(inp: str, out: str, reducers: int = 2):
    return wordcount_job(inp, out, reducers)


# --------------------------------------------------------------------- #
# admission / backpressure
# --------------------------------------------------------------------- #


class TestAdmission:
    def test_queue_full_rejects_with_backpressure(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        service.queue_depth = 2
        client = service.register_tenant("a", prefixes=("/out",))
        client.submit(wc("/in", "/out/r0"))
        client.submit(wc("/in", "/out/r1"))
        with pytest.raises(QueueFull):
            client.submit(wc("/in", "/out/r2"))
        stats = service.tenant_stats("a")
        assert stats["rejected"] == 1
        assert stats["submitted"] == 2
        rejected = [e for e in service.events() if e.action == "rejected"]
        assert rejected and rejected[0].detail == "queue-full"
        assert service.drain() == 2  # queued work still runs after rejection

    def test_tenant_inflight_limit(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        greedy = service.register_tenant("greedy", inflight_limit=2)
        other = service.register_tenant("other")
        greedy.submit(wc("/in", "/out/g0"))
        greedy.submit(wc("/in", "/out/g1"))
        with pytest.raises(TenantLimitExceeded):
            greedy.submit(wc("/in", "/out/g2"))
        # The limit is per tenant: another tenant still gets in.
        other.submit(wc("/in", "/out/o0"))
        assert service.tenant_stats("greedy")["rejected"] == 1
        assert service.tenant_stats("other")["rejected"] == 0

    def test_namespace_enforced_at_admission(self):
        engine = make_m3r()
        service = JobService(engine)
        client = service.register_tenant("caged", prefixes=("/out/caged",))
        with pytest.raises(AdmissionError):
            client.submit(wc("/in", "/out/other/steal"))

    def test_unknown_tenant_and_ticket(self):
        service = JobService(make_m3r())
        with pytest.raises(KeyError):
            service.submit("ghost", wc("/in", "/out"))
        with pytest.raises(KeyError):
            service.status("ghost/0")

    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="a/b")
        with pytest.raises(ValueError):
            TenantSpec(name="a", weight=0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", inflight_limit=0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", cache_budget_bytes=-1)


# --------------------------------------------------------------------- #
# cancel
# --------------------------------------------------------------------- #


class CancelFromInsideMapper(WordCountMapperImmutable):
    """Checks, from inside its own job, that the running submission is
    reported running and refuses cancellation."""

    service = None
    ticket = None
    checked = 0

    def map(self, key, value, output, reporter):
        cls = CancelFromInsideMapper
        assert cls.service.status(cls.ticket).state == "running"
        assert cls.service.cancel(cls.ticket) is False  # running: not cancellable
        cls.checked += 1
        super().map(key, value, output, reporter)


class ReentrantDriveMapper(WordCountMapperImmutable):
    """Tries to drive the service that is running its own job."""

    service = None

    def map(self, key, value, output, reporter):
        ReentrantDriveMapper.service.step()
        super().map(key, value, output, reporter)


class TestCancel:
    def test_cancel_queued_submission(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        client = service.register_tenant("a")
        first = client.submit(wc("/in", "/out/r0"))
        second = client.submit(wc("/in", "/out/r1"))
        assert service.cancel(second) is True
        assert service.status(second).state == "cancelled"
        service.drain()
        assert service.status(first).state == "succeeded"
        # A cancelled ticket never ran and returns no results.
        assert service.wait(second) == []
        assert not engine.filesystem.exists("/out/r1")

    def test_cancel_running_submission_refused(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=1)
        conf = wc("/in", "/out/gated")
        conf.set_mapper_class(CancelFromInsideMapper)
        service = JobService(engine)
        client = service.register_tenant("a")
        ticket = client.submit(conf)
        CancelFromInsideMapper.service = service
        CancelFromInsideMapper.ticket = ticket
        CancelFromInsideMapper.checked = 0
        (result,) = service.wait(ticket)
        assert result.succeeded, result.error
        assert CancelFromInsideMapper.checked > 0
        assert service.status(ticket).state == "succeeded"
        assert service.cancel(ticket) is False  # finished: not cancellable


def test_reentrant_drive_fails_the_job():
    engine = make_m3r()
    write_corpus(engine.filesystem, "/in", seed=1, parts=1)
    conf = wc("/in", "/out/reentrant")
    conf.set_mapper_class(ReentrantDriveMapper)
    service = JobService(engine)
    client = service.register_tenant("a")
    ReentrantDriveMapper.service = service
    result = client.run_job(conf)
    assert not result.succeeded
    assert "re-entrant drive" in result.error
    assert service.status("a/0").state == "failed"
    # The service is not wedged: the next submission runs.
    assert client.run_job(wc("/in", "/out/after")).succeeded


# --------------------------------------------------------------------- #
# per-tenant cache budgets
# --------------------------------------------------------------------- #


class TestTenantBudgets:
    def test_budget_exhaustion_evicts_only_own_entries(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=4)
        service = JobService(engine)
        # "hog" gets a budget smaller than two of its outputs; "neighbor"
        # is unbudgeted and its output is pinned.
        hog = service.register_tenant(
            "hog", prefixes=("/out/hog",), cache_budget_bytes=4000)
        neighbor = service.register_tenant(
            "neighbor", prefixes=("/out/neighbor",))

        neighbor.run_job(wc("/in", "/out/neighbor/keep"))
        engine.governor.pin_prefix("/out/neighbor/keep")
        try:
            resident_before = engine.governor.tenants.occupancy("neighbor")
            assert resident_before > 0

            for run in range(3):
                hog.run_job(wc("/in", f"/out/hog/r{run}"))

            ledger = engine.governor.tenants
            # The hog was squeezed back under its own budget...
            assert ledger.occupancy("hog") <= 4000
            assert ledger.occupancy("hog") < 3 * resident_before
            # ...while the neighbor's pinned bytes were untouched.
            assert ledger.occupancy("neighbor") == resident_before
            for status in engine.filesystem.list_files_recursive(
                    "/out/neighbor/keep"):
                entry = engine.cache.get_file(status.path, materialize=False)
                if entry is not None:
                    assert not entry.spilled
        finally:
            engine.governor.unpin_prefix("/out/neighbor/keep")

    def test_ledger_attribution_follows_rename(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        client = service.register_tenant("a", prefixes=("/out/a",),
                                         cache_budget_bytes=10**9)
        client.run_job(wc("/in", "/out/a/r"))
        # Commit renames temp files into the tenant namespace; the ledger
        # must attribute the final bytes to the tenant.
        assert engine.governor.tenants.occupancy("a") > 0
        stats = engine.cache.stats()
        assert stats["tenants"]["a"]["occupancy_bytes"] > 0


# --------------------------------------------------------------------- #
# fair scheduling + determinism
# --------------------------------------------------------------------- #


def _seeded_run(make_engine, seed: int):
    """One service run with a seeded admission order; returns the witness
    (schedule, per-ticket simulated seconds, output bytes)."""
    import random

    rng = random.Random(seed)
    engine = make_engine()
    write_corpus(engine.filesystem, "/in", seed=seed, parts=2,
                 lines_per_part=2)
    service = JobService(engine)
    clients = {
        name: service.register_tenant(
            name, weight=rng.choice([1, 1, 2, 3]),
            prefixes=(f"/out/{name}",))
        for name in ("t0", "t1", "t2")
    }
    plan = [name for name in clients for _ in range(2)]
    rng.shuffle(plan)
    tickets = [
        clients[name].submit(
            wc("/in", f"/out/{name}/r{i}", reducers=1 + i % 2))
        for i, name in enumerate(plan)
    ]
    service.drain()
    seconds = tuple(service.status(t).simulated_seconds for t in tickets)
    outputs = {
        t: snapshot_output(engine, f"/out/{plan[i]}/r{i}")
        for i, t in enumerate(tickets)
    }
    return service.schedule_log(), seconds, outputs


class TestFairScheduling:
    def test_weighted_round_robin_order(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        heavy = service.register_tenant("heavy", weight=2)
        light = service.register_tenant("light", weight=1)
        for i in range(4):
            heavy.submit(wc("/in", f"/out/h{i}"))
        for i in range(2):
            light.submit(wc("/in", f"/out/l{i}"))
        service.drain()
        order = [tenant for tenant, _ in service.schedule_log()]
        # Stride: passes go h:0.5 l:1.0 h:1.0 h:1.5 l:2.0 h:2.0 — heavy
        # gets two slots for every light one.
        assert order == ["heavy", "light", "heavy", "heavy", "light", "heavy"]

    def test_sequence_is_atomic_but_charged_per_job(self):
        from repro.api.job import JobSequence

        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        batcher = service.register_tenant("batcher")
        steady = service.register_tenant("steady")
        seq = JobSequence()
        seq.add(wc("/in", "/out/b0")).add(wc("/in", "/out/b1")).add(
            wc("/in", "/out/b2"))
        batcher.submit(seq)
        for i in range(2):
            steady.submit(wc("/in", f"/out/s{i}"))
        service.drain()
        order = [tenant for tenant, _ in service.schedule_log()]
        # The 3-job sequence runs as one unit, but costs 3 passes: steady's
        # remaining single jobs then run before batcher would go again.
        assert order == ["batcher", "steady", "steady"]
        assert service.status("batcher/0").jobs_done == 3

    @pytest.mark.parametrize("kind", ["m3r", "hadoop"])
    def test_determinism_sweep_20_seeds(self, kind):
        make_engine = make_m3r if kind == "m3r" else make_hadoop
        for seed in range(20):
            first = _seeded_run(make_engine, seed)
            second = _seeded_run(make_engine, seed)
            assert first[0] == second[0], f"schedule diverged (seed {seed})"
            assert first[1] == second[1], f"seconds diverged (seed {seed})"
            assert first[2] == second[2], f"outputs diverged (seed {seed})"


# --------------------------------------------------------------------- #
# isolation: multi-tenant == solo
# --------------------------------------------------------------------- #


class TestIsolationEquivalence:
    @pytest.mark.parametrize("kind", ["m3r", "hadoop"])
    def test_tenant_outputs_match_solo_run(self, kind):
        make_engine = make_m3r if kind == "m3r" else make_hadoop

        solo = make_engine()
        write_corpus(solo.filesystem, "/in", seed=3, parts=4)
        solo_result = solo.run_job(wc("/in", "/solo/out"))
        solo_snap = snapshot_output(solo, "/solo/out")

        shared = make_engine()
        write_corpus(shared.filesystem, "/in", seed=3, parts=4)
        service = JobService(shared)
        subject = service.register_tenant("subject",
                                          prefixes=("/tenants/subject",))
        noisy = service.register_tenant("noisy", prefixes=("/tenants/noisy",))
        for i in range(2):
            noisy.submit(wc("/in", f"/tenants/noisy/r{i}", reducers=3))
        ticket = subject.submit(wc("/in", "/tenants/subject/out"))
        for i in range(2, 4):
            noisy.submit(wc("/in", f"/tenants/noisy/r{i}", reducers=3))
        results = service.wait(ticket)
        service.drain()

        assert snapshot_output(shared, "/tenants/subject/out") == solo_snap
        # Sharing the warm engine may make the tenant *faster* than solo
        # (the noisy tenant already cached /in — the paper's point), but
        # never changes its bytes and never meaningfully slows it down
        # (cacheless Hadoop sees sub-microsecond placement jitter from the
        # neighbors' writes, nothing more).
        assert results[0].succeeded
        assert results[0].simulated_seconds <= solo_result.simulated_seconds * (
            1 + 1e-6
        )

    def test_failure_isolated_to_submitting_tenant(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        lucky = service.register_tenant("lucky")
        clumsy = service.register_tenant("clumsy")
        bad = wc("/missing-input", "/out/bad")
        bad_ticket = clumsy.submit(bad)
        good_ticket = lucky.submit(wc("/in", "/out/good"))
        service.drain()
        assert service.status(bad_ticket).state == "failed"
        assert service.status(good_ticket).state == "succeeded"
        assert service.tenant_stats("clumsy")["failed"] == 1
        assert service.tenant_stats("lucky")["succeeded"] == 1


# --------------------------------------------------------------------- #
# ReStore visibility
# --------------------------------------------------------------------- #


class TestRestoreVisibility:
    def _run(self, client, tag: str):
        conf = enable_restore(histogram_job("/in", f"/out/{client.tenant}/{tag}",
                                            reducers=2))
        return client.run_job(conf)

    def _stage(self, engine):
        from repro.api.writables import IntWritable, Text

        pairs = [(IntWritable(i % 5), Text(f"v{i}")) for i in range(30)]
        engine.filesystem.write_pairs("/in/part-00000", pairs)

    def test_private_stores_do_not_leak_across_tenants(self):
        engine = make_m3r()
        self._stage(engine)
        service = JobService(engine)
        a = service.register_tenant("a", prefixes=("/out/a",))
        b = service.register_tenant("b", prefixes=("/out/b",))
        first = self._run(a, "r")
        again = self._run(b, "r")  # identical plan, different tenant
        assert first.metrics.get("restore_hits") == 0
        assert again.metrics.get("restore_hits") == 0  # private: no reuse
        assert again.metrics.get("restore_misses") == 1

    def test_shared_namespace_serves_across_tenants(self):
        engine = make_m3r()
        self._stage(engine)
        service = JobService(engine)
        a = service.register_tenant("a", prefixes=("/out/a",),
                                    shared_restore=True)
        b = service.register_tenant("b", prefixes=("/out/b",),
                                    shared_restore=True)
        self._run(a, "r")
        again = self._run(b, "r")
        assert again.metrics.get("restore_hits") == 1
        assert snapshot_output(engine, "/out/a/r") == snapshot_output(
            engine, "/out/b/r")

    def test_engine_store_untouched_by_service_runs(self):
        engine = make_m3r()
        self._stage(engine)
        baseline = engine.restore
        service = JobService(engine)
        a = service.register_tenant("a")
        self._run(a, "r")
        assert engine.restore is baseline
        assert baseline.stats()["lifetime"]["records"] == 0


# --------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------- #


class TestObservability:
    def test_lifecycle_fed_status_and_service_events(self):
        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        client = service.register_tenant("a")
        ticket = client.submit(wc("/in", "/out/r"))
        assert service.status(ticket).state == "queued"
        service.drain()
        status = service.status(ticket)
        assert status.state == "succeeded"
        assert status.jobs_done == 1
        assert status.simulated_seconds > 0
        actions = [e.action for e in service.events()]
        assert actions == ["submitted", "started", "finished"]
        # ServiceEvents also land in the engine's ring for `repro trace`.
        ring_actions = [
            e.action for e in engine.event_ring.events()
            if getattr(e, "kind", "") == "service_event"
        ]
        assert ring_actions == actions

    def test_wait_reraises_engine_exception(self):
        from repro.engine_common import JobFailedError

        engine = make_m3r()
        write_corpus(engine.filesystem, "/in", seed=1, parts=2)
        service = JobService(engine)
        client = service.register_tenant("a")
        engine.fail_nodes.add(0)
        with pytest.raises(JobFailedError):
            client.run_job(wc("/in", "/out/r"))
        assert service.status("a/0").state == "failed"
