"""The simulation substrate: clocks, cost model, cluster, metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Cluster,
    CostModel,
    Metrics,
    Node,
    PhaseTimer,
    SimClock,
    TimeBreakdown,
    paper_cluster_cost_model,
)
from repro.api.mapred import Reporter

from conftest import make_hadoop, make_m3r
from workloads import MatvecWorkload


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_advance_to(self):
        clock = SimClock(5.0)
        clock.advance_to(3.0)  # no going back
        assert clock.now == 5.0
        clock.advance_to(8.0)
        assert clock.now == 8.0

    def test_reset(self):
        clock = SimClock(9)
        clock.reset()
        assert clock.now == 0.0


class TestPhaseTimer:
    def test_barrier_takes_slowest_lane(self):
        timer = PhaseTimer(3)
        timer.charge(0, 1.0)
        timer.charge(1, 5.0)
        timer.charge(1, 1.0)
        assert timer.barrier() == 6.0
        assert timer.total_work() == 7.0

    def test_bad_participants(self):
        with pytest.raises(ValueError):
            PhaseTimer(0)
        timer = PhaseTimer(2)
        with pytest.raises(ValueError):
            timer.charge(0, -1)


class TestCostModel:
    def test_disk_faster_than_network_latency_structure(self):
        model = paper_cluster_cost_model()
        megabyte = 1 << 20
        assert model.disk_read_time(megabyte) > 0
        assert model.net_transfer_time(megabyte) > 0
        # memory is far faster than disk — the premise of the whole paper
        assert model.memcpy_time(megabyte) < model.disk_read_time(megabyte) / 10

    def test_reporter_prices_flops_with_its_cost_model(self):
        fast = CostModel().evolve(flops_per_sec=2.2e9)
        for reporter, seconds in ((Reporter(), 1.0), (Reporter(cost_model=fast), 0.5)):
            reporter.charge_flops(1.1e9)
            assert reporter.consume_compute_seconds() == seconds

    @pytest.mark.parametrize("factory", [make_m3r, make_hadoop])
    def test_flops_per_sec_moves_a_matvec_job(self, factory):
        """Doubling ``flops_per_sec`` halves the user compute seconds the
        matvec reducers charge (exactly: halving is exact in binary) and so
        moves the job's simulated seconds."""
        workload = MatvecWorkload()
        runs = []
        for rate in (1.1e9, 2.2e9):
            engine = factory(4, cost_model=CostModel().evolve(flops_per_sec=rate))
            workload.prepare(engine, 1)
            runs.append(workload.run(engine, "x"))
        slow, fast = ([r.metrics.time.get("reduce_compute") for r in run]
                      for run in runs)
        assert all(seconds > 0 for seconds in slow)
        assert fast == [seconds / 2 for seconds in slow]
        assert sum(r.simulated_seconds for r in runs[1]) < sum(
            r.simulated_seconds for r in runs[0]
        )

    def test_evolve_is_pure(self):
        base = paper_cluster_cost_model()
        variant = base.evolve(jvm_startup=0.0)
        assert variant.jvm_startup == 0.0
        assert base.jvm_startup > 0.0

    def test_sort_time_zero_for_tiny_inputs(self):
        model = CostModel()
        assert model.sort_time(0, 0) == 0.0
        assert model.sort_time(1, 100) == 0.0
        assert model.sort_time(1000, 1000) > 0

    def test_external_merge_passes(self):
        model = CostModel(merge_fan_in=10)
        assert model.external_merge_passes(1) == 0
        assert model.external_merge_passes(5) == 1
        assert model.external_merge_passes(10) == 1
        assert model.external_merge_passes(11) == 2
        assert model.external_merge_passes(100) == 2
        assert model.external_merge_passes(101) == 3

    def test_merge_time_zero_for_single_run(self):
        assert CostModel().external_merge_time(100, 1000, 1) == 0.0

    def test_gc_churn_threshold(self):
        model = CostModel(gc_churn_overhead=0.2, gc_churn_threshold=1000)
        assert model.gc_churn_time(999) == 0.0
        assert model.gc_churn_time(1000) == 0.2

    def test_serialize_scales_with_bytes_and_records(self):
        model = CostModel()
        assert model.serialize_time(2000, 10) > model.serialize_time(1000, 10)
        assert model.serialize_time(1000, 20) > model.serialize_time(1000, 10)

    @given(st.integers(0, 10**9), st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_all_costs_nonnegative(self, nbytes, nrecords):
        model = paper_cluster_cost_model()
        assert model.disk_read_time(nbytes) >= 0
        assert model.disk_write_time(nbytes) >= 0
        assert model.net_transfer_time(nbytes) >= 0
        assert model.serialize_time(nbytes, nrecords) >= 0
        assert model.deserialize_time(nbytes, nrecords) >= 0
        assert model.clone_time(nbytes, nrecords) >= 0
        assert model.sort_time(nrecords, nbytes) >= 0


class TestCluster:
    def test_shape(self):
        cluster = Cluster(num_nodes=5, cores_per_node=4)
        assert cluster.num_nodes == 5
        assert cluster.total_cores == 20
        assert len(list(cluster)) == 5

    def test_hostnames(self):
        cluster = Cluster(3)
        assert [n.hostname for n in cluster] == ["node00", "node01", "node02"]
        assert cluster.node_by_hostname("node01").node_id == 1
        with pytest.raises(KeyError):
            cluster.node_by_hostname("nope")

    def test_node_lookup_bounds(self):
        cluster = Cluster(2)
        with pytest.raises(IndexError):
            cluster.node(2)

    def test_locality(self):
        cluster = Cluster(3)
        assert cluster.is_local(1, 1)
        assert not cluster.is_local(1, 2)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            Cluster(0)
        with pytest.raises(ValueError):
            Node(0, "h", cores=0)


class TestMetrics:
    def test_counters(self):
        metrics = Metrics()
        metrics.incr("x", 2)
        metrics.incr("x")
        assert metrics.get("x") == 3
        assert metrics.get("absent") == 0

    def test_time_breakdown(self):
        metrics = Metrics()
        metrics.time.charge("disk_read", 1.5)
        metrics.time.charge("disk_read", 0.5)
        assert metrics.time.get("disk_read") == 2.0
        assert metrics.time.total() == 2.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().charge("x", -0.1)

    def test_merge(self):
        a, b = Metrics(), Metrics()
        a.incr("n", 1)
        b.incr("n", 2)
        b.time.charge("network", 3.0)
        a.merge(b)
        assert a.get("n") == 3
        assert a.time.get("network") == 3.0

    def test_as_dict(self):
        metrics = Metrics()
        metrics.incr("c")
        metrics.time.charge("sort", 1.0)
        snapshot = metrics.as_dict()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["time"] == {"sort": 1.0}
