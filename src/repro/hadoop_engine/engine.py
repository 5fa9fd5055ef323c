"""The Hadoop engine: execution flow of paper Section 3.1, with costs.

Every job pays the full out-of-core pipeline (now explicit as lifecycle
stages — see :mod:`repro.lifecycle.hadoop_stages`)::

    setup (staging, jobtracker RPCs) → plan_splits →
    [per map task: heartbeat wait + JVM start] →
    map (HDFS read, deserialize, user code, serialize, sort, spill to disk)
    → reduce (shuffle fetch: disk read at source, network, disk write at
    sink; out-of-core merge; user code; HDFS write with replication)
    → commit/cleanup

User code runs for real, so outputs are exact; the simulated clock advances
by cost-model charges derived from the observed bytes and records.  Nothing
survives between jobs: a job sequence re-reads everything from the
filesystem, which is the behaviour M3R's cache eliminates.

This class is deliberately thin: it owns the long-lived state (cluster,
filesystem, slot counts, failure set) and the failover helpers, and
delegates job execution to the shared
:class:`~repro.lifecycle.pipeline.JobPipeline` driving a
:class:`~repro.lifecycle.hadoop_stages.HadoopStageProvider` — the same
driver the M3R engine uses, emitting the same typed lifecycle events, with
user code run by the same task kernels (:mod:`repro.lifecycle.kernels`).
What is Hadoop's own is what the provider charges around them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.api.conf import JobConf
from repro.api.job import JobSequence, JobSpec
from repro.engine_common import EngineResult
from repro.fs.filesystem import FileSystem
from repro.lifecycle.events import LifecycleEvent
from repro.lifecycle.hadoop_stages import (
    DEFAULT_SORT_BUFFER,
    FAILURE_DETECT_FACTOR,
    SORT_BUFFER_KEY,
    HadoopStageProvider,
)
from repro.lifecycle.pipeline import JobPipeline
from repro.lifecycle.sinks import RingBufferSink
from repro.restore.store import ResultStore
from repro.sim.cluster import Cluster
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Metrics

__all__ = [
    "HadoopEngine",
    "SORT_BUFFER_KEY",
    "DEFAULT_SORT_BUFFER",
    "FAILURE_DETECT_FACTOR",
]


class HadoopEngine:
    """A faithful cost-simulating implementation of the stock HMR engine."""

    def __init__(
        self,
        cluster: Cluster,
        filesystem: FileSystem,
        cost_model: CostModel,
        map_slots_per_node: int = 8,
        reduce_slots_per_node: int = 4,
    ):
        self.cluster = cluster
        self.filesystem = filesystem
        #: API parity with M3REngine (whose ``filesystem`` is a cache view):
        #: on the stock engine the raw filesystem IS the filesystem.
        self.raw_filesystem = filesystem
        self.cost_model = cost_model
        self.map_slots = map_slots_per_node
        self.reduce_slots = reduce_slots_per_node
        #: Nodes considered dead for failure-injection experiments; Hadoop
        #: reschedules their tasks (M3R, by design, cannot).
        self.fail_nodes: Set[int] = set()
        #: The last N lifecycle events across all of this engine's jobs.
        self.event_ring = RingBufferSink()
        #: Extra lifecycle sinks subscribed on every job's bus.
        self.trace_sinks: List[Callable[[LifecycleEvent], None]] = []
        #: Programmatic JSONL trace destination (the ``m3r.trace.path``
        #: JobConf key and ``M3R_TRACE_PATH`` env var also work).
        self.trace_path: Optional[str] = None
        #: Cross-job result reuse (``m3r.restore.enabled``): fingerprint →
        #: committed output, consulted at admission.
        self.restore = ResultStore()
        self._pipeline = JobPipeline(HadoopStageProvider(self))
        self._job_counter = 0
        self._host_to_node = {n.hostname: n.node_id for n in cluster}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """API parity with M3REngine: the engine starts no thread and holds
        no OS resource, so this is a no-op; it exists so tests and
        harnesses can tear both engines down through one code path.
        Idempotent."""

    def run_job(self, conf: JobConf) -> EngineResult:
        """Execute one job; never raises for user-code failures."""
        self._job_counter += 1
        return self._pipeline.run_traced(JobSpec.from_conf(conf), conf)

    def run_sequence(self, sequence: JobSequence) -> List[EngineResult]:
        """Run a job pipeline; each job pays full I/O (no cross-job cache)."""
        results: List[EngineResult] = []
        for conf in sequence:
            result = self.run_job(conf)
            results.append(result)
            if not result.succeeded:
                break
        return results

    # ------------------------------------------------------------------ #
    # failover helpers (used by the stage provider)
    # ------------------------------------------------------------------ #

    def _reroute_failures(
        self, placements: List[int], metrics: Metrics
    ) -> List[int]:
        """Move tasks off failed nodes (the jobtracker's resilience)."""
        if not self.fail_nodes:
            return placements
        healthy = [n for n in range(self.cluster.num_nodes) if n not in self.fail_nodes]
        if not healthy:
            raise RuntimeError("every node has failed")
        rerouted: List[int] = []
        for node in placements:
            if node in self.fail_nodes:
                metrics.incr("map_task_failovers")
                node = healthy[node % len(healthy)]
            rerouted.append(node)
        return rerouted

    def _healthy_node(self, node: int) -> Tuple[int, bool]:
        if node not in self.fail_nodes:
            return node, False
        healthy = [n for n in range(self.cluster.num_nodes) if n not in self.fail_nodes]
        if not healthy:
            raise RuntimeError("every node has failed")
        return healthy[node % len(healthy)], True
