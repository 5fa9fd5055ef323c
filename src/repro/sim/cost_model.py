"""The cluster cost model.

All simulated time in the reproduction comes from this module.  Engines
count *what happened* (bytes moved, records sorted, objects cloned, JVMs
started) and ask the :class:`CostModel` *how long it took*.

The default parameters are calibrated to the paper's testbed — a 20-node
cluster of IBM LS-22 blades (2 × quad-core 2.3 GHz Opteron, 16 GB RAM,
Gigabit Ethernet, circa-2012 SATA disks, IBM J9 JVM).  The absolute values
are engineering estimates; what matters for reproducing the paper's figures
is the *structure*: disk is ~10× slower than memory, network is the same
order as disk, JVM start-up and heartbeat scheduling cost whole seconds, and
(de)serialization costs real CPU per byte and per record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Translates counted events into simulated seconds.

    Bandwidth fields are bytes/second; latency and per-event fields are
    seconds.  Instances are frozen so a cost model can be shared between
    engines without risk of drift; use :meth:`evolve` to derive variants
    (benchmarks use this for ablations).
    """

    # --- disks (per-node local disk; HDFS datanodes share the same disk) ---
    disk_read_bw: float = 85e6
    disk_write_bw: float = 70e6
    disk_seek: float = 0.008

    # --- network (Gigabit Ethernet) ---
    net_bw: float = 110e6
    net_latency: float = 0.0002

    # --- (de)serialization of key/value records ---
    serialize_bw: float = 250e6
    deserialize_bw: float = 180e6
    ser_per_record: float = 2.0e-7
    deser_per_record: float = 2.5e-7

    # --- in-memory costs ---
    mem_bw: float = 4e9
    clone_bw: float = 800e6
    clone_per_record: float = 1.5e-7
    handoff_per_record: float = 4.0e-8  # pointer pass mapper -> reducer queue
    alloc_per_object: float = 6.0e-8    # young-gen allocation + GC share
    #: Allocation-heavy tasks (at least gc_churn_threshold fresh objects,
    #: the ImmutableOutput style) additionally pay a constant GC-churn cost:
    #: extra young-gen collections and promotion pressure.  This is the
    #: mechanism behind Figure 8's "new Text slower at small sizes, gap
    #: closes as input grows" observation.
    gc_churn_overhead: float = 0.12
    gc_churn_threshold: int = 1000

    # --- sorting ---
    sort_per_compare: float = 1.1e-7    # per record per log2(n) level
    merge_fan_in: int = 10              # external merge fan-in (io.sort.factor)

    # --- JVM / scheduling overheads ---
    jvm_startup: float = 1.2            # fork + JVM boot + task localization
    task_scheduling: float = 1.5        # expected heartbeat wait per wave
    hadoop_job_submit: float = 6.0      # staging, split calc, jobtracker RPCs
    hadoop_job_cleanup: float = 2.0     # commit, output promotion, teardown
    m3r_job_submit: float = 0.05        # in-process hand-off to the engine
    m3r_barrier: float = 0.002          # X10 team barrier across places

    # --- HDFS ---
    namenode_op: float = 0.002          # one metadata RPC

    # --- user compute ---
    flops_per_sec: float = 1.1e9        # one core, dense double math
    map_cpu_per_record: float = 6.0e-7  # framework + user overhead per record
    reduce_cpu_per_record: float = 6.0e-7

    # ------------------------------------------------------------------ #
    # derived helpers
    # ------------------------------------------------------------------ #

    def evolve(self, **changes: float) -> "CostModel":
        """Return a copy with ``changes`` applied (for ablations)."""
        return replace(self, **changes)

    def disk_read_time(self, nbytes: int, seeks: int = 1) -> float:
        """Sequential read of ``nbytes`` after ``seeks`` head movements."""
        return self.disk_seek * seeks + nbytes / self.disk_read_bw

    def disk_write_time(self, nbytes: int, seeks: int = 1) -> float:
        """Sequential write of ``nbytes`` after ``seeks`` head movements."""
        return self.disk_seek * seeks + nbytes / self.disk_write_bw

    def net_transfer_time(self, nbytes: int, messages: int = 1) -> float:
        """Transfer ``nbytes`` split over ``messages`` round-trips."""
        return self.net_latency * messages + nbytes / self.net_bw

    def serialize_time(self, nbytes: int, nrecords: int) -> float:
        """CPU cost of serializing ``nrecords`` totalling ``nbytes``."""
        return nbytes / self.serialize_bw + nrecords * self.ser_per_record

    def deserialize_time(self, nbytes: int, nrecords: int) -> float:
        """CPU cost of deserializing ``nrecords`` totalling ``nbytes``."""
        return nbytes / self.deserialize_bw + nrecords * self.deser_per_record

    def clone_time(self, nbytes: int, nrecords: int) -> float:
        """Defensive deep-copy of records (M3R default without ImmutableOutput)."""
        return nbytes / self.clone_bw + nrecords * self.clone_per_record

    def handoff_time(self, nrecords: int) -> float:
        """Pointer pass of records within one address space."""
        return nrecords * self.handoff_per_record

    def memcpy_time(self, nbytes: int) -> float:
        """Raw in-memory copy of ``nbytes``."""
        return nbytes / self.mem_bw

    def alloc_time(self, nobjects: int) -> float:
        """Allocation plus amortized GC share for ``nobjects`` fresh objects."""
        return nobjects * self.alloc_per_object

    def gc_churn_time(self, nobjects: int) -> float:
        """Constant GC-churn cost for an allocation-heavy task."""
        if nobjects >= self.gc_churn_threshold:
            return self.gc_churn_overhead
        return 0.0

    def sort_time(self, nrecords: int, nbytes: int) -> float:
        """In-memory comparison sort of ``nrecords`` totalling ``nbytes``."""
        if nrecords <= 1:
            return 0.0
        levels = math.log2(nrecords)
        return nrecords * levels * self.sort_per_compare + nbytes / self.mem_bw

    def merge_time(self, nrecords: int, nbytes: int, nruns: int) -> float:
        """In-memory k-way merge of ``nruns`` pre-sorted runs.

        A heap of size ``nruns`` costs one ``log2(nruns)`` sift per record
        plus one streaming pass over the bytes — the reduce-side cost when
        map output arrives as sorted runs, replacing the full
        ``nrecords * log2(nrecords)`` comparison sort.
        """
        if nrecords <= 0:
            return 0.0
        compare = 0.0
        if nruns > 1:
            compare = nrecords * math.log2(nruns) * self.sort_per_compare
        return compare + nbytes / self.mem_bw

    def external_merge_passes(self, nruns: int) -> int:
        """Number of read+write passes an external merge of ``nruns`` needs."""
        if nruns <= 1:
            return 0
        return max(1, math.ceil(math.log(nruns, self.merge_fan_in)))

    def external_merge_time(self, nrecords: int, nbytes: int, nruns: int) -> float:
        """Out-of-core merge of ``nruns`` sorted runs (Hadoop reduce-side sort)."""
        passes = self.external_merge_passes(nruns)
        if passes == 0:
            return 0.0
        io_per_pass = self.disk_read_time(nbytes, seeks=nruns) + self.disk_write_time(
            nbytes, seeks=1
        )
        compare = nrecords * math.log2(max(2, nruns)) * self.sort_per_compare
        return passes * io_per_pass + compare

    def compute_time(self, flops: float) -> float:
        """User computation expressed in floating-point operations."""
        return flops / self.flops_per_sec

    def map_framework_time(self, nrecords: int) -> float:
        """Per-record map framework overhead (iterator, context, counters)."""
        return nrecords * self.map_cpu_per_record

    def reduce_framework_time(self, nrecords: int) -> float:
        """Per-record reduce framework overhead."""
        return nrecords * self.reduce_cpu_per_record


def paper_cluster_cost_model() -> CostModel:
    """The default cost model, calibrated to the paper's 20-node LS-22 cluster."""
    return CostModel()
