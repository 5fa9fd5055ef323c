"""The M3R engine (paper Section 3.2): in-memory execution of HMR jobs.

Execution flow per job (now explicit as lifecycle stages — see
:mod:`repro.lifecycle.m3r_stages`)::

    setup  (committer, snapshot tallies; in-process submit, milliseconds) →
    plan_splits (splits + cache/locality-aware placement) →
    map    (cache-or-filesystem input, user code, clone-or-alias output) →
    shuffle (pointer hand-off when co-located; de-duplicated X10
             serialization when crossing places; team barrier) →
    reduce (in-memory sort, user code) →
    commit (cached at the reducer's place; flushed to the filesystem
            unless the path follows the temporary-output convention) →
    cache-admit (governor spill/rehydrate I/O lands on the clock) →
    teardown (per-job serializer-fallback delta)

Compared to the Hadoop engine there is **no jobtracker, no heartbeat, no
per-task JVM start-up and no disk in the shuffle** — the five advantages of
paper Section 1 are each visible as an absent cost term.

This class is deliberately thin: it owns the long-lived state (places,
cache, governor, filesystem view) and the identity/placement helpers, and
delegates job execution to the shared
:class:`~repro.lifecycle.pipeline.JobPipeline` driving an
:class:`~repro.lifecycle.m3r_stages.M3RStageProvider`.  Every run emits
typed lifecycle events onto a per-job bus: the engine's ring buffer always
subscribes, a JSONL sink when ``m3r.trace.path`` (or ``M3R_TRACE_PATH``)
is set, plus anything registered in :attr:`M3REngine.trace_sinks`.

Tasks and shuffle messages run **inline, in plan order** (DESIGN.md §7).
The paper's "long-lived multi-threaded JVMs" are modelled where its claim
about them lives, in simulated time: each phase's task durations are packed
onto ``workers_per_place`` :class:`SlotLanes` per place, and that makespan
is what the job clock advances by.  ``workers_per_place`` is therefore a
lane width (and the default split hint), never a thread count.

The engine is deliberately fail-fast: if any place's node is marked failed,
the job raises :class:`~repro.engine_common.JobFailedError` ("the engine
will fail if any node goes down — it does not recover from node failure").
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.api.conf import (
    CACHE_CAPACITY_KEY,
    CACHE_HIGH_WATERMARK_KEY,
    CACHE_LOW_WATERMARK_KEY,
    CACHE_PINNED_PATHS_KEY,
    CACHE_SPILL_KEY,
    JobConf,
)
from repro.api.extensions import NamedSplit, PlacedSplit
from repro.api.job import JobSequence, JobSpec
from repro.api.splits import FileSplit, InputSplit
from repro.core.cache import KeyValueCache
from repro.core.cachefs import M3RFileSystem
from repro.engine_common import (
    EngineResult,
    JobFailedError,
    part_index,
    unwrap_split,
)
from repro.fs.filesystem import FileSystem, normalize_path
from repro.lifecycle.events import LifecycleEvent
from repro.lifecycle.m3r_stages import M3RStageProvider
from repro.lifecycle.pipeline import JobPipeline
from repro.lifecycle.sinks import RingBufferSink
from repro.restore.store import ResultStore
from repro.memory import MemoryGovernor, SpillManager, WatermarkLedger
from repro.sim.cluster import Cluster
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Metrics
from repro.x10.runtime import X10Runtime


class M3REngine:
    """A long-lived family of places executing HMR job sequences in memory."""

    def __init__(
        self,
        cluster: Cluster,
        filesystem: FileSystem,
        cost_model: CostModel,
        num_places: Optional[int] = None,
        workers_per_place: int = 8,
        enable_cache: bool = True,
        enable_dedup: bool = True,
        enable_partition_stability: bool = True,
        cache_capacity_bytes: int = 0,
        cache_high_watermark: float = 0.9,
        cache_low_watermark: float = 0.75,
        cache_spill: bool = True,
    ):
        self.cluster = cluster
        self.cost_model = cost_model
        self.num_places = num_places if num_places is not None else cluster.num_nodes
        if self.num_places <= 0:
            raise ValueError("need at least one place")
        self.workers_per_place = workers_per_place
        self.runtime = X10Runtime(self.num_places, workers_per_place)
        #: Memory governance: per-place budget (0 = unbounded, the default)
        #: and spill-to-filesystem demotion.  The spill manager writes to
        #: the RAW filesystem — the cache overlay must never see its own
        #: spill files.
        self.governor = MemoryGovernor(
            budget=WatermarkLedger(
                capacity_bytes=cache_capacity_bytes,
                high_watermark=cache_high_watermark,
                low_watermark=cache_low_watermark,
            ),
            spill=SpillManager(filesystem, cost_model),
            spill_enabled=cache_spill,
        )
        self.cache = KeyValueCache(self.runtime.places, governor=self.governor)
        #: The filesystem view jobs see: cache overlay on the real FS.
        self.filesystem = M3RFileSystem(filesystem, self.cache)
        self.raw_filesystem = filesystem
        self.enable_cache = enable_cache
        self.enable_dedup = enable_dedup
        self.enable_partition_stability = enable_partition_stability
        #: Failure injection: any entry here makes every job fail (no resilience).
        self.fail_nodes: Set[int] = set()
        #: The last N lifecycle events across all of this engine's jobs
        #: (``python -m repro trace`` renders these back).
        self.event_ring = RingBufferSink()
        #: Extra lifecycle sinks subscribed on every job's bus.
        self.trace_sinks: List[Callable[[LifecycleEvent], None]] = []
        #: Programmatic JSONL trace destination (the ``m3r.trace.path``
        #: JobConf key and ``M3R_TRACE_PATH`` env var also work).
        self.trace_path: Optional[str] = None
        #: Cross-job result reuse (``m3r.restore.enabled``): fingerprint →
        #: committed output, consulted at admission.  Stored results live
        #: in the cache/filesystem — this is metadata the governor's
        #: eviction can invalidate, never a second copy of the data.
        self.restore = ResultStore()
        self._pipeline = JobPipeline(M3RStageProvider(self))
        self._job_counter = 0
        self._host_to_node = {n.hostname: n.node_id for n in cluster}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """End the engine instance's life.  The engine starts no thread and
        holds no OS resource, so there is nothing to release; the call
        exists so scripts, the service and tests tear both engines down
        through one code path.  Idempotent."""

    def partition_place(self, partition: int) -> int:
        """The partition-stability guarantee: a deterministic partition →
        place mapping (paper Section 3.2.2.2).

        With stability disabled (ablation), the mapping is salted per job,
        mimicking Hadoop's arbitrary reducer placement.
        """
        if partition < 0:
            raise ValueError("negative partition")
        if self.enable_partition_stability:
            return partition % self.num_places
        digest = hashlib.md5(
            f"{self._job_counter}/{partition}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:4], "big") % self.num_places

    def place_node(self, place_id: int) -> int:
        """The cluster node a place runs on (one place per host)."""
        return place_id % self.cluster.num_nodes

    def run_job(self, conf: JobConf) -> EngineResult:
        """Execute one job through the shared lifecycle pipeline; user-code
        failures are reported, not raised.

        Node failures *are* raised (:class:`JobFailedError`) — that is the
        paper's no-resilience design point.
        """
        self._job_counter += 1
        spec = JobSpec.from_conf(conf)
        self._check_alive()
        return self._pipeline.run_traced(spec, conf)

    def run_sequence(self, sequence: JobSequence) -> List[EngineResult]:
        """Run a job pipeline on the shared places (cache persists across jobs).

        Each successful job's output stays pinned for the rest of the
        sequence — it is (potentially) the next job's input, and evicting
        it between jobs would defeat the in-memory hand-off the sequence
        exists for.
        """
        results: List[EngineResult] = []
        sequence_pins: List[str] = []
        try:
            for conf in sequence:
                result = self.run_job(conf)
                results.append(result)
                if not result.succeeded:
                    break
                if result.output_path:
                    prefix = normalize_path(result.output_path)
                    self.governor.pin_prefix(prefix)
                    sequence_pins.append(prefix)
        finally:
            for prefix in sequence_pins:
                self.governor.unpin_prefix(prefix)
        return results

    def _apply_cache_conf(self, conf: JobConf) -> None:
        """Fold any ``m3r.cache.*`` JobConf overrides into the governor
        (only keys actually present change anything).

        The overrides are not scoped to the job: they reconfigure the
        engine's governor and stay in force for every later job on this
        engine until another conf sets the key again.
        """
        overrides: Dict[str, Any] = {}
        if CACHE_CAPACITY_KEY in conf:
            overrides["capacity_bytes"] = conf.get_int(CACHE_CAPACITY_KEY)
        if CACHE_HIGH_WATERMARK_KEY in conf:
            overrides["high_watermark"] = conf.get_float(CACHE_HIGH_WATERMARK_KEY)
        if CACHE_LOW_WATERMARK_KEY in conf:
            overrides["low_watermark"] = conf.get_float(CACHE_LOW_WATERMARK_KEY)
        if CACHE_SPILL_KEY in conf:
            overrides["spill_enabled"] = conf.get_boolean(CACHE_SPILL_KEY, True)
        if overrides:
            self.cache.reconfigure(**overrides)

    def _job_pins(self, spec: JobSpec, conf: JobConf) -> List[str]:
        prefixes: List[str] = []
        if spec.output_path:
            prefixes.append(normalize_path(spec.output_path))
        for path in conf.get_strings(CACHE_PINNED_PATHS_KEY):
            prefixes.append(normalize_path(path))
        return prefixes

    def warm_cache_from(self, path: str) -> int:
        """Pre-populate the cache from an on-disk directory of part files.

        Reproduces the paper's Section 6.2 methodology ("we pre-populated
        our cache with the input data" so the amortized initial load is not
        measured).  Each ``part-NNNNN`` lands at the place its partition
        number maps to.  Returns the number of files cached.
        """
        cached = 0
        for status in self.raw_filesystem.list_files_recursive(path):
            basename = status.path.rsplit("/", 1)[-1]
            if basename.startswith((".", "_")):
                continue
            partition = part_index(basename)
            place = self.partition_place(partition if partition is not None else cached)
            pairs = self.raw_filesystem.read_pairs(status.path)
            self.cache.put_file(status.path, place, pairs, status.length)
            cached += 1
        return cached

    # ------------------------------------------------------------------ #
    # liveness & progress
    # ------------------------------------------------------------------ #

    def _check_alive(self) -> None:
        for place_id in range(self.num_places):
            if self.place_node(place_id) in self.fail_nodes:
                raise JobFailedError(
                    f"place {place_id} lost its node — M3R does not support "
                    "resilience; the engine instance is dead"
                )

    # ------------------------------------------------------------------ #
    # split placement & cache identity
    # ------------------------------------------------------------------ #

    def _split_cache_identity(
        self, split: InputSplit
    ) -> Optional[Tuple[str, Any]]:
        """How this split names its data for the cache, if it can.

        Returns ``("file", FileSplit)`` or ``("named", name)`` or ``None``
        (unknown split type → the cache is bypassed, paper Section 4.2.1).
        """
        inner = unwrap_split(split)
        if isinstance(inner, FileSplit):
            return ("file", inner)
        if isinstance(inner, NamedSplit):
            return ("named", inner.get_name())
        if isinstance(split, NamedSplit):
            return ("named", split.get_name())
        return None

    def _cache_lookup(
        self, split: InputSplit, materialize: bool = True, pin: bool = False
    ):
        """Find the cache entry serving ``split``.

        ``materialize=False`` is a placement peek: it returns spilled
        entries without rehydrating them (placement only needs the place
        id).  ``pin=True`` takes a ref-count pin the caller must release
        via ``cache.unpin``.
        """
        identity = self._split_cache_identity(split)
        if identity is None or not self.enable_cache:
            return None
        kind, payload = identity
        if kind == "file":
            file_split: FileSplit = payload
            status = self.filesystem.get_file_status(file_split.path)
            file_length = status.length if status is not None else None
            return self.cache.get_split(
                file_split.path, file_split.start, file_split.length, file_length,
                materialize=materialize, pin=pin,
            )
        return self.cache.get_named(payload, materialize=materialize, pin=pin)

    def _place_for_split(self, split: InputSplit, index: int, spec: JobSpec) -> int:
        """Where to run the mapper for ``split``.

        Priority: PlacedSplit declaration → cached location → block
        locality → round robin.  (PlacedSplit first, per Section 4.3: it
        exists to *override* M3R's preference for local splits.)
        """
        for candidate in (split, unwrap_split(split)):
            if isinstance(candidate, PlacedSplit):
                return self.partition_place(candidate.get_partition())
        entry = self._cache_lookup(split, materialize=False)
        if entry is not None:
            return entry.place_id
        for host in unwrap_split(split).get_locations():
            node = self._host_to_node.get(host)
            if node is not None:
                return node % self.num_places
        return index % self.num_places

    def _cache_insert(
        self,
        identity: Tuple[str, Any],
        place: int,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
    ) -> None:
        kind, payload = identity
        if kind == "file":
            file_split: FileSplit = payload
            status = self.filesystem.get_file_status(file_split.path)
            if (
                file_split.start == 0
                and status is not None
                and file_split.length >= status.length
            ):
                self.cache.put_file(file_split.path, place, pairs, nbytes)
            else:
                self.cache.put_split(
                    file_split.path, file_split.start, file_split.length,
                    place, pairs, nbytes,
                )
        else:
            self.cache.put_named(payload, place, pairs, nbytes)

    def _replicate_output(
        self,
        part_path: str,
        place: int,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
        metrics: Metrics,
    ) -> float:
        """Subclass hook, called by the stage provider after every task
        output lands in the cache: replicate it and return the simulated
        cost.  Stock M3R replicates nothing (no resilience — that is the
        design point); :class:`~repro.core.resilience.ResilientM3REngine`
        buddy-copies the output here."""
        return 0.0
