"""Spill-to-filesystem demotion for evicted cache entries.

When the budget forces an entry out, dropping it entirely would turn the
next lookup into a cold re-read (filesystem + InputFormat parse + cache
re-insert).  The spill manager instead demotes the pair sequence to the
simulated filesystem in serialized form — measured by the X10 serializer,
charged through the sim cost model — and rehydrates it on the next cache
hit: one sequential read plus deserialization, no InputFormat re-parse,
and (crucially for temporary outputs that were never flushed) no data
loss for cache-only entries.

Spill files live under a dot-prefixed directory (``/.m3r/spill`` by
default) so directory readers that follow the Hadoop hidden-file
convention never mistake them for job data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.sim.cost_model import CostModel
from repro.x10.serializer import DedupSerializer


#: Default root for spill files on the underlying (raw) filesystem.
SPILL_ROOT = "/.m3r/spill"


@dataclass(frozen=True)
class SpillRecord:
    """Where one demoted entry went and what moving it measured."""

    path: str
    wire_bytes: int
    records: int


class SpillManager:
    """Demotes evicted pair sequences to the simulated filesystem.

    The manager writes to the *raw* filesystem underneath the M3R cache
    overlay — spills must never re-enter the cache's own namespace (that
    would re-trigger the interposition that evicted them).  Every spill and
    rehydration returns the simulated seconds it cost, computed from the
    de-duplicated wire size the X10 serializer measures.
    """

    def __init__(
        self,
        filesystem: Any,
        cost_model: CostModel,
        root: str = SPILL_ROOT,
    ):
        self._fs = filesystem
        self._model = cost_model
        self._root = root.rstrip("/")
        self._serializer = DedupSerializer()
        self._seq = 0

    def _next_path(self) -> str:
        self._seq += 1
        return f"{self._root}/s{self._seq:08d}"

    def spill(
        self, pairs: List[Tuple[Any, Any]]
    ) -> Tuple[SpillRecord, float]:
        """Write ``pairs`` out; returns the record and the simulated cost.

        Cost = X10 serialization of the (de-duplicated) message + one
        sequential disk write, mirroring what a place would pay to push the
        sequence out of its heap.  A sequence of distinct objects, one
        table class per column (every matvec block entry), is sized once,
        column by column, and that size is the spill file's length too;
        any other takes the memo walk, and the file measures its own
        (sharing-ignored) length.
        """
        path = self._next_path()
        message = self._serializer.measure_columns(pairs)
        if message is None:
            message = self._serializer.measure_pairs(pairs)
            self._fs.write_pairs(path, pairs)
        else:
            self._fs.write_pairs(path, pairs, length=message.raw_bytes)
        seconds = self._model.serialize_time(
            message.wire_bytes, message.records
        ) + self._model.disk_write_time(message.wire_bytes, seeks=1)
        return SpillRecord(
            path=path, wire_bytes=message.wire_bytes, records=message.records
        ), seconds

    def rehydrate(
        self, record: SpillRecord
    ) -> Tuple[List[Tuple[Any, Any]], float]:
        """Read a spilled sequence back; returns (pairs, simulated cost).

        The spill file is deleted after the read — a rehydrated entry is
        resident again, and a later eviction writes a fresh spill.
        """
        pairs = self._fs.read_pairs(record.path)
        self._fs.delete(record.path)
        seconds = self._model.disk_read_time(
            record.wire_bytes, seeks=1
        ) + self._model.deserialize_time(record.wire_bytes, record.records)
        return pairs, seconds

    def discard(self, record: SpillRecord) -> None:
        """Drop a spill file whose entry was deleted outright."""
        self._fs.delete(record.path)
