"""Reduce-side shuffle input: per-mapper runs, merged by one stable sort.

Each run arrives already sorted by the job's key order (the executor sorts
map-side), so the reducer sorts their concatenation with
:func:`~repro.api.job.merge_runs`: Timsort finds the k sorted runs and
merges them, O(n log k) comparisons, and on raw keys it orders one
raw-key column without a Python call per pair.  The sort is stable, so
ties keep run order, and runs are added in map-index order.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.api.job import merge_runs

Pair = Tuple[Any, Any]


class ShuffleInput:
    """Everything one reduce task receives from the shuffle: pre-sorted
    runs, appended in plan order (ascending map index)."""

    __slots__ = ("runs", "records", "bytes")

    def __init__(self) -> None:
        self.runs: List[List[Pair]] = []
        self.records = 0
        self.bytes = 0

    def add_run(self, pairs: List[Pair], nbytes: int) -> None:
        """Append one mapper's contribution (skips empty runs)."""
        if not pairs:
            return
        self.runs.append(pairs)
        self.records += len(pairs)
        self.bytes += nbytes

    def merged(self, key: Callable[[Pair], Any]) -> List[Pair]:
        """The pre-sorted runs merged into one run, ties in run order."""
        if not self.runs:
            return []
        if len(self.runs) == 1:
            return list(self.runs[0])
        return merge_runs(self.runs, key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShuffleInput(runs={len(self.runs)}, records={self.records}, "
            f"bytes={self.bytes})"
        )
