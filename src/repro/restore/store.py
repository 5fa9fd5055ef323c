"""The ResultStore: plan fingerprint → committed output location.

The store holds *metadata only*.  The bytes of a stored result stay
wherever the producing job put them — the M3R key/value cache, the
simulated HDFS, or both — which is how reuse rides the governor's
budget/pin machinery: eviction may spill a stored part (a later hit pays
rehydration through the normal read path) and deletion/overwrite bumps
the part's content version so admission-time validation turns the stale
entry into an invalidation.

Lineage tokens make compiled-pipeline prefix reuse transitive.  When a
job with fingerprint ``F`` commits ``part-00000``, that file is
registered under the lineage token ``F#part-00000``; a later job that
*reads* the file fingerprints its input as that token instead of the
literal ``(path, version)`` pair.  A rerun of a Jaql/Pig script writes
its intermediate stages to fresh temp paths, but the fresh paths carry
the same lineage tokens, so every stage of the rerun hits in turn.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["ResultStore", "StoredPart", "StoredResult", "DEFAULT_MAX_ENTRIES"]

#: LRU bound on distinct fingerprints retained (``m3r.restore.max-entries``).
DEFAULT_MAX_ENTRIES = 64


@dataclass(frozen=True)
class StoredPart:
    """One committed part file of a stored result."""

    path: str
    basename: str
    #: Content-version token at record time (see
    #: :func:`repro.restore.fingerprint.content_version`); admission
    #: re-derives it and serves only on exact equality.
    version: str
    nbytes: int
    records: int


@dataclass(frozen=True)
class StoredResult:
    """A committed job output, addressable by its plan fingerprint."""

    fingerprint: str
    output_path: str
    job_name: str
    parts: Tuple[StoredPart, ...]

    @property
    def total_bytes(self) -> int:
        return sum(part.nbytes for part in self.parts)

    @property
    def total_records(self) -> int:
        return sum(part.records for part in self.parts)


class ResultStore:
    """Per-engine fingerprint → result index with an LRU entry bound."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._results: "OrderedDict[str, StoredResult]" = OrderedDict()
        # path -> (version token, lineage token).  Kept even when the
        # producing fingerprint is evicted from the LRU: the token is a
        # canonical *name* for the content, and downstream fingerprints
        # must stay stable for as long as the content does.
        self._lineage: Dict[str, Tuple[str, str]] = {}
        self._tally: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "bypasses": 0,
            "records": 0,
            "evicted": 0,
        }

    # -- results --------------------------------------------------------- #

    def lookup(self, fingerprint: str) -> Optional[StoredResult]:
        """The stored result for ``fingerprint`` (LRU-touched), if any."""
        result = self._results.get(fingerprint)
        if result is not None:
            self._results.move_to_end(fingerprint)
        return result

    def record(self, result: StoredResult) -> None:
        self._results[result.fingerprint] = result
        self._results.move_to_end(result.fingerprint)
        self._tally["records"] += 1
        while len(self._results) > self.max_entries:
            self._results.popitem(last=False)
            self._tally["evicted"] += 1

    def invalidate(self, fingerprint: str) -> bool:
        """Drop a stored result whose parts failed validation."""
        return self._results.pop(fingerprint, None) is not None

    # -- lineage ---------------------------------------------------------- #

    def register_lineage(
        self, path: str, version: str, lineage_token: str
    ) -> None:
        """Name ``path``'s current content by its producing fingerprint."""
        self._lineage[path] = (version, lineage_token)

    def lineage_token(self, path: str, version: str) -> Optional[str]:
        """The lineage token for ``path`` — only while its content still
        matches the version the token was registered against."""
        registered = self._lineage.get(path)
        if registered is not None and registered[0] == version:
            return registered[1]
        return None

    # -- accounting -------------------------------------------------------- #

    def note(self, outcome: str) -> None:
        """Bump one lifetime tally (hits / misses / invalidations / bypasses)."""
        self._tally[outcome] = self._tally.get(outcome, 0) + 1

    def stats(self) -> Dict[str, Any]:
        entries = [
            {
                "fingerprint": result.fingerprint,
                "job_name": result.job_name,
                "output_path": result.output_path,
                "parts": len(result.parts),
                "nbytes": result.total_bytes,
            }
            for result in self._results.values()
        ]
        return {
            "max_entries": self.max_entries,
            "entries": entries,
            "lineage_entries": len(self._lineage),
            "lifetime": dict(self._tally),
        }

    def reconfigure(self, max_entries: Optional[int] = None) -> None:
        """Apply knob overrides (``m3r.restore.max-entries``)."""
        if max_entries is None:
            return
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        while len(self._results) > self.max_entries:
            self._results.popitem(last=False)
            self._tally["evicted"] += 1

    def clear(self) -> None:
        self._results.clear()
        self._lineage.clear()

    def __len__(self) -> int:
        return len(self._results)
