"""Deterministic fair scheduling across tenants: stride scheduling.

Classic weighted round-robin via virtual time: every tenant carries a
*pass* value; the scheduler always picks the ready tenant with the lowest
``(pass, name)`` (the name tie-break is what makes the schedule a pure
function of the admission order), and after a submission runs, the
tenant's pass advances by ``jobs / weight`` — a weight-2 tenant gets two
job slots for every one a weight-1 tenant gets, amortized.

A whole :class:`~repro.api.job.JobSequence` is one scheduling unit
(sequence affinity: its jobs run back-to-back so the outputs each next
job reads stay pinned and hot), but fairness is charged per *job*, so a
tenant cannot buy extra bandwidth by batching jobs into long sequences.

When a tenant goes idle and later becomes ready again, its pass is lifted
to the current virtual time instead of keeping the stale low value — an
idle tenant must not accumulate credit and then starve everyone else
(the standard stride-scheduler re-join rule).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional


class FairScheduler:
    """Stride scheduler state: pass values + weights, no queues of its own.

    The service owns the per-tenant FIFO queues; this class only answers
    "who runs next" and "charge this run".  The service calls it on the
    thread that drives it, so there is no locking here.
    """

    def __init__(self) -> None:
        self._weights: Dict[str, int] = {}
        self._pass: Dict[str, float] = {}
        #: The pass value of the most recently selected tenant — the
        #: scheduler's notion of "now" for re-joining tenants.
        self._virtual_time: float = 0.0

    def add_tenant(self, name: str, weight: int) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive: {weight}")
        self._weights[name] = weight
        self._pass.setdefault(name, self._virtual_time)

    def remove_tenant(self, name: str) -> None:
        self._weights.pop(name, None)
        self._pass.pop(name, None)

    def on_ready(self, name: str) -> None:
        """Called when ``name`` goes from idle (empty queue) to ready."""
        self._pass[name] = max(self._pass.get(name, 0.0), self._virtual_time)

    def select(self, ready: Iterable[str]) -> Optional[str]:
        """The ready tenant with the lowest ``(pass, name)``."""
        best: Optional[str] = None
        for name in ready:
            if best is None or (
                (self._pass.get(name, 0.0), name)
                < (self._pass.get(best, 0.0), best)
            ):
                best = name
        if best is not None:
            self._virtual_time = self._pass.get(best, 0.0)
        return best

    def charge(self, name: str, jobs: int) -> None:
        """Advance ``name``'s pass after running a ``jobs``-job unit."""
        weight = self._weights.get(name, 1)
        self._pass[name] = self._pass.get(name, 0.0) + max(1, jobs) / weight

    def pass_of(self, name: str) -> float:
        return self._pass.get(name, 0.0)
