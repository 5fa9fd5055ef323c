"""Simulated clocks.

Map/reduce phases are barrier-synchronized: no reducer runs before every
mapper has finished shuffling (the paper enforces this with an X10 team
barrier).  That structure lets us model time without a discrete-event queue:

* within a phase, each node (place) accumulates its own elapsed seconds on a
  private :class:`SimClock`;
* at a barrier, the phase costs ``max`` over the participating clocks —
  everyone waits for the slowest node;
* a job is a sequence of phases, so job time is the sum of phase maxima plus
  any serial overheads (job submission, JVM start-up rounds, ...).

:class:`PhaseTimer` packages that max-at-barrier bookkeeping.
"""

from __future__ import annotations


class SimClock:
    """An accumulator of simulated seconds.

    The clock never reads wall time; engines advance it explicitly with
    :meth:`advance`.  Negative advances are rejected so a cost-model bug
    cannot silently run time backwards.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, t: float) -> float:
        """Advance the clock to absolute time ``t`` (no-op if already past)."""
        if t > self._now:
            self._now = t
        return self._now

    def reset(self) -> None:
        """Reset the clock to zero."""
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


class PhaseTimer:
    """Tracks per-participant elapsed time within one barrier-delimited phase.

    Typical engine use::

        timer = PhaseTimer(num_places)
        for place in range(num_places):
            timer.charge(place, cost_of_work_at(place))
        job_clock.advance(timer.barrier())   # everyone waits for the slowest
    """

    __slots__ = ("_elapsed",)

    def __init__(self, participants: int) -> None:
        if participants <= 0:
            raise ValueError("a phase needs at least one participant")
        self._elapsed = [0.0] * participants

    @property
    def participants(self) -> int:
        return len(self._elapsed)

    def charge(self, participant: int, seconds: float) -> None:
        """Add ``seconds`` of work to one participant's lane.
        One participant's charges arrive serially, in plan order, so the
        lane's float sum is deterministic."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self._elapsed[participant] += seconds

    def elapsed(self, participant: int) -> float:
        """Seconds charged so far to ``participant``."""
        return self._elapsed[participant]

    def barrier(self) -> float:
        """Return the phase duration: the maximum lane, i.e. the straggler."""
        return max(self._elapsed)

    def total_work(self) -> float:
        """Sum of all lanes — useful for utilization metrics."""
        return sum(self._elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseTimer(lanes={self._elapsed!r})"
