"""The old-style ``mapred`` API.

This is the original Hadoop interface: a mapper/reducer is configured with
the JobConf, fed records through ``map``/``reduce`` with an
:class:`OutputCollector` and :class:`Reporter`, and closed when the task
ends.  The paper's M3R supports this generation *and* the new-style
``mapreduce`` generation (and any mix of the two within one job); so do both
engines here.

One deliberate Hadoop behaviour to note: the framework *reuses* the key and
value objects it passes to ``map`` (see :class:`DefaultMapRunnable`).  That
reuse is why M3R cannot blindly alias map input into its cache, and why the
engine swaps in :class:`FreshObjectMapRunnable` — reproducing the paper's
Section 4.1 trick of "specially detecting the default implementation and
automatically replacing it".
"""

from __future__ import annotations

from typing import Any, Generic, Iterable, Iterator, Optional, Tuple, TypeVar

from repro.api.conf import JobConf
from repro.api.counters import Counters
from repro.api.extensions import ImmutableOutput
from repro.api.writables import REUSE_FIELDS
from repro.sim.cost_model import CostModel
from repro.x10.serializer import TRANSPORT_COPIES

K1 = TypeVar("K1")
V1 = TypeVar("V1")
K2 = TypeVar("K2")
V2 = TypeVar("V2")
K3 = TypeVar("K3")
V3 = TypeVar("V3")


class JobConfigurable:
    """Anything that receives the JobConf before the task starts."""

    def configure(self, conf: JobConf) -> None:
        """Called once per task with the job configuration."""


class Closeable:
    """Anything that is closed when its task finishes."""

    def close(self) -> None:
        """Called once per task after the last record."""


class OutputCollector(Generic[K2, V2]):
    """Where mappers and reducers emit key/value pairs."""

    def collect(self, key: K2, value: V2) -> None:
        raise NotImplementedError


class Reporter:
    """Progress, status and counter access for one running task.

    The ``charge_compute`` extension lets applications report the simulated
    cost of real computation (e.g. FLOPs of a block multiply); the stock
    Hadoop engine maps it onto task time too, so jobs behave identically on
    both engines — mirroring how every M3R extension is Hadoop-neutral.
    """

    def __init__(
        self, counters: Optional[Counters] = None, cost_model: CostModel = CostModel()
    ):
        self.counters = counters if counters is not None else Counters()
        self._status = ""
        self._progress = 0.0
        self._compute_seconds = 0.0
        #: Prices ``charge_flops`` (an engine passes the task's model).
        self._cost_model = cost_model

    def set_status(self, status: str) -> None:
        self._status = status

    def get_status(self) -> str:
        return self._status

    def progress(self, fraction: Optional[float] = None) -> None:
        """Report liveness (optionally with a completed fraction)."""
        if fraction is not None:
            self._progress = min(1.0, max(0.0, fraction))

    def get_progress(self) -> float:
        return self._progress

    def incr_counter(self, key_or_group: Any, name_or_amount: Any = 1, amount: int = 1) -> None:
        self.counters.increment(key_or_group, name_or_amount, amount)

    def get_counter(self, key_or_group: Any, name: str = "") -> int:
        return self.counters.value(key_or_group, name)

    # -- simulation extension ------------------------------------------- #

    def charge_compute(self, seconds: float) -> None:
        """Attribute ``seconds`` of simulated user computation to this task."""
        if seconds < 0:
            raise ValueError("cannot charge negative compute time")
        self._compute_seconds += seconds

    def charge_flops(self, flops: float) -> None:
        """Attribute computation expressed as FLOPs, priced at the cost
        model's ``flops_per_sec``."""
        self.charge_compute(self._cost_model.compute_time(flops))

    def consume_compute_seconds(self) -> float:
        """Drain the accumulated compute time (engines call this)."""
        seconds = self._compute_seconds
        self._compute_seconds = 0.0
        return seconds


class Mapper(JobConfigurable, Closeable, Generic[K1, V1, K2, V2]):
    """Old-style mapper: override :meth:`map`."""

    def map(
        self,
        key: K1,
        value: V1,
        output: OutputCollector[K2, V2],
        reporter: Reporter,
    ) -> None:
        raise NotImplementedError


class Reducer(JobConfigurable, Closeable, Generic[K2, V2, K3, V3]):
    """Old-style reducer: override :meth:`reduce`."""

    def reduce(
        self,
        key: K2,
        values: Iterator[V2],
        output: OutputCollector[K3, V3],
        reporter: Reporter,
    ) -> None:
        raise NotImplementedError


class IdentityMapper(Mapper[K1, V1, K1, V1]):
    """Emits every input pair unchanged."""

    def map(self, key: K1, value: V1, output: OutputCollector, reporter: Reporter) -> None:
        output.collect(key, value)


class IdentityReducer(Reducer[K2, V2, K2, V2]):
    """Emits every value under its key unchanged."""

    def reduce(
        self, key: K2, values: Iterator[V2], output: OutputCollector, reporter: Reporter
    ) -> None:
        for value in values:
            output.collect(key, value)


class MapRunnable(JobConfigurable, Generic[K1, V1, K2, V2]):
    """The old API's pluggable map-task driver.

    A custom MapRunnable connects the record reader to the mapper by hand;
    M3R requires any such custom implementation to be marked
    :class:`~repro.api.extensions.ImmutableOutput` before it will skip
    cloning (paper Section 4.1).
    """

    def run(
        self,
        reader: "RecordReaderLike",
        output: OutputCollector[K2, V2],
        reporter: Reporter,
    ) -> None:
        raise NotImplementedError


class RecordReaderLike:
    """Minimal protocol MapRunnables consume: ``next() -> (k, v) | None``."""

    def next_pair(self) -> Optional[Tuple[Any, Any]]:
        raise NotImplementedError


class DefaultMapRunnable(MapRunnable):
    """Hadoop's default driver: REUSES one key and one value object.

    This reproduces the stock behaviour the paper calls out: because the
    same objects are handed to every ``map`` call, an identity mapper's
    output is mutated behind its back.  It therefore does *not* conform to
    the ImmutableOutput contract, and M3R replaces it (see
    :class:`FreshObjectMapRunnable`).
    """

    def __init__(self, mapper: Mapper):
        self.mapper = mapper

    def run(self, reader: RecordReaderLike, output: OutputCollector, reporter: Reporter) -> None:
        map_fn = self.mapper.map
        reused_key: Any = None
        reused_value: Any = None
        for key, value in records_of(reader):
            # Mutate the reused objects in place when the types allow it —
            # this is the Hadoop object-reuse optimization, reproduced
            # faithfully because it is what breaks naive aliasing.
            reused_key = _reuse_into(reused_key, key)
            reused_value = _reuse_into(reused_value, value)
            map_fn(reused_key, reused_value, output, reporter)


class FreshObjectMapRunnable(MapRunnable, ImmutableOutput):
    """M3R's substitute driver: a fresh key/value object per record.

    Allocating per record restores the ImmutableOutput contract for identity
    style mappers at the cost of allocation churn — the engine charges that
    allocation in the cost model, which is exactly the trade-off Figure 8's
    two Hadoop WordCount variants illustrate.
    """

    def __init__(self, mapper: Mapper):
        self.mapper = mapper

    def run(self, reader: RecordReaderLike, output: OutputCollector, reporter: Reporter) -> None:
        map_fn = self.mapper.map
        for key, value in records_of(reader):
            map_fn(key, value, output, reporter)


def records_of(reader: RecordReaderLike) -> Iterable[Tuple[Any, Any]]:
    """Every record ``reader`` has left: its unread run in one step when it
    hands one over whole (``take_run``: an aliasing cache hit), else one
    ``next_pair`` call per record."""
    take_run = getattr(reader, "take_run", None)
    run = take_run() if take_run is not None else None
    return run if run is not None else iter(reader.next_pair, None)


def _reuse_into(reused: Any, incoming: Any) -> Any:
    """Copy ``incoming``'s state into the reused object when possible: the
    one field of a ``REUSE_FIELDS`` class, nothing for another table class
    (none has ``set`` and ``get``), else ``read_instance`` or ``set(get())``."""
    cls = type(incoming)
    if reused is None or type(reused) is not cls:
        return incoming
    field = REUSE_FIELDS.get(cls)
    if field is not None:
        setattr(reused, field, getattr(incoming, field))
        return reused
    if cls in TRANSPORT_COPIES:
        return incoming
    setter = getattr(reused, "read_instance", None)
    if callable(setter):
        setter(incoming)
        return reused
    set_fn = getattr(reused, "set", None)
    get_fn = getattr(incoming, "get", None)
    if callable(set_fn) and callable(get_fn):
        try:
            set_fn(get_fn())
            return reused
        except TypeError:
            return incoming
    return incoming
