"""The X10 serialization protocol: measurement, de-duplication, cloning.

X10's ``at (p) S`` serializes the captured lexical scope.  Because heap
graphs can contain cycles, the protocol keeps a memo of already-serialized
objects and emits a back-reference for repeats.  M3R gets broadcast
de-duplication "for free" from this: if the mappers at place P emit the same
value object many times toward place Q, only one copy crosses the wire
(Section 3.2.2.3 of the paper).

In this reproduction places share one Python process, so no bytes actually
move — but the *accounting* must be exact, because the cost model charges
network and CPU time per serialized byte and record.  This module measures
object graphs the way X10 would serialize them:

* :func:`estimate_size` — the encoded size of a single object (Writables
  report their exact wire size; containers and numpy/scipy payloads are
  walked; anything else falls back to ``pickle``);
* :class:`DedupSerializer` — per-message measurement with a memo, so each
  distinct object costs its full size once and a small back-reference for
  every repeat.  Wire and raw (sharing-ignored) bytes come out of a single
  traversal;
* :func:`deep_copy_value` — the defensive copy of one record (Hadoop's
  collectors, M3R's without ``ImmutableOutput``, sequence-file reads);
* :func:`register_transport` — the per-class ``(size, clone, run size)``
  table the built-in leaf Writables and the array-backed blocks fill at
  import, consulted before every generic walk below, and its copy column
  :data:`TRANSPORT_COPIES`.  Nothing is remembered between two
  measurements: every registered size is O(1) arithmetic;
* :func:`run_size` / :func:`pairs_size` — a whole run (a collector's
  partition, an output file, a KV block) measured in one call, by the
  table's run sizer in one C-level pass where it has one: exactly the sum
  of :func:`estimate_size` over the run;
* :meth:`DedupSerializer.ship` / :func:`clone_pairs` — the transport
  primitive: what arrives at the other place is what ``copy.deepcopy`` of
  the whole message would build (duplicates stay aliases of one clone,
  nothing aliases the sender), cloned through the table, and ``ship``
  measures the message in the same traversal (column by column when no
  object repeats);
* :meth:`DedupSerializer.measure_columns` — that column-by-column size
  alone, for a message that stays put (a spilled cache entry).
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.sanitizers import MUTATION_SANITIZER

#: Wire cost of a back-reference to an already-serialized object.
BACKREF_BYTES = 5

#: Fixed per-object envelope (type tag + length header).
OBJECT_HEADER_BYTES = 4

_KEY, _VALUE = itemgetter(0), itemgetter(1)

#: The ``serialized_size()`` sum of a run of exactly one registered class,
#: or ``None`` to have that run measured object by object.
RunSizer = Callable[[Sequence[Any]], Optional[int]]

#: Exact ``type(obj)`` -> ``(serialized_size, clone, run sizer or None)``
#: for the built-in leaf Writables and the array-backed blocks.  The
#: modules that define them fill it while they are imported and nothing
#: writes to it afterwards.  Keyed by exact type on purpose: a
#: subclass may add fields, so it takes the generic walk.
_TRANSPORT: Dict[
    type, Tuple[Callable[[Any], int], Callable[[Any, "Crossing"], Any], Optional[RunSizer]]
] = {}

#: The table's copy column: ``TRANSPORT_COPIES[cls](obj)`` deep-copies one
#: object of exactly ``cls``, for one ``dict.get`` at a copy site.
TRANSPORT_COPIES: Dict[type, Callable[[Any], Any]] = {}


def register_transport(
    cls: type, clone: Callable[..., Any], run_sizer: Optional[RunSizer] = None, *, crossing: bool
) -> None:
    """Give instances of exactly ``cls`` the table fast path.

    Their size becomes ``OBJECT_HEADER_BYTES + cls.serialized_size(obj)``
    without the generic walk, and the transport clones them with
    ``clone(obj, crossing)``, which must build what
    ``copy.deepcopy(obj, crossing.memo)`` builds.  For types whose only
    mutable parts are numpy arrays: a scalar Writable ignores the crossing,
    a block copies its arrays with :meth:`Crossing.array`, because two
    blocks over one array must arrive as two blocks over one array.  A
    type that holds another Writable (inner sharing with other records)
    stays on the generic walk.  ``run_sizer`` is what :func:`run_size`
    calls for a run of exactly ``cls``; without one, runs are measured
    object by object.

    ``crossing`` says whether ``clone`` consults its crossing: the copy
    of one object is then ``clone(obj, Crossing())``, else ``clone(obj)``,
    which builds none (``clone`` must default the argument).
    """
    _TRANSPORT[cls] = (cls.serialized_size, clone, run_sizer)
    TRANSPORT_COPIES[cls] = (lambda obj: clone(obj, Crossing())) if crossing else clone


def fixed_width_run(cls: type) -> RunSizer:
    """The run sizer of a class whose every instance is as wide as a new one."""
    width = cls().serialized_size()
    return lambda run: width * len(run)


class _FallbackTally:
    """Lifetime count of pickle-fallback size estimates.

    An object that reaches the final ``pickle.dumps`` path and still fails
    gets a fixed 64-byte guess; that used to happen silently.  Engines
    snapshot this tally around each job and surface the delta as the
    ``serializer_fallbacks`` metric, so a job whose accounting leans on
    guessed sizes says so.
    """

    def __init__(self) -> None:
        self._count = 0

    def record(self) -> None:
        self._count += 1

    def snapshot(self) -> int:
        return self._count


#: Process-wide tally shared by every serializer instance.
FALLBACK_TALLY = _FallbackTally()


def estimate_size(obj: Any) -> int:
    """Estimate the serialized size of one object, ignoring sharing.

    Writables (anything with a ``serialized_size()`` method) report their
    exact Hadoop wire size.  Containers are walked recursively *without*
    de-duplication — use :class:`DedupSerializer` when sharing matters.
    Heap cycles are encoded as back-references (the X10 protocol "must
    handle cycles in the heap", paper Section 5.1), so estimation always
    terminates.
    """
    entry = _TRANSPORT.get(type(obj))
    if entry is not None:
        return OBJECT_HEADER_BYTES + entry[0](obj)
    return _size_of(obj, memo=None)


def run_size(objs: Sequence[Any]) -> int:
    """``sum(map(estimate_size, objs))``, by the run sizer when every
    object is exactly the first one's class.  That check is made only when
    the class has a sizer: block runs and unregistered runs go straight to
    the per-object sum."""
    if objs:
        cls = type(objs[0])
        entry = _TRANSPORT.get(cls)
        if entry is not None and entry[2] is not None and set(map(type, objs)) == {cls}:
            return _column_size(objs, entry)
    return sum(map(estimate_size, objs))


def _column_size(objs: Sequence[Any], entry: Tuple) -> int:
    """:func:`run_size` of a run known to be all of ``entry``'s class."""
    size = entry[2](objs) if entry[2] is not None else None
    if size is None:
        size = sum(map(entry[0], objs))
    return OBJECT_HEADER_BYTES * len(objs) + size


def pairs_size(pairs: Sequence[Tuple[Any, Any]]) -> int:
    """The wire size of a pair sequence, ignoring sharing: :func:`run_size`
    of its keys plus that of its values.  (The columns are taken with
    ``itemgetter``: ``zip(*pairs)`` would allocate an iterator per pair,
    and so run the garbage collector every few hundred pairs.)"""
    if not pairs:  # an empty partition, common in jobs of few records
        return 0
    return run_size(list(map(_KEY, pairs))) + run_size(list(map(_VALUE, pairs)))


def _size_of(
    obj: Any,
    memo: "Dict[int, Any] | None",
    visiting: "set | None" = None,
) -> int:
    """Size of ``obj``; when ``memo`` is given, repeats cost a back-ref.

    ``memo`` is the caller's per-message table ``id(obj) -> obj``: holding
    the object keeps it alive, so ids stay unique for the whole message.
    ``visiting`` tracks the ids on the *current* descent path: even without
    a memo (raw, sharing-ignored measurement) a cycle must terminate, and a
    back-reference is what a cycle-capable wire protocol emits for it.
    """
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        # Hadoop VInt-style encoding: small ints are small on the wire.
        magnitude = abs(obj)
        nbytes = 1
        while magnitude >= 0x80:
            magnitude >>= 8
            nbytes += 1
        return nbytes
    if isinstance(obj, float):
        return 8

    if memo is not None:
        key = id(obj)
        if key in memo:
            return BACKREF_BYTES
        memo[key] = obj
    elif isinstance(obj, (list, tuple, set, frozenset, dict)) or hasattr(
        obj, "__dict__"
    ):
        if visiting is None:
            visiting = set()
        if id(obj) in visiting:
            return BACKREF_BYTES
        visiting = visiting | {id(obj)}

    table = _TRANSPORT.get(type(obj))
    if table is not None:
        return OBJECT_HEADER_BYTES + table[0](obj)
    size_fn = getattr(obj, "serialized_size", None)
    if callable(size_fn):
        return OBJECT_HEADER_BYTES + int(size_fn())

    if isinstance(obj, (bytes, bytearray, memoryview)):
        return OBJECT_HEADER_BYTES + len(obj)
    if isinstance(obj, str):
        return OBJECT_HEADER_BYTES + len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return OBJECT_HEADER_BYTES + sum(
            _size_of(item, memo, visiting) for item in obj
        )
    if isinstance(obj, dict):
        return OBJECT_HEADER_BYTES + sum(
            _size_of(k, memo, visiting) + _size_of(v, memo, visiting)
            for k, v in obj.items()
        )

    nbytes_attr = getattr(obj, "nbytes", None)
    if isinstance(nbytes_attr, int):  # numpy arrays
        return OBJECT_HEADER_BYTES + nbytes_attr

    # scipy sparse matrices expose .data/.indices/.indptr numpy arrays
    data = getattr(obj, "data", None)
    if data is not None and hasattr(data, "nbytes"):
        total = data.nbytes
        for attr in ("indices", "indptr", "row", "col"):
            arr = getattr(obj, attr, None)
            if arr is not None and hasattr(arr, "nbytes"):
                total += arr.nbytes
        return OBJECT_HEADER_BYTES + int(total)

    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return OBJECT_HEADER_BYTES + sum(
            _size_of(v, memo, visiting) for v in attrs.values()  # noqa: M3R002 - __dict__ order fixed at construction
        )

    try:
        return OBJECT_HEADER_BYTES + len(pickle.dumps(obj, protocol=4))
    except (pickle.PicklingError, TypeError):  # unpicklable exotic object
        FALLBACK_TALLY.record()
        return OBJECT_HEADER_BYTES + 64


def _dual_size_of(obj: Any, memo: Dict[int, List[Any]]) -> Tuple[int, int]:
    """``(wire, raw)`` size of ``obj`` in one traversal.

    ``memo`` is the caller's per-message table ``id(obj) -> [obj,
    raw_size]`` (the held reference keeps ids unique); ``raw_size`` is ``None``
    while the object's walk is still in progress (i.e. the hit is a cycle,
    which both accountings encode as a back-reference).  A completed-walk
    hit costs a back-reference on the wire but its full, sharing-ignored
    size in the raw total — exactly what the former second
    ``_size_of(value, memo=None)`` pass computed.
    """
    if obj is None or isinstance(obj, bool):
        return 1, 1
    if isinstance(obj, int):
        magnitude = abs(obj)
        nbytes = 1
        while magnitude >= 0x80:
            magnitude >>= 8
            nbytes += 1
        return nbytes, nbytes
    if isinstance(obj, float):
        return 8, 8

    key = id(obj)
    entry = memo.get(key)
    if entry is not None:
        raw_size = entry[1]
        if raw_size is None:  # cycle: raw measurement back-references too
            return BACKREF_BYTES, BACKREF_BYTES
        return BACKREF_BYTES, raw_size
    entry = [obj, None]  # hold a reference so ids stay unique
    memo[key] = entry

    table = _TRANSPORT.get(type(obj))
    if table is not None:
        size = entry[1] = OBJECT_HEADER_BYTES + table[0](obj)
        return size, size
    size_fn = getattr(obj, "serialized_size", None)
    if callable(size_fn):
        size = OBJECT_HEADER_BYTES + int(size_fn())
        entry[1] = size
        return size, size

    if isinstance(obj, (bytes, bytearray, memoryview)):
        size = OBJECT_HEADER_BYTES + len(obj)
        entry[1] = size
        return size, size
    if isinstance(obj, str):
        size = OBJECT_HEADER_BYTES + len(obj.encode("utf-8"))
        entry[1] = size
        return size, size

    if isinstance(obj, (list, tuple, set, frozenset)):
        wire = raw = OBJECT_HEADER_BYTES
        for item in obj:
            w, r = _dual_size_of(item, memo)
            wire += w
            raw += r
        entry[1] = raw
        return wire, raw
    if isinstance(obj, dict):
        wire = raw = OBJECT_HEADER_BYTES
        for k, v in obj.items():
            w, r = _dual_size_of(k, memo)
            wire += w
            raw += r
            w, r = _dual_size_of(v, memo)
            wire += w
            raw += r
        entry[1] = raw
        return wire, raw

    nbytes_attr = getattr(obj, "nbytes", None)
    if isinstance(nbytes_attr, int):  # numpy arrays
        size = OBJECT_HEADER_BYTES + nbytes_attr
        entry[1] = size
        return size, size

    data = getattr(obj, "data", None)
    if data is not None and hasattr(data, "nbytes"):
        total = data.nbytes
        for attr in ("indices", "indptr", "row", "col"):
            arr = getattr(obj, attr, None)
            if arr is not None and hasattr(arr, "nbytes"):
                total += arr.nbytes
        size = OBJECT_HEADER_BYTES + int(total)
        entry[1] = size
        return size, size

    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        wire = raw = OBJECT_HEADER_BYTES
        for v in attrs.values():  # noqa: M3R002 - __dict__ order fixed at construction
            w, r = _dual_size_of(v, memo)
            wire += w
            raw += r
        entry[1] = raw
        return wire, raw

    try:
        size = OBJECT_HEADER_BYTES + len(pickle.dumps(obj, protocol=4))
    except (pickle.PicklingError, TypeError):  # unpicklable exotic object
        FALLBACK_TALLY.record()
        size = OBJECT_HEADER_BYTES + 64
    entry[1] = size
    return size, size


@dataclass(frozen=True)
class SerializedMessage:
    """The measured result of serializing one message to one place."""

    #: Bytes on the wire with de-duplication applied.
    wire_bytes: int
    #: Bytes that would have been sent without de-duplication.
    raw_bytes: int
    #: Number of top-level records in the message.
    records: int
    #: Distinct objects actually serialized.
    unique_objects: int
    #: References resolved from the memo instead of re-serialized.
    duplicate_refs: int

    @property
    def dedup_savings(self) -> int:
        """Bytes saved by de-duplication."""
        return self.raw_bytes - self.wire_bytes


class DedupSerializer:
    """Measures messages with X10's de-duplicating protocol.

    One instance can be shared; every :meth:`measure_message` call uses a
    fresh memo, matching X10's per-message de-duplication scope, and the
    instance itself holds no state.
    """

    def measure_message(self, values: Sequence[Any]) -> SerializedMessage:
        """Measure serializing ``values`` as one message.

        Each distinct object (by identity) costs its full encoded size the
        first time and :data:`BACKREF_BYTES` on every repeat.  The
        de-duplicated (wire) and sharing-ignored (raw) totals come out of
        one traversal of the object graph.
        """
        if MUTATION_SANITIZER.enabled:
            MUTATION_SANITIZER.observe_all(
                values, site="DedupSerializer.measure_message"
            )
        memo: Dict[int, List[Any]] = {}
        wire = 0
        raw = 0
        duplicates = 0
        for value in values:
            before = len(memo)
            w, r = _dual_size_of(value, memo)
            wire += w
            raw += r
            if len(memo) == before and not _is_inline(value):
                duplicates += 1
        return SerializedMessage(
            wire_bytes=wire,
            raw_bytes=raw,
            records=len(values),
            unique_objects=len(memo),
            duplicate_refs=duplicates,
        )

    def measure_pairs(
        self, pairs: Iterable[Tuple[Any, Any]]
    ) -> SerializedMessage:
        """Measure a message of key/value pairs (the shuffle's unit)."""
        flat: list = []
        for key, value in pairs:
            flat.append(key)
            flat.append(value)
        message = self.measure_message(flat)
        return SerializedMessage(
            wire_bytes=message.wire_bytes,
            raw_bytes=message.raw_bytes,
            records=len(flat) // 2,
            unique_objects=message.unique_objects,
            duplicate_refs=message.duplicate_refs,
        )

    def measure_columns(
        self, pairs: Sequence[Tuple[Any, Any]]
    ) -> Optional[SerializedMessage]:
        """:meth:`measure_pairs` of ``pairs`` when :func:`_columns` accepts
        them, sized column by column as :meth:`ship` sizes such a message;
        else ``None``, for the memo walk.  No object repeats in an accepted
        message, so its wire and raw sizes are both ``pairs_size(pairs)``."""
        if MUTATION_SANITIZER.enabled:
            MUTATION_SANITIZER.observe_pairs(pairs, site="DedupSerializer.measure_columns")
        columns = _columns((pairs,))
        return None if columns is None else _column_message(columns)

    def ship(
        self, runs: Sequence[Sequence[Tuple[Any, Any]]]
    ) -> Tuple[SerializedMessage, List[List[Tuple[Any, Any]]]]:
        """Send ``runs`` to another place as one message: measure and clone.

        One traversal does both halves of an X10 ``at``.  The message is
        exactly :meth:`measure_pairs` of the concatenated runs.  The
        returned runs are what ``copy.deepcopy`` of all of them as one
        object graph builds: an object sent twice arrives as two aliases
        of one clone, nothing aliases the sender, and a second ``ship`` of
        the same object makes an independent clone.

        A message :func:`_columns` accepts is sized and cloned column by
        column, without a memo.  Any other takes the walk below, whose two
        halves keep a memo each, scoped to this call, because a Writable
        nested inside a composite is cloned with it but measured only as
        part of it.
        """
        if MUTATION_SANITIZER.enabled:
            for run in runs:
                MUTATION_SANITIZER.observe_pairs(run, site="DedupSerializer.ship")
        columns = _columns(runs)
        if columns is not None:  # no object twice: no memo to keep
            return _column_message(columns), _clone_columns(columns)
        sizes: Dict[int, List[Any]] = {}  # _dual_size_of's memo
        crossing = Crossing()
        clones = crossing.memo
        transport = _TRANSPORT
        wire = raw = records = duplicates = 0
        shipped = []
        for run in runs:
            arrived = []
            for pair in run:
                key, value = pair
                halves = []
                for obj in (key, value):
                    table = transport.get(type(obj))
                    if table is None:
                        before = len(sizes)
                        w, r = _dual_size_of(obj, sizes)
                        wire += w
                        raw += r
                        if len(sizes) == before and not _is_inline(obj):
                            duplicates += 1
                        halves.append(copy.deepcopy(obj, clones))
                        continue
                    # A table entry: what _dual_size_of and Crossing.clone
                    # do with it, inline because this loop is the shuffle's
                    # per-record cost.
                    ident = id(obj)
                    entry = sizes.get(ident)
                    if entry is None:
                        size = OBJECT_HEADER_BYTES + table[0](obj)
                        sizes[ident] = [obj, size]
                        wire += size
                        raw += size
                    else:
                        wire += BACKREF_BYTES
                        raw += entry[1]
                        duplicates += 1
                    clone = clones.get(ident)
                    if clone is None:
                        clone = clones[ident] = table[1](obj, crossing)
                    halves.append(clone)
                arrived.append(crossing.pair(pair, halves))
            records += len(run)
            shipped.append(arrived)
        message = SerializedMessage(
            wire_bytes=wire,
            raw_bytes=raw,
            records=records,
            unique_objects=len(sizes),
            duplicate_refs=duplicates,
        )
        return message, shipped


def _columns(runs: Sequence[Sequence[Any]]) -> Optional[List[Tuple]]:
    """Each run as ``(keys, key entry, values, value entry)`` when every
    pair is a plain 2-tuple, each column is of one exact table class and
    no object fills two slots of the message; else ``None``, for the memo
    walk (a repeat must cost a back-reference and arrive as an alias).
    Repeats are checked run by run: a broadcast leaves at its first run."""
    columns: List[Tuple] = []
    seen: set = set()
    for run in runs:
        if not run:
            columns.append(((), None, (), None))
            continue
        if set(map(type, run)) != {tuple} or set(map(len, run)) != {2}:
            return None
        keys, values = list(map(_KEY, run)), list(map(_VALUE, run))
        key_entry, value_entry = _entry_of(keys), _entry_of(values)
        filled = len(seen)
        seen.update(map(id, keys), map(id, values))
        if key_entry is None or value_entry is None or len(seen) != filled + 2 * len(run):
            return None
        columns.append((keys, key_entry, values, value_entry))
    return columns


def _column_message(columns: List[Tuple]) -> SerializedMessage:
    """The message of runs :func:`_columns` accepted: every object once,
    so nothing is saved and wire == raw."""
    wire = sum(_column_size(k, ke) + _column_size(v, ve) for k, ke, v, ve in columns if k)
    records = sum(len(k) for k, _, _, _ in columns)
    return SerializedMessage(wire, wire, records, 2 * records, 0)


def _entry_of(column: List[Any]) -> Optional[Tuple]:
    """The table entry of a column of exactly one registered class."""
    classes = set(map(type, column))
    return _TRANSPORT.get(*classes) if len(classes) == 1 else None


def _clone_columns(columns: List[Tuple]) -> List[List[Tuple[Any, Any]]]:
    """Each column cloned by one ``map`` of its table clone, zipped into
    pairs; one crossing, so blocks over one array arrive over one array."""
    crossing = repeat(Crossing())
    return [list(zip(map(ke[1], k, crossing), map(ve[1], v, crossing))) if k else []
            for k, ke, v, ve in columns]


def _is_inline(value: Any) -> bool:
    """True for scalars that serialize inline and never enter the memo."""
    return value is None or isinstance(value, (bool, int, float))


class Crossing:
    """The clone half of one message: ``copy.deepcopy`` on its memo, table first.

    ``memo`` is ``copy.deepcopy``'s own (``id(original) -> copy``), so
    whatever the table does not know goes to ``copy.deepcopy`` on the same
    memo and a graph that mixes both kinds keeps its sharing.  The source
    pairs outlive the crossing, so no id in it can be recycled.  A fresh
    crossing per object is a plain deep copy (the blocks' ``clone()``).
    """

    def __init__(self) -> None:
        self.memo: Dict[int, Any] = {}

    def clone(self, obj: Any) -> Any:
        """``copy.deepcopy(obj, memo)``."""
        table = _TRANSPORT.get(type(obj))
        if table is None:
            return copy.deepcopy(obj, self.memo)
        ident = id(obj)
        clone = self.memo.get(ident)
        if clone is None:
            clone = self.memo[ident] = table[1](obj, self)
        return clone

    def array(self, array: Any) -> Any:
        """``copy.deepcopy(array, memo)`` for a (1-D) numpy array.

        What the block Writables' table clones are made of: one
        ``ndarray.copy`` per array, through the memo, so an array that two
        blocks share arrives shared — as ``copy.deepcopy`` of the message
        would have it.
        """
        memo = self.memo
        copied = memo.get(id(array))
        if copied is None:
            copied = memo[id(array)] = array.copy()
        return copied

    def arrays_of(self, obj: Any, names: Sequence[str]) -> Any:
        """``copy.deepcopy(obj, memo)`` for a plain object whose only
        mutable parts are the arrays in its attributes ``names`` — the
        scipy container inside a ``MatrixBlockWritable``.

        No constructor and no reduce protocol run: a shallow copy of the
        instance ``__dict__`` (scipy's lazily cached format flags travel
        with it) and :meth:`array` for each named array.
        """
        fresh = self.memo.get(id(obj))
        if fresh is None:
            fresh = self.memo[id(obj)] = object.__new__(type(obj))
            attrs = fresh.__dict__
            attrs.update(obj.__dict__)
            for name in names:
                attrs[name] = self.array(attrs[name])
        return fresh

    def pair(self, pair: Any, halves: List[Any]) -> Any:
        """``copy.deepcopy(pair, memo)`` given the clones of its halves.

        As there: the same tuple sent twice arrives as one tuple twice, and
        a tuple whose halves copy to themselves is returned as it is.
        Anything but a plain 2-tuple goes to ``copy.deepcopy``, which finds
        the halves in the memo.
        """
        if type(pair) is not tuple or len(pair) != 2:
            return copy.deepcopy(pair, self.memo)
        arrived = self.memo.get(id(pair))
        if arrived is None:
            if halves[0] is pair[0] and halves[1] is pair[1]:
                return pair
            arrived = self.memo[id(pair)] = tuple(halves)
        return arrived


def clone_pairs(pairs: Iterable[Tuple[Any, Any]]) -> List[Tuple[Any, Any]]:
    """``copy.deepcopy(pairs)`` for a pair list, cloned through the table.

    The transport without the measurement: what a place crossing that is
    charged from recorded sizes (a served ReStore part, a buddy replica, a
    promoted cache entry) hands to the receiving side.
    """
    crossing = Crossing()
    return [
        crossing.pair(pair, [crossing.clone(half) for half in pair])
        for pair in pairs
    ]


def copy_unregistered(value: Any) -> Any:
    """The copy of an object outside the table: its ``clone()`` (Hadoop's
    ``WritableUtils.clone``), else ``copy.deepcopy``."""
    clone_fn = getattr(value, "clone", None)
    if callable(clone_fn):
        return clone_fn()
    return copy.deepcopy(value)


def deep_copy_value(value: Any) -> Any:
    """The defensive copy of one key or value: its exact class's table
    copier, else :func:`copy_unregistered` (inlined at the copy sites)."""
    return TRANSPORT_COPIES.get(type(value), copy_unregistered)(value)
