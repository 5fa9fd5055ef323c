"""M3R's input/output key/value cache (paper Section 3.2.1), layered on the
distributed key/value store of Section 5.2.

The cache associates key/value sequences with *names*:

* a whole output file (``/out/part-00000``) written by a reducer is cached
  under its path, at the place where the reducer ran;
* an input split read by a mapper is cached under ``path + range`` (M3R
  derives this from ``FileSplit``; user splits provide it via
  ``NamedSplit``/``DelegatingSplit``);
* later lookups match either form — a split covering a whole cached file
  hits the whole-file entry.

Entries carry the place that holds them; the engine schedules mappers to
that place, which together with partition stability is what keeps iterative
job sequences communication-free.

Every byte the cache holds is governed by a
:class:`~repro.memory.governor.MemoryGovernor` (see :mod:`repro.memory`):
admissions charge their place's budget (and their tenant's, when the
path lies in a registered tenant namespace).  An owner that crosses its
high watermark sheds its least recently used unpinned entries — the one
replacement rule, kept as a ``touched`` stamp on each entry — through one
eviction routine for places and tenants alike.  Evicted entries are
demoted to a spill file on the underlying filesystem rather than dropped:
a spilled entry stays in the index (so the namespace union in
:mod:`repro.core.cachefs` still sees it) and is transparently rehydrated
by the next materializing lookup.  The default governor is unbounded with
no spill, which is exactly the historical behaviour.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Hashable, Iterable, Iterator, List, Optional,
    Sequence, Set, Tuple,
)

from repro.analysis.sanitizers import MUTATION_SANITIZER
from repro.fs.filesystem import normalize_path
from repro.kvstore.paths import ancestors
from repro.kvstore.store import BlockInfo, KeyValueStore, PathExistsError
from repro.memory import MemoryGovernor, SpillRecord, WatermarkLedger
from repro.x10.places import Place
from repro.x10.serializer import estimate_size


#: Separator between a path and a split range in internal cache names.
#: '#' never appears in normalized paths, so the two namespaces cannot clash.
RANGE_SEP = "#"


def split_cache_name(path: str, start: int, length: int) -> str:
    """The internal cache name for one split of one file."""
    return f"{normalize_path(path)}{RANGE_SEP}{start}+{length}"


def _index_keys(name: str, path: str) -> Set[str]:
    """Every path whose namespace queries must find the entry ``name`` for
    ``path``: the path itself and each of its ancestor directories up to
    ``/``, plus each prefix of the name that ends at a :data:`RANGE_SEP`
    (a split answers to its file)."""
    keys = {path}
    probe = path
    while probe != "/":
        probe = probe.rpartition("/")[0] or "/"
        keys.add(probe)
    cut = name.find(RANGE_SEP)
    while cut > 0:
        keys.add(name[:cut])
        cut = name.find(RANGE_SEP, cut + 1)
    return keys


@dataclass
class CacheEntry:
    """One cached key/value sequence.

    ``pairs`` is ``None`` while the entry is spilled; metadata (``nbytes``,
    ``place_id``) stays valid so namespace queries keep working.  ``durable``
    records whether the same data also exists on the underlying filesystem —
    a non-durable entry (temporary output, named split) must never be
    dropped without a spill, or its data would be lost.
    """

    name: str
    path: str
    place_id: int
    pairs: Optional[List[Tuple[Any, Any]]]
    nbytes: int
    durable: bool = True
    spilled: bool = False
    spill: Optional[SpillRecord] = None
    pins: int = field(default=0, compare=False)
    #: Monotonic admission stamp (per cache instance): re-registering a path
    #: bumps it, so equality of versions means "the very same admission" —
    #: the restore subsystem keys content validity on it.  Spill/rehydrate
    #: do not change the version (the data is the same).
    version: int = 0
    #: Recency stamp (per cache instance), bumped on admission, rehydration
    #: and every materializing hit; eviction takes the lowest first.
    touched: int = field(default=0, compare=False)

    @property
    def records(self) -> int:
        return len(self.pairs) if self.pairs is not None else 0


def _touched(entry: CacheEntry) -> int:
    return entry.touched


def _file_at_stamp(order: Dict[int, CacheEntry], entry: CacheEntry) -> None:
    """Put ``entry`` into the touch ``order`` at its stamp's place: lift the
    newer entries off the end, then put them back after it."""
    newer = []
    while order and next(reversed(order.values())).touched > entry.touched:
        newer.append(order.popitem())
    order[id(entry)] = entry
    order.update(reversed(newer))


class KeyValueCache:
    """The engine-wide cache: one instance per M3R engine, distributed over
    the engine's places through the key/value store."""

    def __init__(
        self,
        places: Sequence[Place],
        governor: Optional[MemoryGovernor] = None,
    ):
        self._store = KeyValueStore(places)
        # name -> (path, place_id); the store holds the data blocks.  This
        # index exists because lookups arrive by path *or* by split name.
        self._index: Dict[str, CacheEntry] = {}
        # The directory index: each of an entry's _index_keys -> the
        # entries under it, in _index order (both are updated together),
        # so a namespace query visits only the entries it answers about.
        self._under: Dict[str, Dict[str, CacheEntry]] = {}
        #: Ledger/pin/spill coordinator; unbounded + no spill by default.
        self.governor = governor if governor is not None else MemoryGovernor()
        # Admission stamp source for CacheEntry.version.
        self._version_counter = 0
        # Recency stamp source for CacheEntry.touched.
        self._tick = 0
        # place -> its resident entries (by id, which a rename keeps) in
        # ascending ``touched`` order: a touch moves an entry to the end,
        # eviction and removal take it out.  The stamps are distinct, so
        # this is exactly the LRU order an eviction wave walks.
        self._lru: Dict[int, Dict[int, CacheEntry]] = {}
        # budgeted tenant -> its resident entries in the same order, filed
        # for registration count ``_filed_for`` (``_tenant_orders``); while
        # it is empty, no touch asks ``tenant_of``.
        self._by_tenant: Dict[str, Dict[int, CacheEntry]] = {}
        self._filed_for = 0
        # place -> the running counts ``stats`` reports (``_tally``).
        self._totals: Dict[int, Dict[str, int]] = defaultdict(lambda: dict.fromkeys(
            ("entries", "spilled", "resident_bytes", "spilled_bytes"), 0
        ))

    @property
    def store(self) -> KeyValueStore:
        """The key/value store holding the resident entries' blocks."""
        return self._store

    # -- writes ------------------------------------------------------------- #

    def put_file(
        self,
        path: str,
        place_id: int,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
        durable: bool = True,
    ) -> CacheEntry:
        """Cache a whole file's pair sequence at ``place_id``."""
        return self._put(
            normalize_path(path), normalize_path(path), place_id, pairs,
            nbytes, durable,
        )

    def put_split(
        self,
        path: str,
        start: int,
        length: int,
        place_id: int,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
        durable: bool = True,
    ) -> CacheEntry:
        """Cache the pair sequence of one split of ``path``."""
        name = split_cache_name(path, start, length)
        return self._put(name, normalize_path(path), place_id, pairs, nbytes, durable)

    def put_named(
        self,
        name: str,
        place_id: int,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
        durable: bool = False,
    ) -> CacheEntry:
        """Cache under a user-provided name (the ``NamedSplit`` path).

        Named data has no filesystem backing, so it defaults to
        non-durable: eviction must spill it, never drop it.
        """
        if not name.startswith("/"):
            name = "/" + name
        return self._put(name, name, place_id, pairs, nbytes, durable)

    def _put(
        self,
        name: str,
        path: str,
        place_id: int,
        pairs: List[Tuple[Any, Any]],
        nbytes: int,
        durable: bool = True,
    ) -> CacheEntry:
        if nbytes <= 0:
            # Callers normally pass the measured wire size; a zero or
            # negative size would poison the budget accounting (an entry
            # that occupies memory but charges nothing), so fall back to
            # the serializer's estimate.
            nbytes = estimate_size(pairs)
        if name in self._index:
            self._forget(name)
        # The store keeps the list reference — this is an in-memory cache,
        # the whole point is that nothing is copied or serialized here.
        stored = self._store.put_block(
            name, BlockInfo(place_id=place_id), pairs, nbytes
        )
        if MUTATION_SANITIZER.enabled:
            MUTATION_SANITIZER.observe_pairs(
                stored, site=f"KeyValueCache.put({name})"
            )
        self._version_counter += 1
        entry = CacheEntry(
            name=name, path=path, place_id=place_id, pairs=stored,
            nbytes=nbytes, durable=durable, version=self._version_counter,
        )
        self._link(entry)
        self.governor.charge(place_id, path, nbytes)
        self._touch(entry)
        self._enforce((place_id,))
        return entry

    # -- memory governance --------------------------------------------------- #

    def _touch(self, entry: CacheEntry) -> None:
        """Stamp ``entry`` as the most recently used."""
        self._tick += 1
        entry.touched = self._tick
        key = id(entry)
        for order in (self._lru.setdefault(entry.place_id, {}), self._tenant_order(entry.path)):
            if order is not None:
                order.pop(key, None)
                order[key] = entry

    def _tenant_order(self, path: str) -> Optional[Dict[int, CacheEntry]]:
        """The touch order of the budgeted tenant owning ``path``, if one
        does (asking nothing while no tenant has a budget)."""
        return self._by_tenant.get(self.governor.tenant_of(path)) if self._by_tenant else None

    def _tenant_orders(self) -> Dict[str, Dict[int, CacheEntry]]:
        """budgeted tenant (in name order) -> its resident entries in touch
        order, filed again after a registration (it may claim old data)."""
        governor = self.governor
        if self._filed_for != governor.registrations:
            self._filed_for = governor.registrations
            capacity = governor.tenants.capacity
            self._by_tenant = {name: {} for name in governor.tenant_names() if capacity(name)}
            for entry in sorted(self._index.values(), key=_touched) if self._by_tenant else ():
                order = self._tenant_order(entry.path)
                if order is not None and not entry.spilled:
                    order[id(entry)] = entry
        return self._by_tenant

    def _resign(self, entry: CacheEntry) -> None:
        """Take a resident entry out of its place's and tenant's orders."""
        del self._lru[entry.place_id][id(entry)]
        (self._tenant_order(entry.path) or {}).pop(id(entry), None)

    def _enforce(self, place_ids: Iterable[int]) -> None:
        """Bring every place in ``place_ids``, then every budgeted tenant
        (in name order), back under its high watermark."""
        governor = self.governor
        for place_id in place_ids:
            self._shed(governor.budget, place_id, self._lru.get(place_id, {}).values())
        for tenant, order in self._tenant_orders().items():
            self._shed(governor.tenants, tenant, order.values())

    def _shed(
        self,
        ledger: WatermarkLedger,
        owner: Hashable,
        resident: Iterable[CacheEntry],
    ) -> None:
        """The one eviction wave, for places and tenants alike.

        When ``owner`` is over its high watermark in ``ledger``, evict the
        least recently touched prefix of its evictable entries (``resident``
        holds the owner's resident entries, least recently touched first;
        the evictable ones are unpinned) that covers the bytes down to its
        low watermark — or every one of them, when even that is not enough
        (occupancy then stays above the watermark and the high-water mark
        records it).  The walk stops at the last victim.  Candidates are
        restricted to the owner, so one tenant's pressure never touches
        another tenant's entries.
        """
        if not ledger.over_high_watermark(owner):
            return
        governor = self.governor
        spill_active = governor.spill_active
        to_free = ledger.eviction_target(owner)
        victims: List[CacheEntry] = []
        for entry in resident:
            if to_free <= 0:
                break
            # Without spill, dropping a non-durable entry (a temporary
            # output that was never flushed) would lose data — treat it as
            # implicitly pinned.
            if (spill_active or entry.durable) and not governor.is_pinned(
                entry.name, entry.path, entry.pins
            ):
                victims.append(entry)
                to_free -= entry.nbytes
        for entry in victims:
            self._evict(entry)

    def _evict(self, entry: CacheEntry) -> None:
        """Demote one resident entry: spill if available, else drop."""
        governor = self.governor
        self._resign(entry)
        if governor.spill_active:
            record, seconds = governor.spill.spill(entry.pairs)
            self._store.delete(entry.name)
            entry.pairs = None
            self._tally(entry, -1)
            entry.spilled = True
            self._tally(entry, 1)
            entry.spill = record
            governor.incr("cache_spills")
            governor.incr("cache_spill_bytes", record.wire_bytes)
            governor.charge_seconds("spill_write", seconds)
            governor.emit_spill(
                "spill", entry.name, entry.place_id, record.wire_bytes, seconds
            )
        else:
            self._store.delete(entry.name)
            self._unlink(entry)
            governor.emit_cache("drop", entry.name, entry.place_id, entry.nbytes)
        governor.release(entry.place_id, entry.path, entry.nbytes)
        governor.incr("cache_evictions")
        governor.emit_cache("evict", entry.name, entry.place_id, entry.nbytes)

    def _rehydrate(self, entry: CacheEntry) -> None:
        """Bring a spilled entry back to residency."""
        governor = self.governor
        pairs, seconds = governor.spill.rehydrate(entry.spill)
        stored = self._store.put_block(
            entry.name, BlockInfo(place_id=entry.place_id), pairs, entry.nbytes
        )
        entry.pairs = stored
        self._tally(entry, -1)
        entry.spilled = False
        self._tally(entry, 1)
        entry.spill = None
        governor.charge(entry.place_id, entry.path, entry.nbytes)
        self._touch(entry)
        governor.incr("cache_rehydrations")
        governor.charge_seconds("spill_read", seconds)
        governor.emit_spill(
            "rehydrate", entry.name, entry.place_id, entry.nbytes, seconds
        )
        # Re-admission can push the place back over its watermark; protect
        # the entry being handed to the caller from its own eviction wave.
        entry.pins += 1
        try:
            self._enforce((entry.place_id,))
        finally:
            entry.pins -= 1

    def _link(self, entry: CacheEntry) -> None:
        """Add ``entry`` to both indexes and its place's totals."""
        self._index[entry.name] = entry
        for key in _index_keys(entry.name, entry.path):
            self._under.setdefault(key, {})[entry.name] = entry
        self._tally(entry, 1)

    def _unlink(self, entry: CacheEntry) -> None:
        """Remove ``entry`` from both indexes and its place's totals."""
        del self._index[entry.name]
        for key in _index_keys(entry.name, entry.path):
            under = self._under[key]
            del under[entry.name]
            if not under:
                del self._under[key]
        self._tally(entry, -1)

    def _tally(self, entry: CacheEntry, sign: int) -> None:
        """Count ``entry`` into (``sign`` 1) or out of (-1) its place's
        totals."""
        totals = self._totals[entry.place_id]
        totals["entries"] += sign
        if entry.spilled:
            totals["spilled"] += sign
            totals["spilled_bytes"] += sign * entry.nbytes
        else:
            totals["resident_bytes"] += sign * entry.nbytes

    def _forget(self, name: str) -> None:
        """Remove an entry outright (replacement, delete, clear)."""
        entry = self._index[name]
        self._unlink(entry)
        if entry.spilled:
            self.governor.spill.discard(entry.spill)
        else:
            self._resign(entry)
            self._store.delete(name)
            self.governor.release(entry.place_id, entry.path, entry.nbytes)

    def pin(self, name: str) -> bool:
        """Ref-count-pin an entry against eviction; False when unknown."""
        entry = self._index.get(name)
        if entry is None:
            return False
        entry.pins += 1
        return True

    def unpin(self, name: str) -> None:
        entry = self._index.get(name)
        if entry is not None and entry.pins > 0:
            entry.pins -= 1

    def reconfigure(self, **overrides: Any) -> None:
        """Apply ``m3r.cache.*`` overrides, then re-enforce every budget."""
        self.governor.reconfigure(**overrides)
        self._enforce({e.place_id for e in self._index.values()})

    # -- lookups --------------------------------------------------------- #

    def _resolve(
        self, entry: Optional[CacheEntry], materialize: bool, pin: bool
    ) -> Optional[CacheEntry]:
        """Post-process one index lookup.

        ``materialize=False`` is the metadata peek: no rehydration, no
        recency stamp, no hit/miss tally — namespace queries must not
        perturb replacement order or drag data back from spill.
        """
        if entry is None:
            if materialize:
                self.governor.incr_lifetime("cache_lookup_misses")
            return None
        if not materialize:
            return entry
        self.governor.incr_lifetime("cache_lookup_hits")
        if entry.spilled:
            self._rehydrate(entry)
        if MUTATION_SANITIZER.enabled and entry.pairs is not None:
            MUTATION_SANITIZER.observe_pairs(
                entry.pairs, site=f"KeyValueCache.get({entry.name})"
            )
        self._touch(entry)
        if pin:
            entry.pins += 1
        return entry

    def get_file(
        self, path: str, materialize: bool = True, pin: bool = False
    ) -> Optional[CacheEntry]:
        """The whole-file entry for ``path``, if cached."""
        return self._resolve(
            self._index.get(normalize_path(path)), materialize, pin
        )

    def get_split(
        self,
        path: str,
        start: int,
        length: int,
        file_length: Optional[int] = None,
        materialize: bool = True,
        pin: bool = False,
    ) -> Optional[CacheEntry]:
        """An entry serving the given split: exact range match, or the
        whole-file entry when the split covers the entire file."""
        entry = self._index.get(split_cache_name(path, start, length))
        if entry is None and start == 0:
            whole = self._index.get(normalize_path(path))
            if whole is not None and (
                file_length is None
                or length >= file_length
                or length >= whole.nbytes
            ):
                entry = whole
        return self._resolve(entry, materialize, pin)

    def get_named(
        self, name: str, materialize: bool = True, pin: bool = False
    ) -> Optional[CacheEntry]:
        if not name.startswith("/"):
            name = "/" + name
        return self._resolve(self._index.get(name), materialize, pin)

    def _entries_under(self, path: str) -> List[CacheEntry]:
        """The entries the directory index files under ``path``, in index
        order: at or beneath it, and the names that extend it by a
        :data:`RANGE_SEP`."""
        return list(self._under.get(path, {}).values())

    def contains_path(self, path: str) -> bool:
        """Is anything cached for ``path`` — the file itself, one of its
        splits, or (for directories) anything beneath it?"""
        path = normalize_path(path)
        return path in self._index or path in self._under

    def paths_under(self, directory: str) -> List[str]:
        """Whole-file cache paths at or under ``directory`` (for listing)."""
        directory = normalize_path(directory)
        prefix = "/" if directory == "/" else directory + "/"
        return sorted(
            entry.path
            for entry in self._entries_under(directory)
            if entry.name == entry.path
            and (entry.path == directory or entry.path.startswith(prefix))
        )

    # -- invalidation (mirrors filesystem mutation) --------------------------- #

    def delete_path(self, path: str) -> bool:
        """Drop every entry for ``path`` (and, for directories, below it).

        Explicit deletion wins over pins (the CacheFS contract: a job that
        deletes data it knows is dead must actually free the memory), and
        releases the budget bytes and any spill file immediately.
        """
        doomed = self._entries_under(normalize_path(path))
        for entry in doomed:
            self._forget(entry.name)
        return bool(doomed)

    def rename_path(self, src: str, dst: str) -> None:
        """Re-key every entry for ``src`` to ``dst`` (data stays in place).

        All or nothing: when a destination name is already cached — resident
        or spilled — or in the store, or one of its ancestors is a cached
        name or a file in the store, :class:`PathExistsError` is raised
        before anything moves.
        """
        src = normalize_path(src)
        dst = normalize_path(dst)
        if src == dst:
            return
        moves: List[Tuple[str, str, str, CacheEntry]] = []
        for entry in self._entries_under(src):
            if entry.path == src or entry.path.startswith(src + "/"):
                new_path = dst + entry.path[len(src):]
                new_name = new_path + entry.name[len(entry.path):]
                if new_name in self._index or self._store.exists(new_name):
                    raise PathExistsError(f"rename target is cached: {new_name}")
                for directory in ancestors(new_name):
                    info = self._store.get_info(directory)
                    if directory in self._index or (info is not None and not info.is_dir):
                        raise PathExistsError(f"rename target {new_name} is under a file")
                moves.append((entry.name, new_name, new_path, entry))
        governor = self.governor
        for old_name, new_name, new_path, entry in moves:
            if not entry.spilled:
                self._store.rename(old_name, new_name)
                # A rename can cross tenant namespaces (commit moves a
                # temp path into the tenant's output dir) — re-attribute
                # the resident bytes to the destination's owner.
                governor.release(entry.place_id, entry.path, entry.nbytes)
                governor.charge(entry.place_id, new_path, entry.nbytes)
                before, after = self._tenant_order(entry.path), self._tenant_order(new_path)
                if before is not after:
                    (before or {}).pop(id(entry), None)
                    if after is not None:
                        _file_at_stamp(after, entry)
            self._unlink(entry)
            entry.name = new_name
            entry.path = new_path
            self._link(entry)

    def clear(self) -> None:
        """Flush the whole cache."""
        for name in list(self._index):
            self._forget(name)

    # -- accounting ---------------------------------------------------------- #

    def total_bytes(self) -> int:
        """Logical bytes of every entry, resident or spilled."""
        return sum(map(self.bytes_at_place, self._totals))

    def resident_bytes(self) -> int:
        """Bytes actually held in memory (what the budget charges)."""
        return sum(totals["resident_bytes"] for totals in self._totals.values())

    def bytes_at_place(self, place_id: int) -> int:
        totals = self._totals.get(place_id, {})
        return totals.get("resident_bytes", 0) + totals.get("spilled_bytes", 0)

    def entries(self) -> Iterator[CacheEntry]:
        return iter(list(self._index.values()))

    def stats(self) -> Dict[str, Any]:
        """Per-place occupancy/budget plus lifetime governance counters
        (the ``cache`` section of ``repro stats``)."""
        governor = self.governor
        budget = governor.budget
        per_place = {
            place_id: dict(
                totals,
                occupancy_bytes=budget.occupancy(place_id),
                high_water_bytes=budget.high_water(place_id),
            )
            for place_id, totals in self._totals.items()
            if totals["entries"]
        }
        lifetime = governor.lifetime.as_dict()
        return {
            "capacity_bytes": budget.capacity_bytes,
            "high_watermark": budget.high_watermark,
            "low_watermark": budget.low_watermark,
            "spill_enabled": governor.spill_active,
            "places": per_place,
            "tenants": governor.tenant_snapshot(),
            "lifetime": lifetime,
        }

    def __len__(self) -> int:
        return len(self._index)
