"""Runtime sanitizers for the engine's unwritten concurrency contracts.

Two observers, both **off by default** and both strictly read-only with
respect to the simulation (they observe, never perturb — no metric, no
byte count, no ordering changes):

* :class:`MutationSanitizer` — enforces the ``ImmutableOutput`` aliasing
  contract (paper Section 4.1).  Every object handed to the de-duplicating
  serializer or the key/value cache is fingerprinted with a digest of its
  x10-serialized (pickled) form; when the same object comes back through a
  later send or read, the digest is recomputed and compared.  A mismatch
  means somebody mutated a value the engine was allowed to alias — the
  raised :class:`ImmutableViolation` carries *both* stack traces: where the
  object was first fingerprinted and where the mutation was detected.
* :class:`LockOrderSanitizer` — watches ``kvstore.locks.LockTable``
  acquisitions.  It records, per thread, the stack of currently-held path
  locks and builds a global held→acquired edge graph; an acquisition that
  would close a cycle raises :class:`LockOrderViolation` *before* blocking,
  with the stack that established the conflicting edge.  The paper's LCA
  ordering rule makes the store deadlock-free; this sanitizer proves every
  new caller keeps it that way.

Enablement is process-wide: the ``M3R_SANITIZE_MUTATION`` /
``M3R_SANITIZE_LOCK_ORDER`` environment variables switch the sanitizers on
at import (that is what the CI matrix row sets), and
:func:`sanitizer_overrides` forces them on or off for the duration of a
``with`` block (what tests use to scope one).

This module deliberately imports nothing from the rest of ``repro`` so the
lowest layers (``x10.serializer``, ``kvstore.locks``) can use it without
import cycles.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

__all__ = [
    "ImmutableViolation",
    "LockOrderViolation",
    "MutationSanitizer",
    "LockOrderSanitizer",
    "MUTATION_SANITIZER",
    "LOCK_ORDER_SANITIZER",
    "sanitizer_overrides",
]


class ImmutableViolation(RuntimeError):
    """An object covered by the ImmutableOutput aliasing contract mutated."""


class LockOrderViolation(RuntimeError):
    """A lock acquisition would close a cycle in the global lock order."""


def _stack(skip: int = 2) -> str:
    """The current stack, formatted, minus the sanitizer's own frames."""
    frames = traceback.format_stack()
    return "".join(frames[:-skip]) if skip else "".join(frames)


class _Fingerprint:
    """One tracked object: a strong reference plus its digest and stack.

    The reference is strong on purpose: it keeps ``id(obj)`` valid for the
    entry's lifetime, so a recycled id can never alias a dead object's
    digest.  The table is FIFO-capped so the tracker's memory stays
    bounded on long runs.
    """

    __slots__ = ("obj", "digest", "site", "registered_at")

    def __init__(self, obj: Any, digest: str, site: str, registered_at: str):
        self.obj = obj
        self.digest = digest
        self.site = site
        self.registered_at = registered_at


class MutationSanitizer:
    """Digest-based mutation detector for aliased (ImmutableOutput) values.

    ``observe(obj, site)`` fingerprints ``obj`` on first sight and
    re-verifies the digest on every later sighting; a mismatch raises
    :class:`ImmutableViolation` with the registration and detection stacks.
    Objects whose pickled form cannot be computed are simply not tracked —
    the sanitizer must never turn an un-fingerprint-able value into a
    failure.
    """

    #: Inline scalars never alias meaningfully and are immutable anyway.
    _INLINE = (bool, int, float, bytes, str, frozenset, type(None))

    def __init__(self, enabled: bool = False, max_entries: int = 8192):
        self.enabled = enabled
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, _Fingerprint]" = OrderedDict()
        self._lock = threading.Lock()
        self.registered = 0
        self.verified = 0
        self.violations = 0
        #: Optional ``obj -> bytes | None`` override.  The Writable layer
        #: installs one that serializes via the Hadoop wire format, because
        #: pickle also captures *lazy internal state* (e.g. scipy's
        #: ``_has_canonical_format`` flag appears in ``__dict__`` after a
        #: read-only ``.sum()``) that must not read as a mutation.
        self.digest_hook: Optional[Callable[[Any], Optional[bytes]]] = None

    # -- core protocol ---------------------------------------------------- #

    def _digest(self, obj: Any) -> Optional[str]:
        payload: Optional[bytes] = None
        if self.digest_hook is not None:
            try:
                payload = self.digest_hook(obj)
            except Exception:  # fall back to pickle below
                payload = None
        if payload is None:
            try:
                payload = pickle.dumps(obj, protocol=4)
            except Exception:  # untrackable, deliberately skipped
                return None
        return hashlib.sha1(payload).hexdigest()

    def observe(self, obj: Any, site: str) -> None:
        """Fingerprint ``obj`` on first sight; verify it on every later one."""
        if not self.enabled or isinstance(obj, self._INLINE):
            return
        digest = self._digest(obj)
        if digest is None:
            return
        key = id(obj)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.obj is obj:
                self.verified += 1
                if entry.digest == digest:
                    return
                self.violations += 1
                registered_at = entry.registered_at
                first_site = entry.site
                del self._entries[key]
            else:
                self.registered += 1
                self._entries[key] = _Fingerprint(obj, digest, site, _stack())
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                return
        raise ImmutableViolation(
            f"ImmutableOutput contract violated: {type(obj).__name__!s} "
            f"{obj!r} changed between {first_site} and {site}\n"
            f"--- object first fingerprinted (registered at {first_site}):\n"
            f"{registered_at}"
            f"--- mutation detected at {site}:\n{_stack()}"
        )

    def observe_all(self, values: Iterable[Any], site: str) -> None:
        for value in values:
            self.observe(value, site)

    def observe_pairs(self, pairs: Iterable[Tuple[Any, Any]], site: str) -> None:
        for key, value in pairs:
            self.observe(key, site)
            self.observe(value, site)

    def forget(self, obj: Any) -> None:
        with self._lock:
            entry = self._entries.get(id(obj))
            if entry is not None and entry.obj is obj:
                del self._entries[id(obj)]

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self.registered = 0
            self.verified = 0
            self.violations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class LockOrderSanitizer:
    """Cycle detector over the store's per-path lock acquisition order.

    For every thread the sanitizer keeps the stack of held paths; each
    successful acquisition records ``held → acquired`` edges in a global
    graph (with the stack that first witnessed the edge).  An acquisition
    whose new edge would close a cycle raises :class:`LockOrderViolation`
    *before* the caller blocks on the mutex, so a would-be deadlock becomes
    a loud, attributable failure instead of a hang.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: (held_path, acquired_path) -> formatted stack of the first witness.
        self._edges: Dict[Tuple[str, str], str] = {}
        self._adjacent: Dict[str, Set[str]] = {}
        self.checked = 0
        self.violations = 0

    def _held(self) -> List[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def _reachable(self, start: str, goal: str) -> bool:
        """Is ``goal`` reachable from ``start`` in the edge graph?  Caller
        holds the lock."""
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in self._adjacent.get(node, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def before_acquire(self, path: str) -> None:
        """Check that acquiring ``path`` cannot close an ordering cycle."""
        if not self.enabled:
            return
        held = self._held()
        if not held:
            return
        self.checked += 1
        with self._lock:
            for held_path in held:
                if held_path == path:
                    continue
                if (held_path, path) in self._edges:
                    continue  # already-witnessed edge: known acyclic
                # Adding held_path -> path closes a cycle iff held_path is
                # already reachable *from* path.
                if (path, held_path) in self._edges or self._reachable(
                    path, held_path
                ):
                    self.violations += 1
                    witness = self._edges.get(
                        (path, held_path),
                        "(established through a chain of intermediate locks)\n",
                    )
                    raise LockOrderViolation(
                        f"lock order inversion: acquiring {path!r} while "
                        f"holding {held_path!r} inverts the established "
                        f"order {path!r} -> {held_path!r}\n"
                        f"--- established order first witnessed at:\n{witness}"
                        f"--- inverted acquisition at:\n{_stack()}"
                    )

    def after_acquire(self, path: str) -> None:
        """Record ``path`` as held and register the new ordering edges."""
        if not self.enabled:
            return
        held = self._held()
        if held:
            stack = None
            with self._lock:
                for held_path in held:
                    if held_path == path:
                        continue
                    edge = (held_path, path)
                    if edge not in self._edges:
                        if stack is None:
                            stack = _stack()
                        self._edges[edge] = stack
                        self._adjacent.setdefault(held_path, set()).add(path)
        held.append(path)

    def on_release(self, path: str) -> None:
        if not self.enabled:
            return
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == path:
                del held[i]
                return

    def reset(self) -> None:
        with self._lock:
            self._edges.clear()
            self._adjacent.clear()
            self.checked = 0
            self.violations = 0
        self._tls = threading.local()

    def edge_count(self) -> int:
        with self._lock:
            return len(self._edges)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


#: Process-wide singletons; the env vars set the default, and
#: :func:`sanitizer_overrides` scopes a change to one block.
MUTATION_SANITIZER = MutationSanitizer(enabled=_env_flag("M3R_SANITIZE_MUTATION"))
LOCK_ORDER_SANITIZER = LockOrderSanitizer(
    enabled=_env_flag("M3R_SANITIZE_LOCK_ORDER")
)


@contextmanager
def sanitizer_overrides(
    mutation: Optional[bool] = None, lock_order: Optional[bool] = None
) -> Iterator[None]:
    """Temporarily force the sanitizers on or off (``None`` = leave as is).

    The flags are process-global and restored on exit, so every job that
    runs inside the block is observed; an engine runs one job at a time,
    so the block's jobs are exactly those the caller started in it.
    """
    prev_mutation = MUTATION_SANITIZER.enabled
    prev_lock_order = LOCK_ORDER_SANITIZER.enabled
    if mutation is not None:
        MUTATION_SANITIZER.enabled = mutation
    if lock_order is not None:
        LOCK_ORDER_SANITIZER.enabled = lock_order
    try:
        yield
    finally:
        MUTATION_SANITIZER.enabled = prev_mutation
        LOCK_ORDER_SANITIZER.enabled = prev_lock_order
