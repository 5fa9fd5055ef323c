"""The runtime mutation sanitizer for the ``ImmutableOutput`` contract.

:class:`MutationSanitizer` is **off by default** and strictly read-only
with respect to the simulation (it observes, never perturbs — no metric,
no byte count, no ordering changes).  It enforces the ``ImmutableOutput``
aliasing contract (paper Section 4.1): every object handed to the
de-duplicating serializer or the key/value cache is fingerprinted with a
digest of its x10-serialized (pickled) form; when the same object comes
back through a later send or read, the digest is recomputed and compared.
A mismatch means somebody mutated a value the engine was allowed to alias
— the raised :class:`ImmutableViolation` carries *both* stack traces:
where the object was first fingerprinted and where the mutation was
detected.

Enablement is process-wide: the ``M3R_SANITIZE_MUTATION`` environment
variable switches it on at import (that is what the CI matrix row sets),
and :func:`sanitizer_overrides` forces it on or off for the duration of a
``with`` block (what tests use to scope it).

This module deliberately imports nothing from the rest of ``repro`` so the
lowest layers (``x10.serializer``, ``api.writables``) can use it without
import cycles.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

__all__ = [
    "ImmutableViolation",
    "MutationSanitizer",
    "MUTATION_SANITIZER",
    "sanitizer_overrides",
]


class ImmutableViolation(RuntimeError):
    """An object covered by the ImmutableOutput aliasing contract mutated."""


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
        entry = self._entries.get(key)
        if entry is None or entry.obj is not obj:
            self.registered += 1
            self._entries[key] = _Fingerprint(obj, digest, site, _stack())
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return
        self.verified += 1
        if entry.digest == digest:
            return
        self.violations += 1
        registered_at = entry.registered_at
        first_site = entry.site
        del self._entries[key]
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
        entry = self._entries.get(id(obj))
        if entry is not None and entry.obj is obj:
            del self._entries[id(obj)]

    def reset(self) -> None:
        self._entries.clear()
        self.registered = 0
        self.verified = 0
        self.violations = 0

    def __len__(self) -> int:
        return len(self._entries)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


#: Process-wide singleton; the env var sets the default, and
#: :func:`sanitizer_overrides` scopes a change to one block.
MUTATION_SANITIZER = MutationSanitizer(enabled=_env_flag("M3R_SANITIZE_MUTATION"))


@contextmanager
def sanitizer_overrides(mutation: Optional[bool] = None) -> Iterator[None]:
    """Temporarily force the sanitizer on or off (``None`` = leave as is).

    The flag is process-global and restored on exit, so every job that
    runs inside the block is observed; an engine runs one job at a time,
    so the block's jobs are exactly those the caller started in it.
    """
    previous = MUTATION_SANITIZER.enabled
    if mutation is not None:
        MUTATION_SANITIZER.enabled = mutation
    try:
        yield
    finally:
        MUTATION_SANITIZER.enabled = previous
