"""The store's lock table: two-phase locking as a checked protocol.

The paper's implementation swaps a special *lock entry* into the per-place
concurrent hash table, upgrading it to a heavier *monitor entry* when a
second task collides.  The observable protocol is: per-path mutual
exclusion, two-phase acquisition within a task, and the
least-common-ancestor ordering rule that makes deadlock impossible ("any
task that acquires a lock *l* while holding locks *L* must be holding the
least common ancestor of *l* with all the locks in *L*").

The engine runs every task inline on one thread (DESIGN §7), so nothing
here waits.  Each store operation opens one :class:`Transaction`, which
records the paths it acquires, in order, and releases them all at
:meth:`Transaction.close` (the shrinking phase).  Every acquire checks the
protocol, always:

* **order** — the path must sort after every path the transaction already
  holds, which is the order :func:`growing_phase` produces (the LCA is a
  prefix of every path under it, so it sorts first); a violation raises
  :class:`LockOrderViolation` naming both paths;
* **mutual exclusion** — a path another open transaction holds is refused
  with :class:`LockConflict`, never waited for;
* **two phases** — a closed transaction acquires nothing more.

A global order in which every transaction grows means no cycle of waiters
can form, so a scheduler that retries refused acquires never deadlocks
(``tests/test_kvstore.py`` enumerates such interleavings).

Paths handed to the table must already be normalized.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.kvstore.paths import ancestors, least_common_ancestor


class LockOrderViolation(RuntimeError):
    """An acquisition out of the growing phase's global order."""


class LockConflict(RuntimeError):
    """An acquisition of a path another open transaction holds."""


def growing_phase(paths: Sequence[str]) -> List[str]:
    """The order a multi-path transaction takes ``paths`` in: their least
    common ancestor first, then the paths sorted."""
    order = sorted(set(paths))
    if order:
        lca = least_common_ancestor(order)
        if lca != order[0]:
            order.insert(0, lca)
    return order


def creation_locks(path: str) -> List[str]:
    """What an operation that may add ``path`` to the namespace locks, in
    :func:`growing_phase` order: each ancestor below the (never deleted)
    root, a directory that may gain an entry or be created, then ``path``;
    so it serializes with a delete of any of those directories."""
    return ancestors(path) + [path]


class Transaction:
    """The locks of one store operation; a context manager that closes
    itself on exit."""

    __slots__ = ("_locked", "held")

    def __init__(self, locked: Set[str]) -> None:
        self._locked = locked
        #: The paths acquired, ascending; ``None`` once closed.
        self.held: Optional[List[str]] = []

    def acquire(self, path: str) -> None:
        held = self.held
        if held:
            if path <= held[-1]:
                raise LockOrderViolation(
                    f"lock order inversion: acquiring {path!r} while holding "
                    f"{held[-1]!r}; a transaction acquires in ascending order"
                )
        elif held is None:
            raise RuntimeError(f"acquire of {path!r} after the transaction closed")
        locked = self._locked
        if path in locked:
            raise LockConflict(f"{path!r} is held by another transaction")
        locked.add(path)
        held.append(path)

    def close(self) -> None:
        held = self.held
        if held is None:
            raise RuntimeError("release of a closed transaction's locks")
        self._locked.difference_update(held)
        self.held = None

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class LockTable:
    """Per-path locks, held by at most one open transaction each."""

    __slots__ = ("_locked",)

    def __init__(self) -> None:
        #: Every path an open transaction holds.
        self._locked: Set[str] = set()

    def begin(self) -> Transaction:
        """Open a transaction that holds nothing yet."""
        return Transaction(self._locked)

    def holding(self, path: str) -> Transaction:
        """Open a transaction holding ``path``."""
        txn = Transaction(self._locked)
        txn.acquire(path)
        return txn

    def acquire_all(self, paths: Sequence[str]) -> Transaction:
        """Open a transaction holding every path in ``paths``, taken in
        :func:`growing_phase` order."""
        return self._open(growing_phase(paths))

    def creating(self, path: str) -> Transaction:
        """Open a transaction holding :func:`creation_locks` of ``path``."""
        return self._open(creation_locks(path))

    def _open(self, order: Sequence[str]) -> Transaction:
        """A transaction holding ``order``, taken in turn; a refused
        acquire releases what the transaction took before it raises."""
        txn = Transaction(self._locked)
        try:
            for path in order:
                txn.acquire(path)
        except LockConflict:
            txn.close()
            raise
        return txn

    def live_entries(self) -> int:
        """Number of paths currently held (0 when quiescent)."""
        return len(self._locked)
