"""The distributed in-memory key/value store (paper Section 5.2).

Underneath M3R's input/output cache sits a distributed store with a
filesystem-like API (Figure 5 of the paper)::

    Writer createWriter(File path, BlockInfo info)
    Reader createReader(File path, BlockInfo info)
    void   delete(File path)
    void   rename(File src, File dest)
    PathInfo getInfo(File path)
    void   mkdirs(File path)

All operations are atomic (serializable).  This package reproduces the
store and its concurrency discipline:

* **metadata** is distributed by a static partitioning scheme — a path is
  hashed to pick the place holding its metadata;
* **data blocks** can live anywhere; their location is recorded in their
  metadata, and ``create_writer`` creates the block at the invoking place;
* **locking** follows two-phase locking, with the paper's
  least-common-ancestor ordering rule for deadlock freedom: a task that
  acquires a lock *l* while holding locks *L* must already hold the least
  common ancestor of *l* with every lock in *L*.

The engine calls the store from one thread, so no lock ever waits: each
operation is one :class:`~repro.kvstore.locks.Transaction` whose
acquisitions the :class:`LockTable` checks for order and mutual exclusion
on every call, and the test suite enumerates interleavings of such
transactions to show they serialize.
"""

from repro.kvstore.paths import path_components, least_common_ancestor
from repro.kvstore.locks import LockOrderViolation, LockTable
from repro.kvstore.store import (
    KeyValueStore,
    BlockInfo,
    BlockMeta,
    PathInfo,
    KVStoreError,
    PathExistsError,
    PathMissingError,
)

__all__ = [
    "KeyValueStore",
    "BlockInfo",
    "BlockMeta",
    "PathInfo",
    "KVStoreError",
    "PathExistsError",
    "PathMissingError",
    "LockOrderViolation",
    "LockTable",
    "path_components",
    "least_common_ancestor",
]
