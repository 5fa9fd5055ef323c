"""Batched-execution protocol markers (DESIGN.md §14).

The batched record path (``m3r.batch.*`` knobs) moves records from split to
collector in batches to amortize per-record Python dispatch.  Two opt-in
markers let user code participate beyond the generic list-batch loop:

* :class:`VectorizedMapper` — the mapper also implements
  ``map_batch(keys, values, output, reporter)`` and is driven once per
  batch instead of once per record.  With ``batch_arrays = True`` the
  engine hands numpy object arrays instead of lists (the matvec/SystemML
  workloads slice them straight into vectorized kernels).
* :class:`AssociativeReducer` — the combiner is a pure associative fold,
  which licenses automatic in-mapper combining (``m3r.imc.enabled``): the
  map task's combine, run once per partition run as on the per-record
  path, is reported as the ``imc_*`` metrics (DESIGN.md §14).

A marked reducer promises one pair per ``reduce`` call, an associative
fold of the values and a fresh output object per call.  Both modes run
it the same way, so a reducer that breaks the promise commits the same
output with in-mapper combining on or off; a recycled output object is
caught by the mutation sanitizer on the aliasing path.

``ASSOCIATIVE_ALLOWLIST`` extends the marker to the stock sum reducers
that predate it.  Matching is by *exact* qualified class name — a subclass
of an allowlisted reducer does not inherit the license (it may override
``reduce``); it must opt in via the marker or its own entry.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple


class VectorizedMapper:
    """Opt-in marker: this mapper also accepts whole record batches.

    ``map_batch`` must produce exactly the emissions that ``map`` would
    produce for the same records in the same order — the equivalence
    suites compare the two paths byte for byte.
    """

    #: When true, the engine packs each batch into numpy object arrays
    #: before calling ``map_batch`` (dense slicing for numeric kernels).
    batch_arrays = False

    def map_batch(
        self,
        keys: Sequence[Any],
        values: Sequence[Any],
        output: Any,
        reporter: Any,
    ) -> None:
        raise NotImplementedError


def is_vectorized(cls: Any) -> bool:
    """Does this mapper class opt into batch-at-a-time driving?"""
    return isinstance(cls, type) and issubclass(cls, VectorizedMapper)


class AssociativeReducer:
    """Opt-in marker: this reducer is a pure associative single-emission
    fold (module docstring), licensed for in-mapper combining.

    The marker is inherited; a subclass that overrides ``reduce`` with
    non-conforming behaviour must not keep it.
    """


#: Stock reducers known to satisfy the AssociativeReducer contract.
#: Exact qualified names only — subclasses must opt in explicitly.
ASSOCIATIVE_ALLOWLIST = frozenset({
    "repro.apps.wordcount.SumReducer",
    "repro.apps.grep.LongSumReducer",
    "repro.sysml.ops.DoubleSumReducer",
    "repro.sysml.ops.DoubleSumReducerImmutable",
})


def is_associative_reducer(cls: Any) -> bool:
    """Does this combiner carry the in-mapper-combining licence?"""
    if not isinstance(cls, type):
        return False
    if issubclass(cls, AssociativeReducer):
        return True
    return f"{cls.__module__}.{cls.__qualname__}" in ASSOCIATIVE_ALLOWLIST


def pack_batch(
    keys: List[Any], values: List[Any], as_arrays: bool
) -> Tuple[Sequence[Any], Sequence[Any]]:
    """Hand a batch to a VectorizedMapper in its preferred container."""
    if not as_arrays:
        return keys, values
    import numpy as np

    key_arr = np.empty(len(keys), dtype=object)
    key_arr[:] = keys
    value_arr = np.empty(len(values), dtype=object)
    value_arr[:] = values
    return key_arr, value_arr
