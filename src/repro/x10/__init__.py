"""A mini X10-style runtime.

M3R is implemented in X10; the engine relies on a handful of X10 semantics:

* **places** — operating-system processes with their own heap and worker
  threads; M3R runs one place per host and keeps them alive across jobs;
* **async / finish / at (p) S** — structured fork/join concurrency, with
  captured values serialized across the place boundary;
* **teams / barriers** — fast multi-place synchronization (no reducer runs
  until globally all shuffle messages have been sent);
* **de-duplicating serialization** — the serializer must handle heap cycles,
  so it recognizes already-serialized objects; M3R gets broadcast
  de-duplication "for free" from this.

This package reproduces what of that surface outlives a job.  Places live
inside one Python process as an id, a node and a lane width; the
serializer measures, de-duplicates and clones object graphs.  Fork/join
and barriers are not executed but *charged*: tasks and shuffle messages
run inline in plan order, and a place's ``workers`` threads exist as
lane width in the simulated clock (DESIGN.md §7).
"""

from repro.x10.places import Place
from repro.x10.runtime import X10Runtime
from repro.x10.serializer import (
    DedupSerializer,
    SerializedMessage,
    deep_copy_value,
    estimate_size,
)

__all__ = [
    "Place",
    "X10Runtime",
    "DedupSerializer",
    "SerializedMessage",
    "deep_copy_value",
    "estimate_size",
]
