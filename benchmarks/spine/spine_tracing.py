"""The traced run: wall-stamped lifecycle spans and a per-layer self-time table.

Two observers, both owned by the benchmark (nothing inside ``src/`` is
instrumented):

* :class:`SpanSink` sits on ``engine.trace_sinks`` and turns
  ``job_start``/``stage_start``/``stage_end``/``job_end`` into spans
  ``{trace, id, parent, name, start, end}`` — repetition → job → stage, all
  spans of one repetition sharing its ``trace`` id.  The bus emits those
  events on the driver thread at the real stage boundaries, so stamping
  them with ``perf_counter`` gives host-time stage spans.
* :class:`LayerProfile` runs ``cProfile`` around the job sequence and folds
  ``tottime`` by source file into layers (a layer is a module under
  ``src/repro/``).  The harness sets the serial knobs for this repetition
  so every call runs on the driver thread and call counts are exact; the
  ``threading.setprofile`` bootstrap covers worker threads if a later PR
  removes those knobs.

cProfile charges every Python call but not time inside C, which inflates
call-heavy layers: ``trace.overhead_x`` and ``trace.coverage`` are reported
beside the table so traced seconds are never mistaken for real ones.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

FuncKey = Tuple[str, int, str]

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src", "repro") + os.sep

#: First match wins; paths are relative to ``src/repro/``.
_REPRO_LAYERS = (
    ("apps/", "user"),
    ("api/counters.py", "api.counters"),
    ("api/job.py", "api.job"),
    ("api/writables.py", "api.writables"),
    ("api/", "api.io"),
    ("engine_common.py", "engine_common"),
    ("x10/serializer.py", "x10.serializer"),
    ("x10/", "x10.runtime"),
    ("sim/", "sim"),
    ("lifecycle/", "lifecycle"),
    ("fs/", "fs"),
    ("shuffle/", "shuffle"),
    ("core/", "core"),
    ("memory/", "memory"),
    ("kvstore/", "kvstore"),
    ("hadoop_engine/", "hadoop_engine"),
)

#: ``(file under src/repro, function names)`` whose exact call counts are
#: reported, keyed by the metric suffix.
CALL_COUNTS = {
    "api.counters.calls": ("api/counters.py", ("increment",)),
    "x10.serializer.estimate_calls": ("x10/serializer.py", ("estimate_size",)),
    "api.job.compare_calls": ("api/job.py", ("_natural_compare",)),
    "engine_common.collect_calls": ("engine_common.py", ("collect",)),
}


class SpanSink:
    """Wall-stamps lifecycle events of one repetition into a span tree."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []
        self.events = 0
        self._origin = 0.0
        self._root: Optional[Dict[str, Any]] = None
        self._job: Optional[Dict[str, Any]] = None
        self._stage: Optional[Dict[str, Any]] = None

    def _open(self, name: str, parent: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        span = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        self.spans.append(span)
        return span

    def _close(self, span: Optional[Dict[str, Any]]) -> None:
        if span is not None:
            span["end"] = time.perf_counter() - self._origin

    def __enter__(self) -> "SpanSink":
        self._origin = time.perf_counter()
        self._root = self._open("repetition", None)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._close(self._root)

    def __call__(self, event: Any) -> None:
        self.events += 1
        kind = event.kind
        if kind == "job_start":
            self._job = self._open(f"job:{event.job_name}", self._root)
        elif kind == "stage_start":
            self._stage = self._open(f"stage:{event.stage}", self._job)
        elif kind == "stage_end":
            self._close(self._stage)
            self._stage = None
        elif kind == "job_end":
            # A stage that raised never emits stage_end; job_end always fires.
            self._close(self._stage)
            self._close(self._job)
            self._stage = self._job = None

    def stage_seconds(self, named: Tuple[str, ...]) -> Dict[str, float]:
        """Host seconds per ``named`` stage, ``other`` (every other stage and
        the time between stages) and the repetition ``total``."""
        total = self.spans[0]["end"] - self.spans[0]["start"]
        out = {stage: 0.0 for stage in named}
        for span in self.spans:
            stage = span["name"].partition("stage:")[2]
            if stage in out:
                out[stage] += span["end"] - span["start"]
        out["other"] = total - sum(out.values())
        out["total"] = total
        return out

    def jobs(self) -> int:
        return sum(1 for span in self.spans if span["name"].startswith("job:"))


def _direct_layer(filename: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` means "charge my callers"
    (C builtins, numpy/scipy, frozen importlib, exec'd strings)."""
    if filename.startswith(_REPRO):
        relative = filename[len(_REPRO):].replace(os.sep, "/")
        for prefix, layer in _REPRO_LAYERS:
            if relative.startswith(prefix):
                return layer
        return "py.other"  # analysis sanitizers, restore, runtime front door
    if filename.startswith(_HERE + os.sep):
        # The job classes are user code; the harness's own observers are not.
        return "user" if filename.endswith("spine_workloads.py") else "py.other"
    if filename.startswith(("~", "<")) or "site-packages" in filename:
        return None
    return "py.copy" if os.path.basename(filename) == "copy.py" else "py.other"


class LayerProfile:
    """cProfile around the timed region, folded into per-layer self time."""

    def __init__(self) -> None:
        self._main = cProfile.Profile()
        self._workers: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _bootstrap(self, frame: Any, event: str, arg: Any) -> None:
        # First profile event in a new thread: swap in a C profiler of its own.
        profile = cProfile.Profile()
        with self._lock:
            self._workers.append(profile)
        profile.enable()

    def __enter__(self) -> "LayerProfile":
        threading.setprofile(self._bootstrap)
        self._main.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._main.disable()
        threading.setprofile(None)

    def fold(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``({layer: self seconds}, {call-count metric: calls})``; call after
        the engine has shut its pool down."""
        merged = pstats.Stats(self._main)
        for profile in self._workers:
            merged.add(profile)
        stats = merged.stats  # type: ignore[attr-defined]
        memo: Dict[FuncKey, Dict[str, float]] = {}

        def shares(func: FuncKey, stack: Tuple[FuncKey, ...]) -> Dict[str, float]:
            layer = _direct_layer(func[0])
            if layer is not None:
                return {layer: 1.0}
            if func in memo:
                return memo[func]
            callers = stats[func][4] if func in stats else {}
            weight = sum(entry[2] for entry in callers.values())
            if weight <= 0.0 or func in stack:
                return {"py.other": 1.0}  # a root, or a foreign recursion
            out: Dict[str, float] = defaultdict(float)
            for caller, entry in callers.items():
                for name, share in shares(caller, stack + (func,)).items():
                    out[name] += share * entry[2] / weight
            memo[func] = dict(out)
            return memo[func]

        # Every known layer is present, at zero when nothing ran in it.
        layers = {layer: 0.0 for _prefix, layer in _REPRO_LAYERS}
        layers.update({"py.copy": 0.0, "py.other": 0.0})
        for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
            for name, share in shares(func, ()).items():
                layers[name] += share * tottime
        calls = {}
        for metric, (relative, names) in CALL_COUNTS.items():
            target = _REPRO + relative.replace("/", os.sep)
            calls[metric] = sum(
                entry[1]
                for (filename, _line, name), entry in stats.items()
                if filename == target and name in names
            )
        return layers, calls
