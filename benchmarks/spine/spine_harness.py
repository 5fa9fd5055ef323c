"""Run protocol of the measurement spine: repetitions, checks and metrics.

Closed loop, one client: a repetition is a fresh engine over a fresh
``SimulatedHDFS``, the inputs written (untimed) and then the workload's
whole job sequence timed with ``perf_counter``.  Every repetition's
committed output is compared against the single-process reference and the
two engines' outputs against each other; a job that fails, raises, or
belongs to a sequence with a wrong output counts as failed.

Host time is what this reproduction costs to run; simulated time is what
the modelled cluster would take.  Every metric says which it is through
its unit (``s`` host, ``sim_s`` simulated).  End-to-end host timings are
put on a speed-normalised clock (:class:`HostSpeed`).
"""

from __future__ import annotations

import collections
import contextlib
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from spine_tracing import LayerProfile, SpanSink
from spine_workloads import NUM_PLACES, Tweak, Workload, build_engine, knob, set_knobs

ENGINES = ("m3r", "hadoop")

#: Knob constants switched off for the serial repetitions (traced run and
#: the threaded-over-serial ratio).
SERIAL_KNOBS = ("REAL_THREADS_KEY", "SHUFFLE_REAL_THREADS_KEY")

#: Stages reported by name; the rest of a repetition (setup, plan_splits,
#: commit, cache-admit, teardown, time between stages) is ``other``.  The
#: Hadoop engine has no shuffle stage: its fetch is part of reduce.
STAGES = {"m3r": ("map", "shuffle", "reduce"), "hadoop": ("map", "reduce")}

#: Timed repetitions per engine are at least this many, however short
#: ``--seconds`` is; with fewer the median is one sample.
MIN_REPS = 3

TASK_COUNTERS = "org.apache.hadoop.mapreduce.TaskCounter"
MB = 1024.0 * 1024.0


def calibration_kernel() -> float:
    """Host seconds of a fixed pure-Python kernel (``host.calib_s``).

    Arithmetic, object / dict / sort churn and string tokenising in roughly
    the engines' mix, stdlib only, so no PR to ``src/`` can change it.  It is
    run between repetitions; the mean of a run's samples says how fast the
    host was *during that run* (see :class:`HostSpeed`).
    """
    started = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i % 7
    counts: Dict[str, int] = {}
    items = []
    for i in range(50_000):
        key = f"k{i % 997}"
        items.append((key, i))
        counts[key] = counts.get(key, 0) + 1
    items.sort()
    text = " ".join(key for key, _ in items[:10_000])
    for _ in range(10):
        collections.Counter(text.split())
    return time.perf_counter() - started


class HostSpeed:
    """Samples of the calibration kernel over one run.

    This sandbox is a shared 2-vCPU VM whose speed wanders by 20-40 % over
    seconds to minutes: a recording of 550 identical ``invindex`` repetitions
    moved the ten-run median of the raw wall by up to 36 % between
    consecutive sets.  Dividing a run's timings by the mean kernel time of
    the *same* run took that to under 10 % (README, "Noise study").  So host
    timings are reported on a normalised clock: seconds at the speed at which
    the kernel takes ``NOMINAL_S``.
    """

    #: The kernel's undisturbed time on the host that recorded
    #: ``results/seed12.json``; only a scale constant.
    NOMINAL_S = 0.080

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(calibration_kernel())

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a measured host second by this to normalise it."""
        return self.NOMINAL_S / self.mean_s

    @property
    def noisy(self) -> bool:
        """Did the host's speed vary by more than 10 % (IQR / median)?"""
        q1, median, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / median > 0.10


class JobMeter:
    """Lifecycle sink counting jobs and integrating cache memory·time.

    ``mem_mb_s`` is Σ over jobs of (cache resident MB after the job) × (the
    job's simulated seconds) — the exemplars' "aggregate resource
    allocation" in MB·s of the modelled cluster.
    """

    def __init__(self, engine: Any):
        self._cache = getattr(engine, "cache", None)
        self.attempted = 0
        self.failed = 0
        self.mem_mb_s = 0.0

    def __call__(self, event: Any) -> None:
        if event.kind == "job_start":
            self.attempted += 1
        elif event.kind == "job_end":
            if not event.succeeded:
                self.failed += 1
            if self._cache is not None:
                self.mem_mb_s += resident_mb(self._cache.stats()) * event.seconds


def resident_mb(cache_stats: Dict[str, Any]) -> float:
    return sum(p["resident_bytes"] for p in cache_stats["places"].values()) / MB


@dataclass
class Repetition:
    """Everything one repetition measured."""

    build_s: float
    load_s: float
    wall_s: float
    attempted: int
    failed: int
    correct: bool
    error: Optional[str] = None
    digest: Optional[str] = None
    #: Simulated seconds and bytes (end-to-end) and per-layer work counts:
    #: none of them may move under a host-time optimisation.
    exact: Dict[str, float] = field(default_factory=dict)
    work: Dict[str, float] = field(default_factory=dict)


def _exact_and_work(
    kind: str, results: Sequence[Any], meter: JobMeter, engine: Any
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(end-to-end exact metrics, per-layer work counts)`` of one sequence."""
    counters: Dict[str, int] = {}
    metrics: Dict[str, int] = {}
    for result in results:
        for name, value in result.counters.as_dict().get(TASK_COUNTERS, {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in result.metrics.as_dict()["counters"].items():
            metrics[name] = metrics.get(name, 0) + value
    exact: Dict[str, float] = {
        f"{kind}_sim_s": sum(result.simulated_seconds for result in results),
    }
    if kind == "hadoop":
        return exact, {
            "hadoop.shuffle_bytes": counters.get("REDUCE_SHUFFLE_BYTES", 0),
            "hadoop.map_spill_bytes": metrics.get("map_spill_bytes", 0),
        }
    stats = engine.cache.stats()
    governed = stats["lifetime"]["counters"]
    place_bytes = [metrics.get(f"shuffle_place_bytes[{p}]", 0) for p in range(NUM_PLACES)]
    mean_place = sum(place_bytes) / NUM_PLACES
    exact["m3r_shuffle_bytes"] = counters.get("REDUCE_SHUFFLE_BYTES", 0)
    exact["m3r_mem_mb_s"] = meter.mem_mb_s
    work = {
        "map_output_records": counters.get("MAP_OUTPUT_RECORDS", 0),
        "combine_input_records": counters.get("COMBINE_INPUT_RECORDS", 0),
        "combine_output_records": counters.get("COMBINE_OUTPUT_RECORDS", 0),
        "reduce_input_records": counters.get("REDUCE_INPUT_RECORDS", 0),
        "engine_common.batch_batches": metrics.get("batch_batches", 0),
        "engine_common.imc_folded_records": metrics.get("imc_folded_records", 0),
        "engine_common.cloned_records": metrics.get("cloned_records", 0),
        "x10.serializer.size_cache_hits": metrics.get("size_cache_hits", 0),
        "x10.serializer.size_cache_misses": metrics.get("size_cache_misses", 0),
        "x10.serializer.dedup_saved_bytes": metrics.get("dedup_saved_bytes", 0),
        "shuffle.remote_bytes": metrics.get("shuffle_remote_bytes", 0),
        "shuffle.local_bytes": metrics.get("shuffle_local_bytes", 0),
        "shuffle.remote_records": metrics.get("shuffle_remote_records", 0),
        "shuffle.skew_ratio": max(place_bytes) / mean_place if mean_place else 0.0,
        "core.cache_hits": metrics.get("cache_hits", 0),
        "core.cache_misses": metrics.get("cache_misses", 0),
        "core.resident_mb_end": resident_mb(stats),
        "memory.evictions": governed.get("cache_evictions", 0),
        "memory.spills": governed.get("cache_spills", 0),
        "memory.spill_bytes": governed.get("cache_spill_bytes", 0),
        "memory.rehydrations": governed.get("cache_rehydrations", 0),
        "fs.hdfs_output_bytes": metrics.get("hdfs_output_bytes", 0),
    }
    return exact, {f"m3r.{name}": value for name, value in work.items()}


def run_repetition(
    workload: Workload,
    inputs: Dict[str, Any],
    expected: Any,
    kind: str,
    tweak: Tweak,
    observers: Sequence[Any] = (),
) -> Repetition:
    """One repetition on a fresh engine.

    ``observers`` are context managers entered around the timed region; one
    that is callable is also subscribed to the engine's lifecycle bus.
    ``expected=None`` skips the output check (set-up probes only time).
    """
    started = time.perf_counter()
    engine = build_engine(kind, **workload.engine_kwargs(kind, inputs))
    build_s = time.perf_counter() - started
    try:
        meter = JobMeter(engine)
        engine.trace_sinks.append(meter)
        engine.trace_sinks.extend(o for o in observers if callable(o))
        started = time.perf_counter()
        workload.load(engine.filesystem, inputs)
        load_s = time.perf_counter() - started
        results: List[Any] = []
        error: Optional[str] = None
        with contextlib.ExitStack() as stack:
            for observer in observers:
                stack.enter_context(observer)
            started = time.perf_counter()
            try:
                results = workload.run(engine, inputs, tweak)
            except Exception as exc:  # noqa: BLE001 - benchmark boundary: a failed sequence is a counted result
                error = f"{type(exc).__name__}: {exc}"
            wall_s = time.perf_counter() - started
        rep = Repetition(
            build_s=build_s, load_s=load_s, wall_s=wall_s,
            attempted=meter.attempted, failed=meter.failed,
            correct=error is None, error=error,
        )
        rep.exact, rep.work = _exact_and_work(kind, results, meter, engine)
        if error is None and expected is not None:
            got = workload.output(engine.filesystem, inputs)
            rep.correct = workload.matches_reference(got, expected)
            rep.digest = workload.output_digest(got)
        if not rep.correct:
            # Every job of a sequence with a wrong or missing output failed.
            rep.failed = rep.attempted
        return rep
    finally:
        shutdown = getattr(engine, "shutdown", None)
        if shutdown is not None:
            shutdown()


def serial_tweak(workload: Workload) -> Tweak:
    def tweak(conf: Any) -> None:
        workload.tweak(conf)
        set_knobs(conf, SERIAL_KNOBS, False)

    return tweak


def missing_knobs(workload: Workload) -> List[str]:
    """Knob constants this run wanted but ``repro.api.conf`` no longer has."""
    return [name for name in workload.knobs_on + SERIAL_KNOBS if knob(name) is None]


def timed_reference(workload: Workload, inputs: Dict[str, Any]) -> Tuple[Any, float]:
    """The reference output and the host seconds it took (``baseline.python_s``)."""
    started = time.perf_counter()
    expected = workload.reference(inputs)
    return expected, time.perf_counter() - started


def warm_up(workload: Workload, inputs: Dict[str, Any], expected: Any) -> List[Repetition]:
    """One untimed-for-metrics repetition per engine: lazy set-up finishes
    here, and its cost is part of ``setup_s``."""
    return [
        run_repetition(workload, inputs, expected, kind, workload.tweak)
        for kind in ENGINES
    ]


def timed_loop(
    workload: Workload,
    inputs: Dict[str, Any],
    expected: Any,
    seconds: float,
    speed: HostSpeed,
) -> Dict[str, List[Repetition]]:
    """Alternate the engines for ``seconds`` (at least ``MIN_REPS`` each),
    sampling the host's speed after every repetition."""
    reps: Dict[str, List[Repetition]] = {kind: [] for kind in ENGINES}
    deadline = time.perf_counter() + seconds
    speed.sample()
    while True:
        for kind in ENGINES:
            reps[kind].append(run_repetition(workload, inputs, expected, kind, workload.tweak))
            gc.collect()  # untimed: keep one repetition's garbage out of the next
            speed.sample()
        if len(reps[ENGINES[0]]) >= MIN_REPS and time.perf_counter() >= deadline:
            return reps


def summarize(values: Sequence[float], factor: float = 1.0) -> Dict[str, Any]:
    """Median with N, min and max, each times ``factor``.  With N < 20 no
    tail percentile has ten samples beyond it, so none is reported."""
    return {
        "value": statistics.median(values) * factor,
        "n": len(values),
        "min": min(values) * factor,
        "max": max(values) * factor,
    }


def verdict(reps: Sequence[Repetition]) -> Dict[str, Any]:
    """correct / attempted / failed over a set of repetitions, including the
    hadoop ≡ m3r check: one digest must cover every finished repetition."""
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    digests = {rep.digest for rep in reps if rep.digest is not None}
    engines_agree = len(digests) <= 1
    if not engines_agree:
        failed = attempted
    return {
        "correct": engines_agree and all(rep.correct for rep in reps),
        "attempted": attempted,
        "failed": failed,
        "engines_agree": engines_agree,
        "output_digest": digests.pop() if len(digests) == 1 else None,
        "errors": sorted({rep.error for rep in reps if rep.error}),
    }


def end_to_end(
    reps: Dict[str, List[Repetition]], speed: HostSpeed
) -> Dict[str, Dict[str, Any]]:
    """The untraced metrics a user of the system would see."""
    out: Dict[str, Dict[str, Any]] = {}
    for kind in ENGINES:
        walls = [rep.wall_s for rep in reps[kind]]
        out[f"{kind}_wall_s"] = summarize(walls, speed.factor)
        out[f"{kind}_wall_s"]["raw_median_s"] = statistics.median(walls)
        for name in reps[kind][0].exact:
            values = [rep.exact[name] for rep in reps[kind]]
            out[name] = summarize(values)
            out[name]["repeats_exactly"] = len(set(values)) == 1
    return out


def traced_layers(
    workload: Workload,
    inputs: Dict[str, Any],
    expected: Any,
    baseline_s: float,
    speed: HostSpeed,
) -> Dict[str, Any]:
    """The traced run, per engine three repetitions:

    * default knobs with the span sink only — the stage spans are real
      host seconds that decompose ``*_wall_s``;
    * serial knobs, unobserved — the denominator of the tracing overhead
      and of the threaded-over-serial ratio;
    * serial knobs under the span sink and cProfile — the layer table and
      the exact call counts.

    Seconds here are raw host seconds; ``host.calib_s`` (the mean kernel
    time of this run) is reported beside them.  Returns the per-layer
    metrics, everything the trace files hold, and the repetitions (for the
    failure count)."""
    metrics: Dict[str, float] = {"baseline.python_s": baseline_s}
    speed.sample()
    traces: Dict[str, Any] = {}
    reps: List[Repetition] = []
    traced_wall = serial_wall = profiled_s = 0.0
    for kind in ENGINES:
        spans = SpanSink(f"{workload.name}-{kind}-default")
        default = run_repetition(workload, inputs, expected, kind, workload.tweak, (spans,))
        speed.sample()
        serial = run_repetition(workload, inputs, expected, kind, serial_tweak(workload))
        speed.sample()
        profiled_spans = SpanSink(f"{workload.name}-{kind}-profiled")
        profile = LayerProfile()
        traced = run_repetition(
            workload, inputs, expected, kind, serial_tweak(workload),
            (profiled_spans, profile),
        )
        speed.sample()
        reps += [default, serial, traced]
        layers, calls = profile.fold()
        stages = spans.stage_seconds(STAGES[kind])
        for stage, seconds in stages.items():
            if stage != "total":
                metrics[f"{kind}.lifecycle.{stage}_s"] = seconds
        metrics[f"{kind}.lifecycle.jobs"] = spans.jobs()
        metrics[f"{kind}.lifecycle.events"] = spans.events
        for layer, seconds in layers.items():
            metrics[f"{kind}.{layer}.self_s"] = seconds
        for name, count in calls.items():
            metrics[f"{kind}.{name}"] = count
        metrics.update(traced.work)
        metrics[f"{kind}.wall_over_baseline_x"] = default.wall_s / baseline_s
        metrics[f"{kind}.threaded_over_serial_x"] = default.wall_s / serial.wall_s
        traced_wall += traced.wall_s
        serial_wall += serial.wall_s
        profiled_s += sum(layers.values())
        traces[kind] = {
            "spans": spans.spans,
            "stage_seconds": stages,
            "profiled_spans": profiled_spans.spans,
            "layers_self_s": layers,
            "call_counts": calls,
            "default_wall_s": default.wall_s,
            "serial_wall_s": serial.wall_s,
            "traced_wall_s": traced.wall_s,
            # The guard: tracing and the serial knobs change no simulated
            # second, byte or count.
            "exact_equals_untraced": (traced.exact, traced.work) == (default.exact, default.work),
            "exact_untraced": {**default.exact, **default.work},
            "exact_traced": {**traced.exact, **traced.work},
        }
    metrics["host.calib_s"] = speed.mean_s
    metrics["fs.load_inputs_s"] = statistics.median(rep.load_s for rep in reps)
    metrics["trace.overhead_x"] = traced_wall / serial_wall
    metrics["trace.coverage"] = profiled_s / traced_wall
    return {"metrics": metrics, "traces": traces, "reps": reps}
