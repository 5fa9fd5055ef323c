"""Admission, serve and record: the reuse stages both engines yield.

The stage providers call these bodies from inside their lazy ``stages``
generators when ``m3r.restore.enabled`` is on:

* :func:`admit` — fingerprint the plan, consult the engine's
  :class:`~repro.restore.store.ResultStore`, validate the stored parts'
  content versions, and emit the miss/invalidate/bypass ``ReuseEvent``.
  Costs *zero* simulated seconds: a first run with restore on is
  second-identical to a run with restore off.
* :func:`serve_m3r` / :func:`serve_hadoop` — on a hit, replay the stored
  output into the job's (fresh) output directory through the normal
  write path, with each engine's own write/commit charges but **zero
  map/reduce tasks launched** and no scheduler hand-off — the hit is
  decided before the job would reach the scheduler, so neither
  submission nor setup/cleanup time is charged (in stock Hadoop those
  are tasks themselves; none launch).
* :func:`record` — after a successful commit, walk the output's part
  files and store fingerprint → location (+ lineage tokens for prefix
  reuse).  Also zero simulated seconds: metadata peeks only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.api.conf import (
    RESTORE_ENABLED_KEY,
    RESTORE_ENV,
    RESTORE_MAX_ENTRIES_KEY,
    JobConf,
    conf_bool,
)
from repro.api.extensions import is_temporary_output
from repro.api.mapred import Reporter
from repro.engine_common import charge_fs_write, part_index
from repro.lifecycle.events import ReuseEvent
from repro.restore.fingerprint import (
    _is_hidden,
    compute_fingerprint,
    content_version,
)
from repro.restore.store import StoredPart, StoredResult
from repro.x10.serializer import clone_pairs

__all__ = ["restore_enabled", "admit", "serve_m3r", "serve_hadoop", "record"]

#: Stage-scratch keys the providers and these bodies share.
FINGERPRINT_KEY = "restore_fingerprint"
HIT_KEY = "restore_hit"


def restore_enabled(conf: Optional[JobConf]) -> bool:
    """The ``m3r.restore.enabled`` knob (``M3R_RESTORE`` env fallback)."""
    return conf_bool(conf, RESTORE_ENABLED_KEY, env=RESTORE_ENV, default=False)


def _reuse_event(ctx: Any, action: str, fingerprint: Optional[str],
                 output_path: Optional[str] = None, nbytes: int = 0,
                 records: int = 0) -> ReuseEvent:
    return ReuseEvent(
        job_id=ctx.bus.job_id, engine=ctx.bus.engine, action=action,
        fingerprint=fingerprint, output_path=output_path,
        nbytes=nbytes, records=records,
    )


def admit(ctx: Any, engine: Any, st: Dict[str, Any]) -> None:
    """The admission stage body (zero simulated seconds)."""
    store = engine.restore
    if RESTORE_MAX_ENTRIES_KEY in ctx.conf:
        store.reconfigure(max_entries=ctx.conf.get_int(RESTORE_MAX_ENTRIES_KEY))
    fingerprint = compute_fingerprint(engine, ctx.spec, ctx.conf, store)
    st[FINGERPRINT_KEY] = fingerprint
    if fingerprint is None:
        ctx.metrics.incr("restore_bypassed")
        store.note("bypasses")
        ctx.emit(_reuse_event(ctx, "bypass", None))
        return
    hit = store.lookup(fingerprint)
    if hit is None or ctx.spec.output_path is None:
        ctx.metrics.incr("restore_misses")
        store.note("misses")
        ctx.emit(_reuse_event(ctx, "miss", fingerprint))
        return
    for part in hit.parts:
        if content_version(engine, part.path) != part.version:
            # The stored output mutated or vanished (deleted, overwritten,
            # or dropped by the governor without a spill) — discard the
            # entry and run fresh.
            store.invalidate(fingerprint)
            ctx.metrics.incr("restore_invalidations")
            store.note("invalidations")
            ctx.emit(_reuse_event(ctx, "invalidate", fingerprint, hit.output_path))
            return
    ctx.metrics.incr("restore_hits")
    store.note("hits")
    st[HIT_KEY] = hit


def _read_part(engine: Any, path: str) -> Tuple[Optional[List[Any]], Optional[bytes]]:
    """A stored part's content: pair sequence, or raw bytes for byte files."""
    try:
        return engine.filesystem.read_pairs(path), None
    except TypeError:
        return None, engine.filesystem.read_bytes(path)


def _serve_part_pairs(
    ctx: Any, engine: Any, dest: str, basename: str, pairs: List[Any]
) -> None:
    """Write one part through the job's output format (byte-identical to
    a real task's flush)."""
    task_conf = JobConf(ctx.conf)
    reporter = Reporter(ctx.counters)
    writer = ctx.spec.output_format.get_record_writer(
        engine.filesystem, task_conf, basename, reporter
    )
    for key, value in pairs:
        writer.write(key, value)
    writer.close()


def serve_m3r(ctx: Any, engine: Any, st: Dict[str, Any]) -> None:
    """Serve a hit on the M3R engine: same flush / cache / replication
    charges as a real commit, no tasks and no scheduler hand-off — the
    hit is detected before the job reaches the scheduler, so neither the
    submission barrier nor any setup work is charged.

    Each part is replayed by the place that owns its partition, so —
    exactly like the real reduce flush — the wall clock advances by the
    slot-lane makespan of the per-part work, not its serial sum.
    """
    from repro.hadoop_engine.scheduler import SlotLanes
    from repro.lifecycle.m3r_stages import emit_m3r_output

    hit: StoredResult = st[HIT_KEY]
    model = engine.cost_model
    spec, conf, metrics = ctx.spec, ctx.conf, ctx.metrics
    spec.output_format.check_output_specs(engine.filesystem, conf)
    committer = spec.output_format.get_output_committer()
    temp = spec.output_path is not None and is_temporary_output(
        spec.output_path, conf
    )
    if not (temp and engine.enable_cache):
        committer.setup_job(engine.filesystem, conf)
    lanes = SlotLanes(engine.num_places, engine.workers_per_place)

    served_bytes = served_records = 0
    for part in hit.parts:
        dest = f"{spec.output_path}/{part.basename}"
        place = engine.partition_place(part_index(part.basename) or 0)
        pairs, raw = _read_part(engine, part.path)
        if pairs is None:
            # Byte file (no cached sequence anywhere): raw copy.
            engine.filesystem.write_bytes(dest, raw)
            nbytes = len(raw)
            read = model.disk_read_time(nbytes, seeks=1)
            metrics.time.charge("disk_read", read)
            part_seconds = read + charge_fs_write(engine, nbytes, metrics)
            lanes.add_task(place, part_seconds)
            served_bytes += nbytes
            continue
        # One copy, shared between flush and cache — the same aliasing a
        # real run produces, with no aliasing back into the source entry.
        pairs = clone_pairs(pairs)
        lanes.add_task(place, emit_m3r_output(
            ctx, engine, engine.filesystem, JobConf(conf), part.basename, dest,
            place, pairs, part.nbytes, temp,
        ))
        served_bytes += part.nbytes
        served_records += len(pairs)

    if not (temp and engine.enable_cache):
        committer.commit_job(engine.filesystem.inner, conf)
    seconds = lanes.makespan()
    seconds += engine.governor.drain_seconds()
    ctx.advance(seconds)
    _finish_serve(ctx, engine, st, hit, served_bytes, served_records)


def serve_hadoop(ctx: Any, engine: Any, st: Dict[str, Any]) -> None:
    """Serve a hit on the stock engine: a driver-side disk copy plus the
    commit's metadata round-trips — no JVMs, no tasks, and no JobTracker
    hand-off.  In stock Hadoop, job setup and cleanup are themselves
    tasks; on a hit the job never reaches the scheduler, so none of
    those launch and none of their time is charged."""
    hit: StoredResult = st[HIT_KEY]
    model = engine.cost_model
    spec, conf, metrics = ctx.spec, ctx.conf, ctx.metrics
    spec.output_format.check_output_specs(engine.filesystem, conf)
    committer = spec.output_format.get_output_committer()
    committer.setup_job(engine.filesystem, conf)
    seconds = 0.0

    served_bytes = served_records = 0
    for part in hit.parts:
        dest = f"{spec.output_path}/{part.basename}"
        pairs, raw = _read_part(engine, part.path)
        nbytes = part.nbytes
        read = model.disk_read_time(nbytes, seeks=1)
        metrics.time.charge("disk_read", read)
        seconds += read
        if pairs is None:
            engine.filesystem.write_bytes(dest, raw)
            nbytes = len(raw)
        else:
            _serve_part_pairs(ctx, engine, dest, part.basename, pairs)
            served_records += len(pairs)
        seconds += charge_fs_write(engine, nbytes, metrics)
        metrics.time.charge("namenode", model.namenode_op)
        seconds += model.namenode_op
        served_bytes += nbytes

    committer.commit_job(engine.filesystem, conf)
    ctx.advance(seconds)
    _finish_serve(ctx, engine, st, hit, served_bytes, served_records)


def _finish_serve(ctx: Any, engine: Any, st: Dict[str, Any],
                  hit: StoredResult, nbytes: int, records: int) -> None:
    metrics = ctx.metrics
    metrics.incr("restore_served_bytes", nbytes)
    metrics.incr("restore_served_records", records)
    ctx.emit(
        _reuse_event(
            ctx, "hit", hit.fingerprint, ctx.spec.output_path,
            nbytes=nbytes, records=records,
        )
    )
    # The served copy carries the same lineage as the original, so a
    # compiled pipeline rerun reading it fingerprints its next stage
    # identically (transitive prefix reuse).
    _register_output_lineage(ctx, engine, st[FINGERPRINT_KEY])


def record(ctx: Any, engine: Any, st: Dict[str, Any]) -> None:
    """The record stage body (zero simulated seconds, metadata only)."""
    fingerprint = st.get(FINGERPRINT_KEY)
    output_path = ctx.spec.output_path
    if fingerprint is None or output_path is None:
        return
    parts: List[StoredPart] = []
    for status in engine.filesystem.list_files_recursive(output_path):
        basename = status.path.rsplit("/", 1)[-1]
        if _is_hidden(basename):
            continue
        version = content_version(engine, status.path)
        if version is None:
            return
        records = 0
        cache = getattr(engine, "cache", None)
        if cache is not None:
            entry = cache.get_file(status.path, materialize=False)
            if entry is not None:
                records = entry.records
        parts.append(
            StoredPart(
                path=status.path, basename=basename, version=version,
                nbytes=status.length, records=records,
            )
        )
    engine.restore.record(
        StoredResult(
            fingerprint=fingerprint,
            output_path=output_path,
            job_name=ctx.spec.name,
            parts=tuple(sorted(parts, key=lambda part: part.basename)),
        )
    )
    _register_output_lineage(ctx, engine, fingerprint)


def _register_output_lineage(ctx: Any, engine: Any, fingerprint: Optional[str]) -> None:
    if fingerprint is None or ctx.spec.output_path is None:
        return
    store = engine.restore
    for status in engine.filesystem.list_files_recursive(ctx.spec.output_path):
        basename = status.path.rsplit("/", 1)[-1]
        if _is_hidden(basename):
            continue
        version = content_version(engine, status.path)
        if version is not None:
            store.register_lineage(
                status.path, version, f"{fingerprint}#{basename}"
            )
    return
