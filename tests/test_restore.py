"""Cross-job result reuse (ReStore): the reuse-equivalence harness.

The contract under test:

* **Transparency** — with ``m3r.restore.enabled`` on, a job's first run is
  *identical* to a run with it off: byte-identical committed output and
  bit-identical simulated seconds (admission and record charge nothing).
* **Reuse** — an exact rerun (same inputs, same relevant conf, same user
  classes; a fresh output directory) is served from the store: zero map
  and reduce tasks launch, the served output is byte-identical, and the
  simulated clock advances by strictly less than a real run.
* **Invalidation** — mutating an input file, changing a relevant conf
  key, or swapping the mapper produces a different fingerprint (a miss
  and a fresh execution); mutating the *stored* output invalidates the
  entry.  Irrelevant knobs (``m3r.*``, job name, output path) never
  change the fingerprint.

The workloads come from :mod:`workloads` — the same wordcount, matvec and
grep jobs the equivalence and concurrency suites pin down.
"""

from __future__ import annotations

import pytest

from repro.api.conf import RESTORE_ENABLED_KEY, JobConf, UnknownKnobWarning
from repro.api.counters import JobCounter
from repro.api.formats import SequenceFileInputFormat
from repro.api.job import JobSpec
from repro.api.mapred import Mapper
from repro.api.multiple_io import MultipleInputs
from repro.api.writables import IntWritable
from repro.jaql import JaqlRunner
from repro.lifecycle.events import ReuseEvent
from repro.pig import PigRunner
from repro.pig.compiler import JoinReducer, LeftJoinMapper, RightJoinMapper
from repro.restore import compute_fingerprint

from workloads import (
    DATA,
    WORKLOADS,
    WordCountWorkload,
    enable_restore,
    histogram_job,
    make_hadoop,
    make_m3r,
    snapshot_output,
    write_corpus,
)

ENGINES = (("hadoop", make_hadoop), ("m3r", make_m3r))


def total_tasks(results) -> int:
    """Launched map + reduce tasks summed across a (sequence of) results."""
    return sum(
        r.counters.value(JobCounter.TOTAL_LAUNCHED_MAPS)
        + r.counters.value(JobCounter.TOTAL_LAUNCHED_REDUCES)
        for r in results
    )


def run_twice(factory, workload, seed: int, restore: bool):
    """One engine, one prepared dataset, the workload run to two distinct
    output locations; returns per-run results, output snapshots, seconds."""
    engine = factory()
    try:
        workload.prepare(engine, seed)
        runs, outputs, seconds = [], [], []
        for tag in ("a", "b"):
            results = workload.run(engine, tag, restore=restore)
            assert all(r.succeeded for r in results), [r.error for r in results]
            runs.append(results)
            snap = {}
            for out_dir in workload.output_dirs(tag):
                snap.update(snapshot_output(engine, out_dir))
            outputs.append(snap)
            seconds.append(sum(r.simulated_seconds for r in results))
        return {"runs": runs, "outputs": outputs, "seconds": seconds,
                "store": engine.restore}
    finally:
        if hasattr(engine, "shutdown"):
            engine.shutdown()


@pytest.mark.parametrize("seed", range(20))
def test_seeded_reuse_differential(seed):
    """The acceptance sweep: 20 seeds across wordcount / matvec / grep on
    both engines, restore on vs off."""
    workload = WORKLOADS[seed % len(WORKLOADS)]
    for kind, factory in ENGINES:
        off = run_twice(factory, workload, seed, restore=False)
        on = run_twice(factory, workload, seed, restore=True)

        # Transparency: the first run is unobservable — byte-identical
        # output and bit-identical simulated seconds.
        assert on["outputs"][0] == off["outputs"][0], (kind, workload.name)
        assert on["seconds"][0] == off["seconds"][0], (kind, workload.name)

        # Rerun equivalence: all four runs commit the same bytes.
        assert off["outputs"][1] == off["outputs"][0]
        assert on["outputs"][1] == on["outputs"][0]

        # The rerun with restore on is a pure hit: zero tasks launched
        # (every job in the sequence reuses), and it is strictly cheaper.
        assert total_tasks(off["runs"][1]) > 0
        assert total_tasks(on["runs"][1]) == 0, (kind, workload.name)
        for result in on["runs"][1]:
            assert result.metrics.get("restore_hits") == 1
        assert on["seconds"][1] < on["seconds"][0], (kind, workload.name)

        stats = on["store"].stats()
        assert stats["lifetime"]["hits"] == len(on["runs"][1])


class TestInvalidation:
    """Fingerprint sensitivity: what must miss, what must not."""

    def setup_run(self, factory, conf_mutate=None):
        engine = factory()
        write_corpus(engine.filesystem, "/in", seed=9, parts=4, lines_per_part=4)
        first = engine.run_job(self._job(engine, "/out-a"))
        assert first.succeeded, first.error
        return engine, first

    def _job(self, engine, out, reducers=4):
        conf = histogram_job_text("/in", out, reducers)
        return enable_restore(conf)

    @pytest.mark.parametrize("kind,factory", ENGINES)
    def test_one_byte_input_mutation_forces_miss(self, kind, factory):
        engine, _ = self.setup_run(factory)
        try:
            # Flip one byte of one input part: same length, new content.
            text = engine.filesystem.read_text("/in/part-00001")
            engine.filesystem.delete("/in/part-00001")
            engine.filesystem.write_text("/in/part-00001", "X" + text[1:])
            second = engine.run_job(self._job(engine, "/out-b"))
            assert second.succeeded, second.error
            assert second.metrics.get("restore_misses") == 1
            assert second.metrics.get("restore_hits") == 0
            assert total_tasks([second]) > 0
        finally:
            if hasattr(engine, "shutdown"):
                engine.shutdown()

    @pytest.mark.parametrize("kind,factory", ENGINES)
    def test_relevant_conf_change_forces_miss(self, kind, factory):
        engine, _ = self.setup_run(factory)
        try:
            conf = enable_restore(histogram_job_text("/in", "/out-b", reducers=5))
            second = engine.run_job(conf)
            assert second.succeeded, second.error
            assert second.metrics.get("restore_misses") == 1
            assert total_tasks([second]) > 0
        finally:
            if hasattr(engine, "shutdown"):
                engine.shutdown()

    @pytest.mark.parametrize("kind,factory", ENGINES)
    def test_mapper_swap_forces_miss(self, kind, factory):
        engine, _ = self.setup_run(factory)
        try:
            conf = self._job(engine, "/out-b")
            conf.set_mapper_class(DoubleCountMapper)
            second = engine.run_job(conf)
            assert second.succeeded, second.error
            assert second.metrics.get("restore_misses") == 1
            assert total_tasks([second]) > 0
        finally:
            if hasattr(engine, "shutdown"):
                engine.shutdown()

    @pytest.mark.parametrize("kind,factory", ENGINES)
    def test_irrelevant_conf_keys_do_not_change_fingerprint(self, kind, factory):
        """m3r.* knobs, the job name and the output path are excluded from
        the fingerprint — changing all three still hits."""
        engine, _ = self.setup_run(factory)
        try:
            conf = self._job(engine, "/out-b")
            conf.set_job_name("renamed-job")
            # An unregistered m3r.* key warns (knob validation) but must
            # still be excluded from the fingerprint like any m3r.* knob.
            with pytest.warns(UnknownKnobWarning):
                conf.set("m3r.trace.note", "different-trace-knob")
            second = engine.run_job(conf)
            assert second.succeeded, second.error
            assert second.metrics.get("restore_hits") == 1
            assert total_tasks([second]) == 0
        finally:
            if hasattr(engine, "shutdown"):
                engine.shutdown()

    def test_stored_output_mutation_invalidates(self):
        """Fingerprint matches but the recorded bytes changed underneath —
        the entry is discarded and the job runs fresh."""
        engine, _ = self.setup_run(make_hadoop)
        try:
            victims = [
                s.path for s in engine.filesystem.list_files_recursive("/out-a")
                if not s.path.rsplit("/", 1)[-1].startswith(("_", "."))
            ]
            assert victims
            engine.filesystem.delete(victims[0])
            second = engine.run_job(self._job(engine, "/out-b"))
            assert second.succeeded, second.error
            assert second.metrics.get("restore_invalidations") == 1
            assert second.metrics.get("restore_hits") == 0
            assert total_tasks([second]) > 0
            assert engine.restore.stats()["lifetime"]["invalidations"] == 1
        finally:
            if hasattr(engine, "shutdown"):
                engine.shutdown()


class DoubleCountMapper(Mapper):
    """Same signature as the wordcount mapper, different code — must miss."""

    def map(self, key, value, output, reporter):
        from repro.api.writables import Text

        for word in str(value).split():
            output.collect(Text(word), IntWritable(2))


def histogram_job_text(input_path, output_path, reducers):
    """Wordcount-shaped job over the text corpus (text in, pairs out)."""
    from repro.apps.wordcount import wordcount_job

    return wordcount_job(input_path, output_path, reducers)


class TestFingerprint:
    """Direct fingerprint algebra, no job runs."""

    def _engine_with_data(self):
        engine = make_m3r()
        engine.filesystem.write_pairs("/in/part-00000", DATA)
        return engine

    def _fingerprint(self, engine, conf):
        return compute_fingerprint(
            engine, JobSpec.from_conf(conf), conf, engine.restore
        )

    def test_identical_plans_agree(self):
        engine = self._engine_with_data()
        a = self._fingerprint(engine, histogram_job("/in", "/out", 4))
        b = self._fingerprint(engine, histogram_job("/in", "/out", 4))
        assert a is not None and a == b

    def test_output_path_and_name_excluded(self):
        engine = self._engine_with_data()
        a = self._fingerprint(engine, histogram_job("/in", "/out", 4))
        b = self._fingerprint(
            engine, histogram_job("/in", "/elsewhere", 4, name="other")
        )
        assert a == b

    def test_m3r_knobs_excluded(self):
        engine = self._engine_with_data()
        a = self._fingerprint(engine, histogram_job("/in", "/out", 4))
        noisy = histogram_job("/in", "/out", 4)
        with pytest.warns(UnknownKnobWarning):
            noisy.set("m3r.trace.note", "xyz")
        noisy.set_boolean(RESTORE_ENABLED_KEY, True)
        assert a == self._fingerprint(engine, noisy)

    def test_reducer_count_included(self):
        engine = self._engine_with_data()
        a = self._fingerprint(engine, histogram_job("/in", "/out", 4))
        b = self._fingerprint(engine, histogram_job("/in", "/out", 5))
        assert a != b

    def test_combiner_included(self):
        engine = self._engine_with_data()
        a = self._fingerprint(engine, histogram_job("/in", "/out", 4))
        b = self._fingerprint(
            engine, histogram_job("/in", "/out", 4, use_combiner=True)
        )
        assert a != b

    def test_input_rewrite_included(self):
        engine = self._engine_with_data()
        a = self._fingerprint(engine, histogram_job("/in", "/out", 4))
        engine.filesystem.delete("/in/part-00000")
        engine.filesystem.write_pairs("/in/part-00000", DATA)
        b = self._fingerprint(engine, histogram_job("/in", "/out", 4))
        assert a != b  # same bytes, new content version — conservative miss

    def test_unstable_plan_bypasses(self):
        """A lambda or a function-local class in the plan has no stable
        identity: no fingerprint."""
        engine = self._engine_with_data()
        conf = histogram_job("/in", "/out", 4)
        conf.set("custom.hook", lambda: None)
        assert self._fingerprint(engine, conf) is None

        # Two calls of one factory give two local classes under one
        # qualname; fingerprinting the name would serve one's output as
        # the other's.
        class LocalMapper(Mapper):
            def map(self, key, value, output, reporter):
                output.collect(key, IntWritable(1))

        conf = histogram_job("/in", "/out", 4)
        conf.set_mapper_class(LocalMapper)  # noqa: M3R007 - the bypass under test
        assert self._fingerprint(engine, conf) is None


    def test_multiple_inputs_mapper_swap_included(self):
        """``MultipleInputs`` registrations are keyed by their path's
        content, and each keeps its own mapper: swapping which mapper
        reads which input must not match."""
        engine = self._engine_with_data()
        engine.filesystem.write_pairs("/in2/part-00000", DATA)

        def join(left, right):
            conf = JobConf()
            conf.set_output_path("/out")
            MultipleInputs.add_input_path(conf, "/in", SequenceFileInputFormat, left)
            MultipleInputs.add_input_path(conf, "/in2", SequenceFileInputFormat, right)
            conf.set_reducer_class(JoinReducer)
            return conf

        plain = self._fingerprint(engine, join(LeftJoinMapper, RightJoinMapper))
        swapped = self._fingerprint(engine, join(RightJoinMapper, LeftJoinMapper))
        assert plain is not None and swapped is not None
        assert plain != swapped


class TestFrontEndReruns:
    """A compiled script rerun through a fresh workdir, so that every
    temporary path differs, is served whole: lineage tokens, not paths,
    identify each intermediate."""

    SCRIPTS = {
        "pig": ("l = LOAD '/l.txt' AS (k, lv); r = LOAD '/r.txt' AS (k2, rv);"
                " j = JOIN l BY k, r BY k2; STORE j INTO '/out/TAG';"),
        "jaql": ("read('/events.json') -> filter $.ms > 1"
                 " -> group by $.user into { user: key, n: count($) }"
                 " -> sort by $.n -> write('/out/TAG')"),
    }

    @pytest.mark.parametrize("language", ["pig", "jaql"])
    @pytest.mark.parametrize("kind,factory", ENGINES)
    def test_rerun_in_fresh_workdir_launches_no_task(
        self, kind, factory, language, monkeypatch
    ):
        monkeypatch.setenv("M3R_RESTORE", "1")
        engine = factory()
        engine.filesystem.write_text("/l.txt", "1\tx\n1\ty\n2\tz\n")
        engine.filesystem.write_text("/r.txt", "1\tA\n3\tC\n")
        engine.filesystem.write_text(
            "/events.json",
            '{"user": "a", "ms": 5}\n{"user": "b", "ms": 9}\n{"user": "a", "ms": 2}\n',
        )
        runner_class = PigRunner if language == "pig" else JaqlRunner
        runs = []
        for tag in ("a", "b"):
            runner = runner_class(engine, workdir=f"/work-{tag}", num_reducers=2)
            runner.run(self.SCRIPTS[language].replace("TAG", tag))
            runs.append(runner)
        first, second = runs
        assert total_tasks(first.results) > 0
        assert total_tasks(second.results) == 0, [r.job_name for r in second.results]
        bypassed = [r.job_name for run in runs for r in run.results
                    if r.metrics.get("restore_bypassed")]
        assert bypassed == []
        assert second.read_output("/out/b") == first.read_output("/out/a") != []


class TestReuseEvents:
    def test_miss_then_hit_on_the_bus(self):
        """Typed ReuseEvents land in the engine's ring and the metrics
        bridge mirrors them per job."""
        engine = make_m3r()
        workload = WordCountWorkload()
        try:
            workload.prepare(engine, seed=3)
            first = workload.run(engine, "a", restore=True)[0]
            second = workload.run(engine, "b", restore=True)[0]
            actions = [
                e.action for e in engine.event_ring.events()
                if isinstance(e, ReuseEvent)
            ]
            assert actions == ["miss", "hit"]
            hit = [e for e in engine.event_ring.events()
                   if isinstance(e, ReuseEvent) and e.action == "hit"][0]
            assert hit.fingerprint and hit.nbytes > 0 and hit.records > 0
            assert first.metrics.get("restore_misses") == 1
            assert second.metrics.get("restore_hits") == 1
            assert second.metrics.get("restore_served_bytes") == hit.nbytes
        finally:
            engine.shutdown()

    def test_disabled_by_default_no_events(self):
        engine = make_m3r()
        workload = WordCountWorkload()
        try:
            workload.prepare(engine, seed=3)
            result = workload.run(engine, "a", restore=False)[0]
            assert result.metrics.get("restore_hits") == 0
            assert result.metrics.get("restore_misses") == 0
            assert not [
                e for e in engine.event_ring.events() if isinstance(e, ReuseEvent)
            ]
            assert len(engine.restore) == 0
        finally:
            engine.shutdown()
