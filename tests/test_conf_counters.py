"""Configuration / JobConf and counters."""

from __future__ import annotations

import pytest

from repro.analysis.knobs import KNOB_PREFIX
from repro.api.conf import (
    CONF_STRICT_ENV,
    CONF_STRICT_KEY,
    REAL_THREADS_KEY,
    SHUFFLE_REAL_THREADS_KEY,
    Configuration,
    JobConf,
    UnknownKnobError,
    UnknownKnobWarning,
    conf_bool,
)
from repro.api.counters import Counters, FileSystemCounter, JobCounter, TaskCounter
from repro.api.mapred import IdentityMapper, IdentityReducer
from repro.api.partitioner import HashPartitioner

from workloads import make_hadoop, make_m3r, run_stress


class TestConfiguration:
    def test_get_set(self):
        conf = Configuration()
        conf.set("a.b", "value")
        assert conf.get("a.b") == "value"
        assert conf.get("missing") is None
        assert conf.get("missing", "d") == "d"

    def test_typed_getters(self):
        conf = Configuration()
        conf.set("i", "42")
        conf.set("f", "2.5")
        conf.set("b", "true")
        assert conf.get_int("i") == 42
        assert conf.get_float("f") == 2.5
        assert conf.get_boolean("b") is True
        assert conf.get_int("absent", 7) == 7
        assert conf.get_boolean("absent", True) is True

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("TRUE", True), ("1", True), ("yes", True),
        ("false", False), ("0", False), ("no", False), ("junk", False),
    ])
    def test_boolean_parsing(self, raw, expected):
        conf = Configuration()
        conf.set("k", raw)
        assert conf.get_boolean("k") is expected

    def test_strings_roundtrip(self):
        conf = Configuration()
        conf.set_strings("list", ["a", "b", "c"])
        assert conf.get_strings("list") == ["a", "b", "c"]
        assert conf.get_strings("absent") == []

    def test_class_values(self):
        conf = Configuration()
        conf.set_class("cls", IdentityMapper)
        assert conf.get_class("cls") is IdentityMapper
        conf.set("notcls", "a string")
        with pytest.raises(TypeError):
            conf.get_class("notcls")
        with pytest.raises(TypeError):
            conf.set_class("x", "not a class")

    def test_copy_is_independent(self):
        conf = Configuration()
        conf.set("k", "v1")
        copy = conf.copy()
        copy.set("k", "v2")
        assert conf.get("k") == "v1"

    def test_contains_and_unset(self):
        conf = Configuration()
        conf.set("k", 1)
        assert "k" in conf
        conf.unset("k")
        assert "k" not in conf


class TestConfBool:
    """The one canonical boolean-knob resolver: JobConf > env > default."""

    KEY = "m3r.test.knob"  # noqa: M3R010 - throwaway key for resolver tests, deliberately unregistered
    ENV = "M3R_TEST_KNOB"

    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv(self.ENV, raising=False)
        assert conf_bool(JobConf(), self.KEY, self.ENV, default=True) is True
        assert conf_bool(JobConf(), self.KEY, self.ENV, default=False) is False

    def test_none_conf_falls_through_to_env(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "true")
        assert conf_bool(None, self.KEY, self.ENV, default=False) is True

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "1")
        assert conf_bool(JobConf(), self.KEY, self.ENV, default=False) is True
        monkeypatch.setenv(self.ENV, "no")
        assert conf_bool(JobConf(), self.KEY, self.ENV, default=True) is False

    def test_conf_beats_env(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "true")
        conf = JobConf()
        # The throwaway key is not in the KnobRegistry, so setting it
        # warns — that's the runtime knob validation working as intended.
        with pytest.warns(UnknownKnobWarning):
            conf.set_boolean(self.KEY, False)
        assert conf_bool(conf, self.KEY, self.ENV, default=True) is False
        monkeypatch.setenv(self.ENV, "false")
        with pytest.warns(UnknownKnobWarning):
            conf.set_boolean(self.KEY, True)
        assert conf_bool(conf, self.KEY, self.ENV, default=False) is True

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "   ")
        assert conf_bool(JobConf(), self.KEY, self.ENV, default=True) is True
        assert conf_bool(JobConf(), self.KEY, self.ENV, default=False) is False

    def test_no_env_name_means_no_env_lookup(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "true")
        assert conf_bool(JobConf(), self.KEY, env=None, default=False) is False


class TestKnobValidation:
    """Runtime validation of ``m3r.*`` keys against the KnobRegistry:
    unknown keys warn; under strict mode (JobConf > env > default) they
    raise.  Non-``m3r.*`` keys are never validated."""

    BAD = "m3r.cache.capacity-byte"  # noqa: M3R010 - deliberate misspelling of a registered key

    def test_registered_key_is_silent(self, recwarn, monkeypatch):
        monkeypatch.delenv(CONF_STRICT_ENV, raising=False)
        from repro.api.conf import CACHE_CAPACITY_KEY

        conf = Configuration()
        conf.set_int(CACHE_CAPACITY_KEY, 1 << 20)
        assert not [w for w in recwarn.list if issubclass(w.category, UnknownKnobWarning)]

    def test_non_m3r_key_is_never_validated(self, recwarn, monkeypatch):
        monkeypatch.delenv(CONF_STRICT_ENV, raising=False)
        conf = Configuration()
        conf.set("mapred.reduce.tasks", 4)
        conf.set("whatever.else", "x")
        assert not [w for w in recwarn.list if issubclass(w.category, UnknownKnobWarning)]

    def test_unknown_key_warns_by_default(self, monkeypatch):
        monkeypatch.delenv(CONF_STRICT_ENV, raising=False)
        conf = Configuration()
        with pytest.warns(UnknownKnobWarning, match="capacity-byte"):
            conf.set(self.BAD, 1)
        assert conf.get(self.BAD) == 1  # the set still lands

    def test_typed_setters_validate_too(self, monkeypatch):
        monkeypatch.delenv(CONF_STRICT_ENV, raising=False)
        conf = Configuration()
        with pytest.warns(UnknownKnobWarning):
            conf.set_int(self.BAD, 1)
        with pytest.warns(UnknownKnobWarning):
            conf.set_boolean(self.BAD, True)

    def test_env_turns_on_strict(self, monkeypatch):
        monkeypatch.setenv(CONF_STRICT_ENV, "1")
        conf = Configuration()
        with pytest.raises(UnknownKnobError, match="capacity-byte"):
            conf.set(self.BAD, 1)
        assert self.BAD not in conf  # a strict rejection does not land

    def test_conf_key_turns_on_strict(self, monkeypatch):
        monkeypatch.delenv(CONF_STRICT_ENV, raising=False)
        conf = Configuration()
        conf.set_boolean(CONF_STRICT_KEY, True)
        with pytest.raises(UnknownKnobError):
            conf.set(self.BAD, 1)

    def test_conf_key_beats_env(self, monkeypatch):
        # JobConf says lenient, env says strict: JobConf wins (same
        # precedence order as conf_bool).
        monkeypatch.setenv(CONF_STRICT_ENV, "1")
        conf = Configuration()
        conf.set_boolean(CONF_STRICT_KEY, False)
        with pytest.warns(UnknownKnobWarning):
            conf.set(self.BAD, 1)

    def test_blank_env_is_lenient(self, monkeypatch):
        monkeypatch.setenv(CONF_STRICT_ENV, "   ")
        conf = Configuration()
        with pytest.warns(UnknownKnobWarning):
            conf.set(self.BAD, 1)

    def test_error_is_a_keyerror_and_names_the_key(self, monkeypatch):
        monkeypatch.setenv(CONF_STRICT_ENV, "true")
        conf = Configuration()
        with pytest.raises(KeyError) as excinfo:
            conf.set(self.BAD, 1)
        assert self.BAD in str(excinfo.value)


class TestRetiredKeys:
    """The two real-threads keys are still registered (so setting them
    neither warns nor raises) but nothing reads them: tasks and shuffle
    messages always run inline."""

    @staticmethod
    def observed(factory, conf_bools=None):
        run = run_stress(factory, seed=6, parts=8, conf_bools=conf_bools)
        return (run["output"], run["cached"], run["counters"],
                run["metrics"].as_dict(), run["seconds"])

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "key", [REAL_THREADS_KEY, SHUFFLE_REAL_THREADS_KEY], ids=["engine", "shuffle"]
    )
    def test_setting_a_retired_key_changes_nothing(self, key, value, recwarn):
        for factory in (make_m3r, make_hadoop):
            assert self.observed(factory, {key: value}) == self.observed(factory)
        assert not [w for w in recwarn.list if issubclass(w.category, UnknownKnobWarning)]


#: Keys that only tests ever set, deleted from the KnobRegistry with the
#: code that read them; their values live on as module constants.
DELETED_KEYS = [
    KNOB_PREFIX + rest
    for rest in (
        "service.queue-depth",
        "service.in-flight-limit",
        "service.tenant-weight",
        "service.tenant-budget-bytes",
        "service.shared-restore",
        "restore.max-entries",
        "trace.ring-size",
        "batch.size",
        "imc.max-entries",
        "sanitize.mutation",
        "sanitize.lock-order",
    )
]


class TestDeletedKeys:
    """A deleted key is an unknown key: it warns, raises under strict
    mode, and ``repro stats --set`` refuses it."""

    @pytest.mark.parametrize("key", DELETED_KEYS)
    def test_a_deleted_key_is_unknown(self, key, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv(CONF_STRICT_ENV, raising=False)
        with pytest.warns(UnknownKnobWarning, match=key):
            Configuration().set(key, 1)
        monkeypatch.setenv(CONF_STRICT_ENV, "1")
        with pytest.raises(UnknownKnobError, match=key):
            Configuration().set(key, 1)
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--set", f"{key}=1"])
        assert excinfo.value.code == 2
        assert key in capsys.readouterr().err


class TestJobConf:
    def test_wiring(self):
        conf = JobConf()
        conf.set_job_name("j")
        conf.set_mapper_class(IdentityMapper)
        conf.set_reducer_class(IdentityReducer)
        conf.set_combiner_class(IdentityReducer)
        conf.set_partitioner_class(HashPartitioner)
        conf.set_num_reduce_tasks(3)
        assert conf.get_job_name() == "j"
        assert conf.get_mapper_class() is IdentityMapper
        assert conf.get_reducer_class() is IdentityReducer
        assert conf.get_combiner_class() is IdentityReducer
        assert conf.get_partitioner_class() is HashPartitioner
        assert conf.get_num_reduce_tasks() == 3

    def test_negative_reducers_rejected(self):
        conf = JobConf()
        with pytest.raises(ValueError):
            conf.set_num_reduce_tasks(-1)

    def test_input_paths(self):
        conf = JobConf()
        conf.set_input_paths("/a", "/b")
        conf.add_input_path("/c")
        assert conf.get_input_paths() == ["/a", "/b", "/c"]

    def test_output_path(self):
        conf = JobConf()
        assert conf.get_output_path() is None
        conf.set_output_path("/out")
        assert conf.get_output_path() == "/out"

    def test_copy_constructor_inherits(self):
        conf = JobConf()
        conf.set_mapper_class(IdentityMapper)
        task_conf = JobConf(conf)
        assert task_conf.get_mapper_class() is IdentityMapper

    def test_default_reducers_is_one(self):
        assert JobConf().get_num_reduce_tasks() == 1


class TestCounters:
    def test_enum_addressing(self):
        counters = Counters()
        counters.increment(TaskCounter.MAP_INPUT_RECORDS, 3)
        counters.increment(TaskCounter.MAP_INPUT_RECORDS, 2)
        assert counters.value(TaskCounter.MAP_INPUT_RECORDS) == 5

    def test_string_addressing(self):
        counters = Counters()
        counters.increment("my.group", "events", 4)
        assert counters.value("my.group", "events") == 4
        assert counters.value("my.group", "absent") == 0

    def test_find_counter_creates(self):
        counters = Counters()
        counter = counters.find_counter("g", "c")
        counter.increment(10)
        assert counters.value("g", "c") == 10

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment(JobCounter.TOTAL_LAUNCHED_MAPS, 2)
        b.increment(JobCounter.TOTAL_LAUNCHED_MAPS, 3)
        b.increment(FileSystemCounter.BYTES_READ, 100)
        a.merge(b)
        assert a.value(JobCounter.TOTAL_LAUNCHED_MAPS) == 5
        assert a.value(FileSystemCounter.BYTES_READ) == 100

    def test_groups_are_separate(self):
        counters = Counters()
        counters.increment("g1", "x", 1)
        counters.increment("g2", "x", 2)
        assert counters.group("g1") == {"x": 1}
        assert counters.group("g2") == {"x": 2}

    def test_as_dict(self):
        counters = Counters()
        counters.increment("g", "c", 7)
        assert counters.as_dict() == {"g": {"c": 7}}

    def test_type_errors(self):
        counters = Counters()
        with pytest.raises(TypeError):
            counters.increment(TaskCounter.MAP_INPUT_RECORDS, "name")
        with pytest.raises(TypeError):
            counters.increment("group", 3)
