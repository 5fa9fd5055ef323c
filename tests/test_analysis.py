"""Tests for the static lint half of repro.analysis.

Each rule gets a fixture pair: a known-bad snippet it must fire on, and
the fixed version it must stay silent on.  The suite also covers the
``# noqa`` suppression convention, the reporters, the fixture contract
(a rule stays only with a fixture) and the self-gate: the shipped
``src/repro`` tree must be clean.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Analyzer,
    default_rules,
    findings_to_document,
    render_json,
    render_text,
)
from repro.analysis.callgraph import build_call_graph
import ast


def run_lint(tmp_path: Path, source: str, name: str = "mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return Analyzer().run([path])


def rules_fired(findings, *, include_suppressed: bool = False):
    return {
        f.rule
        for f in findings
        if include_suppressed or not f.suppressed
    }


# --------------------------------------------------------------------- #
# M3R002: unordered iteration feeding shuffle-plan/replay ordering
# --------------------------------------------------------------------- #

M3R002_BAD = """
def build_plan(destinations):
    order = []
    for dest in set(destinations):
        order.append(dest)
    return order
"""

M3R002_FIXED = """
def build_plan(destinations):
    order = []
    for dest in sorted(set(destinations)):
        order.append(dest)
    return order
"""


def test_m3r002_fires_on_set_iteration_in_plan(tmp_path):
    findings = run_lint(tmp_path, M3R002_BAD)
    assert "M3R002" in rules_fired(findings)


def test_m3r002_silent_when_sorted(tmp_path):
    findings = run_lint(tmp_path, M3R002_FIXED)
    assert "M3R002" not in rules_fired(findings)


def test_m3r002_covers_dict_values_reached_from_replay(tmp_path):
    source = """
def charge(by_place):
    total = 0
    for v in by_place.values():
        total += v
    return total

def replay(plan):
    return charge(plan)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R002" in rules_fired(findings)


def test_m3r002_ignores_unrelated_code(tmp_path):
    source = """
def unrelated(d):
    return [v for v in d.values()]
"""
    findings = run_lint(tmp_path, source)
    assert "M3R002" not in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R003: ImmutableOutput attribute writes outside builders
# --------------------------------------------------------------------- #

M3R003_BAD = """
class ImmutableOutput:
    pass

class Mapper(ImmutableOutput):
    def __init__(self):
        self.count = 0

    def map(self, key, value, output, reporter):
        self.count += 1
        output.collect(key, value)
"""

M3R003_FIXED = """
class ImmutableOutput:
    pass

class Mapper(ImmutableOutput):
    def __init__(self):
        self.count = 0

    def map(self, key, value, output, reporter):
        output.collect(key, value)
"""


def test_m3r003_fires_on_post_construction_write(tmp_path):
    findings = run_lint(tmp_path, M3R003_BAD)
    assert "M3R003" in rules_fired(findings)
    (finding,) = [f for f in findings if f.rule == "M3R003"]
    assert finding.symbol == "Mapper.map"


def test_m3r003_silent_on_fixed_class(tmp_path):
    findings = run_lint(tmp_path, M3R003_FIXED)
    assert "M3R003" not in rules_fired(findings)


def test_m3r003_follows_transitive_subclassing(tmp_path):
    source = """
class ImmutableOutput:
    pass

class Base(ImmutableOutput):
    pass

class Leaf(Base):
    def poke(self):
        self.x = 1
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R003"]
    assert fired and fired[0].symbol == "Leaf.poke"


def test_m3r003_allows_init_and_configure(tmp_path):
    source = """
class ImmutableOutput:
    pass

class Mapper(ImmutableOutput):
    def __init__(self):
        self.a = 1

    def configure(self, conf):
        self.b = conf

    def with_limit(self, n):
        self.limit = n
        return self
"""
    findings = run_lint(tmp_path, source)
    assert "M3R003" not in rules_fired(findings)


M3R003_MARKED_MODULE = """
from api import ImmutableOutput, Mapper

class TokenizeMapper(Mapper, ImmutableOutput):
    def map(self, key, value, output, reporter):
        self.seen = key
"""

M3R003_UNMARKED_NAMESAKE = """
from api import Mapper

class TokenizeMapper(Mapper):
    def map(self, key, value, output, reporter):
        self.seen = key
"""


def test_m3r003_keys_classes_by_module_not_bare_name(tmp_path):
    # Two modules define a ``TokenizeMapper``; only one is ImmutableOutput.
    (tmp_path / "marked.py").write_text(M3R003_MARKED_MODULE)
    (tmp_path / "namesake.py").write_text(M3R003_UNMARKED_NAMESAKE)
    fired = [f for f in Analyzer().run([tmp_path]) if f.rule == "M3R003"]
    assert [Path(f.path).name for f in fired] == ["marked.py"]


# --------------------------------------------------------------------- #
# M3R004: swallowed broad exceptions
# --------------------------------------------------------------------- #

M3R004_BAD = """
def fragile():
    try:
        return compute()
    except Exception:
        return None
"""

M3R004_FIXED = """
def fragile(log):
    try:
        return compute()
    except Exception as exc:
        log.warning("compute failed: %s", exc)
        return None
"""


def test_m3r004_fires_on_swallowing_handler(tmp_path):
    findings = run_lint(tmp_path, M3R004_BAD)
    assert "M3R004" in rules_fired(findings)


def test_m3r004_silent_when_exception_is_reported(tmp_path):
    findings = run_lint(tmp_path, M3R004_FIXED)
    assert "M3R004" not in rules_fired(findings)


def test_m3r004_silent_on_reraise(tmp_path):
    source = """
def fragile():
    try:
        return compute()
    except Exception:
        raise
"""
    findings = run_lint(tmp_path, source)
    assert "M3R004" not in rules_fired(findings)


def test_m3r004_fires_on_bare_except(tmp_path):
    source = """
def fragile():
    try:
        return compute()
    except:
        pass
"""
    findings = run_lint(tmp_path, source)
    assert "M3R004" in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R005: package __init__ without __all__
# --------------------------------------------------------------------- #


M3R005_BAD = "from math import pi\n"

M3R005_FIXED = "from math import pi\n__all__ = ['pi']\n"


def test_m3r005_fires_on_missing_all(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(M3R005_BAD)
    findings = Analyzer().run([pkg])
    assert "M3R005" in rules_fired(findings)


def test_m3r005_silent_with_all(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(M3R005_FIXED)
    findings = Analyzer().run([pkg])
    assert "M3R005" not in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R007: lambda / local callable registered on a JobSpec
# --------------------------------------------------------------------- #

M3R007_BAD = """
def build_job(conf):
    class LocalMapper:
        def map(self, k, v, out, rep):
            out.collect(k, v)
    conf.set_mapper_class(LocalMapper)
"""

M3R007_FIXED = """
class ModuleMapper:
    def map(self, k, v, out, rep):
        out.collect(k, v)

def build_job(conf):
    conf.set_mapper_class(ModuleMapper)
"""


def test_m3r007_fires_on_local_class(tmp_path):
    findings = run_lint(tmp_path, M3R007_BAD)
    fired = [f for f in findings if f.rule == "M3R007"]
    assert fired
    assert "LocalMapper" in fired[0].message
    assert "set_mapper_class" in fired[0].message


def test_m3r007_silent_on_module_level_class(tmp_path):
    findings = run_lint(tmp_path, M3R007_FIXED)
    assert "M3R007" not in rules_fired(findings)


def test_m3r007_fires_on_inline_lambda(tmp_path):
    source = """
def build_job(conf):
    conf.set_partitioner_class(lambda k, n: hash(k) % n)
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R007"]
    assert fired and "a lambda" in fired[0].message


def test_m3r007_fires_on_name_bound_lambda_and_nested_def(tmp_path):
    source = """
def build_job(conf):
    part = lambda k, n: 0
    def combiner():
        pass
    conf.set_partitioner_class(part)
    conf.set_combiner_class(combiner)
"""
    findings = run_lint(tmp_path, source)
    fired = sorted(f.message for f in findings if f.rule == "M3R007")
    assert len(fired) == 2
    assert any("lambda 'part'" in m for m in fired)
    assert any("local function 'combiner'" in m for m in fired)


def test_m3r007_ignores_non_setter_calls(tmp_path):
    source = """
def helper(conf):
    fn = lambda: 1
    conf.register_hook(fn)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R007" not in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R009: associativity claims the reduce body belies
# --------------------------------------------------------------------- #

M3R009_BAD = """
class AssociativeReducer:
    pass

class BadSum(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        self.seen += 1
        output.collect(key, sum(values))
"""

M3R009_FIXED = """
class AssociativeReducer:
    pass

class GoodSum(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        total = 0
        for v in values:
            total += v
        output.collect(key, total)
"""


def test_m3r009_fires_on_cross_call_state(tmp_path):
    findings = run_lint(tmp_path, M3R009_BAD)
    fired = [f for f in findings if f.rule == "M3R009"]
    assert fired
    assert fired[0].symbol == "BadSum.reduce"
    assert "cross-call state" in fired[0].message


def test_m3r009_silent_on_pure_fold(tmp_path):
    findings = run_lint(tmp_path, M3R009_FIXED)
    assert "M3R009" not in rules_fired(findings)


def test_m3r009_fires_on_input_mutation(tmp_path):
    source = """
class AssociativeReducer:
    pass

class Mutator(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        values.sort()
        output.collect(key, values)
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R009"]
    assert fired and "mutates input 'values'" in fired[0].message


def test_m3r009_fires_on_arrival_order_branching(tmp_path):
    source = """
class AssociativeReducer:
    pass

class FirstWins(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        output.collect(key, values[0])
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R009"]
    assert fired and "arrival order" in fired[0].message


def test_m3r009_covers_transitive_subclasses_and_allowlist(tmp_path):
    source = """
class AssociativeReducer:
    pass

class Base(AssociativeReducer):
    pass

class Leaf(Base):
    def reduce(self, key, values, output, reporter):
        for i, v in enumerate(values):
            output.collect(key, v)
"""
    findings = run_lint(tmp_path, source)
    assert any(
        f.rule == "M3R009" and f.symbol == "Leaf.reduce" for f in findings
    )

    allow = """
ASSOCIATIVE_ALLOWLIST = frozenset({"reducers.Claimed"})

class Claimed:
    def reduce(self, key, values, output, reporter):
        self.state = key
"""
    findings = run_lint(tmp_path, allow, name="reducers.py")
    assert any(
        f.rule == "M3R009" and f.symbol == "Claimed.reduce" for f in findings
    )


def test_m3r009_unclaimed_reducer_is_free_to_do_anything(tmp_path):
    source = """
class Plain:
    def reduce(self, key, values, output, reporter):
        self.seen += 1
        output.collect(key, values[0])
"""
    findings = run_lint(tmp_path, source)
    assert "M3R009" not in rules_fired(findings)


M3R009_CLAIMED_MODULE = """
from api import AssociativeReducer, Reducer

class SumReducer(Reducer, AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        self.seen += 1
        output.collect(key, sum(values))
"""

M3R009_UNCLAIMED_NAMESAKE = """
from api import Reducer

class SumReducer(Reducer):
    def reduce(self, key, values, output, reporter):
        self.seen += 1
        output.collect(key, sum(values))
"""


def test_m3r009_keys_classes_by_module_not_bare_name(tmp_path):
    # Two modules define a ``SumReducer``; only one claims associativity.
    (tmp_path / "claimed.py").write_text(M3R009_CLAIMED_MODULE)
    (tmp_path / "namesake.py").write_text(M3R009_UNCLAIMED_NAMESAKE)
    fired = [f for f in Analyzer().run([tmp_path]) if f.rule == "M3R009"]
    assert [Path(f.path).name for f in fired] == ["claimed.py"]


# --------------------------------------------------------------------- #
# M3R010: m3r.* knob literal outside the KnobRegistry
# --------------------------------------------------------------------- #


def test_m3r010_fires_on_registered_key_literal(tmp_path):
    source = 'KEY = "m3r.cache.capacity-bytes"\n'
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R010"]
    assert fired and "use the derived constant" in fired[0].message


def test_m3r010_fires_on_unknown_key_literal(tmp_path):
    source = 'KEY = "m3r.cache.capacty-bytes"\n'  # typo
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R010"]
    assert fired and "not in the KnobRegistry" in fired[0].message


def test_m3r010_ignores_non_knob_strings(tmp_path):
    source = '\n'.join([
        'A = "m3r"',
        'B = "m3r."',
        'C = "the m3r.cache.spill knob"  # prose, not a bare key',
        'D = "M3R_BATCH"',
    ]) + '\n'
    findings = run_lint(tmp_path, source)
    assert "M3R010" not in rules_fired(findings)


def test_m3r010_exempts_the_registry_module(tmp_path):
    source = """
class KnobRegistry:
    pass

KEY = "m3r.cache.capacity-bytes"
"""
    findings = run_lint(tmp_path, source)
    assert "M3R010" not in rules_fired(findings)


def test_m3r010_src_tree_defines_keys_only_in_the_registry():
    """The acceptance criterion: every m3r.* literal in src/ lives in
    knobs.py (or carries a justified suppression)."""
    package_root = Path(repro.__file__).parent
    findings = Analyzer().run([package_root])
    active = [f for f in findings if f.rule == "M3R010" and not f.suppressed]
    assert active == [], "\n" + render_text(active)


# --------------------------------------------------------------------- #
# the fixture matrix: a rule stays only with a fixture
# --------------------------------------------------------------------- #

# Rows are (rule, fires, source[, file name]).  A row's test id carries its
# index, so a retired rule's rows are replaced in place (M3R002/M3R003 sit
# where M3R006's rows were, M3R004/M3R005 where M3R008's were) and new rows
# are appended: the surviving ids never shift.
_MATRIX = [
    ("M3R002", True, M3R002_BAD),
    ("M3R002", False, M3R002_FIXED),
    ("M3R003", True, M3R003_BAD),
    ("M3R003", False, M3R003_FIXED),
    ("M3R007", True, M3R007_BAD),
    ("M3R007", True, """
def build(conf):
    def fmt():
        pass
    conf.set_input_format(fmt)
"""),
    ("M3R007", False, M3R007_FIXED),
    ("M3R007", False, """
def build(conf, mapper_cls):
    conf.set_mapper_class(mapper_cls)
"""),  # a parameter has module-level identity at the call site
    ("M3R004", True, M3R004_BAD),
    ("M3R004", False, M3R004_FIXED),
    ("M3R005", True, M3R005_BAD, "pkg/__init__.py"),
    ("M3R005", False, M3R005_FIXED, "pkg/__init__.py"),
    ("M3R009", True, M3R009_BAD),
    ("M3R009", True, """
class AssociativeReducer:
    pass

class Popper(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        values.pop()
"""),
    ("M3R009", False, M3R009_FIXED),
    ("M3R009", False, """
class AssociativeReducer:
    pass

class MaxReducer(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        best = None
        for v in values:
            if best is None or v > best:
                best = v
        output.collect(key, best)
"""),
    ("M3R010", True, 'KEY = "m3r.shuffle.real-threads"\n'),
    ("M3R010", True, 'conf = {"m3r.no.such.knob": 1}\n'),
    ("M3R010", False, 'ENV = "M3R_CONF_STRICT"\n'),
    ("M3R010", False, 'DOC = "set the m3r.cache.spill knob to false"\n'),
]


@pytest.mark.parametrize(
    "row",
    _MATRIX,
    ids=[
        f"{row[0]}-{'tp' if row[1] else 'fp'}-{i}"
        for i, row in enumerate(_MATRIX)
    ],
)
def test_rule_matrix(tmp_path, row):
    rule, fires, source, *name = row
    findings = run_lint(tmp_path, source, *name)
    if fires:
        assert rule in rules_fired(findings)
    else:
        assert rule not in rules_fired(findings)


def _documented_rule_ids(text: str, heading: str = "") -> set:
    """The rule ids heading the rows of the rule table in ``text`` (in
    the section under ``heading``, when given): lines that start with an
    id, bare or as a markdown table cell."""
    if heading:
        text = text[text.index(heading) + len(heading):]
        text = re.split(r"^#{1,6} ", text, maxsplit=1, flags=re.MULTILINE)[0]
    return set(re.findall(r"^\|? ?`?(M3R\d{3})\b", text, re.MULTILINE))


def test_every_rule_has_fixtures_and_is_documented():
    """ROADMAP item 6's contract: a rule ships only with a firing and a
    silent fixture, and the catalog, the rules.py docstring, DESIGN.md
    §10.1 and the README all list the same ids."""
    import repro.analysis.rules as rules_module

    live = {rule.id for rule in default_rules()}
    assert live == {
        "M3R002", "M3R003", "M3R004", "M3R005", "M3R007", "M3R009", "M3R010",
    }
    assert {row[0] for row in _MATRIX if row[1]} == live
    assert {row[0] for row in _MATRIX if not row[1]} == live

    repo_root = Path(repro.__file__).parent.parent.parent
    design = (repo_root / "DESIGN.md").read_text(encoding="utf-8")
    readme = (repo_root / "README.md").read_text(encoding="utf-8")
    assert _documented_rule_ids(rules_module.__doc__) == live
    assert _documented_rule_ids(design, "### 10.1") == live
    assert _documented_rule_ids(readme, "## Analysis & sanitizers") == live


# --------------------------------------------------------------------- #
# the KnobRegistry
# --------------------------------------------------------------------- #


def test_knob_registry_names_are_unique_and_prefixed():
    from repro.analysis.knobs import KNOB_PREFIX, REGISTRY

    names = list(REGISTRY.names())
    assert len(names) == len(set(names))
    assert all(name.startswith(KNOB_PREFIX) for name in names)
    assert len(REGISTRY) == len(names)


def test_knob_registry_constants_cover_conf_constants():
    from repro.analysis.knobs import REGISTRY

    constants = REGISTRY.constants()
    assert constants["REAL_THREADS_KEY"] == "m3r.engine.real-threads"  # noqa: M3R010 - asserting the literal mapping
    # Every constant maps to a registered key, and conf re-exports it.
    import repro.api.conf as conf

    for const_name, key in constants.items():
        assert key in REGISTRY
        assert getattr(conf, const_name) == key


def test_knob_registry_env_aliases_match_conf():
    from repro.analysis.knobs import REGISTRY
    import repro.api.conf as conf

    assert REGISTRY.get(conf.TRACE_PATH_KEY).env == conf.TRACE_PATH_ENV
    assert REGISTRY.get(conf.RESTORE_ENABLED_KEY).env == conf.RESTORE_ENV
    assert REGISTRY.get(conf.CONF_STRICT_KEY).env == conf.CONF_STRICT_ENV


def test_knob_registry_markdown_table_lists_public_knobs():
    from repro.analysis.knobs import REGISTRY, render_markdown_table

    table = render_markdown_table()
    lines = [l for l in table.splitlines() if l.startswith("|")]
    public = [k for k in REGISTRY if not k.internal]
    assert len(lines) == len(public) + 2  # header + separator
    for knob in public:
        assert f"`{knob.name}`" in table
    for knob in REGISTRY:
        if knob.internal:
            assert f"`{knob.name}`" not in table


# --------------------------------------------------------------------- #
# noqa suppression
# --------------------------------------------------------------------- #


_M3R002_LINE = "for dest in set(destinations):"


def test_noqa_suppresses_specific_rule(tmp_path):
    source = M3R002_BAD.replace(
        _M3R002_LINE, _M3R002_LINE + "  # noqa: M3R002 - test justification"
    )
    findings = run_lint(tmp_path, source)
    m3r002 = [f for f in findings if f.rule == "M3R002"]
    assert m3r002 and all(f.suppressed for f in m3r002)


def test_bare_noqa_suppresses_everything_on_line(tmp_path):
    source = M3R002_BAD.replace(_M3R002_LINE, _M3R002_LINE + "  # noqa")
    findings = run_lint(tmp_path, source)
    assert all(f.suppressed for f in findings if f.rule == "M3R002")


def test_noqa_for_other_rule_does_not_suppress(tmp_path):
    source = M3R002_BAD.replace(
        _M3R002_LINE, _M3R002_LINE + "  # noqa: M3R004"
    )
    findings = run_lint(tmp_path, source)
    assert any(
        f.rule == "M3R002" and not f.suppressed for f in findings
    )


def test_noqa_multi_code_suppresses_each_listed_rule(tmp_path):
    # One line firing two rules, both listed comma-separated.
    source = """
def build_plan(conf):
    order = []
    for dest in set(conf.get("m3r.no.such.knob")):  # noqa: M3R002, M3R010 - listed together
        order.append(dest)
    return order
"""
    findings = run_lint(tmp_path, source)
    assert rules_fired(findings, include_suppressed=True) == {
        "M3R002", "M3R010",
    }
    assert all(f.suppressed for f in findings)


def test_noqa_multi_code_with_trailing_prose(tmp_path):
    # The regression the old pattern had: the justification prose after
    # the last code must not corrupt the code list.
    from repro.analysis.linter import _suppressed_codes

    assert _suppressed_codes(
        "x = 1  # noqa: M3R003,M3R004 and a justification why"
    ) == ["M3R003", "M3R004"]
    assert _suppressed_codes("x = 1  # noqa: M3R003 - reason") == ["M3R003"]
    assert _suppressed_codes("x = 1  # noqa: m3r003") == ["M3R003"]
    assert _suppressed_codes("x = 1  # NOQA: M3R003 ,  M3R002") == [
        "M3R003", "M3R002",
    ]


def test_noqa_bare_and_edge_forms(tmp_path):
    from repro.analysis.linter import _suppressed_codes

    assert _suppressed_codes("x = 1") is None
    assert _suppressed_codes("x = 1  # noqa") == []
    assert _suppressed_codes("x = 1  # noqa - because") == []
    # A colon with no parseable code suppresses nothing (flake8
    # semantics) rather than degrading to suppress-all.
    assert _suppressed_codes("x = 1  # noqa: because reasons") == ["<invalid>"]
    # "noqald" or similar words must not count as a noqa comment.
    assert _suppressed_codes("x = 1  # noqald: M3R002") is None


def test_noqa_invalid_code_list_does_not_suppress(tmp_path):
    source = M3R002_BAD.replace(
        _M3R002_LINE, _M3R002_LINE + "  # noqa: not a code"
    )
    findings = run_lint(tmp_path, source)
    assert any(f.rule == "M3R002" and not f.suppressed for f in findings)


# --------------------------------------------------------------------- #
# reporters
# --------------------------------------------------------------------- #


def test_text_report_mentions_location_and_counts(tmp_path):
    findings = run_lint(tmp_path, M3R002_BAD)
    text = render_text(findings)
    assert "mod.py" in text and "M3R002" in text
    assert "active" in text and "suppressed" in text


def test_json_report_shape(tmp_path):
    from repro.analysis.report import REPORT_SCHEMA_VERSION

    findings = run_lint(tmp_path, M3R002_BAD)
    document = json.loads(render_json(findings))
    assert document["schema_version"] == REPORT_SCHEMA_VERSION == 2
    assert document["counts"]["total"] == len(findings)
    entry = document["findings"][0]
    for field in ("rule", "path", "line", "col", "symbol", "message",
                  "suppressed", "fingerprint"):
        assert field in entry
    assert document == findings_to_document(findings)


# --------------------------------------------------------------------- #
# call graph
# --------------------------------------------------------------------- #


def test_call_graph_reachability():
    tree = ast.parse(
        """
def leaf(x):
    return x

def body(i):
    return leaf(i)

def driver(scope):
    scope.run(body, 1)
"""
    )
    graph = build_call_graph([("mod.py", tree)])
    assert [fn.qualname for fn in graph.functions] == ["leaf", "body", "driver"]
    reachable = graph.reachable_from(["body", "no_such_function"])
    assert reachable == {"body", "leaf"}


# --------------------------------------------------------------------- #
# the self-gate: the shipped tree must be clean
# --------------------------------------------------------------------- #


def test_shipped_source_tree_has_zero_unsuppressed_findings():
    package_root = Path(repro.__file__).parent
    findings = Analyzer().run([package_root])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n" + render_text(active)
