"""Tests for the static lint half of repro.analysis.

Each rule gets a fixture pair: a known-bad snippet it must fire on, and
the fixed version it must stay silent on.  The suite also covers the
``# noqa`` suppression convention, the reporters, the fixture contract
(a rule stays only with a fixture) and the self-gate: ``src/repro``,
``tests`` and ``benchmarks`` must be clean.
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
# the fixture matrix: a rule stays only with a fixture
# --------------------------------------------------------------------- #

# Rows are (rule, fires, source), keyed by the number their test id
# carries.  Like rule ids, a row number is never reused: a retired rule's
# rows leave a gap (2-3 were M3R003's, 8-19 M3R004's, M3R005's, M3R009's
# and M3R010's), so the surviving ids never shift.
_MATRIX = {
    0: ("M3R002", True, M3R002_BAD),
    1: ("M3R002", False, M3R002_FIXED),
    4: ("M3R007", True, M3R007_BAD),
    5: ("M3R007", True, """
def build(conf):
    def fmt():
        pass
    conf.set_input_format(fmt)
"""),
    6: ("M3R007", False, M3R007_FIXED),
    7: ("M3R007", False, """
def build(conf, mapper_cls):
    conf.set_mapper_class(mapper_cls)
"""),  # a parameter has module-level identity at the call site
}


@pytest.mark.parametrize(
    "row",
    list(_MATRIX.values()),
    ids=[
        f"{rule}-{'tp' if fires else 'fp'}-{number}"
        for number, (rule, fires, _) in _MATRIX.items()
    ],
)
def test_rule_matrix(tmp_path, row):
    rule, fires, source = row
    findings = run_lint(tmp_path, source)
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
    assert live == {"M3R002", "M3R007"}
    assert {rule for rule, fires, _ in _MATRIX.values() if fires} == live
    assert {rule for rule, fires, _ in _MATRIX.values() if not fires} == live

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
    assert constants["REAL_THREADS_KEY"] == "m3r.engine.real-threads"
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


def test_every_public_knob_has_a_reader():
    """A knob needs a caller: each public key's constant is loaded inside
    some function under ``src/repro`` (the registry and the constant block
    that derives it do not count), except the two retired rows, which are
    accepted and ignored on purpose.  A knob cannot outlive its last
    reader."""
    import ast

    import repro
    from repro.analysis.knobs import REGISTRY

    package = Path(repro.__file__).parent
    read: set = set()
    for path in package.rglob("*.py"):
        if path == package / "analysis" / "knobs.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read.update(
                    node.id
                    for node in ast.walk(function)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                )
    retired = {"REAL_THREADS_KEY", "SHUFFLE_REAL_THREADS_KEY"}
    unread = [
        knob.name
        for knob in REGISTRY
        if not knob.internal
        and knob.constant not in retired
        and knob.constant not in read
    ]
    assert unread == []


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
        _M3R002_LINE, _M3R002_LINE + "  # noqa: M3R007"
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
    for dest in set(conf.set_mapper_class(lambda: None)):  # noqa: M3R002, M3R007 - listed together
        order.append(dest)
    return order
"""
    findings = run_lint(tmp_path, source)
    assert rules_fired(findings, include_suppressed=True) == {
        "M3R002", "M3R007",
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
# the self-gate: the shipped trees must be clean
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("root", ["repro", "tests", "benchmarks"])
def test_shipped_source_tree_has_zero_unsuppressed_findings(root):
    """``python -m repro analyze`` and ``analyze tests benchmarks`` exit 0:
    every finding in the package, the tests and the benchmarks carries
    its ``# noqa`` at the line."""
    package_root = Path(repro.__file__).parent
    repo_root = package_root.parent.parent
    path = package_root if root == "repro" else repo_root / root
    findings = Analyzer().run([path])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n" + render_text(active)
