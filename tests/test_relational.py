"""The expression core Pig and Jaql share: both dialects agree with Python.

A generated arithmetic / comparison / boolean tree over numeric literals
is rendered once in Pig syntax (``AND``/``OR``/``NOT``) and once in Jaql
syntax (``and``/``or``/``not``), with only the parentheses precedence
requires.  Both must evaluate to what Python computes from the tree, so
the shared precedence and operator semantics are pinned for both
languages at once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jaql import evaluate_expr, parse_expr
from repro.pig import evaluate, parse_expression

PIG_WORDS = {"and": "AND", "or": "OR", "not": "NOT"}
JAQL_WORDS = {"and": "and", "or": "or", "not": "not"}

#: Binding strength per the grammar: or < and < not < cmp < add < mul < unary.
PRECEDENCE = {"or": 1, "and": 2, "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4,
              ">=": 4, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}
COMPARISONS = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}
ARITHMETIC = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}

TREES = st.recursive(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 10.0]).map(lambda v: ("num", v)),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["neg", "not"]), children),
        st.tuples(st.sampled_from(sorted(PRECEDENCE)), children, children),
    ),
    max_leaves=10,
)


def render(tree, words):
    """``tree`` in one dialect's syntax, and its precedence level."""
    kind = tree[0]
    if kind == "num":
        return repr(tree[1]), 8
    if kind in ("neg", "not"):
        operand, level = render(tree[1], words)
        own = 7 if kind == "neg" else 3
        operand = f"({operand})" if level < own else operand
        return (f"- {operand}" if kind == "neg" else f"{words['not']} {operand}"), own
    own = PRECEDENCE[kind]
    (left, left_level), (right, right_level) = (render(tree[1], words),
                                                render(tree[2], words))
    # Operators associate left; a comparison does not chain at all.
    if left_level < own or (own == 4 and left_level == 4):
        left = f"({left})"
    if right_level <= own:
        right = f"({right})"
    return f"{left} {words.get(kind, kind)} {right}", own


def python_value(tree):
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "neg":
        return -float(python_value(tree[1]))
    if kind == "not":
        return not python_value(tree[1])
    if kind == "and":
        return bool(python_value(tree[1])) and bool(python_value(tree[2]))
    if kind == "or":
        return bool(python_value(tree[1])) or bool(python_value(tree[2]))
    left, right = python_value(tree[1]), python_value(tree[2])
    if kind in COMPARISONS:
        return COMPARISONS[kind](left, right)
    return ARITHMETIC[kind](float(left), float(right))


def outcome(compute):
    try:
        value = compute()
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return (type(value).__name__, value)


@given(TREES)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_pig_and_jaql_agree_with_python(tree):
    expected = outcome(lambda: python_value(tree))
    pig_text, _ = render(tree, PIG_WORDS)
    jaql_text, _ = render(tree, JAQL_WORDS)
    assert outcome(lambda: evaluate(parse_expression(pig_text), {})) == expected, pig_text
    assert outcome(lambda: evaluate_expr(parse_expr(jaql_text), {})) == expected, jaql_text
