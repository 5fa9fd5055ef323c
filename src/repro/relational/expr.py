"""The expression language Pig and Jaql share, and their script lexing.

One tokenizer, one seven-level precedence parser and one evaluator serve
both front-ends.  What differs between the languages is data on a
:class:`Dialect` — which words are keywords, how an atom that is not a
literal parses, which values coerce to numbers, and how a leaf (a Pig
field, a Jaql path, key, aggregate or object) resolves — so this module
never asks which language called it.

Grammar (keywords are matched by the dialect; ``and``/``or``/``not`` are
their canonical spellings)::

    expr    := or
    or      := and ('or' and)*
    and     := not ('and' not)*
    not     := 'not' not | cmp
    cmp     := add (('=='|'!='|'<='|'>='|'<'|'>') add)?
    add     := mul (('+'|'-') mul)*
    mul     := unary (('*'|'/'|'%') unary)*
    unary   := '-' unary | atom
    atom    := NUMBER | STRING | '(' expr ')' | <the dialect's atoms>

The AST is plain tuples: ``("lit", value)``, ``("un", op, a)``,
``("bin", op, a, b)`` and whatever leaf nodes the dialect's atoms build.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, List, Optional, Pattern, Tuple

Token = Tuple[str, str]


class ExprError(ValueError):
    """Raised for malformed expressions or evaluation type errors."""


class Dialect:
    """What one language supplies to the shared core and job classes.

    Subclasses set these attributes and are used as classes, never
    instantiated, so a job conf carries one by reference (a module-level
    class fingerprints by name).
    """

    #: Words that are keywords; a match is canonicalised to lower case.
    keywords: Pattern[str]
    #: ``atom(parser, kind, text)``: any atom but a number, string or
    #: parenthesis.
    atom: Callable[["Parser", str, str], tuple]
    #: Value types that arithmetic coerces with ``float()``.
    numeric: Tuple[type, ...]
    #: Leaf node kind -> ``resolve(ast, scope)``.
    leaves: Dict[str, Callable[[tuple, Any], Any]]
    #: ``decode(line, schema)``: one encoded row -> the scope its
    #: expressions evaluate against.
    decode: Callable[[str, Any], Any]
    #: ``encode_key(value)``: a grouping key's text form.
    encode_key: Callable[[Any], str]
    #: Type of a sort value -> the shuffle key class it sorts as.
    sort_keys: Dict[type, type]


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<NUMBER>\d+\.?\d*(?:[eE][+-]?\d+)?)
      | '(?P<sq>[^']*)'
      | "(?P<dq>[^"]*)"
      | (?P<PATH>\$(?:\.[A-Za-z_][A-Za-z_0-9]*)*)
      | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<OP>==|!=|<=|>=|<|>|\+|-|\*|/|%|\(|\)|\{|\}|:|,)
    )""",
    re.VERBOSE,
)


def tokenize(text: str, dialect: type) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprError(f"cannot tokenize expression at: {rest!r}")
        kind = match.lastgroup
        value = match.group(kind)
        if kind in ("sq", "dq"):
            kind = "STRING"
        elif kind == "NAME" and dialect.keywords.fullmatch(value):
            kind, value = "KW", value.lower()
        tokens.append((kind, value))
        pos = match.end()
    tokens.append(("EOF", ""))
    return tokens


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            ">": operator.gt, "<=": operator.le, ">=": operator.ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "%": operator.mod}


class Parser:
    """Recursive descent over a token list; atoms beyond the shared ones
    are delegated to the dialect."""

    def __init__(self, tokens: List[Token], dialect: type):
        self._tokens = tokens
        self._pos = 0
        self._dialect = dialect

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def take(self) -> Token:
        token = self._tokens[self._pos]
        if token[0] != "EOF":
            self._pos += 1
        return token

    def expect(self, op: str) -> None:
        kind, text = self.take()
        if (kind, text) != ("OP", op):
            raise ExprError(f"expected {op!r}, found {text!r}")

    def parse(self) -> tuple:
        ast = self.expr()
        if self.peek()[0] != "EOF":
            raise ExprError(f"trailing tokens from {self.peek()[1]!r}")
        return ast

    def expr(self) -> tuple:
        return self._chain("KW", ("or",), self._and)

    def _and(self) -> tuple:
        return self._chain("KW", ("and",), self._not)

    def _not(self) -> tuple:
        if self.peek() == ("KW", "not"):
            self.take()
            return ("un", "not", self._not())
        return self._cmp()

    def _cmp(self) -> tuple:
        left = self._add()
        kind, text = self.peek()
        if kind == "OP" and text in _COMPARE:
            self.take()
            return ("bin", text, left, self._add())
        return left

    def _add(self) -> tuple:
        return self._chain("OP", ("+", "-"), self._mul)

    def _mul(self) -> tuple:
        return self._chain("OP", ("*", "/", "%"), self._unary)

    def _chain(self, kind: str, ops: Tuple[str, ...],
               operand: Callable[[], tuple]) -> tuple:
        """A left-associative run of ``operand (op operand)*``."""
        left = operand()
        while self.peek()[0] == kind and self.peek()[1] in ops:
            op = self.take()[1]
            left = ("bin", op, left, operand())
        return left

    def _unary(self) -> tuple:
        if self.peek() == ("OP", "-"):
            self.take()
            return ("un", "-", self._unary())
        kind, text = self.take()
        if kind == "NUMBER":
            return ("lit", float(text))
        if kind == "STRING":
            return ("lit", text)
        if (kind, text) == ("OP", "("):
            inner = self.expr()
            self.expect(")")
            return inner
        return self._dialect.atom(self, kind, text)


def parse(text: str, dialect: type) -> tuple:
    """Parse one expression to its tuple AST."""
    return Parser(tokenize(text, dialect), dialect).parse()


def evaluate(ast: tuple, scope: Any, dialect: type) -> Any:
    """Evaluate an AST; leaves resolve against ``scope`` via the dialect."""
    kind = ast[0]
    if kind == "lit":
        return ast[1]
    if kind == "un":
        operand = evaluate(ast[2], scope, dialect)
        return not operand if ast[1] == "not" else -_number(operand, dialect)
    if kind == "bin":
        op = ast[1]
        if op == "and":
            return (bool(evaluate(ast[2], scope, dialect))
                    and bool(evaluate(ast[3], scope, dialect)))
        if op == "or":
            return (bool(evaluate(ast[2], scope, dialect))
                    or bool(evaluate(ast[3], scope, dialect)))
        left = evaluate(ast[2], scope, dialect)
        right = evaluate(ast[3], scope, dialect)
        if op in _COMPARE:
            try:
                return _COMPARE[op](left, right)
            except TypeError as exc:
                raise ExprError(f"cannot compare {left!r} {op} {right!r}") from exc
        return _ARITH[op](_number(left, dialect), _number(right, dialect))
    resolve = dialect.leaves.get(kind)
    if resolve is None:
        raise ExprError(f"bad AST node {ast!r}")
    return resolve(ast, scope)


def _number(value: Any, dialect: type) -> float:
    """Coerce an arithmetic operand, as the dialect allows."""
    if isinstance(value, dialect.numeric):
        try:
            return float(value)
        except ValueError:
            pass
    raise ExprError(f"expected a number, got {value!r}")


# -- script lexing ---------------------------------------------------------- #

def _cuts(text: str, sep: str, nested: bool) -> List[int]:
    """Where ``sep`` starts outside quotes (and, if ``nested``, outside
    brackets)."""
    cuts: List[int] = []
    depth = 0
    quote: Optional[str] = None
    i = 0
    while i < len(text):
        ch = text[i]
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif nested and ch in "({[":
            depth += 1
        elif nested and ch in ")}]":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            cuts.append(i)
            i += len(sep)
            continue
        i += 1
    return cuts


def split_top_level(text: str, sep: str) -> List[str]:
    """Split on ``sep`` outside quotes and brackets; drops empty parts."""
    parts: List[str] = []
    start = 0
    for cut in _cuts(text, sep, nested=True):
        parts.append(text[start:cut].strip())
        start = cut + len(sep)
    parts.append(text[start:].strip())
    return [part for part in parts if part]


def strip_comments(source: str, marker: str) -> str:
    """Drop each ``marker``-to-end-of-line comment outside quotes."""
    lines = []
    for line in source.splitlines():
        cut = _cuts(line, marker, nested=False)
        lines.append(line[:cut[0]] if cut else line)
    return "\n".join(lines)


def unquote(text: str, error: type) -> str:
    """The body of a quoted string, else ``error``."""
    text = text.strip()
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0]:
        return text[1:-1]
    raise error(f"expected a quoted string, got {text!r}")
