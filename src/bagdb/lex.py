"""The grammar that queries and rule programs share: the lexer, the token
plumbing of a recursive-descent parser, and the literal grammar.

``tokenize`` reads both languages in one pass; ``#`` starts a comment
only outside a string.  ``_Parser`` holds the token plumbing and the one
literal grammar: ``scalar`` reads a number or ``inf``, either with an
optional leading minus, a JSON string, ``true``, ``false`` or ``null``,
and ``parse_literal`` adds tuples, bags and tagged values.  The query
parser of ``dsl`` and the rule parser of ``pbmonad`` are subclasses of
``_Parser``, and expression constants, bag literals and rule terms all
read their constants through ``scalar``.  This module imports neither,
so ``generate`` reads its rule program without loading the query engine.
"""
from __future__ import annotations

import json
import math
import re
import sys
from json.decoder import scanstring
from typing import Callable, Optional, TypeVar

from .bags import Bag
from .errors import ParseError
from .node import Node
from .values import UNIT, BagV, Bool, Int, Real, Str, Tuple, Value, tagged

# ---------------------------------------------------------------------------
# Lexer

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")

_SYMBOLS = (
    ("|>", "PIPE"),
    ("<-", "ARROW"),  # used by the rule-program syntax, not by queries
    ("<=", "OP"),
    (">=", "OP"),
    ("!=", "OP"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("[", "LBRACK"),
    ("]", "RBRACK"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (",", "COMMA"),
    ("<", "OP"),
    (">", "OP"),
    ("=", "OP"),
    ("+", "OP"),
    ("-", "MINUS"),
    ("*", "OP"),
)


class Token(Node):
    kind: str  # IDENT INT FLOAT STRING FIELDNUM FIELDNAME PIPE ARROW OP MINUS (), [] {} COMMA EOF
    value: object
    line: int
    col: int
    end: int  # the column just after the token


def tokenize(text: str) -> list[Token]:
    """The tokens of a query or a rule program, ending in EOF.  Lines are
    counted at each newline; ``#`` starts a comment to the end of its line
    outside a string."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            kind = "STRING"
            value, size = _read_string(text, i, line, col)
        elif c == ".":
            m = _NUM_RE.match(text, i + 1)
            if m and not m.group(2) and not m.group(3):
                kind, value = "FIELDNUM", _int(m.group(0), line, col)
            else:
                m = _IDENT_RE.match(text, i + 1)
                if not m:
                    raise ParseError("expected a field number or name after '.'", line, col)
                kind, value = "FIELDNAME", m.group(0)
            size = 1 + len(m.group(0))
        elif c.isdigit():
            m = _NUM_RE.match(text, i)
            if not m:
                raise ParseError(f"bad number starting with {c!r}", line, col)
            lexeme = m.group(0)
            size = len(lexeme)
            if i + size < n and (text[i + size].isalnum() or text[i + size] in "._"):
                raise ParseError(f"invalid number {lexeme + text[i + size]!r}", line, col)
            if m.group(2) or m.group(3):
                kind, value = "FLOAT", float(lexeme)
            else:
                kind, value = "INT", _int(lexeme, line, col)
        else:
            m = _IDENT_RE.match(text, i)
            if m:
                kind, value = "IDENT", m.group(0)
            else:
                symbol = next((entry for entry in _SYMBOLS if text.startswith(entry[0], i)), None)
                if symbol is None:
                    raise ParseError(f"unexpected character {c!r}", line, col)
                value, kind = symbol
            size = len(value)  # type: ignore[arg-type]
        tokens.append(Token(kind, value, line, col, col + size))
        i += size
        col += size
    tokens.append(Token("EOF", None, line, col, col))
    return tokens


def _int(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter converts
        raise ParseError(f"integer longer than {sys.get_int_max_str_digits()} digits", line, col) from None


def _read_string(text: str, i: int, line: int, col: int) -> tuple[str, int]:
    """Read a double-quoted string with JSON escapes starting at text[i], at
    column ``col``.  It must end on its line; raw tabs are legal.  Returns
    (value, characters consumed).  The scan runs on the whole text and
    fails if it crosses a newline, which reads as the rest of the line
    would without copying that rest for every string."""
    try:
        value, end = scanstring(text, i + 1, False)
    except json.JSONDecodeError as e:
        # json's own message for this one ends "starting at"
        if e.msg.startswith("Unterminated") or "\n" in text[i : e.pos]:
            raise ParseError("unterminated string", line, col) from None
        raise ParseError(e.msg, line, col + e.pos - i) from None
    if "\n" in text[i:end]:
        raise ParseError("unterminated string", line, col)
    return value, end - i


# ---------------------------------------------------------------------------
# Parser

_NAMED = {"true": Bool(True), "false": Bool(False), "null": UNIT}

T = TypeVar("T")


class _Parser:
    """Token plumbing and the literal grammar, shared by the query parser
    of ``dsl`` and the rule-program parser of ``pbmonad``."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col, expected)

    def expect(self, kind: str, value: object = None, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = what or (value if isinstance(value, str) else kind)
            found = "end of input" if t.kind == "EOF" else repr(t.value)
            raise self.error(f"expected {want}, found {found}", (str(want),))
        return self.next()

    def keyword(self, word: str) -> Token:
        return self.expect("IDENT", word)

    def at_keyword(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.value in words

    def items(self, item: Callable[[], T], close: str) -> list[T]:
        """``item, ...`` up to the ``close`` token, which is consumed; the
        list may be empty."""
        out: list[T] = []
        if self.peek().kind != close:
            out.append(item())
            while self.peek().kind == "COMMA":
                self.next()
                out.append(item())
        self.expect(close)
        return out

    # -- literals

    def scalar(self) -> Optional[Value]:
        """A number or ``inf``, either with an optional leading minus, a
        string, ``true``, ``false`` or ``null``.  At anything else it
        returns None and consumes nothing."""
        t = self.peek()
        negate = t.kind == "MINUS"
        if negate:
            t = self.peek(1)
        if t.kind == "INT":
            v: Value = Int(-t.value if negate else t.value)  # type: ignore[operator,arg-type]
        elif t.kind == "FLOAT":
            v = Real(-t.value if negate else t.value)  # type: ignore[operator,arg-type]
        elif t.kind == "IDENT" and t.value == "inf":
            v = Real(-math.inf if negate else math.inf)
        elif negate:
            return None
        elif t.kind == "STRING":
            v = Str(t.value)  # type: ignore[arg-type]
        elif t.kind == "IDENT" and t.value in _NAMED:
            v = _NAMED[t.value]  # type: ignore[index]
        else:
            return None
        self.pos += 2 if negate else 1
        return v

    def parse_literal(self) -> Value:
        """A value inside ``bag {...}``: a scalar, a tuple ``(...)``, a bag
        ``{...}`` or a tagged value ``tag(...)``."""
        v = self.scalar()
        if v is not None:
            return v
        t = self.peek()
        if t.kind == "LPAREN":
            self.next()
            return Tuple(tuple(self.items(self.parse_literal, "RPAREN")))
        if t.kind == "LBRACE":
            self.next()
            return BagV(Bag.of(self.items(self.parse_literal, "RBRACE")))
        if t.kind == "IDENT":
            self.next()
            self.expect("LPAREN")
            return tagged(str(t.value), self.items(self.parse_literal, "RPAREN"))
        raise self.error("expected a literal")
