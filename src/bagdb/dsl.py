"""Textual query language: lexer, parser, pretty printer, schema checker.

This module is also the grammar that queries and rule programs share.
``tokenize`` reads both languages in one pass; ``#`` starts a comment
only outside a string.  ``_Parser`` holds the token plumbing and the one
literal grammar: ``scalar`` reads a number or ``inf``, either with an
optional leading minus, a JSON string, ``true``, ``false`` or ``null``,
and ``parse_literal`` adds tuples, bags and tagged values.  Expression
constants, bag literals and the rule parser of ``pbmonad``, a subclass of
``_Parser``, all read their constants through ``scalar``.

The surface syntax is a pipeline: a source (``table name``, ``bag {...}``
or ``empty``) followed by ``|>`` stages, one per algebra operator.  Two
stages are sugar: ``match TAG as (a, b)`` keeps rows tagged TAG and binds
their payload fields to names, and ``joinmatch TBL TAG as (c) on (e)``
joins the current rows against the matching rows of another table.  Both
desugar to core Select/Map/Product nodes during parsing; bound names
become positional field references, so the core AST and the pretty
printer are purely positional.

Keywords are contextual: a word like ``select`` is only special where an
operator can start, so it stays usable as a table name or tag.
"""
from __future__ import annotations

import json
import math
import re
import sys
from json.decoder import scanstring
from typing import Callable, Mapping, Optional, TypeVar

from .algebra import (
    Agg,
    And,
    Arith,
    Cmp,
    Const,
    Dedup,
    Difference,
    DUnion,
    Expr,
    Field,
    Flatten,
    Group,
    GroupPrime,
    IntersectQ,
    IsTag,
    Lit,
    MapQ,
    MkTagged,
    MkTuple,
    Not,
    Or,
    Payload,
    PowerBag,
    PowerSet,
    Product,
    Project,
    Query,
    RowRef,
    Select,
    Singleton,
    Table,
    UnionQ,
)
from .bags import EMPTY, Bag
from .errors import EngineTypeError, ParseError, SchemaError, UnknownTableError
from .node import Node
from .values import (
    UNIT,
    BagT,
    BagV,
    Bool,
    BoolT,
    Int,
    IntT,
    Real,
    RealT,
    Schema,
    Str,
    Tagged,
    TaggedT,
    Tuple,
    TupleT,
    Unit,
    UnitT,
    Value,
    infer_schema,
    tagged,
    unify_schema,
)

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

_STAGE_OPS = (
    "map", "select", "project", "product", "dunion", "difference", "union",
    "intersect", "dedup", "powerbag", "powerset", "flatten", "singleton",
    "group", "agg", "match", "joinmatch",
)

Columns = Optional[list[Optional[str]]]

_NAMED = {"true": Bool(True), "false": Bool(False), "null": UNIT}

T = TypeVar("T")


class _Parser:
    """Token plumbing and the literal grammar, shared by the query parser
    below and the rule-program parser of ``pbmonad``."""

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

    # -- query pipeline

    def parse_query(self) -> tuple[Query, Columns]:
        q, cols = self.parse_source()
        while self.peek().kind == "PIPE":
            self.next()
            q, cols = self.parse_stage(q, cols)
        return q, cols

    def parse_source(self) -> tuple[Query, Columns]:
        if self.at_keyword("table"):
            self.next()
            name = self.expect("IDENT", what="a table name").value
            return Table(str(name)), None
        if self.at_keyword("bag"):
            self.next()
            self.expect("LBRACE")
            items = [self.parse_literal()]
            while self.peek().kind == "COMMA":
                self.next()
                items.append(self.parse_literal())
            self.expect("RBRACE")
            return Lit(Bag.of(items)), None
        if self.at_keyword("empty"):
            self.next()
            return Lit(EMPTY), None
        raise self.error("expected a query source", ("table", "bag", "empty"))

    def parse_stage(self, q: Query, cols: Columns) -> tuple[Query, Columns]:
        t = self.peek()
        if t.kind != "IDENT" or t.value not in _STAGE_OPS:
            raise self.error("expected an operator after |>", _STAGE_OPS)
        op = str(self.next().value)
        if op == "map":
            self.expect("LPAREN")
            e = self.parse_expr(cols)
            self.expect("RPAREN")
            return MapQ(e, q), None
        if op == "select":
            self.expect("LPAREN")
            e = self.parse_expr(cols)
            self.expect("RPAREN")
            return Select(e, q), cols
        if op == "project":
            fields, names = self.parse_fields(cols)
            return Project(fields, q), names
        if op == "product":
            sub, sub_cols = self.parse_subquery()
            merged = cols + sub_cols if cols is not None and sub_cols is not None else None
            return Product(q, sub), merged
        if op in ("dunion", "union", "intersect", "difference"):
            sub, sub_cols = self.parse_subquery()
            node = {"dunion": DUnion, "union": UnionQ, "intersect": IntersectQ, "difference": Difference}[op]
            if op == "difference":
                out_cols = cols
            else:
                out_cols = cols if cols == sub_cols else None
            return node(q, sub), out_cols
        if op == "dedup":
            return Dedup(q), cols
        if op == "powerbag":
            return PowerBag(q), None
        if op == "powerset":
            return PowerSet(q), None
        if op == "flatten":
            return Flatten(q), None
        if op == "singleton":
            return Singleton(q), None
        if op == "group":
            keys, _ = self.parse_fields(cols)
            vals, _ = self.parse_fields(cols)
            return Group(keys, vals, q), None
        if op == "agg":
            if not self.at_keyword("size", "the", "sum"):
                raise self.error("expected an aggregate kind", ("size", "the", "sum"))
            kind = str(self.next().value)
            return Agg(kind, q), None
        if op == "match":
            tag = str(self.expect("IDENT", what="a tag").value)
            self.keyword("as")
            names = self.parse_name_list()
            matched = Select(IsTag(RowRef(), tag), q)
            return MapQ(Payload(RowRef(), tag), matched), list(names)
        if op == "joinmatch":
            tbl = str(self.expect("IDENT", what="a table name").value)
            tag = str(self.expect("IDENT", what="a tag").value)
            self.keyword("as")
            names = self.parse_name_list()
            self.keyword("on")
            rhs = MapQ(Payload(RowRef(), tag), Select(IsTag(RowRef(), tag), Table(tbl)))
            merged: Columns = cols + list(names) if cols is not None else None
            self.expect("LPAREN")
            cond = self.parse_expr(merged)
            self.expect("RPAREN")
            return Select(cond, Product(q, rhs)), merged
        raise self.error(f"unhandled operator {op!r}")  # pragma: no cover

    def parse_subquery(self) -> tuple[Query, Columns]:
        self.expect("LPAREN")
        q, cols = self.parse_query()
        self.expect("RPAREN")
        return q, cols

    def parse_name_list(self) -> list[str]:
        self.expect("LPAREN")
        names = [str(self.expect("IDENT", what="a column name").value)]
        while self.peek().kind == "COMMA":
            self.next()
            names.append(str(self.expect("IDENT", what="a column name").value))
        self.expect("RPAREN")
        return names

    def parse_fields(self, cols: Columns) -> tuple[tuple[int, ...], Columns]:
        """``[f, ...]`` where each f is a 1-based index or a bound name."""
        self.expect("LBRACK")
        indices: list[int] = []
        names: list[Optional[str]] = []
        while True:
            t = self.peek()
            if t.kind == "INT":
                self.next()
                if t.value < 1:
                    raise ParseError("field indices are 1-based", t.line, t.col)
                indices.append(int(t.value))  # type: ignore[arg-type]
                names.append(None)
            elif t.kind == "IDENT":
                self.next()
                indices.append(self.resolve_name(str(t.value), cols, t))
                names.append(str(t.value))
            else:
                raise self.error("expected a field index or column name")
            if self.peek().kind == "COMMA":
                self.next()
                continue
            break
        self.expect("RBRACK")
        return tuple(indices), names

    def resolve_name(self, name: str, cols: Columns, t: Token) -> int:
        if cols is None:
            raise ParseError(f"unbound column name {name!r} (no columns in scope)", t.line, t.col)
        for i, c in enumerate(cols):
            if c == name:
                return i + 1
        raise ParseError(f"unbound column name {name!r}", t.line, t.col)

    # -- expressions

    def parse_expr(self, cols: Columns) -> Expr:
        return self.parse_or(cols)

    def parse_or(self, cols: Columns) -> Expr:
        e = self.parse_and(cols)
        while self.at_keyword("or"):
            self.next()
            e = Or(e, self.parse_and(cols))
        return e

    def parse_and(self, cols: Columns) -> Expr:
        e = self.parse_not(cols)
        while self.at_keyword("and"):
            self.next()
            e = And(e, self.parse_not(cols))
        return e

    def parse_not(self, cols: Columns) -> Expr:
        if self.at_keyword("not"):
            self.next()
            return Not(self.parse_not(cols))
        return self.parse_cmp(cols)

    def parse_cmp(self, cols: Columns) -> Expr:
        e = self.parse_add(cols)
        t = self.peek()
        if t.kind == "OP" and t.value in ("<", "<=", "=", "!=", ">", ">="):
            self.next()
            return Cmp(str(t.value), e, self.parse_add(cols))
        return e

    def parse_add(self, cols: Columns) -> Expr:
        e = self.parse_mul(cols)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.value == "+":
                self.next()
                e = Arith("+", e, self.parse_mul(cols))
            elif t.kind == "MINUS":
                self.next()
                e = Arith("-", e, self.parse_mul(cols))
            else:
                return e

    def parse_mul(self, cols: Columns) -> Expr:
        e = self.parse_unary(cols)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.value == "*":
                self.next()
                e = Arith("*", e, self.parse_unary(cols))
            else:
                return e

    def parse_unary(self, cols: Columns) -> Expr:
        v = self.scalar()
        if v is not None:
            return Const(v)
        if self.peek().kind == "MINUS":
            self.next()
            return Arith("-", Const(Int(0)), self.parse_unary(cols))
        return self.parse_atom(cols)

    def parse_atom(self, cols: Columns) -> Expr:
        t = self.peek()
        if t.kind == "FIELDNUM":
            self.next()
            if t.value < 1:  # type: ignore[operator]
                raise ParseError("field indices are 1-based", t.line, t.col)
            return Field(int(t.value))  # type: ignore[arg-type]
        if t.kind == "FIELDNAME":
            self.next()
            return Field(self.resolve_name(str(t.value), cols, t))
        if t.kind == "LPAREN":
            self.next()
            first = self.parse_expr(cols)
            if self.peek().kind == "COMMA":
                items = [first]
                while self.peek().kind == "COMMA":
                    self.next()
                    items.append(self.parse_expr(cols))
                self.expect("RPAREN")
                return MkTuple(tuple(items))
            self.expect("RPAREN")
            return first
        if t.kind == "IDENT":
            word = str(t.value)
            if word == "row":
                self.next()
                return RowRef()
            if word in ("istag", "payload"):
                self.next()
                self.expect("LPAREN")
                inner = self.parse_expr(cols)
                self.expect("COMMA")
                tag = str(self.expect("IDENT", what="a tag").value)
                self.expect("RPAREN")
                return IsTag(inner, tag) if word == "istag" else Payload(inner, tag)
            # tagged construction: IDENT "(" args ")"
            self.next()
            self.expect("LPAREN")
            return MkTagged(word, tuple(self.items(lambda: self.parse_expr(cols), "RPAREN")))
        raise self.error("expected an expression")


def parse(text: str) -> Query:
    p = _Parser(tokenize(text))
    q, _ = p.parse_query()
    p.expect("EOF", what="end of query")
    return q


# ---------------------------------------------------------------------------
# Pretty printer


def pretty(q: Query) -> str:
    """Pipeline rendering of a core AST; parse(pretty(q)) == q."""
    if isinstance(q, Table):
        return f"table {q.name}"
    if isinstance(q, Lit):
        if q.bag.is_empty:
            return "empty"
        return "bag {" + ", ".join(_pp_lit(v) for v in q.bag) + "}"
    if isinstance(q, Singleton):
        return f"{pretty(q.q)} |> singleton"
    if isinstance(q, Flatten):
        return f"{pretty(q.q)} |> flatten"
    if isinstance(q, MapQ):
        return f"{pretty(q.q)} |> map ({_pp_expr(q.fn)})"
    if isinstance(q, Select):
        return f"{pretty(q.q)} |> select ({_pp_expr(q.pred)})"
    if isinstance(q, Project):
        return f"{pretty(q.q)} |> project [{', '.join(str(i) for i in q.indices)}]"
    if isinstance(q, Product):
        return f"{pretty(q.q1)} |> product ({pretty(q.q2)})"
    if isinstance(q, DUnion):
        return f"{pretty(q.q1)} |> dunion ({pretty(q.q2)})"
    if isinstance(q, Difference):
        return f"{pretty(q.q1)} |> difference ({pretty(q.q2)})"
    if isinstance(q, UnionQ):
        return f"{pretty(q.q1)} |> union ({pretty(q.q2)})"
    if isinstance(q, IntersectQ):
        return f"{pretty(q.q1)} |> intersect ({pretty(q.q2)})"
    if isinstance(q, PowerBag):
        return f"{pretty(q.q)} |> powerbag"
    if isinstance(q, PowerSet):
        return f"{pretty(q.q)} |> powerset"
    if isinstance(q, Dedup):
        return f"{pretty(q.q)} |> dedup"
    if isinstance(q, Group):
        ks = ", ".join(str(i) for i in q.key_indices)
        vs = ", ".join(str(i) for i in q.val_indices)
        return f"{pretty(q.q)} |> group [{ks}] [{vs}]"
    if isinstance(q, GroupPrime):
        raise EngineTypeError("group-by-equality has no surface syntax; build it via the AST")
    if isinstance(q, Agg):
        return f"{pretty(q.q)} |> agg {q.kind}"
    raise EngineTypeError(f"cannot pretty-print {q!r}")


def _pp_lit(v: Value) -> str:
    if isinstance(v, Int):
        return str(v.value)
    if isinstance(v, Real):
        if math.isinf(v.value):
            return "inf" if v.value > 0 else "-inf"
        return repr(v.value)
    if isinstance(v, Bool):
        return "true" if v.value else "false"
    if isinstance(v, Str):
        return json.dumps(v.value)
    if isinstance(v, Unit):
        return "null"
    if isinstance(v, Tuple):
        return "(" + ", ".join(_pp_lit(x) for x in v.items) + ")"
    if isinstance(v, Tagged):
        if v.value == UNIT:
            return f"{v.tag}()"
        if isinstance(v.value, Tuple) and len(v.value.items) > 1:
            return f"{v.tag}(" + ", ".join(_pp_lit(x) for x in v.value.items) + ")"
        # 0- and 1-tuples stay wrapped so the payload survives the parse
        return f"{v.tag}({_pp_lit(v.value)})"
    if isinstance(v, BagV):
        return "{" + ", ".join(_pp_lit(x) for x in v.bag) + "}"
    raise EngineTypeError(f"cannot print literal {v!r}")


def _compound(e: Expr) -> bool:
    return isinstance(e, (Arith, Cmp, And, Or, Not))


def _pp_operand(e: Expr) -> str:
    s = _pp_expr(e)
    return f"({s})" if _compound(e) else s


def _pp_expr(e: Expr) -> str:
    if isinstance(e, Field):
        return f".{e.index}"
    if isinstance(e, RowRef):
        return "row"
    if isinstance(e, Const):
        return _pp_lit(e.value)
    if isinstance(e, Arith):
        return f"{_pp_operand(e.left)} {e.op} {_pp_operand(e.right)}"
    if isinstance(e, Cmp):
        return f"{_pp_operand(e.left)} {e.op} {_pp_operand(e.right)}"
    if isinstance(e, And):
        return f"{_pp_operand(e.left)} and {_pp_operand(e.right)}"
    if isinstance(e, Or):
        return f"{_pp_operand(e.left)} or {_pp_operand(e.right)}"
    if isinstance(e, Not):
        return f"not {_pp_operand(e.inner)}"
    if isinstance(e, IsTag):
        return f"istag({_pp_expr(e.inner)}, {e.tag})"
    if isinstance(e, Payload):
        return f"payload({_pp_expr(e.inner)}, {e.tag})"
    if isinstance(e, MkTuple):
        return "(" + ", ".join(_pp_expr(x) for x in e.items) + ")"
    if isinstance(e, MkTagged):
        return f"{e.tag}(" + ", ".join(_pp_expr(x) for x in e.args) + ")"
    raise EngineTypeError(f"cannot pretty-print expression {e!r}")


# ---------------------------------------------------------------------------
# Schema checker

RowSchema = Optional[Schema]  # None = row type unknown (no rows observed)


def check(q: Query, catalog: Mapping[str, Optional[Schema]]) -> Schema:
    """Compute the result schema of a query, or raise a type error.

    Catalog values may be row schemas or BagT table schemas; None marks a
    table whose rows were never observed: an empty input, or the world
    table of ``estimate``, whose rows are only known once it is sampled.
    """
    rows: dict[str, RowSchema] = {}
    for name, s in catalog.items():
        rows[name] = s.elem if isinstance(s, BagT) else s

    def go(node: Query) -> Schema:
        s = go_opt(node)
        return s if s is not None else BagT(None)

    def go_opt(node: Query) -> Optional[Schema]:
        if isinstance(node, Table):
            if node.name not in rows:
                raise UnknownTableError(node.name)
            return BagT(rows[node.name])
        if isinstance(node, Lit):
            return infer_schema(BagV(node.bag))
        if isinstance(node, Singleton):
            return BagT(go_opt(node.q))
        if isinstance(node, Flatten):
            elem = _elem(go_opt(node.q), "flatten")
            if elem is None:
                return BagT(None)
            if not isinstance(elem, BagT):
                raise EngineTypeError("flatten needs a bag of bags")
            return elem
        if isinstance(node, MapQ):
            elem = _elem(go_opt(node.q), "map")
            return BagT(expr_schema(node.fn, elem)) if elem is not None else BagT(None)
        if isinstance(node, Product):
            e1 = _elem(go_opt(node.q1), "product")
            e2 = _elem(go_opt(node.q2), "product")
            if e1 is None or e2 is None:
                return BagT(None)
            return BagT(TupleT(_parts(e1) + _parts(e2)))
        if isinstance(node, Project):
            elem = _elem(go_opt(node.q), "project")
            if elem is None:
                return BagT(None)
            parts = _parts(elem)
            picked = []
            for i in node.indices:
                if not (1 <= i <= len(parts)):
                    raise EngineTypeError(f"project field .{i} out of range for arity {len(parts)}")
                picked.append(parts[i - 1])
            return BagT(picked[0] if len(picked) == 1 else TupleT(tuple(picked)))
        if isinstance(node, Select):
            s = go_opt(node.q)
            elem = _elem(s, "select")
            if elem is not None:
                ps = expr_schema(node.pred, elem)
                if ps is not None and not isinstance(ps, BoolT):
                    raise EngineTypeError("select predicate must be boolean")
                return BagT(_narrow(node.pred, elem))
            return s
        if isinstance(node, (DUnion, UnionQ)):
            e1 = _elem(go_opt(node.q1), "dunion")
            e2 = _elem(go_opt(node.q2), "dunion")
            if e1 is None:
                return BagT(e2)
            if e2 is None:
                return BagT(e1)
            return BagT(unify_schema(e1, e2))
        if isinstance(node, (Difference, IntersectQ)):
            e1 = _elem(go_opt(node.q1), "difference")
            _elem(go_opt(node.q2), "difference")
            return BagT(e1)
        if isinstance(node, (PowerBag, PowerSet)):
            elem = _elem(go_opt(node.q), "powerbag")
            return BagT(BagT(elem))
        if isinstance(node, Dedup):
            return BagT(_elem(go_opt(node.q), "dedup"))
        if isinstance(node, Group):
            elem = _elem(go_opt(node.q), "group")
            if elem is None:
                return BagT(None)
            parts = _parts(elem)
            for i in node.key_indices + node.val_indices:
                if not (1 <= i <= len(parts)):
                    raise EngineTypeError(f"group field .{i} out of range for arity {len(parts)}")
            ks = [parts[i - 1] for i in node.key_indices]
            vs = [parts[i - 1] for i in node.val_indices]
            key = ks[0] if len(ks) == 1 else TupleT(tuple(ks))
            val = vs[0] if len(vs) == 1 else TupleT(tuple(vs))
            return BagT(TupleT((key, BagT(val))))
        if isinstance(node, GroupPrime):
            elem = _elem(go_opt(node.q), "group")
            return BagT(BagT(elem))
        if isinstance(node, Agg):
            elem = _elem(go_opt(node.q), f"agg {node.kind}")
            if node.kind == "size":
                return IntT()
            if node.kind == "the":
                return elem  # None: unknown; an empty bag fails when evaluated
            if node.kind == "sum":
                if elem is None:
                    return IntT()
                if isinstance(elem, (IntT, RealT)):
                    return elem
                raise EngineTypeError("sum needs a bag of numbers")
            raise EngineTypeError(f"unknown aggregate {node.kind!r}")
        raise EngineTypeError(f"unknown query node {node!r}")

    def _elem(s: Optional[Schema], where: str) -> RowSchema:
        if s is None:
            return None
        if not isinstance(s, BagT):
            raise EngineTypeError(f"{where} needs a bag input, got a scalar")
        return s.elem

    return go(q)


def _parts(s: Schema) -> tuple[Schema, ...]:
    return s.items if isinstance(s, TupleT) else (s,)


def _narrow(pred: Expr, row: Schema) -> Schema:
    """The row schema of the rows a select with predicate ``pred`` keeps:
    each conjunct ``istag(row, t)`` or ``istag(.i, t)`` leaves only the
    variant ``t`` of that sum type, so a later ``payload(_, t)`` is safe."""
    if isinstance(pred, And):
        return _narrow(pred.right, _narrow(pred.left, row))
    if not isinstance(pred, IsTag):
        return row

    def only(s: Schema) -> Schema:
        if isinstance(s, TaggedT) and s.get(pred.tag) is not None:
            return TaggedT(((pred.tag, s.get(pred.tag)),))
        return s

    if isinstance(pred.inner, RowRef):
        return only(row)
    if isinstance(pred.inner, Field) and isinstance(row, TupleT):
        i = pred.inner.index - 1
        if 0 <= i < len(row.items):
            return TupleT(row.items[:i] + (only(row.items[i]),) + row.items[i + 1 :])
    return row


def expr_schema(e: Expr, row: RowSchema) -> Optional[Schema]:
    """Schema of an expression over rows of the given schema; None when it
    cannot be determined (only happens over rows never observed)."""
    if isinstance(e, Field):
        if row is None:
            return None
        parts = _parts(row)
        if not (1 <= e.index <= len(parts)):
            raise EngineTypeError(f"field .{e.index} out of range for arity {len(parts)}")
        return parts[e.index - 1]
    if isinstance(e, RowRef):
        return row
    if isinstance(e, Const):
        return infer_schema(e.value)
    if isinstance(e, Arith):
        s1 = expr_schema(e.left, row)
        s2 = expr_schema(e.right, row)
        if s1 is None or s2 is None:
            return None
        if not isinstance(s1, (IntT, RealT)) or not isinstance(s2, (IntT, RealT)):
            raise EngineTypeError(f"arithmetic {e.op} needs numbers")
        if isinstance(s1, IntT) and isinstance(s2, IntT):
            return IntT()
        return RealT()
    if isinstance(e, Cmp):
        expr_schema(e.left, row)
        expr_schema(e.right, row)
        return BoolT()
    if isinstance(e, (And, Or)):
        for side in (e.left, e.right):
            s = expr_schema(side, row)
            if s is not None and not isinstance(s, BoolT):
                raise EngineTypeError("boolean connective needs boolean operands")
        return BoolT()
    if isinstance(e, Not):
        s = expr_schema(e.inner, row)
        if s is not None and not isinstance(s, BoolT):
            raise EngineTypeError("not needs a boolean operand")
        return BoolT()
    if isinstance(e, IsTag):
        expr_schema(e.inner, row)
        return BoolT()
    if isinstance(e, Payload):
        s = expr_schema(e.inner, row)
        if s is None:
            return None
        if not isinstance(s, TaggedT):
            raise EngineTypeError(f"payload needs a tagged value, got {s!r}")
        payload = s.get(e.tag)
        if payload is None:
            raise EngineTypeError(f"tag {e.tag!r} is not a variant of {s!r}")
        if len(s.variants) > 1:
            # a row of another variant would fail at run time
            raise EngineTypeError(
                f"payload {e.tag!r} of {s!r} needs a select on istag(_, {e.tag}) first"
            )
        return payload
    if isinstance(e, MkTuple):
        items = [expr_schema(x, row) for x in e.items]
        if any(s is None for s in items):
            return None
        return TupleT(tuple(items))  # type: ignore[arg-type]
    if isinstance(e, MkTagged):
        args = [expr_schema(x, row) for x in e.args]
        if any(s is None for s in args):
            return None
        if len(args) == 0:
            payload: Schema = UnitT()
        elif len(args) == 1:
            payload = args[0]  # type: ignore[assignment]
        else:
            payload = TupleT(tuple(args))  # type: ignore[arg-type]
        return TaggedT.of({e.tag: payload})
    raise EngineTypeError(f"unknown expression node {e!r}")
