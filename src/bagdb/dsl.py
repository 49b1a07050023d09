"""Textual query language: parser and schema checker.

The lexer and the literal grammar, which rule programs share, are in
``lex``; the query parser is a subclass of its ``_Parser``, and ``Token``
and ``tokenize`` are imported from there.

The surface syntax is a pipeline: a source (``table name``, ``bag {...}``
or ``empty``) followed by ``|>`` stages, one per algebra operator.  Two
stages are sugar: ``match TAG as (a, b)`` keeps rows tagged TAG and binds
their payload fields to names, and ``joinmatch TBL TAG as (c) on (e)``
joins the current rows against the matching rows of another table.  Both
desugar to core Select/Map/Product nodes during parsing; bound names
become positional field references, so the core AST is purely
positional.

Keywords are contextual: a word like ``select`` is only special where an
operator can start, so it stays usable as a table name or tag.
"""
from __future__ import annotations

from typing import Mapping, Optional

from .algebra import (
    AGG_KINDS,
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
from .errors import EngineTypeError, ParseError, UnknownTableError
from .lex import Token, _Parser, tokenize
from .values import (
    BagT,
    BagV,
    BoolT,
    Int,
    IntT,
    RealT,
    Schema,
    TaggedT,
    TupleT,
    UnitT,
    infer_schema,
    unify_schema,
)

# ---------------------------------------------------------------------------
# Parser

_STAGE_OPS = (
    "map", "select", "project", "product", "dunion", "difference", "union",
    "intersect", "dedup", "powerbag", "powerset", "flatten", "singleton",
    "group", "agg", "match", "joinmatch",
)

Columns = Optional[list[Optional[str]]]


class _QueryParser(_Parser):
    """The query pipeline and its expressions, on ``lex``'s token plumbing
    and literal grammar."""

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
            if not self.at_keyword(*AGG_KINDS):
                raise self.error("expected an aggregate kind", AGG_KINDS)
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
    p = _QueryParser(tokenize(text))
    q, _ = p.parse_query()
    p.expect("EOF", what="end of query")
    return q


# ---------------------------------------------------------------------------
# Schema checker

RowSchema = Optional[Schema]  # None = row type unknown (no rows observed)


def check(q: Query, catalog: Mapping[str, Optional[Schema]]) -> Schema:
    """Compute the result schema of a query, or raise a type error.

    Catalog values may be row schemas or BagT table schemas; None marks a
    table whose rows were never observed: an empty input, or the world
    table of ``estimate``, whose rows are only known once it is sampled.
    """
    rows = {name: s.elem if isinstance(s, BagT) else s for name, s in catalog.items()}
    s = _schema(q, rows)
    return s if s is not None else BagT(None)


def _schema(node: Query, rows: Mapping[str, RowSchema]) -> Optional[Schema]:
    """The schema of ``node``'s result, None if unknown.  A module-level
    function, not a closure that calls itself, so that a check leaves no
    reference cycle."""
    if isinstance(node, Table):
        if node.name not in rows:
            raise UnknownTableError(node.name)
        return BagT(rows[node.name])
    if isinstance(node, Lit):
        return infer_schema(BagV(node.bag))
    if isinstance(node, Singleton):
        return BagT(_schema(node.q, rows))
    if isinstance(node, Flatten):
        elem = _elem(_schema(node.q, rows), "flatten")
        if elem is None:
            return BagT(None)
        if not isinstance(elem, BagT):
            raise EngineTypeError("flatten needs a bag of bags")
        return elem
    if isinstance(node, MapQ):
        elem = _elem(_schema(node.q, rows), "map")
        return BagT(expr_schema(node.fn, elem)) if elem is not None else BagT(None)
    if isinstance(node, Product):
        e1 = _elem(_schema(node.q1, rows), "product")
        e2 = _elem(_schema(node.q2, rows), "product")
        if e1 is None or e2 is None:
            return BagT(None)
        return BagT(TupleT(_parts(e1) + _parts(e2)))
    if isinstance(node, Project):
        elem = _elem(_schema(node.q, rows), "project")
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
        s = _schema(node.q, rows)
        elem = _elem(s, "select")
        if elem is not None:
            ps = expr_schema(node.pred, elem)
            if ps is not None and not isinstance(ps, BoolT):
                raise EngineTypeError("select predicate must be boolean")
            return BagT(_narrow(node.pred, elem))
        return s
    if isinstance(node, (DUnion, UnionQ)):
        e1 = _elem(_schema(node.q1, rows), "dunion")
        e2 = _elem(_schema(node.q2, rows), "dunion")
        if e1 is None:
            return BagT(e2)
        if e2 is None:
            return BagT(e1)
        return BagT(unify_schema(e1, e2))
    if isinstance(node, (Difference, IntersectQ)):
        e1 = _elem(_schema(node.q1, rows), "difference")
        _elem(_schema(node.q2, rows), "difference")
        return BagT(e1)
    if isinstance(node, (PowerBag, PowerSet)):
        elem = _elem(_schema(node.q, rows), "powerbag")
        return BagT(BagT(elem))
    if isinstance(node, Dedup):
        return BagT(_elem(_schema(node.q, rows), "dedup"))
    if isinstance(node, Group):
        elem = _elem(_schema(node.q, rows), "group")
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
        elem = _elem(_schema(node.q, rows), "group")
        return BagT(BagT(elem))
    if isinstance(node, Agg):
        elem = _elem(_schema(node.q, rows), f"agg {node.kind}")
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
