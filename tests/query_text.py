"""Query text from a core AST, for the parser's round-trip tests.

``pretty`` renders a query as the pipeline text that ``bagdb.dsl.parse``
reads back to the same AST.  No command prints a query, so the printer
is not shipped: it is kept only to generate query text for the parser
tests (``parse(pretty(q)) == q``).
"""
from __future__ import annotations

import json
import math

from bagdb.algebra import (
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
from bagdb.errors import EngineTypeError
from bagdb.values import UNIT, BagV, Bool, Int, Real, Str, Tagged, Tuple, Unit, Value


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
