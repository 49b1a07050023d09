"""The tree-walking interpreter that ``bagdb.algebra`` compiles away, kept
as a test oracle.

``eval_expr`` walks the expression tree for every row, and ``eval_query``
runs every operator as written: a ``select`` over a ``product`` builds the
full product, and ``match`` tests ``istag`` row by row.  The engine's
compiled expressions, tag runs and equijoin must agree with it value for
value, and raise the same errors with the same messages.
"""
from __future__ import annotations

from typing import Mapping, Optional, Union

from bagdb.algebra import (
    DEFAULT_POWERBAG_LIMIT,
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
    agg_size,
    agg_sum,
    agg_the,
    q_difference,
    q_dedup,
    q_dunion,
    q_flatten,
    q_group,
    q_group_prime,
    q_intersect,
    q_powerbag,
    q_powerset,
    q_product,
    q_project,
    q_singleton,
    q_union,
    tuple_parts,
)
from bagdb.bags import Bag
from bagdb.errors import EngineTypeError, UnknownTableError
from bagdb.values import BagV, Bool, Int, Real, Tagged, Tuple, Value, compare, tagged


def _numeric(v: Value) -> Optional[Union[int, float]]:
    if isinstance(v, (Int, Real)):
        return v.value
    return None


def eval_expr(e: Expr, row: Value) -> Value:
    if isinstance(e, Field):
        parts = tuple_parts(row)
        if not (1 <= e.index <= len(parts)):
            raise EngineTypeError(f"field .{e.index} out of range for a {len(parts)}-field row")
        return parts[e.index - 1]
    if isinstance(e, RowRef):
        return row
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Arith):
        a = eval_expr(e.left, row)
        b = eval_expr(e.right, row)
        x, y = _numeric(a), _numeric(b)
        if x is None or y is None:
            raise EngineTypeError(f"arithmetic {e.op} needs numbers, got {a!r} and {b!r}")
        try:
            if e.op == "+":
                r = x + y
            elif e.op == "-":
                r = x - y
            elif e.op == "*":
                r = x * y
            else:
                raise EngineTypeError(f"unknown arithmetic operator {e.op!r}")
        except OverflowError:  # an Int past the float range met a Real
            raise EngineTypeError(
                f"arithmetic {e.op} needs numbers that fit a float, got {a!r} and {b!r}") from None
        if isinstance(a, Int) and isinstance(b, Int):
            return Int(r)
        return Real(float(r))
    if isinstance(e, Cmp):
        a = eval_expr(e.left, row)
        b = eval_expr(e.right, row)
        x, y = _numeric(a), _numeric(b)
        if x is not None and y is not None:
            # Numbers compare by magnitude across Int/Real.
            c = (x > y) - (x < y)
        else:
            c = compare(a, b)
        op = e.op
        if op == "=":
            return Bool(c == 0)
        if op == "!=":
            return Bool(c != 0)
        if op == "<":
            return Bool(c < 0)
        if op == "<=":
            return Bool(c <= 0)
        if op == ">":
            return Bool(c > 0)
        if op == ">=":
            return Bool(c >= 0)
        raise EngineTypeError(f"unknown comparison {op!r}")
    if isinstance(e, And):
        a = _as_bool(eval_expr(e.left, row), "and")
        if not a.value:
            return Bool(False)
        return _as_bool(eval_expr(e.right, row), "and")
    if isinstance(e, Or):
        a = _as_bool(eval_expr(e.left, row), "or")
        if a.value:
            return Bool(True)
        return _as_bool(eval_expr(e.right, row), "or")
    if isinstance(e, Not):
        return Bool(not _as_bool(eval_expr(e.inner, row), "not").value)
    if isinstance(e, IsTag):
        v = eval_expr(e.inner, row)
        return Bool(isinstance(v, Tagged) and v.tag == e.tag)
    if isinstance(e, Payload):
        v = eval_expr(e.inner, row)
        if isinstance(v, Tagged) and v.tag == e.tag:
            return v.value
        raise EngineTypeError(f"payload expected tag {e.tag!r}, got {v!r}")
    if isinstance(e, MkTuple):
        return Tuple(tuple(eval_expr(it, row) for it in e.items))
    if isinstance(e, MkTagged):
        return tagged(e.tag, [eval_expr(a, row) for a in e.args])
    raise EngineTypeError(f"unknown expression node {e!r}")


def _as_bool(v: Value, where: str) -> Bool:
    if not isinstance(v, Bool):
        raise EngineTypeError(f"{where} needs a boolean, got {v!r}")
    return v


def q_map(fn: Expr, b: Bag) -> Bag:
    return b.map(lambda row: eval_expr(fn, row))


def q_select(pred: Expr, b: Bag) -> Bag:
    out = []
    for row in b:
        keep = eval_expr(pred, row)
        if not isinstance(keep, Bool):
            raise EngineTypeError(f"select predicate must return a boolean, got {keep!r}")
        if keep.value:
            out.append(row)
    return Bag(tuple(out))  # subsequence of a sorted tuple stays sorted


def eval_query(
    q: Query,
    env: Mapping[str, Bag],
    *,
    max_powerbag: int = DEFAULT_POWERBAG_LIMIT,
) -> Value:
    """Evaluate a query against named input bags.  Bag-valued results come
    back wrapped in BagV; aggregates return their scalar."""

    def go(node: Query) -> Value:
        if isinstance(node, Table):
            if node.name not in env:
                raise UnknownTableError(node.name)
            return BagV(env[node.name])
        if isinstance(node, Lit):
            return BagV(node.bag)
        if isinstance(node, Singleton):
            return BagV(q_singleton(go(node.q)))
        if isinstance(node, Flatten):
            return BagV(q_flatten(bag_of(node.q)))
        if isinstance(node, MapQ):
            return BagV(q_map(node.fn, bag_of(node.q)))
        if isinstance(node, Product):
            return BagV(q_product(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, Project):
            return BagV(q_project(node.indices, bag_of(node.q)))
        if isinstance(node, Select):
            return BagV(q_select(node.pred, bag_of(node.q)))
        if isinstance(node, DUnion):
            return BagV(q_dunion(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, Difference):
            return BagV(q_difference(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, PowerBag):
            return BagV(q_powerbag(bag_of(node.q), max_powerbag))
        if isinstance(node, Dedup):
            return BagV(q_dedup(bag_of(node.q)))
        if isinstance(node, UnionQ):
            return BagV(q_union(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, IntersectQ):
            return BagV(q_intersect(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, PowerSet):
            return BagV(q_powerset(bag_of(node.q), max_powerbag))
        if isinstance(node, Group):
            return BagV(q_group(node.key_indices, node.val_indices, bag_of(node.q)))
        if isinstance(node, GroupPrime):
            return BagV(q_group_prime(bag_of(node.q)))
        if isinstance(node, Agg):
            b = bag_of(node.q)
            if node.kind == "size":
                return agg_size(b)
            if node.kind == "the":
                return agg_the(b)
            if node.kind == "sum":
                return agg_sum(b)
            raise EngineTypeError(f"unknown aggregate {node.kind!r}")
        raise EngineTypeError(f"unknown query node {node!r}")

    def bag_of(node: Query) -> Bag:
        v = go(node)
        if not isinstance(v, BagV):
            raise EngineTypeError("expected a bag-valued subquery, got a scalar")
        return v.bag

    return go(q)
