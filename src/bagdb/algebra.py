"""The bag query algebra: row expressions, the query AST, and evaluation.

Operators come in two layers.  The primitive layer (singleton, flatten,
map, product, project, select, dunion, difference, powerbag, dedup) is
implemented directly; the derived layer (union, intersect, powerset,
group, group') is defined by composition of primitives so the two layers
cannot drift apart.  ``*_by_fold`` variants restate some primitives as
explicit folds; tests cross-check them against the fast versions.

``eval_query`` runs a ``select`` directly over a ``product`` as a hash
equijoin when the predicate starts with ``.i = .j``, one field from each
side: its cost grows with the input plus the output instead of with the
full product.  The equality matches numbers across Int and Real, as ``=``
does.  Every other ``select`` over a ``product`` still builds the full
product; ``q_select`` over ``q_product`` stays the reference for both.

Rows are plain values.  A tuple row has fields 1..n; any other value is
treated as a one-field row, so ``.1`` on a scalar row is the row itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Mapping, Optional, Union

from .bags import EMPTY, Bag, counts, unit
from .errors import (
    EmptyAggregateError,
    EngineTypeError,
    ResourceLimitError,
    UnknownTableError,
)
from .values import BagV, Bool, Int, Real, Tagged, Tuple, Value, compare, tagged

DEFAULT_POWERBAG_LIMIT = 1 << 20

AGG_KINDS = ("size", "the", "sum")

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*")


def tuple_parts(row: Value) -> tuple[Value, ...]:
    """Fields of a row; non-tuple rows have exactly one field."""
    if isinstance(row, Tuple):
        return row.items
    return (row,)


# ---------------------------------------------------------------------------
# Row expressions


class Expr:
    pass


@dataclass(frozen=True)
class Field(Expr):
    """1-based field access on the current row."""

    index: int


@dataclass(frozen=True)
class RowRef(Expr):
    """The whole current row."""


@dataclass(frozen=True)
class Const(Expr):
    value: Value


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # one of + - *
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # one of = != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    inner: Expr


@dataclass(frozen=True)
class IsTag(Expr):
    inner: Expr
    tag: str


@dataclass(frozen=True)
class Payload(Expr):
    inner: Expr
    tag: str


@dataclass(frozen=True)
class MkTuple(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class MkTagged(Expr):
    tag: str
    args: tuple[Expr, ...]


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
        if e.op == "+":
            r = x + y
        elif e.op == "-":
            r = x - y
        elif e.op == "*":
            r = x * y
        else:
            raise EngineTypeError(f"unknown arithmetic operator {e.op!r}")
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


# ---------------------------------------------------------------------------
# Query AST


class Query:
    pass


@dataclass(frozen=True)
class Table(Query):
    name: str


@dataclass(frozen=True)
class Lit(Query):
    bag: Bag


@dataclass(frozen=True)
class Singleton(Query):
    q: Query


@dataclass(frozen=True)
class Flatten(Query):
    q: Query


@dataclass(frozen=True)
class MapQ(Query):
    fn: Expr
    q: Query


@dataclass(frozen=True)
class Product(Query):
    q1: Query
    q2: Query


@dataclass(frozen=True)
class Project(Query):
    indices: tuple[int, ...]
    q: Query


@dataclass(frozen=True)
class Select(Query):
    pred: Expr
    q: Query


@dataclass(frozen=True)
class DUnion(Query):
    q1: Query
    q2: Query


@dataclass(frozen=True)
class Difference(Query):
    q1: Query
    q2: Query


@dataclass(frozen=True)
class PowerBag(Query):
    q: Query


@dataclass(frozen=True)
class Dedup(Query):
    q: Query


@dataclass(frozen=True)
class UnionQ(Query):
    q1: Query
    q2: Query


@dataclass(frozen=True)
class IntersectQ(Query):
    q1: Query
    q2: Query


@dataclass(frozen=True)
class PowerSet(Query):
    q: Query


@dataclass(frozen=True)
class Group(Query):
    key_indices: tuple[int, ...]
    val_indices: tuple[int, ...]
    q: Query


@dataclass(frozen=True)
class GroupPrime(Query):
    q: Query


@dataclass(frozen=True)
class Agg(Query):
    kind: str  # size | the | sum
    q: Query


# ---------------------------------------------------------------------------
# Operator implementations


def q_singleton(x: Value) -> Bag:
    return unit(x)


def q_flatten(b: Bag) -> Bag:
    return b.flatten()


def q_map(fn: Expr, b: Bag) -> Bag:
    return b.map(lambda row: eval_expr(fn, row))


def q_product(b1: Bag, b2: Bag) -> Bag:
    """All pairings, concatenating fields.  Rows of each side must agree
    on arity within that side."""
    _check_uniform_arity(b1, "product (left)")
    _check_uniform_arity(b2, "product (right)")
    out = []
    for x in b1:
        px = tuple_parts(x)
        for y in b2:
            out.append(Tuple(px + tuple_parts(y)))
    return Bag.of(out)


def q_equijoin(pred: Expr, b1: Bag, b2: Bag) -> Bag:
    """``q_select(pred, q_product(b1, b2))`` for a predicate whose leftmost
    conjunct is ``.i = .j``.  When the two fields come one from each side,
    only the pairs that satisfy the equality are built: every other pair
    makes ``pred`` false before any later conjunct runs, so the result and
    the errors are those of the full product."""
    _check_uniform_arity(b1, "product (left)")
    _check_uniform_arity(b2, "product (right)")
    if b1.is_empty or b2.is_empty:
        return EMPTY
    fields = _leading_equality(pred)
    n1 = len(tuple_parts(b1.elements[0]))
    n2 = len(tuple_parts(b2.elements[0]))
    if fields is None or not (1 <= fields[0] <= n1 < fields[1] <= n1 + n2):
        return q_select(pred, q_product(b1, b2))
    i, j = fields[0] - 1, fields[1] - n1 - 1
    index: dict[object, list[tuple[Value, ...]]] = {}
    for y in b2:
        py = tuple_parts(y)
        index.setdefault(_join_key(py[j]), []).append(py)
    matched = []
    for x in b1:
        px = tuple_parts(x)
        for py in index.get(_join_key(px[i]), ()):
            matched.append(Tuple(px + py))
    return q_select(pred, Bag.of(matched))


def _leading_equality(pred: Expr) -> Optional[tuple[int, int]]:
    """The two field indices, in ascending order, of ``.i = .j`` when it is
    the conjunct ``pred`` evaluates first."""
    while isinstance(pred, And):
        pred = pred.left
    if (
        isinstance(pred, Cmp)
        and pred.op == "="
        and isinstance(pred.left, Field)
        and isinstance(pred.right, Field)
    ):
        i, j = pred.left.index, pred.right.index
        return (i, j) if i <= j else (j, i)
    return None


def _join_key(v: Value) -> tuple:
    """Equal exactly when ``=`` holds: numbers by magnitude across Int and
    Real (so -0.0 joins 0.0, but 2**53 + 1 does not join 2.0**53), every
    other value by its canonical key, whose ranks are never negative."""
    if isinstance(v, (Int, Real)):
        return (-1, v.value)
    return v.key


def _check_uniform_arity(b: Bag, where: str) -> None:
    arity = None
    for row in b:
        a = len(tuple_parts(row))
        if arity is None:
            arity = a
        elif a != arity:
            raise EngineTypeError(f"{where}: rows mix arity {arity} and {a}")


def q_project(indices: tuple[int, ...], b: Bag) -> Bag:
    if not indices:
        raise EngineTypeError("project needs at least one field")
    out = []
    for row in b:
        parts = tuple_parts(row)
        for i in indices:
            if not (1 <= i <= len(parts)):
                raise EngineTypeError(f"project field .{i} out of range for a {len(parts)}-field row")
        picked = tuple(parts[i - 1] for i in indices)
        out.append(picked[0] if len(picked) == 1 else Tuple(picked))
    return Bag.of(out)


def q_select(pred: Expr, b: Bag) -> Bag:
    out = []
    for row in b:
        keep = eval_expr(pred, row)
        if not isinstance(keep, Bool):
            raise EngineTypeError(f"select predicate must return a boolean, got {keep!r}")
        if keep.value:
            out.append(row)
    return Bag(tuple(out))  # subsequence of a sorted tuple stays sorted


def q_dunion(b1: Bag, b2: Bag) -> Bag:
    return b1.uplus(b2)


def q_difference(b1: Bag, b2: Bag) -> Bag:
    """Multiset difference: multiplicities subtract and clamp at zero."""
    out: list[Value] = []
    for v, n in counts(b1):
        m = n - b2.count(v)
        if m > 0:
            out.extend([v] * m)
    return Bag(tuple(out))


def difference_by_fold(b1: Bag, b2: Bag) -> Bag:
    """Difference as the fold of single removals over the subtrahend."""
    return b2.fold(lambda x, acc: acc.remove(x), b1)


def q_powerbag(b: Bag, max_results: int = DEFAULT_POWERBAG_LIMIT) -> Bag:
    """All sub-bags, one per subset of element occurrences (2^n of them)."""
    if b.size >= 64 or (1 << b.size) > max_results:
        raise ResourceLimitError(
            f"powerbag of a {b.size}-element bag would produce 2^{b.size} sub-bags "
            f"(limit {max_results})"
        )
    subs: list[tuple[Value, ...]] = [()]
    for x in b.elements:  # canonical order, so each prefix stays sorted
        subs += [s + (x,) for s in subs]
    return Bag.of(BagV(Bag(s)) for s in subs)


def powerbag_by_fold(b: Bag) -> Bag:
    """Powerbag as a fold: each element doubles the accumulator, adding
    itself to the copy."""

    def acc(x: Value, b0: Bag) -> Bag:
        return b0.uplus(b0.map(lambda s: BagV(s.bag.add(x))))  # type: ignore[union-attr]

    return b.fold(acc, unit(BagV(EMPTY)))


def q_dedup(b: Bag) -> Bag:
    return Bag(tuple(v for v, _ in counts(b)))


def dedup_by_fold(b: Bag) -> Bag:
    """Dedup as a fold: insert x after filtering existing copies out."""

    def acc(x: Value, bb: Bag) -> Bag:
        filtered = Bag(tuple(e for e in bb.elements if e != x))
        return filtered.add(x)

    return b.fold(acc, EMPTY)


def q_union(b1: Bag, b2: Bag) -> Bag:
    """Max of multiplicities, defined as dunion over a difference."""
    return q_dunion(b1, q_difference(b2, b1))


def q_intersect(b1: Bag, b2: Bag) -> Bag:
    """Min of multiplicities, defined by double difference."""
    return q_difference(b1, q_difference(b1, b2))


def q_powerset(b: Bag, max_results: int = DEFAULT_POWERBAG_LIMIT) -> Bag:
    """Distinct sub-bags: dedup of the powerbag."""
    return q_dedup(q_powerbag(b, max_results))


def q_group(key_indices: tuple[int, ...], val_indices: tuple[int, ...], b: Bag) -> Bag:
    """Group rows by a key projection; each output row is (key, bag of
    value projections)."""
    groups: dict[Value, list[Value]] = {}
    for row in b:
        parts = tuple_parts(row)
        for i in key_indices + val_indices:
            if not (1 <= i <= len(parts)):
                raise EngineTypeError(f"group field .{i} out of range for a {len(parts)}-field row")
        kp = tuple(parts[i - 1] for i in key_indices)
        vp = tuple(parts[i - 1] for i in val_indices)
        key = kp[0] if len(kp) == 1 else Tuple(kp)
        val = vp[0] if len(vp) == 1 else Tuple(vp)
        groups.setdefault(key, []).append(val)
    return Bag.of(Tuple((k, BagV(Bag.of(vs)))) for k, vs in groups.items())


def q_group_prime(b: Bag) -> Bag:
    """Group equal elements: one bag per distinct element, holding all its
    copies."""
    return Bag.of(BagV(Bag(tuple([v] * n))) for v, n in counts(b))


def agg_size(b: Bag) -> Value:
    return Int(b.size)


def agg_the(b: Bag) -> Value:
    """First element in canonical order; errors on the empty bag."""
    if b.is_empty:
        raise EmptyAggregateError("`the` applied to an empty bag")
    return b.elements[0]


def agg_sum(b: Bag) -> Value:
    """Sum of a bag of numbers.  All-Int input sums to Int; any Real makes
    the result Real.  The empty sum is Int 0."""
    total_i = 0
    total_f = 0.0
    saw_real = False
    for v in b:
        if isinstance(v, Int):
            total_i += v.value
        elif isinstance(v, Real):
            saw_real = True
            total_f += v.value
        else:
            raise EngineTypeError(f"sum needs numbers, got {v!r}")
    if saw_real:
        return Real(total_i + total_f)
    return Int(total_i)


# ---------------------------------------------------------------------------
# Evaluation


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
            if isinstance(node.q, Product) and _leading_equality(node.pred) is not None:
                return BagV(q_equijoin(node.pred, bag_of(node.q.q1), bag_of(node.q.q2)))
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
