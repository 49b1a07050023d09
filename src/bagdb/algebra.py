"""The bag query algebra: row expressions, the query AST, and evaluation.

Operators come in two layers.  The primitive layer (singleton, flatten,
map, product, project, select, dunion, difference, powerbag, dedup) is
implemented directly; the derived layer (union, intersect, powerset,
group, group') is defined by composition of primitives so the two layers
cannot drift apart.  Tests cross-check some primitives against explicit
folds, kept with them in ``tests/dual_routes.py``.

Each row expression is compiled once into nested closures
(``compile_expr``); ``select`` and ``map`` run the compiled form, and
``eval_expr(e, row)`` is ``compile_expr(e)(row)``.  A predicate built from
comparisons, ``istag``, ``not``, ``and`` and ``or`` yields a Python bool
per row, not a Bool value.  Rule guards compare through the same
``cmp_holds``.

``eval_query`` reads ``match t as (...)``, the payloads of a
``select istag(row, t)``, as the payloads of the sorted bag's one run of
rows tagged ``t`` (``Bag.payload_run``), already in key order; the
``select`` itself is not run.  It runs a ``select`` directly over a
``product`` as a hash equijoin on the first conjunct that is ``.i = .j``,
one field from each side, provided that no conjunct before it can raise:
each is built from comparisons, ``istag``, ``not``, ``and``, ``or``,
constants, the row and fields in range (``_cannot_raise``).  Its cost
grows with the input plus the output instead of with the full product.
The equality matches numbers across Int and Real, as ``=`` does.  Every
other ``select`` over a ``product`` still builds the full product.  The
tree-walking interpreter these replace, with ``eval_query`` running every
operator as written, is kept as the test oracle in
``tests/reference_algebra.py``.

Rows are plain values.  A tuple row has fields 1..n; any other value is
treated as a one-field row, so ``.1`` on a scalar row is the row itself.
"""
from __future__ import annotations

from itertools import compress
from operator import add, eq, ge, gt, le, lt, mul, ne, sub
from typing import Callable, Iterator, Mapping, Optional

from .bags import EMPTY, Bag, counts, unit
from .errors import (
    EmptyAggregateError,
    EngineTypeError,
    ResourceLimitError,
    UnknownTableError,
)
from .node import Node
from .values import BagV, Bool, Int, Real, Tagged, Tuple, Value, tagged

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


class Expr(Node):
    pass


class Field(Expr):
    """1-based field access on the current row."""

    index: int


class RowRef(Expr):
    """The whole current row."""


class Const(Expr):
    value: Value


class Arith(Expr):
    op: str  # one of + - *
    left: Expr
    right: Expr


class Cmp(Expr):
    op: str  # one of = != < <= > >=
    left: Expr
    right: Expr


class And(Expr):
    left: Expr
    right: Expr


class Or(Expr):
    left: Expr
    right: Expr


class Not(Expr):
    inner: Expr


class IsTag(Expr):
    inner: Expr
    tag: str


class Payload(Expr):
    inner: Expr
    tag: str


class MkTuple(Expr):
    items: tuple[Expr, ...]


class MkTagged(Expr):
    tag: str
    args: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Compiled row expressions
#
# ``compile_expr`` turns an expression into nested closures once; the
# closure is stored in the frozen node's ``__dict__``, outside its fields,
# so the node's ``==``, hash and repr do not see it.  A node that always
# yields a Bool (Cmp, IsTag, Not, And, Or, or a Const Bool) also has a
# test form, ``row -> bool``, which ``select`` and the connectives run so
# that no Bool is built per row.  Every closure raises what the tree walk
# it replaces raised, with the same message, in the same order; unknown
# nodes and operators raise when evaluated, not when compiled.

Compiled = Callable[[Value], Value]
RowTest = Callable[[Value], bool]

_NUMBERS = (Int, Real)
_TRUE, _FALSE = Bool(True), Bool(False)


def _comparison(test: Callable[[object, object], bool]) -> Callable[[Value, Value], bool]:
    def holds(a: Value, b: Value) -> bool:
        if isinstance(a, _NUMBERS) and isinstance(b, _NUMBERS):
            return test(a.value, b.value)  # numbers by magnitude across Int/Real
        return test(a.key, b.key)  # everything else in the canonical order

    return holds


_COMPARISONS = dict(zip(CMP_OPS, map(_comparison, (eq, ne, lt, le, gt, ge))))
_ARITHMETIC = dict(zip(ARITH_OPS, (add, sub, mul)))


def cmp_holds(op: str, a: Value, b: Value) -> bool:
    """Whether ``a op b`` holds.  Numbers compare by magnitude across Int
    and Real; all other values in the canonical order of ``compare``.  The
    compiled ``Cmp`` binds the same per-operator test once; rule guards
    call this directly."""
    holds = _COMPARISONS.get(op)
    if holds is None:
        raise EngineTypeError(f"unknown comparison {op!r}")
    return holds(a, b)


def eval_expr(e: Expr, row: Value) -> Value:
    return compile_expr(e)(row)


def _memo(e: Expr) -> dict:
    """Where ``e``'s compiled forms are kept: its ``__dict__``.  Anything
    that is not a node compiles to a closure that raises, kept nowhere."""
    return e.__dict__ if isinstance(e, Expr) else {}


# Each level of an expression costs one Python frame while it is compiled,
# as it did in the tree walk: the chains the parser builds without
# parentheses (``not not ...``, ``a and b and ...``, ``1 + 2 + ...``)
# recurse from ``compile_expr`` or ``_predicate`` straight into itself.


def compile_expr(e: Expr) -> Compiled:
    """The closure ``row -> Value`` that evaluates ``e``, built at most once
    per node."""
    memo = _memo(e)
    fn = memo.get("_compiled")
    if fn is not None:
        return fn
    if isinstance(e, Const):
        v = e.value
        fn = lambda row: v
    elif (test := _predicate(e)) is not None:
        fn = lambda row: _TRUE if test(row) else _FALSE
    elif isinstance(e, Field):
        fn = _field(e.index)
    elif isinstance(e, RowRef):
        fn = lambda row: row
    elif isinstance(e, Arith):
        fn = _arith(e.op, compile_expr(e.left), compile_expr(e.right))
    elif isinstance(e, Payload):
        fn = _payload(e.tag, compile_expr(e.inner))
    elif isinstance(e, MkTuple):
        items = tuple(map(compile_expr, e.items))
        fn = lambda row: Tuple(tuple([f(row) for f in items]))
    elif isinstance(e, MkTagged):
        tag, args = e.tag, tuple(map(compile_expr, e.args))
        fn = lambda row: tagged(tag, [f(row) for f in args])
    else:
        fn = _unknown(e)
    memo["_compiled"] = fn
    return fn


def _predicate(e: Expr) -> Optional[RowTest]:
    """The test form ``row -> bool`` of a node that always yields a Bool:
    Cmp, IsTag, Not, And, Or or a Const Bool.  None for any other node."""
    memo = _memo(e)
    if "_test" in memo:
        return memo["_test"]
    test: Optional[RowTest] = None
    if isinstance(e, Const):
        if isinstance(e.value, Bool):
            b = e.value.value
            test = lambda row: b
    elif isinstance(e, Cmp):
        test = _cmp(e.op, compile_expr(e.left), compile_expr(e.right))
    elif isinstance(e, (And, Or)):
        what = f"{'and' if isinstance(e, And) else 'or'} needs a boolean"
        first = _predicate(e.left) or _checked(e.left, what)
        then = _predicate(e.right) or _checked(e.right, what)
        if isinstance(e, And):
            test = lambda row: first(row) and then(row)
        else:
            test = lambda row: first(row) or then(row)
    elif isinstance(e, Not):
        inner = _predicate(e.inner) or _checked(e.inner, "not needs a boolean")
        test = lambda row: not inner(row)
    elif isinstance(e, IsTag):
        test = _istag(e.tag, None if isinstance(e.inner, RowRef) else compile_expr(e.inner))
    memo["_test"] = test
    return test


def _checked(e: Expr, what: str) -> RowTest:
    """``e`` as a test for a node that may yield any value: anything but a
    Bool raises ``"{what}, got {value!r}"``."""
    fn = compile_expr(e)

    def checked(row: Value) -> bool:
        v = fn(row)
        if not isinstance(v, Bool):
            raise EngineTypeError(f"{what}, got {v!r}")
        return v.value

    return checked


def _cmp(op: str, left: Compiled, right: Compiled) -> RowTest:
    holds = _COMPARISONS.get(op)
    if holds is None:  # raises once both operands are evaluated
        return lambda row: cmp_holds(op, left(row), right(row))
    return lambda row: holds(left(row), right(row))


def _istag(tag: str, inner: Optional[Compiled]) -> RowTest:
    if inner is None:  # istag(row, t)
        return lambda row: isinstance(row, Tagged) and row.tag == tag

    def istag(row: Value) -> bool:
        v = inner(row)
        return isinstance(v, Tagged) and v.tag == tag

    return istag


def _field(index: int) -> Compiled:
    k = index - 1

    def field(row: Value) -> Value:
        parts = row.items if isinstance(row, Tuple) else (row,)
        if 0 <= k < len(parts):
            return parts[k]
        raise EngineTypeError(f"field .{index} out of range for a {len(parts)}-field row")

    return field


def _arith(op: str, left: Compiled, right: Compiled) -> Compiled:
    f = _ARITHMETIC.get(op)

    def arith(row: Value) -> Value:
        a, b = left(row), right(row)
        if not (isinstance(a, _NUMBERS) and isinstance(b, _NUMBERS)):
            raise EngineTypeError(f"arithmetic {op} needs numbers, got {a!r} and {b!r}")
        if f is None:
            raise EngineTypeError(f"unknown arithmetic operator {op!r}")
        try:
            r = f(a.value, b.value)
        except OverflowError:  # an Int past the float range met a Real
            raise EngineTypeError(f"arithmetic {op} needs numbers that fit a float, got {a!r} and {b!r}") from None
        if isinstance(a, Int) and isinstance(b, Int):
            return Int(r)
        return Real(float(r))

    return arith


def _payload(tag: str, inner: Compiled) -> Compiled:
    def payload(row: Value) -> Value:
        v = inner(row)
        if isinstance(v, Tagged) and v.tag == tag:
            return v.value
        raise EngineTypeError(f"payload expected tag {tag!r}, got {v!r}")

    return payload


def _unknown(e: object) -> Compiled:
    def unknown(row: Value) -> Value:
        raise EngineTypeError(f"unknown expression node {e!r}")

    return unknown


# ---------------------------------------------------------------------------
# Query AST


class Query(Node):
    pass


class Table(Query):
    name: str


class Lit(Query):
    bag: Bag


class Singleton(Query):
    q: Query


class Flatten(Query):
    q: Query


class MapQ(Query):
    fn: Expr
    q: Query


class Product(Query):
    q1: Query
    q2: Query


class Project(Query):
    indices: tuple[int, ...]
    q: Query


class Select(Query):
    pred: Expr
    q: Query


class DUnion(Query):
    q1: Query
    q2: Query


class Difference(Query):
    q1: Query
    q2: Query


class PowerBag(Query):
    q: Query


class Dedup(Query):
    q: Query


class UnionQ(Query):
    q1: Query
    q2: Query


class IntersectQ(Query):
    q1: Query
    q2: Query


class PowerSet(Query):
    q: Query


class Group(Query):
    key_indices: tuple[int, ...]
    val_indices: tuple[int, ...]
    q: Query


class GroupPrime(Query):
    q: Query


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
    return b.map(compile_expr(fn))


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
    """``q_select(pred, q_product(b1, b2))``, building only the pairs that
    satisfy the equality ``_join_fields`` finds in ``pred``, if any: every
    other pair makes ``pred`` false without raising, so the result and the
    errors are those of the full product."""
    _check_uniform_arity(b1, "product (left)")
    _check_uniform_arity(b2, "product (right)")
    if b1.is_empty or b2.is_empty:
        return EMPTY
    n1 = len(tuple_parts(b1.elements[0]))
    n2 = len(tuple_parts(b2.elements[0]))
    fields = _join_fields(pred, n1, n2)
    if fields is None:
        return q_select(pred, q_product(b1, b2))
    i, j = fields
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


def _join_fields(pred: Expr, n1: int, n2: int) -> Optional[tuple[int, int]]:
    """For rows of ``n1`` fields joined with rows of ``n2``: the 0-based
    field on each side of the first conjunct of ``pred`` that is ``.i = .j``
    with one field from each side, provided that no conjunct evaluated
    before it can raise (``_cannot_raise``).  Else None."""
    for c in _conjuncts(pred):
        if (
            isinstance(c, Cmp)
            and c.op == "="
            and isinstance(c.left, Field)
            and isinstance(c.right, Field)
        ):
            i, j = sorted((c.left.index, c.right.index))
            if 1 <= i <= n1 < j <= n1 + n2:
                return i - 1, j - n1 - 1
        if not _cannot_raise(c, n1 + n2):
            return None
    return None


def _conjuncts(pred: Expr) -> Iterator[Expr]:
    """The operands of the ``and`` tree at the top of ``pred``, in the
    order it evaluates them."""
    stack = [pred]
    while stack:
        e = stack.pop()
        if isinstance(e, And):
            stack += (e.right, e.left)
        else:
            yield e


def _cannot_raise(e: Expr, arity: int) -> bool:
    """Whether ``e`` yields a Bool without raising on every row of ``arity``
    fields, judged from its syntax alone: it is built from Cmp, IsTag, Not,
    And and Or; the operands of Not, And and Or are such nodes or a Const
    Bool; the leaves are Consts, the row, and fields in range."""
    if isinstance(e, Const):
        return isinstance(e.value, Bool)
    if isinstance(e, Not):
        return _cannot_raise(e.inner, arity)
    if isinstance(e, (And, Or)):
        return _cannot_raise(e.left, arity) and _cannot_raise(e.right, arity)
    if isinstance(e, IsTag):
        return _operand_cannot_raise(e.inner, arity)
    if isinstance(e, Cmp):
        return (
            e.op in _COMPARISONS
            and _operand_cannot_raise(e.left, arity)
            and _operand_cannot_raise(e.right, arity)
        )
    return False


def _operand_cannot_raise(e: Expr, arity: int) -> bool:
    if isinstance(e, Const):
        return isinstance(e.value, Value)
    if isinstance(e, RowRef):
        return True
    if isinstance(e, Field):
        return 1 <= e.index <= arity
    return _cannot_raise(e, arity)


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
    keep = _predicate(pred) or _checked(pred, "select predicate must return a boolean")
    kept = list(map(keep, b.elements))  # a subsequence of a sorted tuple stays sorted
    return Bag(tuple(compress(b.elements, kept)), tuple(compress(b.key, kept)))


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


def q_dedup(b: Bag) -> Bag:
    return Bag(tuple(v for v, _ in counts(b)))


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
        try:
            return Real(total_i + total_f)
        except OverflowError:  # the Ints' sum is past the float range
            raise EngineTypeError("sum of Ints and Reals needs an Int sum that fits a float") from None
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
            tag = _match_tag(node)
            if tag is not None:
                return BagV(bag_of(node.q.q).payload_run(tag))  # type: ignore[attr-defined]
            return BagV(q_map(node.fn, bag_of(node.q)))
        if isinstance(node, Product):
            return BagV(q_product(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, Project):
            return BagV(q_project(node.indices, bag_of(node.q)))
        if isinstance(node, Select):
            if isinstance(node.q, Product):
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


def _row_tag(pred: Expr) -> Optional[str]:
    """``t`` when ``pred`` is ``istag(row, t)``."""
    if isinstance(pred, IsTag) and isinstance(pred.inner, RowRef) and isinstance(pred.tag, str):
        return pred.tag
    return None


def _match_tag(node: MapQ) -> Optional[str]:
    """``t`` when ``node`` is what ``match t as (...)`` parses to, the
    payloads of a select by ``istag(row, t)``."""
    fn, q = node.fn, node.q
    if isinstance(fn, Payload) and isinstance(fn.inner, RowRef) and isinstance(q, Select):
        tag = _row_tag(q.pred)
        if tag is not None and tag == fn.tag:
            return tag
    return None
