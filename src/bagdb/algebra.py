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
per row, not a Bool value.  Comparisons go through the per-operator
table of ``values``, whose ``cmp_holds`` rule guards call; a comparison
with a constant operand binds the constant.

``eval_query`` reads ``match t as (...)``, the payloads of a
``select istag(row, t)``, as the payloads of the sorted bag's one run of
rows tagged ``t`` (``Bag.payload_run``), already in key order; the
``select`` itself is not run.  A ``select`` directly over a ``product``,
and a ``select`` over that one, are planned in one pass over their
conjuncts in the order they are evaluated (``_join_plan``); the outer
predicate's conjuncts follow the inner's when it cannot raise as a
whole.  The plan is a hash equijoin on the first conjunct that is
``.i = .j``, one field from each side, provided that no conjunct before
it can raise: each is built from comparisons, ``istag``, ``not``,
``and``, ``or``, constants, the row and fields in range (``_reads``).
Its cost grows with the input plus the output instead of with the full
product.  The equality matches numbers across Int and Real, as ``=``
does, so it holds on every pair the join builds, and only the other
conjuncts are evaluated on those pairs, in order.  ``select`` is a monoid
homomorphism and ``product`` is bilinear, so a conjunct that reads one
side's fields only can test that side's rows before the pairs are built:
while no conjunct up to it can raise, it runs as a ``select`` on that
side, which drops exactly the pairs on which the whole predicate is false
without raising.  An outer predicate that can raise runs over the join's
result.  Every other ``select`` over a ``product`` still builds the full
product.  ``project`` is the bag functor applied to a pick, so a
``project`` over such a join picks its fields inside the pairing: when no
conjunct is left to test on the pairs and every index is a field of the
pair, each match is built as its projected row, and no pair is built,
sorted or split again.  Otherwise the join's result is projected.  The
tree-walking interpreter these replace, with ``eval_query`` running every
operator as written, is kept as the test oracle in
``tests/reference_algebra.py``.

Rows are plain values.  A tuple row has fields 1..n; any other value is
treated as a one-field row, so ``.1`` on a scalar row is the row itself.
"""
from __future__ import annotations

from itertools import compress
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterator, Mapping, Optional

from .bags import EMPTY, Bag, counts, unit
from .errors import (
    EmptyAggregateError,
    EngineTypeError,
    ResourceLimitError,
    UnknownTableError,
)
from .node import Node
from .values import (
    _COMPARISONS,
    _NUMBERS,
    CMP_OPS,
    BagV,
    Bool,
    Int,
    Real,
    Tagged,
    Tuple,
    Value,
    cmp_holds,
    tagged,
    tuple_parts,
)

DEFAULT_POWERBAG_LIMIT = 1 << 20

AGG_KINDS = ("size", "the", "sum")

ARITH_OPS = ("+", "-", "*")


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

_TRUE, _FALSE = Bool(True), Bool(False)
_ARITHMETIC = dict(zip(ARITH_OPS, (add, sub, mul)))


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
        test = _cmp(e.op, e.left, e.right)
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


def _cmp(op: str, a: Expr, b: Expr) -> RowTest:
    """A known operator with a Const operand binds the constant, so each
    row evaluates only the other operand."""
    holds = _COMPARISONS.get(op)
    left, right = compile_expr(a), compile_expr(b)
    if holds is None:  # raises once both operands are evaluated
        return lambda row: cmp_holds(op, left(row), right(row))
    if isinstance(b, Const):
        v = b.value
        return lambda row: holds(left(row), v)
    if isinstance(a, Const):
        v = a.value
        return lambda row: holds(v, right(row))
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
    left = _uniform_parts(b1, "product (left)")
    right = _uniform_parts(b2, "product (right)")
    return Bag.of([Tuple(px + py) for px in left for py in right])


def q_equijoin(pred: Expr, b1: Bag, b2: Bag, then: Optional[Expr] = None,
               indices: Optional[tuple[int, ...]] = None) -> Bag:
    """``q_select(pred, q_product(b1, b2))``, then ``q_select(then, ...)``
    of that if ``then`` is given, then ``q_project(indices, ...)`` of that
    if ``indices`` is given.  A ``then`` that cannot raise adds its
    conjuncts after ``pred``'s: it is only evaluated on rows that ``pred``
    keeps, so the two selects are one select by both.  When ``_join_plan``
    finds an equality in these conjuncts, only the pairs on which it holds
    are built: every other pair makes the predicate false without raising,
    so the result and the errors are those of the full product.  The side
    conjuncts run on their side's rows first, the residual ones on the
    built pairs, in order, and a ``then`` that can raise as a ``select``
    over the join's result.  When no conjunct is left for the built pairs
    and ``indices`` pick fields of the pair (``_projector``), each match is
    built as its projected row, and no pair is: ``project`` is the bag
    functor, so picking inside the pairing is picking after it."""
    left = _uniform_parts(b1, "product (left)")
    right = _uniform_parts(b2, "product (right)")
    if not (left and right):
        return EMPTY if indices is None else q_project(indices, EMPTY)
    n1, arity = len(left[0]), len(left[0]) + len(right[0])
    conjuncts = list(_conjuncts(pred))
    merged = then is not None and _reads(then, arity) is not None
    plan = _join_plan(conjuncts + list(_conjuncts(then)) if merged else conjuncts, n1, arity)
    if plan is None:
        built = q_select(pred, q_product(b1, b2))
    else:
        i, j, on_left, on_right, rest = plan
        if merged:
            then = None
        if on_left:
            for c in on_left:
                b1 = q_select(c, b1)
            left = list(map(tuple_parts, b1.elements))
        if on_right:
            for c in on_right:
                b2 = q_select(c, b2)
            right = list(map(tuple_parts, b2.elements))
        make: Callable[[tuple[Value, ...]], Value] = Tuple
        if indices and not rest and then is None and 1 <= min(indices) and max(indices) <= arity:
            make, indices = _projector(indices), None  # the rows built are the projected ones
        index: dict[object, list[tuple[Value, ...]]] = {}
        for py in right:
            index.setdefault(_join_key(py[j]), []).append(py)
        built = Bag.of([make(px + py) for px in left for py in index.get(_join_key(px[i]), ())])
        if rest:
            tests = [_predicate(c) or _checked(c, "and needs a boolean") for c in rest]
            built = _kept(lambda row: all(t(row) for t in tests), built)
    if then is not None:
        built = q_select(then, built)
    return built if indices is None else q_project(indices, built)


def _join_plan(conjuncts: list[Expr], n1: int,
               arity: int) -> Optional[tuple[int, int, list[Expr], list[Expr], list[Expr]]]:
    """A hash join that evaluates ``conjuncts``, in order, on the pairs of
    rows of ``n1`` fields with rows of ``arity - n1``: the 0-based field of
    each side of the first conjunct that is ``.i = .j`` with one field from
    each side, and the other conjuncts split three ways.  While no
    conjunct so far can raise (``_reads``), each that reads fields of the
    left side only is a test of a left row, and each that reads fields of
    the right side only, renumbered (``_on_right``), of a right row; the
    others stay, in order, for the built pairs.  A pair that the equality
    or a side's test drops makes the whole predicate false without
    raising, as no conjunct before it can raise.  None when a conjunct
    before the equality can raise, or there is no equality."""
    join: Optional[tuple[int, int]] = None
    on_left: list[Expr] = []
    on_right: list[Expr] = []
    rest: list[Expr] = []
    safe = True
    for c in conjuncts:
        read = _reads(c, arity)
        safe = safe and read is not None
        if join is None:
            if not safe:
                return None
            if isinstance(c, Cmp) and c.op == "=" and isinstance(c.left, Field) and isinstance(c.right, Field):
                i, j = sorted((c.left.index, c.right.index))
                if i <= n1 < j:  # both in range, as ``_reads`` admitted them
                    join = i - 1, j - n1 - 1
                    continue
        fields = read if safe and None not in read else ()
        if fields and max(fields) <= n1:
            on_left.append(c)
        elif fields and min(fields) > n1:
            on_right.append(_on_right(c, n1))
        else:
            rest.append(c)
    return None if join is None else (*join, on_left, on_right, rest)


def _reads(e: Expr, arity: int, operand: bool = False) -> Optional[tuple[Optional[int], ...]]:
    """The indices of the fields that ``e`` reads, with None for the whole
    row, when its syntax alone shows that it cannot raise on a row of
    ``arity`` fields; else None.  Such a predicate yields a Bool: it is a
    Const Bool, or a Cmp with a known operator, an IsTag, a Not, an And or
    an Or whose operands cannot raise.  Such an ``operand`` of Cmp or IsTag
    is one of these predicates, a Const, the row, or a field in range."""
    if operand and isinstance(e, RowRef):
        return (None,)
    if operand and isinstance(e, Field):
        return (e.index,) if 1 <= e.index <= arity else None
    if isinstance(e, Const):
        return () if isinstance(e.value, Value if operand else Bool) else None
    if isinstance(e, Not):
        return _reads(e.inner, arity)
    if isinstance(e, IsTag):
        return _reads(e.inner, arity, True)
    if not isinstance(e, (Cmp, And, Or)) or isinstance(e, Cmp) and e.op not in _COMPARISONS:
        return None
    left = _reads(e.left, arity, isinstance(e, Cmp))
    right = None if left is None else _reads(e.right, arity, isinstance(e, Cmp))
    return None if right is None else left + right


def _on_right(e: Expr, n1: int) -> Expr:
    """``e``, a test of a pair that reads only fields past ``n1`` and not
    the row, as the same test of the pair's right row: its fields
    renumbered from 1.  Built once per conjunct and ``n1``, so its compiled
    form is kept too."""
    shifted = _memo(e).setdefault("_on_right", {})
    out = shifted.get(n1)
    if out is None:
        out = shifted[n1] = _shifted(e, n1)
    return out


def _shifted(e: Expr, by: int) -> Expr:
    """``e``, a node that ``_reads`` admits, with every field index lowered
    by ``by``."""
    if isinstance(e, Field):
        return Field(e.index - by)
    if isinstance(e, Not):
        return Not(_shifted(e.inner, by))
    if isinstance(e, IsTag):
        return IsTag(_shifted(e.inner, by), e.tag)
    if isinstance(e, Cmp):
        return Cmp(e.op, _shifted(e.left, by), _shifted(e.right, by))
    if isinstance(e, (And, Or)):
        return type(e)(_shifted(e.left, by), _shifted(e.right, by))
    return e  # a Const


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


def _join_key(v: Value) -> tuple:
    """Equal exactly when ``=`` holds: numbers by magnitude across Int and
    Real (so -0.0 joins 0.0, but 2**53 + 1 does not join 2.0**53), every
    other value by its canonical key, whose ranks are never negative."""
    if isinstance(v, (Int, Real)):
        return (-1, v.value)
    return v.key


def _uniform_parts(b: Bag, where: str) -> list[tuple[Value, ...]]:
    """The fields of each row of ``b``, in order; every row must have as
    many as the first."""
    parts = list(map(tuple_parts, b.elements))
    if parts:
        arity = len(parts[0])
        for p in parts:
            if len(p) != arity:
                raise EngineTypeError(f"{where}: rows mix arity {arity} and {len(p)}")
    return parts


def q_project(indices: tuple[int, ...], b: Bag) -> Bag:
    if not indices:
        raise EngineTypeError("project needs at least one field")
    lo, hi = min(indices), max(indices)
    make = _projector(indices)
    out = []
    for row in b.elements:
        parts = tuple_parts(row)
        if lo < 1 or hi > len(parts):
            bad = next(i for i in indices if not 1 <= i <= len(parts))
            raise EngineTypeError(f"project field .{bad} out of range for a {len(parts)}-field row")
        out.append(make(parts))
    return Bag.of(out)


def _projector(indices: tuple[int, ...]) -> Callable[[tuple[Value, ...]], Value]:
    """The row that ``project`` makes of a row's fields, for a non-empty
    list of indices in range: the field itself for one index, else a tuple
    of the fields picked."""
    pick = itemgetter(*[i - 1 for i in indices])
    if len(indices) == 1:
        return pick
    return lambda parts: Tuple(pick(parts))


def q_select(pred: Expr, b: Bag) -> Bag:
    return _kept(_predicate(pred) or _checked(pred, "select predicate must return a boolean"), b)


def _kept(keep: RowTest, b: Bag) -> Bag:
    """The rows of ``b`` that pass ``keep``, tested in order."""
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
    return _Evaluation(env, max_powerbag).go(q)


class _Evaluation:
    """One call of ``eval_query``: its inputs and its mutually recursive
    steps, methods rather than closures that name each other, so that a
    call leaves no reference cycle behind for the collector."""

    __slots__ = ("env", "max_powerbag")

    def __init__(self, env: Mapping[str, Bag], max_powerbag: int):
        self.env = env
        self.max_powerbag = max_powerbag

    def go(self, node: Query) -> Value:
        bag_of = self.bag_of
        if isinstance(node, Table):
            if node.name not in self.env:
                raise UnknownTableError(node.name)
            return BagV(self.env[node.name])
        if isinstance(node, Lit):
            return BagV(node.bag)
        if isinstance(node, Singleton):
            return BagV(q_singleton(self.go(node.q)))
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
            joined = self.join(node.q, node.indices)
            return BagV(q_project(node.indices, bag_of(node.q)) if joined is None else joined)
        if isinstance(node, Select):
            joined = self.join(node)
            return BagV(q_select(node.pred, bag_of(node.q)) if joined is None else joined)
        if isinstance(node, DUnion):
            return BagV(q_dunion(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, Difference):
            return BagV(q_difference(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, PowerBag):
            return BagV(q_powerbag(bag_of(node.q), self.max_powerbag))
        if isinstance(node, Dedup):
            return BagV(q_dedup(bag_of(node.q)))
        if isinstance(node, UnionQ):
            return BagV(q_union(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, IntersectQ):
            return BagV(q_intersect(bag_of(node.q1), bag_of(node.q2)))
        if isinstance(node, PowerSet):
            return BagV(q_powerset(bag_of(node.q), self.max_powerbag))
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

    def join(self, node: Query, indices: Optional[tuple[int, ...]] = None) -> Optional[Bag]:
        """``q_equijoin`` of ``node`` if it is a select over a product, or a
        select over a select over a product, projected to ``indices`` if
        given; else None, and nothing is evaluated."""
        if not isinstance(node, Select):
            return None
        inner, bag_of = node.q, self.bag_of
        if isinstance(inner, Product):
            return q_equijoin(node.pred, bag_of(inner.q1), bag_of(inner.q2), None, indices)
        if isinstance(inner, Select) and isinstance(inner.q, Product):
            pair = inner.q
            return q_equijoin(inner.pred, bag_of(pair.q1), bag_of(pair.q2), node.pred, indices)
        return None

    def bag_of(self, node: Query) -> Bag:
        v = self.go(node)
        if not isinstance(v, BagV):
            raise EngineTypeError("expected a bag-valued subquery, got a scalar")
        return v.bag


def _match_tag(node: MapQ) -> Optional[str]:
    """``t`` when ``node`` is what ``match t as (...)`` parses to, the
    payloads of a select by ``istag(row, t)``."""
    fn, q = node.fn, node.q
    if isinstance(fn, Payload) and isinstance(fn.inner, RowRef) and isinstance(q, Select):
        p = q.pred
        if isinstance(p, IsTag) and isinstance(p.inner, RowRef) and isinstance(p.tag, str) and p.tag == fn.tag:
            return p.tag
    return None
