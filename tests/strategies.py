"""Shared hypothesis strategies: random values, bags, distributions and
query trees for the property suites."""
from __future__ import annotations

import math

from hypothesis import strategies as st

from bagdb.algebra import (
    Agg,
    And,
    Arith,
    Cmp,
    Const,
    Dedup,
    Difference,
    DUnion,
    Field,
    Flatten,
    Group,
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
    RowRef,
    Select,
    Singleton,
    Table,
    UnionQ,
)
from bagdb.bags import EMPTY, Bag
from bagdb.prob import ExactDist
from bagdb.values import UNIT, BagV, Bool, Int, Real, Str, Tagged, Tuple

finite_reals = st.floats(allow_nan=False, allow_infinity=False, width=64)

scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40).map(Int),
    finite_reals.map(Real),
    st.booleans().map(Bool),
    st.text(max_size=6).map(Str),
    st.just(UNIT),
)


def _compounds(inner):
    return st.one_of(
        st.lists(inner, min_size=0, max_size=3).map(lambda xs: Tuple(tuple(xs))),
        st.tuples(st.sampled_from(["a", "b", "c"]), inner).map(lambda p: Tagged(*p)),
        st.lists(inner, min_size=0, max_size=3).map(lambda xs: BagV(Bag.of(xs))),
    )


values = st.recursive(scalars, _compounds, max_leaves=8)

# scalars whose JSON text is easy to get wrong: -0.0, infinities,
# subnormals, ints past 64 bits, quotes, backslashes, control and
# non-ASCII characters
json_edge_scalars = st.one_of(
    st.one_of(
        st.integers(),
        st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1, 10**30]),
    ).map(Int),
    st.one_of(
        st.floats(allow_nan=False, width=64),
        st.sampled_from([-0.0, math.inf, -math.inf, 5e-324, -2.5e-320, 1e16, 1e-7]),
    ).map(Real),
    st.booleans().map(Bool),
    st.one_of(
        st.text(max_size=6),
        st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r\x08\x0c", "é漢😀", "\u2028\u2029", "a\"b\\c"]),
    ).map(Str),
    st.just(UNIT),
)
json_edge_values = st.recursive(json_edge_scalars, _compounds, max_leaves=8)


def bags(elements=values, max_size=6):
    return st.lists(elements, min_size=0, max_size=max_size).map(Bag.of)


small_ints = st.integers(min_value=-3, max_value=3).map(Int)
small_bags_st = bags(small_ints, max_size=5)


@st.composite
def exact_dists(draw, elements=small_ints, max_support=4):
    xs = draw(st.lists(elements, min_size=1, max_size=max_support, unique_by=lambda v: v.key))
    ws = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=len(xs),
            max_size=len(xs),
        )
    )
    total = sum(ws)
    return ExactDist.from_weights(zip(xs, (w / total for w in ws)))


seeds = st.integers(min_value=0, max_value=2**64 - 1)


# ---------------------------------------------------------------------------
# Row expressions and queries

TAGS = st.sampled_from(["a", "b", "c"])

expr_scalars = st.one_of(
    st.integers(min_value=-99, max_value=99).map(Int),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(Real),
    st.booleans().map(Bool),
    st.text(max_size=4).map(Str),
    st.just(UNIT),
)


def _expr_inner(inner):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), inner, inner).map(
            lambda t: Arith(*t)
        ),
        st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), inner, inner).map(
            lambda t: Cmp(*t)
        ),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
        inner.map(Not),
        st.tuples(inner, TAGS).map(lambda t: IsTag(*t)),
        st.tuples(inner, TAGS).map(lambda t: Payload(*t)),
        st.lists(inner, min_size=2, max_size=3).map(lambda xs: MkTuple(tuple(xs))),
        st.tuples(TAGS, st.lists(inner, max_size=2)).map(
            lambda t: MkTagged(t[0], tuple(t[1]))
        ),
    )


exprs = st.recursive(
    st.one_of(
        expr_scalars.map(Const),
        st.integers(min_value=1, max_value=3).map(Field),
        st.just(RowRef()),
    ),
    _expr_inner,
    max_leaves=6,
)

_sources = st.one_of(
    st.sampled_from(["t1", "t2"]).map(Table),
    st.lists(values, max_size=3).map(lambda xs: Lit(Bag.of(xs))),
)


def conjunction(conjuncts, right_nested):
    """The ``and`` of the conjuncts, evaluated in list order, nested to the
    left (``(c1 and c2) and c3``) or to the right (``c1 and (c2 and c3)``)."""
    if right_nested:
        pred = conjuncts[-1]
        for c in reversed(conjuncts[:-1]):
            pred = And(c, pred)
        return pred
    pred = conjuncts[0]
    for c in conjuncts[1:]:
        pred = And(pred, c)
    return pred


# conjuncts that give a Bool on every row of up to 5 fields, and conjuncts
# that may raise (any expression)
_fields5 = st.integers(min_value=1, max_value=5).map(Field)
_safe_conjuncts = st.one_of(
    st.builds(Cmp, st.sampled_from(["=", "!=", "<", ">="]), _fields5,
              st.one_of(_fields5, expr_scalars.map(Const))),
    st.builds(IsTag, st.one_of(_fields5, st.just(RowRef())), TAGS),
    st.builds(lambda f, b: Or(Cmp("<", f, Const(Int(1))), Const(Bool(b))), _fields5, st.booleans()),
    st.builds(lambda f: Not(IsTag(f, "a")), _fields5),
)


def _match(tag, q):
    """What ``match tag as (...)`` parses to."""
    return MapQ(Payload(RowRef(), tag), Select(IsTag(RowRef(), tag), q))


@st.composite
def _join_select(draw, inner):
    """``select`` over ``product`` with ``.i = .j`` at any conjunct position
    of an ``and`` chain nested either way.  A side is often a ``match`` on
    a table, whose rows have one arity per tag (see ``tables``)."""
    named = st.sampled_from(["t1", "t2"]).map(Table)
    matched = st.builds(_match, st.sampled_from(["a", "b"]), named)
    i, j = draw(st.integers(min_value=1, max_value=2)), draw(st.integers(min_value=2, max_value=4))
    eq = Cmp("=", Field(i), Field(j)) if draw(st.booleans()) else Cmp("=", Field(j), Field(i))
    # mostly conjuncts that cannot raise, which let the equality lead the join
    others = draw(st.lists(st.one_of(_safe_conjuncts, _safe_conjuncts, exprs), max_size=3))
    pos = draw(st.integers(min_value=0, max_value=len(others)))
    pred = conjunction(others[:pos] + [eq] + others[pos:], draw(st.booleans()))
    return Select(pred, Product(draw(st.one_of(matched, inner)), draw(st.one_of(matched, inner))))


def _query_inner(inner):
    fields = st.lists(
        st.integers(min_value=1, max_value=3), min_size=1, max_size=2
    ).map(tuple)
    return st.one_of(
        st.tuples(exprs, inner).map(lambda t: MapQ(*t)),
        st.tuples(exprs, inner).map(lambda t: Select(*t)),
        st.tuples(fields, inner).map(lambda t: Project(*t)),
        st.tuples(inner, inner).map(lambda t: Product(*t)),
        st.tuples(inner, inner).map(lambda t: DUnion(*t)),
        st.tuples(inner, inner).map(lambda t: Difference(*t)),
        st.tuples(inner, inner).map(lambda t: UnionQ(*t)),
        st.tuples(inner, inner).map(lambda t: IntersectQ(*t)),
        inner.map(Dedup),
        inner.map(PowerBag),
        inner.map(PowerSet),
        inner.map(Flatten),
        inner.map(Singleton),
        st.tuples(fields, fields, inner).map(lambda t: Group(*t)),
        st.tuples(st.sampled_from(["size", "the", "sum"]), inner).map(
            lambda t: Agg(*t)
        ),
        st.tuples(TAGS, inner).map(lambda t: Select(IsTag(RowRef(), t[0]), t[1])),
        st.tuples(TAGS, inner).map(lambda t: _match(*t)),
        _join_select(inner),
    )


queries = st.recursive(_sources, _query_inner, max_leaves=5)

# Tables whose rows mix tags a, b and c with Int, Tuple and BagV rows, so
# that every tag's run has neighbours on both sides in the sorted bag:
# Int sorts before Tuple, Tuple before Tagged, Tagged before BagV.  Payloads
# of a are pairs and those of b single fields, so a ``match`` on either has
# rows of one arity and can be joined; c mixes both.  Small fields that
# ``=`` equates (1 and 1.0, 0 and -0.0) make joins match.
_join_scalars = st.sampled_from([Int(0), Int(1), Real(1.0), Real(-0.0), Str("a"), Bool(True)])
_pairs = st.tuples(_join_scalars, _join_scalars).map(Tuple)
table_rows = st.one_of(
    st.builds(Tagged, st.just("a"), _pairs),
    st.builds(Tagged, st.just("b"), _join_scalars),
    st.builds(Tagged, st.just("c"), st.one_of(_join_scalars, _pairs)),
    st.integers(min_value=-2, max_value=2).map(Int),
    _pairs,
    st.lists(_join_scalars, max_size=2).map(lambda xs: BagV(Bag.of(xs))),
)
tables = st.lists(table_rows, max_size=10).map(
    lambda rows: Bag.of(rows + [Int(-3), BagV(EMPTY)])
)
envs = st.fixed_dictionaries({"t1": tables, "t2": tables})

# select over product as the outermost node, so that most draws reach the join
join_queries = _join_select(_sources)
