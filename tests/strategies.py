"""Shared hypothesis strategies: random values, bags, distributions and
query trees for the property suites."""
from __future__ import annotations

import math

from hypothesis import strategies as st

from bagdb.bags import Bag
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
