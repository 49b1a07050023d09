"""Canonical multisets: monoid structure, fold, and the monad operations."""
import copy
import pickle
import random
from itertools import product as iproduct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bagdb.algebra import Cmp, Const, IsTag, Not, RowRef, q_select
from bagdb.bags import (
    EMPTY,
    Bag,
    counts,
    free_extend,
    strength,
    tag_rows,
    tag_runs,
    trusted_bagv,
    unit,
)
from bagdb.pbmonad import _distr
from bagdb.values import HASH_MOD, BagV, Int, Real, Str, Tagged, Tuple

from dual_routes import hash_from_scratch, uplus_by_fold
from strategies import bags, small_bags_st, small_ints, values


# fresh objects each draw, so equal keys recur as distinct objects: 1 and
# 1.0 (different keys), 0.0 and -0.0 (different keys), equal tagged rows
merge_values = st.one_of(
    st.sampled_from([
        lambda: Int(1), lambda: Real(1.0), lambda: Real(0.0), lambda: Real(-0.0),
        lambda: Tagged("a", Int(1)), lambda: Tagged("a", Real(1.0)),
    ]).map(lambda make: make()),
    values,
)


def ints(*ns):
    return Bag.of([Int(n) for n in ns])


class TestCanonicalForm:
    def test_of_sorts(self):
        assert ints(3, 1, 2).elements == (Int(1), Int(2), Int(3))

    def test_duplicates_kept(self):
        assert ints(2, 1, 2).elements == (Int(1), Int(2), Int(2))

    @given(st.lists(values, max_size=6))
    def test_order_of_construction_irrelevant(self, xs):
        shuffled = list(xs)
        random.Random(0).shuffle(shuffled)
        assert Bag.of(xs) == Bag.of(shuffled)
        assert hash(Bag.of(xs)) == hash(Bag.of(shuffled))

    def test_count(self):
        b = ints(1, 2, 2, 3)
        assert b.count(Int(2)) == 2
        assert b.count(Int(9)) == 0

    def test_add_keeps_order(self):
        assert ints(1, 3).add(Int(2)) == ints(1, 2, 3)
        assert ints(1, 2, 3).add(Int(2)) == ints(1, 2, 2, 3)

    def test_remove_one_copy(self):
        assert ints(1, 2, 2, 3).remove(Int(2)) == ints(1, 2, 3)

    def test_remove_absent_is_identity(self):
        b = ints(1, 2)
        assert b.remove(Int(9)) is b

    @given(st.lists(merge_values, max_size=6), st.lists(merge_values, max_size=6))
    @example([Int(0), Int(1)], [Real(1.0), Int(1)])  # every item at or past the last key
    @example([], [Int(1), Int(0)])
    def test_uplus_places_items_after_equal_elements(self, xs, ys):
        # the same element objects in the same order as the stable sort:
        # an item follows the base's elements with an equal key
        got, want = Bag.of(xs).uplus(Bag.of(ys)), Bag.of([*Bag.of(xs), *ys])
        assert len(got) == len(want) and all(x is y for x, y in zip(got, want))
        assert got.key == tuple(e.key for e in want.elements) == want.key

    @given(small_bags_st, small_ints)
    def test_add_then_remove_round_trips(self, b, x):
        assert b.add(x).remove(x) == b

    @given(small_bags_st, small_ints)
    def test_count_after_add(self, b, x):
        assert b.add(x).count(x) == b.count(x) + 1


class TestMonoid:
    def test_uplus_multiplicities_add(self):
        assert ints(1, 2).uplus(ints(2, 3)) == ints(1, 2, 2, 3)

    @given(small_bags_st, small_bags_st)
    def test_uplus_commutative(self, a, b):
        assert a.uplus(b) == b.uplus(a)

    @given(small_bags_st, small_bags_st, small_bags_st)
    def test_uplus_associative(self, a, b, c):
        assert a.uplus(b).uplus(c) == a.uplus(b.uplus(c))

    @given(small_bags_st)
    def test_empty_identity(self, b):
        assert b.uplus(EMPTY) == b
        assert EMPTY.uplus(b) == b

    @given(small_bags_st, small_bags_st)
    def test_uplus_by_fold_agrees(self, a, b):
        assert uplus_by_fold(a, b) == a.uplus(b)


class TestFold:
    def test_fold_is_right_fold_in_canonical_order(self):
        got = ints(3, 1, 2).fold(lambda x, acc: [x.value] + acc, [])
        assert got == [1, 2, 3]

    def test_fold_empty_returns_init(self):
        sentinel = object()
        assert EMPTY.fold(lambda x, a: a, sentinel) is sentinel

    def test_commutative_fold_ignores_permutations(self):
        xs = [Int(5), Int(-1), Int(3), Int(5), Int(0), Int(2)]
        rng = random.Random(42)
        totals = set()
        for _ in range(20):
            rng.shuffle(xs)
            totals.add(Bag.of(xs).fold(lambda x, acc: acc + x.value, 0))
        assert totals == {14}

    @given(small_bags_st)
    def test_fold_counts_size(self, b):
        assert b.fold(lambda x, n: n + 1, 0) == b.size


class TestMonad:
    def test_unit(self):
        assert unit(Int(7)) == ints(7)

    def test_flatten(self):
        b = Bag.of([BagV(ints(1, 2)), BagV(ints(2, 3)), BagV(EMPTY)])
        assert b.flatten() == ints(1, 2, 2, 3)

    def test_flatten_rejects_non_bag(self):
        import pytest

        with pytest.raises(Exception):
            ints(1).flatten()

    def test_bind_example(self):
        dup = lambda x: Bag.of([x, x])
        assert ints(1, 2).bind(dup) == ints(1, 1, 2, 2)

    @given(small_ints)
    def test_left_identity(self, x):
        f = lambda v: ints(v.value, v.value + 1)
        assert unit(x).bind(f) == f(x)

    @given(small_bags_st)
    def test_right_identity(self, b):
        assert b.bind(unit) == b

    @given(small_bags_st)
    def test_associativity(self, b):
        f = lambda v: ints(v.value, -v.value)
        g = lambda v: ints(v.value * 2)
        assert b.bind(f).bind(g) == b.bind(lambda v: f(v).bind(g))

    @given(small_bags_st)
    def test_map_via_bind(self, b):
        f = lambda v: Int(v.value + 1)
        assert b.map(f) == b.bind(lambda v: unit(f(v)))

    @given(small_bags_st, small_bags_st)
    def test_bind_distributes_over_uplus(self, a, b):
        f = lambda v: ints(v.value, 0)
        assert a.uplus(b).bind(f) == a.bind(f).uplus(b.bind(f))

    def test_strength(self):
        got = strength(Str("k"), ints(2, 1))
        assert got == Bag.of([Tuple((Str("k"), Int(1))), Tuple((Str("k"), Int(2)))])

    @given(small_bags_st)
    def test_strength_size(self, b):
        assert strength(Int(0), b).size == b.size


class TestFreeExtension:
    def test_sum_homomorphism(self):
        total = free_extend(lambda v: v.value, lambda a, b: a + b, 0, ints(1, 2, 3))
        assert total == 6

    def test_size_homomorphism(self):
        assert free_extend(lambda v: 1, lambda a, b: a + b, 0, ints(4, 4, 4)) == 3

    @given(small_bags_st, small_bags_st)
    def test_respects_uplus(self, a, b):
        h = lambda bag: free_extend(lambda v: v.value, lambda x, y: x + y, 0, bag)
        assert h(a.uplus(b)) == h(a) + h(b)

    @given(small_bags_st)
    def test_extends_f_on_singletons(self, b):
        f = lambda v: [v.value]
        h = free_extend(f, lambda x, y: x + y, [], b)
        assert h == [x.value for x in b.elements]


class TestCounts:
    def test_counts(self):
        assert counts(ints(2, 1, 2)) == [(Int(1), 1), (Int(2), 2)]

    @given(small_bags_st)
    def test_counts_total(self, b):
        assert sum(n for _, n in counts(b)) == b.size


# tags that are prefixes of one another, beside rows of every other rank
run_rows = st.one_of(
    st.builds(Tagged, st.sampled_from(["a", "a0", "a_", "ab"]), values),
    values,
)


class TestTagRuns:
    @given(st.lists(run_rows, max_size=10).map(Bag.of), st.sampled_from(["a", "a0", "ab", "b"]))
    def test_runs_are_the_tags_rows_and_payloads(self, b, tag):
        rows = [v for v in b if isinstance(v, Tagged) and v.tag == tag]
        assert list(tag_rows(b, tag)) == rows
        payloads = b.payload_run(tag)
        assert payloads == Bag.of(v.value for v in rows)
        assert payloads.elements == Bag.of(v.value for v in rows).elements
        assert payloads.key == tuple(v.value.key for v in rows)

    @given(st.lists(run_rows, max_size=10).map(Bag.of))
    def test_split_concatenates_back_to_the_bag(self, b):
        pre, runs, post = tag_runs(b)
        assert list(runs) == sorted(runs)
        for tag, run in runs.items():
            assert run.elements == tag_rows(b, tag) and run.key == tuple(v.key for v in run) and run
        assert not any(isinstance(v, Tagged) for v in pre) and all(isinstance(v, BagV) for v in post)
        parts = [pre, *runs.values(), post]
        assert sum((p.elements for p in parts), ()) == b.elements
        assert sum((p.key for p in parts), ()) == b.key


class TestStoredKeys:
    """Every way of building a bag leaves ``key`` equal to its elements'
    keys, whether the constructor computed it or was given it (by
    ``payload_run`` and ``q_select``), so a bag value's hash does not
    depend on how the bag was built."""

    @given(
        st.lists(run_rows, max_size=8),
        st.lists(merge_values, max_size=4),
        merge_values,
        st.sampled_from(["a", "a0", "ab", "b"]),
    )
    def test_every_construction_keys_its_elements(self, xs, ys, x, tag):
        b = Bag.of(xs)
        merged = b.uplus(Bag.of(ys))
        built = [b, merged, b.payload_run(tag), b.add(x), b.remove(x),
                 q_select(Not(IsTag(RowRef(), tag)), merged), q_select(Cmp("!=", RowRef(), Const(x)), merged),
                 pickle.loads(pickle.dumps(merged))]
        if b:
            built.append(b.remove(b.elements[len(b) // 2]))
        for c in built:
            assert c.key == tuple(e.key for e in c)
            assert hash(BagV(c)) == hash(BagV(Bag.of(c.elements)))
            assert BagV(c) == BagV(Bag.of(c.elements))


@pytest.mark.hashseed
class TestMultisetHash:
    """A bag's hash, and its BagV's, is the sum of its elements' hashes
    modulo ``HASH_MOD``, whether it was carried to the bag by addition
    (``pbmonad._distr``) or computed on the first ``hash``: so equal
    bags hash equal however they were built, and ``hash(b)`` is
    ``b.__hash__()``, which a bag nested in another relies on.  A copy
    computes its hash anew: a str's hash changes with ``PYTHONHASHSEED``."""

    @given(
        st.lists(merge_values, max_size=6),
        st.lists(merge_values, max_size=4),
        st.lists(st.lists(st.tuples(merge_values, st.sampled_from([0.5, 1.0])), min_size=1, max_size=2),
                 max_size=3),
        st.booleans(),
    )
    def test_carried_hash_is_the_hash_from_scratch(self, xs, ys, options, base_hashed):
        b = Bag.of(xs)
        if base_hashed:  # else the step computes it
            hash(b)
        carried = [bv.bag for bv, _ in _distr(options, b, 1.0)]
        built = [EMPTY, b, Bag.of(ys), b.uplus(Bag.of(ys)), *carried]
        built.append(Bag.of([BagV(c) for c in built]))
        for c in built:
            assert hash(c) == c.__hash__() == hash(BagV(c)) == hash_from_scratch(c)
            assert hash(c) == hash(Bag.of(reversed(c.elements)))

    @given(st.lists(merge_values, max_size=8), st.booleans())
    @example([Int(n) for n in range(8)], False)
    def test_trusted_bagv_is_the_checked_one(self, xs, reduced):
        # built from sorted elements, their keys and their hash sum, reduced
        # or not, it is BagV(Bag.of(xs)): compared through __hash__ itself,
        # since hash() would reduce an unreduced sum the same way
        want = BagV(Bag.of(xs))
        elements = want.bag.elements
        hash_sum = sum(map(hash, elements))
        got = trusted_bagv(elements, tuple(e.key for e in elements), hash_sum % HASH_MOD if reduced else hash_sum)
        assert got == want and got.key == want.key and got.bag.key == want.bag.key
        assert got.bag.elements is elements
        assert got.__hash__() == got.bag.__hash__() == want.__hash__() == hash_from_scratch(want.bag)

    def test_worlds_that_swap_outcomes_between_rows_hash_apart(self):
        # one trigger row per house, outcome 0 or 1: CPython's tuple hash is
        # close to additive in the changed field, so sums of the rows' key
        # hashes put many of these 64 worlds on one hash; their squares not
        houses = [Str(f"H{i:04d}") for i in range(6)]
        worlds = [Bag.of([Tagged("trigger", Tuple((h, Int(b)))) for h, b in zip(houses, bits)])
                  for bits in iproduct((0, 1), repeat=6)]
        assert len({hash(w) for w in worlds}) == 64

    @given(st.lists(merge_values, max_size=6))
    def test_copies_compute_the_hash_anew(self, xs):
        b = Bag.of(xs)
        h = hash(b)
        for twin in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b),
                     pickle.loads(pickle.dumps(BagV(b))).bag, copy.deepcopy(BagV(b)).bag):
            assert twin._hash is None
            assert hash(twin) == h
