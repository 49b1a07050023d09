"""Query algebra: expression evaluation, the primitive and derived
operators, grouping, aggregation, and the multiplicity laws."""
import gc
import math
from pathlib import Path

import pytest
from hypothesis import given
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
    GroupPrime,
    IsTag,
    Lit,
    MapQ,
    MkTagged,
    MkTuple,
    Not,
    Or,
    Payload,
    PowerBag,
    Product,
    Project,
    RowRef,
    Select,
    Singleton,
    Table,
    agg_size,
    agg_sum,
    agg_the,
    eval_expr,
    eval_query,
    q_dedup,
    q_difference,
    q_dunion,
    q_group,
    q_group_prime,
    q_intersect,
    q_powerbag,
    q_powerset,
    q_product,
    q_project,
    q_select,
    q_union,
)
from bagdb.bags import EMPTY, Bag, counts
from bagdb.dsl import parse
from bagdb.errors import (
    EmptyAggregateError,
    EngineTypeError,
    ResourceLimitError,
    UnknownTableError,
)
from bagdb.values import UNIT, BagV, Bool, Int, Real, Str, Tagged, Tuple, deserialize, tuple_parts

import reference_algebra as ref
from dual_routes import dedup_by_fold, difference_by_fold, powerbag_by_fold
from strategies import conjunction, small_bags_st, small_ints


def ints(*ns):
    return Bag.of([Int(n) for n in ns])


def rows(*pairs):
    return Bag.of([Tuple((Str(a), Int(b))) for a, b in pairs])


class TestExpressions:
    def test_field_is_one_based(self):
        row = Tuple((Str("a"), Int(5)))
        assert eval_expr(Field(1), row) == Str("a")
        assert eval_expr(Field(2), row) == Int(5)

    def test_scalar_row_is_one_field(self):
        assert eval_expr(Field(1), Int(9)) == Int(9)
        with pytest.raises(EngineTypeError):
            eval_expr(Field(2), Int(9))

    def test_field_out_of_range(self):
        with pytest.raises(EngineTypeError):
            eval_expr(Field(3), Tuple((Int(1), Int(2))))

    def test_rowref(self):
        assert eval_expr(RowRef(), Int(4)) == Int(4)

    def test_numeric_comparison_crosses_int_real(self):
        assert eval_expr(Cmp("=", Const(Int(2)), Const(Real(2.0))), UNIT) == Bool(True)
        assert eval_expr(Cmp("<", Const(Int(2)), Const(Real(2.5))), UNIT) == Bool(True)
        assert eval_expr(Cmp(">=", Const(Real(3.0)), Const(Int(3))), UNIT) == Bool(True)

    def test_non_numeric_comparison_uses_canonical_order(self):
        assert eval_expr(Cmp("<", Const(Str("a")), Const(Str("b"))), UNIT) == Bool(True)
        # cross-variant: Int ranks below Str
        assert eval_expr(Cmp("<", Const(Int(99)), Const(Str(""))), UNIT) == Bool(True)

    def test_arith_int_int_is_int(self):
        got = eval_expr(Arith("+", Const(Int(2)), Const(Int(3))), UNIT)
        assert got == Int(5)

    def test_arith_mixed_is_real(self):
        got = eval_expr(Arith("*", Const(Int(2)), Const(Real(1.5))), UNIT)
        assert got == Real(3.0)

    def test_arith_rejects_non_numeric(self):
        with pytest.raises(EngineTypeError):
            eval_expr(Arith("+", Const(Str("a")), Const(Int(1))), UNIT)

    def test_and_short_circuits(self):
        bad = Payload(Const(Tagged("a", Int(1))), "b")  # would raise if evaluated
        got = eval_expr(And(Const(Bool(False)), bad), UNIT)
        assert got == Bool(False)

    def test_or_short_circuits(self):
        bad = Payload(Const(Tagged("a", Int(1))), "b")
        got = eval_expr(Or(Const(Bool(True)), bad), UNIT)
        assert got == Bool(True)

    def test_logic_is_strict_on_bools(self):
        with pytest.raises(EngineTypeError):
            eval_expr(And(Const(Int(1)), Const(Bool(True))), UNIT)
        with pytest.raises(EngineTypeError):
            eval_expr(Not(Const(Int(0))), UNIT)

    def test_istag(self):
        row = Tagged("cast", Str("x"))
        assert eval_expr(IsTag(RowRef(), "cast"), row) == Bool(True)
        assert eval_expr(IsTag(RowRef(), "gross"), row) == Bool(False)
        assert eval_expr(IsTag(Const(Int(1)), "cast"), UNIT) == Bool(False)

    def test_payload(self):
        row = Tagged("cast", Str("x"))
        assert eval_expr(Payload(RowRef(), "cast"), row) == Str("x")

    def test_payload_wrong_tag_raises(self):
        with pytest.raises(EngineTypeError):
            eval_expr(Payload(Const(Tagged("a", Int(1))), "b"), UNIT)

    def test_mktuple_mktagged(self):
        got = eval_expr(MkTuple((Const(Int(1)), Const(Str("s")))), UNIT)
        assert got == Tuple((Int(1), Str("s")))
        assert eval_expr(MkTagged("t", ()), UNIT) == Tagged("t", UNIT)
        assert eval_expr(MkTagged("t", (Const(Int(1)),)), UNIT) == Tagged("t", Int(1))
        got = eval_expr(MkTagged("t", (Const(Int(1)), Const(Int(2)))), UNIT)
        assert got == Tagged("t", Tuple((Int(1), Int(2))))


class TestPrimitives:
    def test_product_concatenates_rows(self):
        left = rows(("a", 1), ("b", 2))
        right = ints(10)
        got = q_product(left, right)
        assert got == Bag.of(
            [
                Tuple((Str("a"), Int(1), Int(10))),
                Tuple((Str("b"), Int(2), Int(10))),
            ]
        )

    def test_product_multiplicities_multiply(self):
        got = q_product(ints(1, 1), ints(2, 2, 2))
        assert got.size == 6
        assert got.count(Tuple((Int(1), Int(2)))) == 6

    def test_product_requires_uniform_arity(self):
        mixed = Bag.of([Int(1), Tuple((Int(1), Int(2)))])
        with pytest.raises(EngineTypeError):
            q_product(mixed, ints(1))

    def test_project_single_index_is_scalar(self):
        got = q_project((2,), rows(("a", 1), ("b", 2)))
        assert got == ints(1, 2)

    def test_project_multi_keeps_tuple(self):
        got = q_project((2, 1), rows(("a", 1)))
        assert got == Bag.of([Tuple((Int(1), Str("a")))])

    def test_project_out_of_range(self):
        with pytest.raises(EngineTypeError):
            q_project((3,), rows(("a", 1)))

    @pytest.mark.parametrize("indices, bad", [
        ((1, 3, 0), 3), ((0, 3), 0), ((2, -1, 5), -1), ((5, 1, 0), 5), ((1, 2, 2, 3), 3),
    ])
    def test_project_names_the_first_bad_index(self, indices, bad):
        # in the order of the list, not the smallest or largest index
        with pytest.raises(EngineTypeError, match=rf"^project field \.{bad} out of range for a 2-field row$"):
            q_project(indices, rows(("a", 1), ("b", 2)))

    def test_select(self):
        pred = Cmp(">", Field(2), Const(Int(1)))
        assert q_select(pred, rows(("a", 1), ("b", 2))) == rows(("b", 2))

    def test_select_requires_bool(self):
        with pytest.raises(EngineTypeError):
            q_select(Field(1), ints(1, 2))

    def test_dunion(self):
        assert q_dunion(ints(1, 2), ints(2, 3)) == ints(1, 2, 2, 3)

    def test_difference_is_truncated(self):
        assert q_difference(ints(1, 2, 2, 3), ints(2, 3, 3, 4)) == ints(1, 2)
        assert q_difference(ints(1), ints(1, 1)) == EMPTY

    def test_dedup(self):
        assert q_dedup(ints(1, 1, 2, 2, 2)) == ints(1, 2)

    def test_powerbag_of_two(self):
        got = q_powerbag(ints(1, 2))
        expected = Bag.of(
            [BagV(EMPTY), BagV(ints(1)), BagV(ints(2)), BagV(ints(1, 2))]
        )
        assert got == expected

    def test_powerbag_duplicates(self):
        got = q_powerbag(ints(1, 1))
        assert got.count(BagV(ints(1))) == 2
        assert got.count(BagV(ints(1, 1))) == 1
        assert got.size == 4

    def test_powerbag_guard(self):
        with pytest.raises(ResourceLimitError):
            q_powerbag(ints(*range(5)), max_results=16)

    def test_union_max(self):
        assert q_union(ints(1, 1, 2), ints(1, 3)) == ints(1, 1, 2, 3)

    def test_intersect_min(self):
        assert q_intersect(ints(1, 1, 2), ints(1, 2, 2, 3)) == ints(1, 2)

    def test_powerset_distinct_subbags(self):
        got = q_powerset(ints(1, 1))
        assert got == Bag.of([BagV(EMPTY), BagV(ints(1)), BagV(ints(1, 1))])


class TestDualRoutes:
    @given(small_bags_st, small_bags_st)
    def test_difference_by_fold(self, a, b):
        assert difference_by_fold(a, b) == q_difference(a, b)

    @given(small_bags_st)
    def test_dedup_by_fold(self, b):
        assert dedup_by_fold(b) == q_dedup(b)

    @given(small_bags_st)
    def test_powerbag_by_fold(self, b):
        assert powerbag_by_fold(b) == q_powerbag(b)


class TestMultiplicityLaws:
    @given(small_bags_st, small_bags_st, small_ints)
    def test_dunion_counts_add(self, a, b, x):
        assert q_dunion(a, b).count(x) == a.count(x) + b.count(x)

    @given(small_bags_st, small_bags_st, small_ints)
    def test_difference_counts_truncate(self, a, b, x):
        assert q_difference(a, b).count(x) == max(a.count(x) - b.count(x), 0)

    @given(small_bags_st, small_bags_st, small_ints)
    def test_union_counts_max(self, a, b, x):
        assert q_union(a, b).count(x) == max(a.count(x), b.count(x))

    @given(small_bags_st, small_bags_st, small_ints)
    def test_intersect_counts_min(self, a, b, x):
        assert q_intersect(a, b).count(x) == min(a.count(x), b.count(x))

    @given(small_bags_st, small_ints)
    def test_dedup_counts_clamp(self, b, x):
        assert q_dedup(b).count(x) == min(b.count(x), 1)

    @given(small_bags_st, small_bags_st, small_ints, small_ints)
    def test_product_counts_multiply(self, a, b, x, y):
        got = q_product(a, b).count(Tuple((x, y)))
        assert got == a.count(x) * b.count(y)

    @given(small_bags_st)
    def test_powerbag_size(self, b):
        assert q_powerbag(b).size == 2**b.size

    @given(small_bags_st)
    def test_powerbag_multiplicity_is_binomial_product(self, b):
        pb = q_powerbag(b)
        base = dict(counts(b))
        for sub, got in counts(pb):
            expect = 1
            for v, k in counts(sub.bag):
                expect *= math.comb(base.get(v, 0), k)
            assert got == expect


class TestGrouping:
    def test_group_collects_values_by_key(self):
        b = rows(("a", 1), ("a", 2), ("b", 3))
        got = q_group((1,), (2,), b)
        assert got == Bag.of(
            [
                Tuple((Str("a"), BagV(ints(1, 2)))),
                Tuple((Str("b"), BagV(ints(3)))),
            ]
        )

    def test_group_key_multiplicity_once_per_key(self):
        b = rows(("a", 1), ("a", 1))
        got = q_group((1,), (2,), b)
        assert got.size == 1
        assert got == Bag.of([Tuple((Str("a"), BagV(ints(1, 1))))])

    def test_group_multi_key(self):
        b = Bag.of([Tuple((Str("a"), Int(1), Int(10)))])
        got = q_group((1, 2), (3,), b)
        assert got == Bag.of(
            [Tuple((Tuple((Str("a"), Int(1))), BagV(ints(10))))]
        )

    def test_group_prime_runs_of_equal_elements(self):
        got = q_group_prime(ints(1, 1, 2))
        assert got == Bag.of([BagV(ints(1, 1)), BagV(ints(2))])

    def test_group_prime_empty(self):
        assert q_group_prime(EMPTY) == EMPTY

    @given(small_bags_st)
    def test_group_prime_flattens_back(self, b):
        assert q_group_prime(b).flatten() == b


class TestAggregates:
    def test_size(self):
        assert agg_size(ints(5, 5, 5)) == Int(3)
        assert agg_size(EMPTY) == Int(0)

    def test_the_of_singleton(self):
        assert agg_the(ints(7)) == Int(7)

    def test_the_picks_canonical_first(self):
        assert agg_the(ints(3, 1, 2)) == Int(1)

    def test_the_of_empty_raises(self):
        with pytest.raises(EmptyAggregateError):
            agg_the(EMPTY)

    def test_sum_ints(self):
        assert agg_sum(ints(1, 2, 3)) == Int(6)

    def test_sum_mixed_is_real(self):
        assert agg_sum(Bag.of([Int(1), Real(0.5)])) == Real(1.5)

    def test_sum_empty_is_int_zero(self):
        assert agg_sum(EMPTY) == Int(0)

    def test_sum_rejects_non_numeric(self):
        with pytest.raises(EngineTypeError):
            agg_sum(Bag.of([Str("x")]))


class TestEvalQuery:
    def test_table_lookup(self):
        env = {"t": ints(1, 2)}
        assert eval_query(Table("t"), env) == BagV(ints(1, 2))

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            eval_query(Table("nope"), {})

    def test_composite_pipeline(self):
        env = {"t": rows(("a", 1), ("b", 2), ("c", 3))}
        q = Project((1,), Select(Cmp(">=", Field(2), Const(Int(2))), Table("t")))
        assert eval_query(q, env) == BagV(Bag.of([Str("b"), Str("c")]))

    def test_map_query(self):
        q = MapQ(Arith("+", RowRef(), Const(Int(1))), Lit(ints(1, 2)))
        assert eval_query(q, {}) == BagV(ints(2, 3))

    def test_singleton_and_flatten(self):
        q = Singleton(Lit(ints(1, 2)))
        got = eval_query(q, {})
        assert got == BagV(Bag.of([BagV(ints(1, 2))]))
        assert eval_query(Flatten(q), {}) == BagV(ints(1, 2))

    def test_group_query_scalar_key(self):
        env = {"t": rows(("a", 1), ("a", 2))}
        got = eval_query(Group((1,), (2,), Table("t")), env)
        assert got == BagV(Bag.of([Tuple((Str("a"), BagV(ints(1, 2))))]))

    def test_agg_query(self):
        assert eval_query(Agg("sum", Lit(ints(1, 2, 3))), {}) == Int(6)
        assert eval_query(Agg("size", Lit(EMPTY)), {}) == Int(0)
        assert eval_query(Agg("the", Lit(ints(9))), {}) == Int(9)

    def test_powerbag_limit_flows_through(self):
        with pytest.raises(ResourceLimitError):
            eval_query(PowerBag(Lit(ints(*range(6)))), {}, max_powerbag=8)

    def test_nested_set_ops(self):
        q = Difference(DUnion(Lit(ints(1, 2)), Lit(ints(2))), Lit(ints(2)))
        assert eval_query(q, {}) == BagV(ints(1, 2))

    def test_dedup_and_group_prime_nodes(self):
        assert eval_query(Dedup(Lit(ints(1, 1))), {}) == BagV(ints(1))
        got = eval_query(GroupPrime(Lit(ints(1, 1, 2))), {})
        assert got == BagV(Bag.of([BagV(ints(1, 1)), BagV(ints(2))]))

    def test_leaves_no_reference_cycle(self):
        # with the collector off, no call leaves anything for it to free
        fixtures = Path(__file__).parent / "fixtures"
        text = (fixtures / "db.jsonl").read_text(encoding="utf-8")
        env = {"db": Bag.of(deserialize(line) for line in text.splitlines() if line.strip())}
        q = parse((fixtures / "blockbusters.query").read_text(encoding="utf-8"))
        assert eval_query(q, env) == BagV(Bag.of([Str("A1"), Str("A2")]))  # compiles the predicates
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                eval_query(q, env)
            assert gc.collect() == 0
        finally:
            gc.enable()


# Join fields that `=` equates across variants (1 and 1.0, 0.0 and -0.0)
# or keeps apart despite a close float (2**53 + 1 and 2.0**53), plus
# strings and compound values whose items differ only in Int vs Real.
JOIN_FIELDS = [
    Int(1), Real(1.0), Int(0), Real(0.0), Real(-0.0),
    Int(2**53 + 1), Real(2.0**53), Int(2**53),
    Str("a"), Str("b"),
    Tuple((Int(1),)), Tuple((Real(1.0),)), Tagged("a", Int(1)), Tagged("a", Real(1.0)),
]


@st.composite
def join_operands(draw, non_bool=False):
    """Two bags of tuple rows (2 or 3 fields a side, duplicates likely, either
    side possibly empty) and a select predicate with an equality between a
    field of each side, after 0-2 conjuncts that cannot raise and before
    0-2 residual conjuncts, in an ``and`` chain nested either way.  With
    ``non_bool``, a residual may be a bare field, which is never a boolean
    and so raises on any row that reaches it."""
    n1, n2 = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    field = st.sampled_from(JOIN_FIELDS)

    def side(n):
        row = st.tuples(*[field] * n).map(Tuple)
        return st.lists(row, max_size=5).map(Bag.of)

    a, b = draw(side(n1)), draw(side(n2))
    i, j = draw(st.integers(1, n1)), draw(st.integers(n1 + 1, n1 + n2))
    eq = Cmp("=", Field(i), Field(j)) if draw(st.booleans()) else Cmp("=", Field(j), Field(i))
    any_field = st.integers(1, n1 + n2).map(Field)
    residual = st.one_of(
        st.builds(Cmp, st.sampled_from(["=", "!=", "<", ">="]), any_field, any_field),
        st.builds(lambda f: Not(IsTag(f, "a")), any_field),
        st.builds(lambda f, g: Or(Cmp("=", f, Const(Str("a"))), Cmp("<", g, Const(Int(1)))),
                  any_field, any_field),
        any_field if non_bool else st.nothing(),
    )
    leading = st.one_of(
        residual.filter(lambda c: not isinstance(c, Field)),
        st.builds(lambda f: IsTag(f, "a"), st.one_of(any_field, st.just(RowRef()))),
        st.builds(lambda f, b: And(Cmp(">=", f, Const(Real(0.0))), Const(Bool(b))), any_field, st.booleans()),
        st.just(Const(Bool(True))),
    )
    conjuncts = [*draw(st.lists(leading, max_size=2)), eq, *draw(st.lists(residual, max_size=2))]
    return conjunction(conjuncts, draw(st.booleans())), a, b


def outcome(fn):
    """A route's result, or the type and message of the error it raised."""
    try:
        return fn()
    except EngineTypeError as e:
        return type(e), str(e)


def both_routes(pred, a, b):
    """(join route through eval_query, reference q_select over q_product)."""
    join = outcome(lambda: eval_query(Select(pred, Product(Lit(a), Lit(b))), {}))
    naive = outcome(lambda: BagV(q_select(pred, q_product(a, b))))
    return join, naive


@pytest.mark.hashseed
class TestEquijoin:
    @given(join_operands())
    def test_select_over_product_law(self, case):
        join, naive = both_routes(*case)
        assert join == naive

    @given(join_operands(non_bool=True))
    def test_non_bool_residual_raises_on_the_same_rows(self, case):
        join, naive = both_routes(*case)
        assert join == naive

    def test_join_route_builds_no_product(self, monkeypatch):
        import bagdb.algebra as algebra

        def no_product(b1, b2):
            raise AssertionError("full product built")

        monkeypatch.setattr(algebra, "q_product", no_product)
        a = Bag.of([Tuple((Str("x"), Int(1))), Tuple((Str("y"), Int(2)))])
        b = Bag.of([Tuple((Real(1.0), Str("p"))), Tuple((Int(3), Str("q")))])
        got = eval_query(Select(Cmp("=", Field(3), Field(2)), Product(Lit(a), Lit(b))), {})
        assert got == BagV(Bag.of([Tuple((Str("x"), Int(1), Real(1.0), Str("p")))]))

    def test_non_leading_join_builds_no_product(self, monkeypatch):
        import bagdb.algebra as algebra

        def no_product(b1, b2):
            raise AssertionError("full product built")

        monkeypatch.setattr(algebra, "q_product", no_product)
        a = Bag.of([Tuple((Str("x"), Int(1))), Tuple((Str("y"), Int(2)))])
        b = Bag.of([Tuple((Real(1.0), Str("p"))), Tuple((Int(3), Str("q")))])
        first = And(Not(IsTag(Field(4), "a")), Cmp(">=", Field(2), Const(Int(0))))
        got = eval_query(Select(And(first, Cmp("=", Field(3), Field(2))), Product(Lit(a), Lit(b))), {})
        assert got == BagV(Bag.of([Tuple((Str("x"), Int(1), Real(1.0), Str("p")))]))

    @pytest.mark.parametrize("first", [
        Cmp("<", Arith("+", Field(1), Const(Int(1))), Const(Int(5))),  # arithmetic on a string
        Cmp("=", Field(9), Const(Int(1))),  # out of range
        Cmp("=", Field(0), Const(Int(1))),  # out of range
        Field(4),  # not a boolean
        Payload(Field(1), "a"),
        Or(Const(Bool(False)), Field(4)),  # `or` of a non-boolean
        Not(And(Const(Bool(True)), Cmp("<", Field(1), Arith("*", Field(1), Field(2))))),
    ])
    def test_a_conjunct_that_can_raise_first_builds_the_product(self, monkeypatch, first):
        import bagdb.algebra as algebra

        built = []
        product = algebra.q_product
        monkeypatch.setattr(algebra, "q_product", lambda b1, b2: built.append(1) or product(b1, b2))
        a = Bag.of([Tuple((Str("x"), Int(1))), Tuple((Int(2), Int(2)))])
        b = Bag.of([Tuple((Real(1.0), Str("p"))), Tuple((Int(3), Str("q")))])
        pred = And(first, Cmp("=", Field(3), Field(2)))
        join, naive = both_routes(pred, a, b)
        assert join == naive and join[0] is EngineTypeError
        assert built

    @pytest.mark.parametrize("residual", [
        None,
        Cmp("<", Field(1), Const(Str("z"))),
        Or(IsTag(Field(4), "a"), Cmp(">=", Field(2), Const(Int(2)))),
        Field(4),  # not a boolean: raises on the first built pair
    ])
    def test_the_join_conjunct_is_evaluated_on_no_built_pair(self, monkeypatch, residual):
        import bagdb.algebra as algebra

        def fresh():  # a new predicate per call: compiled forms are kept per node
            eq = Cmp("=", Field(3), Field(2))
            return eq if residual is None else And(eq, residual)

        a = Bag.of([Tuple((Str("x"), Int(1))), Tuple((Str("y"), Int(2))), Tuple((Str("z"), Int(1)))])
        b = Bag.of([Tuple((Real(1.0), Str("p"))), Tuple((Int(2), Str("q"))), Tuple((Int(3), Str("r")))])
        naive = outcome(lambda: BagV(q_select(fresh(), q_product(a, b))))
        calls = []
        equal = algebra._COMPARISONS["="]
        monkeypatch.setitem(algebra._COMPARISONS, "=", lambda x, y: calls.append((x, y)) or equal(x, y))
        join = outcome(lambda: eval_query(Select(fresh(), Product(Lit(a), Lit(b))), {}))
        assert join == naive and calls == []

    def test_numbers_join_by_magnitude(self):
        a = Bag.of([Int(1), Real(-0.0), Int(2**53 + 1)])
        b = Bag.of([Real(1.0), Int(0), Real(2.0**53)])
        got = eval_query(Select(Cmp("=", Field(1), Field(2)), Product(Lit(a), Lit(b))), {})
        assert got == BagV(Bag.of([Tuple((Int(1), Real(1.0))), Tuple((Real(-0.0), Int(0)))]))

    @pytest.mark.parametrize("left_mixed", [True, False])
    def test_mixed_arity_raises_on_both_routes(self, left_mixed):
        mixed = Bag.of([Tuple((Int(1), Int(2))), Int(1)])
        a, b = (mixed, EMPTY) if left_mixed else (EMPTY, mixed)
        join, naive = both_routes(Cmp("=", Field(1), Field(2)), a, b)
        assert join == naive and join[0] is EngineTypeError

    @pytest.mark.parametrize("pred", [
        And(Cmp("=", Field(1), Field(2)), Const(Int(1))),
        Cmp("=", Field(1), Field(9)),
    ])
    def test_empty_side_is_empty_without_evaluating(self, pred):
        for a, b in ((EMPTY, ints(1)), (ints(1), EMPTY)):
            assert both_routes(pred, a, b) == (BagV(EMPTY), BagV(EMPTY))

    @pytest.mark.parametrize("pred", [
        Cmp("=", Field(1), Field(2)),  # both fields on the left
        Cmp("=", Field(4), Field(3)),  # both fields on the right
        Cmp("=", Field(1), Field(5)),  # out of range
        Cmp("=", Field(0), Field(3)),  # out of range
        Or(Cmp("=", Field(1), Field(3)), Const(Bool(False))),
        Not(Cmp("!=", Field(1), Field(3))),
    ])
    def test_other_shapes_match_the_reference(self, pred):
        a = Bag.of([Tuple((Int(1), Int(1))), Tuple((Int(2), Int(1)))])
        b = Bag.of([Tuple((Int(1), Int(2))), Tuple((Real(2.0), Real(2.0)))])
        join, naive = both_routes(pred, a, b)
        assert join == naive


@st.composite
def select_over_join(draw, raising=()):
    """Two bags whose rows have 1-3 fields a side (a 1-field row is a bare
    value or a 1-tuple), an inner predicate with an equality between a
    field of each side after 0-2 conjuncts that cannot raise and before
    0-3 others, and an outer predicate of 1-3 conjuncts, each an ``and``
    chain nested either way.  A conjunct reads fields of the left side
    only, of the right side only, of both, the whole row (compared with a
    row of either side), or constants.  For each of "inner" and "outer" in
    ``raising``, one conjunct that can raise goes at a random place among
    that predicate's conjuncts after the equality; the outer predicate may
    then be that conjunct alone."""
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    field = st.sampled_from(JOIN_FIELDS)

    def side(n):
        row = st.tuples(*[field] * n).map(Tuple)
        return st.lists(field | row if n == 1 else row, max_size=5).map(Bag.of)

    a, b = draw(side(n1)), draw(side(n2))
    left, right = st.integers(1, n1).map(Field), st.integers(n1 + 1, n1 + n2).map(Field)
    op, const = st.sampled_from(["=", "!=", "<", ">="]), field.map(Const)

    def reading(fields):
        return st.one_of(
            st.builds(Cmp, op, fields, fields),
            st.builds(Cmp, op, fields, const),
            st.builds(lambda f: Not(IsTag(f, "a")), fields),
            st.builds(lambda f, g: Or(Cmp("=", f, Const(Str("a"))), Cmp("<", g, Const(Int(1)))), fields, fields),
        )

    safe = st.one_of(
        reading(left),
        reading(right),
        st.builds(Cmp, op, left, right),
        st.builds(lambda f, g: And(Cmp(">=", f, Const(Int(0))), IsTag(g, "a")), right, left),
        st.builds(lambda o, v: Cmp(o, RowRef(), Const(v)), op, st.sampled_from((*a, *b)) if a or b else field),
        st.just(IsTag(RowRef(), "a")),
        st.booleans().map(lambda v: Const(Bool(v))),
        st.builds(Cmp, op, const, const),
    )
    anywhere = st.integers(1, n1 + n2).map(Field)
    can_raise = st.one_of(
        anywhere,  # not a boolean
        st.builds(lambda f: Cmp("<", Arith("+", f, Const(Int(1))), Const(Int(5))), anywhere),
        st.builds(lambda f: Cmp("=", Payload(f, "a"), Const(Int(1))), anywhere),
    )
    i, j = draw(left), draw(right)
    eq = Cmp("=", i, j) if draw(st.booleans()) else Cmp("=", j, i)
    rest = draw(st.lists(safe, max_size=3))
    outer = draw(st.lists(safe, min_size=0 if "outer" in raising else 1, max_size=3))
    for into in (rest,) * ("inner" in raising) + (outer,) * ("outer" in raising):
        into.insert(draw(st.integers(0, len(into))), draw(can_raise))
    inner = [*draw(st.lists(safe, max_size=2)), eq, *rest]
    return conjunction(inner, draw(st.booleans())), conjunction(outer, draw(st.booleans())), a, b


@pytest.mark.hashseed
class TestSelectOverJoin:
    """A select over the hash join, and a select over that, evaluates each
    conjunct that reads one side's fields only on that side's rows, before
    any pair is built, while no conjunct before it can raise: results and
    first errors are those of the operators as written."""

    @pytest.mark.parametrize("raising", [(), ("inner",), ("outer",), ("inner", "outer")])
    @given(data=st.data())
    def test_matches_the_reference(self, raising, data):
        inner, outer, a, b = data.draw(select_over_join(raising))
        joined = Select(inner, Product(Lit(a), Lit(b)))
        for q in (joined, Select(outer, joined)):
            assert outcome(lambda: eval_query(q, {})) == outcome(lambda: ref.eval_query(q, {}))

    @pytest.mark.parametrize("stays", [
        IsTag(RowRef(), "a"),  # false on every pair, true on a left row
        Not(IsTag(RowRef(), "a")),
        Cmp("!=", RowRef(), Const(Tagged("a", Int(1)))),
        Cmp("<", Field(1), Field(2)),  # both sides
        Const(Bool(False)),
        Cmp("=", Const(Int(1)), Const(Real(1.0))),
    ])
    def test_conjuncts_on_the_row_on_both_sides_or_on_constants(self, stays):
        # rows of one field, bare or 1-tuples, whose pairs are 2-tuples
        a = Bag.of([Tagged("a", Int(1)), Int(1), Tuple((Int(1),))])
        b = Bag.of([Int(1), Real(1.0), Tuple((Tagged("a", Int(1)),))])
        eq, pairs = Cmp("=", Field(1), Field(2)), Product(Lit(a), Lit(b))
        for q in (Select(And(eq, stays), pairs), Select(stays, Select(eq, pairs))):
            assert outcome(lambda: eval_query(q, {})) == outcome(lambda: ref.eval_query(q, {}))

    def test_moved_conjuncts_run_once_per_side_row_and_only_kept_pairs_are_built(self, monkeypatch):
        import bagdb.algebra as algebra

        cast = Bag.of([Tuple((Str(f"A{k}"), Int(k % 3))) for k in range(6)])  # (actor, movie)
        gross = Bag.of([Tuple((Int(m), Int(10 * m))) for m in range(3)])  # (movie, gross)
        inner = And(Cmp("=", Field(2), Field(3)), Cmp("!=", Field(1), Const(Str("A1"))))
        q = Select(Cmp(">=", Field(4), Const(Int(10))), Select(inner, Product(Lit(cast), Lit(gross))))
        want = ref.eval_query(q, {})
        calls = []
        for op in ("!=", ">="):
            holds = algebra._COMPARISONS[op]
            monkeypatch.setitem(algebra._COMPARISONS, op,
                                lambda x, y, op=op, holds=holds: calls.append(op) or holds(x, y))
        built = []
        init = Tuple.__init__
        monkeypatch.setattr(Tuple, "__init__", lambda t, items: built.append(1) or init(t, items))
        got = eval_query(q, {})
        assert got == want and len(got.bag) == 3
        assert calls.count("!=") == len(cast) and calls.count(">=") == len(gross)
        assert len(built) == len(got.bag)

    def test_an_outer_predicate_that_can_raise_runs_over_the_join(self, monkeypatch):
        import bagdb.algebra as algebra

        a = Bag.of([Tuple((Str("x"), Int(1))), Tuple((Str("y"), Int(2)))])
        b = Bag.of([Tuple((Int(1), Str("p"))), Tuple((Int(3), Str("q")))])
        selected = []
        select = algebra.q_select
        monkeypatch.setattr(algebra, "q_select", lambda p, rows: selected.append(len(rows)) or select(p, rows))
        joined = Select(Cmp("=", Field(2), Field(3)), Product(Lit(a), Lit(b)))
        for outer in (Field(4), Cmp("<", Arith("+", Field(4), Const(Int(1))), Const(Int(5)))):
            selected.clear()
            q = Select(And(Cmp("!=", Field(1), Const(Str("z"))), outer), joined)
            got = outcome(lambda: eval_query(q, {}))
            assert got == outcome(lambda: ref.eval_query(q, {})) and got[0] is EngineTypeError
            assert selected == [1]  # over the one joined pair: no conjunct moved

    def test_a_residual_that_can_raise_keeps_later_conjuncts_on_the_pairs(self, monkeypatch):
        import bagdb.algebra as algebra

        a = Bag.of([Tuple((Tagged("a", Int(0)), Int(1))), Tuple((Int(2), Int(2)))])
        b = Bag.of([Tuple((Int(1), Str("p"))), Tuple((Int(2), Str("q")))])
        calls = []
        holds = algebra._COMPARISONS["<"]
        monkeypatch.setitem(algebra._COMPARISONS, "<", lambda x, y: calls.append(1) or holds(x, y))
        risky = Cmp(">=", Payload(Field(1), "a"), Const(Int(0)))  # raises on Int(2), whose pair is first
        moved = Cmp("<", Field(4), Const(Str("q")))  # right side only, after risky: stays
        q = Select(And(And(Cmp("=", Field(2), Field(3)), risky), moved), Product(Lit(a), Lit(b)))
        got = outcome(lambda: eval_query(q, {}))
        assert got == outcome(lambda: ref.eval_query(q, {})) and got[0] is EngineTypeError
        assert calls == []  # the first built pair raises before moved runs anywhere


@st.composite
def project_over_join(draw, raising=()):
    """A ``select_over_join`` case and a list of 0-4 field indices, each
    from 0 to two past the pairs' arity (3 fields for an empty side)."""
    inner, outer, a, b = draw(select_over_join(raising))
    arity = sum(len(tuple_parts(s.elements[0])) if s else 3 for s in (a, b))
    return inner, outer, a, b, tuple(draw(st.lists(st.integers(0, arity + 2), max_size=4)))


@pytest.mark.hashseed
class TestProjectOverJoin:
    """A project over the hash join builds each match as its projected row
    when no conjunct is left for the pairs and the indices are in range;
    otherwise it projects the join's result.  Results and first errors are
    those of the operators as written."""

    CAST = Bag.of([Tuple((Str(f"A{k}"), Int(k % 3))) for k in range(6)])  # (actor, movie)
    GROSS = Bag.of([Tuple((Int(m), Int(10 * m))) for m in range(3)])  # (movie, gross)

    @staticmethod
    def check(q):
        got = outcome(lambda: eval_query(q, {}))
        assert got == outcome(lambda: ref.eval_query(q, {}))
        return got

    @pytest.mark.parametrize("raising", [(), ("inner",), ("outer",), ("inner", "outer")])
    @given(data=st.data())
    def test_matches_the_reference(self, raising, data):
        inner, outer, a, b, idx = data.draw(project_over_join(raising))
        joined = Select(inner, Product(Lit(a), Lit(b)))
        for q in (joined, Select(outer, joined)):
            self.check(Project(idx, q))

    @pytest.mark.parametrize("a, b, idx, pred", [
        (EMPTY, ints(1), (), None),  # an empty side still needs a field
        (ints(1), EMPTY, (), None),
        (ints(1), ints(2), (5,), None),  # no match: out of range on no row
        (ints(1), ints(1), (3,), None),  # out of range on the one match
        (ints(1), ints(1), (0, 1), None),
        (rows(("a", 1), ("b", 2)), Bag.of([Tuple((Int(1), Str("p")))]), (1, 1), None),
        (ints(1, 2), Bag.of([Real(1.0), Real(2.0), Int(3)]), (2,), None),  # bare scalars, Int/Real keys
        (Bag.of([Tuple((Int(1),)), Tuple((Int(2),))]), Bag.of([Tuple((Real(2.0),))]), (2, 1), None),  # 1-tuples
        (Bag.of([Tuple((Int(1),)), Int(2)]), Bag.of([Real(1.0), Tuple((Int(2),))]), (1,), None),  # both kinds
        (rows(("a", 1), ("a", 1), ("b", 1)), Bag.of([Tuple((Int(1), Str("p")))] * 2), (1,), None),  # duplicates
        (rows(("a", 1), ("a", 1), ("b", 1)), Bag.of([Tuple((Real(1.0), Str("p")))]), (4, 1), None),
        (rows(("a", 1), ("b", 2)), Bag.of([Tuple((Int(1), Str("p")))]), (1,), Cmp("<", Field(1), Field(4))),
        (rows(("a", 1), ("b", 2)), Bag.of([Tuple((Int(1), Str("p")))]), (1,), Payload(Field(1), "a")),
    ])
    def test_fixed_cases_match_the_reference(self, a, b, idx, pred):
        n1 = len(tuple_parts(a.elements[0])) if a else 1
        eq = Cmp("=", Field(n1), Field(n1 + 1))
        joined = Select(eq if pred is None else And(eq, pred), Product(Lit(a), Lit(b)))
        got = self.check(Project(idx, joined))
        if not idx:
            assert got == (EngineTypeError, "project needs at least one field")

    @pytest.mark.parametrize("idx, tuples", [((1,), 0), ((4, 1), 1)])
    def test_fused_join_builds_only_projected_rows(self, monkeypatch, idx, tuples):
        import bagdb.algebra as algebra

        def no_project(indices, b):
            raise AssertionError("project ran over the built pairs")

        monkeypatch.setattr(algebra, "q_project", no_project)
        joined = Select(Cmp("=", Field(2), Field(3)), Product(Lit(self.CAST), Lit(self.GROSS)))
        q = Project(idx, Select(Cmp(">=", Field(4), Const(Int(10))), joined))
        want = ref.eval_query(q, {})
        built = []
        init = Tuple.__init__
        monkeypatch.setattr(Tuple, "__init__", lambda t, items: built.append(1) or init(t, items))
        got = eval_query(q, {})
        assert got == want and len(got.bag) == 4
        assert len(built) == tuples * len(got.bag)

    @pytest.mark.parametrize("outer", [
        Cmp("!=", Field(1), Field(4)),  # reads both sides: a residual conjunct
        Cmp("<", Arith("+", Field(4), Const(Int(1))), Const(Int(100))),  # can raise
    ])
    def test_a_conjunct_left_for_the_pairs_projects_them(self, monkeypatch, outer):
        import bagdb.algebra as algebra

        projected = []
        project = algebra.q_project
        monkeypatch.setattr(algebra, "q_project", lambda i, rows: projected.append(len(rows)) or project(i, rows))
        joined = Select(Cmp("=", Field(2), Field(3)), Product(Lit(self.CAST), Lit(self.GROSS)))
        q = Project((1,), Select(outer, joined))
        assert self.check(q) == BagV(Bag.of([Str(f"A{k}") for k in range(6)]))
        assert projected == [6]


class TestConstantComparisons:
    """A compiled ``Cmp`` with a Const operand and a known operator binds the
    constant; an unknown operator still raises after both operands."""

    ROWS = [
        Int(1), Real(1.0), Real(-0.0), Str("a"), Tagged("a", Int(1)),
        Tuple((Int(0), Str("a"))), Tuple((Real(1.0), Int(2))), Tuple((Tagged("a", Int(0)), UNIT)),
    ]

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">=", "~"])
    @pytest.mark.parametrize("left, right", [
        (Field(1), Const(Int(1))),
        (Const(Real(1.0)), Field(2)),
        (Const(Str("a")), Field(1)),
        (Field(2), Const(Str("a"))),
        (Payload(Field(1), "a"), Const(Int(0))),  # raises before the comparison
        (Const(Int(0)), Payload(RowRef(), "a")),
        (Const(Int(1)), Const(Real(1.0))),
    ])
    def test_matches_the_tree_walk(self, op, left, right):
        e = Cmp(op, left, right)
        for row in self.ROWS:
            assert outcome(lambda: eval_expr(e, row)) == outcome(lambda: ref.eval_expr(e, row))
        q = Select(e, Lit(Bag.of(self.ROWS)))
        assert outcome(lambda: eval_query(q, {})) == outcome(lambda: ref.eval_query(q, {}))
