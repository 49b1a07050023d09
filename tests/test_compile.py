"""Compiled row expressions, tag runs and the equijoin against the
tree-walking interpreter kept in ``reference_algebra``."""
import pytest
from hypothesis import example, given, settings

from bagdb.algebra import (
    And,
    Arith,
    Cmp,
    Const,
    Field,
    IsTag,
    MapQ,
    Payload,
    RowRef,
    Select,
    Table,
    compile_expr,
    eval_expr,
    eval_query,
)
from bagdb.bags import Bag
from bagdb.dsl import parse
from bagdb.errors import EngineError, EngineTypeError
from bagdb.values import BagV, Bool, Int, Real, Str, Tagged, Tuple

import reference_algebra as ref
from query_text import pretty
from strategies import envs, exprs, join_queries, queries, table_rows, values


def outcome(fn):
    """A route's result, or the type and message of the error it raised."""
    try:
        return fn()
    except EngineError as e:
        return type(e), str(e)


class TestDifferential:
    @settings(max_examples=300)
    @given(exprs, table_rows)
    def test_expressions_agree_with_the_tree_walk(self, e, row):
        want = outcome(lambda: ref.eval_expr(e, row))
        assert outcome(lambda: eval_expr(e, row)) == want
        assert outcome(lambda: eval_expr(e, row)) == want  # from the stored closure

    @given(exprs, values)
    @example(Arith("*", Field(2), Const(Real(1.5))), Tuple((Str("h"), Int(10**400))))  # past the float range
    def test_expressions_agree_on_any_value(self, e, row):
        assert outcome(lambda: eval_expr(e, row)) == outcome(lambda: ref.eval_expr(e, row))

    @settings(max_examples=300)
    @given(queries, envs)
    def test_queries_agree_with_the_reference(self, q, env):
        want = outcome(lambda: ref.eval_query(q, env, max_powerbag=4096))
        assert outcome(lambda: eval_query(q, env, max_powerbag=4096)) == want

    @settings(max_examples=300)
    @given(join_queries, envs)
    def test_joins_agree_with_the_full_product(self, q, env):
        want = outcome(lambda: ref.eval_query(q, env))
        assert outcome(lambda: eval_query(q, env)) == want

    @settings(max_examples=150)
    @given(queries, envs)
    def test_stored_closures_are_invisible(self, q, env):
        text = pretty(q)
        outcome(lambda: eval_query(q, env, max_powerbag=4096))
        fresh = parse(text)
        assert fresh == q and hash(fresh) == hash(q)
        assert pretty(q) == text and repr(q) == repr(fresh)


class TestCompiled:
    def test_a_node_is_compiled_once(self):
        e = And(Cmp("=", Field(1), Const(Int(1))), IsTag(Field(2), "a"))
        fn = compile_expr(e)
        assert compile_expr(e) is fn
        assert compile_expr(e.left) is compile_expr(e.left)

    def test_unknown_nodes_raise_only_when_evaluated(self):
        e = And(Const(Bool(False)), Cmp("~", Const(Int(1)), Const(Int(2))))
        assert eval_expr(e, Int(0)) == Bool(False)
        bad = Cmp("~", Const(Int(1)), Const(Int(2)))
        assert outcome(lambda: eval_expr(bad, Int(0))) == outcome(lambda: ref.eval_expr(bad, Int(0)))

    @pytest.mark.parametrize("text", [
        "table t |> select (" + "not " * 700 + "istag(row, a))",
        "table t |> select (" + " and ".join(["(.1 = 1)"] * 700) + ")",
        "table t |> map (" + " + ".join([".1"] * 700) + ")",
    ])
    def test_long_chains_compile_as_deep_as_the_tree_walk(self, text):
        q, env = parse(text), {"t": Bag.of([Int(1), Int(2)])}
        assert eval_query(q, env) == ref.eval_query(q, env)

    def test_fields_out_of_range(self):
        for index in (-1, 0, 1, 2, 3):
            for row in (Int(1), Tuple((Int(1), Int(2))), Tuple(())):
                e = Field(index)
                assert outcome(lambda: eval_expr(e, row)) == outcome(lambda: ref.eval_expr(e, row))

    def test_non_node_raises_like_the_tree_walk(self):
        e = Cmp("=", Int(1), Const(Int(1)))  # a value where a node belongs
        assert outcome(lambda: eval_expr(e, Int(0))) == outcome(lambda: ref.eval_expr(e, Int(0)))


class TestTagRuns:
    ROWS = Bag.of([
        Int(5), Tuple((Int(1), Int(2))), Tagged("a", Int(2)), Tagged("b", Tuple((Str("x"), Int(1)))),
        Tagged("b", Tuple((Str("a"), Int(9)))), Tagged("b", Tuple((Str("a"), Int(9)))),
        Tagged("c", Int(0)), BagV(Bag.of([Int(1)])),
    ])

    def test_match_is_the_payloads_of_the_run(self, monkeypatch):
        import bagdb.algebra as algebra

        monkeypatch.setattr(algebra, "q_map", None)
        monkeypatch.setattr(algebra, "q_select", None)
        q = MapQ(Payload(RowRef(), "b"), Select(IsTag(RowRef(), "b"), Table("t")))
        got = eval_query(q, {"t": self.ROWS})
        assert got == ref.eval_query(q, {"t": self.ROWS})
        assert got.bag.elements == tuple(sorted(got.bag.elements, key=lambda v: v.key))
        assert got.bag.key == tuple(v.key for v in got.bag.elements)

    def test_payload_of_another_tag_still_raises(self):
        q = MapQ(Payload(RowRef(), "a"), Select(IsTag(RowRef(), "b"), Table("t")))
        env = {"t": self.ROWS}
        assert outcome(lambda: eval_query(q, env)) == outcome(lambda: ref.eval_query(q, env))
        assert outcome(lambda: eval_query(q, env))[0] is EngineTypeError
