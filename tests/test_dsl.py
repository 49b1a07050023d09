"""Query language: lexer, parser, its round trip through the test printer
``query_text.pretty``, and the static checker."""
import gc
import math
from pathlib import Path

import pytest
from hypothesis import given, settings

from bagdb.algebra import (
    Agg,
    And,
    Arith,
    Cmp,
    Const,
    Dedup,
    DUnion,
    Field,
    Group,
    GroupPrime,
    IsTag,
    Lit,
    MapQ,
    Not,
    Payload,
    Product,
    Project,
    RowRef,
    Select,
    Table,
    eval_query,
)
from bagdb.bags import EMPTY, Bag
from bagdb.cli import load_table
from bagdb.dsl import check, parse, tokenize
from bagdb.errors import (
    EmptyAggregateError,
    EngineTypeError,
    ParseError,
    ResourceLimitError,
)
from bagdb.values import (
    UNIT,
    BagT,
    BagV,
    Bool,
    Int,
    IntT,
    Real,
    RealT,
    Str,
    StrT,
    Tagged,
    TaggedT,
    Tuple,
    TupleT,
)

from query_text import pretty
from strategies import queries


def ints(*ns):
    return Bag.of([Int(n) for n in ns])


class TestTokenizer:
    def test_positions_are_one_based(self):
        toks = tokenize("table db")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (1, 7)

    def test_comments_skipped(self):
        toks = tokenize("# hi\ntable db")
        assert toks[0].value == "table"
        assert toks[0].line == 2

    def test_string_escapes(self):
        toks = tokenize('"a\\"b\\n"')
        assert toks[0].value == 'a"b\n'

    def test_number_with_trailing_letter_rejected(self):
        with pytest.raises(ParseError):
            tokenize("1a")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')

    def test_strings_end_on_their_line(self):
        with pytest.raises(ParseError) as ei:
            tokenize('x "a\nb"')
        assert (ei.value.message, ei.value.line, ei.value.column) == ("unterminated string", 1, 3)
        assert tokenize('"a\tb"')[0].value == "a\tb"  # a raw tab

    @pytest.mark.parametrize("escape", ["\\u-001", "\\u+041", "\\u 041", "\\u0_41", "\\ud800\\u-001"])
    def test_malformed_unicode_escape(self, escape):
        # exactly four hex digits: no sign, space or underscore
        with pytest.raises(ParseError):
            tokenize(f'"{escape}"')

    def test_surrogate_pairs(self):
        assert tokenize('"\\ud83d\\ude00 \\ud83d\\u00e9"')[0].value == "\U0001f600 \ud83d\u00e9"

    def test_field_tokens(self):
        toks = tokenize(".3 .name")
        assert toks[0].kind == "FIELDNUM" and toks[0].value == 3
        assert toks[1].kind == "FIELDNAME" and toks[1].value == "name"


class TestParse:
    def test_table_source(self):
        assert parse("table db") == Table("db")

    def test_empty_source(self):
        assert parse("empty") == Lit(EMPTY)

    def test_bag_literal_source(self):
        assert parse("bag {2, 1, 1}") == Lit(ints(1, 1, 2))

    def test_literal_forms(self):
        q = parse('bag {true, null, -2, 2.5, "s", inf, (1, 2), t(3), {1}}')
        assert isinstance(q, Lit)
        want = Bag.of(
            [
                Bool(True),
                UNIT,
                Int(-2),
                Real(2.5),
                Str("s"),
                Real(math.inf),
                Tuple((Int(1), Int(2))),
                Tagged("t", Int(3)),
                BagV(ints(1)),
            ]
        )
        assert q.bag == want

    def test_one_tuple_literal(self):
        q = parse("bag {(7)}")
        assert q.bag.elements[0] == Tuple((Int(7),))

    def test_tagged_literal_arities(self):
        q = parse("bag {t(), u(1), v(1, 2)}")
        assert q.bag == Bag.of(
            [
                Tagged("t", UNIT),
                Tagged("u", Int(1)),
                Tagged("v", Tuple((Int(1), Int(2)))),
            ]
        )

    def test_empty_bag_literal_rejected_at_top(self):
        with pytest.raises(ParseError):
            parse("bag {}")

    def test_nested_empty_bag_literal_ok(self):
        q = parse("bag {{}}")
        assert q.bag == Bag.of([BagV(EMPTY)])

    def test_pipeline_stages(self):
        q = parse("table t |> select (.1 > 2) |> project [1] |> dedup")
        want = Dedup(
            Project((1,), Select(Cmp(">", Field(1), Const(Int(2))), Table("t")))
        )
        assert q == want

    def test_map_stage(self):
        q = parse("table t |> map (row + 1)")
        assert q == MapQ(Arith("+", RowRef(), Const(Int(1))), Table("t"))

    def test_binary_stages_take_query_argument(self):
        q = parse("table a |> dunion (table b |> dedup)")
        assert q == DUnion(Table("a"), Dedup(Table("b")))

    def test_group_stage(self):
        q = parse("table t |> group [1] [2, 3]")
        assert q == Group((1,), (2, 3), Table("t"))

    def test_agg_kinds(self):
        assert parse("table t |> agg size") == Agg("size", Table("t"))
        assert parse("table t |> agg the") == Agg("the", Table("t"))
        assert parse("table t |> agg sum") == Agg("sum", Table("t"))

    def test_match_desugars(self):
        q = parse("table db |> match cast as (actor, movie)")
        want = MapQ(
            Payload(RowRef(), "cast"),
            Select(IsTag(RowRef(), "cast"), Table("db")),
        )
        assert q == want

    def test_match_binds_names(self):
        q = parse("table db |> match cast as (actor, movie) |> project [movie]")
        assert isinstance(q, Project) and q.indices == (2,)

    def test_joinmatch_desugars_to_product(self):
        q = parse(
            "table db |> match cast as (a, m)"
            " |> joinmatch db gross as (gm, g) on (.m = .gm)"
        )
        assert isinstance(q, Select)
        assert q.pred == Cmp("=", Field(2), Field(3))
        assert isinstance(q.q, Product)

    def test_unknown_column_name(self):
        with pytest.raises(ParseError):
            parse("table db |> match cast as (a, m) |> project [nope]")

    def test_names_unavailable_without_match(self):
        with pytest.raises(ParseError):
            parse("table db |> project [name]")

    def test_expression_precedence(self):
        q = parse("table t |> select (.1 + 2 * 3 = 7 and not false)")
        pred = q.pred
        assert pred == And(
            Cmp(
                "=",
                Arith("+", Field(1), Arith("*", Const(Int(2)), Const(Int(3)))),
                Const(Int(7)),
            ),
            Not(Const(Bool(False))),
        )

    def test_comparison_not_associative(self):
        with pytest.raises(ParseError):
            parse("table t |> select (1 < 2 < 3)")

    def test_istag_payload_exprs(self):
        q = parse("table t |> select (istag(row, cast))")
        assert q.pred == IsTag(RowRef(), "cast")
        q = parse("table t |> map (payload(row, cast))")
        assert q.fn == Payload(RowRef(), "cast")

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as ei:
            parse("table |>")
        assert (ei.value.line, ei.value.column) == (1, 7)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("table t extra")


# ---------------------------------------------------------------------------
# Round trip


class TestRoundTrip:
    @settings(max_examples=150)
    @given(queries)
    def test_parse_pretty_inverse(self, q):
        assert parse(pretty(q)) == q

    def test_group_prime_has_no_syntax(self):
        with pytest.raises(EngineTypeError):
            pretty(GroupPrime(Table("t")))

    def test_pretty_examples(self):
        assert pretty(Table("db")) == "table db"
        assert pretty(Lit(EMPTY)) == "empty"
        assert pretty(Dedup(Table("t"))) == "table t |> dedup"
        assert (
            pretty(Project((2, 1), Table("t"))) == "table t |> project [2, 1]"
        )


# ---------------------------------------------------------------------------
# Static checking

CATALOG = {
    "t1": TupleT((IntT(), IntT())),
    "t2": TaggedT.of({"a": IntT(), "b": StrT()}),
}

ENV = {
    "t1": Bag.of([Tuple((Int(1), Int(2))), Tuple((Int(3), Int(4)))]),
    "t2": Bag.of([Tagged("a", Int(5)), Tagged("b", Str("x"))]),
}


class TestCheck:
    def test_table_schema(self):
        assert check(Table("t1"), CATALOG) == BagT(TupleT((IntT(), IntT())))

    def test_project_schema(self):
        q = parse("table t1 |> project [1]")
        assert check(q, CATALOG) == BagT(IntT())

    def test_select_preserves_schema(self):
        q = parse("table t1 |> select (.1 < .2)")
        assert check(q, CATALOG) == BagT(TupleT((IntT(), IntT())))

    def test_select_requires_bool(self):
        q = parse("table t1 |> select (.1 + .2)")
        with pytest.raises(EngineTypeError):
            check(q, CATALOG)

    def test_project_out_of_range(self):
        q = parse("table t1 |> project [3]")
        with pytest.raises(EngineTypeError):
            check(q, CATALOG)

    def test_payload_needs_variant(self):
        q = parse("table t2 |> map (payload(row, zzz))")
        with pytest.raises(EngineTypeError):
            check(q, CATALOG)

    def test_payload_of_sum_needs_istag_select(self):
        # a row tagged b would make payload(row, a) fail at run time
        with pytest.raises(EngineTypeError):
            check(parse("table t2 |> map (payload(row, a))"), CATALOG)
        q = parse("table t2 |> select (istag(row, a)) |> map (payload(row, a))")
        assert check(q, CATALOG) == BagT(IntT())
        q = parse(
            "table t2 |> map ((1, row)) |> select (istag(.2, b)) |> map (payload(.2, b))"
        )
        assert check(q, CATALOG) == BagT(StrT())

    def test_match_schema(self):
        q = parse("table t2 |> match a as (n)")
        assert check(q, CATALOG) == BagT(IntT())

    def test_agg_schemas(self):
        assert check(parse("table t1 |> agg size"), CATALOG) == IntT()
        assert check(parse("table t1 |> project [1] |> agg sum"), CATALOG) == IntT()

    def test_sum_needs_numbers(self):
        q = parse("table t2 |> match b as (s) |> agg sum")
        with pytest.raises(EngineTypeError):
            check(q, CATALOG)

    def test_empty_source_is_polymorphic(self):
        assert check(parse("empty"), CATALOG) == BagT(None)
        assert check(parse("empty |> agg sum"), CATALOG) == IntT()

    def test_unknown_table(self):
        with pytest.raises(EngineTypeError):
            check(parse("table zzz"), CATALOG)

    def test_stage_after_agg_rejected(self):
        q = parse("table t1 |> agg size |> dedup")
        with pytest.raises(EngineTypeError):
            check(q, CATALOG)

    @settings(max_examples=200)
    @given(queries)
    def test_checked_queries_do_not_raise_type_errors(self, q):
        # the checker may be stricter than evaluation, never laxer
        try:
            check(q, CATALOG)
        except EngineTypeError:
            return
        try:
            eval_query(q, ENV, max_powerbag=4096)
        except (EmptyAggregateError, ResourceLimitError):
            pass

    def test_leaves_no_reference_cycle(self):
        # with the collector off, no check leaves anything for it to free:
        # every fixture query, against the fixture table and the world table
        fixtures = Path(__file__).parent / "fixtures"
        catalog = {"db": load_table(fixtures / "db.jsonl")[0], "world": None}
        for path in sorted(fixtures.glob("*.query")):
            q = parse(path.read_text(encoding="utf-8"))
            gc.collect()
            gc.disable()
            try:
                check(q, catalog)
                assert gc.collect() == 0, path.name
            finally:
                gc.enable()

    @settings(max_examples=100)
    @given(queries)
    def test_random_checks_leave_no_reference_cycle(self, q):
        # a check that raises leaves no cycle either
        gc.collect()
        gc.disable()
        try:
            try:
                check(q, CATALOG)
            except EngineTypeError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()
