"""Distributions over bags: the interchange operator, the combined monad,
bag-level generators, and generative rule programs."""
import copy
import gc
import math
import os
import tracemalloc
import weakref
from collections import Counter
from itertools import product as iproduct
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagdb.algebra import Agg, Cmp, Const, Table
from bagdb.bags import EMPTY, Bag, tag_rows, tag_runs
from bagdb.cli import _emit, _exact_payload, load_table
from bagdb.errors import (
    EngineError,
    EngineTypeError,
    NotFiniteError,
    ProgramError,
    ResourceLimitError,
)
from bagdb.pbmonad import (
    Atom,
    ConstT,
    DistT,
    Guard,
    PBSampler,
    Rule,
    RuleProgram,
    VarT,
    add_noise,
    add_remove,
    distr_exact,
    distr_sample,
    parse_rules,
    pb_bind,
    pb_unit_bag,
    pb_unit_dist,
    pb_uplus,
    poisson_bag,
    rule_matches,
    run_rule_program,
    validate_program,
)
from bagdb import pbmonad
from bagdb.pbmonad import _RulePlan, _dist_sampler, _distr
from bagdb.prob import Bernoulli, Dirac, ExactDist, Normal, Seed, dirac, draw_from, exact_of, pushforward_exact
from bagdb.values import UNIT, BagV, Bool, Int, Real, Str, Tagged, Tuple, deserialize, tagged

import reference_algebra as ref
from dual_routes import (
    bind_by_dict,
    distr_by_dict,
    distr_by_fold,
    hash_from_scratch,
    naive_matches,
    pb_bind_by_dict,
    pb_uplus_by_dict,
    pushforward_exact_by_dict,
    resolve,
)
from strategies import bags, exact_dists, values


def ints(*ns):
    return Bag.of([Int(n) for n in ns])


def bag_dirac(*ns):
    return pb_unit_bag(ints(*ns))


class TestDistr:
    def test_empty_sequence(self):
        assert distr_exact([]).entries == ((BagV(EMPTY), 1.0),)

    def test_product_of_independent_choices(self):
        d1 = dirac(Int(1))
        d2 = ExactDist.from_weights({Int(2): 0.25, Int(3): 0.75})
        got = distr_exact([d1, d2])
        assert got.weight(BagV(ints(1, 2))) == pytest.approx(0.25)
        assert got.weight(BagV(ints(1, 3))) == pytest.approx(0.75)

    def test_collisions_merge(self):
        d = ExactDist.from_weights({Int(0): 0.5, Int(1): 0.5})
        got = distr_exact([d, d])
        assert got.weight(BagV(ints(0, 1))) == pytest.approx(0.5)
        assert got.weight(BagV(ints(0, 0))) == pytest.approx(0.25)
        assert got.weight(BagV(ints(1, 1))) == pytest.approx(0.25)

    def test_unit_axiom_bag_of_diracs(self):
        got = distr_exact([dirac(Int(1)), dirac(Int(2))])
        assert got.close_to(pb_unit_bag(ints(1, 2)))

    @given(exact_dists())
    def test_unit_axiom_single_dist(self, d):
        assert distr_exact([d]).close_to(pb_unit_dist(d))

    @given(exact_dists(), exact_dists())
    def test_order_irrelevant(self, d1, d2):
        assert distr_exact([d1, d2]).close_to(distr_exact([d2, d1]))

    # few outcomes, so that different choices often give the same bag
    @given(st.lists(exact_dists(st.sampled_from([Int(0), Int(1), Int(2)])), max_size=4))
    def test_product_form_equals_fold(self, ds):
        assert distr_exact(ds).close_to(distr_by_fold(ds))

    def test_distr_sample_deterministic(self):
        samplers = [Bernoulli(0.5), Bernoulli(0.5), Dirac(Int(9))]
        a = distr_sample(samplers, Seed(4))
        b = distr_sample(samplers, Seed(4))
        assert a == b
        assert a.count(Int(9)) == 1


class TestPBMonad:
    def test_unit_bag(self):
        assert bag_dirac(1, 2).entries == ((BagV(ints(1, 2)), 1.0),)

    def test_unit_dist_maps_singletons(self):
        d = ExactDist.from_weights({Int(1): 0.4, Int(2): 0.6})
        got = pb_unit_dist(d)
        assert got.weight(BagV(ints(1))) == pytest.approx(0.4)
        assert got.weight(BagV(ints(2))) == pytest.approx(0.6)

    def test_bind_replaces_elements(self):
        f = lambda v: pb_unit_bag(ints(v.value, v.value))
        got = pb_bind(f, bag_dirac(1, 2))
        assert got.entries == ((BagV(ints(1, 1, 2, 2)), 1.0),)

    def test_bind_mixes_weights(self):
        f = lambda v: ExactDist.from_weights(
            {BagV(ints(v.value)): 0.5, BagV(EMPTY): 0.5}
        )
        got = pb_bind(f, bag_dirac(7))
        assert got.weight(BagV(ints(7))) == pytest.approx(0.5)
        assert got.weight(BagV(EMPTY)) == pytest.approx(0.5)

    def test_left_identity(self):
        f = lambda v: ExactDist.from_weights(
            {BagV(ints(v.value)): 0.3, BagV(ints(v.value, v.value)): 0.7}
        )
        x = Int(5)
        assert pb_bind(f, pb_unit_bag(Bag.of([x]))).close_to(f(x))

    def test_right_identity(self):
        m = ExactDist.from_weights({BagV(ints(1)): 0.4, BagV(ints(2, 3)): 0.6})
        got = pb_bind(lambda v: pb_unit_bag(Bag.of([v])), m)
        assert got.close_to(m)

    def test_associativity(self):
        m = ExactDist.from_weights({BagV(ints(1)): 0.5, BagV(ints(2)): 0.5})
        f = lambda v: ExactDist.from_weights(
            {BagV(ints(v.value)): 0.5, BagV(ints(v.value + 1)): 0.5}
        )
        g = lambda v: pb_unit_bag(ints(v.value, 0))
        lhs = pb_bind(g, pb_bind(f, m))
        rhs = pb_bind(lambda v: pb_bind(g, f(v)), m)
        assert lhs.close_to(rhs, 1e-9)

    def test_uplus_convolves(self):
        m1 = ExactDist.from_weights({BagV(ints(1)): 0.5, BagV(EMPTY): 0.5})
        m2 = pb_unit_bag(ints(2))
        got = pb_uplus(m1, m2)
        assert got.weight(BagV(ints(1, 2))) == pytest.approx(0.5)
        assert got.weight(BagV(ints(2))) == pytest.approx(0.5)

    def test_uplus_unit(self):
        m = ExactDist.from_weights({BagV(ints(1)): 0.25, BagV(ints(2)): 0.75})
        assert pb_uplus(m, pb_unit_bag(EMPTY)).close_to(m)

    def test_uplus_commutative(self):
        m1 = ExactDist.from_weights({BagV(ints(1)): 0.5, BagV(EMPTY): 0.5})
        m2 = ExactDist.from_weights({BagV(ints(2)): 0.3, BagV(ints(3)): 0.7})
        assert pb_uplus(m1, m2).close_to(pb_uplus(m2, m1))


class TestPBSampler:
    def test_worlds_in_index_order(self):
        s = PBSampler(lambda i: ints(i))
        assert s.worlds(3) == [ints(0), ints(1), ints(2)]

    def test_negative_index_rejected(self):
        with pytest.raises(EngineTypeError):
            PBSampler(lambda i: EMPTY).world(-1)


class TestGenerators:
    def test_poisson_bag_deterministic(self):
        a = poisson_bag(3.0, Bernoulli(0.5), Seed(9))
        b = poisson_bag(3.0, Bernoulli(0.5), Seed(9))
        assert a == b

    def test_poisson_bag_mean_size(self):
        n, rate = 4000, 3.0
        sizes = [poisson_bag(rate, Dirac(Int(1)), Seed(10, (i,))).size for i in range(n)]
        mean = math.fsum(sizes) / n
        assert abs(mean - rate) <= 3 * math.sqrt(rate / n)

    def test_add_noise_shape(self):
        b = Bag.of([Tuple((Str("a"), Real(100.0)))])
        w = add_noise(b, 1.0, Seed(2)).world(0)
        assert w.size == 1
        row = w.elements[0]
        assert row.items[0] == Str("a")
        assert isinstance(row.items[1], Real)

    def test_add_noise_requires_keyed_reals(self):
        with pytest.raises(EngineTypeError):
            add_noise(ints(1), 1.0, Seed(0)).world(0)
        with pytest.raises(EngineTypeError):
            add_noise(Bag.of([Tuple((Str("a"), Int(1)))]), 1.0, Seed(0)).world(0)

    def test_add_noise_sigma_positive(self):
        b = Bag.of([Tuple((Str("a"), Real(1.0)))])
        with pytest.raises(EngineTypeError):
            add_noise(b, 0.0, Seed(0))

    def test_add_noise_mean_is_base(self):
        b = Bag.of([Tuple((Str("a"), Real(50.0)))])
        s = add_noise(b, 2.0, Seed(13))
        n = 4000
        vals = [s.world(i).elements[0].items[1].value for i in range(n)]
        mean = math.fsum(vals) / n
        assert abs(mean - 50.0) <= 3 * 2.0 / math.sqrt(n)

    def test_add_remove_keep_probability(self):
        base = ints(*range(10))
        s = add_remove(base, 0.9, 0.0001, Dirac(Int(99)), Seed(17))
        n = 3000
        kept = math.fsum(
            sum(1 for x in s.world(i) if x != Int(99)) for i in range(n)
        ) / n
        assert abs(kept - 9.0) <= 3 * math.sqrt(10 * 0.9 * 0.1 / n)

    def test_add_remove_addition_rate(self):
        s = add_remove(EMPTY, 1.0, 2.0, Dirac(Int(0)), Seed(18))
        n = 3000
        added = math.fsum(s.world(i).size for i in range(n)) / n
        assert abs(added - 2.0) <= 3 * math.sqrt(2.0 / n)

    def test_add_remove_deterministic(self):
        s1 = add_remove(ints(1, 2, 3), 0.5, 1.0, Bernoulli(0.5), Seed(19))
        s2 = add_remove(ints(1, 2, 3), 0.5, 1.0, Bernoulli(0.5), Seed(19))
        assert s1.worlds(25) == s2.worlds(25)


BURGLARY = """
earthquake(c, bernoulli(0.1)) <- crimechance(c, r)
burglary(x, bernoulli(r)) <- address(x, c), crimechance(c, r)
trigger(x, bernoulli(0.6)) <- address(x, c), earthquake(c, 1)
trigger(x, bernoulli(0.9)) <- burglary(x, 1)
alarm(x) <- trigger(x, 1)
"""


def town(houses=("H1", "H2"), chance=0.3):
    rows = [Tagged("address", Tuple((Str(h), Str("C1")))) for h in houses]
    rows.append(Tagged("crimechance", Tuple((Str("C1"), Real(chance)))))
    return Bag.of(rows)


def alarm_prob(dist: ExactDist, house: str) -> float:
    want = Tagged("alarm", Str(house))
    return math.fsum(
        w for v, w in dist.entries if v.bag.count(want) > 0
    )


class TestRuleParsing:
    def test_structure(self):
        prog = parse_rules(BURGLARY)
        assert len(prog.rules) == 5
        r = prog.rules[1]
        assert r.head_tag == "burglary"
        assert r.head_terms == (VarT("x"), DistT("bernoulli", (VarT("r"),)))
        assert r.atoms == (
            Atom("address", (VarT("x"), VarT("c"))),
            Atom("crimechance", (VarT("c"), VarT("r"))),
        )
        assert r.guards == ()

    def test_comments_and_blanks(self):
        prog = parse_rules("# nothing\n\nfact(1) <- seed(x)\n")
        assert len(prog.rules) == 1
        assert prog.rules[0].head_terms == (ConstT(Int(1)),)

    def test_guards(self):
        prog = parse_rules("out(x) <- pair(x, y), x != y, y >= 2")
        r = prog.rules[0]
        assert len(r.atoms) == 1
        assert r.guards == (
            Guard("!=", VarT("x"), VarT("y")),
            Guard(">=", VarT("y"), ConstT(Int(2))),
        )

    def test_literal_terms(self):
        prog = parse_rules('mark(x, "lbl", -2, 1.5, true) <- src(x)')
        assert prog.rules[0].head_terms == (
            VarT("x"),
            ConstT(Str("lbl")),
            ConstT(Int(-2)),
            ConstT(Real(1.5)),
            ConstT(Bool(True)),
        )

    def test_missing_arrow(self):
        with pytest.raises(Exception):
            parse_rules("head(x) body(x)")

    def test_unknown_distribution(self):
        with pytest.raises(Exception) as ei:
            parse_rules("out(gamma(1.0)) <- src(x)")
        assert "distribution" in str(ei.value)

    def test_line_numbers_in_errors(self):
        from bagdb.errors import ParseError

        with pytest.raises(ParseError) as ei:
            parse_rules("ok(x) <- src(x)\nbad(x <- src(x)")
        assert ei.value.line == 2

    def test_columns_count_from_the_start_of_the_line(self):
        from bagdb.errors import ParseError

        with pytest.raises(ParseError) as ei:
            parse_rules("ok(x) <- src(x)\n    bad(x <- src(x)  # comment")
        assert (ei.value.line, ei.value.column) == (2, 11)

    def test_hash_inside_a_string(self):
        prog = parse_rules('mark(x, "a#b") <- a(x)  # a comment\n# another\n')
        assert prog.rules[0].head_terms == (VarT("x"), ConstT(Str("a#b")))

    def test_negative_infinity(self):
        prog = parse_rules("a(-inf) <- b(x), x > -inf")
        assert prog.rules[0].head_terms == (ConstT(Real(-math.inf)),)
        assert prog.rules[0].guards == (Guard(">", VarT("x"), ConstT(Real(-math.inf))),)

    def test_end_of_input_is_just_after_the_last_token(self):
        from bagdb.errors import ParseError

        with pytest.raises(ParseError) as ei:
            parse_rules("a(x) <- b(xyz   # unclosed")
        assert (ei.value.column, ei.value.expected) == (14, ("RPAREN",))
        assert "found end of input" in str(ei.value)


class TestValidation:
    def test_burglary_is_valid(self):
        validate_program(parse_rules(BURGLARY))

    def test_two_dists_rejected(self):
        prog = parse_rules("out(bernoulli(0.5), bernoulli(0.5)) <- src(x)")
        with pytest.raises(ProgramError):
            validate_program(prog)

    def test_unbound_head_var(self):
        prog = parse_rules("out(z) <- src(x)")
        with pytest.raises(ProgramError):
            validate_program(prog)

    def test_unbound_dist_param(self):
        prog = parse_rules("out(bernoulli(p)) <- src(x)")
        with pytest.raises(ProgramError):
            validate_program(prog)

    def test_unbound_guard_var(self):
        prog = parse_rules("out(x) <- src(x), x < z")
        with pytest.raises(ProgramError):
            validate_program(prog)

    def test_self_recursion_rejected(self):
        prog = parse_rules("grow(x) <- grow(x)")
        with pytest.raises(ProgramError) as ei:
            validate_program(prog)
        assert "recursion" in str(ei.value)

    def test_cycle_rejected(self):
        prog = parse_rules("a(x) <- b(x)\nb(x) <- a(x)")
        with pytest.raises(ProgramError):
            validate_program(prog)

    def test_forward_reference_allowed(self):
        # later rules may produce tags earlier rules mention; only cycles
        # are recursion
        prog = parse_rules("a(x) <- b(x)\nb(x) <- src(x)")
        validate_program(prog)

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    @pytest.mark.parametrize("rows", [[Int(1)], []], ids=["matched", "unmatched"])
    @pytest.mark.parametrize("dist, message", [
        (DistT("normal", (ConstT(Real(1.0)),)), "normal of 'x' takes 2 parameter(s), got 1"),
        (DistT("bernoulli", (ConstT(Real(0.5)), ConstT(Real(0.5)))), "bernoulli of 'x' takes 1 parameter(s), got 2"),
        (DistT("poisson", ()), "poisson of 'x' takes 1 parameter(s), got 0"),
        (DistT("gamma", (ConstT(Real(1.0)),)), "unknown distribution 'gamma' of 'x'"),
        (DistT("normal", (VarT("z"), ConstT(Real(1.0)))), "distribution parameter 'z' of 'x' is not bound in the body"),
        (DistT("bernoulli", (ConstT(Str("a")),)), "distribution parameter Str('a') of 'x' is not numeric"),
    ], ids=["normal-1", "bernoulli-2", "poisson-0", "unknown-kind", "unbound-param", "str-param"])
    def test_draw_checked_before_any_match(self, backend, rows, dist, message):
        # whether or not the rule matches, and on both backends
        prog = RuleProgram((Rule("x", (VarT("y"), dist), (Atom("b", (VarT("y"),)),), ()),))
        with pytest.raises(ProgramError) as ei:
            validate_program(prog)
        assert str(ei.value) == message
        base = Bag.of([Tagged("b", v) for v in rows])
        with pytest.raises(ProgramError) as ei:
            run_rule_program(prog, base, backend, seed=Seed(1))
        assert str(ei.value) == message


# numbers that compare by magnitude across Int and Real, and other values
GUARD_VALUES = [Int(1), Real(1.0), Int(0), Real(0.0), Real(-0.0), Int(2**53 + 1), Real(2.0**53),
                Real(-math.inf), Str(""), Str("a"), Tagged("a", Int(1)), Tagged("a", Real(1.0)),
                BagV(Bag.of([Int(1)])), BagV(Bag.of([Real(1.0)]))]
guard_values = st.one_of(st.sampled_from(GUARD_VALUES), values)
CMP_OPS = ["=", "!=", "<", "<=", ">", ">="]


def guard_agrees(op, a, b):
    # the engine's compiled guard, on a one-atom rule whose one row binds y
    # to b (wrapped in a one-field tuple, so a tuple b is one field too)
    want = ref.eval_expr(Cmp(op, Const(a), Const(b)), UNIT)
    rule = Rule("out", (), (Atom("t", (VarT("y"),)),), (Guard(op, ConstT(a), VarT("y")),))
    return (len(rule_matches(rule, Bag.of([Tagged("t", Tuple((b,)))]))) == 1) is want.value


class TestGuards:
    @given(st.sampled_from(CMP_OPS), guard_values, guard_values)
    def test_guard_agrees_with_the_reference_comparison(self, op, a, b):
        assert guard_agrees(op, a, b)

    @pytest.mark.parametrize("op", CMP_OPS)
    def test_guard_agrees_on_every_edge_pair(self, op):
        assert all(guard_agrees(op, a, b) for a in GUARD_VALUES for b in GUARD_VALUES)


@pytest.mark.hashseed
class TestRuleMatching:
    def test_atom_without_arguments_reads_a_head_without_terms(self):
        from oracle import enum_worlds

        prog = parse_rules("flag() <- a(x)\nseen(1) <- flag()")
        base = Bag.of([Tagged("a", Int(1))])
        want = Tagged("seen", Int(1))
        exact = run_rule_program(prog, base, "exact")
        assert [bv.bag.count(want) for bv, _ in exact.entries] == [1]
        assert [bv.bag.count(want) for bv, _ in enum_worlds(prog, base).entries] == [1]
        assert run_rule_program(prog, base, "mc", seed=Seed(1)).world(0).count(want) == 1

    def test_atom_without_arguments_reads_unit_and_empty_tuple_payloads(self):
        rule = parse_rules("out(1) <- flag()").rules[0]
        bag = Bag.of([Tagged("flag", UNIT), Tagged("flag", Tuple(())), Tagged("flag", Int(0))])
        assert rule_matches(rule, bag) == naive_matches(rule, bag) == [{}, {}]
        one = parse_rules("out(x) <- flag(x)").rules[0]
        assert [e["x"] for e in rule_matches(one, bag)] == [Int(0), UNIT]

    def test_match_ordinals_follow_canonical_order(self):
        rule = parse_rules("out(x) <- src(x)").rules[0]
        bag = Bag.of([Tagged("src", Int(3)), Tagged("src", Int(1))])
        envs = rule_matches(rule, bag)
        assert [e["x"] for e in envs] == [Int(1), Int(3)]

    def test_join_on_shared_variable(self):
        rule = parse_rules("out(x) <- a(x), b(x)").rules[0]
        bag = Bag.of(
            [
                Tagged("a", Int(1)),
                Tagged("a", Int(2)),
                Tagged("b", Int(2)),
                Tagged("b", Int(3)),
            ]
        )
        envs = rule_matches(rule, bag)
        assert [e["x"] for e in envs] == [Int(2)]

    def test_constants_filter(self):
        rule = parse_rules("out(x) <- pair(x, 1)").rules[0]
        bag = Bag.of(
            [
                Tagged("pair", Tuple((Int(5), Int(1)))),
                Tagged("pair", Tuple((Int(6), Int(2)))),
            ]
        )
        envs = rule_matches(rule, bag)
        assert [e["x"] for e in envs] == [Int(5)]

    def test_repeated_variable_unifies(self):
        rule = parse_rules("out(x) <- pair(x, x)").rules[0]
        bag = Bag.of(
            [
                Tagged("pair", Tuple((Int(5), Int(5)))),
                Tagged("pair", Tuple((Int(5), Int(6)))),
            ]
        )
        envs = rule_matches(rule, bag)
        assert [e["x"] for e in envs] == [Int(5)]

    def test_guard_filters(self):
        rule = parse_rules("out(x) <- pair(x, y), x < y").rules[0]
        bag = Bag.of(
            [
                Tagged("pair", Tuple((Int(1), Int(2)))),
                Tagged("pair", Tuple((Int(3), Int(2)))),
            ]
        )
        envs = rule_matches(rule, bag)
        assert [e["x"] for e in envs] == [Int(1)]

    def test_multiplicity_one_match_per_copy(self):
        rule = parse_rules("out(x) <- src(x)").rules[0]
        bag = Bag.of([Tagged("src", Int(1)), Tagged("src", Int(1))])
        assert len(rule_matches(rule, bag)) == 2

    @pytest.mark.parametrize("rows", [[Tagged("src", Int(1))], []], ids=["rows-match", "no-rows"])
    def test_unbound_guard_variable_raises(self, rows):
        # rule_matches does not validate its rule: an unbound variable
        # raises when the rule is compiled, whether or not any row matches
        rule = Rule("out", (VarT("x"),), (Atom("src", (VarT("x"),)),), (Guard("<", VarT("x"), VarT("z")),))
        with pytest.raises(ProgramError) as ei:
            rule_matches(rule, Bag.of(rows))
        assert str(ei.value) == "unbound variable 'z'"

    @pytest.mark.parametrize("head_terms, name", [
        ((VarT("h"), DistT("bernoulli", (VarT("p"),))), "h"),
        ((VarT("x"), DistT("bernoulli", (VarT("p"),)), VarT("h")), "p"),
    ], ids=["head-term", "draw-parameter"])
    def test_first_unbound_variable_in_validation_order(self, head_terms, name):
        # head terms, their draw parameters, then guards (z): the name
        # that validate_program reports first
        rule = Rule("out", head_terms, (Atom("src", (VarT("x"),)),), (Guard("<", VarT("z"), VarT("x")),))
        with pytest.raises(ProgramError) as ei:
            validate_program(RuleProgram((rule,)))
        assert repr(name) in str(ei.value)
        with pytest.raises(ProgramError) as ei:
            rule_matches(rule, Bag.of([Tagged("src", Int(1))]))
        assert str(ei.value) == f"unbound variable {name!r}"


class TestRunExact:
    def test_burglary_micro_weights(self):
        dist = run_rule_program(parse_rules(BURGLARY), town(), "exact")
        assert abs(math.fsum(w for _, w in dist.entries) - 1.0) <= 1e-9
        # alarm fires iff the quake path (0.1 * 0.6) or the burglary path
        # (0.3 * 0.9) triggers; independent per house
        expect = 1 - (1 - 0.1 * 0.6) * (1 - 0.3 * 0.9)
        assert alarm_prob(dist, "H1") == pytest.approx(expect, abs=1e-12)
        assert alarm_prob(dist, "H2") == pytest.approx(expect, abs=1e-12)

    def test_deterministic_rules_add_facts(self):
        prog = parse_rules("copy(x) <- src(x)")
        dist = run_rule_program(prog, Bag.of([Tagged("src", Int(1))]), "exact")
        assert dist.entries[0][0].bag.count(Tagged("copy", Int(1))) == 1

    def test_rules_see_earlier_heads(self):
        prog = parse_rules("mid(x) <- src(x)\nout(x) <- mid(x)")
        dist = run_rule_program(prog, Bag.of([Tagged("src", Int(2))]), "exact")
        world = dist.entries[0][0].bag
        assert world.count(Tagged("out", Int(2))) == 1

    def test_data_driven_probability_out_of_range(self):
        bad = town(chance=1.5)
        with pytest.raises(EngineTypeError):
            run_rule_program(parse_rules(BURGLARY), bad, "exact")

    def test_world_limit(self):
        facts = Bag.of([Tagged("src", Int(i)) for i in range(25)])
        prog = parse_rules("flip(x, bernoulli(0.5)) <- src(x)")
        with pytest.raises(ResourceLimitError):
            run_rule_program(prog, facts, "exact", max_worlds=1000)

    def test_continuous_dist_needs_mc(self):
        prog = parse_rules("noise(x, normal(0.0, 1.0)) <- src(x)")
        with pytest.raises(NotFiniteError):
            run_rule_program(prog, Bag.of([Tagged("src", Int(1))]), "exact")

    def test_world_limit_boundary(self):
        # 10 independent flips make exactly 2**10 worlds
        facts = Bag.of([Tagged("src", Int(i)) for i in range(10)])
        prog = parse_rules("flip(x, bernoulli(0.5)) <- src(x)")
        assert len(run_rule_program(prog, facts, "exact", max_worlds=1024).entries) == 1024
        with pytest.raises(ResourceLimitError) as e:
            run_rule_program(prog, facts, "exact", max_worlds=1023)
        assert str(e.value) == "exact enumeration exceeds 1023 worlds; rerun with the mc backend"

    def test_limit_trips_before_enumerating(self, monkeypatch):
        # the coin makes two worlds of 2**10 flips each: the second world
        # trips the limit, and the first is not enumerated before that
        import bagdb.pbmonad as pbmonad

        calls = []
        enumerate_law = pbmonad._distr
        monkeypatch.setattr(pbmonad, "_distr", lambda *a: calls.append(1) or enumerate_law(*a))
        facts = Bag.of([Tagged("src", Int(i)) for i in range(10)])
        prog = parse_rules("coin(bernoulli(0.5)) <-\nflip(x, bernoulli(0.5)) <- src(x)")
        with pytest.raises(ResourceLimitError, match="exceeds 2000 worlds"):
            run_rule_program(prog, facts, "exact", max_worlds=2000)
        assert len(calls) == 1  # the coin rule's one world

    def test_not_finite_before_a_later_bad_parameter(self):
        # match 0 raises NotFiniteError before match 1's stddev is checked
        prog = parse_rules("noise(x, normal(0.0, s)) <- src(x, s)")
        base = Bag.of([Tagged("src", Tuple((Str("a"), Real(1.0)))),
                       Tagged("src", Tuple((Str("b"), Real(-1.0))))])
        want = (NotFiniteError, "normal has uncountable support; use the mc backend")
        assert exact_outcome(run_rule_program, prog, base, "exact") == want
        assert exact_outcome(reference_exact, prog, base) == want

    def test_runs_without_rule_matches(self, monkeypatch):
        # the exact backend matches through the compiled plan
        import bagdb.pbmonad as pbmonad

        def unused(rule, bag):
            raise AssertionError("rule_matches called")

        monkeypatch.setattr(pbmonad, "rule_matches", unused)
        dist = run_rule_program(parse_rules(BURGLARY), town(), "exact")
        assert alarm_prob(dist, "H1") == pytest.approx(1 - (1 - 0.1 * 0.6) * (1 - 0.3 * 0.9))


class TestRunMC:
    def test_deterministic_given_seed(self):
        prog = parse_rules(BURGLARY)
        s1 = run_rule_program(prog, town(), "mc", seed=Seed(23))
        s2 = run_rule_program(prog, town(), "mc", seed=Seed(23))
        assert s1.worlds(30) == s2.worlds(30)

    def test_matches_exact_frequencies(self):
        prog = parse_rules(BURGLARY)
        exact = run_rule_program(prog, town(), "exact")
        s = run_rule_program(prog, town(), "mc", seed=Seed(37))
        n = 4000
        want = Tagged("alarm", Str("H1"))
        hits = sum(1 for w in s.worlds(n) if w.count(want) > 0)
        p = alarm_prob(exact, "H1")
        assert abs(hits / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_draws_keyed_by_rule_world_match(self):
        # rule 1 draws the same values regardless of what rule 0 is,
        # because each (rule, world, match) triple owns its seed
        base = Bag.of([Tagged("src", Int(1)), Tagged("src", Int(2))])
        p1 = parse_rules("a(x, bernoulli(0.5)) <- src(x)\nb(x, bernoulli(0.7)) <- src(x)")
        p2 = parse_rules("a(x, bernoulli(0.01)) <- src(x)\nb(x, bernoulli(0.7)) <- src(x)")
        s1 = run_rule_program(p1, base, "mc", seed=Seed(41))
        s2 = run_rule_program(p2, base, "mc", seed=Seed(41))
        for i in range(40):
            b1 = [v for v in s1.world(i) if isinstance(v, Tagged) and v.tag == "b"]
            b2 = [v for v in s2.world(i) if isinstance(v, Tagged) and v.tag == "b"]
            assert b1 == b2

    def test_missing_seed_rejected(self):
        prog = parse_rules(BURGLARY)
        with pytest.raises(EngineTypeError):
            run_rule_program(prog, town(), "mc")


# ---------------------------------------------------------------------------
# The compiled mc sampler against the uncompiled loop


def reference_sampler(d, env):
    """The sampler of a draw term in a named env, through the engine's
    parameter checks (``_dist_sampler``)."""
    return _dist_sampler(d.kind, [resolve(p, env) for p in d.params])


def reference_world(prog, base, seed, i):
    """World i as the mc backend built it before rule programs were
    compiled: each rule matched against the whole world by naive_matches, a
    fresh Seed chain per draw, and one uplus per rule."""
    w = base
    for k, rule in enumerate(prog.rules):
        heads = []
        for j, env in enumerate(naive_matches(rule, w)):
            parts = []
            for t in rule.head_terms:
                if isinstance(t, DistT):
                    rng = seed.child(k).child(i).child(j).rng()
                    parts.append(draw_from(reference_sampler(t, env), rng))
                else:
                    parts.append(resolve(t, env))
            heads.append(tagged(rule.head_tag, parts))
        w = w.uplus(Bag.of(heads))
    return w


def outcome(fn, *args):
    """A result, or the type and message of the engine error it raised."""
    try:
        return fn(*args)
    except EngineTypeError as e:
        return type(e), str(e)


# Int(1) next to Real(1.0) and 0.0 next to -0.0: equal numbers that the
# matcher must keep apart, as naive_matches does.
POOL = [Int(0), Int(1), Real(1.0), Real(0.5), Real(0.0), Real(-0.0), Real(1.5), Str("s")]
VARS = ["x", "y", "z"]
TAGS = ["a", "b", "c", "d"]

pool_values = st.sampled_from(POOL)
# mostly Int(1) and Real(1.0), so that joins on a shared variable often succeed
join_values = st.sampled_from(POOL[1:3] * 3 + POOL[4:6])
payloads = st.one_of(
    pool_values,
    st.just(UNIT),
    st.lists(pool_values, max_size=3).map(lambda xs: Tuple(tuple(xs))),
)


def payload_of(arity, values=join_values):
    if arity == 1:
        return values
    return st.lists(values, min_size=arity, max_size=arity).map(lambda xs: Tuple(tuple(xs)))


DRAW_KINDS = (None, "bernoulli", "poisson", "normal")  # None: a head without a draw


# Choices are listed most-wanted first: hypothesis leans towards the first
# element of sampled_from, and towards small integers.
@st.composite
def rule_of(draw, head_tag, body_tags, arity,
            values=join_values, kinds=DRAW_KINDS, atom_counts=(2, 3, 1, 2, 0)):
    atoms = []
    n_atoms = draw(st.sampled_from(atom_counts)) if body_tags else 0
    for tag in [draw(st.sampled_from(body_tags)) for _ in range(n_atoms)]:
        n = arity[tag] if draw(st.sampled_from([True] * 4 + [False])) else draw(st.integers(0, 3))
        terms = st.sampled_from([True, True, False]).flatmap(
            lambda var: st.sampled_from(VARS).map(VarT) if var else values.map(ConstT))
        atoms.append(Atom(tag, tuple(draw(st.lists(terms, min_size=n, max_size=n)))))
    bound = sorted({a.name for atom in atoms for a in atom.args if isinstance(a, VarT)})
    numbers = st.sampled_from([v for v in POOL if isinstance(v, (Int, Real))]).map(ConstT)
    usable = st.one_of(st.sampled_from(bound).map(VarT), pool_values.map(ConstT)) \
        if bound else pool_values.map(ConstT)
    param = st.one_of(st.sampled_from(bound).map(VarT), numbers) if bound else numbers
    guards = draw(st.lists(
        st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), usable, usable)
        .map(lambda g: Guard(*g)), max_size=2))
    n = arity[head_tag] if draw(st.sampled_from([True] * 4 + [False])) else draw(st.integers(0, 3))
    terms = draw(st.lists(usable, min_size=n, max_size=n))
    draws = {
        "bernoulli": st.tuples(param).map(lambda p: DistT("bernoulli", p)),
        "poisson": st.just(DistT("poisson", (ConstT(Real(1.5)),))),
        "normal": st.just(DistT("normal", (ConstT(Real(0.0)), ConstT(Real(1.0))))),
    }
    dist = draw(st.one_of(*[st.none() if k is None else draws[k] for k in kinds]))
    if dist is not None and terms:
        terms[draw(st.integers(0, len(terms) - 1))] = dist
    elif dist is not None:
        terms.append(dist)
    return Rule(head_tag, tuple(terms), tuple(atoms), tuple(guards))


@st.composite
def programs_and_bags(draw, values=join_values, kinds=DRAW_KINDS, atom_counts=(2, 3, 1, 2, 0),
                      min_rank=0, split=False):
    """A program and an input bag.  Each tag has an arity that most rows
    and atoms keep (a few do not, to exercise the arity check).  The
    program is acyclic by construction: a rule reads only tags ranked
    below its head tag, so it may read a tag that only a later rule
    produces.  ``values`` fills the rows and the constants in atoms,
    ``kinds`` are the distributions a head may draw from (most wanted
    first), ``atom_counts`` the body sizes to choose from, and a head tag
    ranks at least ``min_rank``, so ``min_rank=1`` leaves no rule without
    a body.

    With ``split`` the program starts with two static rules, one per coin
    tag (ranked second and third, arity 1), that each flip a coin with p
    in (0, 1) for both of two ``"coin"`` rows of the lowest-ranked tag,
    and it ends with a rule that reads both coin tags: 9 worlds leave the
    coins, and the last rule's options differ between worlds that differ
    in either coin."""
    ranked = draw(st.permutations(TAGS))
    arity = {t: draw(st.integers(1, 2)) for t in TAGS}
    if split:
        src, coins, reader = ranked[0], ranked[1:3], ranked[3]
        arity.update(dict.fromkeys(coins, 1))  # the coin heads' arity, so later atoms read them
    rows = [Tagged(t, draw(payload_of(arity[t], values)))
            for t in TAGS for _ in range(draw(st.sampled_from([3, 4, 2, 1, 0])))]
    rows += [Tagged(t, v) for t, v in draw(st.lists(st.tuples(st.sampled_from(TAGS), payloads), max_size=2))]
    rows += draw(st.lists(pool_values, max_size=2))  # untagged rows pass through
    prog = []
    for _ in range(draw(st.sampled_from([3, 4, 2, 1]))):
        r = draw(st.integers(min_rank, len(ranked) - 1))
        prog.append(draw(rule_of(ranked[r], ranked[:r], arity, values, kinds, atom_counts)))
    if split:
        rows += [Tagged(src, Str("coin"))] * 2  # no other row holds this string
        flips = [Rule(coin, (DistT("bernoulli", (ConstT(draw(st.sampled_from(COIN_P))),)),),
                      (Atom(src, (ConstT(Str("coin")),)),), ())
                 for coin in coins]
        both = Rule(reader, (VarT("x"), VarT("y")),
                    (Atom(coins[0], (VarT("x"),)), Atom(coins[1], (VarT("y"),))), ())
        prog = flips + prog + [both]
    return RuleProgram(tuple(prog)), Bag.of(rows)


COIN_P = [Real(0.3), Real(0.5), Real(0.7)]


mc_seeds = st.builds(
    Seed,
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**64 - 1), max_size=2).map(tuple),
)


TWINS = {Int(1): Real(1.0), Real(1.0): Int(1), Real(0.0): Real(-0.0), Real(-0.0): Real(0.0)}


def twin(v):
    """``v`` with Int(1) and Real(1.0), and 0.0 and -0.0, swapped in every
    field: equal numbers, but not equal values."""
    if isinstance(v, Tagged):
        return Tagged(v.tag, twin(v.value))
    if isinstance(v, Tuple):
        return Tuple(tuple(twin(x) for x in v.items))
    return TWINS.get(v, v)


@st.composite
def plan_and_worlds(draw):
    """A rule, the tags that earlier rules would produce (its varying
    tags), and a few worlds.  Every world holds the same rows of the other
    tags, some as equal but distinct objects.  The varying tags' rows come
    from a small pool that holds each row's twin, and each world holds
    each pool row up to twice, so rows recur across worlds, also as
    distinct objects; some rows have the wrong arity."""
    arity = {t: draw(st.integers(1, 2)) for t in TAGS}
    rule = draw(rule_of(TAGS[0], TAGS, arity, kinds=(None,), atom_counts=(2, 3, 1)))
    varying = draw(st.sets(st.sampled_from(TAGS)))
    rows_of = lambda tags: st.sampled_from(tags).flatmap(
        lambda t: st.one_of(payload_of(arity[t]), payloads).map(lambda p: Tagged(t, p)))
    fixed = draw(st.lists(rows_of(sorted(set(TAGS) - varying)), max_size=6)) if len(varying) < len(TAGS) else []
    pool = draw(st.lists(rows_of(sorted(varying)), max_size=4)) if varying else []
    pool += [twin(r) for r in pool if twin(r) != r]
    worlds = []
    for _ in range(draw(st.integers(1, 5))):
        picked = [r for r in pool for _ in range(draw(st.integers(0, 2)))]
        rows = [copy.deepcopy(r) if draw(st.booleans()) else r for r in fixed + picked]
        worlds.append(Bag.of(rows))
    return rule, varying, worlds


def plan_matches(plan, world, runs=False):
    """The named envs of a plan's matches against a world bag, whose tags'
    rows the plan reads as the exact backend does, ``tag_rows`` of the bag,
    or with ``runs`` as the mc backend does, its tag runs."""
    matches = plan.matches(tag_runs(world)[1], pbmonad._run_rows) if runs else plan.matches(world, tag_rows)
    return [dict(zip(plan.names, m.env)) for m in matches]


# flip's heads recur, and pair joins them into up to n * n distinct matches;
# every rule's heads recur, so all three share the program's head table
PAIRS = ("flip(x, bernoulli(0.5)) <- src(x)\npair(x, y) <- flip(x, 1), flip(y, 1)\n"
         "pair(x, y) <- flip(x, 0), flip(y, 1)")


@pytest.mark.hashseed
class TestCompiledSampler:
    @pytest.mark.parametrize("cap, marked", [(None, False), (2, False), (None, True), (2, True)],
                             ids=["None", "2", "None-marked", "2-marked"])
    @settings(max_examples=150)
    @given(plan_and_worlds())
    def test_plan_matches_every_world_as_rule_matches(self, cap, marked, rule_varying_worlds):
        # one plan per way of reading rows steps through the worlds with its
        # row caches, memo and kept list warm; with the cap at 2 the
        # full-cache paths run too, and with its varying tags marked as not
        # recurring, the paths that cache nothing
        rule, varying, worlds = rule_varying_worlds
        with mock.patch.object(pbmonad, "_CACHE_CAP", cap or pbmonad._CACHE_CAP):
            spans, runs = [_RulePlan(0, rule, dict.fromkeys(varying, not marked)) for _ in range(2)]
            for world in worlds:
                want = outcome(naive_matches, rule, world)
                assert outcome(plan_matches, spans, world) == want
                assert outcome(plan_matches, runs, world, True) == want

    @settings(max_examples=150)
    @given(programs_and_bags(), mc_seeds)
    def test_world_equals_reference_loop(self, prog_base, seed):
        prog, base = prog_base
        sampler = run_rule_program(prog, base, "mc", seed=seed)
        for i in (0, 1, 2, 7):  # later worlds reuse what the first one cached
            assert outcome(sampler.world, i) == outcome(reference_world, prog, base, seed, i)

    @settings(max_examples=150)
    @given(programs_and_bags())
    def test_indexed_matcher_keeps_order(self, prog_base):
        prog, base = prog_base
        for rule in prog.rules:
            assert outcome(rule_matches, rule, base) == outcome(naive_matches, rule, base)

    def test_int_does_not_match_real(self):
        rule = parse_rules("out(x) <- pair(x, 1)").rules[0]
        bag = Bag.of([Tagged("pair", Tuple((Str("a"), Real(1.0)))),
                      Tagged("pair", Tuple((Str("b"), Int(1))))])
        assert [e["x"] for e in rule_matches(rule, bag)] == [Str("b")]

    def test_join_order_follows_earlier_atoms(self):
        rule = parse_rules("out(x, y) <- a(x, k), b(k, y)").rules[0]
        rows = [Tagged("a", Tuple((Int(n), Int(n % 2)))) for n in range(4)]
        rows += [Tagged("b", Tuple((Int(k), Str(s)))) for k in (0, 1) for s in "pq"]
        rows += [Tagged("b", Tuple((Int(1),)))]  # wrong arity: skipped
        bag = Bag.of(rows)
        got = rule_matches(rule, bag)
        assert got == naive_matches(rule, bag)
        assert [(e["x"].value, e["y"].value) for e in got] == [
            (0, "p"), (0, "q"), (1, "p"), (1, "q"), (2, "p"), (2, "q"), (3, "p"), (3, "q")]

    def test_repeated_variable_within_atom(self):
        rule = parse_rules("out(x) <- a(x), b(x, x)").rules[0]
        bag = Bag.of([Tagged("a", Int(1)), Tagged("a", Int(2)),
                      Tagged("b", Tuple((Int(1), Int(2)))), Tagged("b", Tuple((Int(2), Int(2))))])
        assert rule_matches(rule, bag) == naive_matches(rule, bag) == [{"x": Int(2)}]

    @pytest.mark.parametrize("program", [
        # static: the bad parameter comes from the input rows
        "flip(x, bernoulli(r)) <- src(x, r)",
        # dynamic: the bad parameter comes from an earlier rule's heads
        "mid(x, r) <- src(x, r)\nflip(x, bernoulli(r)) <- mid(x, r)",
        "flip(x, bernoulli(x)) <- src(x, r)",
    ])
    def test_bad_parameter_raises_as_before(self, program):
        prog = parse_rules(program)
        base = Bag.of([Tagged("src", Tuple((Str("h"), Real(0.5)))),
                       Tagged("src", Tuple((Str("k"), Real(1.5))))])
        sampler = run_rule_program(prog, base, "mc", seed=Seed(5))
        for i in range(3):
            want = outcome(reference_world, prog, base, Seed(5), i)
            assert want[0] is EngineTypeError
            assert outcome(sampler.world, i) == want

    def test_bad_guard_raises_as_before(self):
        for head_tag, body in (("out", "src"), ("late", "out")):
            prog = RuleProgram((
                Rule("out", (VarT("x"),), (Atom("src", (VarT("x"),)),), ()),
                Rule(head_tag, (VarT("x"),), (Atom(body, (VarT("x"),)),),
                     (Guard("~", VarT("x"), ConstT(Int(1))),)),
            ))
            base = Bag.of([Tagged("src", Int(1))])
            sampler = run_rule_program(prog, base, "mc", seed=Seed(5))
            for i in range(3):
                assert outcome(sampler.world, i) == (EngineTypeError, "unknown comparison '~'")
                assert outcome(reference_world, prog, base, Seed(5), i) == outcome(sampler.world, i)

    def test_world_index_past_64_bits(self):
        base = Bag.of([Tagged("src", Tuple((Str("h"), Real(1.5))))])
        too_big = 2**64
        seed = Seed(5)
        # no draw: no seed is derived, so the index is fine
        for program in ("copy(x) <- src(x, r)", "flip(x, bernoulli(0.5)) <- nothing(x)"):
            prog = parse_rules(program)
            sampler = run_rule_program(prog, base, "mc", seed=seed)
            assert sampler.world(too_big) == reference_world(prog, base, seed, too_big)
        # a draw: the seed derivation fails first, before the bad parameter
        prog = parse_rules("flip(x, bernoulli(r)) <- src(x, r)")
        sampler = run_rule_program(prog, base, "mc", seed=seed)
        want = outcome(reference_world, prog, base, seed, too_big)
        assert want == (EngineTypeError, "seed path entries must be unsigned 64-bit integers")
        assert outcome(sampler.world, too_big) == want
        assert outcome(sampler.world, 0) == outcome(reference_world, prog, base, seed, 0)

    def test_continuous_draws_stay_identical(self):
        prog = parse_rules("noise(x, normal(0.0, 1.0)) <- src(x)\ncount(x, poisson(2.0)) <- src(x)")
        base = Bag.of([Tagged("src", Int(n)) for n in range(3)])
        sampler = run_rule_program(prog, base, "mc", seed=Seed(8, (3,)))
        for i in range(60):
            assert sampler.world(i) == reference_world(prog, base, Seed(8, (3,)), i)
        assert all(not m.heads for plan in sampler.world_fn.__self__.plans for m in plan.memo.values())

    def test_fresh_draws_are_not_hashed(self):
        # a normal head does not recur, so no head is kept per draw and no
        # drawn value is hashed to look one up
        fixtures = Path(__file__).parent / "fixtures"
        text = (fixtures / "town20.jsonl").read_text(encoding="utf-8")
        base = Bag.of(deserialize(line) for line in text.splitlines() if line.strip())
        prog = parse_rules((fixtures / "noise.rules").read_text(encoding="utf-8"))
        sampler = run_rule_program(prog, base, "mc", seed=Seed(5))
        for i in range(3):
            drawn = [row.value.items[1] for row in sampler.world(i) if row.tag == "noise"]
            assert len(drawn) == 20 and all(isinstance(z, Real) for z in drawn)
            assert not any(hasattr(z, "_hash") for z in drawn)

    def test_memo_stays_bounded(self, monkeypatch):
        # 3 src rows: each pair rule has up to 9 distinct matches, and its
        # memo fills at the cap and then stores nothing new
        monkeypatch.setattr(pbmonad, "_CACHE_CAP", 3)
        prog, base = parse_rules(PAIRS), Bag.of([Tagged("src", Int(n)) for n in range(3)])
        sampler = run_rule_program(prog, base, "mc", seed=Seed(6))
        plans = sampler.world_fn.__self__.plans
        for i in range(30):
            assert sampler.world(i) == reference_world(prog, base, Seed(6), i)
            assert all(len(plan.memo) <= 3 for plan in plans)
        assert all(len(plan.memo) == 3 for plan in plans)
        assert max(len(m.heads) for m in plans[0].memo.values()) == 2  # flip: 0 and 1
        assert exact_outcome(run_rule_program, prog, base, "exact") == exact_outcome(reference_exact, prog, base)

    def test_row_cache_and_head_table_stay_bounded(self, monkeypatch):
        # pair's atoms read 6 distinct flip rows, and so does echo's one
        # atom, whose cache maps a row straight to its match; the rules write
        # up to 24 or 30 heads into the program's one table: each fills at
        # the cap, stores nothing new, and still answers lookups
        monkeypatch.setattr(pbmonad, "_CACHE_CAP", 3)
        base = Bag.of([Tagged("src", Int(n)) for n in range(3)])
        for prog in (parse_rules(PAIRS), parse_rules(PAIRS + "\necho(x, y) <- flip(x, y)")):
            sampler = run_rule_program(prog, base, "mc", seed=Seed(6))
            flip, *readers = sampler.world_fn.__self__.plans
            cached = [ap for plan in readers for ap in plan.atoms]
            table = {}
            for i in range(30):
                assert sampler.world(i) == reference_world(prog, base, Seed(6), i)
                for ap in cached:
                    assert len(ap.cache) <= 3
                assert all(plan.table is flip.table for plan in readers) and len(flip.table) <= 3
                assert all(flip.table[h] is h for h in table)  # the first heads stay
                table = dict(flip.table)
            assert all(len(ap.cache) == 3 for ap in cached) and len(table) == 3
            assert flip.table is not None  # one rule writes flip, and its heads recur
            assert all(ap.cache is None for ap in flip.atoms)  # src rows: a kept index, no cache
            assert exact_outcome(run_rule_program, prog, base, "exact") == exact_outcome(reference_exact, prog, base)

    @pytest.mark.parametrize("program", [
        "noise(x, normal(0.0, 1.0)) <- src(x)\nhigh(x, z) <- noise(x, z), z > 0.5",
        "noise(x, normal(0.0, 1.0)) <- src(x)\nflag(x, bernoulli(0.5)) <- noise(x, z)",
        "noise(x, normal(0.0, 1.0)) <- src(x)\nnoise(x, poisson(2.0)) <- src(x)\nhigh(x, z) <- noise(x, z)",
    ], ids=["high", "bernoulli-reads-normal", "two-writers"])
    def test_heads_that_need_not_recur_are_not_cached(self, program):
        # noise heads are new in every world, and so are the matches of
        # the last rule, which reads them: no plan keeps a head, the reader
        # keeps no match, its atom has no row cache, and no plan uses the
        # head table, although two rules write noise in the last program
        prog = parse_rules(program)
        base = Bag.of([Tagged("src", Int(n)) for n in range(3)])
        sampler = run_rule_program(prog, base, "mc", seed=Seed(6))
        *writers, reader = sampler.world_fn.__self__.plans
        for i in range(30):
            assert sampler.world(i) == reference_world(prog, base, Seed(6), i)
        for plan in writers:
            assert len(plan.memo) == 3 and plan.kept is not None  # src rows recur
            assert not any(m.heads for m in plan.memo.values())
        assert not reader.memo and reader.atoms[0].cache is None
        assert all(plan.table is None for plan in writers + [reader])

    def test_retained_memory_stays_flat(self):
        # nothing that a world of noise/high builds outlives it
        prog = parse_rules("noise(x, normal(0.0, 1.0)) <- src(x)\nhigh(x, z) <- noise(x, z), z > 0.5")
        base = Bag.of([Tagged("src", Int(n)) for n in range(2)])
        sampler = run_rule_program(prog, base, "mc", seed=Seed(6))
        tracemalloc.start()
        try:
            for i in range(200):
                sampler.world(i)
            gc.collect()
            at_200 = tracemalloc.get_traced_memory()[0]
            for i in range(200, 2000):
                sampler.world(i)
            gc.collect()
            at_2000 = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert at_2000 - at_200 < 20_000

    def test_burglary_row_caches_hold_each_row_once(self):
        # each varying atom reads a tag that earlier rules have finished
        # writing: its cache holds each distinct row of that tag once
        prog = parse_rules(BURGLARY)
        sampler = run_rule_program(prog, town(tuple(f"H{n}" for n in range(6))), "mc", seed=Seed(3))
        rows = {}
        for i in range(40):
            for v in sampler.world(i):
                rows.setdefault(v.tag, set()).add(v)
        atoms = [ap for plan in sampler.world_fn.__self__.plans for ap in plan.atoms if ap.varying]
        assert [ap.tag for ap in atoms] == ["earthquake", "burglary", "trigger"]
        for ap in atoms:
            assert ap.cache is not None and set(ap.cache) == rows[ap.tag]

    def test_rejected_matches_hold_no_env(self):
        # a match whose guards fail is the one shared marker in the memo,
        # which holds no env, sampler, heads or options, whichever backend
        # reads it
        prog = parse_rules("flip(x, bernoulli(0.5)) <- src(x), x > 1\nout(x) <- flip(x, 1), x < 3")
        base = Bag.of([Tagged("src", Int(n)) for n in range(5)])
        sampler = run_rule_program(prog, base, "mc", seed=Seed(4))
        for i in range(20):
            assert sampler.world(i) == reference_world(prog, base, Seed(4), i)
        assert exact_outcome(run_rule_program, prog, base, "exact") == exact_outcome(reference_exact, prog, base)
        rejected = pbmonad._REJECTED
        plans = sampler.world_fn.__self__.plans
        # a memo's key is the env itself, (x,), and an accepted match's env is that tuple
        assert all(m is rejected or m.env is env for plan in plans for env, m in plan.memo.items())
        flip, out = [{env[0].value: m for env, m in plan.memo.items()} for plan in plans]
        assert sorted(flip) == [0, 1, 2, 3, 4] and sorted(out) == [2, 3, 4]
        for memo, accepted in ((flip, {2, 3, 4}), (out, {2})):
            for x, m in memo.items():
                assert (m is rejected) == (x not in accepted)
                if m is not rejected:
                    assert m.env == (Int(x),) and m.heads
        assert rejected.env is None and not rejected.heads
        assert rejected.sampler is None and rejected.options is None

    def test_kept_list_past_the_memo_cap(self, monkeypatch):
        # flip reads only input rows, and has more matches than the memo
        # holds: its kept list still gives every world its matches
        monkeypatch.setattr(pbmonad, "_CACHE_CAP", 2)
        prog = parse_rules("flip(x, bernoulli(0.5)) <- src(x, c), city(c)\nout(x) <- flip(x, 1)")
        base = Bag.of([Tagged("src", Tuple((Int(n), Str("c")))) for n in range(5)]
                      + [Tagged("city", Str("c"))])
        sampler = run_rule_program(prog, base, "mc", seed=Seed(9))
        plans = sampler.world_fn.__self__.plans
        for i in range(21):
            assert sampler.world(i) == reference_world(prog, base, Seed(9), i)
        assert len(plans[0].kept) == 5 and len(plans[0].memo) == 2
        assert plans[1].kept is None  # out reads flip, an earlier rule's heads

    def test_later_rules_see_heads_in_bag_order(self):
        # mid's heads come in match order (b before a) and must be merged
        # with the input's mid row in canonical order: flip's match
        # ordinals, and so its draws, follow that order
        prog = parse_rules("mid(y) <- src(x, y)\nflip(y, bernoulli(0.5)) <- mid(y)")
        base = Bag.of([Tagged("src", Tuple((Int(1), Str("c")))), Tagged("src", Tuple((Int(2), Str("a")))),
                       Tagged("mid", Str("b"))])
        sampler = run_rule_program(prog, base, "mc", seed=Seed(12))
        for i in range(25):
            assert sampler.world(i) == reference_world(prog, base, Seed(12), i)

    def test_burglary_worlds_unchanged(self):
        prog = parse_rules(BURGLARY)
        houses = tuple(f"H{n}" for n in range(6))
        for seed in (Seed(0), Seed(2**64 - 1), Seed(11, (4, 2))):
            sampler = run_rule_program(prog, town(houses), "mc", seed=seed)
            for i in range(25):
                assert sampler.world(i) == reference_world(prog, town(houses), seed, i)


@pytest.mark.hashseed
class TestWorldRuns:
    """An mc world is stepped as one run per tag, between the input's
    elements before its tagged rows and those after them, and its bag is
    built once, by concatenation: it must be the world that merging each
    rule's heads into the whole world gives, element for element and key
    for key, and a canonical bag."""

    # untagged scalar rows before the tagged rows and BagV rows after them
    ENDS = [Int(3), Str("u"), Real(-0.0), BagV(Bag.of([Int(1)])), BagV(EMPTY)]
    SRC = [Tagged("src", Int(n)) for n in range(4)]

    def assert_worlds_as_reference(self, prog, base, seeds=(Seed(0), Seed(7, (2,)))):
        for seed in seeds:
            sampler = run_rule_program(prog, base, "mc", seed=seed)
            for i in range(25):
                w, want = sampler.world(i), reference_world(prog, base, seed, i)
                assert w.elements == want.elements and w.key == want.key
                assert Bag.of(w.elements).key == w.key

    @pytest.mark.parametrize("program, rows", [
        # the input already holds rows of the head tag a, on both sides of the heads
        ("a(x, bernoulli(0.5)) <- src(x)",
         [Tagged("a", Tuple((Int(0), Int(0)))), Tagged("a", Tuple((Int(9), Int(1)))), Tagged("a", Int(2))]),
        # two rules write t, as trigger in burglary.rules, and a third reads it
        ("t(x, bernoulli(0.6)) <- src(x)\nt(x, bernoulli(0.9)) <- src(x)\nout(x) <- t(x, 1)", []),
        # heads m and then a, in program order, around the input's z: not their sorted order
        ("m(x, bernoulli(0.5)) <- z(x)\na(x) <- m(x, 1)\na(x, 7) <- z(x), x > 1",
         [Tagged("z", Int(n)) for n in range(3)]),
        # never and after stay empty, and nothing is a body tag no run holds
        ("never(x) <- src(x), x > 100\nafter(x) <- never(x)\nnone(x) <- nothing(x)\nhit(x) <- src(x)", []),
    ], ids=["input-holds-head", "two-writers", "unsorted-heads", "empty-run"])
    def test_world_is_the_merged_world(self, program, rows):
        base = Bag.of(self.SRC + rows + self.ENDS)
        self.assert_worlds_as_reference(parse_rules(program), base)

    def test_input_without_tagged_rows_or_ends(self):
        prog = parse_rules("a(x) <- src(x)\nb(bernoulli(0.5)) <- ")
        for rows in ([], self.ENDS, self.ENDS[:3], self.ENDS[3:], self.SRC):
            self.assert_worlds_as_reference(prog, Bag.of(rows))

    def test_world_that_raises_leaves_the_next_one_whole(self):
        # bad's parameter 1.5 raises in the worlds where flip drew 1, after
        # flip has added its heads to the world's runs: the next world
        # starts again from the input's runs
        prog = parse_rules("flip(x, bernoulli(0.5)) <- src(x)\n"
                           "bad(x, bernoulli(r)) <- flip(x, 1), rate(x, r)\nlate(x) <- flip(x, 0)")
        base = Bag.of([Tagged("src", Int(1)), Tagged("rate", Tuple((Int(1), Real(1.5))))] + self.ENDS)
        sampler = run_rule_program(prog, base, "mc", seed=Seed(3))
        compiled = sampler.world_fn.__self__
        runs = dict(compiled.runs)
        raised = []
        for i in range(30):
            got, want = outcome(sampler.world, i), outcome(reference_world, prog, base, Seed(3), i)
            assert got == want
            raised.append(isinstance(got, tuple))
            if not raised[-1]:
                assert got.key == want.key and Bag.of(got.elements).key == got.key
            assert compiled.runs == runs and all(compiled.runs[t] is r for t, r in runs.items())
        assert any(a and not b for a, b in zip(raised, raised[1:]))  # a good world right after a bad one


# ---------------------------------------------------------------------------
# The exact backend on the compiled plan against the uncompiled loop


def reference_head_options(rule, env):
    """Possible head values of one match with their probabilities."""
    parts = [None if isinstance(t, DistT) else resolve(t, env) for t in rule.head_terms]
    dist = next((n for n, t in enumerate(rule.head_terms) if isinstance(t, DistT)), None)
    if dist is None:
        return [(tagged(rule.head_tag, parts), 1.0)]
    options = []
    for z, w in exact_of(reference_sampler(rule.head_terms[dist], env)).entries:
        parts[dist] = z
        options.append((tagged(rule.head_tag, parts), w))
    return options


def reference_exact(prog, base, max_worlds=10**6):
    """The exact backend as it was before it ran on the compiled plan:
    naive_matches against every world, the head options of each match, and
    one uplus per combination, with the world limit checked per world
    before that world is enumerated."""
    validate_program(prog)
    dist = pb_unit_bag(base)
    for rule in prog.rules:
        out = {}
        processed = 0
        for world_bv, pw in dist.entries:
            options = [reference_head_options(rule, env) for env in naive_matches(rule, world_bv.bag)]
            processed += math.prod(len(o) for o in options)
            if processed > max_worlds:
                raise ResourceLimitError(
                    f"exact enumeration exceeds {max_worlds} worlds; rerun with the mc backend")
            for combo in iproduct(*options):
                p = pw
                heads = []
                for h, w in combo:
                    heads.append(h)
                    p *= w
                key = BagV(world_bv.bag.uplus(Bag.of(heads)))
                out[key] = out.get(key, 0.0) + p
        dist = ExactDist.from_weights(out)
    return dist


def exact_outcome(fn, *args, **kwargs):
    """A distribution as (support, weights), or the type and message of
    the engine error it raised."""
    try:
        d = fn(*args, **kwargs)
    except EngineError as e:
        return type(e), str(e)
    return [v for v, _ in d.entries], [w.hex() for _, w in d.entries]


# Few distinct values, mostly probabilities: data-driven bernoulli
# parameters split worlds, rows join, and equal rows give equal heads.
prob_values = st.sampled_from([Real(0.3)] * 3 + [Real(0.7), Int(1)])

EXACT_LIMIT = 300  # keeps the reference loop fast; both routes get it


@pytest.mark.hashseed
class TestCompiledExact:
    # two coins split every program into 9 worlds before its own rules run
    @settings(max_examples=300)
    @given(programs_and_bags(prob_values, ("bernoulli", None), (1, 2, 1), min_rank=1, split=True))
    def test_exact_equals_reference_loop(self, prog_base):
        prog, base = prog_base
        assert exact_outcome(run_rule_program, prog, base, "exact", max_worlds=EXACT_LIMIT) == \
            exact_outcome(reference_exact, prog, base, EXACT_LIMIT)

    @settings(max_examples=100)
    @given(programs_and_bags())
    def test_exact_equals_reference_loop_any_draw(self, prog_base):
        # normal and poisson heads: NotFiniteError, raised at the same match
        prog, base = prog_base
        assert exact_outcome(run_rule_program, prog, base, "exact", max_worlds=EXACT_LIMIT) == \
            exact_outcome(reference_exact, prog, base, EXACT_LIMIT)

    def test_colliding_heads(self):
        # duplicate input rows give equal heads: their worlds merge
        prog = parse_rules("flip(x, bernoulli(r)) <- src(x, r)\nout(x) <- flip(x, 1)")
        row = Tagged("src", Tuple((Str("h"), Real(0.3))))
        base = Bag.of([row, row, Tagged("src", Tuple((Str("k"), Real(0.7))))])
        got = exact_outcome(run_rule_program, prog, base, "exact")
        assert got == exact_outcome(reference_exact, prog, base)
        assert len(got[0]) == 6  # 0, 1 or 2 heads for h, times 2 for k

    @pytest.mark.parametrize("houses", [2, 4, 5])
    def test_burglary_weights_bit_identical(self, houses):
        base = town(tuple(f"H{n}" for n in range(houses)))
        prog = parse_rules(BURGLARY)
        assert exact_outcome(run_rule_program, prog, base, "exact") == exact_outcome(reference_exact, prog, base)


class TestOneGeneration:
    """The exact backend holds one generation of worlds and runs with the
    cyclic collector paused; every exit restores the collector's state."""

    @pytest.fixture(autouse=True)
    def collector(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", ["done", "limit", "interrupt", "interrupt-map"])
    def test_collector_state_is_restored(self, monkeypatch, case, enabled):
        paused = []
        law = pbmonad._distr

        def distr(*args):
            paused.append(not gc.isenabled())
            if case == "interrupt":
                raise KeyboardInterrupt
            return law(*args)

        def interrupted(*args):
            paused.append(not gc.isenabled())
            raise KeyboardInterrupt

        (gc.enable if enabled else gc.disable)()
        prog = parse_rules(BURGLARY)
        if case == "interrupt-map":  # inside the map step of a rule without a draw, its only step
            monkeypatch.setattr(pbmonad, "trusted_bagv", interrupted)
            prog = parse_rules("alarm(x) <- address(x, c)")
        else:
            monkeypatch.setattr(pbmonad, "_distr", distr)
        if case == "done":
            assert len(run_rule_program(prog, town4(), "exact").entries) == 706
        else:
            with pytest.raises(ResourceLimitError if case == "limit" else KeyboardInterrupt):
                run_rule_program(prog, town4(), "exact", max_worlds=100)
        assert gc.isenabled() is enabled
        assert paused and all(paused)

    def test_step_lets_each_world_go_once_enumerated(self, monkeypatch):
        # a world's bag dies as soon as _distr has consumed it: neither the
        # step's list nor the caller's distribution holds it.  A world that
        # no match extends is carried unchanged, its bag reused in the next
        # generation, and a later step lets it go.  The test holds the input.
        base, consumed, alive = town4(), [], []
        law = pbmonad._distr

        def distr(options, world, weight):
            alive.append(sum(r() is not None for r in consumed))
            ref = weakref.ref(world)
            yield from law(options, world, weight)
            if options and world is not base:
                consumed.append(ref)

        monkeypatch.setattr(pbmonad, "_distr", distr)
        assert len(run_rule_program(parse_rules(BURGLARY), base, "exact").entries) == 706
        assert len(consumed) > 100 and len(alive) > len(consumed)
        assert not any(alive)
        assert all(r() is None for r in consumed)

    def test_map_step_lets_each_world_go_once_its_successor_is_built(self, monkeypatch):
        # a rule without a draw maps each world to one: the world it
        # consumed is dead once its successor is built, while the worlds
        # after it are still to come.  A world with no match is carried as
        # the same object, alive in the step's result
        step, build = pbmonad._map_rule_exact, pbmonad.trusted_bagv
        refs, seen, consumed = [], [], []

        def map_step(plan, entries, max_worlds):
            refs[:] = [weakref.ref(world) for world, _ in entries]
            try:
                dist = step(plan, entries, max_worlds)
            finally:
                worlds, refs[:] = refs[:], []
            consumed.extend(i for i, r in enumerate(worlds) if r() is None)
            return dist

        def trusted_bagv(*args):
            if refs:  # in the map step, building one world's successor
                seen.append([r() is not None for r in refs])
            return build(*args)

        monkeypatch.setattr(pbmonad, "_map_rule_exact", map_step)
        monkeypatch.setattr(pbmonad, "trusted_bagv", trusted_bagv)
        assert len(run_rule_program(parse_rules(BURGLARY), town4(), "exact").entries) == 706
        assert len(seen) == len(consumed) > 100
        for j, alive in enumerate(seen):
            assert alive[consumed[j]]
            assert not any(alive[i] for i in consumed[:j])

    @pytest.mark.parametrize("town", ["town", "town4"])
    def test_run_and_write_leave_no_cycle(self, tmp_path, town):
        # the exact counterpart of eval_query's law: with the collector
        # off, nothing the exact run and its writer build is left for it
        fixtures = Path(__file__).parent / "fixtures"
        prog = parse_rules((fixtures / "burglary.rules").read_text(encoding="utf-8"))
        base = load_table(fixtures / f"{town}.jsonl")[1]
        out = tmp_path / "out.json"
        gc.collect()
        gc.disable()
        _emit(str(out), _exact_payload(run_rule_program(prog, base, "exact").entries, base))
        assert gc.collect() == 0
        if town == "town":
            assert out.read_bytes() == (fixtures / "golden" / "generate-exact-town.json").read_bytes()

    @settings(max_examples=100)
    @given(programs_and_bags(prob_values, ("bernoulli", None), (1, 2, 1), min_rank=1, split=True))
    def test_random_programs_leave_no_cycle(self, prog_base):
        prog, base = prog_base
        gc.collect()
        gc.disable()
        try:
            dist = run_rule_program(prog, base, "exact", max_worlds=EXACT_LIMIT)
            _emit(os.devnull, _exact_payload(dist.entries, base))
        except EngineError:  # a run that fails leaves none either
            pass
        assert gc.collect() == 0


# ---------------------------------------------------------------------------
# One accumulator: every exact operation sums equal values in from_weights

# Few small outcomes, so that different choices often give equal values,
# and now and then a world that is not a bag, which the bag operations reject
few_ints = st.sampled_from([Int(0), Int(1), Int(2)])
few_bags = bags(st.sampled_from([Int(0), Int(1)]), max_size=2).map(BagV)
int_dists = exact_dists(few_ints, max_support=3)
bag_dists = exact_dists(few_bags, max_support=6)
world_dists = st.one_of(bag_dists, bag_dists, bag_dists, exact_dists(few_bags | few_ints, max_support=4))
# a kernel on Int(0), Int(1) and Int(2): the distribution at the value's
# index, or, now and then, a type error
kernels = st.lists(st.one_of(int_dists, int_dists, int_dists, st.none()), min_size=3, max_size=3)
bag_kernels = st.lists(st.one_of(world_dists, world_dists, world_dists, st.none()), min_size=3, max_size=3)


def kernel(table):
    def f(x):
        d = table[x.value]
        if d is None:
            raise EngineTypeError(f"no distribution for {x!r}")
        return d
    return f


@pytest.mark.hashseed
class TestOneAccumulator:
    """Each exact operation gives the support, bit-identical weights and
    first error that it gave when it summed equal values into its own dict
    (``dual_routes``): ``ExactDist.from_weights`` sums them, in the same
    order and from the same 0.0.  The rule step's own law is
    ``TestCompiledExact.test_exact_equals_reference_loop``."""

    @given(st.lists(int_dists, max_size=4))
    def test_distr_exact(self, ds):
        assert exact_outcome(distr_exact, ds) == exact_outcome(distr_by_dict, ds)

    @given(bag_kernels, world_dists)
    def test_pb_bind(self, table, m):
        f = kernel(table)
        assert exact_outcome(pb_bind, f, m) == exact_outcome(pb_bind_by_dict, f, m)

    # up to four pairs give one world, and their sum can depend on its order
    @settings(max_examples=300)
    @given(world_dists, world_dists)
    def test_pb_uplus(self, m1, m2):
        assert exact_outcome(pb_uplus, m1, m2) == exact_outcome(pb_uplus_by_dict, m1, m2)

    @given(kernels, int_dists)
    def test_bind(self, table, p):
        f = kernel(table)
        assert exact_outcome(p.bind, f) == exact_outcome(bind_by_dict, f, p)

    # "the" fails on every world but those with one row, "sum" on none
    @given(st.sampled_from([Agg("size", Table("db")), Agg("sum", Table("db")), Agg("the", Table("db"))]),
           world_dists)
    def test_pushforward_exact(self, q, d):
        assert exact_outcome(pushforward_exact, q, d) == exact_outcome(pushforward_exact_by_dict, q, d)


# ---------------------------------------------------------------------------
# The incremental exact rule step: rows by tag, options memoised, heads inserted


def town4():
    """The 4-house town of the golden files: 706 worlds."""
    text = (Path(__file__).parent / "fixtures" / "town4.jsonl").read_text(encoding="utf-8")
    return Bag.of(deserialize(line) for line in text.splitlines() if line.strip())


def backend_worlds(prog):
    """The 706 exact worlds of ``prog`` on ``town4``, and 300 mc worlds,
    all kept alive, so that no object id is reused."""
    dist = run_rule_program(prog, town4(), "exact")
    assert len(dist.entries) == 706
    sampler = run_rule_program(prog, town4(), "mc", seed=Seed(3))
    return [world.bag for world, _ in dist.entries], [sampler.world(i) for i in range(300)]


def one_object_per_value(worlds):
    """Check that rows of equal value are one object across ``worlds``;
    return the keys of each tag's rows."""
    ids, keys = {}, {}
    for world in worlds:
        for v in world:
            ids.setdefault(v.tag, set()).add(id(v))
            keys.setdefault(v.tag, set()).add(v.key)
    for tag in ids:
        assert len(ids[tag]) == len(keys[tag]), tag
    return keys


def _group_by_tag(rows):
    """Tagged rows per tag, in the order given: the reference for
    ``tag_rows``."""
    groups = {}
    for v in rows:
        if isinstance(v, Tagged):
            groups.setdefault(v.tag, []).append(v)
    return groups


def count_options(monkeypatch):
    """Count ``_RulePlan.options`` calls: the returned list gets the rule
    index of each call."""
    calls = []
    options = _RulePlan.options
    monkeypatch.setattr(_RulePlan, "options", lambda plan, rows: calls.append(plan.k) or options(plan, rows))
    return calls


# tags that are prefixes of one another, and rows of every other variant
SPAN_TAGS = ["a", "a0", "a_", "ab"]
span_rows = st.one_of(
    st.tuples(st.sampled_from(SPAN_TAGS), payloads).map(lambda t: Tagged(*t)),
    pool_values,
    st.just(UNIT),
    st.lists(pool_values, max_size=2).map(lambda xs: Tuple(tuple(xs))),
    st.lists(pool_values, max_size=2).map(lambda xs: BagV(Bag.of(xs))),
)
span_worlds = st.lists(span_rows, max_size=12).map(Bag.of)
span_options = st.lists(st.lists(st.tuples(span_rows, st.sampled_from([0.5, 0.3, 1.0])), min_size=1, max_size=2),
                        max_size=3)


@st.composite
def ordered_options(draw):
    """A base and options that, read in element order, are ordered by key,
    so that ``_distr`` places them without sorting: base elements fall
    between and next to the options (some are the same values as options,
    some equal copies), and one-option elements weigh 1.0 (a Dirac factor)
    or 0.5."""
    rows = sorted(draw(st.lists(span_rows, min_size=1, max_size=10)), key=lambda v: v.key)
    base, values = [], []
    for x in rows:
        role = draw(st.sampled_from(["base", "option", "both", "copy"]))
        if role != "option":
            base.append(x)
        if role != "base":
            values.append(copy.deepcopy(x) if role == "copy" else x)
    options = []
    while values:
        n = draw(st.integers(1, 2))
        chunk, values = values[:n], values[n:]
        if len(chunk) == 1:
            options.append([(chunk[0], draw(st.sampled_from([1.0, 1.0, 0.5])))])
        else:
            options.append([(x, draw(st.sampled_from([0.5, 0.3, 1.0]))) for x in chunk])
    return Bag.of(base), options


@pytest.mark.hashseed
class TestIncrementalExact:
    @given(span_worlds, st.sampled_from(SPAN_TAGS + ["A", "a1", "aa", "b"]))
    def test_tag_rows_are_the_tags_rows(self, world, tag):
        assert list(tag_rows(world, tag)) == _group_by_tag(world).get(tag, [])

    @given(st.one_of(st.tuples(span_worlds, span_options), ordered_options()))
    # a Dirac factor's value goes after the equal value of an earlier element
    @example((EMPTY, [[(Int(1), 0.5), (Int(2), 0.5)], [(Int(2), 1.0)]]))
    def test_insertion_equals_resorting(self, case):
        # the same bags, element for element (an inserted value follows the
        # base's equal elements and the equal values of earlier elements, as
        # the stable sort leaves it), with their keys and multiset hashes, and
        # bit-identical weights, summed in yield order
        base, options = case
        got = {}
        for bv, w in _distr(options, base, 0.7):
            got[bv] = got.get(bv, 0.0) + w
        want = {}
        for combo in iproduct(*options):
            p = 0.7
            for _, w in combo:
                p *= w
            bv = BagV(Bag.of([*base, *[x for x, _ in combo]]))
            want[bv] = want.get(bv, 0.0) + p
        assert [w.hex() for w in got.values()] == [w.hex() for w in want.values()]
        for g, w in zip(got, want):
            assert len(g.bag) == len(w.bag) and all(x is y for x, y in zip(g.bag, w.bag))
            assert g.bag.key == tuple(e.key for e in w.bag)
            assert hash(g.bag) == hash(Bag(g.bag.elements))

    def test_no_combination_is_sorted(self, monkeypatch):
        # every rule step of burglary.rules has ordered options, so the
        # exact run sorts nothing in this module; unordered options still do
        calls = []
        monkeypatch.setattr(pbmonad, "sorted", lambda *a, **k: calls.append(1) or sorted(*a, **k),
                            raising=False)
        assert len(run_rule_program(parse_rules(BURGLARY), town4(), "exact").entries) == 706
        assert calls == []
        assert len(list(_distr([[(Int(2), 1.0)], [(Int(1), 1.0)]], EMPTY, 1.0))) == len(calls) == 1

    def test_equal_heads_are_shared(self):
        # heads of one value are one object in all 706 exact worlds and
        # across mc worlds, which the CLI writer's identity memo encodes
        # once; that holds for trigger too, which two rules write, through
        # the program's one head table
        prog = parse_rules(BURGLARY)
        assert Counter(r.head_tag for r in prog.rules)["trigger"] == 2
        for worlds in backend_worlds(prog):
            assert len(one_object_per_value(worlds)["trigger"]) == 8

    def test_heads_of_one_rule_are_shared_across_matches(self):
        # city's four matches, one per house, write one value: the head
        # table makes it one object, in every world of both backends
        prog = parse_rules(BURGLARY + "city(c) <- address(x, c)\n")
        for worlds in backend_worlds(prog):
            assert len(one_object_per_value(worlds)["city"]) == 1

    def test_one_equality_call_per_merged_world(self, monkeypatch):
        # from_weights probes its dict once per pair, and worlds that are
        # not equal hash apart: a pair whose world is already there costs
        # one BagV.__eq__, any other pair none
        merges, calls = [], []
        from_weights = ExactDist.from_weights.__func__

        def counted(cls, weights):
            pairs = [(v, w) for v, w in (weights.items() if isinstance(weights, dict) else weights) if w]
            d = from_weights(cls, pairs)
            merges.append(len(pairs) - len(d.entries))
            return d

        monkeypatch.setattr(ExactDist, "from_weights", classmethod(counted))
        eq = BagV.__eq__
        monkeypatch.setattr(BagV, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
        assert len(run_rule_program(parse_rules(BURGLARY), town4(), "exact").entries) == 706
        assert len(calls) == sum(merges) > 0

    @pytest.mark.parametrize("rule", [
        "alarm(x) <- flip(x, 1)",  # heads in key order
        "alarm(y) <- flip(x, 1), opp(x, y)",  # heads against key order
    ])
    @pytest.mark.parametrize("held", [[], [0, 2, 2, 5]])
    def test_map_step_places_heads_in_their_run(self, rule, held):
        # a rule without a draw adds its heads to the run of its tag, which
        # the input may already hold: rows equal to, between and around the
        # heads.  alarm sorts before flip, so the step reorders the worlds.
        # An input row goes before an equal head, as Bag.of places it
        prog = parse_rules("flip(x, bernoulli(0.5)) <- coin(x)\n" + rule)
        held_rows = [Tagged("alarm", Int(n)) for n in held]
        base = Bag.of([*[Tagged("coin", Int(n)) for n in range(1, 5)],
                       *[Tagged("opp", Tuple((Int(n), Int(5 - n)))) for n in range(1, 5)], *held_rows])
        dist = run_rule_program(prog, base, "exact")
        assert exact_outcome(lambda: dist) == exact_outcome(reference_exact, prog, base)
        for world, _ in dist.entries:
            assert world.bag.key == tuple(e.key for e in world.bag)
            assert hash(world.bag) == hash_from_scratch(world.bag)
            twos = [x for x in world.bag if x == Tagged("alarm", Int(2))]
            assert all(x is y for x, y in zip(twos, held_rows[1:3]))
        assert len(dist.entries) == 16

    @pytest.mark.parametrize("limit", [0, 16])
    def test_map_step_counts_each_world_once(self, limit):
        # 16 worlds enter the step and 16 leave it; with no room for the
        # first, the step raises the message of every exact step
        prog = parse_rules("flip(x, bernoulli(0.5)) <- coin(x)\nalarm(x) <- flip(x, 1)")
        base = Bag.of([Tagged("coin", Int(n)) for n in range(4)])
        prog = prog if limit else RuleProgram(prog.rules[1:])
        got = exact_outcome(run_rule_program, prog, base, "exact", max_worlds=limit)
        assert got == exact_outcome(reference_exact, prog, base, limit)
        assert len(got[0]) == 16 if limit else got == (
            ResourceLimitError, "exact enumeration exceeds 0 worlds; rerun with the mc backend")

    @pytest.mark.parametrize("limit", [300, 628, 636])
    def test_limit_trips_at_the_same_world(self, monkeypatch, limit):
        # rule 3 (trigger <- burglary) trips the limit at world t of its 272;
        # options are computed for every world up to and including world t
        # and for none after it
        prog, base = parse_rules(BURGLARY), town4()
        rule = prog.rules[3]
        before = reference_exact(RuleProgram(prog.rules[:3]), base)
        total, reached = 0, 0
        for world, _ in before.entries:
            reached += 1
            total += 2 ** len(naive_matches(rule, world.bag))
            if total > limit:
                break
        calls = count_options(monkeypatch)
        got = exact_outcome(run_rule_program, prog, base, "exact", max_worlds=limit)
        assert got == exact_outcome(reference_exact, prog, base, limit)
        assert got[0] is ResourceLimitError
        assert calls.count(3) == reached < len(before.entries)


# ---------------------------------------------------------------------------
# One generator per compiled program: draws carry nothing from one to the next

# n's counts are poisson draws, and flip uses each as a bernoulli parameter:
# a world raises at the first match whose count is past 1, after the draws
# of the matches before it
COUNT = "n(x, poisson(1.0)) <- src(x)"
COUNTS = COUNT + "\nflip(x, bernoulli(k)) <- n(x, k)"
NOISE = "noise(x, normal(0.0, 1.0)) <- src(x)\nflag(x, bernoulli(0.3)) <- src(x)"
SRC4 = Bag.of([Tagged("src", Int(n)) for n in range(4)])


def raises_part_way(seed, i):
    """Whether world i of COUNTS raises at a later match of flip than its
    first.  flip's matches follow n's rows in canonical order, by x, and n's
    draws do not depend on the rules after it."""
    world = run_rule_program(parse_rules(COUNT), SRC4, "mc", seed=seed).world(i)
    ks = [v.value.items[1].value for v in world if v.tag == "n"]
    return ks[0] <= 1 < max(ks)


@pytest.mark.hashseed
class TestInterleaving:
    @settings(max_examples=60)
    @given(mc_seeds, mc_seeds, st.lists(st.tuples(st.integers(0, 1), st.integers(0, 12)), max_size=20),
           st.integers(0, 20))
    def test_interleaved_worlds_equal_worlds_alone(self, seed_a, seed_b, requests, at):
        # worlds of two samplers asked for in any order, repeats included,
        # and with a world of COUNTS that raises part-way through flip among
        # them, are the worlds each sampler computes alone
        progs, seeds = (parse_rules(COUNTS), parse_rules(NOISE)), (seed_a, seed_b)
        samplers = [run_rule_program(p, SRC4, "mc", seed=s) for p, s in zip(progs, seeds)]
        bad = next((i for i in range(100) if raises_part_way(seed_a, i)), None)  # 44% of worlds do
        assert bad is not None, "no world of COUNTS raises part-way"
        requests.insert(at, (0, bad))
        for which, i in requests:
            alone = run_rule_program(progs[which], SRC4, "mc", seed=seeds[which])
            assert outcome(samplers[which].world, i) == outcome(alone.world, i)
        assert outcome(samplers[0].world, bad)[0] is EngineTypeError


# ---------------------------------------------------------------------------
# The mc backend against the exact one

# the two-sided tail of 6 sigma, split over the tuples of an example
SIX_SIGMA_TAIL = 2 * NormalDist().cdf(-6.0)
MC_WORLDS = 300


class TestCrossBackend:
    # two coins split every program into 4 or more worlds before its own rules run
    @settings(max_examples=50, derandomize=True)
    @given(programs_and_bags(prob_values, ("bernoulli", None), (1, 2, 1), min_rank=1, split=True), mc_seeds)
    def test_mc_tuple_probs_lie_near_the_exact_marginals(self, prog_base, seed):
        # each row's share of mc worlds lies within 6 sigma of the exact
        # probability that a world holds it, Bonferroni-corrected over the
        # rows either backend produces; generation is derandomized, so the
        # seeds are fixed and the test cannot flake
        prog, base = prog_base
        try:
            exact = run_rule_program(prog, base, "exact", max_worlds=EXACT_LIMIT)
        except EngineError:
            return  # a bad parameter or the world limit: no marginals to compare
        marginal, present = Counter(), Counter()
        for world, w in exact.entries:
            for v in set(world.bag):
                marginal[v] += w
        for world in run_rule_program(prog, base, "mc", seed=seed).worlds(MC_WORLDS):
            present.update(set(world))
        rows = set(marginal) | set(present)
        z = NormalDist().inv_cdf(1 - SIX_SIGMA_TAIL / (2 * len(rows)))
        for v in rows:
            p = min(marginal[v], 1.0)
            assert abs(present[v] / MC_WORLDS - p) <= z * math.sqrt(p * (1 - p) / MC_WORLDS) + 1e-9, v
