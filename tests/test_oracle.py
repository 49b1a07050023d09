"""The slow independent re-implementations and statistical test gates."""
import math

import pytest

from bagdb.bags import Bag
from bagdb.errors import NotFiniteError, ProgramError
from oracle import (
    GateReport,
    StatGate,
    binom,
    check_commutative,
    enum_worlds,
    gate,
    small_bags,
    tally,
)
from bagdb.pbmonad import parse_rules, run_rule_program
from bagdb.prob import ExactDist
from bagdb.values import BagV, Int, Real, Str, Tagged, Tuple


class TestEnumWorlds:
    def test_deterministic_program_single_world(self):
        prog = parse_rules("copy(x) <- src(x)")
        base = Bag.of([Tagged("src", Int(1))])
        d = enum_worlds(prog, base)
        assert len(d.entries) == 1
        world, w = d.entries[0]
        assert w == pytest.approx(1.0)
        assert world.bag.count(Tagged("copy", Int(1))) == 1

    def test_single_bernoulli_two_worlds(self):
        prog = parse_rules("flip(x, bernoulli(0.3)) <- src(x)")
        base = Bag.of([Tagged("src", Int(1))])
        d = enum_worlds(prog, base)
        assert len(d.entries) == 2
        hit = Tagged("flip", Tuple((Int(1), Int(1))))
        p_hit = math.fsum(w for v, w in d.entries if v.bag.count(hit) > 0)
        assert p_hit == pytest.approx(0.3)

    def test_degenerate_bernoulli_collapses(self):
        prog = parse_rules("flip(x, bernoulli(1.0)) <- src(x)")
        base = Bag.of([Tagged("src", Int(1))])
        d = enum_worlds(prog, base)
        assert len(d.entries) == 1

    def test_agrees_with_engine(self):
        prog = parse_rules(
            "earthquake(c, bernoulli(0.1)) <- crimechance(c, r)\n"
            "burglary(x, bernoulli(r)) <- address(x, c), crimechance(c, r)\n"
            "trigger(x, bernoulli(0.6)) <- address(x, c), earthquake(c, 1)\n"
            "trigger(x, bernoulli(0.9)) <- burglary(x, 1)\n"
            "alarm(x) <- trigger(x, 1)\n"
        )
        base = Bag.of(
            [
                Tagged("address", Tuple((Str("H1"), Str("C1")))),
                Tagged("crimechance", Tuple((Str("C1"), Real(0.3)))),
            ]
        )
        engine = run_rule_program(prog, base, "exact")
        oracle = enum_worlds(prog, base)
        assert engine.close_to(oracle, 1e-9)

    def test_continuous_unsupported(self):
        prog = parse_rules("noise(x, normal(0.0, 1.0)) <- src(x)")
        with pytest.raises(NotFiniteError):
            enum_worlds(prog, Bag.of([Tagged("src", Int(1))]))

    def test_probability_out_of_range(self):
        prog = parse_rules("flip(x, bernoulli(r)) <- src(x, r)")
        base = Bag.of([Tagged("src", Tuple((Int(1), Real(1.5))))])
        with pytest.raises(ProgramError):
            enum_worlds(prog, base)


class TestCheckCommutative:
    def test_addition_commutes(self):
        ok, witness = check_commutative(
            lambda x, y: x + y, xs=list(range(10)), accs=list(range(10))
        )
        assert ok and witness is None

    def test_cons_does_not_commute(self):
        f = lambda x, acc: [x] + acc
        ok, witness = check_commutative(
            f, xs=[1, 2, 3], accs=[[], [9]], trials=500
        )
        assert not ok
        x1, x2, y = witness
        assert f(x1, f(x2, y)) != f(x2, f(x1, y))

    def test_max_commutes(self):
        ok, _ = check_commutative(max, xs=[3, 1, 4, 1, 5], accs=[0, 2])
        assert ok


class TestGate:
    def _coin(self):
        return ExactDist.from_weights({Int(0): 0.5, Int(1): 0.5})

    def test_fair_coin_rejects_512(self):
        n = 100_000
        emp = {Int(1): 51_200, Int(0): 48_800}
        report = gate(emp, self._coin(), StatGate(n))
        assert not report.passed

    def test_fair_coin_accepts_503(self):
        n = 100_000
        emp = {Int(1): 50_300, Int(0): 49_700}
        report = gate(emp, self._coin(), StatGate(n))
        assert report.passed

    def test_zero_probability_zero_tolerance(self):
        n = 1000
        emp = {Int(0): 999, Int(7): 1}
        report = gate(emp, ExactDist.from_weights({Int(0): 1.0}), StatGate(n))
        assert not report.passed
        assert any(v == Int(7) for v, _, _, _ in report.failures)

    def test_exact_match_passes(self):
        emp = {Int(0): 1000}
        report = gate(emp, ExactDist.from_weights({Int(0): 1.0}), StatGate(1000))
        assert report.passed

    def test_failures_report_details(self):
        emp = {Int(1): 900, Int(0): 100}
        report = gate(emp, self._coin(), StatGate(1000))
        (v, phat, p, tol) = report.failures[0]
        assert abs(phat - p) > tol

    def test_tally(self):
        got = tally([Int(1), Int(2), Int(1)])
        assert got == {Int(1): 2, Int(2): 1}


class TestSmallBags:
    def test_count_for_four_points(self):
        pts = [Int(i) for i in range(4)]
        bags = list(small_bags(pts, 6))
        # sum over k<=6 of C(k+3, 3) multisets from a 4-point space
        assert len(bags) == 210

    def test_all_distinct_and_bounded(self):
        pts = [Int(0), Int(1)]
        bags = list(small_bags(pts, 3))
        assert len(set(bags)) == len(bags)
        assert all(b.size <= 3 for b in bags)

    def test_binom(self):
        assert binom(4, 2) == 6
        assert binom(3, 0) == 1
        assert binom(2, 5) == 0
