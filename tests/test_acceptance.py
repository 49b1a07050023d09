"""Acceptance suite: nine end-to-end gates, one test and one printed
PASS/FAIL line per gate.  Statistical gates pin their seeds; numeric
gates state their tolerances inline."""
import itertools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bagdb.algebra import (
    Agg,
    Arith,
    Const,
    Field,
    MapQ,
    RowRef,
    Table,
    eval_query,
    q_dedup,
    q_difference,
    q_dunion,
    q_intersect,
    q_powerbag,
    q_product,
    q_union,
)
from bagdb.bags import EMPTY, Bag, counts, unit
from bagdb.dsl import parse
from oracle import StatGate, enum_worlds, gate, small_bags, tally
from bagdb.pbmonad import (
    add_noise,
    add_remove,
    distr_exact,
    parse_rules,
    pb_bind,
    pb_unit_bag,
    pb_unit_dist,
    pb_uplus,
    run_rule_program,
)
from bagdb.prob import (
    Dirac,
    ExactDist,
    Seed,
    bind_exact,
    dirac,
    map_exact,
    pushforward_exact,
)
from bagdb.values import BagV, Int, Real, Str, Tagged, Tuple

EPS = 1e-9
FIXTURES = Path(__file__).parent / "fixtures"

BURGLARY_RULES = (FIXTURES / "burglary.rules").read_text()


def town(houses=("H1", "H2")):
    rows = [Tagged("address", Tuple((Str(h), Str("C1")))) for h in houses]
    rows.append(Tagged("crimechance", Tuple((Str("C1"), Real(0.3)))))
    return Bag.of(rows)


def report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def ints(*ns):
    return Bag.of([Int(n) for n in ns])


# ---------------------------------------------------------------------------
# random generators with pinned seeds (kept independent of the hypothesis
# strategies so the acceptance runs are byte-for-byte reproducible)


def rand_bag(rng, max_size=5, lo=-3, hi=3):
    return Bag.of([Int(rng.randint(lo, hi)) for _ in range(rng.randint(0, max_size))])


def rand_dist(rng, max_support=4):
    support = rng.sample(range(-5, 6), rng.randint(1, max_support))
    weights = [rng.uniform(0.05, 1.0) for _ in support]
    total = math.fsum(weights)
    return ExactDist.from_weights(
        [(Int(v), w / total) for v, w in zip(support, weights)]
    )


def rand_pb_dist(rng):
    bags = [rand_bag(rng, max_size=3) for _ in range(rng.randint(1, 3))]
    weights = [rng.uniform(0.05, 1.0) for _ in bags]
    total = math.fsum(weights)
    acc: dict = {}
    for b, w in zip(bags, weights):
        k = BagV(b)
        acc[k] = acc.get(k, 0.0) + w / total
    return ExactDist.from_weights(acc)


def test_1_worked_examples():
    t0 = time.time()

    # blockbuster actors over the movie fixture
    env = {}
    rows = [
        json.loads(line)
        for line in (FIXTURES / "db.jsonl").read_text().splitlines()
        if line.strip()
    ]
    from bagdb.values import from_json

    env["db"] = Bag.of([from_json(r) for r in rows])
    q = parse((FIXTURES / "blockbusters.query").read_text())
    got = eval_query(q, env)
    ok = got == BagV(Bag.of([Str("A1"), Str("A2")]))

    # cast grouped by movie
    gq = parse("table db |> match cast as (actor, movie) |> group [movie] [actor]")
    grouped = eval_query(gq, env)
    want = BagV(
        Bag.of(
            [
                Tuple((Str("M1"), BagV(Bag.of([Str("A1"), Str("A2")])))),
                Tuple((Str("M2"), BagV(Bag.of([Str("A3")])))),
                Tuple((Str("M3"), BagV(Bag.of([Str("A1"), Str("A4"), Str("A5")])))),
            ]
        )
    )
    ok = ok and grouped == want

    # multiset arithmetic
    ok = ok and ints(1, 2).uplus(ints(2, 3)) == ints(1, 2, 2, 3)
    ok = ok and ints(3, 1, 2).fold(lambda x, a: [x.value] + a, []) == [1, 2, 3]
    ok = ok and unit(Int(7)) == ints(7)
    ok = ok and q_powerbag(ints(1, 1)).size == 4

    # burglary alarm probability, two houses, crime chance 0.3
    dist = run_rule_program(parse_rules(BURGLARY_RULES), town(), "exact")
    expect = 1 - (1 - 0.1 * 0.6) * (1 - 0.3 * 0.9)  # 0.3138
    for h in ("H1", "H2"):
        want_fact = Tagged("alarm", Str(h))
        p = math.fsum(w for v, w in dist.entries if v.bag.count(want_fact) > 0)
        ok = ok and abs(p - expect) <= EPS

    dt = time.time() - t0
    report("1 worked-examples", ok and dt < 1.0, f"{dt:.3f}s")


def test_2_law_suites_1000():
    t0 = time.time()
    rng = random.Random(0xBA61)
    ok = True

    # bag monad: left/right identity and associativity, 1000 instances
    for _ in range(1000):
        b = rand_bag(rng)
        x = Int(rng.randint(-3, 3))
        f = lambda v: ints(v.value, v.value + 1)
        g = lambda v: ints(v.value * 2)
        ok = ok and unit(x).bind(f) == f(x)
        ok = ok and b.bind(unit) == b
        ok = ok and b.bind(f).bind(g) == b.bind(lambda v: f(v).bind(g))

    # exact distribution monad, 1000 instances at 1e-9
    for _ in range(1000):
        d = rand_dist(rng)
        x = Int(rng.randint(-5, 5))
        f = lambda v: ExactDist.from_weights(
            {Int(v.value): 0.5, Int(v.value + 1): 0.5}
        )
        g = lambda v: dirac(Int(v.value * 2))
        ok = ok and bind_exact(f, dirac(x)).close_to(f(x), EPS)
        ok = ok and bind_exact(dirac, d).close_to(d, EPS)
        lhs = bind_exact(g, bind_exact(f, d))
        rhs = bind_exact(lambda v: bind_exact(g, f(v)), d)
        ok = ok and lhs.close_to(rhs, EPS)

    # bag-distribution monad, 1000 instances at 1e-9
    for _ in range(1000):
        m = rand_pb_dist(rng)
        b = rand_bag(rng, max_size=3)
        f = lambda v: ExactDist.from_weights(
            {BagV(ints(v.value)): 0.5, BagV(EMPTY): 0.5}
        )
        g = lambda v: pb_unit_bag(ints(v.value, 0))
        x = Int(rng.randint(-3, 3))
        ok = ok and pb_bind(f, pb_unit_bag(Bag.of([x]))).close_to(f(x), EPS)
        ok = ok and pb_bind(lambda v: pb_unit_bag(Bag.of([v])), m).close_to(m, EPS)
        lhs = pb_bind(g, pb_bind(f, m))
        rhs = pb_bind(lambda v: pb_bind(g, f(v)), m)
        ok = ok and lhs.close_to(rhs, EPS)

    dt = time.time() - t0
    report("2 law-suites-3x1000", ok and dt < 30.0, f"{dt:.2f}s")


def test_3_multiplicity_oracle():
    t0 = time.time()
    points = [Int(i) for i in range(4)]
    bags = list(small_bags(points, 6))
    ok = len(bags) == 210

    for b in bags:
        # dedup clamps every count to at most one
        db = q_dedup(b)
        ok = ok and all(db.count(p) == min(b.count(p), 1) for p in points)
        # powerbag: 2^n sub-bags, binomial multiplicities
        pb = q_powerbag(b)
        ok = ok and pb.size == 2**b.size
        base = dict(counts(b))
        for sub, got in counts(pb):
            expect = 1
            for v, k in counts(sub.bag):
                expect *= math.comb(base.get(v, 0), k)
            ok = ok and got == expect

    for b1, b2 in itertools.product(bags, repeat=2):
        c1 = {p: b1.count(p) for p in points}
        c2 = {p: b2.count(p) for p in points}
        du = q_dunion(b1, b2)
        di = q_difference(b1, b2)
        un = q_union(b1, b2)
        it = q_intersect(b1, b2)
        for p in points:
            ok = ok and du.count(p) == c1[p] + c2[p]
            ok = ok and di.count(p) == max(c1[p] - c2[p], 0)
            ok = ok and un.count(p) == max(c1[p], c2[p])
            ok = ok and it.count(p) == min(c1[p], c2[p])
        if not ok:
            break

    # product multiplicities on a sample of pairs
    rng = random.Random(0xBA62)
    for _ in range(300):
        b1, b2 = rng.choice(bags), rng.choice(bags)
        pr = q_product(b1, b2)
        for x in points:
            for y in points:
                ok = ok and pr.count(Tuple((x, y))) == b1.count(x) * b2.count(y)

    dt = time.time() - t0
    report("3 multiplicity-oracle-210-bags", ok and dt < 120.0, f"{dt:.1f}s")


def test_4_interchange_axioms():
    t0 = time.time()
    rng = random.Random(0xBA63)
    ok = True
    for _ in range(400):
        xs = [Int(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
        d = rand_dist(rng)
        ds = [rand_dist(rng) for _ in range(rng.randint(0, 3))]

        # a bag of point masses collapses to a point mass on the bag
        ok = ok and distr_exact([dirac(x) for x in xs]).close_to(
            pb_unit_bag(Bag.of(xs)), EPS
        )
        # a single distribution becomes a distribution over singletons
        ok = ok and distr_exact([d]).close_to(pb_unit_dist(d), EPS)
        # component order cannot matter
        shuffled = list(ds)
        rng.shuffle(shuffled)
        ok = ok and distr_exact(ds).close_to(distr_exact(shuffled), EPS)
        # interchange is monoidal: splitting the sequence convolves
        cut = rng.randint(0, len(ds))
        ok = ok and distr_exact(ds).close_to(
            pb_uplus(distr_exact(ds[:cut]), distr_exact(ds[cut:])), EPS
        )
        # naturality: mapping each component commutes with mapping bags
        g = lambda v: Int(v.value + 1)
        lhs = distr_exact([map_exact(g, di) for di in ds])
        rhs = distr_exact(ds).map(lambda bv: BagV(bv.bag.map(g)))
        ok = ok and lhs.close_to(rhs, EPS)

    dt = time.time() - t0
    report("4 interchange-axioms", ok and dt < 30.0, f"{dt:.2f}s")


def test_5_interchange_vs_product_oracle():
    rng = random.Random(0xBA64)
    ok = True
    for _ in range(200):
        ds = [rand_dist(rng) for _ in range(rng.randint(0, 4))]
        got = distr_exact(ds)
        acc: dict = {}
        for combo in itertools.product(*[d.entries for d in ds]):
            w = 1.0
            for _, wi in combo:
                w *= wi
            k = BagV(Bag.of([v for v, _ in combo]))
            acc[k] = acc.get(k, 0.0) + w
        oracle = ExactDist.from_weights(acc or {BagV(EMPTY): 1.0})
        ok = ok and got.close_to(oracle, EPS)
    report("5 interchange-vs-product-oracle", ok)


def test_6_burglary_micro():
    t0 = time.time()
    prog = parse_rules(BURGLARY_RULES)
    base = town()

    engine = run_rule_program(prog, base, "exact")
    oracle = enum_worlds(prog, base)
    ok = engine.close_to(oracle, EPS)

    n = 100_000
    sampler = run_rule_program(prog, base, "mc", seed=Seed(0xC6))
    worlds = sampler.worlds(n)
    empirical = tally(BagV(w) for w in worlds)
    ok = ok and gate(empirical, engine, StatGate(n)).passed

    expect = 1 - (1 - 0.1 * 0.6) * (1 - 0.3 * 0.9)
    for h in ("H1", "H2"):
        fact = Tagged("alarm", Str(h))
        phat = sum(1 for w in worlds if w.count(fact) > 0) / n
        tol = 3 * math.sqrt(expect * (1 - expect) / n)
        ok = ok and abs(phat - expect) <= tol

    dt = time.time() - t0
    report("6 burglary-micro-exact-vs-mc", ok and dt < 60.0, f"{dt:.1f}s")


def test_7_noise_generators():
    t0 = time.time()
    n = 100_000

    base = ints(*range(10))
    s = add_remove(base, 0.9, 3.0, Dirac(Int(999)), Seed(0xC7))
    sizes = [s.world(i).size for i in range(n)]
    mean_size = math.fsum(sizes) / n
    # binomial(10, .9) plus poisson(3)
    expect = 10 * 0.9 + 3.0
    sd = math.sqrt(10 * 0.9 * 0.1 + 3.0)
    ok = abs(mean_size - expect) <= 3 * sd / math.sqrt(n)

    rows = Bag.of([Tuple((Str("g"), Real(0.0)))])
    sigma = 1e5
    noisy = add_noise(rows, sigma, Seed(0xC7 + 1))
    vals = [noisy.world(i).elements[0].items[1].value for i in range(n)]
    mean = math.fsum(vals) / n
    ok = ok and abs(mean - 0.0) <= 3 * sigma / math.sqrt(n)
    var = math.fsum((x - mean) ** 2 for x in vals) / (n - 1)
    ok = ok and abs(math.sqrt(var) - sigma) <= 0.02 * sigma

    dt = time.time() - t0
    report("7 noise-generators-1e5", ok and dt < 60.0, f"{dt:.1f}s")


def test_8_pushforward():
    w1, w2 = BagV(ints(1, 2)), BagV(ints(2, 3, 4))
    d = ExactDist.from_weights({w1: 0.25, w2: 0.75})
    got = pushforward_exact(Agg("size", Table("db")), d)
    ok = got.close_to(ExactDist.from_weights({Int(2): 0.25, Int(3): 0.75}), EPS)

    rng = random.Random(0xBA65)
    ops = ["+", "-", "*"]

    def rand_expr(depth=0):
        if depth >= 2 or rng.random() < 0.4:
            return rng.choice([RowRef(), Const(Int(rng.randint(-3, 3)))])
        return Arith(rng.choice(ops), rand_expr(depth + 1), rand_expr(depth + 1))

    from bagdb.algebra import eval_expr

    for _ in range(100):
        dist = rand_pb_dist(rng)
        e1, e2 = rand_expr(), rand_expr()
        composed = pushforward_exact(MapQ(e2, MapQ(e1, Table("db"))), dist)
        staged = pushforward_exact(MapQ(e1, Table("db")), dist).map(
            lambda bv: BagV(bv.bag.map(lambda v: eval_expr(e2, v)))
        )
        ok = ok and composed.close_to(staged, EPS)

    report("8 pushforward-functoriality", ok)


def test_9_cli_reproducible(tmp_path):
    args = [
        sys.executable,
        "-m",
        "bagdb.cli",
        "generate",
        "--db",
        str(FIXTURES / "town.jsonl"),
        "--program",
        str(FIXTURES / "burglary.rules"),
        "--backend",
        "mc",
        "--samples",
        "500",
        "--seed",
        "20260813",
    ]

    def run(workers):
        proc = subprocess.run(
            args + ["--workers", str(workers)], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run(1)
    ok = run(1) == first  # same seed, repeated invocation
    ok = ok and run(4) == first and run(8) == first

    est = [
        sys.executable,
        "-m",
        "bagdb.cli",
        "estimate",
        "--db",
        str(FIXTURES / "town.jsonl"),
        "--program",
        str(FIXTURES / "burglary.rules"),
        "--query",
        str(FIXTURES / "alarms.query"),
        "--samples",
        "500",
        "--seed",
        "31",
    ]
    out1 = subprocess.run(est + ["--workers", "1"], capture_output=True)
    out8 = subprocess.run(est + ["--workers", "8"], capture_output=True)
    ok = ok and out1.stdout == out8.stdout and out1.returncode == 0

    report("9 cli-byte-identical", ok)
