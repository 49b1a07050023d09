"""Probability layer: exact finite distributions, seeded samplers, and
pushing queries through both."""
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bagdb.algebra import Agg, Cmp, Const, Field, Select, Table
from bagdb.bags import Bag
from bagdb.errors import (
    EngineTypeError,
    NormalizationError,
    NotFiniteError,
    WorldEvalError,
)
from bagdb.prob import (
    Bernoulli,
    BERNOULLI_ONE,
    BERNOULLI_ZERO,
    Bind,
    Categorical,
    Dirac,
    ExactDist,
    MapS,
    Normal,
    Poisson,
    Seed,
    WEIGHT_EPS,
    bind_exact,
    child_hasher,
    dirac,
    draw_from,
    exact_of,
    generator,
    map_exact,
    normal_pair,
    poisson_draw,
    pushforward_exact,
    pushforward_mc,
    reseed,
    sample,
    strength_exact,
)
from bagdb.values import BagV, Int, Real, Str, Tuple

from dual_routes import child_rng
from strategies import exact_dists, seeds, small_ints, values


def ints(*ns):
    return Bag.of([Int(n) for n in ns])


EPS = WEIGHT_EPS


class TestSeed:
    def test_same_seed_same_stream(self):
        a = Seed(42, (1, 2)).rng()
        b = Seed(42, (1, 2)).rng()
        assert [a.random() for _ in range(64)] == [b.random() for _ in range(64)]

    def test_child_paths_differ(self):
        s = Seed(42)
        r0 = s.child(0).rng()
        r1 = s.child(1).rng()
        assert [r0.random() for _ in range(64)] != [r1.random() for _ in range(64)]

    def test_child_differs_from_parent(self):
        s = Seed(7)
        assert s.rng().random() != s.child(0).rng().random()

    def test_master_bounds(self):
        with pytest.raises(EngineTypeError):
            Seed(-1)
        with pytest.raises(EngineTypeError):
            Seed(2**64)
        Seed(2**64 - 1)

    @given(seeds, st.integers(min_value=0, max_value=2**32))
    def test_distinct_children_distinct_streams(self, master, i):
        s = Seed(master)
        a = s.child(i).rng().random()
        b = s.child(i + 1).rng().random()
        assert a != b

    @given(seeds, st.lists(st.integers(0, 2**64 - 1), max_size=3), st.integers(0, 2**64 - 1))
    def test_child_rng_is_the_child_stream(self, master, path, j):
        s = Seed(master, tuple(path))
        prefix = s.hasher()
        a, b = child_rng(prefix, j), s.child(j).rng()
        assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]
        assert prefix.digest() == s.hasher().digest()  # the prefix is not consumed

    def test_child_rng_index_bounds(self):
        for bad in (-1, 2**64):
            with pytest.raises(EngineTypeError):
                child_rng(Seed(1).hasher(), bad)


@pytest.mark.hashseed
class TestStreamLaw:
    """One generator, reseeded before each draw, reads the draw's own
    stream whatever it drew before: the stream that a new generator on
    the same seed reads.  CPython's C ``seed`` and ``random.Random``'s
    must agree on an integer for this to hold."""

    shared = generator()

    @given(seeds, st.lists(st.integers(0, 2**64 - 1), max_size=3), st.integers(0, 2**64 - 1),
           st.integers(0, 700))
    def test_reseeded_generator_reads_the_child_stream(self, master, path, j, drawn_before):
        s = Seed(master, tuple(path))
        gen = self.shared
        for _ in range(drawn_before):  # past the 624-word state, too
            gen.random()
        assert reseed(gen, s.hasher(), j) is gen
        want = s.child(j).rng()
        assert [gen.random().hex() for _ in range(3)] == [want.random().hex() for _ in range(3)]

    @given(seeds, st.lists(st.integers(0, 2**64 - 1), max_size=2), st.integers(0, 2**64 - 1),
           st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_prefix_fed_i_then_j_is_the_grandchild_stream(self, master, path, k, i, j):
        # the mc sampler hashes seed/rule once per program, feeds it the
        # world index once per world, and reseeds from that per draw
        s = Seed(master, tuple(path))
        prefix = s.child(k).hasher()
        world = child_hasher(prefix, i)
        assert world.digest() == s.child(k).child(i).hasher().digest()
        assert prefix.digest() == s.child(k).hasher().digest()  # the prefix is not consumed
        gen = reseed(self.shared, world, j)
        want = s.child(k).child(i).child(j).rng()
        assert [gen.random().hex() for _ in range(3)] == [want.random().hex() for _ in range(3)]

    def test_child_hasher_index_bounds(self):
        for bad in (-1, 2**64):
            with pytest.raises(EngineTypeError, match="^seed path entries must be unsigned 64-bit integers$"):
                child_hasher(Seed(1).hasher(), bad)

    @given(seeds, st.floats(0.0, 1.0))
    def test_bernoulli_outcomes_are_shared(self, master, p):
        drawn = sample(Bernoulli(p), Seed(master))
        assert drawn is (BERNOULLI_ONE if drawn == Int(1) else BERNOULLI_ZERO)
        assert all(v is (BERNOULLI_ONE if v == Int(1) else BERNOULLI_ZERO)
                   for v in exact_of(Bernoulli(p)).support)


class TestExactDist:
    def test_from_weights_sorts_and_merges(self):
        d = ExactDist.from_weights([(Int(2), 0.25), (Int(1), 0.5), (Int(2), 0.25)])
        assert d.entries == ((Int(1), 0.5), (Int(2), 0.5))

    def test_zero_weights_dropped(self):
        d = ExactDist.from_weights([(Int(1), 1.0), (Int(2), 0.0)])
        assert d.support == (Int(1),)

    def test_negative_weight_rejected(self):
        with pytest.raises(NormalizationError, match=r"^negative weight -0\.5 for Int\(2\)$"):
            ExactDist.from_weights([(Int(1), 1.5), (Int(2), -0.5)])

    @pytest.mark.parametrize("weights", [{Int(1): math.nan}, [(Int(1), 0.5), (Int(2), 0.5), (Int(1), math.nan)],
                                         [(Int(1), 0.5), (Int(2), 0.5), (Int(3), -math.nan)]])
    def test_nan_weight_rejected(self, weights):
        # nan < 0 is false, and so is abs(nan - 1.0) > WEIGHT_EPS
        with pytest.raises(NormalizationError, match=r"^weight nan for Int\(\d\) is not a number$"):
            ExactDist.from_weights(weights)

    def test_bad_total_rejected(self):
        with pytest.raises(NormalizationError):
            ExactDist.from_weights([(Int(1), 0.7)])

    @pytest.mark.parametrize("entries, message", [
        (((Int(0), -0.5), (Int(1), 1.5)), r"^negative weight -0\.5 for Int\(0\)$"),
        (((Int(0), 0.0), (Int(1), 1.0)), r"^zero weight for Int\(0\)$"),
        (((Int(0), 0.5), (Int(1), math.nan)), r"^weight nan for Int\(1\) is not a number$"),
        (((Int(1), 0.5), (Int(0), 0.5)), r"^support is not strictly increasing by key: Int\(1\) then Int\(0\)$"),
        (((Int(1), 0.5), (Int(1), 0.5)), r"^support is not strictly increasing by key: Int\(1\) then Int\(1\)$"),
        (((Int(1), 0.7),), r"^weights sum to 0\.7, not 1$"),
        ((), r"^weights sum to 0\.0, not 1$"),
    ], ids=["negative", "zero", "nan", "unsorted", "repeated", "total", "empty"])
    def test_constructor_rejects_what_is_not_canonical(self, entries, message):
        with pytest.raises(NormalizationError, match=message):
            ExactDist(entries)

    @given(exact_dists(values, max_support=6))
    def test_constructor_accepts_what_from_weights_builds(self, d):
        assert ExactDist(d.entries) == d
        assert ExactDist(list(d.entries)).entries == d.entries

    def test_total_within_epsilon_accepted(self):
        ExactDist.from_weights([(Int(1), 0.5), (Int(2), 0.5 + 5e-10)])

    def test_weight_lookup(self):
        d = ExactDist.from_weights({Int(1): 0.3, Int(2): 0.7})
        assert d.weight(Int(1)) == 0.3
        assert d.weight(Int(9)) == 0.0

    @given(exact_dists(values, max_support=6), values, st.data())
    def test_weight_is_the_linear_scan(self, d, other, data):
        # 1 and 1.0, or 0.0 and -0.0, are different points of the support
        x = data.draw(st.sampled_from([other, *d.support]))
        scan = next((w for v, w in d.entries if v == x), 0.0)
        assert d.weight(x).hex() == scan.hex()

    def test_close_to(self):
        a = ExactDist.from_weights({Int(1): 0.5, Int(2): 0.5})
        b = ExactDist.from_weights({Int(1): 0.5 + 1e-12, Int(2): 0.5 - 1e-12})
        assert a.close_to(b)
        c = ExactDist.from_weights({Int(1): 1.0})
        assert not a.close_to(c)


class TestGiryMonad:
    @given(small_ints)
    def test_left_identity(self, x):
        f = lambda v: ExactDist.from_weights({Int(v.value): 0.5, Int(v.value + 1): 0.5})
        assert bind_exact(f, dirac(x)).close_to(f(x))

    @given(exact_dists())
    def test_right_identity(self, d):
        assert bind_exact(dirac, d).close_to(d)

    @given(exact_dists())
    def test_associativity(self, d):
        f = lambda v: ExactDist.from_weights({Int(v.value): 0.5, Int(v.value + 1): 0.5})
        g = lambda v: ExactDist.from_weights({Int(v.value * 2): 1.0})
        lhs = bind_exact(g, bind_exact(f, d))
        rhs = bind_exact(lambda v: bind_exact(g, f(v)), d)
        assert lhs.close_to(rhs, EPS)

    @given(exact_dists())
    def test_map_via_bind(self, d):
        g = lambda v: Int(v.value + 1)
        assert map_exact(g, d).close_to(bind_exact(lambda v: dirac(g(v)), d))

    @given(exact_dists())
    def test_strength(self, d):
        got = strength_exact(Str("k"), d)
        assert got.weight(Tuple((Str("k"), d.support[0]))) == d.entries[0][1]

    @given(exact_dists())
    def test_weights_sum_to_one(self, d):
        assert abs(math.fsum(w for _, w in d.entries) - 1.0) <= EPS


class TestSamplers:
    def test_dirac(self):
        assert sample(Dirac(Str("x")), Seed(0)) == Str("x")

    def test_bernoulli_range_validated(self):
        with pytest.raises(EngineTypeError):
            Bernoulli(1.5)
        with pytest.raises(EngineTypeError):
            Bernoulli(-0.1)

    def test_normal_stddev_validated(self):
        with pytest.raises(EngineTypeError):
            Normal(0.0, -1.0)

    def test_poisson_rate_validated(self):
        with pytest.raises(EngineTypeError):
            Poisson(-2.0)

    def test_poisson_rate_bound(self):
        # past 2.56e305 the transformed rejection's lgamma overflows, but
        # only on seeds whose squeeze test fails: a larger rate is rejected
        # before any draw, and the largest allowed rate draws on every seed
        for rate in (2.5000000000000003e305, 2.6e305, 1e308):
            with pytest.raises(EngineTypeError, match="largest that can be drawn from"):
                Poisson(rate)
        e = Poisson(2.5e305)
        draws = [sample(e, Seed(4, (i,))).value for i in range(300)]
        assert all(abs(k - 2.5e305) < 1e160 for k in draws)

    def test_sampling_is_deterministic(self):
        e = Bind(Bernoulli(0.5), lambda v: Dirac(Int(v.value * 10)))
        assert sample(e, Seed(3)) == sample(e, Seed(3))

    def test_bernoulli_returns_bits(self):
        seen = {sample(Bernoulli(0.5), Seed(0, (i,))).value for i in range(50)}
        assert seen == {0, 1}

    def test_bernoulli_frequency(self):
        n, p = 10_000, 0.3
        hits = sum(sample(Bernoulli(p), Seed(1, (i,))).value for i in range(n))
        assert abs(hits / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_normal_pair_moments(self):
        rng = random.Random(12345)
        xs = []
        for _ in range(5000):
            a, b = normal_pair(rng)
            xs.extend((a, b))
        n = len(xs)
        mean = math.fsum(xs) / n
        var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
        assert abs(mean) <= 3 / math.sqrt(n)
        assert abs(var - 1.0) <= 3 * math.sqrt(2 / n)

    @pytest.mark.parametrize("rate", [0.5, 3.0, 30.0, 100.0])
    def test_poisson_mean(self, rate):
        rng = random.Random(999)
        n = 20_000
        draws = [poisson_draw(rate, rng) for _ in range(n)]
        mean = math.fsum(draws) / n
        assert abs(mean - rate) <= 3 * math.sqrt(rate / n)

    def test_poisson_small_rate_zero_heavy(self):
        rng = random.Random(5)
        draws = [poisson_draw(0.1, rng) for _ in range(2000)]
        assert draws.count(0) > 1500
        assert all(d >= 0 for d in draws)

    def test_categorical_frequencies(self):
        d = ExactDist.from_weights({Int(1): 0.2, Int(2): 0.8})
        n = 10_000
        hits = sum(1 for i in range(n) if sample(Categorical(d), Seed(8, (i,))) == Int(2))
        assert abs(hits / n - 0.8) <= 3 * math.sqrt(0.8 * 0.2 / n)

    def test_map_sampler(self):
        e = MapS(lambda v: Int(v.value + 100), Dirac(Int(1)))
        assert sample(e, Seed(0)) == Int(101)


class TestExactOf:
    def test_dirac(self):
        assert exact_of(Dirac(Int(3))).entries == ((Int(3), 1.0),)

    def test_bernoulli(self):
        d = exact_of(Bernoulli(0.3))
        assert d.weight(Int(0)) == pytest.approx(0.7)
        assert d.weight(Int(1)) == pytest.approx(0.3)

    def test_bernoulli_degenerate(self):
        assert exact_of(Bernoulli(0.0)).support == (Int(0),)
        assert exact_of(Bernoulli(1.0)).support == (Int(1),)

    def test_categorical_identity(self):
        d = ExactDist.from_weights({Int(1): 0.4, Int(2): 0.6})
        assert exact_of(Categorical(d)).close_to(d)

    def test_bind_pushes_weights(self):
        e = Bind(Bernoulli(0.3), lambda v: Dirac(Int(v.value * 10)))
        d = exact_of(e)
        assert d.weight(Int(0)) == pytest.approx(0.7)
        assert d.weight(Int(10)) == pytest.approx(0.3)

    def test_normal_has_no_exact_form(self):
        with pytest.raises(NotFiniteError) as ei:
            exact_of(Normal(0.0, 1.0))
        assert "mc" in str(ei.value)

    def test_poisson_has_no_exact_form(self):
        with pytest.raises(NotFiniteError):
            exact_of(Poisson(2.0))

    def test_exact_matches_sampling(self):
        e = Bind(
            Bernoulli(0.4),
            lambda v: Categorical(
                ExactDist.from_weights({Int(v.value): 0.5, Int(2): 0.5})
            ),
        )
        d = exact_of(e)
        n = 20_000
        tally: dict = {}
        for i in range(n):
            v = sample(e, Seed(77, (i,)))
            tally[v] = tally.get(v, 0) + 1
        for v in d.support:
            p = d.weight(v)
            assert abs(tally.get(v, 0) / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


class TestPushforward:
    def _two_world(self):
        w1 = BagV(ints(1, 2))
        w2 = BagV(ints(2, 3, 4))
        return ExactDist.from_weights({w1: 0.25, w2: 0.75})

    def test_exact_pushforward(self):
        q = Agg("size", Table("db"))
        got = pushforward_exact(q, self._two_world())
        assert got.close_to(ExactDist.from_weights({Int(2): 0.25, Int(3): 0.75}))

    def test_exact_pushforward_merges_collisions(self):
        q = Agg("size", Select(Cmp("<", Field(1), Const(Int(99))), Table("db")))
        d = ExactDist.from_weights({BagV(ints(1)): 0.5, BagV(ints(9)): 0.5})
        got = pushforward_exact(q, d)
        assert got.entries == ((Int(1), 1.0),)

    def test_non_bag_world_rejected(self):
        with pytest.raises(EngineTypeError):
            pushforward_exact(Table("db"), dirac(Int(1)))

    def test_world_errors_carry_world(self):
        q = Agg("the", Table("db"))
        d = ExactDist.from_weights({BagV(ints()): 1.0})
        with pytest.raises(WorldEvalError):
            pushforward_exact(q, d)

    def test_world_errors_name_the_index(self):
        # sum fails on the 300-string world only: entry 1 of the exact
        # distribution (Int rows sort first) and sample 3 of the mc one
        q = Agg("sum", Table("db"))
        big = Bag.of([Str(f"s{i:03d}") for i in range(300)])
        d = ExactDist.from_weights({BagV(ints(1)): 0.5, BagV(big): 0.5})

        class Sampler:
            def world(self, i):
                return big if i == 3 else ints(i)

        for index, run in ((1, lambda: pushforward_exact(q, d)), (3, lambda: pushforward_mc(q, Sampler(), 5))):
            with pytest.raises(WorldEvalError) as ei:
                run()
            e = ei.value
            assert e.index == index and e.world == BagV(big)
            assert str(e).startswith(f"query failed in world {index} (300 rows: [Str('s000'), Str('s001'), ")
            assert str(e).endswith(f" ...]): {e.cause}")
            assert len(str(e)) < 400

    def test_mc_pushforward_deterministic(self):
        q = Agg("size", Table("db"))
        gen = MapS(
            lambda v: BagV(ints(*range(v.value + 1))),
            Bernoulli(0.5),
        )
        a = pushforward_mc(q, gen, 40, seed=Seed(5))
        b = pushforward_mc(q, gen, 40, seed=Seed(5))
        assert a == b

    def test_mc_pushforward_matches_exact(self):
        q = Agg("size", Table("db"))
        gen = MapS(lambda v: BagV(ints(*range(v.value + 1))), Bernoulli(0.25))
        n = 8000
        results = pushforward_mc(q, gen, n, seed=Seed(21))
        phat = sum(1 for r in results if r == Int(2)) / n
        assert abs(phat - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n)

    def test_mc_requires_bag_worlds(self):
        with pytest.raises(EngineTypeError):
            pushforward_mc(Table("db"), Dirac(Int(1)), 3, seed=Seed(0))
