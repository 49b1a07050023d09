"""Probability layer: exact finite-support distributions, seeded samplers,
and pushforward of deterministic queries over uncertain databases.

Exact distributions are canonical (support sorted, weights positive,
total within 1e-9 of one) so distribution equality is meaningful.  The
sampling side is built on explicit Seed values: a 64-bit master plus a
derivation path, hashed into an independent stream per path.  A stream
is the Mersenne Twister seeded with the sha256 digest of its address,
read as a little-endian integer; ``reseed`` points one existing
generator at a stream, so a caller that draws many times can keep one
generator and reseed it before each draw.  Every multi-draw construct
derives child seeds instead of sharing a stream, so each draw is
addressed by its path and no evaluation order can change a result.
Bernoulli draws return one of two shared values, ``Int(0)`` and
``Int(1)``.  (``--workers`` is accepted by the CLI but worlds are
generated sequentially; it cannot change output.)

``pushforward`` imports ``algebra`` when its first result is asked for,
not with this module, so that ``generate``, which runs no query, does not
load the query engine.
"""
from __future__ import annotations

import _random
import hashlib
import math
import random
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional

from .bags import Bag
from .errors import (
    EngineError,
    EngineTypeError,
    NormalizationError,
    NotFiniteError,
    WorldEvalError,
)
from .node import Node, _setattr
from .values import BagV, Int, Real, Tuple, Value

if TYPE_CHECKING:
    from .algebra import Query

WEIGHT_EPS = 1e-9

_POISSON_INVERSION_CUTOFF = 30.0


class Seed(Node):
    """A reproducible stream address: (master, derivation path)."""

    master: int
    path: tuple[int, ...]

    def __init__(self, master: int, path: tuple[int, ...] = ()):
        # its own __init__, not Node's, for the default ``path=()`` and the
        # 64-bit checks; the mc draw path reseeds from hashed prefixes and
        # builds no Seed (``reseed``)
        if not (0 <= master < 2**64):
            raise EngineTypeError("seed master must be an unsigned 64-bit integer")
        for p in path:
            if not (0 <= p < 2**64):
                raise EngineTypeError("seed path entries must be unsigned 64-bit integers")
        _setattr(self, "master", master)
        _setattr(self, "path", path)

    def child(self, index: int) -> "Seed":
        return Seed(self.master, self.path + (index,))

    def hasher(self) -> "hashlib._Hash":
        """sha256 fed the master and then each path entry (``_fed``).
        ``rng`` digests it; ``child_hasher`` and ``reseed`` extend a copy,
        so siblings share the hashing of their common prefix."""
        h = _fed(hashlib.sha256(), self.master)
        for p in self.path:
            _fed(h, p)
        return h

    def rng(self) -> random.Random:
        """A new generator on this seed's stream."""
        return random.Random(_stream_int(self.hasher()))


def _fed(h: "hashlib._Hash", n: int) -> "hashlib._Hash":
    """``h`` fed ``n`` as 8 little-endian bytes, the layout of a master and
    of each path entry."""
    h.update(n.to_bytes(8, "little"))
    return h


def _stream_int(h: "hashlib._Hash") -> int:
    """The integer that seeds the stream ``h`` addresses: its digest, read
    little-endian."""
    return int.from_bytes(h.digest(), "little")


# ``random.Random`` subclasses this C type and passes an int seed straight
# to its ``seed``, so both read the same stream from the same integer.
_seed_mt = _random.Random.seed


def generator() -> _random.Random:
    """A Mersenne Twister for ``reseed`` to point at one stream after
    another.  It is the C type that ``random.Random`` subclasses: its
    ``seed`` skips the Python-level wrapper, and it has no ``gauss`` state
    that could carry from one stream to the next."""
    return _random.Random(0)


def child_hasher(prefix: "hashlib._Hash", index: int) -> "hashlib._Hash":
    """``seed.child(index).hasher()``, given ``prefix = seed.hasher()``,
    which is copied, not changed.  An index outside 64 bits raises as
    ``Seed`` does."""
    if not (0 <= index < 2**64):
        raise EngineTypeError("seed path entries must be unsigned 64-bit integers")
    return _fed(prefix.copy(), index)


def reseed(gen: _random.Random, prefix: "hashlib._Hash", index: int) -> _random.Random:
    """``gen`` reseeded to the stream of ``seed.child(index)``, given
    ``prefix = seed.hasher()``: the stream of ``seed.child(index).rng()``,
    whatever ``gen`` drew before.  ``prefix`` is copied, not changed.  It
    runs once per draw, so it feeds and digests inline (``child_hasher``,
    ``_stream_int``)."""
    if not (0 <= index < 2**64):
        raise EngineTypeError("seed path entries must be unsigned 64-bit integers")
    h = prefix.copy()
    h.update(index.to_bytes(8, "little"))
    _seed_mt(gen, int.from_bytes(h.digest(), "little"))
    return gen


# ---------------------------------------------------------------------------
# Exact finite-support distributions


def _entry_key(entry: tuple[Value, float]) -> tuple:
    return entry[0].key


def _bad_weight(v: Value, w: float) -> NormalizationError:
    """The error for a weight ``w`` of ``v`` that is not ``> 0``."""
    if w < 0:
        return NormalizationError(f"negative weight {w} for {v!r}")
    if w == 0:
        return NormalizationError(f"zero weight for {v!r}")
    return NormalizationError(f"weight {w} for {v!r} is not a number")


def _check_total(weights: Iterable[float]) -> None:
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_EPS:
        raise NormalizationError(f"weights sum to {total!r}, not 1")


class ExactDist(Node):
    """Finite-support distribution over values, canonical by construction:
    every weight is positive, the support is strictly increasing by key,
    and the total is within ``WEIGHT_EPS`` of one.  ``ExactDist(entries)``
    checks this and raises ``NormalizationError`` otherwise; ``from_weights``
    and ``dirac`` build canonical entries and skip the check."""

    entries: tuple[tuple[Value, float], ...]

    def __init__(self, entries: Iterable[tuple[Value, float]]):
        # its own __init__, not Node's: the entries come from outside
        entries = tuple(entries)
        last = None
        for v, w in entries:
            if not w > 0:
                raise _bad_weight(v, w)
            if last is not None and not last.key < v.key:
                raise NormalizationError(f"support is not strictly increasing by key: {last!r} then {v!r}")
            last = v
        _check_total([w for _, w in entries])
        _setattr(self, "entries", entries)

    @classmethod
    def _canonical(cls, entries: tuple[tuple[Value, float], ...]) -> "ExactDist":
        """A distribution on ``entries`` that are already canonical, built
        without the check of ``__init__``."""
        d = object.__new__(cls)
        _setattr(d, "entries", entries)
        return d

    @classmethod
    def from_weights(cls, weights: Iterable[tuple[Value, float]] | Mapping[Value, float]) -> "ExactDist":
        """The one accumulator of weights: every operation that can give
        equal values passes its ``(value, weight)`` pairs, often a
        generator, straight here.  Equal values' weights are summed in the
        order given, starting from ``0.0``; zero weights are dropped, a
        weight that is not ``>= 0`` (negative or NaN) raises, the total
        must be within ``WEIGHT_EPS`` of one, and the support is sorted by
        key."""
        items = weights.items() if isinstance(weights, Mapping) else weights
        index: dict[Value, int] = {}  # each distinct value's place in sums
        sums: list[float] = []
        for v, w in items:
            if not w >= 0:
                raise _bad_weight(v, w)
            if w == 0.0:
                continue
            i = index.setdefault(v, len(sums))  # one probe per pair
            if i == len(sums):
                sums.append(w)  # 0.0 + w is w
            else:
                sums[i] += w
        _check_total(sums)
        return cls._canonical(tuple(sorted(zip(index, sums), key=_entry_key)))

    @classmethod
    def dirac(cls, x: Value) -> "ExactDist":
        return cls._canonical(((x, 1.0),))

    @property
    def support(self) -> tuple[Value, ...]:
        return tuple(v for v, _ in self.entries)

    def weight(self, x: Value) -> float:
        """The weight of ``x``, found by bisection: the entries are sorted
        by key, and keys are injective."""
        entries = self.entries
        i = bisect_left(entries, x.key, key=_entry_key)
        if i < len(entries) and entries[i][0] == x:
            return entries[i][1]
        return 0.0

    def map(self, g: Callable[[Value], Value]) -> "ExactDist":
        return ExactDist.from_weights((g(v), w) for v, w in self.entries)

    def bind(self, f: Callable[[Value], "ExactDist"]) -> "ExactDist":
        return ExactDist.from_weights((u, w * wu) for v, w in self.entries for u, wu in f(v).entries)

    def close_to(self, other: "ExactDist", eps: float = WEIGHT_EPS) -> bool:
        keys = {v for v, _ in self.entries} | {v for v, _ in other.entries}
        return all(abs(self.weight(v) - other.weight(v)) <= eps for v in keys)


def dirac(x: Value) -> ExactDist:
    return ExactDist.dirac(x)


def bind_exact(f: Callable[[Value], ExactDist], p: ExactDist) -> ExactDist:
    return p.bind(f)


def map_exact(g: Callable[[Value], Value], p: ExactDist) -> ExactDist:
    return p.map(g)


def strength_exact(x: Value, p: ExactDist) -> ExactDist:
    return p.map(lambda y: Tuple((x, y)))


# ---------------------------------------------------------------------------
# Samplers


class SamplerExpr(Node):
    pass


class Dirac(SamplerExpr):
    value: Value


class Bernoulli(SamplerExpr):
    """Draws Int 1 with probability p, else Int 0: the shared values
    ``BERNOULLI_ONE`` and ``BERNOULLI_ZERO``."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise EngineTypeError(f"bernoulli parameter {self.p!r} outside [0, 1]")


BERNOULLI_ZERO, BERNOULLI_ONE = Int(0), Int(1)


class Normal(SamplerExpr):
    mean: float
    stddev: float

    def __post_init__(self):
        if not (self.stddev > 0 and math.isfinite(self.stddev) and math.isfinite(self.mean)):
            raise EngineTypeError("normal needs a finite mean and a positive stddev")


class Poisson(SamplerExpr):
    rate: float

    def __post_init__(self):
        if not (self.rate >= 0 and math.isfinite(self.rate)):
            raise EngineTypeError(f"poisson rate {self.rate!r} must be finite and nonnegative")
        if self.rate > 2.5e305:  # poisson_draw calls math.lgamma near the rate; it overflows past 2.56e305
            raise EngineTypeError(f"poisson rate {self.rate!r} is past 2.5e305, the largest that can be drawn from")


class Categorical(SamplerExpr):
    dist: ExactDist


class Bind(SamplerExpr):
    inner: SamplerExpr
    fn: Callable[[Value], SamplerExpr]


class MapS(SamplerExpr):
    fn: Callable[[Value], Value]
    inner: SamplerExpr


def normal_pair(rng: _random.Random) -> tuple[float, float]:
    """Two independent standard normals from exactly two uniforms."""
    u1 = 1.0 - rng.random()  # (0, 1]: keeps the log finite
    u2 = rng.random()
    r = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    return r * math.cos(theta), r * math.sin(theta)


def poisson_draw(rate: float, rng: _random.Random) -> int:
    """Poisson sample; multiplicative inversion for small rates, transformed
    rejection for large ones.  Both consume the stream deterministically."""
    if rate <= 0.0:
        return 0
    if rate <= _POISSON_INVERSION_CUTOFF:
        limit = math.exp(-rate)
        k = 0
        p = 1.0
        while True:
            p *= rng.random()
            if p <= limit:
                return k
            k += 1
    # Transformed rejection with squeeze, stable for large rates.
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2.0)
    log_rate = math.log(rate)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + rate + 0.43)
        if us >= 0.07 and v <= vr:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        lhs = math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
        rhs = k * log_rate - rate - math.lgamma(k + 1.0)
        if lhs <= rhs:
            return int(k)


def draw_from(e: SamplerExpr, rng: _random.Random) -> Value:
    """One draw, consuming the given stream in a fixed order."""
    if isinstance(e, Dirac):
        return e.value
    if isinstance(e, Bernoulli):
        return BERNOULLI_ONE if rng.random() < e.p else BERNOULLI_ZERO
    if isinstance(e, Normal):
        z, _ = normal_pair(rng)
        return Real(e.mean + e.stddev * z)
    if isinstance(e, Poisson):
        return Int(poisson_draw(e.rate, rng))
    if isinstance(e, Categorical):
        u = rng.random()
        acc = 0.0
        for v, w in e.dist.entries:
            acc += w
            if u < acc:
                return v
        return e.dist.entries[-1][0]
    if isinstance(e, Bind):
        x = draw_from(e.inner, rng)
        return draw_from(e.fn(x), rng)
    if isinstance(e, MapS):
        return e.fn(draw_from(e.inner, rng))
    raise EngineTypeError(f"unknown sampler {e!r}")


def sample(e: SamplerExpr, seed: Seed) -> Value:
    return draw_from(e, seed.rng())


def exact_of(e: SamplerExpr) -> ExactDist:
    """Enumerate a discrete sampler exactly; continuous or unbounded
    primitives have no finite support and raise NotFiniteError."""
    if isinstance(e, Dirac):
        return ExactDist.dirac(e.value)
    if isinstance(e, Bernoulli):
        return ExactDist.from_weights({BERNOULLI_ZERO: 1.0 - e.p, BERNOULLI_ONE: e.p})
    if isinstance(e, Normal):
        raise NotFiniteError("normal has uncountable support; use the mc backend")
    if isinstance(e, Poisson):
        raise NotFiniteError("poisson has unbounded support; use the mc backend")
    if isinstance(e, Categorical):
        return e.dist
    if isinstance(e, Bind):
        return exact_of(e.inner).bind(lambda x: exact_of(e.fn(x)))
    if isinstance(e, MapS):
        return exact_of(e.inner).map(e.fn)
    raise EngineTypeError(f"unknown sampler {e!r}")


# ---------------------------------------------------------------------------
# Pushforward


def pushforward(q: Query, worlds: Iterable[Bag], table: str = "db") -> Iterator[Value]:
    """The query's result in each world, in order, computed as the world
    arrives.  A failure in world i raises ``WorldEvalError`` naming i."""
    from .algebra import eval_query

    for i, world in enumerate(worlds):
        try:
            yield eval_query(q, {table: world})
        except EngineError as e:
            raise WorldEvalError(BagV(world), e, i) from e


def _world_bag(v: Value, message: str) -> Bag:
    if not isinstance(v, BagV):
        raise EngineTypeError(message)
    return v.bag


def pushforward_exact(q: Query, d: ExactDist, table: str = "db") -> ExactDist:
    """Transport an exact distribution over database bags through a query."""
    worlds = (_world_bag(v, "pushforward needs a distribution over bags") for v, _ in d.entries)
    return ExactDist.from_weights((r, w) for r, (_, w) in zip(pushforward(q, worlds, table), d.entries))


def pushforward_mc(
    q: Query,
    sampler,
    n: int,
    seed: Optional[Seed] = None,
    table: str = "db",
) -> list[Value]:
    """Apply a query to n sampled worlds, in sample-index order.

    ``sampler`` is either a SamplerExpr producing BagV values (sample i
    drawn under seed.child(i)) or any object with a ``world(index)``
    method that carries its own seed.
    """
    if isinstance(sampler, SamplerExpr):
        if seed is None:
            raise EngineTypeError("sampling a SamplerExpr needs a seed")

        def world_at(i: int) -> Bag:
            return _world_bag(sample(sampler, seed.child(i)), "world sampler must produce bags")

    elif hasattr(sampler, "world"):
        world_at = sampler.world
    else:
        raise EngineTypeError("sampler must be a SamplerExpr or have a world(index) method")

    return list(pushforward(q, map(world_at, range(n)), table))
