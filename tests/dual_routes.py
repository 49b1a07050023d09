"""Second routes to engine operations, for cross-checking only.

Each function restates an operation of ``bagdb`` another way, most as an
explicit fold over the bag monoid, and the tests check that both routes
agree.  They are slower than the engine's own routes and nothing in
``bagdb`` calls them.
"""
from __future__ import annotations

import hashlib
import random
from itertools import product as iproduct
from math import prod
from typing import Callable, Iterable

from bagdb.algebra import Query, tuple_parts
from bagdb.bags import EMPTY, HASH_MOD, Bag, unit
from bagdb.errors import EngineTypeError
from bagdb.pbmonad import ConstT, Rule, SimpleTerm, _no_fields
from bagdb.prob import ExactDist, pushforward, reseed
from bagdb.values import BagV, Tagged, Value, cmp_holds


def uplus_by_fold(b1: Bag, b2: Bag) -> Bag:
    """Multiset sum written as the fold of single insertions
    (``Bag.uplus``)."""
    return b1.fold(lambda x, acc: acc.add(x), b2)


def difference_by_fold(b1: Bag, b2: Bag) -> Bag:
    """Difference as the fold of single removals over the subtrahend
    (``algebra.q_difference``)."""
    return b2.fold(lambda x, acc: acc.remove(x), b1)


def powerbag_by_fold(b: Bag) -> Bag:
    """Powerbag as a fold: each element doubles the accumulator, adding
    itself to the copy (``algebra.q_powerbag``)."""

    def acc(x: Value, b0: Bag) -> Bag:
        return b0.uplus(b0.map(lambda s: BagV(s.bag.add(x))))  # type: ignore[union-attr]

    return b.fold(acc, unit(BagV(EMPTY)))


def dedup_by_fold(b: Bag) -> Bag:
    """Dedup as a fold: insert x after filtering existing copies out
    (``algebra.q_dedup``)."""

    def acc(x: Value, bb: Bag) -> Bag:
        filtered = Bag(tuple(e for e in bb.elements if e != x))
        return filtered.add(x)

    return b.fold(acc, EMPTY)


def hash_from_scratch(v: Value | Bag) -> int:
    """The hash of a value or bag computed without reading any stored
    hash: a bag's, and a ``BagV``'s, is the sum of its elements' modulo
    ``HASH_MOD`` (``Bag.__hash__``), and any other value's is the square
    of its key's modulo ``HASH_MOD`` (``Value.__hash__``)."""
    if isinstance(v, BagV):
        v = v.bag
    if isinstance(v, Bag):
        return sum(map(hash_from_scratch, v.elements)) % HASH_MOD
    return pow(hash(v.key), 2, HASH_MOD)


def distr_by_fold(dists: Iterable[ExactDist]) -> ExactDist:
    """``pbmonad.distr_exact`` written as a fold: each step pairs every
    outcome of one distribution with every accumulated bag and adds it."""
    acc = ExactDist.dirac(BagV(EMPTY))
    for p in reversed(list(dists)):
        acc = p.bind(lambda x: acc.map(lambda bv: BagV(bv.bag.add(x))))  # type: ignore[union-attr]
    return acc


# Each exact operation as it summed the weights of equal values before
# ``ExactDist.from_weights`` did it alone: into its own dict, in the order
# of its loops, which it then handed to ``from_weights``.


def distr_by_dict(dists: Iterable[ExactDist]) -> ExactDist:
    """``pbmonad.distr_exact``: every combination of one outcome per
    distribution, as ``Bag.of`` its outcomes, weighing the product of
    theirs, multiplied left to right from 1.0."""
    out: dict[Value, float] = {}
    for combo in iproduct(*[p.entries for p in dists]):
        bv = BagV(Bag.of([x for x, _ in combo]))
        out[bv] = out.get(bv, 0.0) + prod([w for _, w in combo], start=1.0)
    return ExactDist.from_weights(out)


def pb_bind_by_dict(f: Callable[[Value], ExactDist], m: ExactDist) -> ExactDist:
    """``pbmonad.pb_bind``."""
    out: dict[Value, float] = {}
    for bv, pw in m.entries:
        if not isinstance(bv, BagV):
            raise EngineTypeError("pb_bind needs a distribution over bags")
        per_world = distr_by_dict([f(x) for x in bv.bag])
        flattened = per_world.map(lambda b: BagV(b.bag.flatten()))  # type: ignore[union-attr]
        for o, po in flattened.entries:
            out[o] = out.get(o, 0.0) + pw * po
    return ExactDist.from_weights(out)


def pb_uplus_by_dict(m1: ExactDist, m2: ExactDist) -> ExactDist:
    """``pbmonad.pb_uplus``."""
    out: dict[Value, float] = {}
    for a, wa in m1.entries:
        for b, wb in m2.entries:
            if not isinstance(a, BagV) or not isinstance(b, BagV):
                raise EngineTypeError("pb_uplus needs distributions over bags")
            key = BagV(a.bag.uplus(b.bag))
            out[key] = out.get(key, 0.0) + wa * wb
    return ExactDist.from_weights(out)


def bind_by_dict(f: Callable[[Value], ExactDist], p: ExactDist) -> ExactDist:
    """``ExactDist.bind``."""
    out: dict[Value, float] = {}
    for v, w in p.entries:
        for u, wu in f(v).entries:
            out[u] = out.get(u, 0.0) + w * wu
    return ExactDist.from_weights(out)


def pushforward_exact_by_dict(q: Query, d: ExactDist, table: str = "db") -> ExactDist:
    """``prob.pushforward_exact``: every world's result is computed before
    any weight is summed."""

    def world_bag(v: Value) -> Bag:
        if not isinstance(v, BagV):
            raise EngineTypeError("pushforward needs a distribution over bags")
        return v.bag

    out: dict[Value, float] = {}
    for r, (_, w) in zip(pushforward(q, (world_bag(v) for v, _ in d.entries), table), d.entries):
        out[r] = out.get(r, 0.0) + w
    return ExactDist.from_weights(out)


def naive_matches(rule: Rule, bag: Bag) -> list[dict[str, Value]]:
    """``pbmonad.rule_matches`` as a nested-loop join: every body
    instantiation against a world, in canonical order (rows per atom in
    bag order, earlier atoms vary slowest), whose guards hold."""
    by_tag: dict[str, list[Value]] = {}
    for v in bag:
        if isinstance(v, Tagged):
            by_tag.setdefault(v.tag, []).append(v.value)
    envs: list[dict[str, Value]] = [{}]
    for atom in rule.atoms:
        rows = by_tag.get(atom.tag, [])
        fields = tuple_parts if atom.args else _no_fields
        nxt: list[dict[str, Value]] = []
        for env in envs:
            for payload in rows:
                parts = fields(payload)
                if len(parts) != len(atom.args):
                    continue
                env2 = dict(env)
                ok = True
                for arg, val in zip(atom.args, parts):
                    if isinstance(arg, ConstT):
                        if arg.value != val:
                            ok = False
                            break
                    else:
                        bound = env2.get(arg.name)
                        if bound is None:
                            env2[arg.name] = val
                        elif bound != val:
                            ok = False
                            break
                if ok:
                    nxt.append(env2)
        envs = nxt
    return [env for env in envs
            if all(cmp_holds(g.op, resolve(g.left, env), resolve(g.right, env)) for g in rule.guards)]


def resolve(t: SimpleTerm, env: dict[str, Value]) -> Value:
    """A rule term's value in a named env: its constant or its variable's."""
    return t.value if isinstance(t, ConstT) else env[t.name]


def child_rng(prefix: "hashlib._Hash", index: int) -> random.Random:
    """``seed.child(index).rng()`` given ``prefix = seed.hasher()``: a new
    ``random.Random`` that ``prob.reseed`` points at the child's stream
    (``Seed.rng``)."""
    return reseed(random.Random(0), prefix, index)
