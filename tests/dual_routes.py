"""Second routes to engine operations, for cross-checking only.

Each function restates an operation of ``bagdb`` another way, most as an
explicit fold over the bag monoid, and the tests check that both routes
agree.  They are slower than the engine's own routes and nothing in
``bagdb`` calls them.
"""
from __future__ import annotations

import hashlib
import random
from typing import Iterable

from bagdb.bags import EMPTY, Bag, unit
from bagdb.pbmonad import Rule, _RulePlan
from bagdb.prob import ExactDist, reseed
from bagdb.values import BagV, Value


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


def distr_by_fold(dists: Iterable[ExactDist]) -> ExactDist:
    """``pbmonad.distr_exact`` written as a fold: each step pairs every
    outcome of one distribution with every accumulated bag and adds it."""
    acc = ExactDist.dirac(BagV(EMPTY))
    for p in reversed(list(dists)):
        acc = p.bind(lambda x: acc.map(lambda bv: BagV(bv.bag.add(x))))  # type: ignore[union-attr]
    return acc


def indexed_matches(rule: Rule, bag: Bag) -> list[dict[str, Value]]:
    """``pbmonad.rule_matches`` computed the compiled way, through the
    order-keeping hash indexes of a rule plan: the same envs in the same
    order."""
    return [m.env for m in _RulePlan(0, rule, set(), set()).matches(bag)]


def child_rng(prefix: "hashlib._Hash", index: int) -> random.Random:
    """``seed.child(index).rng()`` given ``prefix = seed.hasher()``: a new
    ``random.Random`` that ``prob.reseed`` points at the child's stream
    (``Seed.rng``)."""
    return reseed(random.Random(0), prefix, index)
