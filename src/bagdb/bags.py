"""Canonical finite multisets and the structure that makes them useful:
the commutative monoid (uplus, EMPTY), the right fold over that monoid,
and unit/map/bind/flatten/strength.

A Bag stores its elements as a tuple sorted in the canonical value order,
so equal bags are equal tuples and every operation that returns a Bag
returns a canonical one.  Construct through ``Bag.of``; a sum of bags is
``Bag.of`` of their concatenation, whose stable sort places each added
element after the elements equal to it.  A bag is frozen and slotted,
like a value, and its constructor sets its ``key``, the tuple of its
elements' keys: built from the elements, or passed in by a caller that
already has it (``payload_run``, ``pbmonad``'s mc world,
``algebra.q_select``).  A bag's hash is a multiset hash: the sum of its
elements' hashes modulo ``HASH_MOD`` (Clarke, Devadas, van Dijk, Gassend
and Suh, "Incremental Multiset Hash Functions", ASIACRYPT 2003).  A
caller that adds values to a bag whose hash it knows has the new bag's
hash by addition and builds it with that hash (``pbmonad``'s exact step,
through ``trusted_bagv``); any other bag computes its hash on the first
``hash`` and stores it.  Only this module and ``values`` know that every
Tagged key is ``(6, tag, payload key)`` and every BagV key starts with
7: a payload key's rank is at most 7, so a bag's rows of one tag are the
one run of its elements whose keys lie in ``[(6, tag), (6, tag, (8,)))``.
Bisection on the plain keys finds that run's rows (``tag_rows``), and the
place where rows of that tag are added (``plus_run``): both backends of
``pbmonad`` step a world, one canonical bag, by adding each rule's heads
to their tag's run, with no other element moved.  ``trusted_bagv`` builds
a world of ``pbmonad``'s exact step, a BagV and its Bag, by setting their
slots directly: the caller vouches for the order, the keys and the hash
sum, and nothing is checked.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import attrgetter, le
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .errors import EngineTypeError
from .node import Frozen, _setattr
from .values import HASH_MOD, BagV, Tuple, Value

A = TypeVar("A")

_KEY = attrgetter("key")


class Bag(Frozen):
    __slots__ = ("elements", "key", "_hash", "__weakref__")

    def __init__(self, elements: tuple[Value, ...], key: Optional[tuple] = None):
        # ``key``, if given, must be the elements' keys
        _setattr(self, "elements", elements)
        _setattr(self, "key", tuple(map(_KEY, elements)) if key is None else key)
        _setattr(self, "_hash", None)

    @classmethod
    def of(cls, items: Iterable[Value]) -> "Bag":
        return cls(tuple(sorted(items, key=_KEY)))

    def __reduce__(self) -> tuple:
        # the elements only: a str's hash depends on the interpreter's
        # PYTHONHASHSEED, so the stored hash must not travel to another process
        return Bag, (self.elements,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = sum(map(hash, self.elements)) % HASH_MOD
            _setattr(self, "_hash", h)
        return h

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"Bag.of({list(self.elements)!r})"

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def count(self, x: Value) -> int:
        """Multiplicity of ``x``."""
        k = x.key
        return bisect_right(self.key, k) - bisect_left(self.key, k)

    def payload_run(self, tag: str) -> "Bag":
        """The payloads of the rows tagged ``tag``.  Those rows' keys are
        ``(6, tag, payload key)``, so the payloads come out in key order."""
        rows = tag_rows(self, tag)
        return Bag(tuple([row.value for row in rows]),  # type: ignore[attr-defined]
                   tuple([row.key[2] for row in rows]))

    def add(self, x: Value) -> "Bag":
        """Insert one copy of ``x``, keeping the canonical order."""
        return Bag.of(self.elements + (x,))

    def remove(self, x: Value) -> "Bag":
        """Drop one copy of ``x`` if present, else return self unchanged."""
        i = bisect_left(self.key, x.key)
        if i < len(self.elements) and self.elements[i] == x:
            return Bag(self.elements[:i] + self.elements[i + 1:])
        return self

    def fold(self, f: Callable[[Value, A], A], init: A) -> A:
        """Right fold: f(x1, f(x2, ... f(xn, init))). ``f`` must be a
        commutative accumulator for the result to be well defined."""
        acc = init
        for x in reversed(self.elements):
            acc = f(x, acc)
        return acc

    def uplus(self, other: "Bag") -> "Bag":
        """Multiset sum; multiplicities add."""
        return Bag.of(self.elements + other.elements)

    def map(self, f: Callable[[Value], Value]) -> "Bag":
        return Bag.of(f(x) for x in self.elements)

    def bind(self, f: Callable[[Value], "Bag"]) -> "Bag":
        out: list[Value] = []
        for x in self.elements:
            r = f(x)
            if not isinstance(r, Bag):
                raise EngineTypeError("bind expects the function to return a Bag")
            out.extend(r.elements)
        return Bag.of(out)

    def flatten(self) -> "Bag":
        """Union a bag of bags; every element must be a BagV."""
        out: list[Value] = []
        for e in self.elements:
            if not isinstance(e, BagV):
                raise EngineTypeError("flatten expects a bag of bags")
            out.extend(e.bag.elements)
        return Bag.of(out)


EMPTY = Bag(())

_new = object.__new__
_set_elements, _set_key, _set_hash = Bag.elements.__set__, Bag.key.__set__, Bag._hash.__set__  # type: ignore[attr-defined]
_set_bag, _set_bagv_key = BagV.bag.__set__, BagV.key.__set__  # type: ignore[attr-defined]


def trusted_bagv(elements: tuple[Value, ...], key: tuple, hash_sum: int) -> BagV:
    """``BagV(Bag(elements, key))`` with its hash already stored, built by
    setting both objects' slots directly: no ``__init__`` runs, so there is
    no type check and no lazy import.  The caller guarantees what the
    constructors would otherwise compute or trust: ``elements`` are in
    canonical order, ``key`` holds their keys, and ``hash_sum`` is the sum
    of their hashes, reduced modulo ``HASH_MOD`` or not."""
    bag = _new(Bag)
    _set_elements(bag, elements)
    _set_key(bag, key)
    _set_hash(bag, hash_sum % HASH_MOD)
    bv = _new(BagV)
    _set_bag(bv, bag)
    _set_bagv_key(bv, (7, key))
    return bv


def tag_rows(bag: Bag, tag: str) -> tuple[Value, ...]:
    """A bag's rows of one tag, in bag order: every Tagged key is
    ``(6, tag, payload key)``, and a payload key starts with its rank, at
    most 7, so they are the one run of elements whose keys lie in
    ``[(6, tag), (6, tag, (8,)))``."""
    keys = bag.key
    lo = bisect_left(keys, (6, tag))
    return bag.elements[lo:bisect_left(keys, (6, tag, (8,)), lo)]


def plus_run(bag: Bag, tag: str, rows: Sequence[Value]) -> tuple[tuple[Value, ...], tuple]:
    """The elements and keys of ``bag`` plus ``rows``, which all carry
    ``tag``: they go into the bag's one run of that tag (``tag_rows``).
    When the run is empty and the rows come in key order, they are placed
    as they are; otherwise the run is sorted with them, stably, so that a
    row of the bag goes before an equal new row, as ``Bag.of`` places it."""
    elements, keys = bag.elements, bag.key
    end = (6, tag, (8,))
    lo = bisect_left(keys, (6, tag))
    rkeys = [x.key for x in rows]
    if (lo == len(keys) or keys[lo] > end) and all(map(le, rkeys, rkeys[1:])):
        return elements[:lo] + tuple(rows) + elements[lo:], keys[:lo] + tuple(rkeys) + keys[lo:]
    hi = bisect_left(keys, end, lo)
    run = tuple(sorted(elements[lo:hi] + tuple(rows), key=_KEY))
    return elements[:lo] + run + elements[hi:], keys[:lo] + tuple(map(_KEY, run)) + keys[hi:]


def unit(x: Value) -> Bag:
    """The singleton bag."""
    return Bag((x,))


def strength(x: Value, b: Bag) -> Bag:
    """Pair a constant with every element: {|(x, y) : y in b|}."""
    return Bag.of(Tuple((x, y)) for y in b)


def free_extend(
    f: Callable[[Value], A],
    combine: Callable[[A, A], A],
    identity: A,
    b: Bag,
) -> A:
    """Unique monoid homomorphism out of the free commutative monoid:
    maps each element through ``f`` and combines in the target monoid."""
    return b.fold(lambda x, acc: combine(f(x), acc), identity)


def counts(b: Bag) -> list[tuple[Value, int]]:
    """Distinct elements in canonical order with their multiplicities."""
    return [(k, len(list(g))) for k, g in groupby(b.elements)]
