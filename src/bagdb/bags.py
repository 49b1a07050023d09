"""Canonical finite multisets and the structure that makes them useful:
the commutative monoid (uplus, EMPTY), the right fold over that monoid,
and unit/map/bind/flatten/strength.

A Bag stores its elements as a tuple sorted in the canonical value order,
so equal bags are equal tuples and every operation that returns a Bag
returns a canonical one.  Construct through ``Bag.of``, and add elements
to a bag through ``Bag.merged``, which places them without re-sorting it.
A bag is frozen and slotted, like a value, and its constructor sets its
``key``, the tuple of its elements' keys: built from the elements, or
passed in by a caller that already has it (``merged``, ``payload_run``,
``tag_runs``, ``pbmonad``'s mc world, ``algebra.q_select``).  A bag's
hash is a multiset hash: the sum of its elements' hashes modulo
``HASH_MOD`` (Clarke, Devadas, van Dijk, Gassend and Suh, "Incremental
Multiset Hash Functions", ASIACRYPT 2003).  A caller that adds values to
a bag whose hash it knows has the new bag's hash by addition and passes
it to the constructor (``pbmonad``'s exact step); any other bag computes
its hash on the first ``hash`` and stores it.  Only this module and
``values`` know that every Tagged key starts with ``(6, tag)``: a bag's
rows of one tag are one contiguous run of its elements (``tag_rows``),
and a bag splits into its elements before its tagged rows, one run per
tag and its elements after them (``tag_runs``); and that every BagV key
starts with 7 and every other value's hash is the square of its key's
modulo ``HASH_MOD``, so that a bag hashes its elements' keys in C and calls
only its BagVs' ``__hash__``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import attrgetter, itemgetter, mul
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .errors import EngineTypeError
from .node import Frozen, _setattr
from .values import HASH_MOD, BagV, Tuple, Value

A = TypeVar("A")

_KEY = attrgetter("key")
_TAG_PREFIX = itemgetter(slice(0, 2))


class Bag(Frozen):
    __slots__ = ("elements", "key", "_hash", "__weakref__")

    def __init__(self, elements: tuple[Value, ...], key: Optional[tuple] = None,
                 hash_sum: Optional[int] = None):
        # ``key``, if given, must be the elements' keys, and ``hash_sum``
        # the sum of their hashes, reduced or not
        _setattr(self, "elements", elements)
        _setattr(self, "key", tuple(map(_KEY, elements)) if key is None else key)
        _setattr(self, "_hash", None if hash_sum is None else hash_sum % HASH_MOD)

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
            # every element's hash but a BagV's is its key's squared, and the
            # BagVs, whose keys start with 7, come last
            keys = self.key
            i = bisect_left(keys, (7,))
            hs = list(map(hash, keys[:i]))
            h = (sum(map(mul, hs, hs)) + sum(map(hash, self.elements[i:]))) % HASH_MOD
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

    def merged(self, items: Iterable[Value]) -> "Bag":
        """``Bag.of([*self, *items])`` without re-sorting self: the items,
        sorted by key, are spliced in after the elements equal to them, as
        the stable sort would place them, and the new bag's key is spliced
        from this one's."""
        new = sorted(items, key=_KEY)
        if not new:
            return self
        elements, keys = self.elements, self.key
        if not keys or not new[0].key < keys[-1]:  # every item goes after self's elements
            return Bag(elements + tuple(new), keys + tuple(map(_KEY, new)))
        n = len(keys)
        elems: list[Value] = []
        ks: list[tuple] = []
        start = 0  # self's elements before it are placed
        for x in new:
            k = x.key
            if start < n and not k < keys[start]:  # else x goes at start: no bisect
                pos = bisect_right(keys, k, start + 1)
                elems += elements[start:pos]
                ks += keys[start:pos]
                start = pos
            elems.append(x)
            ks.append(k)
        elems += elements[start:]
        ks += keys[start:]
        return Bag(tuple(elems), tuple(ks))

    def payload_run(self, tag: str) -> "Bag":
        """The payloads of the rows tagged ``tag``.  Those rows' keys are
        ``(6, tag, payload key)``, so the payloads come out in key order."""
        rows = tag_rows(self, tag)
        return Bag(tuple([row.value for row in rows]),  # type: ignore[attr-defined]
                   tuple([row.key[2] for row in rows]))

    def add(self, x: Value) -> "Bag":
        """Insert one copy of ``x``, keeping the canonical order."""
        return self.merged((x,))

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
        return self.merged(other.elements)

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


def tag_rows(bag: Bag, tag: str) -> tuple[Value, ...]:
    """A bag's rows of one tag, in bag order: every Tagged key is
    ``(6, tag, payload key)``, so they form one run of its elements."""
    keys = bag.key
    lo = bisect_left(keys, (6, tag), key=_TAG_PREFIX)
    return bag.elements[lo:bisect_right(keys, (6, tag), lo, key=_TAG_PREFIX)]


def tag_runs(bag: Bag) -> tuple[Bag, dict[str, Bag], Bag]:
    """A bag split at its tagged rows: its elements before them, one run
    per tag, in tag order, and its elements after them, the BagVs.  The
    three, runs in tag order, concatenate back to the bag."""
    elements, keys = bag.elements, bag.key
    start, end = bisect_left(keys, (6,)), bisect_left(keys, (7,))
    runs: dict[str, Bag] = {}
    lo = start
    while lo < end:
        tag = keys[lo][1]
        hi = bisect_right(keys, (6, tag), lo, end, key=_TAG_PREFIX)
        runs[tag] = Bag(elements[lo:hi], keys[lo:hi])
        lo = hi
    return Bag(elements[:start], keys[:start]), runs, Bag(elements[end:], keys[end:])


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
