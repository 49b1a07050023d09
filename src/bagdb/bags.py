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
``algebra.q_select``).  Only this module and ``values`` know that every
Tagged key starts with ``(6, tag)``: a bag's rows of one tag are one
contiguous run of its elements (``tag_span``).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .errors import EngineTypeError
from .node import Frozen, _setattr
from .values import BagV, Tuple, Value

A = TypeVar("A")

_KEY = attrgetter("key")
_TAG_PREFIX = itemgetter(slice(0, 2))


class Bag(Frozen):
    __slots__ = ("elements", "key", "__weakref__")

    def __init__(self, elements: tuple[Value, ...], key: Optional[tuple] = None):
        # ``key``, if given, must be the elements' keys
        _setattr(self, "elements", elements)
        _setattr(self, "key", tuple(map(_KEY, elements)) if key is None else key)

    @classmethod
    def of(cls, items: Iterable[Value]) -> "Bag":
        return cls(tuple(sorted(items, key=_KEY)))

    def __reduce__(self) -> tuple:
        return Bag, (self.elements,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

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
        span = tag_span(self, tag)
        return Bag(tuple([row.value for row in self.elements[span]]),  # type: ignore[attr-defined]
                   tuple([k[2] for k in self.key[span]]))

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


def tag_span(bag: Bag, tag: str) -> slice:
    """Where a bag's rows of one tag lie in its elements: every Tagged key
    is ``(6, tag, payload key)``, so they form one run, in bag order."""
    keys = bag.key
    lo = bisect_left(keys, (6, tag), key=_TAG_PREFIX)
    return slice(lo, bisect_right(keys, (6, tag), lo, key=_TAG_PREFIX))


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
