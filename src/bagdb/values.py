"""Data values, their canonical total order, schemas, and the JSON codec.

Every value the engine touches is one of eight variants below.  The total
order is what makes bags canonical: cross-variant comparisons go by a fixed
variant rank (Int < Real < Bool < Str < Unit < Tuple < Tagged < BagV), and
only same-variant values compare by content.  Each value exposes an
injective ``key`` tuple so sorting and equality can use native tuple
comparison instead of a comparator callback.  A value is frozen, and its
fields are its class's own ``__slots__``.  Its ``__init__`` sets ``key``
from them (a ``BagV`` from its bag's key, which the bag's constructor
set), and its hash, the square of ``hash(key)`` modulo ``HASH_MOD``, is
stored on the first ``hash``.  Both are ``Value`` slots, not fields, so
``==``, order, ``repr``, pickling and the codec never see them.  A bag
hashes through its elements' ``__hash__``: its hash is the sum of theirs
(see ``bags``), so only this module knows how a value hashes.  CPython's
tuple hash is close to additive in one field that changes: summed as
they are, the key hashes of two bags that swap a field's values between
two rows would often be equal, and their squares are not.  A ``BagV``
stores no hash of its own: its hash is its bag's multiset hash, which
the bag stores.
"""
from __future__ import annotations

import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str
from operator import eq, ge, gt, le, lt, ne
from typing import Any, Callable, Mapping, Optional, Sequence

from .errors import EngineTypeError, ParseError, SchemaError
from .node import Frozen, Node, _setattr

# A Mersenne prime, the modulus of CPython's own numeric hashes: a number
# reduced by it is a valid hash, which ``hash`` returns unchanged.
HASH_MOD = 2**61 - 1

_TAG_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Value(Frozen):
    """Base class; comparison and hashing are shared via ``key``."""

    __slots__ = ("key", "_hash", "__weakref__")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self.key == other.key

    def __lt__(self, other: "Value") -> bool:
        return self.key < other.key

    def __le__(self, other: "Value") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "Value") -> bool:
        return self.key > other.key

    def __ge__(self, other: "Value") -> bool:
        return self.key >= other.key

    def __hash__(self) -> int:
        # a try, not a fallback for missing attributes, which would keep
        # CPython 3.11 from specialising every attribute read of every
        # value; every variant's __init__ has set the key
        try:
            return self._hash
        except AttributeError:  # the first hash
            h = hash(self.key) ** 2 % HASH_MOD
            _setattr(self, "_hash", h)
            return h

    def __reduce__(self) -> tuple:
        # the fields only: a str's hash depends on the interpreter's
        # PYTHONHASHSEED, so the stored hash must not travel to another process
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


def compare(a: Value, b: Value) -> int:
    """Three-way comparison in the canonical order: -1, 0 or 1."""
    ka, kb = a.key, b.key
    return (ka > kb) - (ka < kb)


class Int(Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        if type(value) is not int:
            raise EngineTypeError(f"Int expects a Python int, got {type(value).__name__}")
        _setattr(self, "value", value)
        _setattr(self, "key", (0, value))

    def __repr__(self) -> str:
        try:
            return f"Int({self.value})"
        except ValueError:  # longer than the interpreter converts to text
            return f"Int(<{self.value.bit_length()}-bit integer>)"


class Real(Value):
    __slots__ = ("value",)

    def __init__(self, value: float):
        if type(value) is int:
            value = float(value)
        elif type(value) is not float:
            raise EngineTypeError(f"Real expects a Python float, got {type(value).__name__}")
        if math.isnan(value):
            raise EngineTypeError("Real cannot hold NaN")
        _setattr(self, "value", value)
        # Sign bit breaks the -0.0 == 0.0 tie so the order stays injective.
        _setattr(self, "key", (1, value, 0 if math.copysign(1.0, value) < 0 else 1))

    def __repr__(self) -> str:
        return f"Real({self.value!r})"


class Bool(Value):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        if type(value) is not bool:
            raise EngineTypeError(f"Bool expects a Python bool, got {type(value).__name__}")
        _setattr(self, "value", value)
        _setattr(self, "key", (2, value))

    def __repr__(self) -> str:
        return f"Bool({self.value})"


class Str(Value):
    __slots__ = ("value",)

    def __init__(self, value: str):
        if type(value) is not str:
            raise EngineTypeError(f"Str expects a Python str, got {type(value).__name__}")
        _setattr(self, "value", value)
        _setattr(self, "key", (3, value))

    def __repr__(self) -> str:
        return f"Str({self.value!r})"


class Unit(Value):
    __slots__ = ()

    def __init__(self):
        _setattr(self, "key", (4,))

    def __repr__(self) -> str:
        return "Unit()"


UNIT = Unit()


class Tuple(Value):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Value]):
        items = tuple(items)
        for it in items:
            if not isinstance(it, Value):
                raise EngineTypeError(f"Tuple items must be values, got {type(it).__name__}")
        _setattr(self, "items", items)
        _setattr(self, "key", (5, tuple([it.key for it in items])))

    def __repr__(self) -> str:
        return f"Tuple({list(self.items)!r})"


class Tagged(Value):
    __slots__ = ("tag", "value")

    def __init__(self, tag: str, value: Value):
        if not (type(tag) is str and _TAG_RE.match(tag)):
            raise EngineTypeError(f"invalid tag: {tag!r}")
        if not isinstance(value, Value):
            raise EngineTypeError("Tagged payload must be a value")
        _setattr(self, "tag", tag)
        _setattr(self, "value", value)
        _setattr(self, "key", (6, tag, value.key))

    def __repr__(self) -> str:
        return f"Tagged({self.tag!r}, {self.value!r})"


def tagged(tag: str, fields: Sequence[Value]) -> Tagged:
    """The tagged row ``tag(f1, ...)``: no fields give a Unit payload, one
    field is the payload itself, and more fields form a Tuple."""
    if not fields:
        return Tagged(tag, UNIT)
    if len(fields) == 1:
        return Tagged(tag, fields[0])
    return Tagged(tag, Tuple(tuple(fields)))


_Bag: Any = None  # bags.Bag, once the first BagV is built


class BagV(Value):
    """A bag as a first-class value (rows of nested relations, group results)."""

    __slots__ = ("bag",)

    def __init__(self, bag: Any):  # a bags.Bag; typed loosely to avoid a circular import
        global _Bag
        if _Bag is None:  # bound on first use: bags.py imports this module
            from .bags import Bag as _Bag
        if not isinstance(bag, _Bag):
            raise EngineTypeError("BagV expects a Bag")
        _setattr(self, "bag", bag)
        _setattr(self, "key", (7, bag.key))

    def __hash__(self) -> int:
        h = self.bag._hash  # read here: one call less for each hash the bag has stored
        return self.bag.__hash__() if h is None else h

    def __repr__(self) -> str:
        return f"BagV({list(self.bag.elements)!r})"


# ---------------------------------------------------------------------------
# Rows and comparisons, shared by the query algebra and rule guards

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

_NUMBERS = (Int, Real)


def tuple_parts(row: Value) -> tuple[Value, ...]:
    """Fields of a row; non-tuple rows have exactly one field."""
    if isinstance(row, Tuple):
        return row.items
    return (row,)


def _comparison(test: Callable[[object, object], bool]) -> Callable[[Value, Value], bool]:
    def holds(a: Value, b: Value) -> bool:
        if isinstance(a, _NUMBERS) and isinstance(b, _NUMBERS):
            return test(a.value, b.value)  # numbers by magnitude across Int/Real
        return test(a.key, b.key)  # everything else in the canonical order

    return holds


_COMPARISONS = dict(zip(CMP_OPS, map(_comparison, (eq, ne, lt, le, gt, ge))))


def cmp_holds(op: str, a: Value, b: Value) -> bool:
    """Whether ``a op b`` holds.  Numbers compare by magnitude across Int
    and Real; all other values in the canonical order of ``compare``.  The
    compiled ``Cmp`` of ``algebra`` binds the same per-operator test once;
    rule guards call this directly."""
    holds = _COMPARISONS.get(op)
    if holds is None:
        raise EngineTypeError(f"unknown comparison {op!r}")
    return holds(a, b)


# ---------------------------------------------------------------------------
# Schemas


class Schema(Node):
    """Base class for structural types; all concrete schemas are frozen."""


class IntT(Schema):
    pass


class RealT(Schema):
    pass


class BoolT(Schema):
    pass


class StrT(Schema):
    pass


class UnitT(Schema):
    pass


class TupleT(Schema):
    items: tuple[Schema, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


class TaggedT(Schema):
    """Sum type: maps each admissible tag to its payload schema."""

    variants: tuple[tuple[str, Schema], ...]

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(sorted(self.variants)))

    @classmethod
    def of(cls, mapping: Mapping[str, Schema]) -> "TaggedT":
        return cls(tuple(sorted(mapping.items())))

    def get(self, tag: str) -> Optional[Schema]:
        for t, s in self.variants:
            if t == tag:
                return s
        return None


class BagT(Schema):
    """Bag type; ``elem=None`` means the element type is unconstrained,
    which only happens for bags that are provably empty."""

    elem: Optional[Schema]


def typecheck(v: Value, s: Schema) -> bool:
    """Does value ``v`` inhabit schema ``s``?"""
    if isinstance(s, IntT):
        return isinstance(v, Int)
    if isinstance(s, RealT):
        return isinstance(v, Real)
    if isinstance(s, BoolT):
        return isinstance(v, Bool)
    if isinstance(s, StrT):
        return isinstance(v, Str)
    if isinstance(s, UnitT):
        return isinstance(v, Unit)
    if isinstance(s, TupleT):
        return (
            isinstance(v, Tuple)
            and len(v.items) == len(s.items)
            and all(typecheck(it, st) for it, st in zip(v.items, s.items))
        )
    if isinstance(s, TaggedT):
        if not isinstance(v, Tagged):
            return False
        payload = s.get(v.tag)
        return payload is not None and typecheck(v.value, payload)
    if isinstance(s, BagT):
        if not isinstance(v, BagV):
            return False
        if s.elem is None:
            return v.bag.size == 0
        return all(typecheck(e, s.elem) for e in v.bag.elements)
    raise EngineTypeError(f"unknown schema {s!r}")


# schemas are immutable, so one of each scalar schema serves every row
_SCALAR_SCHEMAS: dict[type, Schema] = {Int: IntT(), Real: RealT(), Bool: BoolT(), Str: StrT(), Unit: UnitT()}


def infer_schema(v: Value) -> Schema:
    s = _SCALAR_SCHEMAS.get(type(v))
    if s is not None:
        return s
    if isinstance(v, Tuple):
        return TupleT(tuple(infer_schema(it) for it in v.items))
    if isinstance(v, Tagged):
        return TaggedT.of({v.tag: infer_schema(v.value)})
    if isinstance(v, BagV):
        elem: Optional[Schema] = None
        for e in v.bag.elements:
            es = infer_schema(e)
            elem = es if elem is None else unify_schema(elem, es)
        return BagT(elem)
    raise EngineTypeError(f"cannot infer schema of {v!r}")


def unify_schema(a: Schema, b: Schema) -> Schema:
    """Least common schema of two row shapes; tagged variants take unions."""
    if type(a) is type(b) and isinstance(a, (IntT, RealT, BoolT, StrT, UnitT)):
        return a
    if isinstance(a, TupleT) and isinstance(b, TupleT):
        if len(a.items) != len(b.items):
            raise SchemaError(f"tuple arity mismatch: {len(a.items)} vs {len(b.items)}")
        return TupleT(tuple(unify_schema(x, y) for x, y in zip(a.items, b.items)))
    if isinstance(a, TaggedT) and isinstance(b, TaggedT):
        merged = dict(a.variants)
        for tag, s in b.variants:
            merged[tag] = s if tag not in merged else unify_schema(merged[tag], s)
        return TaggedT.of(merged)
    if isinstance(a, BagT) and isinstance(b, BagT):
        if a.elem is None:
            return b
        if b.elem is None:
            return a
        return BagT(unify_schema(a.elem, b.elem))
    raise SchemaError(f"cannot unify {a!r} with {b!r}")


# ---------------------------------------------------------------------------
# JSON codec


def to_json(v: Value) -> Any:
    """Plain Python object ready for json.dumps."""
    if isinstance(v, (Int, Real, Bool, Str)):
        return v.value
    if isinstance(v, Unit):
        return None
    if isinstance(v, Tuple):
        return [to_json(it) for it in v.items]
    if isinstance(v, Tagged):
        return {"tag": v.tag, "value": to_json(v.value)}
    if isinstance(v, BagV):
        return {"bag": [to_json(e) for e in v.bag.elements]}
    raise EngineTypeError(f"cannot serialize {v!r}")


def json_text(v: Value) -> str:
    """``json.dumps(to_json(v), sort_keys=True)``, written directly: the
    same text without building the intermediate objects."""
    if isinstance(v, Tagged):
        return '{"tag": ' + _json_str(v.tag) + ', "value": ' + json_text(v.value) + "}"
    if isinstance(v, Tuple):
        return "[" + ", ".join([json_text(it) for it in v.items]) + "]"
    if isinstance(v, Str):
        return _json_str(v.value)
    if isinstance(v, Int):
        return repr(v.value)
    if isinstance(v, Real):
        x = v.value
        return repr(x) if math.isfinite(x) else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(v, Bool):
        return "true" if v.value else "false"
    if isinstance(v, Unit):
        return "null"
    if isinstance(v, BagV):
        return '{"bag": [' + ", ".join([json_text(e) for e in v.bag.elements]) + "]}"
    raise EngineTypeError(f"cannot serialize {v!r}")


def from_json(obj: Any) -> Value:
    """Inverse of to_json.  Bags are re-canonicalized on the way in."""
    if obj is None:
        return UNIT
    if type(obj) is bool:
        return Bool(obj)
    if type(obj) is int:
        return Int(obj)
    if type(obj) is float:
        if math.isnan(obj):
            raise EngineTypeError("NaN is not a value")
        return Real(obj)
    if type(obj) is str:
        return Str(obj)
    if type(obj) is list:
        return Tuple(tuple(from_json(x) for x in obj))
    if type(obj) is dict:
        if set(obj) == {"tag", "value"}:
            if type(obj["tag"]) is not str:
                raise EngineTypeError("tag must be a string")
            return Tagged(obj["tag"], from_json(obj["value"]))
        if set(obj) == {"bag"}:
            if type(obj["bag"]) is not list:
                raise EngineTypeError("bag body must be an array")
            from .bags import Bag

            return BagV(Bag.of(from_json(x) for x in obj["bag"]))
        raise EngineTypeError(f"object keys {sorted(obj)} are neither a tagged value nor a bag")
    raise EngineTypeError(f"cannot read a value from {type(obj).__name__}")


def serialize(v: Value, *, indent: Optional[int] = None) -> str:
    return json.dumps(to_json(v), indent=indent, sort_keys=True)


def deserialize(text: str) -> Value:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        # json's own message for this one ends "starting at", as in ``lex``
        msg = "unterminated string" if e.msg.startswith("Unterminated string") else e.msg
        raise ParseError(msg, e.lineno, e.colno) from None
    except ValueError:  # an integer longer than the interpreter converts
        limit = sys.get_int_max_str_digits()
        # the text before it is JSON, so it is the first such number outside
        # a string; a number's digits before any fraction or exponent
        tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)([.eE][-+.eE0-9]*)?', text)
        at = next((m.start() for m in tokens if len(m.group(1) or "") > limit and not m.group(2)), 0)
        raise ParseError(f"integer longer than {limit} digits", text.count("\n", 0, at) + 1,
                         at - text.rfind("\n", 0, at)) from None
    return from_json(obj)
