"""Value order, schemas, and the JSON codec."""
import copy
import json
import math
import os
import pickle
import subprocess
import sys
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bagdb.bags import EMPTY, HASH_MOD, Bag
from bagdb.errors import EngineTypeError, ParseError, SchemaError
from bagdb.prob import ExactDist, Seed
from bagdb.values import (
    UNIT,
    BagT,
    BagV,
    Bool,
    BoolT,
    Int,
    IntT,
    Real,
    RealT,
    Str,
    StrT,
    Tagged,
    TaggedT,
    Tuple,
    TupleT,
    UnitT,
    Value,
    compare,
    deserialize,
    from_json,
    infer_schema,
    json_text,
    serialize,
    to_json,
    typecheck,
    unify_schema,
)

from dual_routes import hash_from_scratch
from strategies import json_edge_values, values


class TestConstruction:
    def test_int_rejects_bool(self):
        with pytest.raises(EngineTypeError):
            Int(True)

    def test_int_rejects_float(self):
        with pytest.raises(EngineTypeError):
            Int(1.5)

    def test_real_coerces_int(self):
        assert Real(3).value == 3.0
        assert isinstance(Real(3).value, float)

    def test_real_rejects_nan(self):
        with pytest.raises(EngineTypeError):
            Real(float("nan"))

    def test_real_allows_infinities(self):
        Real(math.inf)
        Real(-math.inf)

    def test_bool_rejects_int(self):
        with pytest.raises(EngineTypeError):
            Bool(1)

    def test_tagged_tag_must_be_identifier(self):
        Tagged("ok_name", Int(1))
        with pytest.raises(EngineTypeError):
            Tagged("9bad", Int(1))
        with pytest.raises(EngineTypeError):
            Tagged("", Int(1))

    def test_tuple_items_must_be_values(self):
        with pytest.raises(EngineTypeError):
            Tuple((1, 2))


class TestOrder:
    def test_variant_ranks(self):
        ordered = [
            Int(99),
            Real(-1.0),
            Bool(False),
            Str(""),
            UNIT,
            Tuple(()),
            Tagged("a", UNIT),
            BagV(EMPTY),
        ]
        assert sorted(ordered, key=lambda v: v.key) == ordered

    def test_int_and_real_never_equal(self):
        assert Int(2) != Real(2.0)
        assert compare(Int(2), Real(2.0)) == -1

    def test_negative_zero_sorts_before_positive_zero(self):
        assert compare(Real(-0.0), Real(0.0)) == -1
        assert Real(-0.0) != Real(0.0)

    def test_bool_order(self):
        assert compare(Bool(False), Bool(True)) == -1

    def test_tuple_lexicographic(self):
        a = Tuple((Int(1), Int(2)))
        b = Tuple((Int(1), Int(3)))
        c = Tuple((Int(1),))
        assert compare(a, b) == -1
        assert compare(c, a) == -1  # shorter prefix first

    def test_tagged_by_tag_then_payload(self):
        assert compare(Tagged("a", Int(9)), Tagged("b", Int(0))) == -1
        assert compare(Tagged("a", Int(0)), Tagged("a", Int(1))) == -1

    def test_bag_value_by_element_sequence(self):
        a = BagV(Bag.of([Int(1), Int(2)]))
        b = BagV(Bag.of([Int(1), Int(3)]))
        assert compare(a, b) == -1

    @given(st.lists(values, max_size=6).map(Bag.of))
    def test_bag_value_key_is_element_keys(self, b):
        assert BagV(b).key == (7, tuple(e.key for e in b))

    @given(values, values)
    def test_compare_antisymmetric(self, a, b):
        assert compare(a, b) == -compare(b, a)

    @given(values, values)
    def test_eq_iff_compare_zero(self, a, b):
        assert (a == b) == (compare(a, b) == 0)

    @given(values, values)
    def test_hash_consistent_with_eq(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    @given(values, values, values)
    def test_compare_transitive(self, a, b, c):
        xs = sorted([a, b, c], key=lambda v: v.key)
        assert compare(xs[0], xs[1]) <= 0 and compare(xs[1], xs[2]) <= 0
        assert compare(xs[0], xs[2]) <= 0


def _copy(v):
    """A new value equal to ``v``, built from its fields, with no hash stored
    on it yet."""
    return type(v)(*v.__reduce__()[1])


def _slot(v, name):
    """What slot ``name`` of ``v`` holds, or None while it is empty, read
    through the slot itself, which never fills it."""
    try:
        return Value.__dict__[name].__get__(v)
    except AttributeError:
        return None


@pytest.mark.hashseed
class TestStoredKeyAndHash:
    """Every value, a BagV included, sets its key at construction, in a
    slot that is not a field.  Every value but a BagV stores the square of
    ``hash(key)`` modulo ``HASH_MOD`` on the first ``hash``, in another
    such slot; a BagV's hash is its bag's multiset hash, which the bag
    stores (``TestMultisetHash``)."""

    @given(values, st.booleans())
    def test_hash_is_the_key_hash_whether_or_not_key_was_read(self, v, read_key_first):
        a = _copy(v)
        assert _slot(a, "_hash") is None
        assert _slot(a, "key") == v.key
        if read_key_first:
            assert a.key == v.key
        assert hash(a) == hash(v) == hash_from_scratch(v)
        if isinstance(a, BagV):
            assert _slot(a, "_hash") is None and a.bag._hash == hash(a)
        else:
            assert hash(a) == hash(a.key) ** 2 % HASH_MOD
            assert _slot(a, "_hash") == hash(a) == hash(copy.deepcopy(a).key) ** 2 % HASH_MOD

    @given(values)
    def test_stored_key_is_a_fresh_key(self, v):
        # a deep copy builds every value in it again, from its fields
        hash(v)
        assert _slot(v, "key") == copy.deepcopy(v).key

    @given(json_edge_values, values)
    def test_stored_entries_are_invisible(self, v, w):
        a = _copy(v)
        shown = (repr(a), json_text(a), to_json(a), a.__reduce__())
        eq = (a == v, v == a, a != v, a == w, a != w, compare(a, w))
        hash(a)
        assert _slot(a, "key") is not None
        assert (a.bag._hash if isinstance(a, BagV) else _slot(a, "_hash")) is not None
        assert (repr(a), json_text(a), to_json(a), a.__reduce__()) == shown
        assert (a == v, v == a, a != v, a == w, a != w, compare(a, w)) == eq
        assert eq[:3] == (True, True, False)

    def test_pickle_leaves_the_stored_hash_behind(self):
        # a str's hash depends on PYTHONHASHSEED, so a hash stored in one
        # interpreter is wrong in another
        v = Tagged("a", Tuple((Str("x"), BagV(Bag.of([Str("y")])))))
        for x in (v, v.value, *v.value.items):
            hash(x)
        data = pickle.dumps(v)
        back = pickle.loads(data)
        assert all(_slot(x, "_hash") is None for x in (back, back.value, *back.value.items))
        assert v.value.items[1].bag._hash is not None and back.value.items[1].bag._hash is None
        check = (
            "import pickle, sys\n"
            "from bagdb.bags import Bag\n"
            "from bagdb.values import BagV, Str, Tagged, Tuple\n"
            "v = pickle.loads(sys.stdin.buffer.read())\n"
            "ok = v in {Tagged('a', Tuple((Str('x'), BagV(Bag.of([Str('y')])))))}\n"
            "ok = ok and v.value.items[1] in {BagV(Bag.of([Str('y')]))}\n"
            "sys.exit(not (ok and v.value.items[0] in {Str('x')}))\n"
        )
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            subprocess.run([sys.executable, "-c", check], input=data, env=env, check=True)


class TestFrozenSlots:
    """Values and bags have no ``__dict__``, cannot be changed, can be weakly
    referenced (the CLI's mc writer relies on that), and survive pickling and
    deep copies; so do the records built on ``Node``."""

    @given(values)
    def test_values_are_frozen_without_a_dict(self, v):
        hash(v)
        assert not hasattr(v, "__dict__") and weakref.ref(v)() is v
        for name in (*v.__slots__, "key", "_hash", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(v, name, Int(1))
            with pytest.raises(FrozenInstanceError):
                delattr(v, name)
        assert hash(v) == hash_from_scratch(v) and _slot(v, "key") is not None

    def test_bag_is_frozen_without_a_dict(self):
        b = Bag.of([Int(2), Str("a")])
        assert b.key == ((0, 2), (3, "a"))
        assert not hasattr(b, "__dict__") and weakref.ref(b)() is b
        hash(b)
        for name in ("elements", "key", "_hash", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(b, name, ())
            with pytest.raises(FrozenInstanceError):
                delattr(b, name)
        assert b.elements == (Int(2), Str("a"))

    @staticmethod
    def round_trips(x):
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(twin) is type(x) and twin == x and repr(twin) == repr(x)

    @given(values)
    def test_values_round_trip(self, v):
        hash(v)
        self.round_trips(v)

    @given(st.lists(values, max_size=5))
    def test_bags_round_trip(self, items):
        b = Bag.of(items)
        self.round_trips(b)
        self.round_trips(BagV(b))

    def test_records_round_trip(self):
        self.round_trips(ExactDist.from_weights([(Int(1), 0.25), (Str("a"), 0.75)]))
        self.round_trips(Seed(5))
        self.round_trips(Seed(5).child(3))
        assert Seed(5) == Seed(5, ()) and hash(Seed(5)) == hash((5, ()))


class TestJson:
    def test_forms(self):
        assert to_json(UNIT) is None
        assert to_json(Int(3)) == 3
        assert to_json(Real(2.5)) == 2.5
        assert to_json(Bool(True)) is True
        assert to_json(Str("hi")) == "hi"
        assert to_json(Tuple((Int(1), Str("x")))) == [1, "x"]
        assert to_json(Tagged("t", Int(1))) == {"tag": "t", "value": 1}
        assert to_json(BagV(Bag.of([Int(2), Int(1)]))) == {"bag": [1, 2]}

    def test_from_json_bool_not_int(self):
        assert from_json(True) == Bool(True)
        assert from_json(1) == Int(1)
        assert from_json(1.0) == Real(1.0)

    def test_from_json_null_is_unit(self):
        assert from_json(None) is UNIT or from_json(None) == UNIT

    @given(values)
    def test_round_trip(self, v):
        assert from_json(to_json(v)) == v

    @given(values)
    def test_serialize_round_trip(self, v):
        assert deserialize(serialize(v)) == v

    def test_serialize_deterministic_key_order(self):
        assert serialize(Tagged("t", Int(1))) == '{"tag": "t", "value": 1}'

    def test_deserialize_malformed(self):
        with pytest.raises(ParseError) as ei:
            deserialize("{nope")
        assert ei.value.line == 1

    def test_from_json_rejects_unknown_object(self):
        with pytest.raises(EngineTypeError):
            from_json({"what": 1})

    def test_real_infinity_serializes(self):
        assert deserialize(serialize(Real(math.inf))) == Real(math.inf)

    @given(json_edge_values)
    def test_json_text_is_json_dumps(self, v):
        assert json_text(v) == json.dumps(to_json(v), sort_keys=True)

    def test_json_text_rejects_non_values(self):
        with pytest.raises(EngineTypeError):
            json_text(3)


class TestSchemas:
    def test_infer_scalars(self):
        assert infer_schema(Int(1)) == IntT()
        assert infer_schema(Real(1.0)) == RealT()
        assert infer_schema(Bool(True)) == BoolT()
        assert infer_schema(Str("s")) == StrT()
        assert infer_schema(UNIT) == UnitT()

    def test_infer_compound(self):
        v = Tuple((Int(1), Tagged("a", Str("x"))))
        assert infer_schema(v) == TupleT((IntT(), TaggedT.of({"a": StrT()})))

    def test_infer_empty_bag_unconstrained(self):
        assert infer_schema(BagV(EMPTY)) == BagT(None)

    def test_infer_bag_unifies_elements(self):
        v = BagV(Bag.of([Tagged("a", Int(1)), Tagged("b", Str("s"))]))
        assert infer_schema(v) == BagT(TaggedT.of({"a": IntT(), "b": StrT()}))

    def test_unify_tagged_union(self):
        a = TaggedT.of({"x": IntT()})
        b = TaggedT.of({"y": StrT()})
        assert unify_schema(a, b) == TaggedT.of({"x": IntT(), "y": StrT()})

    def test_unify_scalar_mismatch(self):
        with pytest.raises(SchemaError):
            unify_schema(IntT(), RealT())

    def test_unify_arity_mismatch(self):
        with pytest.raises(SchemaError):
            unify_schema(TupleT((IntT(),)), TupleT((IntT(), IntT())))

    def test_unify_empty_bag_absorbs(self):
        assert unify_schema(BagT(None), BagT(IntT())) == BagT(IntT())

    def test_empty_bag_inhabits_every_bag_type(self):
        assert typecheck(BagV(EMPTY), BagT(IntT()))
        assert typecheck(BagV(EMPTY), BagT(None))

    def test_unconstrained_bag_type_rejects_nonempty(self):
        assert not typecheck(BagV(Bag.of([Int(1)])), BagT(None))

    def test_typecheck_tagged_variant(self):
        s = TaggedT.of({"a": IntT(), "b": StrT()})
        assert typecheck(Tagged("a", Int(1)), s)
        assert not typecheck(Tagged("c", Int(1)), s)
        assert not typecheck(Tagged("a", Str("x")), s)

    @given(values)
    def test_inference_is_sound_when_defined(self, v):
        # heterogeneous bags have no schema; inference may reject them
        try:
            s = infer_schema(v)
        except SchemaError:
            return
        assert typecheck(v, s)

    def test_mixed_scalar_bag_has_no_schema(self):
        with pytest.raises(SchemaError):
            infer_schema(BagV(Bag.of([Int(0), Real(0.0)])))
