"""The syntax nodes: query and row-expression AST, sampler expressions,
rule AST, tokens and schemas.  Each behaves as a frozen dataclass would:
``repr`` text, equality within one class, hash of the field tuple, no
assignment or deletion, ``copy.deepcopy`` and pickling, and the checks and
normalisation run after construction."""
import copy
import pickle
import re
from dataclasses import FrozenInstanceError

import pytest

from bagdb import algebra, prob, values
from bagdb.algebra import (
    Agg,
    And,
    Arith,
    Cmp,
    Const,
    Dedup,
    Difference,
    DUnion,
    Field,
    Flatten,
    Group,
    GroupPrime,
    IntersectQ,
    IsTag,
    Lit,
    MapQ,
    MkTagged,
    MkTuple,
    Not,
    Or,
    Payload,
    PowerBag,
    PowerSet,
    Product,
    Project,
    RowRef,
    Select,
    Singleton,
    Table,
    UnionQ,
    compile_expr,
)
from bagdb.bags import Bag
from bagdb.dsl import Token
from bagdb.errors import EngineTypeError
from bagdb.pbmonad import Atom, ConstT, DistT, Guard, Rule, RuleProgram, VarT
from bagdb.prob import Bernoulli, Bind, Categorical, Dirac, ExactDist, MapS, Normal, Poisson
from bagdb.values import BagT, BoolT, Int, IntT, RealT, Str, StrT, TaggedT, TupleT, UnitT

T = Table("db")
PRED = Cmp("=", Field(1), Field(2))
RULE = Rule("h", (VarT("x"),), (Atom("src", (VarT("x"),)),), ())

# (class, constructor arguments, repr text); the arguments are the field
# tuple, already in the form that construction leaves them in
NODES = [
    (Field, (1,), "Field(index=1)"),
    (RowRef, (), "RowRef()"),
    (Const, (Int(3),), "Const(value=Int(3))"),
    (Arith, ("+", Field(1), Const(Int(2))), "Arith(op='+', left=Field(index=1), right=Const(value=Int(2)))"),
    (Cmp, ("=", Field(1), Field(2)), "Cmp(op='=', left=Field(index=1), right=Field(index=2))"),
    (And, (PRED, RowRef()), "And(left=Cmp(op='=', left=Field(index=1), right=Field(index=2)), right=RowRef())"),
    (Or, (RowRef(), PRED), "Or(left=RowRef(), right=Cmp(op='=', left=Field(index=1), right=Field(index=2)))"),
    (Not, (RowRef(),), "Not(inner=RowRef())"),
    (IsTag, (RowRef(), "a"), "IsTag(inner=RowRef(), tag='a')"),
    (Payload, (RowRef(), "a"), "Payload(inner=RowRef(), tag='a')"),
    (MkTuple, ((Field(1), RowRef()),), "MkTuple(items=(Field(index=1), RowRef()))"),
    (MkTagged, ("t", (Field(2),)), "MkTagged(tag='t', args=(Field(index=2),))"),
    (Table, ("db",), "Table(name='db')"),
    (Lit, (Bag.of([Int(2), Int(1), Int(2)]),), "Lit(bag=Bag.of([Int(1), Int(2), Int(2)]))"),
    (Singleton, (T,), "Singleton(q=Table(name='db'))"),
    (Flatten, (T,), "Flatten(q=Table(name='db'))"),
    (MapQ, (Field(1), T), "MapQ(fn=Field(index=1), q=Table(name='db'))"),
    (Product, (T, Table("e")), "Product(q1=Table(name='db'), q2=Table(name='e'))"),
    (Project, ((2, 1), T), "Project(indices=(2, 1), q=Table(name='db'))"),
    (Select, (PRED, T),
     "Select(pred=Cmp(op='=', left=Field(index=1), right=Field(index=2)), q=Table(name='db'))"),
    (DUnion, (T, T), "DUnion(q1=Table(name='db'), q2=Table(name='db'))"),
    (Difference, (T, T), "Difference(q1=Table(name='db'), q2=Table(name='db'))"),
    (PowerBag, (T,), "PowerBag(q=Table(name='db'))"),
    (Dedup, (T,), "Dedup(q=Table(name='db'))"),
    (UnionQ, (T, T), "UnionQ(q1=Table(name='db'), q2=Table(name='db'))"),
    (IntersectQ, (T, T), "IntersectQ(q1=Table(name='db'), q2=Table(name='db'))"),
    (PowerSet, (T,), "PowerSet(q=Table(name='db'))"),
    (Group, ((1,), (2, 3), T), "Group(key_indices=(1,), val_indices=(2, 3), q=Table(name='db'))"),
    (GroupPrime, (T,), "GroupPrime(q=Table(name='db'))"),
    (Agg, ("size", T), "Agg(kind='size', q=Table(name='db'))"),
    (Dirac, (Str("a"),), "Dirac(value=Str('a'))"),
    (Bernoulli, (0.25,), "Bernoulli(p=0.25)"),
    (Normal, (0.0, 2.5), "Normal(mean=0.0, stddev=2.5)"),
    (Poisson, (3.0,), "Poisson(rate=3.0)"),
    (Categorical, (ExactDist.dirac(Int(1)),), "Categorical(dist=ExactDist(entries=((Int(1), 1.0),)))"),
    (Bind, (Bernoulli(0.5), Dirac), "Bind(inner=Bernoulli(p=0.5), fn=<class 'bagdb.prob.Dirac'>)"),
    (MapS, (abs, Bernoulli(0.5)), "MapS(fn=<built-in function abs>, inner=Bernoulli(p=0.5))"),
    (VarT, ("x",), "VarT(name='x')"),
    (ConstT, (Int(1),), "ConstT(value=Int(1))"),
    (DistT, ("bernoulli", (VarT("p"),)), "DistT(kind='bernoulli', params=(VarT(name='p'),))"),
    (Atom, ("src", (VarT("x"), ConstT(Str("a")))),
     "Atom(tag='src', args=(VarT(name='x'), ConstT(value=Str('a'))))"),
    (Guard, ("<", VarT("x"), ConstT(Int(3))), "Guard(op='<', left=VarT(name='x'), right=ConstT(value=Int(3)))"),
    (Rule, ("h", (VarT("x"),), (Atom("src", (VarT("x"),)),), ()),
     "Rule(head_tag='h', head_terms=(VarT(name='x'),), atoms=(Atom(tag='src', args=(VarT(name='x'),)),), "
     "guards=())"),
    (RuleProgram, ((RULE,),),
     "RuleProgram(rules=(Rule(head_tag='h', head_terms=(VarT(name='x'),), "
     "atoms=(Atom(tag='src', args=(VarT(name='x'),)),), guards=()),))"),
    (Token, ("IDENT", "table", 1, 1, 6), "Token(kind='IDENT', value='table', line=1, col=1, end=6)"),
    (IntT, (), "IntT()"),
    (RealT, (), "RealT()"),
    (BoolT, (), "BoolT()"),
    (StrT, (), "StrT()"),
    (UnitT, (), "UnitT()"),
    (TupleT, ((IntT(), StrT()),), "TupleT(items=(IntT(), StrT()))"),
    (TaggedT, ((("a", IntT()), ("b", UnitT())),), "TaggedT(variants=(('a', IntT()), ('b', UnitT())))"),
    (BagT, (None,), "BagT(elem=None)"),
]

IDS = [cls.__name__ for cls, _, _ in NODES]


class Other:
    """Not a node: a class whose instances hold the same values."""

    def __init__(self, *args):
        self.args = args


def _subclasses(base: type) -> set:
    return set(base.__subclasses__())


def test_every_node_class_is_pinned():
    expected = (
        _subclasses(algebra.Expr) | _subclasses(algebra.Query) | _subclasses(prob.SamplerExpr)
        | _subclasses(values.Schema) | {VarT, ConstT, DistT, Atom, Guard, Rule, RuleProgram, Token}
    )
    assert {cls for cls, _, _ in NODES} == expected
    assert len(expected) == 53


@pytest.mark.parametrize("cls, args, text", NODES, ids=IDS)
class TestNode:
    def test_repr(self, cls, args, text):
        assert repr(cls(*args)) == text

    def test_equality_within_one_class(self, cls, args, text):
        a, b = cls(*args), cls(*args)
        assert a == b and not (a != b)
        assert a.__eq__(Other(*args)) is NotImplemented
        assert a != Other(*args)
        assert a.__eq__(args) is NotImplemented and a != args

    def test_hash_is_hash_of_the_field_tuple(self, cls, args, text):
        assert hash(cls(*args)) == hash(args)

    def test_frozen(self, cls, args, text):
        node = cls(*args)
        first = re.match(r"\w+\((\w+)=", text)  # the first field, if any
        for name in ([first.group(1)] if first else []) + ["other"]:
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(node, name)
        assert repr(node) == text

    def test_deepcopy_and_pickle(self, cls, args, text):
        node = cls(*args)
        for twin in (copy.deepcopy(node), copy.copy(node)):
            assert type(twin) is cls and twin == node and hash(twin) == hash(node) and repr(twin) == text
        back = pickle.loads(pickle.dumps(node))
        assert type(back) is cls and back == node and repr(back) == text


def test_a_node_stores_its_compiled_forms_outside_its_fields():
    e = Cmp("<", Field(1), Const(Int(3)))
    fn = compile_expr(e)
    assert e.__dict__["_compiled"] is fn and compile_expr(e) is fn
    assert e == Cmp("<", Field(1), Const(Int(3))) and hash(e) == hash(("<", Field(1), Const(Int(3))))
    assert repr(e) == "Cmp(op='<', left=Field(index=1), right=Const(value=Int(3)))"


def test_different_classes_with_the_same_fields_differ():
    a, b = And(RowRef(), RowRef()), Or(RowRef(), RowRef())
    assert a.__eq__(b) is NotImplemented and a != b
    assert UnionQ(T, T) != DUnion(T, T) and IntT() != RealT()


class TestAfterConstruction:
    def test_tuple_schema_items_become_a_tuple(self):
        s = TupleT([IntT(), StrT()])
        assert s.items == (IntT(), StrT()) and type(s.items) is tuple
        assert s == TupleT((IntT(), StrT())) and hash(s) == hash(((IntT(), StrT()),))

    def test_tagged_schema_variants_are_sorted(self):
        s = TaggedT((("b", UnitT()), ("a", IntT())))
        assert s.variants == (("a", IntT()), ("b", UnitT()))
        assert repr(s) == "TaggedT(variants=(('a', IntT()), ('b', UnitT())))"
        assert TaggedT.of({"b": UnitT(), "a": IntT()}) == s

    @pytest.mark.parametrize("make", [
        lambda: Bernoulli(1.5), lambda: Bernoulli(-0.1), lambda: Normal(0.0, 0.0),
        lambda: Normal(float("inf"), 1.0), lambda: Poisson(-1.0), lambda: Poisson(3e305),
    ], ids=["p>1", "p<0", "stddev0", "mean-inf", "rate<0", "rate-huge"])
    def test_sampler_parameters_are_checked(self, make):
        with pytest.raises(EngineTypeError):
            make()

    def test_wrong_arguments_raise_type_error(self):
        for make in (lambda: Field(), lambda: Field(1, 2), lambda: Field(1, index=1), lambda: Field(x=1)):
            with pytest.raises(TypeError):
                make()
