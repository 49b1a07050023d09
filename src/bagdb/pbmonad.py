"""The composite monad of probability over bags: distributive law, monad
structure, the generator combinators, and non-recursive generative rule
programs.

A probabilistic database is either a PBExact (an ExactDist whose support
values are bags) or a PBSampler (a function from sample index to world
bag, deterministic under the seed contract).  The distributive law turns
a collection of independent per-element distributions into one
distribution over bags; everything else is built from it.

Both backends compile a rule program once.  A rule joins its atoms
through hash indexes whose buckets keep bag order, so the matches, and
with them the match ordinals that address the draws, come out in
canonical order: each atom's rows in bag order, earlier atoms varying
slowest, and only the matches whose guards hold (``rule_matches`` lists
them for one world).  Fields compare by ``Value``'s ``!=``, so ``Int(1)``
does not match ``Real(1.0)``.  An atom whose tag no earlier rule
produces sees the input rows in every world and keeps its index, and a
rule whose atoms all do keeps its match list.  An atom whose tag an
earlier rule produces builds its index in every world from a cache of
what it reads from each row.  A match's guard outcome, draw distribution
and heads depend only on the values it binds, so each plan keeps them in
one memo keyed by those values, shared by every world and by both
backends; equal heads are then one object, also when two rules write
them.  Only heads that the program shows to recur across worlds, and
what is read from them, are cached, at most ``_CACHE_CAP`` entries a
cache.  The exact backend applies a rule to a world as the Kleisli
extension through the distributive law, in product form: every choice
of one head option per match, added to the world, with the product of
their weights.

Both backends step one canonical world bag through the same plans.  A
world's rows of one tag are one run of its sorted elements, found by
bisection, and a rule's heads are added to the world with ``Bag.merged``,
so no world is re-sorted.

An atom with no arguments matches the rows that a head with no terms
writes, ``tag()`` with a Unit payload, as well as an empty tuple payload.
The rule text format is read on ``dsl``'s front end: the whole program is
tokenized once, a rule is the tokens of one line, and its terms use the
query language's literal grammar.
"""
from __future__ import annotations

import _random
from collections import Counter
from itertools import product as iproduct
from math import prod
from typing import Callable, Iterable, Optional, Sequence, Union

from .algebra import cmp_holds, tuple_parts
from .bags import EMPTY, Bag, tag_span, unit
from .dsl import Token, _Parser, tokenize
from .errors import EngineTypeError, ProgramError, ResourceLimitError
from .node import Node
from .prob import (
    Bernoulli,
    ExactDist,
    Normal,
    Poisson,
    SamplerExpr,
    Seed,
    draw_from,
    exact_of,
    generator,
    normal_pair,
    poisson_draw,
    reseed,
    sample,
)
from .values import BagV, Int, Real, Tuple, Unit, Value, tagged

DEFAULT_WORLD_LIMIT = 10**6

# The distributive law's input: for each element, its (value, weight) options.
Options = Sequence[Sequence[tuple[Value, float]]]


# ---------------------------------------------------------------------------
# Distributive law


def _distr_into(out: dict[Value, float], options: Options, base: Bag, weight: float) -> None:
    """The distributive law in product form: every choice of one option
    per element, in lexicographic order, is added to ``base`` and weighs
    ``weight * w1 * w2 * ...`` (multiplied left to right), summed into
    ``out`` under the resulting bag, ``base.merged`` of the values."""
    for combo in iproduct(*options):
        p = weight
        for _, w in combo:
            p *= w
        bv = BagV(base.merged([x for x, _ in combo]))
        out[bv] = out.get(bv, 0.0) + p


def distr_exact(dists: Iterable[ExactDist]) -> ExactDist:
    """B(P(X)) -> P(B(X)): independent product of the element
    distributions, collected into bags.  Distributions are supplied as a
    sequence because they are not themselves data values; callers that
    start from a bag enumerate it in canonical order."""
    out: dict[Value, float] = {}
    _distr_into(out, [p.entries for p in dists], EMPTY, 1.0)
    return ExactDist.from_weights(out)


def distr_sample(samplers: Sequence[SamplerExpr], seed: Seed) -> Bag:
    """One draw per element under per-index child seeds, collected by add."""
    return Bag.of(sample(s, seed.child(i)) for i, s in enumerate(samplers))


# ---------------------------------------------------------------------------
# PB monad structure (exact backend)


def pb_unit_bag(b: Bag) -> ExactDist:
    return ExactDist.dirac(BagV(b))


def pb_unit_dist(p: ExactDist) -> ExactDist:
    return p.map(lambda x: BagV(unit(x)))


def pb_bind(f: Callable[[Value], ExactDist], m: ExactDist) -> ExactDist:
    """Kleisli extension: apply f to every element of every world,
    distribute the results, flatten per world, and mix by world weight."""
    out: dict[Value, float] = {}
    for bv, pw in m.entries:
        if not isinstance(bv, BagV):
            raise EngineTypeError("pb_bind needs a distribution over bags")
        per_world = distr_exact([f(x) for x in bv.bag])
        flattened = per_world.map(lambda b: BagV(b.bag.flatten()))  # type: ignore[union-attr]
        for o, po in flattened.entries:
            out[o] = out.get(o, 0.0) + pw * po
    return ExactDist.from_weights(out)


def pb_uplus(m1: ExactDist, m2: ExactDist) -> ExactDist:
    """Independent combination: convolution of world bags under uplus."""
    out: dict[Value, float] = {}
    for a, wa in m1.entries:
        for b, wb in m2.entries:
            if not isinstance(a, BagV) or not isinstance(b, BagV):
                raise EngineTypeError("pb_uplus needs distributions over bags")
            key = BagV(a.bag.uplus(b.bag))
            out[key] = out.get(key, 0.0) + wa * wb
    return ExactDist.from_weights(out)


# ---------------------------------------------------------------------------
# Samplers over worlds


class PBSampler(Node):
    """A probabilistic database in sampling form: world(i) is the i-th
    possible world, deterministic in i."""

    world_fn: Callable[[int], Bag]

    def world(self, index: int) -> Bag:
        if index < 0:
            raise EngineTypeError("sample indices are nonnegative")
        return self.world_fn(index)

    def worlds(self, n: int) -> list[Bag]:
        """First n worlds in index order."""
        return [self.world_fn(i) for i in range(n)]


def poisson_bag(rate: float, gen: SamplerExpr, seed: Seed) -> Bag:
    """Draw a Poisson count n, then n independent draws from gen."""
    n = poisson_draw(rate, seed.child(0).rng())
    return Bag.of(sample(gen, seed.child(1 + i)) for i in range(n))


def add_noise(b: Bag, sigma: float, seed: Seed) -> PBSampler:
    """Perturb the second field of every row with independent normal noise."""
    if not sigma > 0:
        raise EngineTypeError("noise stddev must be positive")
    for row in b:
        if not (isinstance(row, Tuple) and len(row.items) == 2 and isinstance(row.items[1], Real)):
            raise EngineTypeError(f"add_noise rows must be (key, Real) pairs, got {row!r}")

    def world_fn(i: int) -> Bag:
        rng = seed.child(i).rng()
        out = []
        for row in b:  # canonical order fixes the draw order
            key, r = row.items  # type: ignore[union-attr]
            z, _ = normal_pair(rng)
            out.append(Tuple((key, Real(r.value + sigma * z))))  # type: ignore[union-attr]
        return Bag.of(out)

    return PBSampler(world_fn)


def add_remove(b: Bag, keep_p: float, rate: float, gen: SamplerExpr, seed: Seed) -> PBSampler:
    """Keep each row with probability keep_p, then mix in a Poisson number
    of fresh draws from gen."""
    if not (0.0 <= keep_p <= 1.0):
        raise EngineTypeError(f"keep probability {keep_p!r} outside [0, 1]")
    if not rate >= 0:
        raise EngineTypeError("rate must be nonnegative")

    def world_fn(i: int) -> Bag:
        rng = seed.child(i).rng()
        kept = [x for x in b if rng.random() < keep_p]
        n = poisson_draw(rate, rng)
        extras = [draw_from(gen, rng) for _ in range(n)]
        return Bag.of(kept + extras)

    return PBSampler(world_fn)


# ---------------------------------------------------------------------------
# Rule programs


class VarT(Node):
    name: str


class ConstT(Node):
    value: Value


class DistT(Node):
    kind: str  # bernoulli | normal | poisson
    params: tuple[Union[VarT, ConstT], ...]


Term = Union[VarT, ConstT, DistT]
SimpleTerm = Union[VarT, ConstT]

_DIST_ARITY = {"bernoulli": 1, "normal": 2, "poisson": 1}


class Atom(Node):
    tag: str
    args: tuple[SimpleTerm, ...]


class Guard(Node):
    op: str  # = != < <= > >=
    left: SimpleTerm
    right: SimpleTerm


class Rule(Node):
    head_tag: str
    head_terms: tuple[Term, ...]
    atoms: tuple[Atom, ...]
    guards: tuple[Guard, ...]


class RuleProgram(Node):
    rules: tuple[Rule, ...]


def validate_program(prog: RuleProgram) -> None:
    """Structural checks: variable binding, one draw per head of a known
    distribution with its number of parameters, no recursion (no cycle in
    the tag dependency graph)."""
    deps: dict[str, dict[str, None]] = {}  # body tags in program order, so the message is reproducible
    for r in prog.rules:
        bound = {a.name for atom in r.atoms for a in atom.args if isinstance(a, VarT)}
        dists = [t for t in r.head_terms if isinstance(t, DistT)]
        if len(dists) > 1:
            raise ProgramError(f"rule for {r.head_tag!r} has more than one distribution term")
        for t in r.head_terms:
            if isinstance(t, VarT) and t.name not in bound:
                raise ProgramError(f"head variable {t.name!r} of {r.head_tag!r} is not bound in the body")
            if isinstance(t, DistT):
                if t.kind not in _DIST_ARITY:
                    raise ProgramError(f"unknown distribution {t.kind!r} of {r.head_tag!r}")
                if len(t.params) != _DIST_ARITY[t.kind]:
                    raise ProgramError(f"{t.kind} of {r.head_tag!r} takes {_DIST_ARITY[t.kind]} parameter(s), "
                                       f"got {len(t.params)}")
                for p in t.params:
                    if isinstance(p, VarT) and p.name not in bound:
                        raise ProgramError(f"distribution parameter {p.name!r} of {r.head_tag!r} "
                                           "is not bound in the body")
                    if isinstance(p, ConstT) and not isinstance(p.value, (Int, Real)):
                        raise ProgramError(f"distribution parameter {p.value!r} of {r.head_tag!r} is not numeric")
        for g in r.guards:
            for side in (g.left, g.right):
                if isinstance(side, VarT) and side.name not in bound:
                    raise ProgramError(f"guard variable {side.name!r} is not bound in the body")
        deps.setdefault(r.head_tag, {}).update(dict.fromkeys(atom.tag for atom in r.atoms))

    # recursion = a cycle among head tags (self-loops included)
    state: dict[str, int] = {}

    def visit(tag: str, trail: tuple[str, ...]) -> None:
        if state.get(tag) == 2:
            return
        if state.get(tag) == 1:
            raise ProgramError(f"recursion detected through tag {tag!r} ({' -> '.join(trail + (tag,))})")
        state[tag] = 1
        for nxt in deps.get(tag, ()):
            visit(nxt, trail + (tag,))
        state[tag] = 2

    for tag in deps:
        visit(tag, ())


def _no_fields(payload: Value) -> tuple[Value, ...]:
    """The fields of a payload as an atom with no arguments reads them: a
    Unit payload, which a head with no terms writes, has none."""
    return () if isinstance(payload, Unit) else tuple_parts(payload)


def _guard_holds(g: Guard, env: dict[str, Value]) -> bool:
    lv = _resolve(g.left, env)
    rv = _resolve(g.right, env)
    return cmp_holds(g.op, lv, rv)


def _resolve(t: SimpleTerm, env: dict[str, Value]) -> Value:
    if isinstance(t, ConstT):
        return t.value
    v = env.get(t.name)
    if v is None:
        raise ProgramError(f"unbound variable {t.name!r}")
    return v


def _dist_sampler(d: DistT, env: dict[str, Value]) -> SamplerExpr:
    params: list[float] = []
    for p in d.params:
        v = _resolve(p, env) if isinstance(p, VarT) else p.value
        if not isinstance(v, (Int, Real)):
            raise EngineTypeError(f"distribution parameter {v!r} is not numeric")
        try:
            params.append(float(v.value))
        except OverflowError:
            raise EngineTypeError(f"distribution parameter {v!r} does not fit a float") from None
    if d.kind == "bernoulli":
        return Bernoulli(params[0])
    if d.kind == "normal":
        return Normal(params[0], params[1])
    return Poisson(params[0])


def run_rule_program(
    prog: RuleProgram,
    b: Bag,
    backend: str,
    seed: Optional[Seed] = None,
    max_worlds: int = DEFAULT_WORLD_LIMIT,
) -> Union[ExactDist, PBSampler]:
    """Sequential accumulation: each rule joins its body against the bag
    built so far, draws once per match, and appends its heads."""
    validate_program(prog)
    if backend == "exact":
        dist = pb_unit_bag(b)
        for plan in _CompiledProgram(prog, b).plans:
            dist = _apply_rule_exact(plan, dist, max_worlds)
        return dist
    if backend == "mc":
        if seed is None:
            raise EngineTypeError("the mc backend needs a seed")
        return PBSampler(_CompiledProgram(prog, b, seed).world)
    raise EngineTypeError(f"unknown backend {backend!r}; use exact or mc")


# ---------------------------------------------------------------------------
# Compiled rule programs (both backends)

# A plan's match memo, row caches and head table each hold at most this many
# entries; a full one stores nothing new and still answers lookups.  Values
# that need not recur are not cached at all, but recurring rows can join into
# more distinct matches: pair(x, y) <- flip(x, 1), flip(y, 1) has up to n * n.
_CACHE_CAP = 4096


class _AtomPlan:
    """How one body atom joins against the tagged rows of its tag.

    A row is accepted when its payload has the atom's arity, equals each
    constant, and repeats a field wherever the atom repeats a variable; an
    atom with no arguments also accepts a Unit payload (``_no_fields``).
    Accepted rows go into buckets keyed by the fields of the variables
    that earlier atoms bound (the probe), in row order; an entry holds
    the values of the variables this atom binds first.  Fields compare by
    ``Value.key``, which is exactly ``Value``'s ``!=``: ``Int(1)`` does not
    match ``Real(1.0)``, nor ``0.0`` ``-0.0``.

    An atom whose tag an earlier rule produces (``varying``) is indexed
    anew in every world, from a cache that maps a row, by value, to its
    entry: ``_REJECTED`` or the pair (probe key, bound values).  Its rows
    are heads that recur across worlds, so an index is lookups.  An atom
    over a ``marked`` tag, whose heads need not recur, has no cache.
    """

    def __init__(self, atom: Atom, slot_of: dict[str, int], varying: bool, marked: bool):
        self.tag = atom.tag
        self.varying = varying
        self.cache: Optional[dict[Value, object]] = {} if varying and not marked else None
        self.arity = len(atom.args)
        self.fields = tuple_parts if atom.args else _no_fields
        self.consts: list[tuple[int, tuple]] = []  # (field, key of the constant)
        self.same: list[tuple[int, int]] = []  # (field, earlier field of the same variable)
        self.probe: list[int] = []  # fields of variables bound by earlier atoms ...
        self.slots: list[int] = []  # ... and their env slots
        self.binds: list[int] = []  # fields whose variables take the next env slots
        first: dict[str, int] = {}
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, ConstT):
                self.consts.append((pos, arg.value.key))
            elif arg.name in first:
                self.same.append((pos, first[arg.name]))
            else:
                first[arg.name] = pos
                if arg.name in slot_of:
                    self.probe.append(pos)
                    self.slots.append(slot_of[arg.name])
                else:
                    slot_of[arg.name] = len(slot_of)
                    self.binds.append(pos)

    def entry(self, row: Value) -> object:
        """``_REJECTED``, or the row's probe key and bound values."""
        parts = self.fields(row.value)  # type: ignore[attr-defined]
        if len(parts) != self.arity:
            return _REJECTED
        if self.consts and any(parts[p].key != k for p, k in self.consts):
            return _REJECTED
        if self.same and any(parts[p].key != parts[q].key for p, q in self.same):
            return _REJECTED
        return tuple([parts[p].key for p in self.probe]), tuple([parts[p] for p in self.binds])

    def index(self, rows: Iterable[Value]) -> dict[tuple, list[tuple[Value, ...]]]:
        buckets: dict[tuple, list[tuple[Value, ...]]] = {}
        cache = self.cache
        for row in rows:
            e = None if cache is None else cache.get(row)
            if e is None:
                e = self.entry(row)
                if cache is not None and len(cache) < _CACHE_CAP:
                    cache[row] = e
            if e is _REJECTED:
                continue
            key, vals = e  # type: ignore[misc]
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [vals]
            else:
                bucket.append(vals)
        return buckets


class _Match:
    """One accepted match's memo entry: its named env and, once computed,
    the sampler of its draw, its heads per drawn value (key ``None``
    without a draw; kept only if they recur, so two at most) and options."""

    __slots__ = ("env", "sampler", "heads", "options")

    def __init__(self, env: Optional[dict[str, Value]]):
        self.env = env
        self.sampler: Optional[SamplerExpr] = None
        self.heads: dict[Optional[Value], Value] = {}
        self.options: Optional[list[tuple[Value, float]]] = None


# The entry of a row that an atom rejects, in its row cache, and of a match
# whose guards fail, in a memo: one shared marker with no env and no heads.
_REJECTED = _Match(None)


class _RulePlan:
    """One rule compiled for either backend.  Its matches are the choices
    of one row per atom, each atom's rows in bag order and earlier atoms
    varying slowest, whose fields equal the atom's constants and agree
    wherever they bind one variable (no field is ``!=`` another), and
    whose guards hold.  Atoms whose tag no earlier rule produces keep
    their index after the first world, and a rule all of whose atoms read
    only input rows keeps the list that ``matches`` returns (``kept``), so
    later worlds skip the join and the memo.  What a match yields depends
    only on the values it binds, so ``memo`` maps their keys, in env slot
    order, to the match's ``_Match``, or to ``_REJECTED`` when its guards
    fail; a rule that reads a ``marked`` tag matches anew in every world,
    so its memo has ``room`` 0.  Any other rule's heads recur unless it
    draws from ``normal`` or ``poisson`` (``recurs``): each match keeps
    them, and ``table``, the program's one table of the heads of tags that
    two rules write, makes such a value one object.  Entries, their fields and the kept list are stored once
    computed without raising, so a world raises the same errors, in the
    same order, whatever earlier worlds have cached."""

    def __init__(self, k: int, rule: Rule, produced_before: set[str], marked: set[str],
                 table: Optional[dict[Value, Value]] = None):
        self.k = k
        self.rule = rule
        slot_of: dict[str, int] = {}
        self.atoms = [_AtomPlan(a, slot_of, a.tag in produced_before, a.tag in marked) for a in rule.atoms]
        self.names = tuple(slot_of)  # variables in env slot order
        self.fixed_index: list[Optional[dict]] = [None] * len(self.atoms)
        self.dist = next((n for n, t in enumerate(rule.head_terms) if isinstance(t, DistT)), -1)
        self.memo: dict[tuple, _Match] = {}
        fresh = any(a.tag in marked for a in rule.atoms)  # new matches in every world
        self.room = 0 if fresh else _CACHE_CAP
        self.recurs = not fresh and (self.dist < 0 or rule.head_terms[self.dist].kind == "bernoulli")
        self.table = table if self.recurs else None
        self.keeps = not any(ap.varying for ap in self.atoms)
        self.kept: Optional[list[_Match]] = None

    def matches(self, world: Bag) -> list[_Match]:
        """The entries of the matches whose guards hold against a canonical
        world, in canonical order: each atom's rows in bag order, earlier
        atoms varying slowest.  An atom whose index is not kept reads its
        tag's run of the world, ``tag_span``."""
        if self.kept is not None:
            return self.kept
        envs: list[tuple[Value, ...]] = [()]
        for n, ap in enumerate(self.atoms):
            index = self.fixed_index[n]
            if index is None:
                index = ap.index(world.elements[tag_span(world, ap.tag)])
                if not ap.varying:
                    self.fixed_index[n] = index
            nxt = []
            for env in envs:  # the env loop stays outermost: earlier atoms vary slowest
                bucket = index.get(tuple([env[s].key for s in ap.slots]))
                if bucket:
                    nxt.extend([env + vals for vals in bucket])
            envs = nxt
        memo, room, guards, out = self.memo, self.room, self.rule.guards, []
        for env in envs:
            key = tuple([v.key for v in env])
            m = memo.get(key)
            if m is None:
                named = dict(zip(self.names, env))
                m = _Match(named) if all(_guard_holds(g, named) for g in guards) else _REJECTED
                if len(memo) < room:
                    memo[key] = m
            if m is not _REJECTED:
                out.append(m)
        if self.keeps:
            self.kept = out
        return out

    def sampler(self, m: _Match) -> SamplerExpr:
        if m.sampler is None:
            m.sampler = _dist_sampler(self.rule.head_terms[self.dist], m.env)  # type: ignore[arg-type]
        return m.sampler

    def head(self, m: _Match, drawn: Optional[Value] = None) -> Value:
        h = m.heads.get(drawn)
        if h is None:
            parts = [drawn if n == self.dist else _resolve(t, m.env)  # type: ignore[arg-type]
                     for n, t in enumerate(self.rule.head_terms)]
            h = tagged(self.rule.head_tag, parts)  # type: ignore[arg-type]
            if self.table is not None:
                h = self.table.get(h, h) if len(self.table) >= _CACHE_CAP else self.table.setdefault(h, h)
            if self.recurs:
                m.heads[drawn] = h
        return h

    def options(self, world: Bag) -> Options:
        """The possible heads of each match with their probabilities, in
        match order.  For each match the parameter check comes before the
        ``NotFiniteError`` of a continuous head."""
        out = []
        for m in self.matches(world):
            if m.options is None:
                m.options = [(self.head(m), 1.0)] if self.dist < 0 else \
                    [(self.head(m, z), w) for z, w in exact_of(self.sampler(m)).entries]
            out.append(m.options)
        return out

    def fire(self, world: Bag, seed: Seed, i: int, gen: _random.Random) -> list[Value]:
        """The heads this rule adds to world i, in match order.  The draw
        of match j reseeds ``gen`` to the stream of seed/(rule, i, j)."""
        matches = self.matches(world)
        if self.dist < 0 or not matches:
            return [self.head(m) for m in matches]
        prefix = seed.child(self.k).child(i).hasher()  # raises for i >= 2**64, before a bad parameter
        return [self.head(m, draw_from(self.sampler(m), reseed(gen, prefix, j)))
                for j, m in enumerate(matches)]


def rule_matches(rule: Rule, bag: Bag) -> list[dict[str, Value]]:
    """The envs of the rule's matches against a canonical world, in
    canonical order (rows per atom in bag order, earlier atoms vary
    slowest), leaving out those whose guards fail: ``_RulePlan.matches``
    of a plan that no earlier rule feeds.  The position in this list is
    the match ordinal used for seed derivation."""
    return [m.env for m in _RulePlan(0, rule, set(), set()).matches(bag)]


def _apply_rule_exact(plan: _RulePlan, dist: ExactDist, max_worlds: int) -> ExactDist:
    """One rule over every world: each world's per-match head options,
    read through the plan's memo, go through the distributive law and are
    added to the world.  Every world is counted against ``max_worlds``
    before any is enumerated, so the rule that trips the limit enumerates
    nothing."""
    todo: list[tuple[Bag, float, Options]] = []
    processed = 0
    for world_bv, pw in dist.entries:
        options = plan.options(world_bv.bag)  # type: ignore[union-attr]
        processed += prod(map(len, options))
        if processed > max_worlds:
            raise ResourceLimitError(
                f"exact enumeration exceeds {max_worlds} worlds; rerun with the mc backend"
            )
        todo.append((world_bv.bag, pw, options))  # type: ignore[union-attr]
    out: dict[Value, float] = {}
    for world, pw, options in todo:
        _distr_into(out, options, world, pw)
    return ExactDist.from_weights(out)


class _CompiledProgram:
    """A rule program compiled once: the exact backend steps every world
    through its plans, and ``world(i)`` samples mc world i by stepping the
    input bag through them, adding each rule's heads with ``Bag.merged``.
    In program order, the head tag of a rule whose heads need not recur
    (see ``_RulePlan``) is ``marked``: no plan caches what is read from it.
    With a seed, the program owns one generator, ``gen``, that every draw
    reseeds to its own stream and reads only until it returns: no state
    carries from one draw to the next, but one world is sampled at a time."""

    def __init__(self, prog: RuleProgram, b: Bag, seed: Optional[Seed] = None):
        self.base = b
        self.seed = seed
        self.gen = None if seed is None else generator()
        self.plans: list[_RulePlan] = []
        produced: set[str] = set()
        marked: set[str] = set()
        writers = Counter(r.head_tag for r in prog.rules)
        table: dict[Value, Value] = {}  # heads of the tags that two or more rules write
        for k, rule in enumerate(prog.rules):
            plan = _RulePlan(k, rule, produced, marked, table if writers[rule.head_tag] > 1 else None)
            self.plans.append(plan)
            produced.add(rule.head_tag)
            if not plan.recurs:
                marked.add(rule.head_tag)

    def world(self, i: int) -> Bag:
        world = self.base
        for plan in self.plans:
            world = world.merged(plan.fire(world, self.seed, i, self.gen))
        return world


# ---------------------------------------------------------------------------
# Rule-program text format


def parse_rules(text: str) -> RuleProgram:
    """One rule per line: ``head_tag(term, ...) <- atom, ..., guard, ...``.
    Terms are variables, literals, or bernoulli/normal/poisson draws with
    variable or numeric parameters.  The text is tokenized once by
    ``dsl.tokenize``, which skips blank lines and ``#`` comments; a rule
    is the run of tokens on one line."""
    tokens = tokenize(text)
    rules: list[Rule] = []
    start = 0
    while tokens[start].kind != "EOF":
        end = start
        while tokens[end].kind != "EOF" and tokens[end].line == tokens[start].line:
            end += 1
        last = tokens[end - 1]
        eof = Token("EOF", None, last.line, last.end, last.end)
        rules.append(_RuleParser(tokens[start:end] + [eof]).parse_rule())
        start = end
    return RuleProgram(tuple(rules))


class _RuleParser(_Parser):
    """One rule, on the query parser's plumbing and literal grammar."""

    def parse_rule(self) -> Rule:
        head_tag = str(self.expect("IDENT", what="a head tag").value)
        self.expect("LPAREN")
        head_terms = self.items(self.parse_term, "RPAREN")
        self.expect("ARROW", what="'<-'")
        atoms: list[Atom] = []
        guards: list[Guard] = []
        if self.peek().kind != "EOF":
            self.parse_body_item(atoms, guards)
            while self.peek().kind == "COMMA":
                self.next()
                self.parse_body_item(atoms, guards)
        self.expect("EOF", what="end of rule")
        return Rule(head_tag, tuple(head_terms), tuple(atoms), tuple(guards))

    def parse_body_item(self, atoms: list[Atom], guards: list[Guard]) -> None:
        if self.peek().kind == "IDENT" and self.peek(1).kind == "LPAREN" \
                and self.peek().value not in ("true", "false", "null", "inf"):
            tag = str(self.next().value)
            self.next()  # (
            atoms.append(Atom(tag, tuple(self.items(self.parse_simple_term, "RPAREN"))))
            return
        left = self.parse_simple_term()
        t = self.peek()
        if t.kind != "OP" or t.value not in ("=", "!=", "<", "<=", ">", ">="):
            raise self.error("expected a comparison operator in guard")
        self.next()
        right = self.parse_simple_term()
        guards.append(Guard(str(t.value), left, right))

    def parse_term(self) -> Term:
        t = self.peek()
        if t.kind == "IDENT" and self.peek(1).kind == "LPAREN":
            kind = str(t.value)
            if kind not in _DIST_ARITY:
                raise self.error(f"unknown distribution {kind!r}", tuple(_DIST_ARITY))
            self.next()
            self.next()  # (
            params: list[SimpleTerm] = [self.parse_simple_term()]
            while self.peek().kind == "COMMA":
                self.next()
                params.append(self.parse_simple_term())
            self.expect("RPAREN")
            return DistT(kind, tuple(params))
        return self.parse_simple_term()

    def parse_simple_term(self) -> SimpleTerm:
        v = self.scalar()
        if v is not None:
            return ConstT(v)
        t = self.peek()
        if t.kind == "IDENT":
            self.next()
            return VarT(str(t.value))
        raise self.error("expected a variable or literal")
