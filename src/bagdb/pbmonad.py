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
does not match ``Real(1.0)``.  A match is its env, the tuple of values it
binds; its guard outcome, draw distribution and heads depend only on that
tuple, so a plan keeps them across worlds, keyed by it, for both backends.
What each plan keeps is decided once per tag, in ``_CompiledProgram``.
The exact backend applies a rule with a draw to a world as the Kleisli
extension through the distributive law, in product form: every choice of
one head option per match, added to the world, with the product of their
weights.  A rule without a draw needs no law: it is the functor P applied
to one function on bags, ``W -> W + H(W)`` for the heads ``H(W)`` of W's
matches, and that function is injective.  No rule reads its own head tag
(``validate_program``), so ``H(W)`` is read off the part of W that the
function leaves as it is, and bags cancel, so distinct worlds stay
distinct and no weights are summed.  The step maps each world to one
world, with its weight (``_map_rule_exact``).

Both backends step one world representation through the same plans: a
canonical world bag, never re-sorted.  A world's rows of one tag are one
run of its sorted elements, found by bisection (``tag_rows``), so a rule
reads only the runs of its body tags and writes only the run of its head
tag.  By the distributive law an mc world is one draw per match from the
head options that the exact step enumerates, so an mc rule step is the
exact map step with drawn heads: each adds its heads to their tag's run
with one splice (``bags.plus_run``), the mc step as a ``Bag`` and the
exact step as a world whose hash is the world's plus the heads'
(``_CompiledProgram.world``, ``_map_rule_exact``).  When an exact rule's
head options come in key order, each is placed in the world once and the
combinations are built from shared prefixes, so none is sorted;
otherwise each combination's heads are sorted into the one slice of the
world that they can reach (``_distr``).  Either way the heads' hashes are
added to the world's multiset hash, and each new world is built by
``bags.trusted_bagv``.  Every exact operation that can give equal values
passes its weighted values straight to ``ExactDist.from_weights``, the one
place where the weights of equal values are summed; the map step gives
none and only sorts its worlds (``ExactDist.from_distinct``).

An atom with no arguments matches the rows that a head with no terms
writes, ``tag()`` with a Unit payload, as well as an empty tuple payload.
The rule text format is read with ``lex``, the grammar it shares with
the query language: the whole program is tokenized once, a rule is the
tokens of one line, and its terms use the shared literal grammar.  Guards
compare through ``values.cmp_holds``, as query predicates do, so this
module loads neither ``algebra`` nor ``dsl``.
"""
from __future__ import annotations

import _random
import gc
from bisect import bisect_right
from itertools import chain
from itertools import product as iproduct
from math import prod
from operator import attrgetter, itemgetter, le
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

from .bags import EMPTY, Bag, plus_run, tag_rows, trusted_bagv, unit
from .errors import EngineTypeError, ProgramError, ResourceLimitError
from .lex import Token, _Parser, tokenize
from .node import Node
from .prob import (
    Bernoulli,
    ExactDist,
    Normal,
    Poisson,
    SamplerExpr,
    Seed,
    _world_bag,
    child_hasher,
    draw_from,
    exact_of,
    generator,
    normal_pair,
    poisson_draw,
    reseed,
    sample,
)
from .values import BagV, Int, Real, Tuple, Unit, Value, cmp_holds, tagged, tuple_parts

if TYPE_CHECKING:
    import hashlib

DEFAULT_WORLD_LIMIT = 10**6

_KEY = attrgetter("key")
_VALUE, _WEIGHT = itemgetter(0), itemgetter(1)

# The distributive law's input: for each element, its (value, weight) options.
Options = Sequence[Sequence[tuple[Value, float]]]


# ---------------------------------------------------------------------------
# Distributive law


def _distr(options: Options, base: Bag, weight: float) -> Iterator[tuple[Value, float]]:
    """The distributive law in product form: every choice of one option
    per element, in lexicographic order, added to ``base``, yielded as the
    resulting bag, ``Bag.of`` of base and values, with the weight
    ``weight * w1 * w2 * ...`` (multiplied left to right).  Equal bags
    are yielded once per combination, for ``ExactDist.from_weights`` to sum.
    A value goes after the base elements equal to it and after the equal
    values of earlier elements, as the stable sort leaves them, and the new
    bag's multiset hash is the base's plus its values' (``bags``).

    When the options, read in element order, are ordered by key, so is
    every combination, and nothing is sorted: each option is placed once,
    after the base elements whose keys are not above its own, and the
    combinations are built level by level, element by element, each prefix
    (its elements and keys up to its last value, hash and weight) shared by
    every combination that extends it.  An element with one option is a
    level of one option; if its weight is 1.0, it changes no weight bit.
    When the options are not ordered, only the base elements whose keys
    lie between the smallest and the largest option's can move: each
    combination sorts that slice with its values and splices it between the
    fixed ends.  A rule without a draw does not come here: it is a map
    (``_map_rule_exact``)."""
    if not all(options):  # an element without options: no combination
        return
    if not options:
        yield BagV(base), weight
        return
    elements, bkeys = base.elements, base.key
    h = hash(base)
    keys = [x.key for opts in options for x, _ in opts]
    if not all(map(le, keys, keys[1:])):
        lo = bisect_right(bkeys, min(keys))
        hi = bisect_right(bkeys, max(keys), lo)
        pre, mid, suf = elements[:lo], elements[lo:hi], elements[hi:]
        kpre, ksuf = bkeys[:lo], bkeys[hi:]
        for combo in iproduct(*options):
            xs = tuple(map(_VALUE, combo))
            moved = tuple(sorted(mid + xs, key=_KEY))
            yield (trusted_bagv(pre + moved + suf, kpre + tuple(map(_KEY, moved)) + ksuf, h + sum(map(hash, xs))),
                   prod(map(_WEIGHT, combo), start=weight))
        return
    # each option's place in the base: after the base elements not above it
    levels = [[(bisect_right(bkeys, x.key), (x,), (x.key,), hash(x), w) for x, w in opts] for opts in options]
    prefixes = [((), (), h, weight, 0)]  # elements and keys up to the last value, hash, weight, place
    *inner, last = levels
    for opts in inner:
        prefixes = [(pe + elements[q:p] + x, pk + bkeys[q:p] + k, s + hx, w * wx, p)
                    for pe, pk, s, w, q in prefixes for p, x, k, hx, wx in opts]
    tails = [(p, x + elements[p:], k + bkeys[p:], hx, wx) for p, x, k, hx, wx in last]
    for pe, pk, s, w, q in prefixes:
        for p, x, k, hx, wx in tails:
            yield trusted_bagv(pe + elements[q:p] + x, pk + bkeys[q:p] + k, s + hx), w * wx


def distr_exact(dists: Iterable[ExactDist]) -> ExactDist:
    """B(P(X)) -> P(B(X)): independent product of the element
    distributions, collected into bags.  Distributions are supplied as a
    sequence because they are not themselves data values; callers that
    start from a bag enumerate it in canonical order."""
    return ExactDist.from_weights(_distr([p.entries for p in dists], EMPTY, 1.0))


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
    def flattened(bv: Value) -> ExactDist:
        per_world = distr_exact([f(x) for x in _world_bag(bv, "pb_bind needs a distribution over bags")])
        return per_world.map(lambda b: BagV(b.bag.flatten()))  # type: ignore[union-attr]

    return ExactDist.from_weights((o, pw * po) for bv, pw in m.entries for o, po in flattened(bv).entries)


def pb_uplus(m1: ExactDist, m2: ExactDist) -> ExactDist:
    """Independent combination: convolution of world bags under uplus."""
    msg = "pb_uplus needs distributions over bags"
    return ExactDist.from_weights((BagV(_world_bag(a, msg).uplus(_world_bag(b, msg))), wa * wb)
                                  for a, wa in m1.entries for b, wb in m2.entries)


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
    for tag in deps:
        _visit(tag, (), deps, state)


def _visit(tag: str, trail: tuple[str, ...], deps: dict[str, dict[str, None]], state: dict[str, int]) -> None:
    # depth-first search for recursion through ``tag``, at module level: a
    # nested function that calls itself is a reference cycle
    if state.get(tag) == 2:
        return
    if state.get(tag) == 1:
        raise ProgramError(f"recursion detected through tag {tag!r} ({' -> '.join(trail + (tag,))})")
    state[tag] = 1
    for nxt in deps.get(tag, ()):
        _visit(nxt, trail + (tag,), deps, state)
    state[tag] = 2


def _no_fields(payload: Value) -> tuple[Value, ...]:
    """The fields of a payload as an atom with no arguments reads them: a
    Unit payload, which a head with no terms writes, has none."""
    return () if isinstance(payload, Unit) else tuple_parts(payload)


def _reader(t: SimpleTerm, slot_of: dict[str, int]) -> Callable[[tuple[Value, ...]], Value]:
    """A term compiled to a reader of env tuples: its constant, or the
    value in its variable's slot.  A plan compiles its terms in
    ``validate_program``'s order, so the first unbound name raises."""
    if isinstance(t, ConstT):
        return lambda env, value=t.value: value
    if t.name not in slot_of:
        raise ProgramError(f"unbound variable {t.name!r}")
    return itemgetter(slot_of[t.name])


def _dist_sampler(kind: str, values: Iterable[Value]) -> SamplerExpr:
    params: list[float] = []
    for v in values:
        if not isinstance(v, (Int, Real)):
            raise EngineTypeError(f"distribution parameter {v!r} is not numeric")
        try:
            params.append(float(v.value))
        except OverflowError:
            raise EngineTypeError(f"distribution parameter {v!r} does not fit a float") from None
    if kind == "bernoulli":
        return Bernoulli(params[0])
    if kind == "normal":
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
    built so far, draws once per match, and appends its heads.

    The exact backend holds one generation of worlds: each step is handed
    the previous step's entries and lets each world go as it enumerates
    it.  It pauses the cyclic collector, process-wide, and restores its
    earlier state on every exit: the worlds form no cycle, and each full
    pass would walk every live one.  Nothing is allocated between the
    restore and the return, so a caller that drops the result at once
    frees it before the collector can run."""
    validate_program(prog)
    if backend == "exact":
        enabled = gc.isenabled()
        gc.disable()
        try:
            dist = pb_unit_bag(b)
            for plan in _CompiledProgram(prog, b).plans:
                entries = list(dist.entries)
                del dist  # the step's list is now the only holder of the worlds
                dist = _apply_rule_exact(plan, entries, max_worlds)
            return dist
        finally:
            if enabled:
                gc.enable()
    if backend == "mc":
        if seed is None:
            raise EngineTypeError("the mc backend needs a seed")
        return PBSampler(_CompiledProgram(prog, b, seed).world)
    raise EngineTypeError(f"unknown backend {backend!r}; use exact or mc")


# ---------------------------------------------------------------------------
# Compiled rule programs (both backends)

# A match memo, a row cache and the head table each hold at most this many
# entries; a full one stores nothing new and still answers lookups.  Only
# recurring tags are cached (``_CompiledProgram``), but recurring rows can join
# into more distinct matches: pair(x, y) <- flip(x, 1), flip(y, 1) has n * n.
_CACHE_CAP = 4096


class _AtomPlan:
    """How one body atom joins against the tagged rows of its tag.

    A row is accepted when its payload has the atom's arity, equals each
    constant, and repeats a field wherever the atom repeats a variable; an
    atom with no arguments also accepts a Unit payload (``_no_fields``).
    Accepted rows go into buckets keyed by the fields of the variables
    that earlier atoms bound (the probe), in row order; an entry holds
    the values of the variables this atom binds first, a match's next env
    slots.  Fields compare by ``Value.key``, which is exactly ``Value``'s
    ``!=``: ``Int(1)`` does not match ``Real(1.0)``, nor ``0.0`` ``-0.0``.

    ``recurs`` is the program's entry for the tag (``_CompiledProgram``):
    ``None`` for an input tag, whose index the rule plan keeps.  Otherwise
    the atom is ``varying`` and read anew in every world, and if its tag's
    heads recur, through ``cache``, which maps a row, by value, to what
    the atom reads from it.  In a plan of more than one atom that is the
    row's entry, ``_REJECTED`` or the pair (probe key, bound values), and
    each world is indexed from it; the one atom of a plan maps the row
    straight to its match, the plan's ``_Match`` or ``_REJECTED``
    (``_RulePlan.matches``).
    """

    def __init__(self, atom: Atom, slot_of: dict[str, int], recurs: Optional[bool]):
        self.tag = atom.tag
        self.varying = recurs is not None
        self.cache: Optional[dict[Value, object]] = {} if recurs else None
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
    """One accepted match's memo entry: its env tuple and, once computed,
    the sampler of its draw, its heads per drawn value (key ``None``
    without a draw; kept only if they recur, so two at most) and options."""

    __slots__ = ("env", "sampler", "heads", "options")

    def __init__(self, env: Optional[tuple[Value, ...]]):
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
    whose guards hold.  A match is its env, the values it binds in slot
    order, which its head ``terms``, draw parameters and ``guards`` read
    (``_reader``), and what it yields depends only on its env: ``memo``
    maps the env itself to the match's ``_Match``, or to ``_REJECTED``
    when its guards fail.  What it keeps follows from the program's ``recurs``:
    a ``fresh`` rule reads a tag whose heads do not recur, so its memo has
    ``room`` 0; a rule that ``keeps`` reads only input tags and keeps the
    list that ``matches`` returns; and a rule whose heads recur
    (``recurs``) keeps them per match, one object per value through the
    program's head ``table``; any other rule keeps no head, so ``head`` and
    ``fire`` look none up and hash no drawn value.  A plan whose one atom
    has a row cache (``single``) maps each row through it straight to the
    row's match: one lookup per row, and on a miss the atom's entry, the
    memo and the guards, so rows with one env share one ``_Match`` (a
    zero-arity atom's Unit and ``()`` rows do).  Entries, their fields and
    the kept list are stored once computed without raising, so a world
    raises the same errors, in the same order, whatever earlier worlds have
    cached."""

    def __init__(self, k: int, rule: Rule, recurs: dict[str, bool],
                 table: Optional[dict[Value, Value]] = None):
        self.k = k
        self.rule = rule
        slot_of: dict[str, int] = {}
        self.atoms = [_AtomPlan(a, slot_of, recurs.get(a.tag)) for a in rule.atoms]
        self.names = tuple(slot_of)  # variables in env slot order
        self.terms = [(t.kind, [_reader(p, slot_of) for p in t.params]) if isinstance(t, DistT)
                      else _reader(t, slot_of) for t in rule.head_terms]
        self.guards = [(g.op, _reader(g.left, slot_of), _reader(g.right, slot_of)) for g in rule.guards]
        self.fixed_index: list[Optional[dict]] = [None] * len(self.atoms)
        self.dist = next((n for n, t in enumerate(rule.head_terms) if isinstance(t, DistT)), -1)
        self.memo: dict[tuple[Value, ...], _Match] = {}
        fresh = any(recurs.get(a.tag) is False for a in rule.atoms)  # new matches in every world
        self.room = 0 if fresh else _CACHE_CAP
        self.recurs = not fresh and (self.dist < 0 or rule.head_terms[self.dist].kind == "bernoulli")
        self.table = table if self.recurs else None
        self.keeps = not any(ap.varying for ap in self.atoms)
        self.kept: Optional[list[_Match]] = None
        self.single = len(self.atoms) == 1 and self.atoms[0].cache is not None

    def matches(self, world: Bag) -> list[_Match]:
        """The entries of the matches whose guards hold against a world
        bag, either backend's, in canonical order: each atom's rows in bag
        order, earlier atoms varying slowest.  An atom whose index is not
        kept reads its tag's run of the world (``tag_rows``)."""
        if self.kept is not None:
            return self.kept
        if self.single:  # the atom's row cache maps a row straight to its match
            ap, out = self.atoms[0], []
            cache: dict[Value, object] = ap.cache  # type: ignore[assignment]
            for row in tag_rows(world, ap.tag):
                m = cache.get(row)
                if m is None:
                    e = ap.entry(row)
                    m = e if e is _REJECTED else self.match(e[1])  # type: ignore[index]
                    if len(cache) < _CACHE_CAP:
                        cache[row] = m
                if m is not _REJECTED:
                    out.append(m)
            return out
        envs: list[tuple[Value, ...]] = [()]
        for n, ap in enumerate(self.atoms):
            index = self.fixed_index[n]
            if index is None:
                index = ap.index(tag_rows(world, ap.tag))
                if not ap.varying:
                    self.fixed_index[n] = index
            nxt = []
            for env in envs:  # the env loop stays outermost: earlier atoms vary slowest
                bucket = index.get(tuple([env[s].key for s in ap.slots]))
                if bucket:
                    nxt.extend([env + vals for vals in bucket])
            envs = nxt
        out = [m for m in map(self.match, envs) if m is not _REJECTED]
        if self.keeps:
            self.kept = out
        return out

    def match(self, env: tuple[Value, ...]) -> _Match:
        """The memo's entry for ``env``: its ``_Match``, or ``_REJECTED``
        when its guards fail."""
        m = self.memo.get(env) if self.room else None  # a fresh plan's memo stays empty
        if m is None:
            m = _Match(env) if all(cmp_holds(op, a(env), b(env)) for op, a, b in self.guards) else _REJECTED
            if len(self.memo) < self.room:
                self.memo[env] = m
        return m

    def sampler(self, m: _Match) -> SamplerExpr:
        if m.sampler is None:
            kind, params = self.terms[self.dist]  # type: ignore[misc]
            m.sampler = _dist_sampler(kind, [read(m.env) for read in params])
        return m.sampler

    def head(self, m: _Match, drawn: Optional[Value] = None) -> Value:
        h = m.heads.get(drawn) if self.recurs else None  # else none is kept: hash no fresh draw
        if h is None:
            parts = [drawn if n == self.dist else read(m.env)  # type: ignore[operator]
                     for n, read in enumerate(self.terms)]
            h = tagged(self.rule.head_tag, parts)  # type: ignore[arg-type]
            if self.table is not None:
                h = self.table.get(h, h) if len(self.table) >= _CACHE_CAP else self.table.setdefault(h, h)
            if self.recurs:
                m.heads[drawn] = h
        return h

    def options(self, world: Bag) -> Options:
        """The possible heads of each match of a rule with a draw, with
        their probabilities, in match order.  For each match the parameter
        check comes before the ``NotFiniteError`` of a continuous head."""
        out = []
        for m in self.matches(world):
            if m.options is None:
                m.options = [(self.head(m, z), w) for z, w in exact_of(self.sampler(m)).entries]
            out.append(m.options)
        return out

    def fire(self, world: Bag, prefix: "hashlib._Hash", i: int, gen: _random.Random) -> list[Value]:
        """The heads this rule adds to ``world``, mc world i so far, in
        match order.  Given ``prefix``, the hasher of seed/rule, the draw of
        match j reseeds ``gen`` to the stream of seed/(rule, i, j)."""
        matches = self.matches(world)
        if self.dist < 0 or not matches:
            return [self.head(m) for m in matches]
        world = child_hasher(prefix, i)  # raises for i >= 2**64, before a bad parameter
        # a match's sampler and heads, once kept, are read here rather than
        # through ``sampler`` and ``head``: this runs once per draw
        if not self.recurs:  # no heads are kept, so no draw is looked up
            return [self.head(m, draw_from(m.sampler or self.sampler(m), reseed(gen, world, j)))
                    for j, m in enumerate(matches)]
        return [m.heads.get(z := draw_from(m.sampler or self.sampler(m), reseed(gen, world, j)))
                or self.head(m, z) for j, m in enumerate(matches)]


def rule_matches(rule: Rule, bag: Bag) -> list[dict[str, Value]]:
    """The rule's matches against a canonical world as named envs, in
    canonical order (rows per atom in bag order, earlier atoms vary
    slowest), leaving out those whose guards fail: ``_RulePlan.matches``
    of a plan that no earlier rule feeds.  The position in this list is
    the match ordinal used for seed derivation.  An unbound variable
    raises ``ProgramError`` when the rule is compiled, whatever the bag."""
    plan = _RulePlan(0, rule, {})
    return [dict(zip(plan.names, m.env)) for m in plan.matches(bag)]


def _apply_rule_exact(plan: _RulePlan, entries: list[tuple[Value, float]], max_worlds: int) -> ExactDist:
    """One rule over every world of ``entries``.  A rule without a draw is
    a map (``_map_rule_exact``).  For a rule with a draw, each world's
    per-match head options, read through the plan's memo, go through the
    distributive law and are added to the world.  Every world is counted
    against ``max_worlds`` before any is enumerated, so the rule that trips
    the limit enumerates nothing.  Then ``entries`` is cleared and each
    world's bag is let go as soon as ``_distr`` has consumed it, so a
    caller that holds no other reference keeps one generation alive.  It
    runs inside ``run_rule_program``'s pause of the cyclic collector,
    which is process-wide and restored on exit."""
    if plan.dist < 0:
        return _map_rule_exact(plan, entries, max_worlds)
    todo: list[tuple[Options, Bag, float]] = []
    processed = 0
    for world_bv, pw in entries:
        options = plan.options(world_bv.bag)  # type: ignore[union-attr]
        processed += prod(map(len, options))
        if processed > max_worlds:
            raise _too_many_worlds(max_worlds)
        todo.append((options, world_bv.bag, pw))  # type: ignore[union-attr]
    entries.clear()
    todo.reverse()
    return ExactDist.from_weights(chain.from_iterable(_distr(*todo.pop()) for _ in range(len(todo))))


def _map_rule_exact(plan: _RulePlan, entries: list[tuple[Value, float]], max_worlds: int) -> ExactDist:
    """A rule without a draw over every world of ``entries``: each world
    maps to itself plus the heads of its matches, with its weight.  A
    world with no match is carried over as the same object.  The heads all
    carry the head tag, so they go into that tag's one run of the world
    (``bags.plus_run``, the splice of the mc step too), and the new
    world's hash is the world's plus the heads'.  The map is injective
    (module docstring), so the worlds are only sorted by key.  Each world
    counts once against ``max_worlds``, checked as it is reached, after
    its heads.  The worlds are popped from ``entries``, so each is let go
    once its successor is built and a caller that holds no other
    reference keeps one generation alive."""
    tag = plan.rule.head_tag
    out: list[tuple[Value, float]] = []
    entries.reverse()
    for _ in range(len(entries)):
        world, w = entries.pop()
        bag = world.bag  # type: ignore[attr-defined]
        heads = [m.heads.get(None) or plan.head(m) for m in plan.matches(bag)]
        if len(out) >= max_worlds:
            raise _too_many_worlds(max_worlds)
        if heads:
            world = trusted_bagv(*plus_run(bag, tag, heads), hash(bag) + sum(map(hash, heads)))
        out.append((world, w))
    return ExactDist.from_distinct(out)


def _too_many_worlds(max_worlds: int) -> ResourceLimitError:
    return ResourceLimitError(f"exact enumeration exceeds {max_worlds} worlds; rerun with the mc backend")


class _CompiledProgram:
    """A rule program compiled once: the exact backend steps every world
    through its plans, and ``world(i)`` samples mc world i by stepping the
    input bag, ``base``, through them.

    An mc world is a canonical bag, as an exact world is: it starts as the
    input bag, and each rule matches against the world so far and adds its
    drawn heads to the run of its head tag (``bags.plus_run``, the splice
    of the exact map step), so a world that raises leaves nothing behind.
    The hasher of each rule's seed prefix, seed/rule, is computed here,
    once per program.

    What the plans keep is decided once per tag, in program order, by
    ``recurs``: each head tag written so far maps to whether its heads
    recur across worlds, which holds while every rule that writes it has
    no draw or a ``bernoulli`` draw and reads no tag whose heads do not
    recur (a ``normal`` draw is new in every world, and a ``poisson`` draw
    has unbounded support).  An input tag, absent from the map, keeps its
    atom indexes, and a rule that reads only input tags keeps its match
    list.  A recurring tag keeps row caches, heads and a memo: its atoms
    index each world from a row cache, the rules that read it keep a
    memo, and every rule whose heads recur keeps them per match and shares
    the program's one head ``table``, so equal heads are one object,
    whichever rule wrote them.  A tag that does not recur keeps nothing.

    With a seed, the program owns one generator, ``gen``, that every draw
    reseeds to its own stream and reads only until it returns: no state
    carries from one draw to the next, but one world is sampled at a time."""

    def __init__(self, prog: RuleProgram, b: Bag, seed: Optional[Seed] = None):
        self.gen = None if seed is None else generator()
        self.plans: list[_RulePlan] = []
        recurs: dict[str, bool] = {}
        table: dict[Value, Value] = {}
        for k, rule in enumerate(prog.rules):
            plan = _RulePlan(k, rule, recurs, table)
            self.plans.append(plan)
            recurs[rule.head_tag] = plan.recurs and recurs.get(rule.head_tag, True)
        self.prefixes = None if seed is None else [seed.child(k).hasher() for k in range(len(self.plans))]
        self.base = b

    def world(self, i: int) -> Bag:
        world = self.base
        for plan, prefix in zip(self.plans, self.prefixes):  # type: ignore[arg-type]
            heads = plan.fire(world, prefix, i, self.gen)  # type: ignore[arg-type]
            if heads:
                world = Bag(*plus_run(world, plan.rule.head_tag, heads))
        return world


# ---------------------------------------------------------------------------
# Rule-program text format


def parse_rules(text: str) -> RuleProgram:
    """One rule per line: ``head_tag(term, ...) <- atom, ..., guard, ...``.
    Terms are variables, literals, or bernoulli/normal/poisson draws with
    variable or numeric parameters.  The text is tokenized once by
    ``lex.tokenize``, which skips blank lines and ``#`` comments; a rule
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
    """One rule, on ``lex``'s token plumbing and literal grammar."""

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
