"""Independent verification: brute-force world enumeration for rule
programs, randomized commutativity checking, and binomial frequency gates.

Nothing here shares evaluation logic with the engine under test: the
world enumerator re-implements matching and drawing recursively with no
joins, no distribution objects, and no sharing, so agreement between the
two is meaningful evidence.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from bagdb.bags import Bag
from bagdb.errors import NotFiniteError, ProgramError
from bagdb.pbmonad import ConstT, DistT, Rule, RuleProgram
from bagdb.prob import ExactDist
from bagdb.values import UNIT, BagV, Int, Real, Tagged, Tuple, Unit, Value

A = TypeVar("A")


# ---------------------------------------------------------------------------
# Exhaustive world enumeration for rule programs


def enum_worlds(prog: RuleProgram, b: Bag) -> ExactDist:
    """Joint distribution over final worlds by naive recursion over every
    discrete draw combination.  Exponential and proud of it; use only on
    micro instances."""
    weights: dict[Value, float] = {}

    def run_rules(idx: int, world: Bag, p: float) -> None:
        if idx == len(prog.rules):
            key = BagV(world)
            weights[key] = weights.get(key, 0.0) + p
            return
        rule = prog.rules[idx]
        envs = _all_matches(rule, world)

        def per_match(midx: int, heads: list[Value], q: float) -> None:
            if midx == len(envs):
                run_rules(idx + 1, world.uplus(Bag.of(heads)), p * q)
                return
            for head, w in _head_outcomes(rule, envs[midx]):
                per_match(midx + 1, heads + [head], q * w)

        per_match(0, [], 1.0)

    run_rules(0, b, 1.0)
    return ExactDist.from_weights(weights)


def _all_matches(rule: Rule, world: Bag) -> list[dict[str, Value]]:
    out: list[dict[str, Value]] = []

    def match_atom(aidx: int, env: dict[str, Value]) -> None:
        if aidx == len(rule.atoms):
            if all(_guard_ok(g.op, _term_value(g.left, env), _term_value(g.right, env)) for g in rule.guards):
                out.append(env)
            return
        atom = rule.atoms[aidx]
        for row in world:
            if not (isinstance(row, Tagged) and row.tag == atom.tag):
                continue
            fields = row.value.items if isinstance(row.value, Tuple) else (row.value,)
            if not atom.args and isinstance(row.value, Unit):  # what a head with no terms writes
                fields = ()
            if len(fields) != len(atom.args):
                continue
            env2 = dict(env)
            if _unify(atom.args, fields, env2):
                match_atom(aidx + 1, env2)

    match_atom(0, {})
    return out


def _unify(args, fields, env: dict[str, Value]) -> bool:
    for arg, val in zip(args, fields):
        if isinstance(arg, ConstT):
            if arg.value != val:
                return False
        else:
            if arg.name in env:
                if env[arg.name] != val:
                    return False
            else:
                env[arg.name] = val
    return True


def _term_value(t, env: dict[str, Value]) -> Value:
    if isinstance(t, ConstT):
        return t.value
    return env[t.name]


def _guard_ok(op: str, a: Value, b: Value) -> bool:
    if isinstance(a, (Int, Real)) and isinstance(b, (Int, Real)):
        x, y = a.value, b.value
        c = (x > y) - (x < y)
    else:
        c = (a.key > b.key) - (a.key < b.key)
    return {"=": c == 0, "!=": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]


def _head_outcomes(rule: Rule, env: dict[str, Value]) -> list[tuple[Value, float]]:
    """Possible head values for one match; enumerates the draw support
    directly from the rule text."""
    prefix: list[Value] = []
    draw: Optional[tuple[int, DistT]] = None
    for i, t in enumerate(rule.head_terms):
        if isinstance(t, DistT):
            if draw is not None:
                raise ProgramError("more than one draw in a head")
            draw = (i, t)
            prefix.append(None)  # type: ignore[arg-type]
        else:
            prefix.append(_term_value(t, env))
    if draw is None:
        return [(_mk(rule.head_tag, prefix), 1.0)]
    pos, dist = draw
    if dist.kind != "bernoulli":
        raise NotFiniteError(f"{dist.kind} draw cannot be enumerated")
    pv = _term_value(dist.params[0], env)
    p = float(pv.value)  # type: ignore[union-attr]
    if not (0.0 <= p <= 1.0):
        raise ProgramError(f"bernoulli parameter {p} outside [0, 1]")
    res = []
    for z, w in ((Int(0), 1.0 - p), (Int(1), p)):
        if w == 0.0:
            continue
        parts = list(prefix)
        parts[pos] = z
        res.append((_mk(rule.head_tag, parts), w))
    return res


def _mk(tag: str, parts: Sequence[Value]) -> Value:
    if len(parts) == 0:
        return Tagged(tag, UNIT)
    if len(parts) == 1:
        return Tagged(tag, parts[0])
    return Tagged(tag, Tuple(tuple(parts)))


# ---------------------------------------------------------------------------
# Commutativity checking


def check_commutative(
    f: Callable[[Value, A], A],
    xs: Sequence[Value],
    accs: Sequence[A],
    trials: int = 200,
    rng: Optional[random.Random] = None,
) -> tuple[bool, Optional[tuple[Value, Value, A]]]:
    """Randomized search for f(x1, f(x2, y)) != f(x2, f(x1, y)).  Returns
    (True, None) or (False, witness triple)."""
    r = rng or random.Random(0)
    for _ in range(trials):
        x1 = r.choice(xs)
        x2 = r.choice(xs)
        y = r.choice(accs)
        if f(x1, f(x2, y)) != f(x2, f(x1, y)):
            return False, (x1, x2, y)
    return True, None


# ---------------------------------------------------------------------------
# Statistical gates


@dataclass(frozen=True)
class StatGate:
    n: int
    z: float = 3.0


@dataclass(frozen=True)
class GateReport:
    passed: bool
    # (value, empirical frequency, exact probability, tolerance)
    failures: tuple[tuple[Value, float, float, float], ...]


def gate(empirical: Mapping[Value, int], exact: ExactDist, g: StatGate) -> GateReport:
    """Per-support-point binomial test: |p̂ − p| ≤ z·sqrt(p(1−p)/n).
    Points with p = 0 (or 1) get zero tolerance, so any stray sample fails."""
    points = {v for v, _ in exact.entries} | set(empirical)
    failures = []
    for v in sorted(points, key=lambda v: v.key):
        p = exact.weight(v)
        phat = empirical.get(v, 0) / g.n
        tol = g.z * math.sqrt(p * (1.0 - p) / g.n)
        if abs(phat - p) > tol:
            failures.append((v, phat, p, tol))
    return GateReport(not failures, tuple(failures))


def tally(samples: Iterable[Value]) -> dict[Value, int]:
    out: dict[Value, int] = {}
    for s in samples:
        out[s] = out.get(s, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Exhaustive bag spaces for multiplicity oracles


def small_bags(points: Sequence[Value], max_size: int) -> Iterator[Bag]:
    """Every bag of size ≤ max_size over the given points, canonical."""
    pts = sorted(points, key=lambda v: v.key)
    for k in range(max_size + 1):
        for combo in combinations_with_replacement(pts, k):
            yield Bag(tuple(combo))


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
