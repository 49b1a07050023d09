"""Seeded input generators and output checks for the bagdb benchmark.

Everything here is plain Python and does not import bagdb, so the checks
are independent of the engine they judge.  The same workload seed always
gives byte-identical input files.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path

# burglary.rules: a quake (p 0.1) triggers with 0.6, a burglary (p r) with 0.9.
QUAKE_P, QUAKE_TRIGGER, BURGLARY_TRIGGER = 0.1, 0.6, 0.9
GROSS_THRESHOLD = 200000000.0  # blockbusters.query


def _rows(path: Path, rows: list) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def town(rng: random.Random, houses: int, path: Path) -> dict:
    """A town of ``houses`` houses in max(1, houses // 10) cities.

    Crime chances are stratified draws in (0.05, 0.65), shuffled over the
    cities.  With several cities the draws are centred so that they always
    add up to the same total: every seed gives a different town with the
    same expected amount of sampling work.  Houses are dealt to cities
    round-robin.
    """
    cities = max(1, houses // 10)
    u = [rng.random() for _ in range(cities)]
    centre = sum(u) / cities if cities > 1 else 0.5
    strata = [0.05 + 0.6 * (j + 0.5 + (x - centre) / 2) / cities for j, x in enumerate(u)]
    rng.shuffle(strata)
    chance = {f"C{j:03d}": round(r, 4) for j, r in enumerate(strata)}
    city_of = {f"H{i:04d}": f"C{i % cities:03d}" for i in range(houses)}
    rows = [{"tag": "address", "value": [h, c]} for h, c in city_of.items()]
    rows += [{"tag": "crimechance", "value": [c, r]} for c, r in chance.items()]
    _rows(path, rows)
    return {"houses": houses, "cities": cities, "rows": len(rows),
            "p_alarm": {h: alarm_p(chance[c]) for h, c in city_of.items()}}


def alarm_p(r: float) -> float:
    """Analytic marginal of alarm(h) for a house in a city of crime chance r."""
    return 1.0 - (1.0 - QUAKE_P * QUAKE_TRIGGER) * (1.0 - BURGLARY_TRIGGER * r)


def movies(rng: random.Random, n: int, path: Path) -> dict:
    """n movies, each with two distinct actors from a pool of n // 2 and
    one gross drawn log-uniformly from [1e7, 1e9)."""
    pool = [f"A{i:04d}" for i in range(max(2, n // 2))]
    cast, gross = [], []
    for m in range(n):
        movie = f"M{m:04d}"
        for actor in rng.sample(pool, 2):
            cast.append((actor, movie))
        gross.append((movie, round(10 ** rng.uniform(7.0, 9.0), 2)))
    rows = [{"tag": "cast", "value": list(c)} for c in cast]
    rows += [{"tag": "gross", "value": list(g)} for g in gross]
    rng.shuffle(rows)
    _rows(path, rows)
    return {"movies": n, "actors": len(pool), "rows": len(rows), "cast": cast, "gross": gross}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is right.


def check_estimate(stdout: bytes, spec: dict, samples: int) -> list[str]:
    out = json.loads(stdout)
    seen = Counter(r["value"] for r in out["results"])
    problems = [f"house {h} appears {k} times" for h, k in seen.items() if k != 1]
    for h in spec["p_alarm"].keys() - seen.keys():
        problems.append(f"house {h} missing")
    for r in out["results"]:
        p = spec["p_alarm"].get(r["value"])
        if p is None:
            problems.append(f"unknown house {r['value']!r}")
        elif abs(r["p"] - p) > 5.0 * math.sqrt(p * (1.0 - p) / samples):
            problems.append(f"house {r['value']}: p-hat {r['p']} vs analytic {p}")
    return problems


def check_exact(stdout: bytes, spec: dict) -> list[str]:
    out = json.loads(stdout)
    total = math.fsum(w["weight"] for w in out["worlds"])
    problems = [] if abs(total - 1.0) <= 1e-9 else [f"weights sum to {total!r}"]
    marginal = dict.fromkeys(spec["p_alarm"], 0.0)
    for w in out["worlds"]:
        alarmed = {e["value"] for e in w["world"]["bag"] if e.get("tag") == "alarm"}
        for h in alarmed:
            marginal[h] += w["weight"]
    for h, p in spec["p_alarm"].items():
        if abs(marginal[h] - p) > 1e-9:
            problems.append(f"house {h}: marginal {marginal[h]!r} vs analytic {p!r}")
    return problems


def check_join(stdout: bytes, spec: dict) -> list[str]:
    grossing = {m for m, g in spec["gross"] if g >= GROSS_THRESHOLD}
    want = Counter(actor for actor, movie in spec["cast"] if movie in grossing)
    got = Counter(json.loads(stdout)["bag"])
    if got == want:
        return []
    return [f"join differs: {sum((got - want).values())} extra, {sum((want - got).values())} missing rows"]
