"""Command-line front end.

Three subcommands: ``query`` evaluates a deterministic query over JSONL
tables, ``generate`` runs a generative rule program and emits worlds
(exact weights or Monte-Carlo samples), ``estimate`` pushes a query
through sampled worlds and reports a statistic.  ``query`` loads only the
deterministic modules (``values``, ``bags``, ``algebra``, ``dsl``);
``generate`` and ``estimate`` also import the probabilistic layer
(``prob`` and ``pbmonad``) when they start.  All output is
deterministic given inputs, seed and flags, and all-or-nothing: it is
written only after the last step that can fail.  ``--workers`` is validated
but worlds are generated sequentially, so it cannot change results.

Exit codes: 0 ok, 1 usage, 2 parse error, 3 type/schema error,
4 resource limit, 5 infinite-support request on the exact backend.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Optional

from .algebra import eval_query
from .bags import EMPTY, Bag
from .dsl import check, parse
from .errors import (
    EngineError,
    EngineTypeError,
    NotFiniteError,
    ParseError,
    ResourceLimitError,
    SchemaError,
    WorldEvalError,
)
from .values import (
    BagV,
    Int,
    Real,
    Schema,
    Value,
    deserialize,
    infer_schema,
    json_text,
    to_json,
    typecheck,
    unify_schema,
)

WORLD_TABLE = "world"


# ---------------------------------------------------------------------------
# Ingestion


def read_text(path: Path) -> str:
    """The text of a UTF-8 file, with newlines read as text mode reads them.
    A byte sequence that is not UTF-8 is a parse error naming the file and
    the offset of its first byte."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path.name}: invalid UTF-8 (byte {e.start})", data.count(b"\n", 0, e.start) + 1,
                         e.start - data.rfind(b"\n", 0, e.start)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_file(path: Path, parse_text):
    """``parse_text`` of the text of a query or rule program file.  A parse
    error names the file, as a table's does."""
    text = read_text(path)
    try:
        return parse_text(text)
    except ParseError as e:
        raise ParseError(f"{path.name}: {e.message}", e.line, e.column, e.expected) from None


def load_table(path: Path) -> tuple[Optional[Schema], Bag]:
    """Read one JSONL file: a Value per line.  The row schema is inferred
    from all rows, then every row is checked against it."""
    rows: list[Value] = []
    schema: Optional[Schema] = None
    text = read_text(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():  # a JSON error's column counts from the start of the line
            continue
        try:
            v = deserialize(line)
        except ParseError as e:
            raise ParseError(f"{path.name}: {e.message}", lineno, e.column) from None
        except EngineTypeError as e:
            raise SchemaError(f"{path.name}:{lineno}: {e}") from None
        rows.append(v)
        s = infer_schema(v)
        try:
            schema = s if schema is None else unify_schema(schema, s)
        except SchemaError as e:
            raise SchemaError(f"{path.name}:{lineno}: {e}") from None
    if schema is not None:
        for v in rows:
            if not typecheck(v, schema):
                raise SchemaError(f"{path.name}: row {v!r} does not match the inferred schema")
    return schema, Bag.of(rows)


def load_catalog(paths: list[str]) -> dict[str, tuple[Optional[Schema], Bag]]:
    catalog: dict[str, tuple[Optional[Schema], Bag]] = {}
    for p in paths:
        path = Path(p)
        name = path.stem
        if name in catalog:
            raise EngineTypeError(f"duplicate table name {name!r} from {p}")
        catalog[name] = load_table(path)
    return catalog


# ---------------------------------------------------------------------------
# Subcommands


def cmd_query(args) -> int:
    catalog = load_catalog(args.db)
    ast = parse_file(Path(args.query), parse)
    check(ast, {name: schema for name, (schema, _) in catalog.items()})
    result = eval_query(ast, {name: bag for name, (_, bag) in catalog.items()})
    _emit(args.output, to_json(result))
    return 0


def _merged_input(catalog) -> Bag:
    merged = EMPTY
    for _, bag in catalog.values():
        merged = merged.uplus(bag)
    return merged


def run_rule_program(prog, b: Bag, backend: str, seed=None):
    """``pbmonad.run_rule_program``, imported on the first call.  A function
    of this module rather than an import, so that ``query`` never loads
    ``pbmonad`` and ``perfbench/probe.py`` can still replace
    ``cli.run_rule_program`` to count the worlds each backend builds."""
    from .pbmonad import run_rule_program

    return run_rule_program(prog, b, backend, seed=seed)


def cmd_generate(args) -> int:
    from .pbmonad import PBSampler, parse_rules
    from .prob import ExactDist, Seed

    catalog = load_catalog(args.db)
    prog = parse_file(Path(args.program), parse_rules)
    base = _merged_input(catalog)
    if args.backend == "exact":
        dist = run_rule_program(prog, base, "exact")
        assert isinstance(dist, ExactDist)
        payload = _exact_payload(dist.entries)
    else:
        seed = Seed(args.seed)
        sampler = run_rule_program(prog, base, "mc", seed=seed)
        assert isinstance(sampler, PBSampler)
        worlds = (sampler.world(i) for i in range(args.samples))
        payload = _mc_payload(worlds, base, args.samples, args.seed)
    _emit(args.output, payload)
    return 0


def cmd_estimate(args) -> int:
    from .pbmonad import PBSampler, parse_rules
    from .prob import Seed, pushforward

    catalog = load_catalog(args.db)
    prog = parse_file(Path(args.program), parse_rules)
    ast = parse_file(Path(args.query), parse)
    check(ast, {WORLD_TABLE: None})
    seed = Seed(args.seed)
    sampler = run_rule_program(prog, _merged_input(catalog), "mc", seed=seed)
    assert isinstance(sampler, PBSampler)
    n = args.samples
    results = pushforward(ast, (sampler.world(i) for i in range(n)), WORLD_TABLE)
    payload = {"stat": args.stat, "samples": n, "seed": args.seed}
    if args.stat == "tuple-prob":
        payload["results"] = _stat_tuple_prob(results, n)
    elif args.stat == "mean":
        payload.update(_stat_mean(results))
    else:
        payload["results"] = _stat_dist(results, n)
    _emit(args.output, payload)
    return 0


def _ci3(phat: float, n: int) -> float:
    return 3.0 * math.sqrt(phat * (1.0 - phat) / n)


def _tally_rows(tally: dict[Value, int], n: int) -> list[dict]:
    """One row per value in canonical order: its share of the n worlds."""
    out = []
    for v in sorted(tally, key=lambda v: v.key):
        phat = tally[v] / n
        out.append({"value": to_json(v), "p": phat, "ci3": _ci3(phat, n)})
    return out


def _stat_tuple_prob(results: Iterable[Value], n: int) -> list[dict]:
    presence: dict[Value, int] = {}
    for r in results:
        distinct = set(r.bag.elements) if isinstance(r, BagV) else {r}
        for v in distinct:
            presence[v] = presence.get(v, 0) + 1
    return _tally_rows(presence, n)


def _stat_mean(results: Iterable[Value]) -> dict:
    nums: list[float] = []
    for r in results:
        elems = r.bag.elements if isinstance(r, BagV) else (r,)
        for el in elems:
            if not isinstance(el, (Int, Real)):
                raise EngineTypeError(f"mean statistic needs numeric results, got {el!r}")
            try:
                nums.append(float(el.value))
            except OverflowError:
                raise EngineTypeError(f"mean statistic needs numbers that fit a float, got {el!r}") from None
    if not nums:
        raise EngineTypeError("mean statistic over no numeric data")
    count = len(nums)
    try:
        mean = math.fsum(nums) / count
        var = math.fsum((x - mean) ** 2 for x in nums) / (count - 1) if count > 1 else 0.0
    except OverflowError:
        raise EngineTypeError("mean statistic overflows a float") from None
    except ValueError:  # fsum of inf and -inf
        raise EngineTypeError("mean statistic of inf and -inf is undefined") from None
    if math.isnan(var):  # inf - inf in a deviation from an infinite mean
        raise EngineTypeError("mean statistic of infinite numbers has no stddev")
    stddev = math.sqrt(var)
    return {"n": count, "mean": mean, "stddev": stddev, "ci3": 3.0 * stddev / math.sqrt(count)}


def _stat_dist(results: Iterable[Value], n: int) -> list[dict]:
    tally: dict[Value, int] = {}
    for r in results:
        tally[r] = tally.get(r, 0) + 1
    return _tally_rows(tally, n)


# ---------------------------------------------------------------------------
# Output: the bytes of json.dumps(payload, sort_keys=True) + "\n", in pieces

_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(..., sort_keys=True)


class _Texts:
    """A JSON array given by the texts of its items, which may be produced
    while the output is written."""

    def __init__(self, items: Iterable[str]):
        self.items = items


def _bag_text(b: Bag, memo: dict, keep: bool) -> str:
    """Text of ``{"bag": [...]}`` for ``b``.  Element texts are looked up in
    ``memo`` by object identity, as ``id -> (element, text)``: holding the
    element keeps its id from being reused while the entry lives.  A new
    element's entry is added to ``memo`` only when ``keep``."""
    get = memo.get
    parts = []
    for e in b.elements:
        hit = get(id(e))
        if hit is None:
            hit = (e, json_text(e))
            if keep:
                memo[id(e)] = hit
        parts.append(hit[1])
    return '{"bag": [' + ", ".join(parts) + "]}"


def _exact_payload(entries) -> dict:
    """Output of ``generate --backend exact``; each world is encoded as it is
    written.  Nearly every element is the same object in many worlds (the
    input rows, and the heads that each rule plan's memo keeps one of per value), so each distinct
    element is encoded once."""
    memo: dict = {}
    worlds = ('{"weight": ' + _ENCODER.encode(w) + ', "world": ' + _bag_text(v.bag, memo, keep=True) + "}"
              for v, w in entries)
    return {"backend": "exact", "worlds": _Texts(worlds)}


def _mc_payload(worlds: Iterable[Bag], rows: Iterable[Value], samples: int, seed: int) -> dict:
    """Output of ``generate --backend mc``.  Each world is encoded as it
    arrives and then let go; the texts are kept, because a later world may
    still raise.  Only the texts of ``rows``, the input rows that every
    world shares, are kept from one world to the next."""
    memo = {id(e): (e, json_text(e)) for e in rows}
    texts = [_bag_text(w, memo, keep=False) for w in worlds]
    return {"backend": "mc", "samples": samples, "seed": seed, "worlds": _Texts(texts)}


def _emit(output: str, payload) -> None:
    """Write ``json.dumps(payload, sort_keys=True) + "\n"`` to ``output``
    ("-" is stdout).  ``payload`` is a JSON value, or a dict whose values may
    be ``_Texts``.  Everything but the ``_Texts`` items is encoded before the
    output is opened; those items must not raise."""
    try:
        if isinstance(payload, dict):
            pieces: list = []
            for k in sorted(payload):
                v = payload[k]
                pieces += [", " if pieces else "{", _ENCODER.encode(k), ": ",
                           v if isinstance(v, _Texts) else _ENCODER.encode(v)]
            pieces.append("}\n")
        else:
            pieces = [_ENCODER.encode(payload) + "\n"]
    except ValueError:  # an int longer than the interpreter converts to text
        raise EngineTypeError(
            f"result has an integer longer than {sys.get_int_max_str_digits()} digits, which cannot be printed"
        ) from None
    if output == "-":
        _write(sys.stdout, pieces)
    else:
        with open(output, "w", encoding="utf-8") as f:
            _write(f, pieces)


def _write(f, pieces: list) -> None:
    for p in pieces:
        if isinstance(p, _Texts):
            f.write("[")
            for j, t in enumerate(p.items):
                f.write(", " + t if j else t)
            f.write("]")
        else:
            f.write(p)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="bagdb", description="bag-semantics probabilistic database engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_db(p):
        p.add_argument("--db", action="append", required=True, metavar="FILE",
                       help="JSONL table file; the file stem is the table name (repeatable)")
        p.add_argument("--output", default="-", metavar="FILE|-", help="output path (default stdout)")

    q = sub.add_parser("query", help="evaluate a deterministic query")
    common_db(q)
    q.add_argument("--query", required=True, metavar="FILE")
    q.set_defaults(fn=cmd_query)

    g = sub.add_parser("generate", help="run a generative rule program")
    common_db(g)
    g.add_argument("--program", required=True, metavar="FILE")
    g.add_argument("--backend", choices=("exact", "mc"), default="exact")
    g.add_argument("--samples", type=int, default=1000, metavar="N")
    g.add_argument("--seed", type=int, default=0, metavar="U64")
    g.add_argument("--workers", type=int, default=1, metavar="K")
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("estimate", help="estimate a statistic of a query over sampled worlds")
    common_db(e)
    e.add_argument("--program", required=True, metavar="FILE")
    e.add_argument("--query", required=True, metavar="FILE",
                   help=f"query over the per-world table named {WORLD_TABLE!r}")
    e.add_argument("--samples", type=int, default=10000, metavar="N")
    e.add_argument("--seed", type=int, default=0, metavar="U64")
    e.add_argument("--stat", choices=("tuple-prob", "mean", "dist"), default="tuple-prob")
    e.add_argument("--workers", type=int, default=1, metavar="K")
    e.set_defaults(fn=cmd_estimate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if getattr(args, "samples", 1) < 1:
        print("bagdb: error: --samples must be at least 1", file=sys.stderr)
        return 1
    if not (0 <= getattr(args, "seed", 0) < 2**64):
        print("bagdb: error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 1
    if getattr(args, "workers", 1) < 1:
        print("bagdb: error: --workers must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except WorldEvalError as e:  # the world's message, the exit code of what failed in it
        print(f"bagdb: {e}", file=sys.stderr)
        return _exit_for(e.cause)[0]
    except EngineError as e:
        code, line = _exit_for(e)
        print("bagdb: " + line.format(e), file=sys.stderr)
        return code
    except RecursionError:
        print("bagdb: resource limit: input nested too deeply", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"bagdb: {e}", file=sys.stderr)
        return 1


# The exit code and stderr line of each kind of engine error, most specific first.
_EXITS: tuple[tuple[type, int, str], ...] = (
    (ParseError, 2, "parse error: {}"),
    (NotFiniteError, 5, "{} (hint: use --backend mc)"),
    (ResourceLimitError, 4, "resource limit: {}"),
    (EngineError, 3, "{}"),
)


def _exit_for(e: EngineError) -> tuple[int, str]:
    return next((code, line) for cls, code, line in _EXITS if isinstance(e, cls))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
