"""Command-line front end.

Three subcommands: ``query`` evaluates a deterministic query over JSONL
tables, ``generate`` runs a generative rule program and emits worlds
(exact weights or Monte-Carlo samples), ``estimate`` pushes a query
through sampled worlds and reports a statistic.  This module loads only
the values and bags it reads tables into; each command imports the
modules it runs.  ``query`` loads the query engine (``algebra`` and
``dsl``), ``generate`` the probabilistic layer (``prob`` and
``pbmonad``, which reads rule programs with ``lex``), and ``estimate``
both.  ``estimate`` folds the query results in one loop into the
accumulator of its statistic (see ``STATS``) and finishes it once.  All
output is deterministic given inputs, seed and flags, and all-or-nothing:
it is written only after the last step that can fail.  ``--workers`` is
validated but worlds are generated sequentially, so it cannot change
results.

Exit codes: 0 ok, 1 usage, 2 parse error, 3 type/schema error,
4 resource limit, 5 infinite-support request on the exact backend.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .bags import EMPTY, Bag
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
    typecheck,  # not called here; perfbench/probe.py wraps ``cli.typecheck`` by name
    unify_schema,
)

if TYPE_CHECKING:
    from .algebra import Query

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
    """Read one JSONL file: a Value per line.  The row schema is the
    unification of the rows' inferred schemas, which every row inhabits."""
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
        try:  # a nested row's own elements may not unify either
            s = infer_schema(v)
            schema = s if schema is None else unify_schema(schema, s)
        except SchemaError as e:
            raise SchemaError(f"{path.name}:{lineno}: {e}") from None
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

# ``dsl.parse``, ``dsl.check``, ``algebra.eval_query`` and
# ``pbmonad.run_rule_program``, each imported on its first call.  They are
# functions of this module rather than imports, so that a command loads
# only the modules it runs, and ``perfbench/probe.py`` can still replace
# ``cli.parse``, ``cli.check``, ``cli.eval_query`` and
# ``cli.run_rule_program`` to trace them.


def parse(text: str) -> Query:
    from .dsl import parse

    return parse(text)


def check(q: Query, catalog: Mapping[str, Optional[Schema]]) -> Schema:
    from .dsl import check

    return check(q, catalog)


def eval_query(q: Query, env: Mapping[str, Bag]) -> Value:
    from .algebra import eval_query

    return eval_query(q, env)


def run_rule_program(prog, b: Bag, backend: str, seed=None):
    from .pbmonad import run_rule_program

    return run_rule_program(prog, b, backend, seed=seed)


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


def cmd_generate(args) -> int:
    from .pbmonad import PBSampler, parse_rules
    from .prob import ExactDist, Seed

    catalog = load_catalog(args.db)
    prog = parse_file(Path(args.program), parse_rules)
    base = _merged_input(catalog)
    if args.backend == "exact":
        # the collector stays paused, as in run_rule_program, while the
        # world texts are built as they are written
        enabled = gc.isenabled()
        gc.disable()
        try:
            dist = run_rule_program(prog, base, "exact")
            assert isinstance(dist, ExactDist)
            _emit(args.output, _exact_payload(dist.entries, base))
        finally:
            if enabled:
                gc.enable()
    else:
        seed = Seed(args.seed)
        sampler = run_rule_program(prog, base, "mc", seed=seed)
        assert isinstance(sampler, PBSampler)
        worlds = (sampler.world(i) for i in range(args.samples))
        _emit(args.output, _mc_payload(worlds, base, args.samples, args.seed))
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
    empty, add, finish = STATS[args.stat]
    acc = empty()
    for r in pushforward(ast, (sampler.world(i) for i in range(n)), WORLD_TABLE):
        add(acc, r)
    _emit(args.output, {"stat": args.stat, "samples": n, "seed": args.seed, **finish(acc, n)})
    return 0


def _add_present(tally: Counter, r: Value) -> None:
    tally.update(set(r.bag.elements) if isinstance(r, BagV) else (r,))


def _add_whole(tally: Counter, r: Value) -> None:
    tally[r] += 1


def _finish_tally(tally: Counter, n: int) -> dict:
    """One row per value in canonical order: its share p of the n worlds,
    and three standard errors of p."""
    shares = [(v, tally[v] / n) for v in sorted(tally, key=lambda v: v.key)]
    return {"results": [{"value": to_json(v), "p": p, "ci3": 3.0 * math.sqrt(p * (1.0 - p) / n)} for v, p in shares]}


def _add_numbers(nums: list[float], r: Value) -> None:
    for el in r.bag.elements if isinstance(r, BagV) else (r,):
        if not isinstance(el, (Int, Real)):
            raise EngineTypeError(f"mean statistic needs numeric results, got {el!r}")
        try:
            nums.append(float(el.value))
        except OverflowError:
            raise EngineTypeError(f"mean statistic needs numbers that fit a float, got {el!r}") from None


def _finish_mean(nums: list[float], n: int) -> dict:
    if not nums:
        raise EngineTypeError("mean statistic over no numeric data")
    count = len(nums)
    try:
        mean = math.fsum(nums) / count
    except (OverflowError, ValueError):  # a partial sum past the float range, or inf and -inf
        mean = _extended_mean(nums)
    try:
        var = math.fsum((x - mean) ** 2 for x in nums) / (count - 1) if count > 1 else 0.0
    except OverflowError:  # a squared deviation past the float range
        stddev = _scaled_stddev(nums, mean)
    else:
        if math.isnan(var):  # inf - inf in a deviation from an infinite mean
            raise EngineTypeError("mean statistic of infinite numbers has no stddev")
        stddev = math.sqrt(var)
    ci3 = 3.0 * stddev / math.sqrt(count)
    if math.isinf(ci3):  # 3 * stddev past the float range
        ci3 = stddev / math.sqrt(count) * 3.0
        if math.isinf(ci3):
            raise EngineTypeError("mean statistic overflows a float")
    return {"n": count, "mean": mean, "stddev": stddev, "ci3": ci3}


def _extended_mean(nums: list[float]) -> float:
    """The mean of ``nums`` in the extended reals, for where ``math.fsum``
    raises: whether one of its partial sums overflows depends on the order
    of the numbers.  A sum that fits a float is rounded once and divided,
    as where ``fsum`` returns, so the mean depends only on the numbers,
    not their order; a sum past the float range is divided exactly."""
    infinities = {x for x in nums if math.isinf(x)}
    if len(infinities) > 1:
        raise EngineTypeError("mean statistic of inf and -inf is undefined")
    if infinities:
        return infinities.pop()
    from fractions import Fraction  # only on this rare path: it loads decimal

    total = sum(map(Fraction, nums))
    try:
        return float(total) / len(nums)
    except OverflowError:
        return float(total / len(nums))


def _scaled_stddev(nums: list[float], mean: float) -> float:
    """The sample stddev of finite ``nums`` whose squared deviations pass
    the float range: each deviation is taken of halves, so that none
    overflows, and divided by the largest before it is squared."""
    devs = [x / 2 - mean / 2 for x in nums]
    scale = max(map(abs, devs))
    stddev = scale * math.sqrt(math.fsum((d / scale) ** 2 for d in devs) / (len(nums) - 1)) * 2
    if math.isinf(stddev):
        raise EngineTypeError("mean statistic overflows a float")
    return stddev


# The statistics by --stat name, each a fold over the query results of n
# worlds: (empty accumulator, add one result, finish with n into payload
# fields).  Accumulators are Counters or lists, so those of any split of the
# results merge with +=, and finish gives the same fields whatever order
# the results were added in.
STATS = {
    "tuple-prob": (Counter, _add_present, _finish_tally),
    "mean": (list, _add_numbers, _finish_mean),
    "dist": (Counter, _add_whole, _finish_tally),
}


# ---------------------------------------------------------------------------
# Output: the bytes of json.dumps(payload, sort_keys=True) + "\n", in pieces

_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(..., sort_keys=True)


class _Texts:
    """A JSON array given by the texts of its items, which may be produced
    while the output is written."""

    def __init__(self, items: Iterable[str]):
        self.items = items


# the most element texts a writer's memo keeps, as many as a rule plan's
# row cache (pbmonad._CACHE_CAP): it bounds what the memo holds when every
# draw is new, as with a normal draw
_MEMO_CAP = 4096


def _bag_text(b: Bag, memo: dict) -> str:
    """Text of ``{"bag": [...]}`` for ``b``.  Element texts are looked up in
    ``memo`` by object identity, as ``id -> (element, text)``: holding the
    element keeps its id from being reused while the entry lives.  A new
    element's entry is added while ``memo`` holds fewer than ``_MEMO_CAP``."""
    get = memo.get
    parts = []
    for e in b.elements:
        hit = get(id(e))
        if hit is None:
            hit = (e, json_text(e))
            if len(memo) < _MEMO_CAP:
                memo[id(e)] = hit
        parts.append(hit[1])
    return '{"bag": [' + ", ".join(parts) + "]}"


def _exact_payload(entries, rows: Iterable[Value]) -> dict:
    """Output of ``generate --backend exact``; each world is encoded as it is
    written.  Nearly every element is the same object in many worlds: the
    input rows, whose texts start the memo, however many, and recurring
    heads, of which the program's one head table keeps one object per
    value, and which the memo keeps up to its cap.  So each is encoded
    once."""
    memo = {id(e): (e, json_text(e)) for e in rows}
    worlds = ('{"weight": ' + _ENCODER.encode(w) + ', "world": ' + _bag_text(v.bag, memo) + "}"
              for v, w in entries)
    return {"backend": "exact", "worlds": _Texts(worlds)}


def _mc_payload(worlds: Iterable[Bag], rows: Iterable[Value], samples: int, seed: int) -> dict:
    """Output of ``generate --backend mc``.  Each world is encoded as it
    arrives and then let go; the texts are kept, because a later world may
    still raise.  Elements are encoded through a memo as in the exact
    writer."""
    memo = {id(e): (e, json_text(e)) for e in rows}
    texts = [_bag_text(w, memo) for w in worlds]
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
    e.add_argument("--stat", choices=tuple(STATS), default="tuple-prob")
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
    except KeyboardInterrupt:
        print("bagdb: interrupted", file=sys.stderr)
        return 130


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
