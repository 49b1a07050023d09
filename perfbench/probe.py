"""In-process measurements for the bagdb benchmark, run in a fresh child
interpreter with the checkout's ``src`` first on ``sys.path``.

    python3 probe.py setup PLAN            do the command's set-up, then exit
    python3 probe.py ops PLAN              time units of work on request
    python3 probe.py main PLAN TRACED OUT  run bagdb.cli.main(argv) once,
                                           with spans when TRACED is 1

PLAN is the JSON file written by run.py.  A unit of work is what the
command repeats: one mc world plus its query, one query, or one exact
enumeration.  Spans are recorded from here, around the public entry
points of each bagdb module; nothing inside bagdb is changed on disk.
"""
from __future__ import annotations

import gzip
import hashlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import speed

BATCH_S = 0.02


class Setup:
    """What the command does before its first unit of work, then the unit."""

    def __init__(self, plan: dict):
        from bagdb.algebra import eval_query
        from bagdb.bags import EMPTY
        from bagdb.cli import WORLD_TABLE, load_catalog
        from bagdb.dsl import check, parse
        from bagdb.pbmonad import parse_rules, run_rule_program
        from bagdb.prob import Seed

        self.kind = plan["kind"]
        self.eval_query, self.run_rule_program = eval_query, run_rule_program
        catalog = load_catalog(plan["db"])
        if self.kind == "query":
            self.ast = parse(Path(plan["query"]).read_text(encoding="utf-8"))
            check(self.ast, {name: schema for name, (schema, _) in catalog.items()})
            self.env = {name: bag for name, (_, bag) in catalog.items()}
            return
        self.prog = parse_rules(Path(plan["program"]).read_text(encoding="utf-8"))
        self.base = EMPTY
        for _, bag in catalog.values():
            self.base = self.base.uplus(bag)
        if self.kind == "estimate":
            self.ast = parse(Path(plan["query"]).read_text(encoding="utf-8"))
            check(self.ast, {WORLD_TABLE: None})
            self.table = WORLD_TABLE
            self.sampler = run_rule_program(self.prog, self.base, "mc", seed=Seed(plan["seed"]))

    def unit(self, i: int) -> None:
        if self.kind == "estimate":
            self.eval_query(self.ast, {self.table: self.sampler.world(i)})
        elif self.kind == "query":
            self.eval_query(self.ast, self.env)
        else:
            self.run_rule_program(self.prog, self.base, "exact")


def ops(plan: dict) -> None:
    """Serve timing requests: each stdin line is a budget in seconds; run
    units of work until it is spent (at least one) and answer with one JSON
    line of latencies, raw and at the reference speed.  Units run in batches
    of about 20 ms with a calibration loop before and after each batch (see
    speed.py).  Staying alive between requests lets the caller interleave
    these units with its other measurements."""
    s = Setup(plan)
    s.unit(0)  # warm-up, not timed: fills lazy caches such as Value.key
    speed.loop_s()
    i = 1
    for line in sys.stdin:
        raw, ms, failed = [], [], 0
        deadline = time.perf_counter() + float(line)
        while not (raw or failed) or time.perf_counter() < deadline:
            batch, before = [], speed.loop_s()
            batch_end = time.perf_counter() + BATCH_S
            while not batch or time.perf_counter() < batch_end:
                t0 = time.perf_counter()
                try:
                    s.unit(i)
                except Exception as e:  # a failed unit is reported, not fatal
                    failed += 1
                    print(f"unit {i} failed: {e!r}", file=sys.stderr)
                    break
                finally:
                    i += 1
                batch.append(time.perf_counter() - t0)
            after = speed.loop_s()
            raw += [1e3 * t for t in batch]
            ms += [1e3 * speed.normalise(t, before, after) for t in batch]
        print(json.dumps({"raw_ms": raw, "ms": ms, "failed": failed}), flush=True)


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, op].

    ``parent`` is the index of the enclosing span (-1 at the top), and
    ``op`` is shared by all spans of one unit of work (0 outside units).
    Counts are kept at the same boundaries as the spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.ops = 0

    def wrap(self, name, fn, count=None, unit=lambda args: False):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            op = spans[parent][4] if parent >= 0 else 0
            if op == 0 and unit(args):
                self.ops += 1
                op = self.ops
            rec = [name, 0, 0, parent, op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def self_ns(self) -> Counter:
        """Self time per span name: duration minus the time of its children."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            out[name] += t1 - t0 - c
        return out


def install(tr: Tracer):
    """Wrap each module's public entry points where their callers look
    them up.  Returns the wrapped ``bagdb.cli.main``."""
    import bagdb.algebra as algebra
    import bagdb.cli as cli
    import bagdb.pbmonad as pbmonad
    from bagdb.bags import Bag
    from bagdb.prob import ExactDist, Seed
    from bagdb.values import BagV

    def add(key, f):
        def count(c, args, result):
            c[key] += f(args, result)
        return count

    def result_rows(c, args, result):
        c["algebra.eval_query.result_rows"] += len(result.bag) if isinstance(result, BagV) else 1

    def select_rows(c, args, result):
        c["algebra.select.rows_in"] += len(args[1])
        c["algebra.select.rows_out"] += len(result)

    eval_query = tr.wrap("algebra.eval_query", algebra.eval_query, result_rows, unit=lambda a: True)
    cli.eval_query = algebra.eval_query = eval_query
    algebra.q_product = tr.wrap("algebra.product", algebra.q_product, add("algebra.product.rows_out", lambda a, r: len(r)))
    algebra.q_select = tr.wrap("algebra.select", algebra.q_select, select_rows)
    algebra.q_project = tr.wrap("algebra.project", algebra.q_project)

    pbmonad.rule_matches = tr.wrap("pbmonad.rule_matches", pbmonad.rule_matches,
                                   add("pbmonad.rule_matches.matches", lambda a, r: len(r)))
    pbmonad.draw_from = tr.wrap("prob.draw", pbmonad.draw_from)
    Seed.rng = tr.wrap("prob.seed_rng", Seed.rng)
    ExactDist.from_weights = classmethod(tr.wrap("prob.from_weights", ExactDist.from_weights.__func__,
                                                 add("prob.from_weights.entries", lambda a, r: len(r.entries))))
    Bag.of = classmethod(tr.wrap("bags.of", Bag.of.__func__, add("bags.of.elems", lambda a, r: len(r))))
    Bag.uplus = tr.wrap("bags.uplus", Bag.uplus)

    def programs(c, args, result):
        if isinstance(result, ExactDist):
            c["pbmonad.exact.worlds"] += len(result.entries)

    run_rule_program = tr.wrap("pbmonad.run_rule_program", pbmonad.run_rule_program, programs,
                               unit=lambda a: a[2] == "exact")

    def run_and_wrap_sampler(*args, **kwargs):
        result = run_rule_program(*args, **kwargs)
        if isinstance(result, pbmonad.PBSampler):
            result = pbmonad.PBSampler(tr.wrap("pbmonad.world", result.world_fn, unit=lambda a: True))
        return result

    cli.run_rule_program = run_and_wrap_sampler
    cli.load_catalog = tr.wrap("cli.load_catalog", cli.load_catalog)
    cli.parse = tr.wrap("dsl.parse", cli.parse)
    cli.check = tr.wrap("dsl.check", cli.check)
    cli.deserialize = tr.wrap("values.deserialize", cli.deserialize)
    for name in ("infer_schema", "unify_schema", "typecheck"):
        setattr(cli, name, tr.wrap("values.schema", getattr(cli, name)))
    cli.to_json = tr.wrap("values.to_json", cli.to_json)
    return tr.wrap("cli", cli.main)


def run_main(plan: dict, traced: bool, out: Path) -> dict:
    """One in-process CLI run; stdout is captured, hashed and saved."""
    import bagdb.cli as cli

    tr = Tracer()
    main = install(tr) if traced else cli.main
    buf, real = io.StringIO(), sys.stdout
    sys.stdout = buf
    try:
        t0 = time.perf_counter()
        code = main(plan["argv"])
        wall = time.perf_counter() - t0
    finally:
        sys.stdout = real
    data = buf.getvalue().encode("utf-8")
    out.write_bytes(data)
    res = {"exit": code, "wall_s": wall, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if traced:
        res["counts"] = dict(tr.counts)
        res["self_s"] = {k: v / 1e9 for k, v in tr.self_ns().items()}
        res["spans"] = len(tr.spans)
        with gzip.open(out.with_suffix(".spans.jsonl.gz"), "wt", encoding="utf-8") as f:
            for s in tr.spans:
                f.write(json.dumps(s) + "\n")
    return res


if __name__ == "__main__":
    mode, plan = sys.argv[1], json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
    if mode == "setup":
        Setup(plan)
    elif mode == "ops":
        ops(plan)
    elif mode == "main":
        print(json.dumps(run_main(plan, sys.argv[3] == "1", Path(sys.argv[4]))))
    else:
        sys.exit(f"unknown mode {mode!r}")
