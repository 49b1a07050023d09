"""Benchmark for the bagdb CLI.

    python3 perfbench/run.py --workload mc-town --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the engine is imported from its ``src``.
Inputs are generated from ``--seed`` into a scratch directory under
``perfbench/`` that is removed at the end.  One closed-loop client runs one
command at a time with ``--workers 1``.

With ``--trace 0`` a run measures, with tracing off and in interleaved
rounds until ``--seconds`` have passed:

* ``setup_s``: fresh interpreters that import bagdb and do the command's
  set-up (load, parse, check, build the sampler) and exit; median.
* ``wall_s`` and ``peak_rss_mb``: whole CLI processes, spawn to exit, RSS
  from ``os.wait4`` on the pid; medians.  Every output is checked and
  hashed, and all hashes of one run must agree.
* ``op_ms_p50`` and ``op_ms_p90``: latency of one unit of work, timed in
  one process around public calls.

Every time is reported at the reference speed of speed.py: the measured
time scaled by a calibration loop timed next to it on the same CPU, which
takes out the host's swings in speed.  The details line has the raw times.

With ``--trace 1`` a run alternates untraced and traced in-process calls of
``bagdb.cli.main`` and reports per-layer counts and self times (see
probe.py and LAYERS.md).  The last stdout line is the result object; the
line before it holds the details (sizes, hashes, quartiles, metadata).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import inputs
import speed

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = HERE / "out"
HARD_LIMIT_S = 170.0  # a run must end within 180 s whatever the engine does

# Sizes keep one CLI process under a second and one unit of work well under
# one, so that a run holds a dozen or more whole commands and dozens to
# thousands of units (see "Run-to-run spread" in LAYERS.md).  min_units: a
# run goes on past --seconds until it has timed this many units.
WORKLOADS = {
    "mc-town": {"kind": "estimate", "houses": 20, "samples": 300, "min_units": 1000},
    "join-movies": {"kind": "query", "movies": 100, "min_units": 50},
    "exact-town": {"kind": "exact", "houses": 4, "min_units": 50},
}

LAYERS = ("pbmonad", "prob", "bags", "algebra", "values", "dsl", "cli")
COUNTS = (
    "pbmonad.world.calls", "pbmonad.rule_matches.calls", "pbmonad.rule_matches.matches",
    "pbmonad.exact.worlds", "prob.seed_rng.calls", "prob.draw.calls", "prob.from_weights.calls",
    "prob.from_weights.entries", "bags.of.calls", "bags.of.elems", "bags.uplus.calls",
    "algebra.eval_query.calls", "algebra.product.rows_out", "algebra.select.rows_in",
    "algebra.select.rows_out", "values.deserialize.calls", "values.to_json.calls",
)
SELF_TIMES = (
    "pbmonad.world", "pbmonad.rule_matches", "pbmonad.run_rule_program", "prob.seed_rng",
    "prob.draw", "prob.from_weights", "bags.of", "bags.uplus", "algebra.eval_query",
    "algebra.product", "algebra.select", "algebra.project", "values.deserialize",
    "values.schema", "values.to_json", "dsl.parse", "dsl.check", "cli.load_catalog", "cli",
)
PROFILE_SPLIT = {"pbmonad.rule_matches": 0.30, "prob.seed_rng": 0.16, "bags.of": 0.25}


class Run:
    """Deadlines and the tally of attempted and failed operations."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def remaining(self) -> float:
        return HARD_LIMIT_S - self.elapsed()

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += problems[:3]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same dict layouts in every child
    return env


def spawn(cmd: list[str], out: Path, timeout: float) -> tuple[float, float, int, bytes, str]:
    """Run cmd with stdout to ``out``; return wall s, peak RSS MB, exit
    code, stdout and stderr.  A child still alive after ``timeout`` is killed."""
    err = out.with_suffix(".err")
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if p.returncode is None:
                p.kill()
                p.wait()
    return wall, usage.ru_maxrss / 1024.0, p.returncode, out.read_bytes(), err.read_text(errors="replace")


def process_problems(code: int, stderr: str) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    return problems


def make_plan(name: str, seed: int, work: Path) -> tuple[dict, dict]:
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    rules, kind = str(FIXTURES / "burglary.rules"), w["kind"]
    if kind == "query":
        db = work / "db.jsonl"  # the file stem is the table name the query reads
        spec = inputs.movies(rng, w["movies"], db)
        argv = ["query", "--db", str(db), "--query", str(FIXTURES / "blockbusters.query")]
        plan = {"db": [str(db)], "query": argv[-1]}
    else:
        db = work / "town.jsonl"
        spec = inputs.town(rng, w["houses"], db)
        argv = ["generate", "--db", str(db), "--program", rules, "--backend", "exact"]
        plan = {"db": [str(db)], "program": rules}
        if kind == "estimate":
            query = str(FIXTURES / "alarms.query")
            argv = ["estimate", "--db", str(db), "--program", rules, "--query", query,
                    "--samples", str(w["samples"]), "--seed", str(seed % 2**64),
                    "--stat", "tuple-prob", "--workers", "1"]
            plan.update(query=query, seed=seed % 2**64)
            spec["samples"] = w["samples"]
    plan.update(kind=kind, argv=argv)
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan, spec


def check_output(kind: str, stdout: bytes, spec: dict) -> list[str]:
    try:
        if kind == "estimate":
            return inputs.check_estimate(stdout, spec, spec["samples"])
        if kind == "exact":
            return inputs.check_exact(stdout, spec)
        return inputs.check_join(stdout, spec)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return [f"unreadable output: {e!r}"]


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "p25": q[0], "p50": statistics.median(values), "p75": q[2]}


def probe(mode: str, work: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "probe.py"), mode, str(work / "plan.json"), *extra]


class OpsServer:
    """The probe's ``ops`` mode kept alive for the whole run, so that unit
    timings interleave with the other measurements instead of filling one
    stretch of time on a machine whose speed drifts."""

    def __init__(self, work: Path, run: Run):
        self.err = open(work / "ops.err", "wb")
        self.p = subprocess.Popen(probe("ops", work), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=self.err, env=child_env(), cwd=ROOT, text=True)
        self.timer = threading.Timer(max(run.remaining(), 1.0), self.p.kill)
        self.timer.start()

    def units(self, budget: float) -> dict | None:
        try:
            self.p.stdin.write(f"{budget:.3f}\n")
            self.p.stdin.flush()
        except BrokenPipeError:
            return None
        line = self.p.stdout.readline()
        return json.loads(line) if line else None

    def close(self) -> str:
        self.timer.cancel()
        try:
            self.p.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        self.p.stdout.close()
        self.err.close()
        return self.err.name


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def measure(name: str, plan: dict, spec: dict, seconds: float, work: Path, run: Run) -> tuple[dict, dict]:
    """Untraced run, in rounds until ``seconds`` have passed: two set-up
    probes, one whole CLI process, and units of work for about as long."""
    w = WORKLOADS[name]
    cli = [sys.executable, "-m", "bagdb.cli", *plan["argv"]]
    log = work / "log.out"
    spawn(probe("setup", work), log, run.remaining())  # warm-up: compiles bytecode, fills the page cache
    speed.loop_s()
    server = OpsServer(work, run)
    setup, walls, rss, ms, hashes = [], [], [], [], set()
    raw = {"setup_s": [], "wall_s": [], "op_ms": []}

    def timed_spawn(cmd, out, into, key):
        """spawn() with a calibration loop before and after it."""
        before = speed.loop_s()
        wall, *rest = spawn(cmd, out, run.remaining())
        into.append(speed.normalise(wall, before, speed.loop_s()))
        raw[key].append(wall)
        return (wall, *rest)

    try:
        while (len(walls) < 3 or len(ms) < w["min_units"] or run.elapsed() < seconds) \
                and run.remaining() > 20:
            for _ in range(2):
                _, _, code, _, err = timed_spawn(probe("setup", work), log, setup, "setup_s")
                run.op([f"setup: {p}" for p in process_problems(code, err)])
            wall, mb, code, out, err = timed_spawn(cli, work / "cli.out", walls, "wall_s")
            problems = process_problems(code, err) or check_output(plan["kind"], out, spec)
            hashes.add(hashlib.sha256(out).hexdigest())
            if len(hashes) > 1:
                problems.append("stdout differs from an earlier repeat")
            run.op([f"cli: {p}" for p in problems])
            rss.append(mb)
            got = server.units(min(wall, run.remaining() - 20))
            if got is None:
                run.op(["ops probe died"])
                break
            ms += got["ms"]
            raw["op_ms"] += got["raw_ms"]
            run.attempted += len(got["ms"])
            for _ in range(got["failed"]):
                run.op(["unit failed"])
    finally:
        err = Path(server.close()).read_text(errors="replace").strip()
    if err:
        run.problems.append("ops probe stderr: " + err.splitlines()[-1])
    if not ms:
        return {}, {}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (percentile(ms, 90), "ms"),
    }
    detail = {
        "stdout_sha256": sorted(hashes),
        "setup_s": quartiles(setup),
        "wall_s": quartiles(walls),
        "peak_rss_mb": quartiles(rss),
        "op_ms": {**quartiles(ms), "p90": percentile(ms, 90), "p99": percentile(ms, 99),
                  "max": max(ms), "rounds": len(walls)},
        "raw": {k: {**quartiles(v), "min": min(v), "p90": percentile(v, 90)} for k, v in raw.items()},
    }
    return metrics, detail


def measure_traced(name: str, seed: int, plan: dict, spec: dict, seconds: float, work: Path,
                   run: Run) -> tuple[dict, dict]:
    """Traced run: untraced and traced in-process CLI calls, alternating."""
    plain, traced, hashes, counts = [], [], set(), None
    spans_file = None
    while (len(traced) < 2 or run.elapsed() < seconds) and run.remaining() > 30 and run.failed < 4:
        for on in ("0", "1"):
            out = work / f"main{len(traced)}-{on}.out"
            _, _, code, res, err = spawn(probe("main", work, on, str(out)), work / "log.out", run.remaining())
            if code != 0:
                run.op([f"traced probe: {p}" for p in process_problems(code, err)] or ["probe failed"])
                continue
            r = json.loads(res)
            problems = [] if r["exit"] == 0 else [f"cli exit code {r['exit']}"]
            problems += check_output(plan["kind"], out.read_bytes(), spec)
            hashes.add(r["sha256"])
            if len(hashes) > 1:
                problems.append("stdout differs from an earlier repeat")
            if on == "1":
                if counts is None:
                    counts, spans_file = r["counts"], out.with_suffix(".spans.jsonl.gz")
                elif r["counts"] != counts:
                    problems.append("per-layer counts differ between traced runs")
                traced.append(r)
            else:
                plain.append(r)
            run.op([f"{'traced' if on == '1' else 'untraced'} main: {p}" for p in problems])
    if counts is None or not plain:
        return {}, {}

    def med_self(name: str) -> float:
        return statistics.median(r["self_s"].get(name, 0.0) for r in traced)

    metrics = {k: (counts.get(k, 0), "count") for k in COUNTS}
    metrics.update({f"{k}.self_s": (med_self(k), "s") for k in SELF_TIMES})
    for layer in LAYERS:
        names = {k for r in traced for k in r["self_s"] if k.split(".")[0] == layer}
        metrics[f"{layer}.total_self_s"] = (sum(med_self(k) for k in names), "s")
    result_rows = counts.get("algebra.eval_query.result_rows", 0)
    ratio = counts.get("algebra.product.rows_out", 0) / result_rows if result_rows else 0.0
    metrics["algebra.rows_examined_per_result"] = (ratio, "ratio")
    metrics["cli.output_bytes"] = (traced[0]["bytes"], "bytes")
    metrics["trace.spans"] = (traced[0]["spans"], "count")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    OUT.mkdir(exist_ok=True)
    kept = OUT / f"{name}-seed{seed}.spans.jsonl.gz"
    shutil.move(spans_file, kept)
    detail = {
        "stdout_sha256": sorted(hashes),
        "traced_runs": len(traced),
        "untraced_runs": len(plain),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "spans_file": str(kept.relative_to(ROOT)),
        "self_share": {k: med_self(k) / traced_wall for k in PROFILE_SPLIT},
        "layer_share": {l: metrics[f"{l}.total_self_s"][0] / traced_wall for l in LAYERS},
        "profile_split_reference": PROFILE_SPLIT,
    }
    return metrics, detail


def source_digest() -> str:
    """sha256 over the engine's source files, which names the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    needed = [SRC / "bagdb" / "cli.py"] + [FIXTURES / f for f in ("burglary.rules", "alarms.query", "blockbusters.query")]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a bagdb checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # One CPU for the harness and every process it starts, so that each
    # calibration loop runs where the work it calibrates runs (speed.py).
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[-1]})
        except OSError:
            pass
    run = Run()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        plan, spec = make_plan(args.workload, args.seed, work)
        if args.trace:
            metrics, detail = measure_traced(args.workload, args.seed, plan, spec, args.seconds, work, run)
        else:
            metrics, detail = measure(args.workload, plan, spec, args.seconds, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print("perfbench: no measurement completed: " + "; ".join(run.problems), file=sys.stderr)
        return 1

    sizes = {k: v for k, v in spec.items() if isinstance(v, int)}
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, sizes=sizes,
        argv=plan["argv"], attempted=run.attempted, failed=run.failed,
        error_rate=run.failed / max(1, run.attempted), problems=run.problems,
        run_s=run.elapsed(), commit=git_commit(), source_sha256=source_digest(),
        python=platform.python_version(), nproc=os.cpu_count(), machine=platform.machine(),
        cpus=sorted(os.sched_getaffinity(0)) if cpus else None, reference_s=speed.REFERENCE_S,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
