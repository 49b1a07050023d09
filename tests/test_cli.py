"""Command-line interface: subcommands, exit codes, and reproducibility."""
import gc
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bagdb import cli
from bagdb.algebra import eval_query
from bagdb.bags import Bag
from bagdb.cli import (
    _emit,
    _exact_payload,
    _mc_payload,
    STATS,
    load_table,
    main,
)
from bagdb.dsl import parse
from bagdb.errors import (
    EngineError,
    EngineTypeError,
    NotFiniteError,
    ParseError,
    ResourceLimitError,
    UnknownTableError,
    WorldEvalError,
)
from bagdb.pbmonad import parse_rules, run_rule_program
from bagdb.prob import Seed
from bagdb.values import BagV, Int, Real, Str, Tagged, json_text, to_json

from strategies import json_edge_values, seeds

FIXTURES = Path(__file__).parent / "fixtures"
DB = str(FIXTURES / "db.jsonl")
TOWN = str(FIXTURES / "town.jsonl")
RULES = str(FIXTURES / "burglary.rules")
BLOCKBUSTERS = str(FIXTURES / "blockbusters.query")
ALARMS = str(FIXTURES / "alarms.query")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def accumulate(stat, results):
    """The accumulator of ``STATS[stat]`` with ``results`` added in order."""
    empty, add, _ = STATS[stat]
    acc = empty()
    for r in results:
        add(acc, r)
    return acc


def fold(stat, results):
    """The payload fields of ``STATS[stat]`` over ``results``, one per world."""
    return STATS[stat][2](accumulate(stat, results), len(results))


class TestQuery:
    def test_blockbusters(self, capsys):
        code, out, _ = run(capsys, "query", "--db", DB, "--query", BLOCKBUSTERS)
        assert code == 0
        assert json.loads(out) == {"bag": ["A1", "A2"]}

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "query", "--db", DB, "--query", BLOCKBUSTERS, "--output", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text()) == {"bag": ["A1", "A2"]}

    def test_table_named_after_file_stem(self, tmp_path, capsys):
        table = tmp_path / "mytable.jsonl"
        table.write_text('1\n\n2\n')  # blank lines are skipped
        q = tmp_path / "q.query"
        q.write_text("table mytable |> agg sum\n")
        code, out, _ = run(capsys, "query", "--db", str(table), "--query", str(q))
        assert code == 0
        assert json.loads(out) == 3

    def test_multiple_tables(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text("1\n")
        b.write_text("2\n")
        q = tmp_path / "q.query"
        q.write_text("table a |> dunion (table b)\n")
        code, out, _ = run(capsys, "query", "--db", str(a), "--db", str(b), "--query", str(q))
        assert code == 0
        assert json.loads(out) == {"bag": [1, 2]}


class TestExitCodes:
    def test_usage_missing_flag(self, capsys):
        assert run(capsys, "query", "--db", DB)[0] == 1

    def test_usage_zero_samples(self, capsys):
        code, _, err = run(
            capsys, "generate", "--db", TOWN, "--program", RULES,
            "--backend", "mc", "--samples", "0",
        )
        assert code == 1
        assert "samples" in err

    def test_usage_bad_stat(self, capsys):
        code = run(
            capsys, "estimate", "--db", TOWN, "--program", RULES,
            "--query", ALARMS, "--stat", "median",
        )[0]
        assert code == 1

    def test_usage_missing_file(self, capsys):
        code, _, err = run(capsys, "query", "--db", "/nonexistent.jsonl", "--query", BLOCKBUSTERS)
        assert code == 1

    def test_usage_seed_out_of_range(self, capsys):
        code = run(
            capsys, "generate", "--db", TOWN, "--program", RULES,
            "--backend", "mc", "--seed", str(2**64),
        )[0]
        assert code == 1

    @pytest.mark.parametrize("module, name, argv", [
        ("bagdb.cli", "load_catalog", ["query", "--db", DB, "--query", BLOCKBUSTERS]),
        ("bagdb.pbmonad", "draw_from", ["generate", "--db", TOWN, "--program", RULES, "--backend", "mc"]),
    ], ids=["loading", "sampling"])
    def test_interrupt_prints_one_line(self, capsys, monkeypatch, module, name, argv):
        # Ctrl-C raises KeyboardInterrupt wherever the command is: no
        # traceback, one line on stderr, and the shell's exit code for SIGINT
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(f"{module}.{name}", interrupted)
        assert run(capsys, *argv) == (130, "", "bagdb: interrupted\n")

    def test_parse_error(self, tmp_path, capsys):
        q = tmp_path / "bad.query"
        q.write_text("table |>\n")
        code, _, err = run(capsys, "query", "--db", DB, "--query", str(q))
        assert code == 2
        assert "parse" in err

    def test_parse_error_in_rules(self, tmp_path, capsys):
        r = tmp_path / "bad.rules"
        r.write_text("head(x <- src(x)\n")
        code = run(capsys, "generate", "--db", TOWN, "--program", str(r))[0]
        assert code == 2

    @pytest.mark.parametrize("kind", ["table", "query", "program"])
    def test_parse_error_not_utf8(self, tmp_path, capsys, kind):
        files = {"table": b'{"tag": "address", "value": ["H1", "C1"]}\n', "query": b"table world\n",
                 "program": b"h(x) <- address(x, c)\n"}
        files[kind] = files[kind][:10] + b"\xff" + files[kind][10:]
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, "estimate", "--db", str(tmp_path / "table"), "--program",
                             str(tmp_path / "program"), "--query", str(tmp_path / "query"), "--samples", "2")
        assert (code, out) == (2, "")
        assert err == f"bagdb: parse error: {kind}: invalid UTF-8 (byte 10) at line 1, column 11\n"

    @pytest.mark.parametrize("table, query, rules, code, message", [
        ("[0, 0]\n[1, {big}]", "table t", None, 2, "parse error: t.jsonl: integer longer than {limit} digits at line 2, column 5"),
        ("1", "table t |> map ({big})", None, 2, "parse error: q.query: integer longer than {limit} digits at line 1, column 17"),
        ("[1]", "table t |> map (.{big})", None, 2, "parse error: q.query: integer longer than {limit} digits at line 1, column 17"),
        ("1", "table world", "h({big}) <- a(x)", 2, "parse error: p.rules: integer longer than {limit} digits at line 1, column 3"),
        ("{{\"tag\": \"a\", \"value\": {half}}}", "table t |> match a as (v) |> map (.1 * .1)", None, 3,
         "result has an integer longer than {limit} digits, which cannot be printed"),
        ("{{\"tag\": \"a\", \"value\": {half}}}", "table world |> match b as (v) |> map (.1 * .1)", "b(x) <- a(x)",
         3, "mean statistic needs numbers that fit a float, got Int(<{bits}-bit integer>)"),
    ], ids=["table", "query-literal", "field-number", "rule-literal", "result", "message"])
    def test_int_longer_than_the_str_limit(self, tmp_path, capsys, table, query, rules, code, message):
        # the interpreter's limit on int <-> str conversion, kept as it is:
        # it guards against quadratic-time parsing
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit == 0:
            pytest.skip("no limit on int <-> str conversion")
        half = 10 ** (limit // 2 + 1) - 1  # its square has more digits than the limit
        fill = {"big": "7" * (limit + 1), "half": "9" * (limit // 2 + 1), "limit": limit,
                "bits": (half * half).bit_length()}
        (tmp_path / "t.jsonl").write_text(table.format(**fill) + "\n")
        (tmp_path / "q.query").write_text(query.format(**fill) + "\n")
        target = tmp_path / "out.json"
        argv = ["query", "--db", str(tmp_path / "t.jsonl"), "--query", str(tmp_path / "q.query"), "--output", str(target)]
        if rules is not None:
            (tmp_path / "p.rules").write_text(rules.format(**fill) + "\n")
            argv = ["estimate", *argv[1:], "--program", str(tmp_path / "p.rules"), "--stat", "mean", "--samples", "2"]
        assert run(capsys, *argv) == (code, "", f"bagdb: {message.format(**fill)}\n")
        assert not target.exists()

    @pytest.mark.parametrize("command, bad", [
        ("query", "query"), ("generate", "program"),
        pytest.param("estimate", "query", marks=pytest.mark.hashseed),
        pytest.param("estimate", "program", marks=pytest.mark.hashseed),
    ], ids=["query", "generate", "estimate-query", "estimate-program"])
    def test_parse_error_names_the_file(self, tmp_path, capsys, command, bad):
        # as a table's parse error does; the message is otherwise the parser's
        names = {"query": "q.query", "program": "p.rules"}
        texts = {"query": ("table world\n", "table world |> map (1 +)\n"),
                 "program": ("a(x) <- address(x, c)\n", "a(x) <- address(x, c)\nb(x) c(x)\n")}
        want = {"query": "expected an expression at line 1, column 24",
                "program": "expected '<-', found 'c' at line 2, column 6 (expected '<-')"}
        argv = [command, "--db", TOWN]
        for kind in {"query": ["query"], "generate": ["program"], "estimate": ["program", "query"]}[command]:
            (tmp_path / names[kind]).write_text(texts[kind][kind == bad])
            argv += [f"--{kind}", str(tmp_path / names[kind])]
        assert run(capsys, *argv) == (2, "", f"bagdb: parse error: {names[bad]}: {want[bad]}\n")

    def test_json_error_column_counts_from_the_start_of_the_line(self, tmp_path, capsys):
        # a line of blanks is skipped; the x is at column 8 of line 3
        t = tmp_path / "t.jsonl"
        t.write_text("1\n   \t\n  [1, 2x]\n")
        code, out, err = run(capsys, "query", "--db", str(t), "--query", BLOCKBUSTERS)
        assert (code, out) == (2, "")
        assert err == "bagdb: parse error: t.jsonl: Expecting ',' delimiter at line 3, column 8\n"

    def test_table_lines_end_at_newlines_only(self, tmp_path, capsys):
        # json.dumps with ensure_ascii=False writes U+0085, U+2028 and U+2029
        # raw inside strings: they end no line of a table, so its rows load
        # whole and a bad row after them is reported at its own line
        rows = [{"tag": "s", "value": f"a{c}b"} for c in "\u0085\u2028\u2029"]
        t, q, p = tmp_path / "t.jsonl", tmp_path / "q.query", tmp_path / "p.rules"
        t.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
        q.write_text("table t\n")
        p.write_text("h(x) <- s(x)\n")
        code, out, _ = run(capsys, "query", "--db", str(t), "--query", str(q))
        assert (code, json.loads(out)) == (0, {"bag": rows})
        code, out, _ = run(capsys, "generate", "--db", str(t), "--program", str(p), "--backend", "exact")
        [world] = json.loads(out)["worlds"]
        assert code == 0 and world["world"]["bag"] == [{"tag": "h", "value": r["value"]} for r in rows] + rows
        with t.open("a", encoding="utf-8") as f:
            f.write("[1, 2x]\n")
        assert run(capsys, "query", "--db", str(t), "--query", str(q)) == \
            (2, "", "bagdb: parse error: t.jsonl: Expecting ',' delimiter at line 4, column 6\n")

    @pytest.mark.parametrize("backend", ["exact", "mc"])
    @pytest.mark.parametrize("row", ['{"tag": "b", "value": 1}', '{"tag": "a", "value": 1}'],
                             ids=["matched", "unmatched"])
    def test_draw_arity_checked_before_any_match(self, tmp_path, capsys, backend, row):
        (tmp_path / "t.jsonl").write_text(row + "\n")
        (tmp_path / "p.rules").write_text("x(y, normal(1)) <- b(y)\n")
        target = tmp_path / "out.json"
        argv = ["generate", "--db", str(tmp_path / "t.jsonl"), "--program", str(tmp_path / "p.rules"),
                "--backend", backend, "--samples", "2", "--output", str(target)]
        assert run(capsys, *argv) == (3, "", "bagdb: normal of 'x' takes 2 parameter(s), got 1\n")
        assert not target.exists()

    def test_type_error_unknown_table(self, tmp_path, capsys):
        q = tmp_path / "q.query"
        q.write_text("table nosuch\n")
        assert run(capsys, "query", "--db", DB, "--query", str(q))[0] == 3

    def test_type_error_bad_predicate(self, tmp_path, capsys):
        q = tmp_path / "q.query"
        q.write_text("table db |> select (1 + 1)\n")
        assert run(capsys, "query", "--db", DB, "--query", str(q))[0] == 3

    def test_type_error_jsonl_schema_mismatch(self, tmp_path, capsys):
        t = tmp_path / "mixed.jsonl"
        t.write_text('1\n"s"\n')
        q = tmp_path / "q.query"
        q.write_text("table mixed\n")
        assert run(capsys, "query", "--db", str(t), "--query", str(q))[0] == 3

    @pytest.mark.parametrize("row, reason", [
        ('{"bag": [1, "a"]}', "cannot unify IntT() with StrT()"),
        ('{"bag": [[1], [1, 2]]}', "tuple arity mismatch: 1 vs 2"),
    ], ids=["scalars", "arity"])
    def test_type_error_nested_schema_mismatch(self, tmp_path, capsys, row, reason):
        # the elements of one row do not unify: named by file and line, as
        # rows that do not unify with each other are
        t = tmp_path / "m2.jsonl"
        t.write_text('{"bag": [1]}\n' + row + "\n")
        q = tmp_path / "q.query"
        q.write_text("table m2\n")
        code, out, err = run(capsys, "query", "--db", str(t), "--query", str(q))
        assert (code, out, err) == (3, "", f"bagdb: m2.jsonl:2: {reason}\n")

    def test_type_error_empty_aggregate(self, tmp_path, capsys):
        q = tmp_path / "q.query"
        q.write_text("table db |> difference (table db) |> agg the\n")
        assert run(capsys, "query", "--db", DB, "--query", str(q))[0] == 3

    def test_resource_limit(self, tmp_path, capsys):
        t = tmp_path / "wide.jsonl"
        t.write_text("".join(f"{i}\n" for i in range(21)))
        q = tmp_path / "q.query"
        q.write_text("table wide |> powerbag\n")
        assert run(capsys, "query", "--db", str(t), "--query", str(q))[0] == 4

    def test_not_finite(self, tmp_path, capsys):
        r = tmp_path / "cont.rules"
        r.write_text("noise(x, normal(0.0, 1.0)) <- address(x, c)\n")
        code, _, err = run(capsys, "generate", "--db", TOWN, "--program", str(r))
        assert code == 5
        assert "mc" in err

    def test_not_finite_before_a_later_bad_parameter(self, tmp_path, capsys):
        # match 0 has finite parameters and raises NotFiniteError before
        # match 1's negative stddev is looked at
        t = tmp_path / "src.jsonl"
        t.write_text('{"tag": "src", "value": ["a", 1.0]}\n{"tag": "src", "value": ["b", -1.0]}\n')
        r = tmp_path / "cont.rules"
        r.write_text("noise(x, normal(0.0, s)) <- src(x, s)\n")
        code, _, err = run(capsys, "generate", "--db", str(t), "--program", str(r))
        assert code == 5
        assert err == "bagdb: normal has uncountable support; use the mc backend (hint: use --backend mc)\n"

    @pytest.mark.parametrize("rules, query, command", [
        ("c(x, poisson(r)) <- src(x, r)", None, ("generate", "--backend", "mc")),
        (None, "table src |> match src as (h, r) |> map (.r + 1.5)", ("query",)),
        ("c(x, r) <- src(x, r)", "table world |> match c as (h, r) |> map (.r)", ("estimate", "--stat", "mean")),
    ], ids=["draw-parameter", "arithmetic", "mean"])
    def test_int_too_large_for_a_float(self, tmp_path, capsys, rules, query, command):
        t = tmp_path / "src.jsonl"
        t.write_text('{"tag": "src", "value": ["h", %d]}\n' % 10**400)
        argv = [*command, "--db", str(t)]
        for flag, text in (("--program", rules), ("--query", query)):
            if text is not None:
                (tmp_path / flag[2:]).write_text(text + "\n")
                argv += [flag, str(tmp_path / flag[2:])]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "fit a float" in err and "Traceback" not in err

    @pytest.mark.parametrize("rules, query, stat, expect", [
        (RULES, "alarm as (house) |> map (1e308)", "mean", {"mean": 1e308, "stddev": 0.0, "ci3": 0.0}),
        (RULES, "alarm as (house) |> map (inf) |> dunion (bag {-inf})", "mean",
         "mean statistic of inf and -inf is undefined"),
        (RULES, "crimechance as (c, r) |> map (1e200) |> dunion (bag {-1e200})", "mean",
         {"mean": 0.0, "stddev": pytest.approx(1e200 * math.sqrt(400 / 399), rel=1e-15),
          "ci3": pytest.approx(3e200 / math.sqrt(399), rel=1e-15)}),
        (RULES, "crimechance as (c, r) |> map (1.7976931348623157e308) |> dunion (bag {-1.7976931348623157e308})",
         "mean", "mean statistic overflows a float"),
        (None, "big as (h, v) |> project [v] |> dunion (bag {1.0}) |> agg sum", "dist",
         "sum of Ints and Reals needs an Int sum that fits a float"),
    ], ids=["mean-sum", "mean-inf-minus-inf", "mean-variance", "mean-stddev", "agg-sum"])
    def test_float_overflow(self, tmp_path, capsys, rules, query, stat, expect):
        # a sum and squared deviations past the float range give their mean
        # and stddev (each world has one crimechance row, so 200 copies of
        # each value); fsum of inf and -inf, a stddev past the float range,
        # and an Int sum past the float range met by a Real are errors
        if rules is None:
            rules = tmp_path / "big.rules"
            rules.write_text("big(x, %d) <- address(x, c)\n" % 10**400)
        q = tmp_path / "q.query"
        q.write_text(f"table world |> match {query}\n")
        code, out, err = run(capsys, "estimate", "--db", TOWN, "--program", str(rules), "--query", str(q),
                             "--stat", stat, "--samples", "200", "--seed", "1")
        if isinstance(expect, str):
            assert (code, out) == (3, "")
            assert expect in err and "Traceback" not in err
        else:
            assert code == 0, err
            payload = json.loads(out)
            assert {k: payload[k] for k in expect} == expect

    def test_mean_of_infinite_results(self, tmp_path, capsys):
        # fsum of inf alone is inf, and each deviation from it is inf - inf:
        # a NaN stddev and ci3, which are not JSON, must not be printed
        q = tmp_path / "q.query"
        q.write_text("table world |> match alarm as (house) |> map (inf)\n")
        code, out, err = run(capsys, "estimate", "--db", TOWN, "--program", RULES, "--query", str(q),
                             "--stat", "mean", "--samples", "50", "--seed", "1")
        assert (code, out) == (3, "")
        assert err == "bagdb: mean statistic of infinite numbers has no stddev\n"


    @pytest.mark.parametrize("error, code, attrs", [
        (ParseError("unexpected token", 3, 7, ("|>", "end of input")), 2, ("message", "line", "column", "expected")),
        (UnknownTableError("t"), 3, ("name",)),
        (ResourceLimitError("powerbag of a 70-element bag"), 4, ()),
        (NotFiniteError("poisson has infinite support"), 5, ()),
        (WorldEvalError(BagV(Bag.of([Int(1), Str("a")])), ResourceLimitError("too big"), 2), 4, ("world", "index")),
    ], ids=["parse", "unknown-table", "resource-limit", "not-finite", "world-eval"])
    def test_errors_survive_pickling(self, error, code, attrs):
        # a worker process hands its error to the parent by pickling it
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)
        assert [getattr(copy, a) for a in attrs] == [getattr(error, a) for a in attrs]
        if isinstance(error, WorldEvalError):  # exits as its cause does
            assert (type(copy.cause), str(copy.cause)) == (type(error.cause), str(error.cause))
            copy = copy.cause
        assert cli._exit_for(copy)[0] == code

class TestGenerate:
    def test_exact_weights_sum_to_one(self, capsys):
        code, out, _ = run(capsys, "generate", "--db", TOWN, "--program", RULES)
        assert code == 0
        payload = json.loads(out)
        assert payload["backend"] == "exact"
        total = math.fsum(w["weight"] for w in payload["worlds"])
        assert abs(total - 1.0) <= 1e-9

    def test_exact_deterministic(self, capsys):
        a = run(capsys, "generate", "--db", TOWN, "--program", RULES)[1]
        b = run(capsys, "generate", "--db", TOWN, "--program", RULES)[1]
        assert a == b

    def test_mc_reproducible_for_seed(self, capsys):
        args = (
            "generate", "--db", TOWN, "--program", RULES,
            "--backend", "mc", "--samples", "50", "--seed", "7",
        )
        a = run(capsys, *args)[1]
        b = run(capsys, *args)[1]
        assert a == b

    def test_mc_seed_changes_output(self, capsys):
        base = (
            "generate", "--db", TOWN, "--program", RULES,
            "--backend", "mc", "--samples", "50",
        )
        a = run(capsys, *base, "--seed", "7")[1]
        b = run(capsys, *base, "--seed", "8")[1]
        assert a != b

    def test_mc_workers_do_not_change_output(self, capsys):
        base = (
            "generate", "--db", TOWN, "--program", RULES,
            "--backend", "mc", "--samples", "64", "--seed", "3",
        )
        outs = {run(capsys, *base, "--workers", w)[1] for w in ("1", "4", "8")}
        assert len(outs) == 1

    @pytest.mark.parametrize("enabled", [True, False])
    def test_exact_pauses_the_collector_and_restores_it(self, tmp_path, capsys, monkeypatch, enabled):
        # the exact run and its write, which builds the world texts as it
        # goes, run with the cyclic collector paused; a run that succeeds
        # and one that exits 4 leave it as it was, and mc does not touch it
        import bagdb.cli as cli

        emit, paused = cli._emit, []
        monkeypatch.setattr(cli, "_emit", lambda *a: paused.append(not gc.isenabled()) or emit(*a))
        db = tmp_path / "coins.jsonl"
        db.write_text("".join(f'{{"tag": "coin", "value": {i}}}\n' for i in range(21)))
        rules = tmp_path / "flip.rules"
        rules.write_text("flip(x, bernoulli(0.5)) <- coin(x)\n")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            codes = [run(capsys, "generate", "--db", TOWN, "--program", RULES)[0], gc.isenabled(),
                     run(capsys, "generate", "--db", str(db), "--program", str(rules))[0], gc.isenabled(),
                     run(capsys, "generate", "--db", TOWN, "--program", RULES, "--backend", "mc",
                         "--samples", "5")[0], gc.isenabled()]
        finally:
            (gc.enable if was else gc.disable)()
        assert codes == [0, enabled, 4, enabled, 0, enabled]
        assert paused == [True, not enabled]

    def test_mc_payload_shape(self, capsys):
        _, out, _ = run(
            capsys, "generate", "--db", TOWN, "--program", RULES,
            "--backend", "mc", "--samples", "5", "--seed", "1",
        )
        payload = json.loads(out)
        assert payload["samples"] == 5 and payload["seed"] == 1
        assert len(payload["worlds"]) == 5
        assert all("bag" in w for w in payload["worlds"])


@pytest.mark.hashseed
class TestEstimate:
    def test_tuple_prob_close_to_exact(self, capsys):
        n = 4000
        code, out, _ = run(
            capsys, "estimate", "--db", TOWN, "--program", RULES,
            "--query", ALARMS, "--samples", str(n), "--seed", "11",
        )
        assert code == 0
        payload = json.loads(out)
        expect = 1 - (1 - 0.1 * 0.6) * (1 - 0.3 * 0.9)
        by_value = {r["value"]: r for r in payload["results"]}
        for house in ("H1", "H2"):
            r = by_value[house]
            assert abs(r["p"] - expect) <= 3 * math.sqrt(expect * (1 - expect) / n)

    def test_mean_stat(self, tmp_path, capsys):
        q = tmp_path / "count.query"
        q.write_text("table world |> match alarm as (h) |> agg size\n")
        code, out, _ = run(
            capsys, "estimate", "--db", TOWN, "--program", RULES,
            "--query", str(q), "--samples", "2000", "--seed", "5", "--stat", "mean",
        )
        assert code == 0
        payload = json.loads(out)
        expect = 2 * (1 - (1 - 0.1 * 0.6) * (1 - 0.3 * 0.9))
        assert abs(payload["mean"] - expect) <= payload["ci3"] + 0.05

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from([math.inf, -math.inf, 1e308, -1e308, 1.7e308, 2.5, -1.0, 1e-300]),
                    min_size=1, max_size=6))
    @example([math.inf, -math.inf, 1e308, -1e308, 1e308])  # fsum: "-inf + inf", or overflow when reordered
    @example([1e308, 1e308, -1e308])  # a partial sum overflows, the sum does not
    @example([1e308, 1e308, -1e308, 1e292, 1.0])  # and the sum, rounded then divided, is not the mean rounded
    def test_mean_depends_only_on_the_numbers(self, nums):
        # a statistic is a function of the bag of results: every order of
        # the numbers gives the same payload, or the same error, although
        # fsum's partial sums overflow in some orders only
        def outcome(xs):
            try:
                return repr(fold("mean", [Real(x) for x in xs]))
            except EngineTypeError as e:
                return str(e)

        assert len({outcome(xs) for xs in itertools.permutations(nums)}) == 1

    @pytest.mark.parametrize("nums, mean, stddev", [
        ([1e308, 1e308], 1e308, 0.0),  # the sum passes the float range
        ([1e200, -1e200], 0.0, math.sqrt(2) * 1e200),  # the squared deviations do
        ([1.79e308] + [-1e307] * 99, -8.11e306, 1.89e307),  # a deviation does
        ([1e308, -1e308] * 5, 0.0, 1e308 * math.sqrt(10 / 9)),  # 3 * stddev does
    ], ids=["sum", "squares", "deviation", "ci3"])
    def test_mean_past_the_float_range(self, nums, mean, stddev):
        got = fold("mean", [Real(x) for x in nums])
        assert (got["mean"], got["stddev"]) == (pytest.approx(mean, rel=1e-15), pytest.approx(stddev, rel=1e-15))
        assert got["ci3"] == pytest.approx(stddev / math.sqrt(len(nums)) * 3.0, rel=1e-15)

    def test_dist_stat(self, tmp_path, capsys):
        q = tmp_path / "count.query"
        q.write_text("table world |> match alarm as (h) |> agg size\n")
        code, out, _ = run(
            capsys, "estimate", "--db", TOWN, "--program", RULES,
            "--query", str(q), "--samples", "500", "--seed", "5", "--stat", "dist",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(sum(r["p"] for r in payload["results"]) - 1.0) < 1e-9

    def test_unknown_table_in_estimate_query(self, tmp_path, capsys):
        q = tmp_path / "bad.query"
        q.write_text("table nosuch\n")
        code = run(
            capsys, "estimate", "--db", TOWN, "--program", RULES, "--query", str(q),
        )[0]
        assert code == 3

    def test_the_over_the_world_table(self, tmp_path, capsys):
        # the world table's rows are unknown until it is sampled, not
        # provably empty: `the` is the first row of each world, the H1
        # address of town.jsonl
        q = tmp_path / "first.query"
        q.write_text("table world |> agg the\n")
        code, out, err = run(capsys, "estimate", "--db", TOWN, "--program", RULES,
                             "--query", str(q), "--samples", "20", "--seed", "3")
        assert (code, err) == (0, "")
        first = {"tag": "address", "value": ["H1", "C1"]}
        assert json.loads(out)["results"] == [{"value": first, "p": 1.0, "ci3": 0.0}]

    def test_the_over_an_empty_table_fails_when_run(self, tmp_path, capsys):
        empty = tmp_path / "t.jsonl"
        empty.write_text("")
        q = tmp_path / "first.query"
        q.write_text("table t |> agg the\n")
        code, out, err = run(capsys, "query", "--db", str(empty), "--query", str(q))
        assert (code, out) == (3, "")
        assert err == "bagdb: `the` applied to an empty bag\n"

    def test_workers_stable(self, capsys):
        base = (
            "estimate", "--db", TOWN, "--program", RULES,
            "--query", ALARMS, "--samples", "200", "--seed", "2",
        )
        outs = {run(capsys, *base, "--workers", w)[1] for w in ("1", "4")}
        assert len(outs) == 1


class TestDeepInput:
    """Input nested past the interpreter's recursion limit is a resource
    limit (exit 4), not a traceback."""

    DEPTH = 3000

    @pytest.mark.parametrize("query, table", [
        ("table db |> select (" + "(" * DEPTH + "1 = 1" + ")" * DEPTH + ")", None),
        ("table db" + " |> dedup" * DEPTH, None),
        ("table deep", "[" * DEPTH + "]" * DEPTH),
    ], ids=["parens", "pipeline", "jsonl-array"])
    def test_exit_4_without_traceback(self, tmp_path, query, table):
        db = DB
        if table is not None:
            db = str(tmp_path / "deep.jsonl")
            Path(db).write_text(table + "\n")
        q = tmp_path / "q.query"
        q.write_text(query + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bagdb.cli", "query", "--db", db, "--query", str(q)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert "nested too deeply" in proc.stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bagdb.cli", "query", "--db", DB, "--query", BLOCKBUSTERS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"bag": ["A1", "A2"]}

    def test_startup_leaves_dataclasses_and_inspect_unimported(self):
        # start-up is most of a short CLI run, and dataclasses imports inspect
        check = "import sys, bagdb.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    def test_query_leaves_the_probabilistic_layer_unimported(self, tmp_path):
        # query runs no rule program, so it should not pay for compiling
        # prob and pbmonad, nor for hashlib; generate and estimate run
        # after it in the same process must then import them and still
        # print the goldens
        out = {name: tmp_path / f"{name}.json" for name in ("query", "exact", "estimate")}
        runs = [["query", "--db", DB, "--query", BLOCKBUSTERS, "--output", str(out["query"])],
                ["generate", "--db", TOWN, "--program", RULES, "--backend", "exact", "--output", str(out["exact"])],
                ["estimate", "--db", TOWN, "--program", RULES, "--query", ALARMS, "--stat", "tuple-prob",
                 "--samples", "500", "--seed", "7", "--output", str(out["estimate"])]]
        script = ("import sys\nfrom bagdb.cli import main\n"
                  f"runs = {runs!r}\n"
                  "assert main(runs[0]) == 0\n"
                  "print(sorted({'bagdb.pbmonad', 'bagdb.prob', 'hashlib'} & set(sys.modules)))\n"
                  "assert [main(argv) for argv in runs[1:]] == [0, 0]\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert json.loads(out["query"].read_text()) == {"bag": ["A1", "A2"]}
        assert out["exact"].read_bytes() == (GOLDEN / "generate-exact-town.json").read_bytes()
        assert out["estimate"].read_bytes() == (GOLDEN / "estimate-town-seed7.json").read_bytes()

    def test_generate_leaves_the_query_engine_unimported(self, tmp_path):
        # generate runs no query, so it should not pay for compiling algebra
        # and dsl; query and estimate run after it in the same process must
        # then import them and still print the goldens
        out = {name: tmp_path / f"{name}.json" for name in ("exact", "mc", "query", "estimate")}
        runs = [["generate", "--db", TOWN, "--program", RULES, "--backend", "exact", "--output", str(out["exact"])],
                ["generate", "--db", TOWN, "--program", RULES, "--backend", "mc", "--samples", "50", "--seed", "7",
                 "--output", str(out["mc"])],
                ["query", "--db", DB, "--query", BLOCKBUSTERS, "--output", str(out["query"])],
                ["estimate", "--db", TOWN, "--program", RULES, "--query", ALARMS, "--stat", "tuple-prob",
                 "--samples", "500", "--seed", "7", "--output", str(out["estimate"])]]
        script = ("import sys\nfrom bagdb.cli import main\n"
                  f"runs = {runs!r}\n"
                  "assert [main(argv) for argv in runs[:2]] == [0, 0]\n"
                  "print(sorted({'bagdb.algebra', 'bagdb.dsl'} & set(sys.modules)))\n"
                  "assert [main(argv) for argv in runs[2:]] == [0, 0]\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert out["exact"].read_bytes() == (GOLDEN / "generate-exact-town.json").read_bytes()
        assert out["mc"].read_bytes() == (GOLDEN / "generate-town-seed7.json").read_bytes()
        assert json.loads(out["query"].read_text()) == {"bag": ["A1", "A2"]}
        assert out["estimate"].read_bytes() == (GOLDEN / "estimate-town-seed7.json").read_bytes()

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bagdb.cli", "--help"], capture_output=True
        )
        assert proc.returncode == 0

    def test_recursion_message_does_not_depend_on_hash_seed(self, tmp_path):
        rules = tmp_path / "cycle.rules"
        rules.write_text(
            "crimechance(c, 0.3) <- address(x, c)\n"
            "flag(c, bernoulli(r)) <- crimechance(c, r)\n"
            "address(x, c) <- flag(c, 1), crimechance(c, r), address(x, c)\n"
        )
        outcomes = set()
        for hash_seed in ("1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "bagdb.cli", "generate", "--db", TOWN, "--program", str(rules)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            outcomes.add((proc.returncode, proc.stderr))
        assert len(outcomes) == 1
        code, err = outcomes.pop()
        assert code == 3 and "recursion detected" in err


class TestPackageNames:
    """``ExactDist`` and ``Seed`` are served by the package's module
    ``__getattr__``, which imports ``prob`` on first use."""

    def test_from_import_gives_the_prob_classes(self):
        from bagdb import ExactDist, Seed, prob

        assert (ExactDist, Seed) == (prob.ExactDist, prob.Seed)

    def test_star_import_binds_every_name_in_all(self):
        import bagdb

        ns: dict = {}
        exec("from bagdb import *", ns)
        assert set(bagdb.__all__) <= set(ns)
        assert ns["Seed"] is bagdb.prob.Seed

    def test_dir_lists_the_lazy_names(self):
        import bagdb

        assert {"ExactDist", "Seed", "Bag", "__version__"} <= set(dir(bagdb))

    def test_unknown_name_raises_attribute_error(self):
        import bagdb

        with pytest.raises(AttributeError, match="'nope'"):
            bagdb.nope
        assert not hasattr(bagdb, "nope")


class TestModuleLayout:
    """The grammar shared with rule programs lives in ``lex``, and rows and
    comparisons in ``values``, so the probabilistic layer loads without the
    query engine; the modules they moved from re-export them."""

    def test_moved_names_are_one_object(self):
        from bagdb import algebra, dsl, lex, values

        assert algebra.tuple_parts is values.tuple_parts
        assert algebra.cmp_holds is values.cmp_holds
        assert dsl.tokenize is lex.tokenize
        assert dsl.Token is lex.Token

    def test_pbmonad_leaves_the_query_engine_unimported(self):
        check = "import sys, bagdb.pbmonad; print(sorted({'bagdb.algebra', 'bagdb.dsl'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestBenchmarkProbe:
    """``perfbench/probe.py`` wraps engine names where their callers look
    them up, so a name that a refactor deletes or moves breaks the
    benchmark, which the rest of the suite does not run.  Each command kind
    runs once, traced, in a child, and the counters that CI's benchmark
    smoke step checks must read above 0."""

    @pytest.mark.parametrize("kind, argv, live", [
        ("exact", ["generate", "--db", str(FIXTURES / "town4.jsonl"), "--program", RULES, "--backend", "exact"],
         ["pbmonad.exact.worlds", "prob.from_weights.calls"]),
        ("estimate", ["estimate", "--db", TOWN, "--program", RULES, "--query", ALARMS, "--samples", "20",
                      "--seed", "1", "--stat", "tuple-prob", "--workers", "1"],
         ["pbmonad.world.calls", "prob.draw.calls"]),
        ("query", ["query", "--db", DB, "--query", BLOCKBUSTERS],
         ["algebra.eval_query.calls", "algebra.select.rows_in"]),
    ], ids=["exact", "estimate", "query"])
    def test_traced_run_counts_the_live_layers(self, tmp_path, kind, argv, live):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"kind": kind, "argv": argv}), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(PERFBENCH / "probe.py"), "main", str(plan), "1",
                               str(tmp_path / "main.out")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)
        assert res["exit"] == 0
        assert [c for c in live if not res["counts"].get(c, 0) > 0] == []  # no counter reads 0


GOLDEN = FIXTURES / "golden"
U64_MAX = str(2**64 - 1)


@pytest.mark.hashseed
class TestGoldenOutput:
    """stdout recorded under tests/fixtures/golden (or pinned by sha256) by
    the engine as it was before rule programs were compiled, for the mc
    and then for the exact backend; it must not change by a byte."""

    @pytest.mark.parametrize("seed", ["7", U64_MAX])
    @pytest.mark.parametrize("town", ["town", "town20"])
    @pytest.mark.parametrize("command", ["estimate", "generate"])
    def test_stdout_is_byte_identical(self, capsys, command, town, seed):
        argv = [command, "--db", str(FIXTURES / f"{town}.jsonl"), "--program", RULES, "--seed", seed]
        if command == "estimate":
            argv += ["--query", ALARMS, "--stat", "tuple-prob", "--samples", "500"]
        else:
            argv += ["--backend", "mc", "--samples", "50"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        name = f"{command}-{town}-seed{'max' if seed == U64_MAX else seed}.json"
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("town", ["town", "town20"])
    @pytest.mark.parametrize("stat", ["mean", "dist"])
    def test_estimate_stat_is_byte_identical(self, capsys, stat, town):
        # recorded before the output writer streamed; mean counts alarms,
        # dist tallies the bags of alarmed houses
        query = FIXTURES / ("alarm_count.query" if stat == "mean" else "alarms.query")
        code, out, err = run(capsys, "estimate", "--db", str(FIXTURES / f"{town}.jsonl"), "--program", RULES,
                             "--query", str(query), "--stat", stat, "--samples", "500", "--seed", "7")
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / f"estimate-{stat}-{town}-seed7.json").read_bytes()

    @pytest.mark.parametrize("command", ["estimate", "generate"])
    def test_continuous_program_is_byte_identical(self, capsys, command):
        # recorded before the plans' caches were bounded by what the
        # program can repeat: noise draws a normal per house, and high
        # reads those heads, which recur in no two worlds
        argv = [command, "--db", str(FIXTURES / "town20.jsonl"), "--program", str(FIXTURES / "noise.rules"),
                "--seed", "7"]
        if command == "estimate":
            argv += ["--query", str(FIXTURES / "high.query"), "--samples", "500"]
        else:
            argv += ["--backend", "mc", "--samples", "50"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / f"{command}-noise-town20-seed7.json").read_bytes()

    def test_exact_stdout_is_byte_identical(self, capsys):
        code, out, err = run(capsys, "generate", "--db", TOWN, "--program", RULES, "--backend", "exact")
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / "generate-exact-town.json").read_bytes()

    def test_exact_stdout_four_houses(self, capsys):
        # the 624 KB output is pinned by its sha256 instead of committed
        code, out, err = run(capsys, "generate", "--db", str(FIXTURES / "town4.jsonl"),
                             "--program", RULES, "--backend", "exact")
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "ca64e8bfe38c16def23d6045d839f1eba03150be42bb62ab1803e93fc38c3e70")

    def test_exact_stdout_five_houses(self, capsys):
        # 3.6 MB, recorded before exact combinations were spliced into their
        # worlds; town5.jsonl is perfbench/inputs.town with random.Random(5)
        code, out, err = run(capsys, "generate", "--db", str(FIXTURES / "town5.jsonl"),
                             "--program", RULES, "--backend", "exact")
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "3eded594fe5c938e78f371cf520d20e7a2a75379799442363cee3f3988e66d94")

    def test_exact_stdout_six_houses(self, capsys):
        # 16 354 worlds, 20.8 MB, recorded before exact combinations were
        # built from shared prefixes: worlds with up to six matches per rule;
        # town6.jsonl is perfbench/inputs.town with random.Random(1)
        code, out, err = run(capsys, "generate", "--db", str(FIXTURES / "town6.jsonl"),
                             "--program", RULES, "--backend", "exact")
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "0cce2f7b7278e543c93fdc13d474bc1935d86b6cbe0f8e177ecfcc3194b5eb5f")


class TestOutput:
    """``--output FILE`` gets the bytes stdout gets, and output is
    all-or-nothing: a run that fails after some worlds were generated and
    encoded writes nothing to stdout and creates no file."""

    CASES = {
        "query": ["query", "--db", DB, "--query", BLOCKBUSTERS],
        "exact": ["generate", "--db", TOWN, "--program", RULES, "--backend", "exact"],
        "mc": ["generate", "--db", TOWN, "--program", RULES, "--backend", "mc", "--samples", "50", "--seed", "7"],
        "estimate": ["estimate", "--db", TOWN, "--program", RULES, "--query", ALARMS,
                     "--samples", "200", "--seed", "7"],
    }

    @pytest.mark.parametrize("case", [pytest.param(c, marks=pytest.mark.hashseed) if c == "estimate" else c
                                      for c in sorted(CASES)])
    def test_file_gets_the_stdout_bytes(self, tmp_path, capsys, case):
        code, out, err = run(capsys, *self.CASES[case])
        assert code == 0, err
        target = tmp_path / "out.json"
        code, rest, err = run(capsys, *self.CASES[case], "--output", str(target))
        assert code == 0 and rest == "", err
        assert target.read_bytes() == out.encode("utf-8")

    def failed_run(self, tmp_path, capsys, *argv):
        """Run argv to stdout and to a file; both must fail the same way
        without writing anything.  Returns (exit code, stderr)."""
        target = tmp_path / "out.json"
        code, out, err = run(capsys, *argv)
        assert out == ""
        assert run(capsys, *argv, "--output", str(target)) == (code, "", err)
        assert not target.exists()
        return code, err

    @pytest.mark.parametrize("existed", [False, True])
    @pytest.mark.parametrize("after", [0, 100])
    def test_interrupted_write_leaves_the_destination_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                                 existed, after):
        # Ctrl-C after some worlds were written to the file: no file, or
        # the one that was there byte for byte, and no temporary file
        target = tmp_path / "out.json"
        if existed:
            target.write_bytes(b"earlier output\n")
        written, text = [], cli._bag_text

        def bag_text(*args):
            if len(written) == after:
                raise KeyboardInterrupt
            written.append(None)
            return text(*args)

        monkeypatch.setattr(cli, "_bag_text", bag_text)
        argv = ["generate", "--db", str(FIXTURES / "town4.jsonl"), "--program", RULES, "--output", str(target)]
        assert run(capsys, *argv) == (130, "", "bagdb: interrupted\n")
        assert len(written) == after
        assert sorted(os.listdir(tmp_path)) == (["out.json"] if existed else [])
        if existed:
            assert target.read_bytes() == b"earlier output\n"

    def test_file_keeps_its_mode_and_a_device_is_written_in_place(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        target.write_bytes(b"earlier output\n")
        target.chmod(0o640)
        assert run(capsys, *self.CASES["query"], "--output", str(target))[0] == 0
        assert target.stat().st_mode & 0o7777 == 0o640
        assert os.listdir(tmp_path) == ["out.json"]
        assert run(capsys, *self.CASES["query"], "--output", os.devnull) == (0, "", "")

    def test_missing_directory_is_named_by_the_destination(self, tmp_path, capsys):
        target = str(tmp_path / "missing" / "out.json")
        assert run(capsys, *self.CASES["query"], "--output", target) == (
            1, "", f"bagdb: [Errno 2] No such file or directory: {target!r}\n")

    def test_mc_world_after_the_first_raises(self, tmp_path, capsys):
        rules = tmp_path / "dyn.rules"
        rules.write_text("level(x, normal(0.5, 0.3)) <- address(x, c)\n"
                         "tripped(x, bernoulli(p)) <- level(x, p)\n")
        sampler = run_rule_program(parse_rules(rules.read_text()), load_table(Path(TOWN))[1], "mc", seed=Seed(3))
        for i in range(5):
            sampler.world(i)  # encoded before world 5 raises
        code, err = self.failed_run(tmp_path, capsys, "generate", "--db", TOWN, "--program", str(rules),
                                    "--backend", "mc", "--samples", "50", "--seed", "3")
        assert code == 3
        assert err == "bagdb: bernoulli parameter -0.03678494652555164 outside [0, 1]\n"

    def test_exact_world_limit(self, tmp_path, capsys):
        db = tmp_path / "coins.jsonl"
        db.write_text("".join(f'{{"tag": "coin", "value": {i}}}\n' for i in range(21)))
        rules = tmp_path / "flip.rules"
        rules.write_text("flip(x, bernoulli(0.5)) <- coin(x)\n")
        code, err = self.failed_run(tmp_path, capsys, "generate", "--db", str(db), "--program", str(rules))
        assert code == 4
        assert err == ("bagdb: resource limit: exact enumeration exceeds 1000000 worlds; "
                       "rerun with the mc backend\n")

    @pytest.mark.hashseed
    def test_estimate_query_fails_in_a_later_world(self, tmp_path, capsys):
        # 100 houses in 10 cities; the query adds a string and an int,
        # which it reaches only in worlds with an earthquake
        rows = [{"tag": "address", "value": [f"H{i:03d}", f"C{i % 10}"]} for i in range(100)]
        rows += [{"tag": "crimechance", "value": [f"C{c}", 0.3]} for c in range(10)]
        db = str(tmp_path / "town.jsonl")
        Path(db).write_text("".join(json.dumps(r) + "\n" for r in rows))
        q = tmp_path / "quake.query"
        q.write_text("table world |> match earthquake as (c, q) |> select (.q = 1) |> map (.c + 1)\n")
        code, err = self.failed_run(tmp_path, capsys, "estimate", "--db", db, "--program", RULES,
                                    "--query", str(q), "--samples", "50", "--seed", "7", "--stat", "dist")
        assert code == 3
        sampler = run_rule_program(parse_rules(Path(RULES).read_text()), load_table(Path(db))[1], "mc",
                                   seed=Seed(7))
        ast = parse(q.read_text())
        for i in range(50):
            world = sampler.world(i)
            try:
                eval_query(ast, {"world": world})
            except EngineError as e:
                cause = e
                break
        assert i > 0
        assert err.startswith(f"bagdb: query failed in world {i} ({len(world)} rows: [Tagged(")
        assert err.endswith(f" ...]): {cause}\n")
        assert len(err.encode("utf-8")) < 1024

    def test_mean_fails_at_the_first_non_numeric_world(self, tmp_path, capsys):
        # the query of test_estimate_query_fails_in_a_later_world, plus the
        # city names, which are not numbers: the mean statistic reads each
        # result as its world is sampled, so it fails at world 0, before
        # the world whose query raises
        rows = [{"tag": "address", "value": [f"H{i:03d}", f"C{i % 10}"]} for i in range(100)]
        rows += [{"tag": "crimechance", "value": [f"C{c}", 0.3]} for c in range(10)]
        db = str(tmp_path / "town.jsonl")
        Path(db).write_text("".join(json.dumps(r) + "\n" for r in rows))
        q = tmp_path / "quake.query"
        q.write_text("table world |> match earthquake as (c, q) |> select (.q = 1) |> map (.c + 1)"
                     " |> dunion (table world |> match crimechance as (c, r) |> map (.c))\n")
        code, err = self.failed_run(tmp_path, capsys, "estimate", "--db", db, "--program", RULES,
                                    "--query", str(q), "--samples", "50", "--seed", "7", "--stat", "mean")
        assert code == 3
        assert err == "bagdb: mean statistic needs numeric results, got Str('C0')\n"
        code, err = self.failed_run(tmp_path, capsys, "estimate", "--db", db, "--program", RULES,
                                    "--query", str(q), "--samples", "50", "--seed", "7", "--stat", "dist")
        assert code == 3
        assert err.startswith("bagdb: query failed in world 4 ")


class TestStreamedOutput:
    """The writer prints exactly ``json.dumps(payload, sort_keys=True) +
    "\\n"`` for each payload the CLI writes."""

    @staticmethod
    def emitted(payload) -> str:
        real, sys.stdout = sys.stdout, io.StringIO()
        try:
            _emit("-", payload)
            return sys.stdout.getvalue()
        finally:
            sys.stdout = real

    @staticmethod
    def dumped(payload) -> str:
        return json.dumps(payload, sort_keys=True) + "\n"

    @given(json_edge_values)
    def test_query(self, v):
        assert self.emitted(to_json(v)) == self.dumped(to_json(v))

    @given(st.data())
    def test_exact(self, data):
        # worlds draw their elements from one pool, so the same object
        # recurs within and across worlds, as in the exact backend
        pool = data.draw(st.lists(json_edge_values, max_size=6))
        element = st.sampled_from(pool) | json_edge_values if pool else json_edge_values
        world = st.lists(element, max_size=5).map(lambda xs: BagV(Bag.of(xs)))
        weight = st.floats(allow_nan=False) | st.sampled_from([-0.0, math.inf, -math.inf, 5e-324])
        entries = data.draw(st.lists(st.tuples(world, weight), max_size=5))
        plain = {"backend": "exact", "worlds": [{"weight": w, "world": to_json(v)} for v, w in entries]}
        assert self.emitted(_exact_payload(entries, pool)) == self.dumped(plain)

    @given(st.data())
    def test_mc(self, data):
        rows = data.draw(st.lists(json_edge_values, max_size=4))
        element = st.sampled_from(rows) | json_edge_values if rows else json_edge_values
        worlds = data.draw(st.lists(st.lists(element, max_size=5).map(Bag.of), max_size=5))
        samples, seed = data.draw(st.integers(1, 10**4)), data.draw(seeds)
        plain = {"backend": "mc", "samples": samples, "seed": seed, "worlds": [to_json(BagV(w)) for w in worlds]}
        assert self.emitted(_mc_payload(iter(worlds), rows, samples, seed)) == self.dumped(plain)

    def test_memo_is_keyed_by_identity(self):
        # Int(-1) and Int(-2) hash alike in CPython
        entries = [(BagV(Bag.of([Int(-1)])), 0.5), (BagV(Bag.of([Int(-2)])), 0.5)]
        plain = {"backend": "exact", "worlds": [{"weight": w, "world": to_json(v)} for v, w in entries]}
        assert self.emitted(_exact_payload(entries, ())) == self.dumped(plain)

    def test_writers_encode_each_element_once(self, monkeypatch):
        # an element object that recurs within and across worlds is encoded
        # once by either writer, an input row when the memo starts; an equal
        # object is encoded again
        import bagdb.cli as cli
        calls = []
        monkeypatch.setattr(cli, "json_text", lambda v: calls.append(v) or json_text(v))
        row, head = Tagged("address", Str("H1")), Tagged("alarm", Str("H1"))
        worlds = [Bag.of([row, head, head]), Bag.of([row]), Bag.of([row, head, Tagged("alarm", Str("H1"))])]
        self.emitted(_mc_payload(iter(worlds), [row], 3, 0))
        assert len(calls) == 3
        self.emitted(_exact_payload([(BagV(w), 1 / 3) for w in worlds], [row]))
        assert len(calls) == 6

    def test_mc_lets_each_world_go(self, monkeypatch):
        # with the memo full, a world's own rows are freed once the world
        # after it is encoded (the loop still holds a world while it asks
        # for the next one); the input row, which starts the memo, stays
        import bagdb.cli as cli
        monkeypatch.setattr(cli, "_MEMO_CAP", 1)
        rows = [Tagged("address", Str("H1"))]
        refs: list[list] = []

        def worlds():
            for i in range(4):
                assert all(r() is None for old in refs[:-1] for r in old)
                fresh = [Tagged("alarm", Int(i)), Tagged("alarm", Int(i + 1))]
                refs.append([weakref.ref(e) for e in fresh])
                yield Bag.of(rows + fresh)

        payload = _mc_payload(worlds(), rows, 4, 0)
        assert all(r() is None for old in refs for r in old)
        assert self.emitted(payload).count('{"tag": "address", "value": "H1"}') == 4

    @staticmethod
    def stat_results(results, stat):
        """``results`` as a statistic can take them: numbers only for mean."""
        if stat == "mean":
            results = [r for r in results if isinstance(r, (Int, Real)) and abs(r.value) < 1e300]
            assume(results)
        return results

    @pytest.mark.hashseed
    @given(st.lists(json_edge_values, min_size=1, max_size=6), st.sampled_from(sorted(STATS)))
    def test_estimate(self, results, stat):
        results = self.stat_results(results, stat)
        payload = {"stat": stat, "samples": len(results), "seed": 7, **fold(stat, results)}
        assert self.emitted(payload) == self.dumped(payload)

    @pytest.mark.hashseed
    @given(st.lists(json_edge_values, min_size=1, max_size=6), st.sampled_from(sorted(STATS)),
           st.lists(st.integers(0, 6), max_size=2))
    @example([Real(1e16), Real(1.0), Real(-1e16)], "mean", [1, 2])  # a float sum depends on the order
    def test_estimate_shares_merge_in_any_order(self, results, stat, cuts):
        # a statistic's accumulator is a monoid under +=: folding up to 3
        # contiguous shares of the results from empty and merging them, in
        # any order, gives the payload of the serial fold, byte for byte
        results = self.stat_results(results, stat)
        n = len(results)
        bounds = [0, *sorted(min(c, n) for c in cuts), n]
        accs = [accumulate(stat, results[a:b]) for a, b in zip(bounds, bounds[1:])]
        empty, _, finish = STATS[stat]
        serial = self.emitted(fold(stat, results))
        for order in itertools.permutations(accs):
            merged = empty()
            for acc in order:
                merged += acc
            assert self.emitted(finish(merged, n)) == serial
