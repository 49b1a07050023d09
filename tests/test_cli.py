"""Command-line interface: subcommands, exit codes, and reproducibility."""
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from bagdb.cli import main

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

    def test_mc_payload_shape(self, capsys):
        _, out, _ = run(
            capsys, "generate", "--db", TOWN, "--program", RULES,
            "--backend", "mc", "--samples", "5", "--seed", "1",
        )
        payload = json.loads(out)
        assert payload["samples"] == 5 and payload["seed"] == 1
        assert len(payload["worlds"]) == 5
        assert all("bag" in w for w in payload["worlds"])


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

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bagdb.cli", "--help"], capture_output=True
        )
        assert proc.returncode == 0


GOLDEN = FIXTURES / "golden"
U64_MAX = str(2**64 - 1)


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
