"""The front end that queries and rule programs share: one literal grammar,
and a fuzz of both parsers and of the CLI on malformed text and tables."""
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagdb.algebra import Const, Lit, MapQ
from bagdb.bags import EMPTY, Bag
from bagdb.cli import main
from bagdb.dsl import check, parse
from bagdb.errors import EngineError
from bagdb.pbmonad import ConstT, parse_rules, validate_program
from bagdb.values import UNIT, Bool, Int, Real, Str

FIXTURES = Path(__file__).parent / "fixtures"

# ---------------------------------------------------------------------------
# One literal grammar

_ESCAPES = {'"': '\\"', "\\": "\\\\", "/": "\\/", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _spellings(c: str) -> list[str]:
    """Ways to write the character c inside a string literal."""
    out = [f"\\u{ord(c):04x}", f"\\u{ord(c):04X}"] if ord(c) < 0x10000 else []
    if ord(c) >= 0x10000:  # a surrogate pair
        hi, lo = divmod(ord(c) - 0x10000, 0x400)
        out.append(f"\\u{0xD800 + hi:04x}\\u{0xDC00 + lo:04x}")
    if c in _ESCAPES:
        out.append(_ESCAPES[c])
    if c not in '"\\\n':
        out.append(c)  # raw, tabs and other control characters included
    return out


_chars = st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from('#"\\/\t\n\x0c\x85 é'))
_string_literals = st.lists(_chars.flatmap(lambda c: st.sampled_from(_spellings(c)).map(lambda t: (t, c))),
                            max_size=8).map(lambda parts: ('"' + "".join(t for t, _ in parts) + '"',
                                                           Str("".join(c for _, c in parts))))


def _float_text(x: float) -> str:
    return ("-inf" if x < 0 else "inf") if math.isinf(x) else repr(x)


scalar_literals = st.one_of(
    st.integers().map(lambda n: (str(n), Int(n))),
    st.one_of(st.floats(allow_nan=False), st.sampled_from([-0.0, math.inf, -math.inf])).map(
        lambda x: (_float_text(x), Real(x))),
    _string_literals,
    st.sampled_from([("true", Bool(True)), ("false", Bool(False)), ("null", UNIT)]),
)


@given(scalar_literals)
def test_rules_and_queries_read_scalars_alike(literal):
    text, value = literal
    assert parse_rules(f"a({text}) <- b(x)").rules[0].head_terms == (ConstT(value),)
    assert parse(f"bag {{{text}}}") == Lit(Bag.of([value]))
    assert parse(f"empty |> map ({text})") == MapQ(Const(value), Lit(EMPTY))
    # equal keys, so -0.0 and 0.0 differ
    assert parse(f"bag {{{text}}}").bag.elements[0].key == value.key


# ---------------------------------------------------------------------------
# Fuzz: malformed text raises only engine errors, and the CLI exits 0-5

_VOCABULARY = (
    "table", "bag", "empty", "map", "select", "project", "product", "dunion", "union",
    "difference", "intersect", "dedup", "powerbag", "flatten", "singleton", "group",
    "agg", "size", "the", "sum", "match", "joinmatch", "as", "on", "row", "istag",
    "payload", "and", "or", "not", "true", "false", "null", "inf", "bernoulli",
    "normal", "poisson", "db", "world", "cast", "gross", "a", "x", "c",
    "0", "1", "-1", "2.5", "1e3", "-inf", '"s"', '"a#b"', '"\\u00e9"', '"\\q"', '"\\u-001"', '"open',
    "|>", "<-", "<=", ">=", "!=", "(", ")", "[", "]", "{", "}", ",", "<", ">", "=", "+",
    "-", "*", ".1", ".2", ".name", ".", "#", "\n", "\t", "\r", "\x0c", "@", "é", "0x",
)

_token_texts = st.lists(st.tuples(st.sampled_from(_VOCABULARY), st.sampled_from(["", " ", "\n"])),
                        max_size=24).map(lambda ts: "".join(t + sep for t, sep in ts))

_FIXTURE_TEXTS = [p.read_text() for p in sorted(FIXTURES.glob("*.query")) + [FIXTURES / "burglary.rules"]]


@st.composite
def _mutated(draw, texts, tokens):
    """One of ``texts`` (str or bytes) with a few characters deleted or
    duplicated, or tokens drawn from ``tokens`` inserted."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        edit = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "insert":
            text = text[:i] + draw(tokens) + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


fuzz_texts = st.one_of(_token_texts, _mutated(_FIXTURE_TEXTS, st.sampled_from(_VOCABULARY)))

_CATALOG = {"db": None, "world": None}


@settings(max_examples=1000)
@given(fuzz_texts)
def test_parsers_raise_only_engine_errors(text):
    try:
        check(parse(text), _CATALOG)
    except EngineError:
        pass
    try:
        validate_program(parse_rules(text))
    except EngineError:
        pass


@pytest.fixture(scope="module")
def tiny_tables(tmp_path_factory):
    """One-row-per-tag tables, so that no fuzzed join or product is slow."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "db.jsonl").write_text('{"tag": "cast", "value": ["A1", "M1"]}\n'
                                   '{"tag": "gross", "value": ["M1", 3.0e8]}\n')
    (root / "town.jsonl").write_text('{"tag": "address", "value": ["H1", "C1"]}\n'
                                     '{"tag": "crimechance", "value": ["C1", 0.3]}\n')
    return root


def _run_cli(argv):
    """``main(argv)``, which must exit 0-5 and print no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert 0 <= code <= 5
    assert "Traceback" not in err.getvalue()


@settings(max_examples=300)
@given(text=fuzz_texts)
def test_cli_exits_0_to_5_without_traceback(tiny_tables, text):
    root = tiny_tables
    (root / "fuzz.txt").write_text(text, encoding="utf-8")
    _run_cli(["query", "--db", str(root / "db.jsonl"), "--query", str(root / "fuzz.txt")])
    _run_cli(["generate", "--db", str(root / "town.jsonl"), "--program", str(root / "fuzz.txt"),
              "--backend", "mc", "--samples", "2", "--seed", "1"])


# a fixture table and the run that reads it
_TABLE_RUNS = {
    "db.jsonl": ["query", "--query", str(FIXTURES / "blockbusters.query")],
    "town.jsonl": ["generate", "--program", str(FIXTURES / "burglary.rules"),
                   "--backend", "mc", "--samples", "2", "--seed", "1"],
}
# one digit more than the interpreter converts to an int; inside a row it is
# read as an int only where a value may start, so it also comes as a row
_LONG_DIGITS = b"9" * ((getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) + 1)
# half the inserted tokens are bytes that are not UTF-8 or such digit runs
_TABLE_TOKENS = st.one_of(
    st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", _LONG_DIGITS, b"\n" + _LONG_DIGITS + b"\n"]),
    st.sampled_from([b"0", b"-1", b"2.5", b"1e400", b"NaN", b"Infinity", b"null", b"true", b'"', b"\\",
                     b'"tag"', b'"value"', b'"bag"', b'"cast"', b'"address"', b"{", b"}", b"[", b"]", b",", b":",
                     b" ", b"\n", b"\r", b"\t"]),
)
_mutated_tables = st.sampled_from(sorted(_TABLE_RUNS)).flatmap(
    lambda name: _mutated([(FIXTURES / name).read_bytes()], _TABLE_TOKENS).map(lambda data: (name, data)))


@settings(max_examples=300)
@given(table=_mutated_tables)
@example(table=("db.jsonl", b"\xff" + (FIXTURES / "db.jsonl").read_bytes()))
@example(table=("town.jsonl", _LONG_DIGITS + b"\n" + (FIXTURES / "town.jsonl").read_bytes()))
def test_cli_on_fuzzed_tables_exits_0_to_5_without_traceback(tiny_tables, table):
    name, data = table
    path = tiny_tables / "fuzzed" / name  # the file's stem names the table
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    _run_cli([_TABLE_RUNS[name][0], "--db", str(path), *_TABLE_RUNS[name][1:]])


# JSONL tables written from scratch, not from the fixtures: any JSON value
# per line, nested to any depth, with objects that do and do not spell a
# tagged value or a bag, tags that are not identifiers, numbers past a
# float's range or spelled as JSON has no number, and blank lines
_strings = st.one_of(st.text(max_size=4), st.sampled_from(["H1", "C1", "M1", "A1", "1x", "a b", "é", "tag"]))
_number_texts = st.one_of(
    st.integers().map(str),
    st.floats().map(json.dumps),  # NaN, Infinity and -Infinity among them
    st.sampled_from(["1e400", "-1e400", "1E-400", "9" * 400, "-0", "-0.0", "0.3", "1.7976931348623157e308"]),
)
_scalar_texts = st.one_of(st.sampled_from(["null", "true", "false"]), _number_texts, _strings.map(json.dumps))
_key_texts = st.one_of(st.sampled_from(["tag", "value", "bag"]), st.text(max_size=4)).map(json.dumps)
_tag_texts = st.one_of(st.sampled_from(["address", "crimechance", "cast", "gross"]), _strings).map(json.dumps)


def _compound_texts(inner):
    return st.one_of(
        st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.lists(st.tuples(_key_texts, inner), max_size=3).map(
            lambda kvs: "{" + ", ".join(f"{k}: {v}" for k, v in kvs) + "}"),
        st.tuples(_tag_texts, inner).map(lambda tv: f'{{"tag": {tv[0]}, "value": {tv[1]}}}'),
        st.lists(inner, max_size=3).map(lambda xs: '{"bag": [' + ", ".join(xs) + "]}"),
    )


_json_texts = st.recursive(_scalar_texts, _compound_texts, max_leaves=8)
# at most five rows, so that an exact run that matches them stays small
_fresh_tables = st.lists(st.one_of(_json_texts, st.sampled_from(["", " ", "\t"])), max_size=5).map("\n".join)


@settings(max_examples=200)
@given(text=_fresh_tables)
@example(text='{"tag": "address", "value": ["H1", "C1"]}\n\n{"tag": "crimechance", "value": ["C1", 0.3]}')
@example(text='{"tag": "crimechance", "value": ["C1", 1e400]}\n{"tag": "address", "value": ["H1", "C1"]}')
def test_cli_on_tables_from_scratch_exits_0_to_5_without_traceback(tiny_tables, text):
    root = tiny_tables / "fresh"
    root.mkdir(exist_ok=True)
    for name in ("db", "town"):  # the file's stem names the table each run reads
        (root / f"{name}.jsonl").write_text(text, encoding="utf-8")
    _run_cli(["query", "--db", str(root / "db.jsonl"), "--query", str(FIXTURES / "blockbusters.query")])
    _run_cli(["generate", "--db", str(root / "town.jsonl"), "--program", str(FIXTURES / "burglary.rules"),
              "--backend", "exact"])
