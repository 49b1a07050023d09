"""The front end that queries and rule programs share: one literal grammar,
and a fuzz of both parsers and of the CLI on malformed text."""
import contextlib
import io
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
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
def _mutated_fixtures(draw):
    """A fixture query or rule program with a few characters or
    vocabulary tokens deleted, inserted or duplicated."""
    text = draw(st.sampled_from(_FIXTURE_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        edit = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "insert":
            text = text[:i] + draw(st.sampled_from(_VOCABULARY)) + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


fuzz_texts = st.one_of(_token_texts, _mutated_fixtures())

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


@settings(max_examples=300)
@given(text=fuzz_texts)
def test_cli_exits_0_to_5_without_traceback(tiny_tables, text):
    root = tiny_tables
    (root / "fuzz.txt").write_text(text, encoding="utf-8")
    for argv in (
        ["query", "--db", str(root / "db.jsonl"), "--query", str(root / "fuzz.txt")],
        ["generate", "--db", str(root / "town.jsonl"), "--program", str(root / "fuzz.txt"),
         "--backend", "mc", "--samples", "2", "--seed", "1"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert 0 <= code <= 5
        assert "Traceback" not in err.getvalue()
