"""Property-based invariants over randomly generated programs."""

from __future__ import annotations

import contextlib
import html
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st_strat

from poumetrics import (
    ParseError,
    StSource,
    TokenClass,
    compute_vector,
    parse_st_pou,
    st_fragment_facts,
    validate_pou,
)
from poumetrics.aggregate import median_of
from poumetrics.cli import main
from poumetrics.errors import UnterminatedComment, UnterminatedString
from poumetrics.plcopen import _local_id_key
from poumetrics.report import _json_text, fmt4, fmt4_ratio
from poumetrics.st import LineTable, lex

from conftest import CORPUS
from stgen import generate_program, sprinkle_comments

SEEDS = st_strat.integers(min_value=0, max_value=10_000_000)


def analyzed(seed: int):
    prog = generate_program(seed)
    pou, warnings = parse_st_pou(StSource(path="<gen>", text=prog.source))
    assert warnings == []
    return prog, pou


@settings(max_examples=100, derandomize=True)
@given(SEEDS)
def test_generated_programs_parse_and_validate(seed):
    _, pou = analyzed(seed)
    assert validate_pou(pou) == []


@settings(max_examples=100, derandomize=True)
@given(SEEDS)
def test_token_accounting_identities(seed):
    _, pou = analyzed(seed)
    vec = compute_vector(pou)
    n1_occ = sum(1 for t in pou.body.tokens if t.cls is TokenClass.OPERATOR)
    n2_occ = sum(1 for t in pou.body.tokens if t.cls is TokenClass.OPERAND)
    n1 = len({t.identity_key for t in pou.body.tokens if t.cls is TokenClass.OPERATOR})
    n2 = len({t.identity_key for t in pou.body.tokens if t.cls is TokenClass.OPERAND})
    assert vec.program_length == n1_occ + n2_occ
    assert vec.vocabulary == n1 + n2
    assert vec.vocabulary <= vec.program_length
    assert n1 <= n1_occ and n2 <= n2_occ
    if n2:
        assert vec.difficulty == Fraction(n1, 2) * Fraction(n2_occ, n2)


@settings(max_examples=100, derandomize=True)
@given(SEEDS)
def test_cyclomatic_matches_independent_flow_graph(seed):
    prog, pou = analyzed(seed)
    assert compute_vector(pou).cyclomatic == prog.cyclomatic


@settings(max_examples=60, derandomize=True)
@given(SEEDS, SEEDS)
def test_comments_and_whitespace_change_nothing(seed, noise_seed):
    prog, pou = analyzed(seed)
    noisy = sprinkle_comments(prog.source, noise_seed)
    noisy_pou, _ = parse_st_pou(StSource(path="<gen>", text=noisy))
    assert compute_vector(noisy_pou) == compute_vector(pou)
    assert [t.identity_key for t in noisy_pou.body.tokens] == [
        t.identity_key for t in pou.body.tokens
    ]


@settings(max_examples=60, derandomize=True)
@given(SEEDS)
def test_decisions_never_negative_and_cc_at_least_one(seed):
    _, pou = analyzed(seed)
    vec = compute_vector(pou)
    assert pou.body.decision_count >= 0
    assert vec.cyclomatic == pou.body.decision_count + 1
    assert vec.cyclomatic >= 1


# Pieces that open, close or escape each lexical construct, so random
# texts mix tokens with open and closed comments, pragmas and strings.
ST_PIECES = [
    "(*", "*)", "//", "{", "}", "'", '"', "$", "%", "#", "\t", "\n", " ", "a", "T", "1", "e", "_",
    ".", ":", "=", "<", ">", "*", "(", ")", ";", "+", "IX", "16#", "?",
]


@settings(max_examples=300, derandomize=True)
@given(st_strat.lists(st_strat.sampled_from(ST_PIECES), max_size=40).map("".join))
def test_lexed_tokens_sit_at_their_positions(text):
    try:
        toks = lex(text)
    except ParseError:
        return
    line_offsets = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            line_offsets.append(i + 1)
    lines = LineTable(text)
    end = 0
    for tok in toks:
        line, col = lines.position(tok.offset)
        assert line_offsets[line - 1] + col - 1 == tok.offset
        assert tok.offset >= end  # no overlap, so offsets strictly increase
        assert text[tok.offset : tok.offset + len(tok.text)] == tok.text
        end = tok.offset + len(tok.text)


# Whole words and symbols of the ST grammar, so random lists stop every
# construct the parsers know at every point, end of input included.
ST_WORDS = [
    "PROGRAM P", "END_PROGRAM", "VAR", "VAR_INPUT", "END_VAR", "AT", "%IX0.0", "ARRAY", "[", "]", "OF",
    "STRUCT", "END_STRUCT", "STRING", "IF", "THEN", "ELSIF", "ELSE", "END_IF", "CASE", "END_CASE",
    "FOR", "TO", "BY", "DO", "END_FOR", "WHILE", "END_WHILE", "REPEAT", "UNTIL", "END_REPEAT",
    "EXIT", "NOT", "AND", "MOD", "TRUE", ";", ":=", "=>", ":", ",", ".", "..", "(", ")", "-", "+",
    "x", "F", "INT", "1", "'s'", "T#5s",
]


@settings(max_examples=500, derandomize=True)
@given(st_strat.lists(st_strat.sampled_from(ST_WORDS), max_size=30).map(" ".join))
def test_st_parsers_return_or_raise_parse_error(text):
    calls = (
        lambda: parse_st_pou(StSource(path="<fuzz>", text=text)),
        lambda: parse_st_pou(StSource(path="<fuzz>", text="PROGRAM P %s END_PROGRAM" % text)),
        lambda: st_fragment_facts(text),
    )
    for call in calls:
        try:
            call()
        except ParseError:
            pass


@settings(max_examples=200, derandomize=True)
@given(st_strat.lists(st_strat.fractions(min_value=0, max_value=1000), min_size=1, max_size=25))
def test_median_bounds_and_permutation_invariance(values):
    med = median_of(values)
    assert min(values) <= med <= max(values)
    assert median_of(list(reversed(sorted(values)))) == med


@settings(max_examples=200, derandomize=True)
@given(st_strat.fractions(min_value=-10_000, max_value=10_000))
def test_fmt4_round_trips_within_half_step(value):
    rendered = fmt4(value)
    assert abs(Fraction(rendered) - value) <= Fraction(1, 20000)


@settings(max_examples=200, derandomize=True)
@given(st_strat.fractions(min_value=-10_000, max_value=10_000), st_strat.integers(1, 10**6))
def test_fmt4_ratio_needs_no_reduced_fraction(value, factor):
    # 1/20000 * k over k: the tie that rounds half to even must survive
    tie = Fraction(2 * round(value * 10000) + 1, 20000)
    for exact in (value, tie):
        assert fmt4_ratio(exact.numerator * factor, exact.denominator * factor) == fmt4(exact)


@settings(max_examples=100, derandomize=True)
@given(st_strat.fractions(min_value=-10_000, max_value=10_000))
def test_fmt4_shape(value):
    rendered = fmt4(value)
    integer, _, frac = rendered.partition(".")
    assert len(frac) == 4
    assert integer.lstrip("-").isdigit() and frac.isdigit()


@settings(max_examples=50, derandomize=True)
@given(SEEDS, st_strat.integers(min_value=1, max_value=9))
def test_scaling_all_vectors_preserves_relative_position(seed, factor):
    # multiplying every raw metric by the same positive factor scales the
    # medians identically, so relative values and the overall number are
    # unchanged
    from poumetrics import Language, MetricVector, PouKind, SampleEntry, aggregate

    import random

    rng = random.Random(seed)
    vectors = []
    for _ in range(rng.randint(2, 6)):
        vectors.append(
            MetricVector(
                program_length=rng.randint(1, 40),
                cyclomatic=rng.randint(1, 10),
                fifo=rng.randint(1, 30),
                vocabulary=rng.randint(1, 20),
                difficulty=Fraction(rng.randint(1, 60), rng.randint(1, 7)),
                data_structure=rng.randint(1, 25),
            )
        )

    def entries(vecs):
        return [
            SampleEntry("p%d" % i, PouKind.PROGRAM, Language.ST, v)
            for i, v in enumerate(vecs)
        ]

    base_results, _, _ = aggregate(entries(vectors))
    scaled = [
        MetricVector(
            program_length=v.program_length * factor,
            cyclomatic=v.cyclomatic * factor,
            fifo=v.fifo * factor,
            vocabulary=v.vocabulary * factor,
            difficulty=v.difficulty * factor,
            data_structure=v.data_structure * factor,
        )
        for v in vectors
    ]
    scaled_results, _, _ = aggregate(entries(scaled))
    assert [r.name for r in base_results] == [r.name for r in scaled_results]
    for a, b in zip(base_results, scaled_results):
        assert a.oc_rel == b.oc_rel
        assert a.relative == b.relative


# ------------------------- whole-run robustness -------------------------

CORPUS_FILES = sorted(p for p in CORPUS.iterdir() if p.suffix != ".json")

# (position, byte, operation): the position wraps around the current length.
EDITS = st_strat.lists(
    st_strat.tuples(
        st_strat.integers(min_value=0, max_value=1 << 16),
        st_strat.integers(min_value=0, max_value=255),
        st_strat.sampled_from(["replace", "insert", "delete"]),
    ),
    min_size=1,
    max_size=8,
)


def mutated(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for position, byte, operation in edits:
        i = position % (len(buf) + 1)
        if operation == "insert":
            buf[i:i] = bytes([byte])
        elif operation == "delete":
            del buf[i : i + 1]
        else:
            buf[i : i + 1] = bytes([byte])
    return bytes(buf)


def cli_run(files: dict[str, bytes], *options: str) -> tuple[int, str]:
    """Run `analyze` on the directory `src` of a temporary directory
    holding `files`, with `options`, where "{tmp}" stands for that
    directory; return the exit code and what went to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            path = Path(tmp) / name
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", str(Path(tmp) / "src"), *[o.replace("{tmp}", tmp) for o in options]])
    return code, err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st_strat.sampled_from(CORPUS_FILES), EDITS)
def test_cli_on_mutated_corpus_files_exits_0_1_or_2(source, edits):
    assert cli_run({"src/" + source.name: mutated(source.read_bytes(), edits)})[0] in (0, 1, 2)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st_strat.sampled_from(["random.st", "random.xml"]), st_strat.binary(max_size=200))
def test_cli_on_random_bytes_exits_0_1_or_2(name, data):
    assert cli_run({"src/" + name: data})[0] in (0, 1, 2)


DIGITS = st_strat.text(alphabet="0123456789", min_size=1, max_size=40)


@settings(max_examples=500, derandomize=True)
@given(DIGITS, DIGITS)
def test_local_id_key_orders_ascii_digits_as_integers(a, b):
    assert (_local_id_key(a) < _local_id_key(b)) == (int(a) < int(b))
    assert (_local_id_key(a) == _local_id_key(b)) == (int(a) == int(b))


@pytest.mark.parametrize("local_id", ["\u00b2", "\u0663", "9" * 5000, "0" * 4999 + "7", ""])
def test_cli_on_odd_local_id_exits_0_1_or_2(tmp_path, capsys, local_id):
    text = (CORPUS / "fbd_add.xml").read_text()
    assert text.count('localId="3"') == 1
    (tmp_path / "fbd_add.xml").write_text(text.replace('localId="3"', 'localId="%s"' % local_id))
    assert main(["analyze", str(tmp_path)]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    # Ids other than ASCII decimals sort after every ASCII decimal id.
    assert (_local_id_key(local_id) > _local_id_key("9" * 5000)) == (not (local_id.isascii() and local_id.isdecimal()))


# ------------------------- JSON report text -------------------------

# Names, tags and messages come from user files, so report strings may hold
# anything JSON has to escape.
REPORT_TEXT = st_strat.text(
    alphabet=st_strat.one_of(st_strat.sampled_from('"\\/\x00\x1f\x7f\n\té€名\U0001d11e'), st_strat.characters()),
    max_size=8,
)
METRICS = ["m%d" % i for i in range(1, 7)]
REPORT_ROW = st_strat.fixed_dictionaries(
    {
        "name": REPORT_TEXT,
        "kind": st_strat.sampled_from(["Program", "FunctionBlock", "Function"]),
        "language": st_strat.sampled_from(["ST", "LD", "FBD", "SFC"]),
        **{m: st_strat.integers() for m in METRICS},
        **{"c%d" % i: st_strat.none() | REPORT_TEXT for i in range(1, 7)},
        "oc_rel": REPORT_TEXT,
        "group": REPORT_TEXT,
        "tag": REPORT_TEXT,
    }
)
REPORT_GROUP = st_strat.fixed_dictionaries(
    {
        "label": REPORT_TEXT,
        "size": st_strat.integers(min_value=0),
        "medians": st_strat.fixed_dictionaries({m: REPORT_TEXT for m in METRICS}),
        "excluded": st_strat.lists(st_strat.sampled_from(METRICS), unique=True),
    }
)
REPORT_WARNING = st_strat.fixed_dictionaries({key: REPORT_TEXT for key in ("code", "message", "path", "pou")})
REPORT = st_strat.fixed_dictionaries(
    {
        "run": st_strat.fixed_dictionaries(
            {"tool": REPORT_TEXT, "version": REPORT_TEXT, "pou_count": st_strat.integers(), "grouping": REPORT_TEXT}
        ),
        "pous": st_strat.lists(REPORT_ROW, max_size=3),
        "groups": st_strat.lists(REPORT_GROUP, max_size=2),
        "warnings": st_strat.lists(REPORT_WARNING, max_size=3),
    }
)
EVERY_CASE = {
    "run": {"tool": "poumetrics", "version": "0", "pou_count": 1, "grouping": "whole-sample"},
    "pous": [
        {
            "name": 'Ünïcode "quoted" \\ \x01\x1f',
            "kind": "Program",
            "language": "ST",
            **{m: -i for i, m in enumerate(METRICS)},
            **{"c%d" % i: None if i % 2 else "100.0000" for i in range(1, 7)},
            "oc_rel": "0.0000",
            "group": "all",
            "tag": "tag\twith\n\u2028 名",
        }
    ],
    "groups": [
        {"label": "all", "size": 1, "medians": {m: "1.0000" for m in METRICS}, "excluded": []},
        {"label": "ST", "size": 0, "medians": {m: "0.0000" for m in METRICS}, "excluded": ["m2", "m5"]},
    ],
    "warnings": [],
}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(REPORT)
@example(EVERY_CASE)
def test_json_text_is_json_dumps_with_indent(obj):
    assert _json_text(obj) + "\n" == json.dumps(obj, indent=2) + "\n"


# ------------------------- lexer against the reference loop -------------------------

# The lexer as it was before it scanned with one `finditer`: one match
# per token and per whitespace run, line and column counted as it goes.
# `lex` must give the same tokens, positions and errors.
_REFERENCE_TOKEN = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\(\*|//[^\n]*|\{[^}]*\})
    | (?P<string>'(?:\$[\s\S]|[^'\n$])*'|"(?:\$[\s\S]|[^"\n$])*")
    | (?P<address>%[IQMiqm][XBWDLxbwdl]?\d+(?:\.\d+)*)
    | (?P<number>
          [A-Za-z_][A-Za-z0-9_]*\#(?:\d[\d_]*\#)?[0-9A-Za-z_.:+-]+
        | \d[\d_]*\#[0-9A-Fa-f_]+
        | \d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d+)?
        | \d[\d_]*(?:[eE][+-]?\d+)?
      )
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|=>|<>|<=|>=|\*\*|\.\.|[-+*/=<>()\[\];,.:&])
    | (?P<bad>[\s\S])
    """,
    re.VERBOSE,
)
_REFERENCE_COMMENT_MARK = re.compile(r"\(\*|\*\)")


def reference_lex(text: str, path: str) -> list[tuple[str, str, int, int, str]]:
    toks = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        kind, end = m.lastgroup, m.end()
        col = pos - line_start + 1
        if kind == "bad":
            ch = text[pos]
            if ch in "'\"":
                raise UnterminatedString("string literal is never closed", path, line, col)
            if ch == "{":
                raise ParseError("unterminated pragma", path, line, col)
            raise ParseError("unexpected character %r" % ch, path, line, col)
        if kind == "comment" and text[pos] == "(":
            depth = 1
            for mark in _REFERENCE_COMMENT_MARK.finditer(text, end):
                depth += 1 if mark.group() == "(*" else -1
                if not depth:
                    end = mark.end()
                    break
            else:
                raise UnterminatedComment("comment opened here is never closed", path, line, col)
        elif kind not in ("ws", "comment"):
            tok = m.group()
            key = tok.upper() if kind == "ident" else tok if kind == "op" else ""
            toks.append((kind, tok, line, col, key))
        newlines = text.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", pos, end) + 1
        pos = end
    return toks


def assert_lexes_like_reference(text: str):
    try:
        expected = reference_lex(text, "f.st")
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            lex(text, "f.st")
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        assert (err.value.line, err.value.column) == (exc.line, exc.column)
        return
    lines = LineTable(text)
    assert [(t.kind, t.text, *lines.position(t.offset), t.key) for t in lex(text, "f.st")] == expected


NESTED_COMMENT = "(* a (* b\n *) c *)"


@settings(max_examples=1000, derandomize=True)
@given(st_strat.lists(st_strat.sampled_from([*ST_PIECES, NESTED_COMMENT]), max_size=60).map("".join))
def test_lex_matches_reference_on_random_pieces(text):
    assert_lexes_like_reference(text)


ST_CORPUS_FILES = [p for p in CORPUS_FILES if p.suffix in (".st", ".gvl")]


@settings(max_examples=300, derandomize=True)
@given(
    st_strat.sampled_from(ST_CORPUS_FILES),
    EDITS,
    st_strat.lists(st_strat.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=3),
)
def test_lex_matches_reference_on_mutated_corpus_files(source, edits, comment_positions):
    # Nested comments dropped in mid-file make the scan resume after them.
    text = mutated(source.read_bytes(), edits).decode("latin-1")
    for position in comment_positions:
        i = position % (len(text) + 1)
        text = text[:i] + NESTED_COMMENT + text[i:]
    assert_lexes_like_reference(text)


# ------------------- one odd attribute or config value -------------------


FUZZED_ATTRIBUTES = (
    "localId", "refLocalId", "formalParameter", "negated", "typeName",
    "instanceName", "lower", "upper", "pouType",
)
XML_SOURCES = {p.name: p.read_text() for p in CORPUS_FILES if p.suffix == ".xml"}
# The corpus declares no XML array, so one copy gives the FB FbdAdd an
# array input for `lower` and `upper`.
XML_SOURCES["fbd_add_array.xml"] = XML_SOURCES["fbd_add.xml"].replace(
    '<variable name="in1"><type><INT/></type></variable>',
    '<variable name="in1"><type><array><dimension lower="1" upper="4"/>'
    "<baseType><INT/></baseType></array></type></variable>",
)
# Attribute -> every (file, start, end) of one of its values.
ATTRIBUTE_SITES: dict[str, list[tuple[str, int, int]]] = {}
for _name, _text in XML_SOURCES.items():
    for _m in re.finditer(r'\b(%s)="([^"]*)"' % "|".join(FUZZED_ATTRIBUTES), _text):
        ATTRIBUTE_SITES.setdefault(_m.group(1), []).append((_name, _m.start(2), _m.end(2)))
# Drawing the attribute first gives each the same share of examples; one
# that the sources lack fails the draw.
ATTRIBUTE_SITE = st_strat.sampled_from(FUZZED_ATTRIBUTES).flatmap(lambda a: st_strat.sampled_from(ATTRIBUTE_SITES[a]))

ODD_TEXT = st_strat.one_of(
    st_strat.sampled_from(
        ["", " ", "\t", " 1 ", "-1", "0", "+3", "1_0", "true", "TRUE", "false", "?",
         "functionBlock", "FUNCTION", "program", "function", "%IX0.0", "EN", "ENO"]
    ),
    st_strat.text(st_strat.sampled_from("0123456789\u00b2\u0663\uff11 -"), max_size=6),
    st_strat.integers(min_value=1, max_value=6000).map(lambda n: "9" * n),
    st_strat.integers(min_value=1, max_value=6000).map(lambda n: "-" + "9" * n),
    st_strat.text(st_strat.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(ATTRIBUTE_SITE, ODD_TEXT)
def test_cli_on_one_odd_attribute_value_exits_0_1_or_2(site, value):
    name, start, end = site
    text = XML_SOURCES[name]
    code, err = cli_run({"src/" + name: (text[:start] + html.escape(value) + text[end:]).encode()})
    assert code in (0, 1, 2)
    assert "Traceback" not in err


BASE_CONFIG = {
    "weight_profiles": {"default": ["1/6"] * 6, "SFC": ["1/4", "1/4", "0.125", "1/8", "1/8", 0]},
    "weight_table": {"interface_simple": 3, "sub_complex": 2},
    "array_sub_cap": 1000,
    "grouping": "per-language",
    "normalize": True,
    "annotations": {"FbdAdd": "adder"},
}


def json_paths(value, path=()):
    """Every path to a value inside `value`, containers included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_paths(item, path + (i,))


CONFIG_PATHS = list(json_paths(BASE_CONFIG))
_NEST = st_strat.integers(min_value=1, max_value=1200)
# Raw JSON texts: json.dumps cannot write an int past 4300 digits.
ODD_JSON = st_strat.one_of(
    st_strat.sampled_from(
        ['"1/0"', '"0/0"', '"-1/6"', '"1e400"', '"1e-99"', '"1e1_0_1"', '"\u0661/\u0666"', '"\u00b2"',
         '"nan"', '"inf"', "1e400", "-0.0", "true", "null", "[]", "{}", '""', "0", "-7"]
    ),
    st_strat.integers(min_value=1, max_value=6000).map(lambda n: "9" * n),
    # Exponents past the bound, yet small enough that a missing bound
    # costs seconds, not the machine.
    st_strat.integers(min_value=-100_000, max_value=100_000).map(lambda n: '"1e%d"' % n),
    _NEST.map(lambda n: "[" * n + "]" * n),
    _NEST.map(lambda n: '{"a": ' * n + "1" + "}" * n),
    st_strat.text(max_size=12).map(json.dumps),
    st_strat.integers().map(str),
)
_HOLE = "\u0000hole"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st_strat.sampled_from(CONFIG_PATHS), ODD_JSON)
def test_cli_on_one_odd_config_value_exits_0_1_or_2(path, raw):
    config = json.loads(json.dumps(BASE_CONFIG))
    if path:
        holder = config
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = _HOLE
        text = json.dumps(config).replace(json.dumps(_HOLE), raw)
    else:
        text = raw
    files = {"src/" + p.name: p.read_bytes() for p in CORPUS_FILES}
    files["cfg.json"] = text.encode()
    code, err = cli_run(files, "--config", "{tmp}/cfg.json")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
