"""Property-based invariants over randomly generated programs."""

from __future__ import annotations

import contextlib
import html
import io
import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st_strat

from poumetrics import (
    ParseError,
    StSource,
    TokenClass,
    VarSection,
    compute_vector,
    load_sample,
    parse_st_pou,
    st_fragment_facts,
    validate_pou,
)
from poumetrics.aggregate import _medians
from poumetrics.cli import main
from poumetrics.errors import UnterminatedComment, UnterminatedString
from poumetrics.plcopen import _local_id_key
from poumetrics.report import fmt4, fmt4_ratio
from poumetrics import st as st_module, typesys
from poumetrics.st import _KEYWORDS, LineTable, lex, parse_pou_unit, split_st_units, walk_pou_unit
from poumetrics.typesys import RawDecl, TypeContext, TypeSpec, named

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


# Names for the generator's v0..v7: no keyword or standard function
# name in any case, so each spelling below stays a plain identifier.
RENAME_POOL = ["Speed", "motorOn", "Tank_Level", "counter2", "Alarm", "valve_B", "xPos", "SetPoint"]
CASINGS = [str.upper, str.lower, str.swapcase]


@settings(max_examples=100, derandomize=True)
@given(SEEDS, st_strat.permutations(RENAME_POOL), SEEDS)
def test_consistent_renaming_changes_nothing(seed, pool, case_seed):
    """Renaming the program and its variables, each use spelt in its own
    case, leaves the metric vector and the decisions as they were:
    lookups are case-folded."""
    prog, pou = analyzed(seed)
    rng = random.Random(case_seed)

    def rename(match):
        return rng.choice(CASINGS)(pool[int(match.group(1))])

    renamed = re.sub(r"\bv([0-7])\b", rename, prog.source).replace(prog.name, "Renamed_" + prog.name, 1)
    renamed_pou, warnings = parse_st_pou(StSource(path="<gen>", text=renamed))
    assert warnings == [] and renamed_pou.name == "Renamed_" + prog.name
    assert compute_vector(renamed_pou) == compute_vector(pou)
    assert [d.kind for d in renamed_pou.body.decision_spans] == [d.kind for d in pou.body.decision_spans]
    assert [t.cls for t in renamed_pou.body.tokens] == [t.cls for t in pou.body.tokens]


def plcopen_program(name: str, body: str, locals_: list[str]) -> str:
    """A PLCopen project of one program: `body` as its <ST> body and each
    name of `locals_` an INT local."""
    variables = "".join('<variable name="%s"><type><INT/></type></variable>' % v for v in locals_)
    return (
        '<?xml version="1.0" encoding="utf-8"?><project xmlns="http://www.plcopen.org/xml/tc6_0201">'
        '<types><dataTypes/><pous><pou name="%s" pouType="program">'
        "<interface><localVars>%s</localVars></interface><body><ST>%s</ST></body>"
        "</pou></pous></types><instances><configurations/></instances></project>"
        % (name, variables, html.escape(body, quote=False))
    )


@settings(max_examples=100, derandomize=True)
@given(SEEDS)
def test_st_file_and_plcopen_st_body_give_the_same_pou(seed):
    """Containers: a program as an ST file, and its body as the <ST> body
    of a PLCopen program with the same locals, give the same POU.  Only
    the decisions' positions differ: a fragment counts lines from its
    own start."""
    prog = generate_program(seed)
    source = prog.source
    end_var = source.find("END_VAR\n")
    start = end_var + len("END_VAR\n") if end_var >= 0 else source.index("\n") + 1
    body = source[start : source.rindex("END_PROGRAM")]
    locals_ = re.findall(r"^ +(\w+) : INT;$", source, re.M)
    pous = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("a.st", source), ("b.xml", plcopen_program(prog.name, body, locals_))):
            (Path(tmp) / name).write_text(text)
            sample = load_sample([str(Path(tmp) / name)])
            assert sample.warnings == []
            (pou,) = sample.pous
            pous.append(pou)
    st_pou, xml_pou = pous
    assert xml_pou.body.tokens == st_pou.body.tokens  # lexeme, class and identity of each
    assert [d.kind for d in xml_pou.body.decision_spans] == [d.kind for d in st_pou.body.decision_spans]
    assert xml_pou.body.calls == st_pou.body.calls
    assert xml_pou.variables == st_pou.variables
    assert (xml_pou.name, xml_pou.language) == (st_pou.name, st_pou.language)
    assert compute_vector(xml_pou) == compute_vector(st_pou)


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
    assert len(toks.offsets) == len(toks)
    for tok, offset in zip(toks, toks.offsets):
        line, col = lines.position(offset)
        assert line_offsets[line - 1] + col - 1 == offset
        assert offset >= end  # no overlap, so offsets strictly increase
        assert text[offset : offset + len(tok.text)] == tok.text
        end = offset + len(tok.text)


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
    def median_of(values):  # the median `aggregate` takes of a difficulty column
        return _medians([(1, 1, 1, 1, v.numerator, v.denominator, 1) for v in values])[4]

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
    from poumetrics import Language, MetricVector, PouKind, aggregate, sample_row
    from poumetrics.report import RunResult

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

    def ranked(vecs):
        """(name, exact overall value, relative cells) per ranked POU."""
        rows = [sample_row("p%d" % i, PouKind.PROGRAM, Language.ST, v) for i, v in enumerate(vecs)]
        run = RunResult(aggregate(rows), [])
        ranked = zip(run.ranking.rows, run.ranking.scores)
        return [(row[0], Fraction(*score.overall), run.cells(score)[6:]) for row, score in ranked]

    base_results = ranked(vectors)
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
    assert ranked(scaled) == base_results


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


# ------------------------- lexer against the reference loop -------------------------

# The lexer as it was before it scanned with one `finditer`: one match
# per token and per whitespace run, line and column counted as it goes,
# and an identifier that `_KEYWORDS` holds a keyword.  `lex` must give
# the same tokens, positions and errors.
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
            if key in _KEYWORDS:
                kind = "keyword"
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
    toks = lex(text, "f.st")
    assert len(toks.offsets) == len(toks)
    assert [(t.kind, t.text, *lines.position(at), t.key) for t, at in zip(toks, toks.offsets)] == expected


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


@settings(max_examples=100, derandomize=True)
@given(SEEDS, SEEDS)
def test_lex_matches_reference_on_generated_pous(seed, noise_seed):
    text = sprinkle_comments(generate_program(seed).source, noise_seed)
    assert_lexes_like_reference(text)
    assert_lexes_like_reference(text.rstrip("\n"))  # a `//` comment may end the text


# Texts at the edges of the bulk scan: a comment with no newline after
# it at the end, nothing to lex, and a stop token (a nested or unclosed
# comment, or a character no token starts with) first, last or right
# after a nested comment.
EDGE_TEXTS = {
    "ends-in-comment": "x := 1; (* done *)",
    "ends-in-pragma": "x := 1; {attribute 'done'}",
    "ends-in-line-comment": "x := 1; // done",
    "ends-in-nested-comment": "x := 1; (* a (* b *) *)",
    "empty": "",
    "blank": " \t\r\n \n",
    "comment-only": "(* only *)",
    "pragma-only": "{only}",
    "line-comment-only": "// only",
    "comments-only": "(* a *)\n// b\n{c} (* (* d *) *)\n",
    "stop-first": "?x := 1;",
    "stop-last": "x := 1;?",
    "stop-after-nested-comment": "x (* (* *) *)?",
    "stop-after-nested-comment-spaced": "x (* (*\n *) *)\n ? y",
    "unclosed-string-first": "'x := 1;",
    "unclosed-pragma-last": "x := 1; {",
    "unclosed-comment-last": "x := 1; (*",
    "unclosed-after-nested-comment": "(* (* *) *) x (*",
    "nested-comment-first": "(* (* *) *) x := 1;",
    "nested-comments-back-to-back": "x(* (* *) *)(* (* *) *)y",
}


@pytest.mark.parametrize("text", list(EDGE_TEXTS.values()), ids=list(EDGE_TEXTS))
def test_lex_matches_reference_at_the_edges(text):
    assert_lexes_like_reference(text)


def test_lex_gives_the_same_in_any_order_and_past_the_memo_cap(monkeypatch):
    """Each token is the one record of its text, shared by every text
    lexed.  Lexing the corpus forward, in reverse, after the shared memo
    has overflowed its cap, and with a cap so small that it overflows
    within one text, gives the same tokens and offsets, and the memo
    never holds more texts than its cap."""
    texts = [p.read_bytes().decode("latin-1") for p in ST_CORPUS_FILES]

    def lexed(order, cap):
        out = {}
        for i in order:
            toks = lex(texts[i], "f.st")
            assert len(st_module._RECORDS) <= cap
            out[i] = (list(toks), toks.offsets)
        return out

    def overflow(cap):
        lex(" ".join("v%d" % i for i in range(cap + 10)))  # more texts than the memo holds
        assert 0 < len(st_module._RECORDS) <= cap

    cap = st_module._TOKEN_CACHE_SIZE
    forward = lexed(range(len(texts)), cap)
    assert lexed(reversed(range(len(texts))), cap) == forward
    overflow(cap)
    assert lexed(range(len(texts)), cap) == forward
    monkeypatch.setattr(st_module, "_TOKEN_CACHE_SIZE", 8)
    overflow(8)
    assert lexed(reversed(range(len(texts))), 8) == forward


# ------------------- declarations against their generator -------------------

# Each generated declaration is a pair: its text and the `TypeSpec` it
# declares, so the generator's own `RawDecl`s are the oracle.  No name is
# a keyword: a keyword names nothing, and one put in place of a name
# makes the text a parse error.
DECL_NAMES = st_strat.sampled_from(["a", "b1", "x_y", "Motor", "INT", "TON", "Int2", "end_x"])
NAME_LISTS = st_strat.lists(DECL_NAMES, min_size=1, max_size=3)
PLAIN_TYPES = st_strat.sampled_from(["INT", "bool", "T1", "Motor", "TON", "end_t"]).map(lambda name: (name, named(name)))
STRING_TYPES = st_strat.tuples(
    st_strat.sampled_from(["STRING", "WSTRING", "string"]), st_strat.sampled_from(["", "[20]", "(8)", "[(2) * 10]"])
).map(lambda p: (p[0] + p[1], TypeSpec("string", name=p[0].upper())))
SUBRANGE_TYPES = st_strat.tuples(
    st_strat.sampled_from(["INT", "UINT", "T1"]), st_strat.sampled_from(["(0..100)", "(-(5)..5)", "((0)..(2 * [50]))"])
).map(lambda p: ("%s %s" % p, TypeSpec("subrange", name=p[0], element=named(p[0]))))
ENUM_TYPES = st_strat.sampled_from(["(Red, Green)", "(Idle := 0, Busy := 1)", "(A := (1), B := (2 + (3)))"]).map(
    lambda text: (text, TypeSpec("enum"))
)
DIMS = st_strat.lists(
    st_strat.tuples(st_strat.integers(-3, 3), st_strat.integers(0, 4)).map(lambda p: (p[0], p[0] + p[1])),
    min_size=1,
    max_size=3,
)
INITS = st_strat.sampled_from(
    ["", " := 5", " := [1, 2]", " := (a := 1, b := 'x;y')", " := T#5s", " := ((1 + 2) * [3, (4)])", " := [(1), 2]"]
)
ADDRESSES = st_strat.sampled_from(["", " AT %IX0.1", " AT %MW3"])
SECTION_WORDS = {
    "VAR_INPUT": VarSection.INPUT,
    "VAR_OUTPUT": VarSection.OUTPUT,
    "VAR_IN_OUT": VarSection.IN_OUT,
    "VAR": VarSection.LOCAL,
    "VAR_TEMP": VarSection.TEMP,
    "VAR_EXTERNAL": VarSection.EXTERNAL,
    "VAR_GLOBAL": VarSection.GLOBAL,
}


def array_type(dims, element):
    text = "ARRAY[%s] OF %s" % (", ".join("%d..%d" % d for d in dims), element[0])
    return text, TypeSpec("array", dims=tuple(dims), element=element[1])


def struct_type(fields):
    text = " ".join("%s : %s%s;" % (", ".join(names), type_[0], init) for names, type_, init in fields)
    return "STRUCT %s END_STRUCT" % text, TypeSpec("struct", fields=tuple(n for names, _, _ in fields for n in names))


LEAF_TYPES = st_strat.one_of(PLAIN_TYPES, STRING_TYPES, SUBRANGE_TYPES, ENUM_TYPES)
DECL_TYPES = st_strat.recursive(
    LEAF_TYPES,
    lambda inner: st_strat.one_of(
        st_strat.builds(array_type, DIMS, inner),
        st_strat.lists(st_strat.tuples(NAME_LISTS, inner, INITS), min_size=1, max_size=3).map(struct_type),
    ),
    max_leaves=4,
)
# (section word, qualifier, [(names, address, (type text, spec), initializer)])
VAR_SECTIONS = st_strat.tuples(
    st_strat.sampled_from(sorted(SECTION_WORDS)),
    st_strat.sampled_from(["", " RETAIN", " CONSTANT"]),
    st_strat.lists(
        st_strat.one_of(
            # one name and no address or initializer: a plain type is the
            # one-step form, and any other type just misses it
            st_strat.tuples(DECL_NAMES.map(lambda name: [name]), st_strat.just(""), LEAF_TYPES, st_strat.just("")),
            st_strat.tuples(NAME_LISTS, ADDRESSES, DECL_TYPES, INITS),
        ),
        max_size=4,
    ),
)


def section_text(section) -> str:
    word, qualifier, decls = section
    lines = "".join(
        "  %s%s : %s%s;\n" % (", ".join(names), address, type_[0], init) for names, address, type_, init in decls
    )
    return "%s%s\n%sEND_VAR\n" % (word, qualifier, lines)


def section_decls(section) -> list[RawDecl]:
    word, _, decls = section
    return [RawDecl(name, SECTION_WORDS[word], type_[1]) for names, _, type_, _ in decls for name in names]


def walked_pou(text: str):
    (unit,) = split_st_units(StSource(path="d.st", text=text))
    return walk_pou_unit(unit, "d.st")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st_strat.lists(VAR_SECTIONS, max_size=3), st_strat.sampled_from(sorted(_KEYWORDS)), st_strat.integers(0, 99))
def test_declarations_read_as_generated_and_every_cut_is_a_parse_error(sections, keyword, pick):
    """The parsed declarations are the generated ones, each plain type
    name one shared spec.  The text cut at any token boundary inside a
    section ends as a `pou-parse-error`, never as another exception; cut
    before a section, it holds the sections before it.  A keyword in
    place of a declared name is a parse error.  Past the cap of the
    `named` memo the declarations and their classes are the same."""
    head, tail = "PROGRAM P\n", "\nEND_PROGRAM\n"
    texts = [section_text(s) for s in sections]
    expected = [section_decls(s) for s in sections]
    walked = walked_pou(head + "".join(texts) + tail)
    assert walked.error is None
    decls = walked.decls
    assert decls == [d for part in expected for d in part]
    assert all(d.spec is named(d.spec.name) for d in decls if d.spec.kind == "named")
    for s, text in enumerate(texts):
        before = head + "".join(texts[:s])
        cut = walked_pou(before + tail)
        assert cut.error is None and cut.decls == [d for part in expected[:s] for d in part]
        for offset in lex(text).offsets[1:]:
            cut = walked_pou(before + text[:offset] + tail)
            assert cut.error is not None, text[:offset]
            pou, warnings = parse_pou_unit(cut, TypeContext(), frozenset())
            assert pou is None and [w.code for w in warnings] == ["pou-parse-error"]
    spots = [(s, d, n) for s, (_, _, ds) in enumerate(sections) for d, decl in enumerate(ds) for n in range(len(decl[0]))]
    if spots:
        s, d, n = spots[pick % len(spots)]
        word, qualifier, ds = sections[s]
        names, *rest = ds[d]
        renamed = (word, qualifier, [*ds[:d], (names[:n] + [keyword] + names[n + 1 :], *rest), *ds[d + 1 :]])
        text = head + "".join(texts[:s]) + section_text(renamed) + "".join(texts[s + 1 :]) + tail
        with pytest.raises(ParseError):
            parse_st_pou(StSource("d.st", text))
    classified = TypeContext().declare("P", decls)
    with mock.patch.object(typesys, "_TOKEN_CACHE_SIZE", 2):
        assert named("T1") is named("T1")
        again = walked_pou(head + "".join(texts) + tail).decls
        assert again == decls
        assert TypeContext().declare("P", again) == classified


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
