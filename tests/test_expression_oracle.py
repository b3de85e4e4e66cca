"""An independent oracle for the ST expression shapes `tests/stgen.py`
never writes: member access, subscripts, calls, formal parameters (`:=`
and `=>`), direct addresses, TRUE/FALSE and prefix operators, nested in
parentheses, subscripts and argument lists.

A small grammar writes a fragment and, beside it, predicts what the body
walker must report: the token sequence (lexeme, class, identity), the
names read and written, the (root, first member) reads, and each call's
arguments passed and returns used.  It also writes statements whose
target no form that writes accepts, and statements with a keyword where
a name belongs, and predicts that the walk fails there.  The prediction follows the rules of the `poumetrics.st` module
docstring and uses nothing from poumetrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st_strat

from poumetrics import ParseError, TokenClass, st_fragment_facts

OPERAND, OPERATOR = TokenClass.OPERAND, TokenClass.OPERATOR

# Names that are no keyword in any case, spelt in mixed case: the
# walker keeps the lexeme and casefolds the identity.
NAMES = ["a", "Speed", "motorOn", "x1", "Tank_Level", "fb"]
MEMBERS = ["Q", "et", "In1", "Val"]
CALLEE_PARTS = ["F", "Max2", "fbTimer", "Calc"]
PARAMS = ["IN", "pt", "Lo", "Hi_1"]
READ_ADDRESSES = ["%IX0.1", "%iw2", "%MW10", "%QX1.0"]
WRITE_ADDRESSES = ["%QX0.0", "%qw4", "%MD8"]
BOOLS = ["TRUE", "FALSE", "true", "False"]
# (lexeme, identity) of each binary operator, keywords in several cases
BINARY = [
    ("+", "+"), ("-", "-"), ("*", "*"), ("/", "/"), ("**", "**"), ("MOD", "mod"), ("mod", "mod"),
    ("=", "="), ("<>", "<>"), ("<", "<"), ("<=", "<="), (">", ">"), (">=", ">="),
    ("AND", "and"), ("and", "and"), ("&", "and"), ("OR", "or"), ("Xor", "xor"),
]
PREFIX = [("NOT", "not"), ("not", "not"), ("-", "-"), ("+", "+")]
# Keywords in several cases, but TRUE and FALSE, which are literals.
KEYWORDS = [
    "IF", "then", "ElsIf", "ELSE", "end_if", "CASE", "Of", "END_CASE", "FOR", "to", "BY", "do", "END_FOR", "While",
    "END_WHILE", "REPEAT", "until", "End_Repeat", "RETURN", "exit", "Continue", "AND", "or", "XOR", "Mod", "NOT",
    "VAR", "End_Var", "VAR_INPUT", "AT", "array", "STRUCT", "String", "WSTRING", "RETAIN", "CONSTANT", "TYPE",
    "PROGRAM", "END_FUNCTION_BLOCK", "FUNCTION",
]


class Prediction:
    """The text of a fragment and what walking it must report."""

    def __init__(self):
        self.pieces: list[str] = []
        self.tokens: list[tuple[str, TokenClass, str]] = []
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.member_reads: set[tuple[str, str]] = set()
        self.calls: list[list] = []  # [callee, arguments passed, returns used], in order of the callee

    @property
    def text(self) -> str:
        return " ".join(self.pieces)

    def operand(self, lexeme: str, identity: str | None = None) -> None:
        self.pieces.append(lexeme)
        self.tokens.append((lexeme, OPERAND, (identity or lexeme).casefold()))

    def operator(self, lexeme: str, identity: str | None = None) -> None:
        self.pieces.append(lexeme)
        self.tokens.append((lexeme, OPERATOR, (identity or lexeme).casefold()))

    def silent(self, text: str) -> None:
        """Text that is part of another token: an invocation's `(`, or the
        `)` or `]` that closes a token's bracket."""
        self.pieces.append(text)


def expression(draw, p: Prediction, depth: int, first: str | None = None) -> None:
    """`unary {binary-operator unary}`.  `first` forces the kind of the
    leading primary and leaves out its prefix operators."""
    if first is None:
        unary(draw, p, depth)
    else:
        primary(draw, p, depth, first)
    for _ in range(draw(st_strat.integers(0, 2))):
        p.operator(*draw(st_strat.sampled_from(BINARY)))
        unary(draw, p, depth)


def unary(draw, p: Prediction, depth: int) -> None:
    for lexeme, identity in draw(st_strat.lists(st_strat.sampled_from(PREFIX), max_size=2)):
        p.operator(lexeme, identity)
    primary(draw, p, depth)


def primary(draw, p: Prediction, depth: int, kind: str | None = None) -> None:
    if kind is None:
        kinds = ["number", "bool", "name", "address"] + (["reference", "parens", "call"] if depth else [])
        kind = draw(st_strat.sampled_from(kinds))
    if kind == "number":
        p.operand(str(draw(st_strat.integers(0, 999))))
    elif kind == "bool":
        p.operand(draw(st_strat.sampled_from(BOOLS)))  # a literal, not a read
    elif kind == "name":
        name = draw(st_strat.sampled_from(NAMES))
        p.operand(name)
        p.reads.add(name.casefold())
    elif kind == "address":
        address = draw(st_strat.sampled_from(READ_ADDRESSES))
        p.operand(address)
        p.reads.add(address.casefold())
    elif kind == "reference":
        reference(draw, p, depth, read=True)
    elif kind == "parens":
        p.operator("(", "()")
        expression(draw, p, depth - 1)
        p.silent(")")
    else:
        call(draw, p, depth)[2] += 1  # the value feeds the expression


def reference(draw, p: Prediction, depth: int, read: bool) -> None:
    """`root` and one to three member accesses and subscripts.  A read
    reads the root, and (root, member) when the first member comes before
    any subscript; a write writes the root.  Subscripts read either way."""
    root = draw(st_strat.sampled_from(NAMES))
    p.operand(root)
    first_member = None
    subscripted = False
    for tail in draw(st_strat.lists(st_strat.sampled_from([".", "["]), min_size=1, max_size=3)):
        if tail == ".":
            p.operator(".")
            member = draw(st_strat.sampled_from(MEMBERS))
            p.operand(member)
            if first_member is None and not subscripted:
                first_member = member.casefold()
        else:
            subscripted = True
            p.operator("[", "[]")
            expression(draw, p, depth - 1)
            for _ in range(draw(st_strat.integers(0, 1))):
                p.operator(",")
                expression(draw, p, depth - 1)
            p.silent("]")
    if not read:
        p.writes.add(root.casefold())
        return
    p.reads.add(root.casefold())
    if first_member is not None:
        p.member_reads.add((root.casefold(), first_member))


def call(draw, p: Prediction, depth: int) -> list:
    """`name {. name} ( arguments )`: one operator, the callee path plus
    `()`; the parens are part of it.  Returns the call's prediction."""
    callee = ".".join(draw(st_strat.lists(st_strat.sampled_from(CALLEE_PARTS), min_size=1, max_size=2)))
    p.operator(callee, callee + "()")
    p.silent("(")
    site = [callee, 0, 0]
    p.calls.append(site)
    for k in range(draw(st_strat.integers(0, 3))):
        if k:
            p.operator(",")
        form = draw(st_strat.sampled_from(["positional", "input", "output"]))
        if form == "positional":
            site[1] += 1
            expression(draw, p, depth - 1)
            continue
        p.operand(draw(st_strat.sampled_from(PARAMS)))  # the formal parameter's name
        if form == "input":
            p.operator(":=")
            site[1] += 1
            expression(draw, p, depth - 1)
        else:
            p.operator("=>")
            site[2] += 1
            target(draw, p, depth - 1)
    p.silent(")")
    return site


def target(draw, p: Prediction, depth: int) -> None:
    """What an assignment or an output binding writes."""
    kind = draw(st_strat.sampled_from(["name", "address"] + (["reference"] if depth > 0 else [])))
    if kind == "reference":
        reference(draw, p, depth, read=False)
        return
    written = draw(st_strat.sampled_from(NAMES if kind == "name" else WRITE_ADDRESSES))
    p.operand(written)
    p.writes.add(written.casefold())


@st_strat.composite
def statement_lists(draw) -> Prediction:
    """One to four statements: assignments, and calls as whole statements,
    which use no return of their own."""
    p = Prediction()
    for _ in range(draw(st_strat.integers(1, 4))):
        depth = draw(st_strat.integers(0, 3))
        if draw(st_strat.booleans()):
            target(draw, p, depth)
            p.operator(":=")
            expression(draw, p, depth)
        else:
            call(draw, p, depth + 1)
        p.operator(";")
    return p


@st_strat.composite
def conditions(draw) -> Prediction:
    """A bare expression whose value a surrounding construct consumes, as
    an SFC transition condition is: a leading call uses its return.  It
    starts with any primary, or with a prefix operator."""
    p = Prediction()
    first = draw(st_strat.sampled_from(["name", "bool", "address", "reference", "call", "number", "parens", "prefix"]))
    if first == "prefix":
        p.operator(*draw(st_strat.sampled_from(PREFIX)))
        first = None
    expression(draw, p, draw(st_strat.integers(1, 3)), first)
    return p


# The forms that write a target, the target written as `%s`.
WRITING_FORMS = {"assignment": "%s := 1 ;", "output": "F ( IN => %s ) ;", "loop": "FOR %s := 1 TO 2 DO END_FOR ;"}


@st_strat.composite
def rejected_writes(draw) -> tuple[str, int]:
    """A statement list, then a statement whose target is none: TRUE,
    FALSE, NOT, a literal or a call written by `:=` or `=>`, or anything
    but an identifier as a FOR variable.  Returns the text and the column
    the rejected statement starts at."""
    p = draw(statement_lists())
    form = draw(st_strat.sampled_from(sorted(WRITING_FORMS)))
    kinds = ["bool", "not", "number", "call"] + (["address", "reference"] if form == "loop" else [])
    kind = draw(st_strat.sampled_from(kinds))
    q = Prediction()
    if kind == "bool":
        q.operand(draw(st_strat.sampled_from(BOOLS)))
    elif kind == "not":
        q.operator(draw(st_strat.sampled_from(["NOT", "not"])), "not")
    elif kind == "number":
        q.operand(str(draw(st_strat.integers(0, 999))))
    elif kind == "call":
        call(draw, q, draw(st_strat.integers(1, 3)))
    elif kind == "address":
        q.operand(draw(st_strat.sampled_from(WRITE_ADDRESSES)))
    else:
        reference(draw, q, draw(st_strat.integers(1, 3)), read=False)
    return p.text + " " + WRITING_FORMS[form] % q.text, len(p.text) + 2


# Each place in a statement where a name belongs, the name written as `%s`.
NAME_PLACES = {
    "operand": "x := %s ;",
    "assignment-target": "%s := 1 ;",
    "output-target": "F ( IN => %s ) ;",
    "loop-variable": "FOR %s := 1 TO 2 DO END_FOR ;",
    "member": "x := fb . %s ;",
    "callee": "%s ( 1 ) ;",
    "callee-member": "fb . %s ( 1 ) ;",
    "formal-parameter": "F ( %s := 1 ) ;",
}


@st_strat.composite
def keywords_as_names(draw) -> tuple[str, int]:
    """A statement list, then a statement with a keyword where a name
    belongs, which names nothing.  NOT before `(` is the prefix operator,
    not a callee.  Returns the text and the keyword's column."""
    p = draw(statement_lists())
    place = draw(st_strat.sampled_from(sorted(NAME_PLACES)))
    keyword = draw(st_strat.sampled_from([k for k in KEYWORDS if place != "callee" or k != "NOT"]))
    form = NAME_PLACES[place]
    return p.text + " " + form % keyword, len(p.text) + 2 + form.index("%s")


def facts_of(text: str, value_context: bool = False):
    res = st_fragment_facts(text, "<oracle>", value_context)
    return {
        "tokens": [(t.lexeme, t.cls, t.identity_key) for t in res.tokens],
        "reads": res.reads,
        "writes": res.writes,
        "member_reads": res.member_reads,
        "calls": [[c.callee, c.args, c.returns] for c in res.calls],
    }


def predicted(p: Prediction):
    return {
        "tokens": p.tokens,
        "reads": p.reads,
        "writes": p.writes,
        "member_reads": p.member_reads,
        "calls": p.calls,
    }


@settings(max_examples=300, derandomize=True)
@given(statement_lists())
def test_statement_lists_match_the_oracle(p):
    assert facts_of(p.text) == predicted(p), p.text


@settings(max_examples=200, derandomize=True)
@given(conditions())
def test_conditions_match_the_oracle(p):
    assert facts_of(p.text, value_context=True) == predicted(p), p.text


@settings(max_examples=200, derandomize=True)
@given(rejected_writes())
def test_rejected_targets_are_parse_errors(case):
    text, start = case
    with pytest.raises(ParseError) as err:
        st_fragment_facts(text, "<oracle>")
    assert err.value.line == 1 and err.value.column >= start, (text, str(err.value))


@settings(max_examples=200, derandomize=True)
@given(keywords_as_names())
def test_keywords_as_names_are_parse_errors(case):
    """The error is at or after the keyword, or at the end of input,
    which a fragment reports at line 0."""
    text, column = case
    with pytest.raises(ParseError) as err:
        st_fragment_facts(text, "<oracle>")
    assert err.value.line == 0 or (err.value.line == 1 and err.value.column >= column), (text, str(err.value))
