"""An independent oracle for the ST expression shapes `tests/stgen.py`
never writes: member access, subscripts, calls, formal parameters (`:=`
and `=>`), direct addresses, TRUE/FALSE and prefix operators, nested in
parentheses, subscripts and argument lists.

A small grammar writes a fragment and, beside it, predicts what the body
walker must report: the token sequence (lexeme, class, identity), the
names read and written, the (root, first member) reads, and each call's
arguments passed and returns used.  The prediction follows the rules of
the `poumetrics.st` module docstring and uses nothing from poumetrics."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st_strat

from poumetrics import TokenClass, st_fragment_facts

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
