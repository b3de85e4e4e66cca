"""Structured Text frontend.

Turns textual ST source (POUs, TYPE blocks, VAR_GLOBAL lists) into the
shared IR.  The body walker is a small recursive-descent parser that
emits one classified token per lexical element, records decision points
with their source spans, collects call sites and tracks which external
names are read or written.

The lexer splits a text with one regular expression call.  Each token
is the one `RawTok` of its text, shared by every occurrence in the
process (up to a cap), and the tokens' offsets sit in a list beside
them.  The parsers read an offset by token index, and a text's
`LineTable` turns it into line and column only for a reported position.
A nested or unclosed comment, or a character no token starts with,
stops the bulk scan: the rest of the text is lexed one token at a time.

Classification rules for bodies:

* operands: identifiers, literals (numeric, string, time/date, typed,
  TRUE/FALSE), direct addresses, enum values, formal parameter names;
* operators: arithmetic + - * / MOD **, comparisons = <> < <= > >=,
  boolean AND OR XOR NOT (& folds to AND), := and =>, the separators
  ; and , and the subrange .., member access . (per use), index access
  (one per bracket pair), expression grouping (one per paren pair),
  invocation (the callee name is the operator; its argument parens are
  part of it), and each compound construct once: IF, each ELSIF, ELSE,
  CASE, FOR, WHILE, REPEAT, RETURN, EXIT, CONTINUE.

THEN/DO/OF/TO/BY/UNTIL, END_* keywords and CASE label colons are folded
into their construct's token.  Comments and {pragmas} produce nothing.

Where a construct ends: a statement list ends at the end of input or at
a word of `_CLOSERS`, and the construct around it expects its own
closer.  A bracketed type part or an initializer ends at its first
closer outside `()` and `[]`.

A token's lexeme is its text as written and its identity that text
casefolded, except: `&` is `and`, an index bracket `[` is `[]`, a
grouping `(` is `()`, and an invocation's lexeme is its callee path
joined by `.` (`fb.Run`), its identity that path casefolded plus `()`.
The closing `]` and `)` produce nothing.

Decision points: IF, each ELSIF, each CASE label group (ELSE never),
FOR, WHILE, REPEAT, EXIT.

Accesses and calls, each name casefolded.  A name is an identifier: a
keyword, any word the grammar matches (`_KEYWORDS`, TRUE and FALSE too),
names nothing, so one where a name belongs, in a body or a declaration,
is a parse error.

* an invocation is a callee path `name {. name}` right before `(`;
* every other name in an expression starts a variable reference: its
  root is read, and so is (root, first member) when the first member
  comes before any subscript.  A direct address in an expression is
  read.  Formal parameter names and CASE labels read nothing;
* an assignment and an output binding `=> target` write their target's
  root, a name or a direct address; a FOR variable is a name only; a
  call is never written.  Names in a target's subscripts are read;
* a call's arguments passed are its positional and `:=` arguments; its
  returns used are its `=>` bindings, plus one when its value feeds an
  expression.  A call that is a whole statement feeds none, except the
  last statement of a fragment whose value a surrounding construct
  consumes, such as an SFC transition condition.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, islice
from sys import intern
from typing import NamedTuple

from .errors import AnalysisWarning, ParseError, UnterminatedComment, UnterminatedString, clip
from .ir import (
    _TOKEN_CACHE_SIZE,
    BodyFacts,
    CallSite,
    DecisionSpan,
    Language,
    Pou,
    PouKind,
    SourceRef,
    Token,
    VarSection,
)
from .typesys import RawDecl, TypeContext, TypeSpec, named

# ---------------------- raw lexer ----------------------

# One match per token: the separator before it, then the token.  The
# separator is whitespace, `(* *)` comments that hold no nested `(*`,
# `//` comments and {pragmas}.  The lookahead takes all of it and `\1`
# consumes what it took, which stands in for an atomic group (Python
# 3.10 has none): the separator is never tried shorter.  The token is,
# in the order tried: an identifier, or the typed literal it starts
# (T#5s); `(*`, before the `(` operator; a string; a direct address; a
# number, based (16#FF), real or integer; an operator; any other
# character but whitespace; or the end of the text, which takes the
# trailing separator.  So a match is made at every position.  Two kinds
# of token stop the bulk scan: `(*`, which opens a comment that nests or
# is never closed, and a character no token starts with (the opener of
# an unclosed string or pragma too).
#
# `lex` hands each text to `split` once.  Every third piece is a token,
# and the running sum of the pieces' lengths gives each token's offset.
# Each token text is looked up in `_RECORDS`, which holds the one
# `RawTok` of each text and classifies a new text on its first lookup;
# a stop token has none.  From the first stop token on, the text is
# scanned with `finditer`, one token at a time: a nested comment is
# skipped by counting `(*` and `*)`, and any other stop raises.  The
# split is never made again, so each character is scanned at most twice.
_NEXT_TOKEN = re.compile(
    r"""
    (?=(
      (?: [ \t\r\n]+
        | \(\*[^*(]*(?:(?:\*(?!\))|\((?!\*))[^*(]*)*\*\)
        | //[^\n]*
        | \{[^}]*\}
      )*
    ))\1
    (
      [A-Za-z_][A-Za-z0-9_]*(?:\#(?:\d[\d_]*\#)?[0-9A-Za-z_.:+-]+)?
    | \(\*
    | '(?:\$[\s\S]|[^'\n$])*'|"(?:\$[\s\S]|[^"\n$])*"
    | %[IQMiqm][XBWDLxbwdl]?\d+(?:\.\d+)*
    | \d[\d_]*(?:\#[0-9A-Fa-f_]+|\.\d[\d_]*(?:[eE][+-]?\d+)?|[eE][+-]?\d+)?
    | :=|=>|<>|<=|>=|\*\*|\.\.|[-+*/=<>()\[\];,.:&]
    | [^ \t\r\n]
    | \Z
    )
    """,
    re.VERBOSE,
)
_COMMENT_MARK = re.compile(r"\(\*|\*\)")
_NEWLINE = re.compile(r"\n")
_new_tuple = tuple.__new__
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_OPERATORS = frozenset({":=", "=>", "<>", "<=", ">=", "**", "..", *"-+*/=<>()[];,.:&"})
# Every word the grammar matches by key.  The lexer gives these the kind
# "keyword", not "ident", so none of them can name anything.
_KEYWORDS = frozenset("""IF THEN ELSIF ELSE END_IF CASE OF END_CASE FOR TO BY DO END_FOR WHILE END_WHILE REPEAT UNTIL
    END_REPEAT RETURN EXIT CONTINUE AND OR XOR NOT MOD TRUE FALSE AT ARRAY STRUCT END_STRUCT STRING WSTRING
    VAR VAR_INPUT VAR_OUTPUT VAR_IN_OUT VAR_TEMP VAR_EXTERNAL VAR_GLOBAL END_VAR RETAIN NON_RETAIN CONSTANT PERSISTENT
    TYPE END_TYPE PROGRAM END_PROGRAM FUNCTION END_FUNCTION FUNCTION_BLOCK END_FUNCTION_BLOCK ORGANIZATION_BLOCK
    END_ORGANIZATION_BLOCK""".split())


class RawTok(NamedTuple):
    kind: str  # ident | keyword | number | string | address | op
    text: str
    # What parsers match on: an identifier's or keyword's upper-cased
    # text (interned, so the many copies of one word share a string), an
    # operator's text, "" for literals and addresses.
    key: str


class _Records(dict):
    """Token text -> the one `RawTok` of that text, shared by all its
    occurrences.  A new text is classified by its first character, as
    `_NEXT_TOKEN`'s alternatives tell the kinds apart, and a word of
    `_KEYWORDS` is a keyword; a stop token's text has no record and
    raises KeyError.  Holding `_TOKEN_CACHE_SIZE` texts, the memo starts
    afresh: sharing is lost, nothing else."""

    __slots__ = ()

    def __missing__(self, text: str) -> RawTok:
        first = text[:1]
        if first in _IDENT_START:
            kind = "number" if "#" in text else "keyword" if text.upper() in _KEYWORDS else "ident"
        elif first.isdecimal():  # `\d` matches every Unicode decimal digit
            kind = "number"
        elif first in ("'", '"', "%") and len(text) > 1:
            kind = "address" if first == "%" else "string"
        elif text in _OPERATORS:
            kind = "op"
        else:
            raise KeyError(text)
        if len(self) >= _TOKEN_CACHE_SIZE:
            self.clear()
        key = intern(text.upper()) if kind in ("ident", "keyword") else text if kind == "op" else ""
        # tuple.__new__ skips RawTok's Python-level __new__
        tok = self[text] = _new_tuple(RawTok, (kind, text, key))
        return tok


_RECORDS = _Records()


class Lexed(list):
    """The tokens of one text, and beside them `offsets`: the index of
    each token's first character in the text.  Line and column come from
    the text's `LineTable` where a position is reported."""

    __slots__ = ("offsets",)


class LineTable:
    """Line and column of offsets into one source text.  The table of
    line starts is built on the first lookup, so a text whose positions
    are never reported never pays for it; the text is dropped then, and
    the table is a compact array."""

    __slots__ = ("_text", "_starts")

    def __init__(self, text: str):
        self._text: str | None = text
        self._starts = array("q", [0])

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of `offset`."""
        if self._text is not None:
            self._starts.extend(m.end() for m in _NEWLINE.finditer(self._text))
            self._text = None
        line = bisect_right(self._starts, offset)
        return line, offset - self._starts[line - 1] + 1


def lex(text: str, path: str = "") -> Lexed:
    """Split ST source into raw tokens, dropping comments and pragmas:
    the tokens, with their offsets beside them."""
    pieces = _NEXT_TOKEN.split(text)
    texts = pieces[2::3]
    del texts[-1]  # the empty match at the end of the text
    if texts and not texts[-1]:
        del texts[-1]  # the trailing separator, taken with `\Z`
    offsets = list(islice(accumulate(map(len, pieces)), 1, 3 * len(texts), 3))
    try:
        toks = Lexed(map(_RECORDS.__getitem__, texts))
    except KeyError as stop:
        # A text that stops stops wherever it occurs, so its first
        # occurrence is the first stop token.
        k = texts.index(stop.args[0])
    else:
        toks.offsets = offsets
        return toks
    toks = Lexed(map(_RECORDS.__getitem__, texts[:k]))
    toks.offsets = offsets
    pos = offsets[k]
    del offsets[k:]
    append, place = toks.append, offsets.append
    while True:
        # The last match is the empty token at the end, which has no record.
        for m in _NEXT_TOKEN.finditer(text, pos):
            try:
                append(_RECORDS[m[2]])
            except KeyError:
                break
            place(m.start(2))
        start = m.start(2)
        if start == len(text):
            return toks
        if text.startswith("(*", start):
            depth = 1
            for mark in _COMMENT_MARK.finditer(text, start + 2):
                depth += 1 if mark.group() == "(*" else -1
                if not depth:
                    pos = mark.end()
                    break
            else:
                line, col = LineTable(text).position(start)
                raise UnterminatedComment("comment opened here is never closed", path, line, col)
            continue
        line, col = LineTable(text).position(start)
        ch = text[start]
        if ch in "'\"":
            raise UnterminatedString("string literal is never closed", path, line, col)
        if ch == "{":
            raise ParseError("unterminated pragma", path, line, col)
        raise ParseError("unexpected character %r" % ch, path, line, col)


# ---------------------- body walker ----------------------

# binary operators and their identities
_BINARY = {op: op for op in ("=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "**")} | {
    "&": "and",
    "AND": "and",
    "OR": "or",
    "XOR": "xor",
    "MOD": "mod",
}
# prefix operators
_PREFIX = frozenset({"NOT", "-", "+"})
# keywords that are literals
_BOOL_LITERALS = frozenset({"TRUE", "FALSE"})
# what can follow the root of a reference that is more than a name:
# member access, a subscript or an argument list
_REF_TAIL = frozenset({".", "[", "("})
# the words that end a statement list
_CLOSERS = frozenset({"ELSIF", "ELSE", "END_IF", "END_CASE", "END_FOR", "END_WHILE", "UNTIL", "END_REPEAT"})


class _RawCall:
    __slots__ = ("callee", "key", "args", "returns")

    def __init__(self, callee: str, key: str, args: int, returns: int):
        self.callee = callee
        self.key = key
        self.args = args
        self.returns = returns


class _BodyResult:
    """The one collector all body walks of a POU write into: one ST walk,
    or a PLCopen body's network walks and ST fragment walks.  It holds
    what the walks saw; `finalize_body` applies the declarations, such
    as which raw (root, first member) reads name an FB instance output.
    `depth` is the nesting the next walk starts inside."""

    def __init__(self):
        self.tokens: list[Token] = []
        self.decisions: list[DecisionSpan] = []
        self.calls: list[_RawCall] = []
        # Graphical blocks as (type name, callee, arguments, distinct
        # returns used); those whose type is a POU or FB of the sample
        # become calls.
        self.blocks: list[tuple[str, str, int, int]] = []
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.member_reads: set[tuple[str, str]] = set()
        self.warnings: list[AnalysisWarning] = []
        self.depth = 0


_EOF = RawTok("eof", "", "")

# Deepest nesting of blocks, brackets, argument lists and ARRAY/STRUCT
# types a parser accepts.  Deeper input is a ParseError, not a
# RecursionError: one level costs the walk about 7 interpreter frames,
# so the limit stays well inside Python's default recursion limit.
_MAX_NESTING = 100


class _Cursor:
    """Position in a token list, shared by the declaration parser and the
    body walker.  The list, which the cursor reads in place, ends with one
    `_EOF`, and no method steps `i` past it: `take()` stays there.  So
    `toks[i]` is always a token, and `toks[i + 1]` is one whenever
    `toks[i]` is not `_EOF`; neither read needs a bounds check.
    `offsets[i]` is the offset of `toks[i]`, which `lines` maps to a
    position.  Beside `_EOF` it is that of a unit's closing keyword,
    where an error at the end of input is reported, or -1 for no
    position, as in a bare fragment."""

    def __init__(self, toks: list[RawTok], offsets: list[int], path: str, lines: LineTable):
        self.toks = toks
        self.offsets = offsets
        self.path = path
        self.lines = lines
        self.i = 0
        self.depth = 0

    def cur(self) -> RawTok:
        return self.toks[self.i]

    def peek(self) -> RawTok:
        return self.toks[self.i + 1]

    def take(self) -> RawTok:
        t = self.toks[self.i]
        if t is not _EOF:
            self.i += 1
        return t

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """The error `message` at the token of index `at`, by default the
        current token."""
        offset = self.offsets[self.i if at is None else at]
        if offset < 0:
            return ParseError(message, self.path)
        return ParseError(message, self.path, *self.lines.position(offset))

    def at(self, key: str) -> bool:
        return self.toks[self.i].key == key

    def expect(self, key: str) -> RawTok:
        t = self.toks[self.i]
        if t.key != key:
            wanted = key if key.isidentifier() else repr(key)
            raise self.fail("expected %s, found %r" % (wanted, t.text or "end of input"))
        self.i += 1  # a token that matched is not `_EOF`
        return t

    def before(self, key: str, what: str) -> bool:
        """Whether the current token is not yet `key`; end of input
        first is the error `unterminated <what>`."""
        if self.at(key):
            return False
        if self.cur() is _EOF:
            raise self.fail("unterminated %s" % what)
        return True

    def skip_to(self, key: str, what: str):
        """Consume the tokens before the first `key` outside `()` and `[]`;
        end of input first is the error `unterminated <what>`."""
        depth = 0
        while (t := self.cur()).key != key or depth:
            if t is _EOF:
                raise self.fail("unterminated %s" % what)
            if t.key in ("(", "["):
                depth += 1
            elif t.key in (")", "]"):
                depth -= 1
            self.take()

    def skip_bracketed(self, what: str):
        """Consume the `(` or `[` at the cursor, the tokens inside and its closer."""
        self.skip_to(")" if self.take().key == "(" else "]", what)
        self.take()

    def expect_ident(self) -> RawTok:
        t = self.toks[self.i]
        if t.kind != "ident":
            raise self.fail("expected identifier, found %r" % (t.text or "end of input"))
        self.i += 1
        return t

    def descend(self):
        """Enter one nested construct; leave it with `self.depth -= 1`.
        A parse that fails is abandoned, so no unwinding is needed."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.fail("nesting deeper than %d levels" % _MAX_NESTING)


class _BodyParser(_Cursor):
    """Statement-list walker over raw tokens.  Emits classified tokens in
    source order; never builds an AST.

    The per-token paths read `self.toks[self.i]` and step `self.i`
    themselves, under `_Cursor`'s contract: they step only over a token
    they have matched, which is never `_EOF`, and read `toks[i + 1]` only
    at such a token.  `_Cursor`'s methods serve the rarer constructs and
    the errors.  A plain operand is a direct address or an identifier
    whose next token is not `.`, `[` or `(`: a variable named by itself,
    which `primary` emits and reads in one step."""

    def __init__(
        self,
        toks: list[RawTok],
        offsets: list[int],
        path: str,
        lines: LineTable,
        res: _BodyResult,
    ):
        super().__init__(toks, offsets, path, lines)
        self.res = res
        self.depth = res.depth
        # set when the last parsed statement was a bare invocation
        self.last_bare_call: _RawCall | None = None

    # --- emission ---

    def op(self, tok: RawTok, identity: str | None = None):
        self.res.tokens.append(Token.operator(tok.text, identity))

    def operand(self, tok: RawTok):
        self.res.tokens.append(Token.operand(tok.text))

    def decision(self, kind: str, at: int):
        """Record a decision point at the token of index `at`."""
        self.res.decisions.append(DecisionSpan(kind, SourceRef(self.path, *self.lines.position(self.offsets[at]))))

    # --- statements ---

    def parse_body(self, value_context: bool = False) -> _BodyResult:
        self.stmt_list()
        if self.cur() is not _EOF:  # a closer that closes nothing
            raise self.fail("unexpected %s" % self.cur().key)
        if value_context and self.last_bare_call is not None:
            # The fragment is an expression whose result a surrounding
            # construct (e.g. a transition condition) consumes.
            self.last_bare_call.returns += 1
        return self.res

    def stmt_list(self, case_branch: bool = False):
        """Statements up to the end of input or a word of `_CLOSERS`; a
        CASE branch also ends where the next label group starts."""
        self.descend()
        toks = self.toks
        while (t := toks[self.i]) is not _EOF and t.key not in _CLOSERS:
            if case_branch and self.looks_like_case_label():
                break
            self.statement()
        self.depth -= 1

    def at_close(self) -> bool:
        """End of input, or a word that ends a statement list."""
        t = self.cur()
        return t is _EOF or t.key in _CLOSERS

    def statement(self):
        t = self.toks[self.i]
        word = t.key
        if word == ";":
            self.res.tokens.append(Token.operator(";"))
            self.i += 1
        elif word == "IF":
            self.if_statement()
        elif word == "CASE":
            self.case_statement()
        elif word == "FOR":
            self.for_statement()
        elif word == "WHILE":
            self.while_statement()
        elif word == "REPEAT":
            self.repeat_statement()
        elif word in ("RETURN", "EXIT", "CONTINUE"):
            if word == "EXIT":
                self.decision("exit", self.i)
            self.i += 1
            self.op(t, word.lower())
            self.end_of_statement()
        else:
            self.expr_statement()

    def end_of_statement(self):
        if self.toks[self.i].key == ";":
            self.res.tokens.append(Token.operator(";"))
            self.i += 1
        elif not self.at_close():  # a fragment or the last statement of a block needs no ';'
            raise self.fail("expected ';'")

    def expr_statement(self):
        i = self.i
        t = self.toks[i]
        self.last_bare_call = None
        if t.kind == "ident" and self.toks[i + 1].key == ":=":
            # A plain target, `name :=`, needs no reference to parse.
            self.res.tokens.append(Token.operand(t.text))
            self.i = i + 1
            self.res.writes.add(t.text.casefold())
        else:
            if t.kind != "ident" and t.kind != "address":
                # A bare expression, such as the condition `NOT done`.
                self.expression()
                self.end_of_statement()
                return
            ref = self.reference()
            if not self.at(":="):
                if ref.call is not None and (self.at(";") or self.at_close()):
                    self.last_bare_call = ref.call
                else:
                    self.register_ref_read(ref)  # a call's value feeds a larger expression
                self.continue_binary()
                self.end_of_statement()
                return
            self.register_ref_write(ref)
        self.res.tokens.append(Token.operator(":="))
        self.i += 1
        self.expression()
        self.end_of_statement()

    def if_statement(self):
        kind = "if"
        while kind:  # IF, then each ELSIF
            self.decision(kind, self.i)
            self.op(self.take(), kind)
            self.expression()
            self.expect("THEN")
            self.stmt_list()
            kind = "elsif" if self.at("ELSIF") else ""
        if self.at("ELSE"):
            self.op(self.take(), "else")
            self.stmt_list()
        self.expect("END_IF")

    def case_statement(self):
        self.op(self.take(), "case")
        self.expression()
        self.expect("OF")
        while not self.at_close():
            self.case_group()
        if self.at("ELSE"):
            self.op(self.take(), "else")
            self.stmt_list()
        self.expect("END_CASE")

    def case_group(self):
        self.decision("case-label", self.i)
        self.case_label_atom()
        while self.cur().key in (",", ".."):
            self.op(self.take())
            self.case_label_atom()
        self.expect(":")  # label colon folds into the CASE construct
        self.stmt_list(case_branch=True)

    def case_label_atom(self):
        if self.cur().key in ("-", "+"):
            self.op(self.take())
        if self.cur().kind not in ("number", "string", "ident") and self.cur().key not in _BOOL_LITERALS:
            raise self.fail("expected CASE label")
        self.operand(self.take())  # an identifier is an enum value or a named constant

    def looks_like_case_label(self) -> bool:
        j = self.i
        seen_atom = False
        while True:
            t = self.toks[j]
            if t.kind in ("number", "string", "ident") or t.key in _BOOL_LITERALS:
                seen_atom = True
            elif t.key not in (",", "..", "-", "+"):
                break
            j += 1
        return seen_atom and self.toks[j].key == ":"

    def for_statement(self):
        self.decision("for", self.i)
        self.op(self.take(), "for")
        var = self.cur()
        if var.kind != "ident":
            raise self.fail("expected loop variable")
        self.operand(self.take())
        self.res.writes.add(var.text.casefold())
        self.op(self.expect(":="))
        self.expression()
        self.expect("TO")
        self.expression()
        if self.at("BY"):
            self.take()
            self.expression()
        self.expect("DO")
        self.stmt_list()
        self.expect("END_FOR")

    def while_statement(self):
        self.decision("while", self.i)
        self.op(self.take(), "while")
        self.expression()
        self.expect("DO")
        self.stmt_list()
        self.expect("END_WHILE")

    def repeat_statement(self):
        self.decision("repeat", self.i)
        self.op(self.take(), "repeat")
        self.stmt_list()
        self.expect("UNTIL")
        self.expression()
        self.expect("END_REPEAT")

    # --- expressions ---

    def expression(self):
        self.unary()
        self.continue_binary()

    def continue_binary(self):
        # Tokens are emitted in source order and no tree is built, so
        # operator precedence never changes the result: an expression is
        # a flat `unary {binary-operator unary}` sequence.
        toks = self.toks
        while (identity := _BINARY.get(toks[self.i].key)) is not None:
            self.res.tokens.append(Token.operator(toks[self.i].text, identity))
            self.i += 1
            self.unary()

    def unary(self):
        # Prefix operators are consumed in a loop: a chain of them is
        # not nesting and needs no recursion.
        toks = self.toks
        while (key := toks[self.i].key) in _PREFIX:
            self.op(toks[self.i], "not" if key == "NOT" else None)
            self.i += 1
        self.primary()

    def primary(self):
        i = self.i
        t = self.toks[i]
        kind = t.kind
        if kind == "ident" or kind == "address":
            if self.toks[i + 1].key not in _REF_TAIL:
                # A plain operand: one step, with no reference to parse.
                self.res.tokens.append(Token.operand(t.text))
                self.res.reads.add(t.text.casefold())
                self.i = i + 1
                return
            self.register_ref_read(self.reference())
            return
        if kind in ("number", "string") or t.key in _BOOL_LITERALS:
            self.res.tokens.append(Token.operand(t.text))
            self.i = i + 1
            return
        if t.key == "(":
            self.op(self.take(), "()")
            self.descend()
            self.expression()
            self.depth -= 1
            self.expect(")")
            return
        raise self.fail("unexpected %r in expression" % (t.text or "end of input"))

    # --- references and calls ---

    class _Ref:
        __slots__ = ("root_key", "member", "call")

        def __init__(self, root_key: str, member: str | None = None, call: _RawCall | None = None):
            self.root_key = root_key
            self.member = member  # first member when path is root.member
            self.call = call

    def reference(self) -> "_BodyParser._Ref":
        """Parse a variable reference or invocation starting at an
        identifier or address; the caller registers what it reads or
        writes."""
        t = self.cur()
        if t.kind == "address":
            self.operand(self.take())
            return self._Ref(t.text.casefold())

        # A call starts at an identifier followed by `(` or `.`; `toks[i + 1]`
        # is read only past an identifier, so never past `_EOF`.
        if t.kind == "ident" and self.peek().key in ("(", "."):
            path = self.call_lookahead()
            if path is not None:
                return self.invocation(path)

        root = self.take()
        self.operand(root)
        root_key = root.text.casefold()
        first_member: str | None = None
        saw_subscript = False
        while True:
            if self.at("."):
                self.op(self.take())
                member = self.cur()
                if member.kind != "ident":
                    raise self.fail("expected member name after '.'")
                self.operand(self.take())
                if first_member is None and not saw_subscript:
                    first_member = member.text.casefold()
            elif self.at("["):
                self.op(self.take(), "[]")
                saw_subscript = True
                self.descend()
                self.expression()
                while self.at(","):
                    self.op(self.take())
                    self.expression()
                self.depth -= 1
                self.expect("]")
            else:
                break
        return self._Ref(root_key, first_member)

    def register_ref_read(self, ref: "_BodyParser._Ref"):
        """A call's value is used; a variable's root is read, and so is
        (root, first member)."""
        if ref.call is not None:
            ref.call.returns += 1
            return
        self.res.reads.add(ref.root_key)
        if ref.member is not None:
            self.res.member_reads.add((ref.root_key, ref.member))

    def register_ref_write(self, ref: "_BodyParser._Ref"):
        if ref.call is not None:
            raise self.fail("cannot assign to a call result")
        self.res.writes.add(ref.root_key)

    def call_lookahead(self) -> list[RawTok] | None:
        """Detect `ident ('.' ident)* '('` without consuming anything."""
        toks, j = self.toks, self.i
        path = []
        while True:
            t = toks[j]
            if t.kind != "ident":
                return None
            path.append(t)
            if toks[j + 1].key != ".":
                break
            j += 2
        return path if toks[j + 1].key == "(" else None

    def invocation(self, path: list[RawTok]) -> "_BodyParser._Ref":
        lexeme = ".".join(p.text for p in path)
        self.i += len(path) * 2 - 1  # idents and the dots between them
        self.res.tokens.append(Token.operator(lexeme, lexeme.casefold() + "()"))
        self.expect("(")  # argument parens belong to the invocation
        call = _RawCall(lexeme, path[0].text.casefold(), 0, 0)
        self.res.calls.append(call)
        if not self.at(")"):
            self.descend()
            self.argument(call)
            while self.at(","):
                self.op(self.take())
                self.argument(call)
            self.depth -= 1
        self.expect(")")
        return self._Ref(call.key, call=call)

    def argument(self, call: _RawCall):
        if self.cur().kind == "ident" and self.peek().key in (":=", "=>"):
            self.operand(self.take())  # formal parameter name
            binder = self.take()
            self.op(binder)
            if binder.key == "=>":
                call.returns += 1
                t = self.cur()
                if t.kind != "ident" and t.kind != "address":
                    if t is _EOF:
                        self.expect(")")  # the argument list is what is left open
                    raise self.fail("expected a variable after '=>', found %r" % t.text)
                self.register_ref_write(self.reference())
                return
        call.args += 1  # a positional or `:=` argument
        self.expression()


# ---------------------- fragment entry point ----------------------


def st_fragment_facts(
    text: str,
    path: str = "",
    value_context: bool = False,
    into: _BodyResult | None = None,
) -> _BodyResult:
    """Walk an ST statement list or expression into the collector `into`
    (a new one when None) and return it: classified `.tokens`,
    `.decisions` (kind and position of each decision point), calls and
    accessed names.  The XML frontend walks bodies, transition conditions
    and inline actions into its POU's collector; `value_context` marks a
    bare expression whose result a surrounding construct consumes.  The
    walk starts inside `into.depth` levels of nesting."""
    toks = lex(text, path)
    offsets = toks.offsets
    offsets.append(-1)
    return _BodyParser([*toks, _EOF], offsets, path, LineTable(text), into or _BodyResult()).parse_body(value_context)


# ---------------------- declarations ----------------------

_POU_KINDS = {
    "PROGRAM": (PouKind.PROGRAM, "END_PROGRAM"),
    "FUNCTION_BLOCK": (PouKind.FUNCTION_BLOCK, "END_FUNCTION_BLOCK"),
    "FUNCTION": (PouKind.FUNCTION, "END_FUNCTION"),
    "ORGANIZATION_BLOCK": (PouKind.ORGANIZATION_BLOCK, "END_ORGANIZATION_BLOCK"),
}

# The keyword that opens a top-level unit -> its kind and closing keyword.
_UNIT_ENDS = {
    **{word: ("pou", end_kw) for word, (_, end_kw) in _POU_KINDS.items()},
    "TYPE": ("types", "END_TYPE"),
    "VAR_GLOBAL": ("globals", "END_VAR"),
}

_VAR_SECTIONS = {
    "VAR_INPUT": VarSection.INPUT,
    "VAR_OUTPUT": VarSection.OUTPUT,
    "VAR_IN_OUT": VarSection.IN_OUT,
    "VAR": VarSection.LOCAL,
    "VAR_TEMP": VarSection.TEMP,
    "VAR_EXTERNAL": VarSection.EXTERNAL,
    "VAR_GLOBAL": VarSection.GLOBAL,
}

_VAR_QUALIFIERS = frozenset({"RETAIN", "NON_RETAIN", "CONSTANT", "PERSISTENT"})

_BASED_INT = re.compile(r"2#[01]+|8#[0-7]+|16#[0-9A-Fa-f]+")  # once `_` is removed
# Decimal digits Python converts between int and str; 0 is no limit, as
# before Python 3.10.7, which has no getter.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class StSource(NamedTuple):
    """One ST input: a path label plus the full text."""

    path: str
    text: str


class StUnit(NamedTuple):
    """Top-level construct found in an ST file.  `tokens`, the list its
    cursor reads, holds the tokens before the closing keyword (and
    END_VAR too for a VAR_GLOBAL list), then `_EOF`.  `offsets` holds
    their offsets, and beside `_EOF` that of the closing keyword, or -1
    for a VAR_GLOBAL list.  `lines` is the file's line table, shared by
    all its units."""

    kind: str  # "pou" | "types" | "globals"
    tokens: list[RawTok]
    offsets: list[int]
    lines: LineTable


def split_st_units(source: StSource) -> list[StUnit]:
    """Slice a file into POUs, TYPE blocks and VAR_GLOBAL lists."""
    toks = lex(source.text, source.path)
    offsets = toks.offsets
    lines = LineTable(source.text)
    units: list[StUnit] = []
    i = 0
    while i < len(toks):
        t = toks[i]
        word = t.key
        if word in _UNIT_ENDS:
            kind, end_kw = _UNIT_ENDS[word]
            j = _find_kw(toks, i + 1, end_kw, source.path, lines, offsets[i])
            at = offsets[i : j + 1]
            if kind == "globals":
                unit = toks[i : j + 1]
                at.append(-1)
            else:
                unit = toks[i:j]
            unit.append(_EOF)
            units.append(StUnit(kind, unit, at, lines))
            i = j + 1
        elif word == ";":
            i += 1
        else:
            raise ParseError("unexpected top-level token %r" % t.text, source.path, *lines.position(offsets[i]))
    return units


def _find_kw(toks, start, word, path, lines, open_offset) -> int:
    for j in range(start, len(toks)):
        if toks[j].key == word:
            return j
    raise ParseError("missing %s" % word, path, *lines.position(open_offset))


def parse_type_spec(cur: _Cursor) -> TypeSpec:
    t = cur.cur()
    word = t.key
    if word == "ARRAY":
        cur.take()
        cur.expect("[")
        dims = [_parse_range(cur)]
        while cur.at(","):
            cur.take()
            dims.append(_parse_range(cur))
        cur.expect("]")
        if not cur.at("OF"):
            raise cur.fail("expected OF")
        cur.take()
        cur.descend()
        element = parse_type_spec(cur)
        cur.depth -= 1
        return TypeSpec("array", dims=tuple(dims), element=element)
    if word == "STRUCT":
        cur.take()
        cur.descend()
        fields: list[str] = []
        while cur.before("END_STRUCT", "STRUCT"):
            fields.extend(_declared_names(cur))
            _type_and_init(cur)  # parsed for its errors and nesting only
        cur.take()
        cur.depth -= 1
        return TypeSpec("struct", fields=tuple(fields))
    if word in ("STRING", "WSTRING"):
        cur.take()
        if cur.at("(") or cur.at("["):
            cur.skip_bracketed("string length")
        return TypeSpec("string", name=word)
    if word == "(":
        cur.skip_bracketed("enumeration")
        return TypeSpec("enum")
    if t.kind != "ident":
        raise cur.fail("expected a type, found %r" % (t.text or "end of input"))
    name_tok = cur.take()
    if cur.at("("):
        # Subrange such as INT (0..100).
        cur.skip_bracketed("subrange")
        return TypeSpec("subrange", name=name_tok.text, element=named(name_tok.text))
    return named(name_tok.text)


def _declared_names(cur: _Cursor) -> list[str]:
    """`name {, name}` at the start of a declaration."""
    names = [cur.expect_ident().text]
    while cur.at(","):
        cur.take()
        names.append(cur.expect_ident().text)
    return names


def _type_and_init(cur: _Cursor) -> TypeSpec:
    """`: type [:= init] ;` after the declared names."""
    cur.expect(":")
    spec = parse_type_spec(cur)
    if cur.at(":="):
        cur.skip_to(";", "initializer")
    cur.expect(";")
    return spec


def _parse_range(cur: _Cursor) -> tuple[int, int]:
    start = cur.i
    lo = _parse_bound(cur)
    cur.expect("..")
    hi = _parse_bound(cur)
    if lo > hi:
        raise cur.fail("array lower bound %d exceeds upper bound %d" % (lo, hi), start)
    return lo, hi


def _parse_bound(cur: _Cursor) -> int:
    sign = -1 if cur.at("-") else 1
    if cur.cur().key in ("-", "+"):
        cur.take()
    t = cur.cur()
    if t.kind != "number":
        raise cur.fail("array bounds must be integer literals")
    text = t.text.replace("_", "")
    base, _, digits = text.partition("#") if _BASED_INT.fullmatch(text) else ("10", "", text)
    try:
        value = int(digits, int(base))
    except ValueError:
        raise cur.fail(_bound_error(t.text)) from None
    # A based literal is not held to int()'s digit limit, but the bound
    # is printed in decimal, so it keeps the decimal bounds' range.
    limit = _max_str_digits()
    if base != "10" and limit and value >= 10**limit:
        raise cur.fail(_bound_error(t.text, too_long=True))
    cur.take()
    return sign * value


def _bound_error(text: str, too_long: bool = False) -> str:
    """The message for an array bound that int() refused, or that is
    `too_long` to print.  A decimal literal that int() refused is an
    integer with more digits than Python converts (4300 by default)."""
    body = text.strip()
    digits = (body[1:] if body[:1] in ("+", "-") else body).replace("_", "")
    limit = _max_str_digits()
    too_long = too_long or (digits.isdecimal() and 0 < limit < len(digits))
    return "array bound %s %s" % (clip(repr(text)), "has too many digits" if too_long else "is not an integer")


def parse_type_block(unit: StUnit, path: str) -> list[tuple[str, TypeSpec]]:
    """The definitions of one TYPE .. END_TYPE block, in order.  A block
    that does not parse raises, so it defines none of its types.  Its
    END_TYPE is the end of input, so a construct it cuts short is
    unterminated."""
    cur = _Cursor(unit.tokens, unit.offsets, path, unit.lines)
    cur.take()  # TYPE
    definitions: list[tuple[str, TypeSpec]] = []
    while cur.cur() is not _EOF:
        name = cur.expect_ident().text
        definitions.append((name, _type_and_init(cur)))
    return definitions


def parse_global_names(unit: StUnit, path: str) -> list[str]:
    """Names declared in a standalone VAR_GLOBAL .. END_VAR list."""
    return [d.name for d in _parse_var_sections(_Cursor(unit.tokens, unit.offsets, path, unit.lines))]


def _parse_var_sections(cur: _Cursor) -> list[RawDecl]:
    decls: list[RawDecl] = []
    toks = cur.toks
    while True:
        section = _VAR_SECTIONS.get(cur.cur().key)
        if section is None:
            return decls
        cur.take()
        while cur.cur().key in _VAR_QUALIFIERS:
            cur.take()
        while True:
            i = cur.i
            t = toks[i]
            if t.kind == "ident" and toks[i + 1].key == ":":
                type_tok = toks[i + 2]
                if type_tok.kind == "ident" and toks[i + 3].key == ";":
                    # A plain `name : TYPE;` in one step, read as the
                    # general path below reads it.
                    decls.append(_new_tuple(RawDecl, (t.text, section, named(type_tok.text))))
                    cur.i = i + 4
                    continue
            if not cur.before("END_VAR", "VAR section"):
                break
            names = _declared_names(cur)
            if cur.at("AT"):
                cur.take()
                if cur.cur().kind != "address":
                    raise cur.fail("expected a direct address after AT")
                cur.take()
            spec = _type_and_init(cur)
            decls.extend(RawDecl(n, section, spec) for n in names)
        cur.take()


def interface_of_unit(
    cur: _Cursor,
) -> tuple[str, PouKind, list[RawDecl] | None, TypeSpec | None, tuple[str, str, int, int, str] | None]:
    """Head and declarations of the POU unit that `cur` starts at: name,
    kind, raw declarations, the function return type (None for other
    kinds) and None, with `cur` left at the first body token.  When the
    declarations or the return type do not parse, the last item holds
    the arguments of that ParseError and both are None, so the error
    keeps the POU's name.  An empty or blank quoted name is a ParseError
    at the head, as a nameless XML <pou> is."""
    head = cur.i
    kind = _POU_KINDS[cur.take().key][0]
    name_tok = cur.cur()
    if name_tok.kind == "string":
        name = name_tok.text[1:-1]
        cur.take()
    else:
        name = cur.expect_ident().text
    if not name.strip():
        raise cur.fail("pou without a name skipped", head)
    return_spec: TypeSpec | None = None
    try:
        if kind is PouKind.FUNCTION and cur.at(":"):
            cur.take()
            return_spec = parse_type_spec(cur)
        decls = _parse_var_sections(cur)
    except ParseError as exc:
        return name, kind, None, None, exc.fields
    return name, kind, decls, return_spec, None


def finalize_body(
    res: _BodyResult,
    variables,
    context: TypeContext,
    global_names: frozenset[str],
    pou_names: frozenset[str],
) -> BodyFacts:
    """Turn a POU's collector into BodyFacts for the POU's declarations:
    add the distinct outputs read back from each FB instance to the
    instance's first call, append the blocks whose type is in `pou_names`
    or an FB, and keep only genuinely external reads and writes."""
    # casefolded FB instance name -> the FB's output member names
    outputs = {v.name.casefold(): context.fb_output_names(v.type_name) for v in variables if context.is_fb(v.type_name)}
    pending = Counter(inst for inst, member in res.member_reads if member in outputs.get(inst, ()))
    calls = [CallSite(c.callee, c.args, c.returns + pending.pop(c.key, 0)) for c in res.calls]
    calls += [
        CallSite(callee, args, returns)
        for type_name, callee, args, returns in res.blocks
        if type_name.casefold() in pou_names or context.is_fb(type_name)
    ]
    declared = {v.name.casefold() for v in variables if v.section in (VarSection.EXTERNAL, VarSection.GLOBAL)}
    return BodyFacts(
        tuple(res.tokens),
        tuple(res.decisions),
        tuple(calls),
        external_filter(res.reads, global_names, declared, "im"),
        external_filter(res.writes, global_names, declared, "qm"),
    )


class WalkedPou(NamedTuple):
    """A POU as pass 1 leaves it, with none of its tokens or XML elements:
    its declarations, where it starts and the collector its body walks
    filled.  `language` is None when the body's language is not analyzed,
    and `body.warnings` then ends with the warning that says so, or when
    a PLCopen walk failed.  `error` holds the arguments of the ParseError
    that stopped the walk: plain values, which no traceback outlives.
    `decls` is None when the walk stopped before the declarations; a
    failed body keeps them."""

    name: str
    source_ref: SourceRef
    kind: PouKind
    language: Language | None
    decls: list[RawDecl] | None
    return_spec: TypeSpec | None
    body: _BodyResult
    error: tuple[str, str, int, int, str] | None = None

    @property
    def parse_error(self) -> ParseError | None:
        """The ParseError that stopped the walk, or None."""
        return None if self.error is None else ParseError(*self.error)


def walk_pou_unit(unit: StUnit, path: str) -> WalkedPou:
    """Pass 1 for one POU unit: one parser reads its declarations and
    walks its body, which needs no other file.  Declarations that do not
    parse leave the POU's name to the sample, and a body that does not
    parse its interface too; only a nameless head raises."""
    parser = _BodyParser(unit.tokens, unit.offsets, path, unit.lines, _BodyResult())
    name, kind, decls, return_spec, error = interface_of_unit(parser)
    head = SourceRef(path, *unit.lines.position(unit.offsets[0]))
    if error is None:
        try:
            parser.parse_body()
        except ParseError as exc:
            error = exc.fields
    return WalkedPou(name, head, kind, Language.ST, decls, return_spec, parser.res, error)


def parse_pou_unit(
    walked: WalkedPou,
    context: TypeContext,
    global_names: frozenset[str],
    pou_names: frozenset[str] = frozenset(),
) -> tuple[Pou | None, list[AnalysisWarning]]:
    """Pass 2 for one walked POU: classify its declarations against the
    whole sample's types and finish its body facts.  It never raises: a
    POU whose walk failed gives only its pass-1 error as a warning, and
    one whose body language is not analyzed gives only its warnings."""
    exc = walked.parse_error
    if exc is not None:
        return None, [AnalysisWarning("pou-parse-error", exc.detail, exc.path, walked.name)]
    variables, warnings = context.declare(walked.name, walked.decls, walked.return_spec, walked.source_ref.path)
    warnings += walked.body.warnings
    if walked.language is None:
        return None, warnings
    pou = Pou(
        name=walked.name,
        kind=walked.kind,
        language=walked.language,
        variables=tuple(variables),
        body=finalize_body(walked.body, variables, context, global_names, pou_names),
        source_ref=walked.source_ref,
    )
    return pou, warnings


def parse_st_pou(
    source: StSource,
    context: TypeContext | None = None,
    global_names: frozenset[str] | None = None,
) -> tuple[Pou, list[AnalysisWarning]]:
    """Parse a source holding exactly one POU into the IR.

    `context` supplies user types and FB interfaces gathered from the
    whole input set; `global_names` lists casefolded global variables so
    body accesses to them count as external reads/writes.
    """
    context = context or TypeContext()
    global_names = global_names or frozenset()
    units = [u for u in split_st_units(source) if u.kind == "pou"]
    if len(units) != 1:
        raise ParseError("expected exactly one POU, found %d" % len(units), source.path)
    walked = walk_pou_unit(units[0], source.path)
    exc = walked.parse_error
    if exc is not None:
        raise exc
    return parse_pou_unit(walked, context, global_names)


def external_filter(
    names: set[str], global_names: frozenset[str], declared: set[str], address_letters: str
) -> frozenset[str]:
    """Keep the sample's globals, the POU's own EXTERNAL/GLOBAL names and
    direct addresses of the allowed location letters (reads: I and M,
    writes: Q and M).  Each name is looked up, so the cost does not grow
    with the number of globals."""
    out = set()
    for n in names:
        if n.startswith("%"):
            if len(n) > 1 and n[1] in address_letters:
                out.add(n)
        elif n in global_names or n in declared:
            out.add(n)
    return frozenset(out)
