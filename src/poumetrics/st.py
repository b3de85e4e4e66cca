"""Structured Text frontend.

Turns textual ST source (POUs, TYPE blocks, VAR_GLOBAL lists) into the
shared IR.  The body walker is a small recursive-descent parser that
emits one classified token per lexical element, records decision points
with their source spans, collects call sites and tracks which external
names are read or written.

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

Decision points: IF, each ELSIF, each CASE label group (ELSE never),
FOR, WHILE, REPEAT, EXIT.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from sys import intern
from typing import NamedTuple

from .errors import AnalysisWarning, ParseError, UnterminatedComment, UnterminatedString, clip
from .ir import (
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

# One match per token: the whitespace before it, then one named group
# per kind, tried in this order (typed literals such as T#5s before
# identifiers, `(*` before the `(` operator).  `comment` takes a `(* *)`
# comment that holds no nested `(*`; `nest` takes the opener of one that
# does (or that is never closed), which `lex` skips with a depth count.
# `bad` takes a character no kind can start with, or the opener of an
# unclosed string or pragma.  Each match starts where the previous one
# ended: whitespace is never `bad`, so only trailing whitespace ends the
# scan.
_NEXT_TOKEN = re.compile(
    r"""
    [ \t\r\n]*
    (?:
      (?P<comment>\(\*[^*(]*(?:(?:\*(?!\))|\((?!\*))[^*(]*)*\*\)|//[^\n]*|\{[^}]*\})
    | (?P<nest>\(\*)
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
    | (?P<bad>[^ \t\r\n])
    )
    """,
    re.VERBOSE,
)
_COMMENT_MARK = re.compile(r"\(\*|\*\)")
_NEWLINE = re.compile(r"\n")
_new_tuple = tuple.__new__


class RawTok(NamedTuple):
    kind: str  # ident | number | string | address | op
    text: str
    # Index of the token's first character in the lexed text; line and
    # column come from the text's `LineTable` where a position is reported.
    offset: int
    # What parsers match on: an identifier's upper-cased text (interned,
    # so the many copies of one keyword share a string), an operator's
    # text, "" for literals and addresses.
    key: str


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


def lex(text: str, path: str = "") -> list[RawTok]:
    """Split ST source into raw tokens, dropping comments and pragmas.

    One `finditer` scan does the work; a nested comment stops it, is
    skipped by counting `(*` and `*)`, and the scan resumes after it."""
    toks: list[RawTok] = []
    append = toks.append
    # token text -> (text, key), so that the repeats of one text share one
    # string and one key for as long as the tokens are kept
    memo: dict[str, tuple[str, str]] = {}
    pos = 0
    while True:
        for m in _NEXT_TOKEN.finditer(text, pos):
            kind = m.lastgroup
            if kind == "comment":
                continue
            if kind == "nest" or kind == "bad":
                break
            tok = m[kind]
            hit = memo.get(tok)
            if hit is None:
                key = intern(tok.upper()) if kind == "ident" else tok if kind == "op" else ""
                hit = memo[tok] = (tok, key)
            # tuple.__new__ skips RawTok's Python-level __new__
            append(_new_tuple(RawTok, (kind, hit[0], m.start(kind), hit[1])))
        else:
            return toks
        start = m.start(kind)
        if kind == "bad":
            line, col = LineTable(text).position(start)
            ch = text[start]
            if ch in "'\"":
                raise UnterminatedString("string literal is never closed", path, line, col)
            if ch == "{":
                raise ParseError("unterminated pragma", path, line, col)
            raise ParseError("unexpected character %r" % ch, path, line, col)
        depth = 1
        for mark in _COMMENT_MARK.finditer(text, m.end()):
            depth += 1 if mark.group() == "(*" else -1
            if not depth:
                pos = mark.end()
                break
        else:
            line, col = LineTable(text).position(start)
            raise UnterminatedComment("comment opened here is never closed", path, line, col)


# ---------------------- body walker ----------------------

_STMT_START = frozenset({"IF", "CASE", "FOR", "WHILE", "REPEAT", "RETURN", "EXIT", "CONTINUE"})
# binary operators and their identities
_BINARY = {op: op for op in ("=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "**")} | {
    "&": "and",
    "AND": "and",
    "OR": "or",
    "XOR": "xor",
    "MOD": "mod",
}
# words that can never be part of a CASE label group
_LABEL_BREAKERS = _STMT_START | frozenset(
    {"ELSE", "ELSIF", "THEN", "DO", "OF", "TO", "BY", "UNTIL", "AND", "OR", "XOR", "NOT", "MOD"}
)
# words that can never name an invoked POU
_NOT_CALLEES = _STMT_START | frozenset({"AND", "OR", "XOR", "NOT", "MOD", "TRUE", "FALSE"})


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


_EOF = RawTok("eof", "", -1, "")

# Deepest nesting of blocks, brackets, argument lists and ARRAY/STRUCT
# types a parser accepts.  Deeper input is a ParseError, not a
# RecursionError: one level costs the walk about 7 interpreter frames,
# so the limit stays well inside Python's default recursion limit.
_MAX_NESTING = 100


class _Cursor:
    """Position in a token list, shared by the declaration parser and the
    body walker.  The list, which the cursor reads in place, ends with one
    `_EOF`, which `take()` never steps past, so neither the current token
    nor the one after a token that is not `_EOF` needs a bounds check.
    `lines` maps the tokens' offsets to positions.  An error at `_EOF`
    takes its position from `end` (a unit's closing keyword) when given;
    bare fragments have none."""

    def __init__(self, toks: list[RawTok], path: str, lines: LineTable, end: RawTok = _EOF):
        self.toks = toks
        self.end = end
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

    def fail(self, message: str, tok: RawTok | None = None) -> ParseError:
        """The error `message` at `tok`, by default the current token."""
        t = self.cur() if tok is None else tok
        if t is _EOF:
            t = self.end
            if t is _EOF:
                return ParseError(message, self.path)
        return ParseError(message, self.path, *self.lines.position(t.offset))

    def at(self, key: str) -> bool:
        return self.toks[self.i].key == key

    def expect(self, key: str) -> RawTok:
        t = self.cur()
        if t.key != key:
            wanted = key if key.isidentifier() else repr(key)
            raise self.fail("expected %s, found %r" % (wanted, t.text or "end of input"))
        return self.take()

    def before(self, key: str, what: str) -> bool:
        """Whether the current token is not yet `key`; end of input
        first is the error `unterminated <what>`."""
        if self.at(key):
            return False
        if self.cur() is _EOF:
            raise self.fail("unterminated %s" % what)
        return True

    def expect_ident(self) -> RawTok:
        t = self.cur()
        if t.kind != "ident":
            raise self.fail("expected identifier, found %r" % (t.text or "end of input"))
        return self.take()

    def skip_initializer(self):
        """Consume `:= <value>` up to the terminating ';' at depth 0."""
        depth = 0
        while True:
            t = self.cur()
            if t is _EOF:
                raise self.fail("unterminated initializer")
            if t.key in ("(", "["):
                depth += 1
            elif t.key in (")", "]"):
                depth -= 1
            elif t.key == ";" and depth == 0:
                return
            self.take()

    def descend(self):
        """Enter one nested construct; leave it with `self.depth -= 1`.
        A parse that fails is abandoned, so no unwinding is needed."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.fail("nesting deeper than %d levels" % _MAX_NESTING)


class _BodyParser(_Cursor):
    """Statement-list walker over raw tokens.  Emits classified tokens in
    source order; never builds an AST."""

    def __init__(
        self,
        toks: list[RawTok],
        path: str,
        lines: LineTable,
        res: _BodyResult,
        end: RawTok = _EOF,
    ):
        super().__init__(toks, path, lines, end)
        self.res = res
        self.depth = res.depth
        # set when the last parsed statement was a bare invocation
        self.last_bare_call: _RawCall | None = None

    # --- emission ---

    def op(self, tok: RawTok, identity: str | None = None):
        self.res.tokens.append(Token.operator(tok.text, identity))

    def operand(self, tok: RawTok):
        self.res.tokens.append(Token.operand(tok.text))

    def decision(self, kind: str, tok: RawTok):
        self.res.decisions.append(DecisionSpan(kind, SourceRef(self.path, *self.lines.position(tok.offset))))

    # --- statements ---

    def parse_body(self, value_context: bool = False) -> _BodyResult:
        self.stmt_list(frozenset())
        if self.cur() is not _EOF:
            raise self.fail("unexpected %r" % self.cur().text)
        if value_context and self.last_bare_call is not None:
            # The fragment is an expression whose result a surrounding
            # construct (e.g. a transition condition) consumes.
            self.last_bare_call.returns += 1
        return self.res

    def stmt_list(self, stop: frozenset[str], case_branch: bool = False):
        """Statements up to the end of input or a word in `stop`; a CASE
        branch also ends where the next label group starts."""
        self.descend()
        while True:
            t = self.cur()
            if t is _EOF or t.key in stop or (case_branch and self.looks_like_case_label()):
                self.depth -= 1
                return
            self.statement()

    def at_close(self) -> bool:
        """End of input, or a word that closes the enclosing construct."""
        t = self.cur()
        return t is _EOF or t.key.startswith("END_") or t.key in ("ELSE", "ELSIF", "UNTIL")

    def statement(self):
        word = self.cur().key
        if word == ";":
            self.op(self.take())
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
            kw = self.take()
            self.op(kw, word.lower())
            if word == "EXIT":
                self.decision("exit", kw)
            self.end_of_statement()
        elif word in ("ELSE", "ELSIF", "UNTIL") or word.startswith("END_"):
            raise self.fail("unexpected %s" % word)
        else:
            self.expr_statement()

    def end_of_statement(self):
        if self.at(";"):
            self.op(self.take())
        elif not self.at_close():  # a fragment or the last statement of a block needs no ';'
            raise self.fail("expected ';'")

    def expr_statement(self):
        t = self.cur()
        if t.kind not in ("ident", "address"):
            raise self.fail("unexpected %r" % (t.text or "end of input"))
        self.last_bare_call = None
        ref = self.reference(register=None)
        if self.at(":="):
            if ref.call is not None:
                raise self.fail("cannot assign to a call result")
            self.op(self.take())
            self.res.writes.add(ref.root_key)
            self.expression()
            self.end_of_statement()
            return
        if ref.call is not None:
            if self.at(";") or self.at_close():
                self.last_bare_call = ref.call
            else:
                ref.call.returns += 1  # the value feeds a larger expression
        else:
            self.register_ref_read(ref)
        self.continue_binary()
        self.end_of_statement()

    def if_statement(self):
        kw = self.expect("IF")
        self.op(kw, "if")
        self.decision("if", kw)
        self.expression()
        self.expect("THEN")
        self.stmt_list(frozenset({"ELSIF", "ELSE", "END_IF"}))
        while self.at("ELSIF"):
            kw = self.take()
            self.op(kw, "elsif")
            self.decision("elsif", kw)
            self.expression()
            self.expect("THEN")
            self.stmt_list(frozenset({"ELSIF", "ELSE", "END_IF"}))
        if self.at("ELSE"):
            self.op(self.take(), "else")
            self.stmt_list(frozenset({"END_IF"}))
        self.expect("END_IF")

    def case_statement(self):
        kw = self.expect("CASE")
        self.op(kw, "case")
        self.expression()
        self.expect("OF")
        stops = frozenset({"ELSE", "END_CASE"})
        while True:
            t = self.cur()
            if t is _EOF:
                raise self.fail("unterminated CASE")
            if t.key in stops:
                break
            self.case_group()
        if self.at("ELSE"):
            self.op(self.take(), "else")
            self.stmt_list(frozenset({"END_CASE"}))
        self.expect("END_CASE")

    def case_group(self):
        self.decision("case-label", self.cur())
        self.case_label_atom()
        while self.cur().key in (",", ".."):
            self.op(self.take())
            self.case_label_atom()
        self.expect(":")  # label colon folds into the CASE construct
        self.stmt_list(frozenset({"ELSE", "END_CASE"}), case_branch=True)

    def case_label_atom(self):
        if self.cur().key in ("-", "+"):
            self.op(self.take())
        if self.cur().kind not in ("number", "string", "ident"):
            raise self.fail("expected CASE label")
        self.operand(self.take())  # an identifier is an enum value or a named constant

    def looks_like_case_label(self) -> bool:
        j = self.i
        seen_atom = False
        while True:
            t = self.toks[j]
            if t.kind == "ident":
                if t.key in _LABEL_BREAKERS or t.key.startswith("END_"):
                    break
                seen_atom = True
            elif t.kind in ("number", "string"):
                seen_atom = True
            elif t.key not in (",", "..", "-", "+"):
                break
            j += 1
        return seen_atom and self.toks[j].key == ":"

    def for_statement(self):
        kw = self.expect("FOR")
        self.op(kw, "for")
        self.decision("for", kw)
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
        self.stmt_list(frozenset({"END_FOR"}))
        self.expect("END_FOR")

    def while_statement(self):
        kw = self.expect("WHILE")
        self.op(kw, "while")
        self.decision("while", kw)
        self.expression()
        self.expect("DO")
        self.stmt_list(frozenset({"END_WHILE"}))
        self.expect("END_WHILE")

    def repeat_statement(self):
        kw = self.expect("REPEAT")
        self.op(kw, "repeat")
        self.decision("repeat", kw)
        self.stmt_list(frozenset({"UNTIL"}))
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
        while (identity := _BINARY.get(self.cur().key)) is not None:
            self.op(self.take(), identity)
            self.unary()

    def unary(self):
        # Prefix operators are consumed in a loop: a chain of them is
        # not nesting and needs no recursion.
        while True:
            key = self.cur().key
            if key == "NOT":
                self.op(self.take(), "not")
            elif key in ("-", "+"):
                self.op(self.take())
            else:
                break
        self.primary()

    def primary(self):
        t = self.cur()
        if t.key == "(":
            self.op(self.take(), "()")
            self.descend()
            self.expression()
            self.depth -= 1
            self.expect(")")
            return
        if t.kind in ("number", "string"):
            self.operand(self.take())
            return
        if t.kind == "address":
            self.operand(self.take())
            self.res.reads.add(t.text.casefold())
            return
        if t.kind == "ident":
            if t.key in ("TRUE", "FALSE"):
                self.operand(self.take())
                return
            ref = self.reference(register="read")
            if ref.call is not None:
                ref.call.returns += 1  # expression context consumes the value
            return
        raise self.fail("unexpected %r in expression" % (t.text or "end of input"))

    # --- references and calls ---

    class _Ref:
        __slots__ = ("root_key", "member", "call")

        def __init__(self, root_key: str, member: str | None = None, call: _RawCall | None = None):
            self.root_key = root_key
            self.member = member  # first member when path is root.member
            self.call = call

    def reference(self, register: str | None) -> "_BodyParser._Ref":
        """Parse a variable reference or invocation starting at an
        identifier/address.  register: "read" registers the root as a
        read; None defers registration to the caller (assignment LHS)."""
        t = self.cur()
        if t.kind == "address":
            self.operand(self.take())
            key = t.text.casefold()
            if register == "read":
                self.res.reads.add(key)
            return self._Ref(key)

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
        ref = self._Ref(root_key, first_member)
        if register == "read":
            self.register_ref_read(ref)
        return ref

    def register_ref_read(self, ref: "_BodyParser._Ref"):
        self.res.reads.add(ref.root_key)
        if ref.member is not None:
            self.res.member_reads.add((ref.root_key, ref.member))

    def call_lookahead(self) -> list[RawTok] | None:
        """Detect `ident ('.' ident)* '('` without consuming anything."""
        toks, j = self.toks, self.i
        path = []
        while True:
            t = toks[j]
            if t.kind != "ident" or t.key in _NOT_CALLEES:
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
            if binder.key == ":=":
                call.args += 1
                self.expression()
            else:
                call.returns += 1
                target = self.reference(register=None)
                if target.call is None:
                    self.res.writes.add(target.root_key)
            return
        call.args += 1
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
    toks.append(_EOF)
    return _BodyParser(toks, path, LineTable(text), into or _BodyResult()).parse_body(value_context)


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
    cursor reads, holds the tokens before the closing keyword `end` (and
    END_VAR too for a VAR_GLOBAL list), then `_EOF`.  `lines` is the
    file's line table, shared by all its units."""

    kind: str  # "pou" | "types" | "globals"
    tokens: list[RawTok]
    end: RawTok
    lines: LineTable


def split_st_units(source: StSource) -> list[StUnit]:
    """Slice a file into POUs, TYPE blocks and VAR_GLOBAL lists."""
    toks = lex(source.text, source.path)
    lines = LineTable(source.text)
    units: list[StUnit] = []
    i = 0
    while i < len(toks):
        t = toks[i]
        word = t.key
        if word in _UNIT_ENDS:
            kind, end_kw = _UNIT_ENDS[word]
            j = _find_kw(toks, i + 1, end_kw, source.path, lines, t)
            unit = toks[i : j + 1] if kind == "globals" else toks[i:j]
            unit.append(_EOF)
            units.append(StUnit(kind, unit, toks[j], lines))
            i = j + 1
        elif word == ";":
            i += 1
        else:
            raise ParseError("unexpected top-level token %r" % t.text, source.path, *lines.position(t.offset))
    return units


def _find_kw(toks, start, word, path, lines, open_tok) -> int:
    for j in range(start, len(toks)):
        if toks[j].key == word:
            return j
    raise ParseError("missing %s" % word, path, *lines.position(open_tok.offset))


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
            closer = ")" if cur.take().key == "(" else "]"
            while cur.before(closer, "string length"):
                cur.take()
            cur.take()
        return TypeSpec("string", name=word)
    if word == "(":
        cur.take()
        while cur.before(")", "enumeration"):
            cur.take()
        cur.take()
        return TypeSpec("enum")
    if t.kind != "ident":
        raise cur.fail("expected a type, found %r" % (t.text or "end of input"))
    name_tok = cur.take()
    if cur.at("("):
        # Subrange such as INT (0..100).
        cur.take()
        while cur.before(")", "subrange"):
            cur.take()
        cur.take()
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
        cur.take()
        cur.skip_initializer()
    cur.expect(";")
    return spec


def _parse_range(cur: _Cursor) -> tuple[int, int]:
    start = cur.cur()
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
    cur = _Cursor(unit.tokens, path, unit.lines, unit.end)
    cur.take()  # TYPE
    definitions: list[tuple[str, TypeSpec]] = []
    while cur.cur() is not _EOF:
        name = cur.expect_ident().text
        definitions.append((name, _type_and_init(cur)))
    return definitions


def parse_global_names(unit: StUnit, path: str) -> list[str]:
    """Names declared in a standalone VAR_GLOBAL .. END_VAR list."""
    return [d.name for d in _parse_var_sections(_Cursor(unit.tokens, path, unit.lines))]


def _parse_var_sections(cur: _Cursor) -> list[RawDecl]:
    decls: list[RawDecl] = []
    while True:
        section = _VAR_SECTIONS.get(cur.cur().key)
        if section is None:
            return decls
        cur.take()
        while cur.cur().key in _VAR_QUALIFIERS:
            cur.take()
        while cur.before("END_VAR", "VAR section"):
            names = _declared_names(cur)
            if cur.at("AT"):
                cur.take()
                if cur.cur().kind != "address":
                    raise cur.fail("expected a direct address after AT")
                cur.take()
            spec = _type_and_init(cur)
            decls.extend(RawDecl(n, section, spec) for n in names)
        cur.take()


def interface_of_unit(cur: _Cursor) -> tuple[str, PouKind, list[RawDecl], TypeSpec | None]:
    """Head and declarations of the POU unit that `cur` starts at: name,
    kind, raw declarations and the function return type (None for other
    kinds).  `cur` is left at the first body token.  An empty or blank
    quoted name is a ParseError at the head, as a nameless XML <pou> is."""
    head = cur.take()
    kind = _POU_KINDS[head.key][0]
    name_tok = cur.cur()
    if name_tok.kind == "string":
        name = name_tok.text[1:-1]
        cur.take()
    else:
        name = cur.expect_ident().text
    if not name.strip():
        raise cur.fail("pou without a name skipped", head)
    return_spec: TypeSpec | None = None
    if kind is PouKind.FUNCTION and cur.at(":"):
        cur.take()
        return_spec = parse_type_spec(cur)
    decls = _parse_var_sections(cur)
    return name, kind, decls, return_spec


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
    return BodyFacts.build(
        tokens=res.tokens,
        decisions=res.decisions,
        calls=calls,
        external_reads=external_filter(res.reads, global_names, declared, "im"),
        external_writes=external_filter(res.writes, global_names, declared, "qm"),
    )


class WalkedPou:
    """A POU as pass 1 leaves it, with none of its tokens or XML elements:
    its declarations, where it starts and the collector its body walks
    filled.  `language` is None when the body's language is not analyzed,
    and `body.warnings` then ends with the warning that says so.  `error`
    holds the arguments of the ParseError that stopped the walk: plain
    values, which no traceback outlives.  `decls` is None when the walk
    stopped before the declarations; a failed body keeps them."""

    __slots__ = ("name", "source_ref", "kind", "language", "decls", "return_spec", "body", "error")

    def __init__(
        self,
        name: str,
        source_ref: SourceRef,
        kind: PouKind,
        language: Language | None = Language.ST,
        decls: list[RawDecl] | None = None,
        return_spec: TypeSpec | None = None,
        body: _BodyResult | None = None,
    ):
        self.name = name
        self.source_ref = source_ref
        self.kind = kind
        self.language = language
        self.decls = decls
        self.return_spec = return_spec
        self.body = _BodyResult() if body is None else body
        self.error: tuple[str, str, int, int, str] | None = None

    @property
    def parse_error(self) -> ParseError | None:
        """The ParseError that stopped the walk, or None."""
        return None if self.error is None else ParseError(*self.error)


def walk_pou_unit(unit: StUnit, path: str) -> WalkedPou:
    """Pass 1 for one POU unit: one parser reads its declarations (a
    ParseError there propagates) and walks its body, which needs no other
    file.  A body that does not parse still leaves the POU's name and
    interface to the sample."""
    parser = _BodyParser(unit.tokens, path, unit.lines, _BodyResult(), unit.end)
    name, kind, decls, return_spec = interface_of_unit(parser)
    head = SourceRef(path, *unit.lines.position(unit.tokens[0].offset))
    walked = WalkedPou(name, head, kind, Language.ST, decls, return_spec, parser.res)
    try:
        parser.parse_body()
    except ParseError as exc:
        walked.error = (exc.message, exc.path, exc.line, exc.column, exc.element)
    return walked


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
    variables, warnings = context.declare(walked.name, walked.decls, walked.return_spec)
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
