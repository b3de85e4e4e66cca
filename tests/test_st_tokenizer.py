"""Lexing and token classification of Structured Text."""

from __future__ import annotations

import pytest

from poumetrics import ParseError, TokenClass, st_fragment_facts
from poumetrics.errors import UnterminatedComment, UnterminatedString
from poumetrics.st import LineTable, lex


def tokenize_st(text):
    return st_fragment_facts(text).tokens


def kinds(text):
    return [(t.kind, t.text) for t in lex(text)]


def classified(text):
    return [(t.cls, t.identity_key) for t in tokenize_st(text)]


def operators(text):
    return [t.identity_key for t in tokenize_st(text) if t.cls is TokenClass.OPERATOR]


def operands(text):
    return [t.identity_key for t in tokenize_st(text) if t.cls is TokenClass.OPERAND]


# ------------------------- raw lexer -------------------------


def test_block_comments_nest():
    assert kinds("a (* outer (* inner *) still out *) b") == [("ident", "a"), ("ident", "b")]


def test_unterminated_block_comment_raises():
    with pytest.raises(UnterminatedComment):
        lex("x := (* oops")


def test_line_comment_runs_to_newline():
    assert kinds("a // rest ignored\nb") == [("ident", "a"), ("ident", "b")]


def test_line_comment_at_eof():
    assert kinds("a // no newline") == [("ident", "a")]


def test_pragma_is_dropped():
    assert kinds("{attribute qualified} x") == [("ident", "x")]


def test_unterminated_pragma_raises():
    with pytest.raises(ParseError):
        lex("{attribute")


def test_string_literals_single_and_double():
    assert kinds("'abc' \"w\"") == [("string", "'abc'"), ("string", '"w"')]


def test_string_dollar_escape_covers_quote():
    assert kinds("'it$'s'") == [("string", "'it$'s'")]


def test_unterminated_string_raises():
    with pytest.raises(UnterminatedString):
        lex("x := 'open")


def test_string_may_not_span_lines():
    with pytest.raises(UnterminatedString):
        lex("'line\nbreak'")


def test_numeric_literal_shapes():
    text = "12 1_000 3.14 2.5e3 1e6 16#FF 2#1010_0001 8#17"
    assert [k for k, _ in kinds(text)] == ["number"] * 8


def test_typed_literals_are_single_tokens():
    text = "INT#5 T#5s TIME#1h30m WORD#16#7FF TOD#12:00:00"
    toks = kinds(text)
    assert [k for k, _ in toks] == ["number"] * 5
    assert toks[0][1] == "INT#5"
    assert toks[3][1] == "WORD#16#7FF"


def test_direct_addresses():
    text = "%IX0.0 %QW4 %MD8 %I3"
    assert [k for k, _ in kinds(text)] == ["address"] * 4


def test_multi_char_operators_lex_whole():
    text = "a := b; c => d; e <> f; g <= h; i >= j; k ** m; 1..2"
    ops = [t for k, t in kinds(text) if k == "op"]
    for needle in (":=", "=>", "<>", "<=", ">=", "**", ".."):
        assert needle in ops


def test_unexpected_character_raises_with_position():
    with pytest.raises(ParseError) as err:
        lex("x ?\n", path="bad.st")
    assert "bad.st" in str(err.value)


def test_line_and_column_tracking():
    # position of `b` after a newline, a multi-line nested comment, two
    # nested comments around a token, a multi-line pragma, a string with
    # a $-escaped newline, and tabs
    cases = [
        ("a\n  b", 2, 3),
        ("a (* one\n (* two\n *) *) b", 3, 8),
        ("a (* (* *) *)\n c (* (* *)\n *) b", 3, 5),
        ("a {pragma\nline} b", 2, 7),
        ("a 'x$\ny' b", 2, 4),
        ("a\t\tb", 1, 4),
    ]
    for text, line, col in cases:
        toks = lex(text)
        lines = LineTable(text)
        assert lines.position(toks[0].offset) == (1, 1)
        assert (toks[-1].text, *lines.position(toks[-1].offset)) == ("b", line, col)


@pytest.mark.parametrize(
    "text, error, line, col",
    [
        ("x\n  (* (* *) open", UnterminatedComment, 2, 3),
        ("x :=\n\t'open", UnterminatedString, 2, 2),
        ("x (* c *) {open", ParseError, 1, 11),
        ("x\n y ? z", ParseError, 2, 4),
        ("x (* (*\n *) *) y ?", ParseError, 2, 10),
    ],
    ids=["comment", "string", "pragma", "unexpected-character", "after-nested-comment"],
)
def test_lex_errors_carry_position(text, error, line, col):
    with pytest.raises(error) as err:
        lex(text)
    assert (err.value.line, err.value.column) == (line, col)


# ------------------------- classification -------------------------


def test_assignment_catalog():
    # operators: :=, ; / operands: x, 5
    assert classified("x := 5;") == [
        (TokenClass.OPERAND, "x"),
        (TokenClass.OPERATOR, ":="),
        (TokenClass.OPERAND, "5"),
        (TokenClass.OPERATOR, ";"),
    ]


def test_identifier_identity_casefolds_but_lexeme_survives():
    toks = tokenize_st("Level := LEVEL;")
    assert toks[0].lexeme == "Level"
    assert toks[0].identity_key == toks[2].identity_key == "level"


def test_true_false_are_operands():
    assert operands("ok := TRUE AND FALSE;") == ["ok", "true", "false"]


def test_boolean_amp_folds_to_and():
    assert operators("a := b & c;")[1] == "and"
    assert operators("a := b AND c;")[1] == "and"


def test_not_and_unary_minus():
    assert "not" in operators("x := NOT y;")
    assert operators("x := -y;").count("-") == 1


def test_parenthesis_grouping_counts_once_per_pair():
    ops = operators("x := (a + b) * (c);")
    assert ops.count("()") == 2


def test_index_access_counts_once_per_bracket_pair():
    ops = operators("x := t[1] + u[i][j];")
    assert ops.count("[]") == 3


def test_member_access_counts_per_use():
    ops = operators("p.x := q.y.z;")
    assert ops.count(".") == 3


def test_call_operator_is_callee_identity():
    ops = operators("m := Max(a, b);")
    assert "max()" in ops
    assert "()" not in ops  # argument parens fold into the call
    assert ops.count(",") == 1


def test_formal_call_arguments():
    toks = tokenize_st("Drive(speed := 5, ramp => out);")
    ops = [t.identity_key for t in toks if t.cls is TokenClass.OPERATOR]
    opnds = [t.identity_key for t in toks if t.cls is TokenClass.OPERAND]
    assert "drive()" in ops
    assert ":=" in ops and "=>" in ops
    # formal parameter names count as operands
    assert "speed" in opnds and "ramp" in opnds


def test_compound_statements_count_once():
    text = "IF a THEN x := 1; ELSIF b THEN x := 2; ELSE x := 3; END_IF;"
    ops = operators(text)
    assert ops.count("if") == 1
    assert ops.count("elsif") == 1
    assert ops.count("else") == 1
    # THEN and END_IF fold into the construct
    assert "then" not in ops and "end_if" not in ops


def test_loop_keywords_fold():
    text = "FOR i := 0 TO 9 BY 2 DO s := s + i; END_FOR;"
    ops = operators(text)
    assert ops.count("for") == 1
    for folded in ("to", "by", "do", "end_for"):
        assert folded not in ops


def test_case_labels_fold_colon_and_keep_ranges():
    text = "CASE k OF 1: x := 1; 2, 3: x := 2; 4..6: x := 3; ELSE x := 0; END_CASE;"
    ops = operators(text)
    assert ops.count("case") == 1
    assert ops.count("..") == 1
    assert ops.count(",") == 1
    assert ":" not in ops
    # labels are operands
    assert set("123") < set(operands(text))


def test_exit_return_continue_are_operators():
    text = "WHILE a DO EXIT; END_WHILE; RETURN;"
    ops = operators(text)
    assert "exit" in ops and "return" in ops


def test_time_literal_identity_casefolds():
    toks = tokenize_st("d := T#5S;")
    assert toks[2].identity_key == "t#5s"


def test_comments_produce_no_tokens():
    plain = tokenize_st("x := 1;")
    noisy = tokenize_st("(* c *) x (* c *) := // mid\n 1; (* tail *)")
    assert [t.identity_key for t in plain] == [t.identity_key for t in noisy]
