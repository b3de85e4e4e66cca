"""Parsing whole ST declarations and bodies into the IR."""

from __future__ import annotations

import itertools
import sys

import pytest

from poumetrics import (
    AnalysisError,
    CallSite,
    Language,
    ParseError,
    PouKind,
    StSource,
    TokenClass,
    TypeClass,
    VarSection,
    parse_st_pou,
    st_fragment_facts,
)
from poumetrics.st import split_st_units, walk_pou_unit
from poumetrics.typesys import RawDecl, TypeContext, TypeSpec, named


def parse(text, **kw):
    pou, warnings = parse_st_pou(StSource(path="<test>", text=text), **kw)
    return pou


def decisions(text):
    return [s.kind for s in st_fragment_facts(text).decisions]


# ------------------------- interfaces -------------------------


def test_program_kind_language_and_sections():
    pou = parse(
        """
        PROGRAM Mixer
        VAR_INPUT  a : INT; END_VAR
        VAR_OUTPUT b : INT; END_VAR
        VAR_IN_OUT c : INT; END_VAR
        VAR        d : INT; END_VAR
        VAR_TEMP   e : INT; END_VAR
        VAR_EXTERNAL f : INT; END_VAR
        b := a;
        END_PROGRAM
        """
    )
    assert pou.kind is PouKind.PROGRAM
    assert pou.language is Language.ST
    got = {v.name: v.section for v in pou.variables}
    assert got == {
        "a": VarSection.INPUT,
        "b": VarSection.OUTPUT,
        "c": VarSection.IN_OUT,
        "d": VarSection.LOCAL,
        "e": VarSection.TEMP,
        "f": VarSection.EXTERNAL,
    }


def test_function_return_becomes_output_variable():
    pou = parse(
        """
        FUNCTION Max2 : INT
        VAR_INPUT x : INT; y : INT; END_VAR
        IF x > y THEN Max2 := x; ELSE Max2 := y; END_IF;
        END_FUNCTION
        """
    )
    assert pou.kind is PouKind.FUNCTION
    outs = [v for v in pou.variables if v.section is VarSection.OUTPUT]
    assert [v.name for v in outs] == ["Max2"]


def test_variable_qualifiers_are_tolerated():
    pou = parse(
        """
        PROGRAM P
        VAR RETAIN
          n : INT := 3;
        END_VAR
        n := n + 1;
        END_PROGRAM
        """
    )
    assert [v.name for v in pou.variables] == ["n"]


def test_type_words_and_keywords_in_short_declarations():
    """`name : TYPE;` with a string word is a string type, as it is with a
    length; any other identifier after the colon, a keyword too, is a
    type name, and any identifier but END_VAR a declared name."""
    (unit,) = split_st_units(
        StSource("d.st", "PROGRAM P\nVAR s : STRING; w : wstring; e : END_VAR; IF : OF; AT : INT; END_VAR\nEND_PROGRAM\n")
    )
    walked = walk_pou_unit(unit, "d.st")
    assert walked.error is None
    assert [(d.name, d.spec) for d in walked.decls] == [
        ("s", TypeSpec("string", name="STRING")),
        ("w", TypeSpec("string", name="WSTRING")),
        ("e", named("END_VAR")),
        ("IF", named("OF")),
        ("AT", named("INT")),
    ]


def test_initializers_do_not_leak_into_body_tokens():
    pou = parse(
        """
        PROGRAM P
        VAR n : INT := 40 + 2; END_VAR
        n := 1;
        END_PROGRAM
        """
    )
    lexemes = {t.identity_key for t in pou.body.tokens}
    assert "40" not in lexemes and "2" not in lexemes


def test_array_declaration_yields_element_sub_variables():
    pou = parse(
        """
        PROGRAM P
        VAR buf : ARRAY[1..4] OF INT; END_VAR
        buf[1] := 0;
        END_PROGRAM
        """
    )
    (buf,) = [v for v in pou.variables if v.name == "buf"]
    assert buf.type_class is TypeClass.COMPLEX
    assert len(buf.sub_variables) == 4


@pytest.mark.parametrize(
    "bounds, count",
    [("0..16#FF", 256), ("0..16#f_f", 256), ("2#1_0..8#17", 14), ("-16#0A..2#0", 11), ("8#0..8#7, 2#1..2#11", 24)],
)
def test_based_integer_array_bounds(bounds, count):
    pou = parse("PROGRAM P\nVAR a : ARRAY[%s] OF BYTE; END_VAR\nEND_PROGRAM" % bounds)
    assert len(pou.variables[0].sub_variables) == count


@pytest.mark.parametrize("bound", ["2#12", "8#19", "4#12", "2#0b1", "INT#5", "1e3"])
def test_array_bound_that_is_not_an_integer_literal_is_a_parse_error(bound):
    with pytest.raises(ParseError) as err:
        parse("PROGRAM P\nVAR a : ARRAY[0..%s] OF BYTE; END_VAR\nEND_PROGRAM" % bound)
    assert err.value.message == "array bound %r is not an integer" % bound
    assert (err.value.line, err.value.column) == (2, 18)


# ST drops every `_` of a number, so `9__9` is a decimal literal too.  A
# based bound is held to the same decimal range: 16#FFF... with 4000
# digits is about 4800 decimal digits long.
@pytest.mark.parametrize(
    "bound",
    ["9" * 5000, "9__9" * 2500, "16#" + "F" * 4000, "2#1" + "0" * 14285],
    ids=["decimal", "underscores", "hex", "binary"],
)
def test_array_bound_past_the_int_digit_limit_is_named_too_long(bound):
    with pytest.raises(ParseError) as err:
        parse("PROGRAM P\nVAR a : ARRAY[0..%s] OF BYTE; END_VAR\nEND_PROGRAM" % bound)
    assert err.value.message == "array bound %s... has too many digits" % repr(bound)[:40]


def test_based_array_bound_just_inside_the_int_digit_limit_is_read():
    # 2**14284 has 4300 decimal digits, the most that Python prints.
    pou = parse("PROGRAM P\nVAR a : ARRAY[2#1%s..2#1%s] OF BYTE; END_VAR\nEND_PROGRAM" % ("0" * 14284, "0" * 14284))
    assert len(pou.variables[0].sub_variables) == 1


def expanded_element_count(dims, cap):
    """Reference: the number of array sub-variables the element-by-element
    expansion built.  Each dimension is cut to its first `cap` values, the
    indexes run in row-major order, and at most `cap` of them are kept."""
    if not dims:
        return 0
    cap = None if cap is None else max(cap, 0)
    ranges = [range(lo, hi + 1 if cap is None else min(hi + 1, lo + cap)) for lo, hi in dims]
    return sum(1 for _ in itertools.islice(itertools.product(*ranges), cap))


@pytest.mark.parametrize("cap", [None, 1, 3, 7, -2])
def test_array_sub_variable_count_matches_element_expansion(cap):
    context = TypeContext(array_sub_cap=cap)
    bounds = [(0, 0), (1, 3), (2, 1), (-1, 2), (0, 4)]
    for rank in range(4):
        for dims in itertools.product(bounds, repeat=rank):
            spec = TypeSpec("array", dims=dims, element=named("INT"))
            assert len(context.classify(spec, "a")[1]) == expanded_element_count(dims, cap), dims


def test_array_sub_variable_count_beyond_maxsize_saturates():
    spec = TypeSpec("array", dims=((0, 2**64),), element=named("INT"))
    assert len(TypeContext().classify(spec, "a")[1]) == sys.maxsize


def counted_lookups(monkeypatch) -> list[str]:
    names: list[str] = []
    real = TypeContext.lookup

    def lookup(self, name):
        names.append(name)
        return real(self, name)

    monkeypatch.setattr(TypeContext, "lookup", lookup)
    return names


def test_alias_chain_is_walked_once_for_all_its_declarations(monkeypatch):
    # T0 : ARRAY[1..3] OF INT; T1 : T0; ... and m variables of each of the
    # two ends of the chain.
    m = 500
    context = TypeContext()
    context.define("T0", TypeSpec("array", dims=((1, 3),), element=named("INT")))
    for i in range(1, m):
        context.define("T%d" % i, named("t%d" % (i - 1)))
    decls = [RawDecl("v%d" % i, VarSection.LOCAL, named("T%d" % (i % 2 * (m - 1)))) for i in range(m)]
    lookups = counted_lookups(monkeypatch)
    variables, warnings = context.declare("P", decls)
    assert len(lookups) <= 2 * m
    assert warnings == []
    assert {(v.type_class, len(v.sub_variables)) for v in variables} == {(TypeClass.COMPLEX, 3)}


def test_unknown_type_behind_an_alias_names_each_variable(monkeypatch):
    context = TypeContext()
    context.define("Near", named("Far"))
    context.define("Far", named("Nowhere"))
    decls = [RawDecl(n, VarSection.LOCAL, named(t)) for n, t in (("a", "Near"), ("b", "NEAR"), ("c", "Far"), ("d", "Gone"))]
    lookups = counted_lookups(monkeypatch)
    variables, warnings = context.declare("P", decls)
    assert [w.message for w in warnings] == [
        "type %r of %r is not defined; treated as Complex without sub-variables" % (t, n)
        for n, t in (("a", "Nowhere"), ("b", "Nowhere"), ("c", "Nowhere"), ("d", "Gone"))
    ]
    assert {w.pou for w in warnings} == {"P"}
    assert {v.type_class for v in variables} == {TypeClass.COMPLEX}
    assert lookups == ["Near", "Far", "Nowhere", "Gone"]


def test_alias_resolution_follows_later_definitions_and_function_blocks():
    context = TypeContext()
    context.define("Cyc", named("Loop"))
    context.define("Loop", named("Cyc"))
    context.define("Alias", named("Later"))
    assert context.classify(named("Cyc"), "x")[:2] == (TypeClass.COMPLEX, range(0))
    assert context.classify(named("Alias"), "x")[2][0].code == "unknown-type"
    context.register_fb("Later", (("i", VarSection.INPUT),))
    assert context.classify(named("Alias"), "x") == (TypeClass.COMPLEX, range(1), [])
    context.define("Later", TypeSpec("struct", fields=("a", "b")))
    assert context.classify(named("Alias"), "x") == (TypeClass.COMPLEX, range(2), [])
    assert context.classify(named("INT"), "x") == (TypeClass.SIMPLE, range(0), [])


def test_struct_type_reference_yields_field_sub_variables(tmp_path):
    from poumetrics import load_sample

    src = tmp_path / "pair.st"
    src.write_text(
        """
        TYPE Pair : STRUCT lo : INT; hi : INT; END_STRUCT; END_TYPE
        PROGRAM P
        VAR p : Pair; END_VAR
        p.lo := 1;
        END_PROGRAM
        """
    )
    sample = load_sample([str(src)])
    (pou,) = sample.pous
    (decl,) = [v for v in pou.variables if v.name == "p"]
    assert decl.type_class is TypeClass.COMPLEX
    assert len(decl.sub_variables) == 2


def test_two_pous_in_one_source_is_an_error():
    with pytest.raises(AnalysisError):
        parse("PROGRAM A x := 1; END_PROGRAM PROGRAM B y := 2; END_PROGRAM")


# ------------------------- decisions -------------------------


def test_if_elsif_chain_decision_kinds():
    text = "IF a THEN x := 1; ELSIF b THEN x := 2; ELSIF c THEN x := 3; ELSE x := 0; END_IF;"
    assert decisions(text) == ["if", "elsif", "elsif"]


def test_case_groups_each_decide_else_never():
    text = "CASE k OF 1: x := 1; 2, 3: x := 2; 4..6: x := 3; ELSE x := 0; END_CASE;"
    assert decisions(text) == ["case-label", "case-label", "case-label"]


def test_loops_and_exit_decide():
    text = (
        "FOR i := 0 TO 4 DO "
        "WHILE a DO EXIT; END_WHILE; "
        "END_FOR; "
        "REPEAT x := 1; UNTIL b END_REPEAT;"
    )
    assert decisions(text) == ["for", "while", "exit", "repeat"]


def test_return_is_no_decision():
    assert decisions("IF a THEN RETURN; END_IF;") == ["if"]


def test_nested_case_inside_case_group():
    text = (
        "CASE a OF "
        "1: CASE b OF 0: y := 0; 9: y := 9; END_CASE; "
        "2: y := 2; "
        "END_CASE;"
    )
    assert decisions(text) == ["case-label", "case-label", "case-label", "case-label"]


def test_decision_spans_carry_positions():
    spans = st_fragment_facts("IF a THEN\n  x := 1;\nEND_IF;").decisions
    assert spans[0].ref.line == 1


# ------------------------- calls and data flow -------------------------


def test_positional_call_args_and_return_use():
    pou = parse(
        """
        PROGRAM P
        VAR m, a, b : INT; END_VAR
        m := Max(a, b);
        END_PROGRAM
        """
    )
    assert pou.body.calls == (CallSite("Max", args_passed=2, returns_used=1),)


def test_call_statement_result_unused():
    pou = parse("PROGRAM P Log(1, 2, 3); END_PROGRAM")
    assert pou.body.calls == (CallSite("Log", args_passed=3, returns_used=0),)


def test_formal_args_count_bindings():
    pou = parse("PROGRAM P Drive(speed := 5, limit := 9, done => ok); END_PROGRAM")
    (call,) = pou.body.calls
    assert call.args_passed == 2  # inputs bound with :=
    assert call.returns_used == 1  # outputs taken with =>


def test_nested_calls_count_inner_return():
    pou = parse("PROGRAM P x := Outer(Inner(a), b); END_PROGRAM")
    by_name = {c.callee: c for c in pou.body.calls}
    assert by_name["Inner"].returns_used == 1
    assert by_name["Outer"].args_passed == 2


def test_fb_member_reads_attach_to_first_call(tmp_path):
    pou = parse(
        """
        FUNCTION_BLOCK Timer2
        VAR_INPUT go : BOOL; END_VAR
        VAR_OUTPUT q : BOOL; t : INT; END_VAR
        q := go;
        END_FUNCTION_BLOCK
        """
    )
    assert pou.kind is PouKind.FUNCTION_BLOCK


def test_function_return_assignment_is_not_external_write():
    pou = parse(
        """
        FUNCTION F : INT
        VAR_INPUT x : INT; END_VAR
        F := x;
        END_FUNCTION
        """
    )
    assert pou.body.external_writes == frozenset()


def test_direct_address_reads_and_writes():
    pou = parse(
        """
        PROGRAM P
        VAR y : BOOL; END_VAR
        y := %IX0.0;
        %QW4 := 7;
        %MD8 := %MD8 + 1;
        END_PROGRAM
        """
    )
    assert pou.body.external_reads == frozenset({"%ix0.0", "%md8"})
    assert pou.body.external_writes == frozenset({"%qw4", "%md8"})


def test_named_globals_need_declared_candidates():
    text = """
    PROGRAM P
    VAR_EXTERNAL gTotal : INT; END_VAR
    VAR local : INT; END_VAR
    gTotal := local;
    local := gTotal;
    END_PROGRAM
    """
    pou = parse(text)
    assert pou.body.external_reads == frozenset({"gtotal"})
    assert pou.body.external_writes == frozenset({"gtotal"})


def test_global_names_parameter_matches_casefolded():
    pou = parse(
        """
        PROGRAM P
        VAR x : INT; END_VAR
        x := GCOUNT;
        END_PROGRAM
        """,
        global_names=frozenset({"gcount"}),
    )
    assert pou.body.external_reads == frozenset({"gcount"})


class _LookupOnly:
    """Global names that can be looked up but not iterated.  Not a
    frozenset subclass: `set()` copies one of those without `__iter__`."""

    def __init__(self, names):
        self.names = frozenset(names)

    def __contains__(self, name):
        return name in self.names

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        raise AssertionError("the sample's global names were copied")


def test_global_names_are_looked_up_not_copied():
    """A POU's cost must not grow with the sample's number of globals."""
    pou = parse(
        """
        PROGRAM P
        VAR_EXTERNAL gOwn : INT; END_VAR
        VAR x : INT; END_VAR
        x := gCount + gOwn + other;
        gCount := x;
        END_PROGRAM
        """,
        global_names=_LookupOnly({"gcount", "gunused"}),
    )
    assert pou.body.external_reads == frozenset({"gcount", "gown"})
    assert pou.body.external_writes == frozenset({"gcount"})


# A prefix operator right after a binary operator is an operator, never
# the start of a plain operand; TRUE is an operand but no read, and a
# direct address is a read under its casefolded text.  A statement that
# starts with a prefix operator, a literal or `(`, as an SFC transition
# condition may, is one expression.
OPD, OPR = TokenClass.OPERAND, TokenClass.OPERATOR
PREFIX_AFTER_BINARY = {
    "x := a AND NOT b;": (
        [("x", OPD, "x"), (":=", OPR, ":="), ("a", OPD, "a"), ("AND", OPR, "and"), ("NOT", OPR, "not"),
         ("b", OPD, "b"), (";", OPR, ";")],
        {"a", "b"},
        {"x"},
    ),
    "x := a * -b;": (
        [("x", OPD, "x"), (":=", OPR, ":="), ("a", OPD, "a"), ("*", OPR, "*"), ("-", OPR, "-"), ("b", OPD, "b"),
         (";", OPR, ";")],
        {"a", "b"},
        {"x"},
    ),
    "y := NOT NOT y;": (
        [("y", OPD, "y"), (":=", OPR, ":="), ("NOT", OPR, "not"), ("NOT", OPR, "not"), ("y", OPD, "y"),
         (";", OPR, ";")],
        {"y"},
        {"y"},
    ),
    "x := - - x;": (
        [("x", OPD, "x"), (":=", OPR, ":="), ("-", OPR, "-"), ("-", OPR, "-"), ("x", OPD, "x"), (";", OPR, ";")],
        {"x"},
        {"x"},
    ),
    "y := fb.Q AND NOT fb.Q;": (
        [("y", OPD, "y"), (":=", OPR, ":="), ("fb", OPD, "fb"), (".", OPR, "."), ("Q", OPD, "q"),
         ("AND", OPR, "and"), ("NOT", OPR, "not"), ("fb", OPD, "fb"), (".", OPR, "."), ("Q", OPD, "q"),
         (";", OPR, ";")],
        {"fb"},
        {"y"},
    ),
    "x := arr[i] * -arr[1];": (
        [("x", OPD, "x"), (":=", OPR, ":="), ("arr", OPD, "arr"), ("[", OPR, "[]"), ("i", OPD, "i"),
         ("*", OPR, "*"), ("-", OPR, "-"), ("arr", OPD, "arr"), ("[", OPR, "[]"), ("1", OPD, "1"),
         (";", OPR, ";")],
        {"arr", "i"},
        {"x"},
    ),
    "y := a OR TRUE;": (
        [("y", OPD, "y"), (":=", OPR, ":="), ("a", OPD, "a"), ("OR", OPR, "or"), ("TRUE", OPD, "true"),
         (";", OPR, ";")],
        {"a"},
        {"y"},
    ),
    "x := a + %IW2;": (
        [("x", OPD, "x"), (":=", OPR, ":="), ("a", OPD, "a"), ("+", OPR, "+"), ("%IW2", OPD, "%iw2"),
         (";", OPR, ";")],
        {"a", "%iw2"},
        {"x"},
    ),
    "NOT done": ([("NOT", OPR, "not"), ("done", OPD, "done")], {"done"}, set()),
    "0 < x": ([("0", OPD, "0"), ("<", OPR, "<"), ("x", OPD, "x")], {"x"}, set()),
    "(a OR b)": ([("(", OPR, "()"), ("a", OPD, "a"), ("OR", OPR, "or"), ("b", OPD, "b")], {"a", "b"}, set()),
    "-x > 1": ([("-", OPR, "-"), ("x", OPD, "x"), (">", OPR, ">"), ("1", OPD, "1")], {"x"}, set()),
}


@pytest.mark.parametrize("text", sorted(PREFIX_AFTER_BINARY))
def test_prefix_operator_after_a_binary_operator(text):
    tokens, reads, writes = PREFIX_AFTER_BINARY[text]
    for value_context in (False, True):
        facts = st_fragment_facts(text, value_context=value_context)
        assert [(t.lexeme, t.cls, t.identity_key) for t in facts.tokens] == tokens
        assert (facts.reads, facts.writes) == (reads, writes)


# ------------------------- errors -------------------------


def test_missing_end_if_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("PROGRAM P IF a THEN x := 1; END_PROGRAM")


def test_unbalanced_parenthesis_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("PROGRAM P x := (1 + 2; END_PROGRAM")


def test_error_carries_path_and_line():
    with pytest.raises(ParseError) as err:
        parse("PROGRAM P\nx := ;\nEND_PROGRAM")
    msg = str(err.value)
    assert "<test>" in msg and ":2:" in msg


# Exact messages, so a parser rewrite cannot change them unnoticed.
ERROR_TEXTS = {
    "end-for-in-if": ("IF a THEN\n  END_FOR\nEND_IF;", "<test>:3:3: unexpected END_FOR"),
    "second-else": ("IF a THEN x := 1; ELSE x := 2; ELSE x := 3; END_IF;", "<test>:2:32: unexpected ELSE"),
    "missing-then": ("IF a x := 1; END_IF;", "<test>:2:6: expected THEN, found 'x'"),
    "until-as-case-label": ("CASE a OF\n1: x := 1;\nUNTIL: x := 2;\nEND_CASE;", "<test>:4:1: unexpected UNTIL"),
    "unterminated-case": ("CASE a OF\n1: x := 1;", "<test>:4:1: unterminated CASE"),
    "empty-assignment": ("x := ;", "<test>:2:6: unexpected ';' in expression"),
    "missing-semicolon": ("x := 1 y := 2;", "<test>:2:8: expected ';'"),
    "unclosed-subscript": ("x := a[1;", "<test>:2:9: expected ']', found ';'"),
    "for-without-assign": ("FOR i = 1 TO 3 DO x := i; END_FOR;", "<test>:2:7: expected ':=', found '='"),
    "array-without-of": ("VAR a : ARRAY[1..2] INT; END_VAR", "<test>:2:21: expected OF"),
    "reversed-array-bounds": (
        "VAR a : ARRAY[1..2, 5..1] OF INT; END_VAR",
        "<test>:2:21: array lower bound 5 exceeds upper bound 1",
    ),
    "at-without-address": ("VAR a AT : BOOL; END_VAR", "<test>:2:10: expected a direct address after AT"),
    # Close to `name : TYPE;`, but not of that form.
    "end-var-as-name": ("VAR END_VAR : INT; END_VAR", "<test>:2:13: unexpected ':' in expression"),
    "number-as-name": ("VAR 5 : INT; END_VAR", "<test>:2:5: expected identifier, found '5'"),
    "number-as-type": ("VAR x : 5; END_VAR", "<test>:2:9: expected a type, found '5'"),
    "type-without-semicolon": ("VAR x : INT END_VAR", "<test>:2:13: expected ';', found 'END_VAR'"),
    "member-after-type": ("VAR x : INT. END_VAR", "<test>:2:12: expected ';', found '.'"),
    "array-word-alone": ("VAR x : ARRAY; END_VAR", "<test>:2:14: expected '[', found ';'"),
    "struct-word-alone": ("VAR x : STRUCT; END_VAR", "<test>:2:15: expected identifier, found ';'"),
    "second-semicolon": ("VAR x : INT;; END_VAR", "<test>:2:13: expected identifier, found ';'"),
    "unterminated-var": ("VAR a : INT;", "<test>:3:1: unterminated VAR section"),
    "unterminated-struct": ("VAR s : STRUCT a : INT;", "<test>:3:1: unterminated STRUCT"),
    "unterminated-initializer": ("VAR x : INT := (1;", "<test>:3:1: unterminated initializer"),
    "unterminated-string-length": ("VAR s : WSTRING[10; END_VAR", "<test>:3:1: unterminated string length"),
    "unterminated-enumeration": ("VAR e : (A, B; END_VAR", "<test>:3:1: unterminated enumeration"),
    "unterminated-subrange": ("VAR r : INT (0..10; END_VAR", "<test>:3:1: unterminated subrange"),
    "end-of-input-in-if": ("IF a THEN x := 1;", "<test>:3:1: expected END_IF, found 'end of input'"),
    "end-of-input-in-expression": ("x := (1 +", "<test>:3:1: unexpected 'end of input' in expression"),
    "leftover-end-if": ("x := 1;\nEND_IF", "<test>:3:1: unexpected END_IF"),
    "statement-starting-with-close-paren": (")", "<test>:2:1: unexpected ')' in expression"),
    "statement-starting-with-not-then-assign": ("NOT x := 1;", "<test>:2:7: expected ';'"),
    "end-of-input-after-output-binding": ("F(a =>", "<test>:3:1: expected ')', found 'end of input'"),
    "end-of-input-after-nested-output-binding": ("x := F(a =>", "<test>:3:1: expected ')', found 'end of input'"),
    # An output binding writes its target, which must be a variable.
    "literal-as-output-target": ("F(a => 5);", "<test>:2:8: expected a variable after '=>', found '5'"),
    "close-paren-as-output-target": ("F(a => ));", "<test>:2:8: expected a variable after '=>', found ')'"),
    "true-as-output-target": ("F(a => TRUE);", "<test>:2:8: expected a variable after '=>', found 'TRUE'"),
    "not-as-output-target": ("x := F(a => NOT b);", "<test>:2:13: expected a variable after '=>', found 'NOT'"),
    # The targets of `WRITE_TARGETS` that a form rejects.
    "true-as-assignment-target": ("TRUE := 1;", "<test>:2:6: expected ';'"),
    "false-as-assignment-target": ("FALSE := 1;", "<test>:2:7: expected ';'"),
    "bare-not-as-assignment-target": ("NOT := 1;", "<test>:2:5: unexpected ':=' in expression"),
    "call-as-assignment-target": ("G(x) := 1;", "<test>:2:6: cannot assign to a call result"),
    "literal-as-assignment-target": ("5 := 1;", "<test>:2:3: expected ';'"),
    "false-as-output-target": ("F(a => FALSE);", "<test>:2:8: expected a variable after '=>', found 'FALSE'"),
    "bare-not-as-output-target": ("F(a => NOT);", "<test>:2:8: expected a variable after '=>', found 'NOT'"),
    "call-as-output-target": ("F(a => G(x));", "<test>:2:12: cannot assign to a call result"),
    "member-as-loop-target": ("FOR a.b := 1 TO 2 DO END_FOR;", "<test>:2:6: expected ':=', found '.'"),
    "subscript-as-loop-target": ("FOR a[i] := 1 TO 2 DO END_FOR;", "<test>:2:6: expected ':=', found '['"),
    "address-as-loop-target": ("FOR %QX0.1 := 1 TO 2 DO END_FOR;", "<test>:2:5: expected loop variable"),
    "true-as-loop-target": ("FOR TRUE := 1 TO 2 DO END_FOR;", "<test>:2:5: expected loop variable"),
    "false-as-loop-target": ("FOR FALSE := 1 TO 2 DO END_FOR;", "<test>:2:5: expected loop variable"),
    "bare-not-as-loop-target": ("FOR NOT := 1 TO 2 DO END_FOR;", "<test>:2:5: expected loop variable"),
    "call-as-loop-target": ("FOR G(x) := 1 TO 2 DO END_FOR;", "<test>:2:6: expected ':=', found '('"),
    "literal-as-loop-target": ("FOR 5 := 1 TO 2 DO END_FOR;", "<test>:2:5: expected loop variable"),
}


@pytest.mark.parametrize("case", sorted(ERROR_TEXTS))
def test_parse_error_text(case):
    body, expected = ERROR_TEXTS[case]
    with pytest.raises(ParseError) as err:
        parse("PROGRAM P\n%s\nEND_PROGRAM" % body)
    assert str(err.value) == expected


# What a statement may write: a target by name -> its text and the root
# that `X := 1;` and `F(a => X);` write, None where they reject it.  A
# FOR variable is a name alone.  A rejected target's error is pinned in
# `ERROR_TEXTS` as "<name>-as-<form>-target".
WRITE_TARGETS = {
    "name": ("Speed", "speed"),
    "member": ("a.b", "a"),
    "subscript": ("a[i]", "a"),
    "address": ("%QX0.1", "%qx0.1"),
    "true": ("TRUE", None),
    "false": ("FALSE", None),
    "bare-not": ("NOT", None),
    "call": ("G(x)", None),
    "literal": ("5", None),
}
WRITE_FORMS = {"assignment": "%s := 1;", "output": "F(a => %s);", "loop": "FOR %s := 1 TO 2 DO END_FOR;"}


@pytest.mark.parametrize("form", sorted(WRITE_FORMS))
@pytest.mark.parametrize("target", sorted(WRITE_TARGETS))
def test_write_target_rule(target, form):
    text, root = WRITE_TARGETS[target]
    if form == "loop" and target != "name":
        root = None
    body = WRITE_FORMS[form] % text
    if root is None:
        assert ERROR_TEXTS["%s-as-%s-target" % (target, form)][0] == body
        with pytest.raises(ParseError):
            st_fragment_facts(body)
    else:
        assert st_fragment_facts(body).writes == {root}


# Fragments cut off where the walker looks one token ahead: each is a
# ParseError, never an IndexError past the end-of-input token.
TRUNCATED = {
    "F(a =>": "<t>: expected ')', found 'end of input'",
    "x := F(a =>": "<t>: expected ')', found 'end of input'",
    "F(a => b": "<t>: expected ')', found 'end of input'",
    "x := a AND": "<t>: unexpected 'end of input' in expression",
    "x := NOT": "<t>: unexpected 'end of input' in expression",
    "x :=": "<t>: unexpected 'end of input' in expression",
    "fb.": "<t>: expected member name after '.'",
    "x := fb.": "<t>: expected member name after '.'",
    "arr[": "<t>: unexpected 'end of input' in expression",
    "fb.m(": "<t>: unexpected 'end of input' in expression",
    "F(a :=": "<t>: unexpected 'end of input' in expression",
}


@pytest.mark.parametrize("text", sorted(TRUNCATED))
def test_truncated_fragment_is_a_parse_error(text):
    with pytest.raises(ParseError) as err:
        st_fragment_facts(text, "<t>")
    assert str(err.value) == TRUNCATED[text]


# A unit whose closing keyword never comes is reported at its opening keyword.
UNCLOSED_UNITS = {
    "program": ("PROGRAM P\nx := 1;\n", "u.st:1:1: missing END_PROGRAM"),
    "globals": (";\n  VAR_GLOBAL g : INT;\n", "u.st:2:3: missing END_VAR"),
    "function-block": ("FUNCTION_BLOCK F\nVAR_INPUT a : INT; END_VAR\n", "u.st:1:1: missing END_FUNCTION_BLOCK"),
    "types": ("TYPE T : INT; END_TYPE\n TYPE U : STRUCT a : INT; END_STRUCT;\n", "u.st:2:2: missing END_TYPE"),
}


@pytest.mark.parametrize("case", sorted(UNCLOSED_UNITS))
def test_unit_without_its_closing_keyword_is_a_parse_error(case):
    text, expected = UNCLOSED_UNITS[case]
    with pytest.raises(ParseError) as err:
        split_st_units(StSource(path="u.st", text=text))
    assert str(err.value) == expected


# ------------------------- nesting -------------------------


def deep_pous(depth):
    """One POU per nesting construct, nested `depth` levels deep."""
    bodies = {
        "if": "IF a THEN " * depth + "a := 0;" + " END_IF;" * depth,
        "case": "CASE a OF 1: " * depth + "a := 0;" + " END_CASE;" * depth,
        "parens": "a := " + "(" * depth + "a" + ")" * depth + ";",
        "calls": "a := " + "1 + F(x := 1 + " * depth + "a" + ")" * depth + ";",
        # A call result is never written: the target of `=>` nests in
        # its subscripts, one level below the argument list.
        "output-calls": "F(y => a" + "[a" * (depth - 1) + "]" * (depth - 1) + ");",
        "subscripts": "a := " + "a[" * depth + "1" + "]" * depth + ";",
    }
    pous = {k: "PROGRAM Deep VAR a : INT; END_VAR %s END_PROGRAM" % b for k, b in bodies.items()}
    pous["array-type"] = "PROGRAM Deep VAR a : %sINT; END_VAR END_PROGRAM" % ("ARRAY[1..2] OF " * depth)
    pous["struct-type"] = "PROGRAM Deep VAR a : %sINT;%s END_VAR END_PROGRAM" % (
        "STRUCT m : " * depth,
        " END_STRUCT;" * depth,
    )
    return pous


@pytest.mark.parametrize("construct", sorted(deep_pous(1)))
def test_nesting_up_to_the_limit_parses(construct):
    assert parse(deep_pous(99)[construct]).name == "Deep"


@pytest.mark.parametrize("construct", sorted(deep_pous(1)))
def test_nesting_past_the_limit_is_a_parse_error(construct):
    with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
        parse(deep_pous(101)[construct])


def test_prefix_operator_chains_are_not_nesting():
    pou = parse("PROGRAM P VAR a : BOOL; END_VAR a := %sa; END_PROGRAM" % ("NOT - " * 1000))
    assert [t.identity_key for t in pou.body.tokens].count("not") == 1000
