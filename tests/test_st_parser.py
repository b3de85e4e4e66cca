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
    TypeClass,
    VarSection,
    parse_st_pou,
    st_fragment_facts,
)
from poumetrics.st import split_st_units
from poumetrics.typesys import TypeContext, TypeSpec, named


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
    "unterminated-var": ("VAR a : INT;", "<test>:3:1: unterminated VAR section"),
    "unterminated-struct": ("VAR s : STRUCT a : INT;", "<test>:3:1: unterminated STRUCT"),
    "unterminated-initializer": ("VAR x : INT := (1;", "<test>:3:1: unterminated initializer"),
    "end-of-input-in-if": ("IF a THEN x := 1;", "<test>:3:1: expected END_IF, found 'end of input'"),
    "end-of-input-in-expression": ("x := (1 +", "<test>:3:1: unexpected 'end of input' in expression"),
    "leftover-end-if": ("x := 1;\nEND_IF", "<test>:3:1: unexpected END_IF"),
}


@pytest.mark.parametrize("case", sorted(ERROR_TEXTS))
def test_parse_error_text(case):
    body, expected = ERROR_TEXTS[case]
    with pytest.raises(ParseError) as err:
        parse("PROGRAM P\n%s\nEND_PROGRAM" % body)
    assert str(err.value) == expected


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
        "output-calls": "F(" + "y => G(" * depth + ")" * depth + ");",
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
