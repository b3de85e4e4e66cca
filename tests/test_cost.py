"""Cost without a clock: the Python calls of a one-process `load_sample`
grow with the size of the source text, not with the values written in it.

Calls are counted with `sys.setprofile`, which gives the same count in
every run of one input, so the test needs no timer.  It sees Python
functions only: work inside a C function (a sort, `int()`, a regex) is
not counted.  Only ratios of counts are pinned, never a count itself,
so a change that makes a walk cheaper leaves this file as it is.
"""

from __future__ import annotations

import sys

import pytest

from poumetrics import load, load_sample

# Each family is measured at N and at 4 * N items.  A walk that is linear
# in its input gives a ratio of about 4 (3.8-4.0 when this was written);
# GROWTH leaves room for fixed costs that shrink the ratio and catches any
# quadratic step, which would read about 16 at these sizes.
N = 500
GROWTH = 4.4

# A value (an array bound, a CASE range, a string length or a literal's
# digits) may cost a constant, not a share of its size: VALUE bounds the
# ratio of the count with a huge value to the count with a small one.  A
# step per digit or per array element would read 10 or more.
VALUE = 1.1

XML_HEAD = (
    '<?xml version="1.0" encoding="utf-8"?><project xmlns="http://www.plcopen.org/xml/tc6_0201">'
    "<types><dataTypes/><pous>"
)
XML_TAIL = "</pous></types><instances><configurations/></instances></project>"


def program(decls: str, body: str) -> str:
    return "PROGRAM P\nVAR\n%s\nEND_VAR\n%s\nEND_PROGRAM\n" % (decls, body)


def xml_program(language: str, interface: str, network: str) -> str:
    return (
        XML_HEAD
        + '<pou name="P" pouType="program"><interface><localVars>%s</localVars></interface>'
        "<body><%s>%s</%s></body></pou>" % (interface, language, network, language)
        + XML_TAIL
    )


def bool_var(name: str) -> str:
    return '<variable name="%s"><type><BOOL/></type></variable>' % name


def elsif_chain(n: int) -> str:
    arms = "".join("ELSIF x = %d THEN y := %d;\n" % (i, i) for i in range(1, n))
    return program("x : INT; y : INT;", "IF x = 0 THEN y := 0;\n%sEND_IF;" % arms)


def case_labels(n: int) -> str:
    labels = "".join("%d: y := %d;\n" % (i, i) for i in range(n))
    return program("x : INT; y : INT;", "CASE x OF\n%sEND_CASE;" % labels)


def long_sum(n: int) -> str:
    return program("x : INT; y : INT;", "y := %s;" % " + ".join(["x"] * n))


def not_chain(n: int) -> str:
    """`a0 AND NOT a1 AND NOT a2 ...`: a prefix operator after each binary one."""
    names = ["a%d" % i for i in range(n)]
    return program("".join("%s : BOOL;\n" % v for v in names) + "y : BOOL;", "y := %s;" % " AND NOT ".join(names))


def member_subscript_sum(n: int) -> str:
    """A sum of member and subscript references, `r.a + buf[1] + r.a + ...`."""
    terms = ["r.a" if i % 2 == 0 else "buf[%d]" % (i % 8) for i in range(n)]
    types = "TYPE\nR : STRUCT a : INT; b : INT; END_STRUCT;\nEND_TYPE\n"
    return types + program("r : R; buf : ARRAY[0..7] OF INT; y : INT;", "y := %s;" % " + ".join(terms))


def locals_(n: int) -> str:
    return program("".join("v%d : INT;\n" % i for i in range(n)), "v0 := 1;")


def fbs_per_file(n: int) -> str:
    return "".join(
        "FUNCTION_BLOCK Fb%d\nVAR_INPUT a : INT; END_VAR\nVAR_OUTPUT q : INT; END_VAR\nq := a + %d;\n"
        "END_FUNCTION_BLOCK\n" % (i, i)
        for i in range(n)
    )


def alias_chain(n: int) -> str:
    aliases = "".join("A%d : A%d;\n" % (i, i - 1) for i in range(1, n))
    return "TYPE\nA0 : INT;\n%sEND_TYPE\n" % aliases + program("v : A%d;" % (n - 1), "v := 1;")


def nested_structs(n: int) -> str:
    structs = "".join("S%d : STRUCT a : S%d; b : INT; END_STRUCT;\n" % (i, i - 1) for i in range(1, n))
    types = "TYPE\nS0 : STRUCT a : INT; END_STRUCT;\n%sEND_TYPE\n" % structs
    return types + program("v : S%d;" % (n - 1), "v.b := 1;")


def fbd_block_chain(n: int) -> str:
    """An input, then n ADD blocks each fed by the one before, then an output."""
    parts = ['<inVariable localId="1"><connectionPointOut/><expression>x</expression></inVariable>']
    for i in range(2, n + 2):
        parts.append(
            '<block localId="%d" typeName="ADD"><inputVariables>'
            '<variable formalParameter="IN1"><connectionPointIn><connection refLocalId="%d"/></connectionPointIn></variable>'
            '<variable formalParameter="IN2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></variable>'
            '</inputVariables><inOutVariables/><outputVariables><variable formalParameter="OUT">'
            "<connectionPointOut/></variable></outputVariables></block>" % (i, i - 1)
        )
    parts.append(
        '<outVariable localId="%d"><connectionPointIn><connection refLocalId="%d" formalParameter="OUT"/>'
        "</connectionPointIn><expression>y</expression></outVariable>" % (n + 2, n + 1)
    )
    ints = '<variable name="x"><type><INT/></type></variable><variable name="y"><type><INT/></type></variable>'
    return xml_program("FBD", ints, "".join(parts))


def ld_rungs(n: int) -> str:
    """n rungs of one contact and one coil off one left rail."""
    parts = ['<leftPowerRail localId="1"><connectionPointOut/></leftPowerRail>']
    for i in range(n):
        contact, coil = 2 * i + 2, 2 * i + 3
        parts.append(
            '<contact localId="%d"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
            "<connectionPointOut/><variable>i%d</variable></contact>"
            '<coil localId="%d"><connectionPointIn><connection refLocalId="%d"/></connectionPointIn>'
            "<connectionPointOut/><variable>q%d</variable></coil>" % (contact, i, coil, contact, i)
        )
    return xml_program("LD", "".join(bool_var("i%d" % i) + bool_var("q%d" % i) for i in range(n)), "".join(parts))


def sfc_steps(n: int) -> str:
    """n steps in a row, each after a transition with an inline ST condition."""
    parts = ['<step localId="1" name="S0" initialStep="true"><connectionPointOut/></step>']
    for i in range(1, n):
        transition, step = 2 * i, 2 * i + 1
        parts.append(
            '<transition localId="%d"><connectionPointIn><connection refLocalId="%d"/></connectionPointIn>'
            '<connectionPointOut/><condition><inline name=""><ST>x &gt; %d</ST></inline></condition></transition>'
            '<step localId="%d" name="S%d"><connectionPointIn><connection refLocalId="%d"/></connectionPointIn>'
            "<connectionPointOut/></step>" % (transition, step - 2, i, step, i, transition)
        )
    return xml_program("SFC", '<variable name="x"><type><INT/></type></variable>', "".join(parts))


FAMILIES = {
    "elsif-chain": ("p.st", elsif_chain),
    "case-labels": ("p.st", case_labels),
    "long-sum": ("p.st", long_sum),
    "not-chain": ("p.st", not_chain),
    "member-subscript-sum": ("p.st", member_subscript_sum),
    "locals": ("p.st", locals_),
    "fbs-per-file": ("p.st", fbs_per_file),
    "alias-chain": ("p.st", alias_chain),
    "nested-structs": ("p.st", nested_structs),
    "fbd-block-chain": ("p.xml", fbd_block_chain),
    "ld-rungs": ("p.xml", ld_rungs),
    "sfc-steps": ("p.xml", sfc_steps),
}

HUGE = "1" * 5000

VALUES = {
    "array-bound": (
        program("x : INT; a : ARRAY[1..100] OF INT;", "x := 1;"),
        program("x : INT; a : ARRAY[1..1000000000] OF INT;", "x := 1;"),
    ),
    "case-range": (
        program("x : INT;", "CASE x OF 1..100: x := 1; END_CASE;"),
        program("x : INT;", "CASE x OF 1..1000000000: x := 1; END_CASE;"),
    ),
    "string-length": (
        program("x : INT; s : STRING[10];", "x := 1;"),
        program("x : INT; s : STRING[%s];" % HUGE, "x := 1;"),
    ),
    "literal-digits": (program("x : INT;", "x := 12;"), program("x : INT;", "x := %s;" % HUGE)),
}


@pytest.fixture
def count_calls(tmp_path, monkeypatch):
    """Python calls of one `load_sample` of `text` as file `name`, both
    passes in this process.  The input is loaded once before it is
    counted: the first load fills the token and type caches."""
    monkeypatch.setattr(load, "_usable_cpus", lambda: 1)

    def count(name: str, text: str) -> int:
        path = tmp_path / name
        path.write_text(text)
        first = load_sample([str(path)])
        assert first.pous and not first.warnings
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profile)
        try:
            load_sample([str(path)])
        finally:
            sys.setprofile(None)
        return calls

    return count


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cost_grows_linearly_with_the_source(count_calls, family):
    name, make = FAMILIES[family]
    small, large = count_calls(name, make(N)), count_calls(name, make(4 * N))
    assert large / small <= GROWTH, (small, large)


@pytest.mark.parametrize("value", sorted(VALUES))
def test_cost_does_not_grow_with_the_values_written(count_calls, value):
    small, huge = (count_calls("p.st", text) for text in VALUES[value])
    assert huge / small <= VALUE, (small, huge)
