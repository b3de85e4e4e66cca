"""Exchange-format (TC6 XML) frontend behavior."""

from __future__ import annotations

import json
import random
import re
from collections import Counter
import xml.etree.ElementTree as ET

import pytest

from poumetrics import (
    AnalysisConfig,
    CallSite,
    Grouping,
    Language,
    PouKind,
    TokenClass,
    TypeClass,
    VarSection,
    XmlMalformed,
    analyze_paths,
    compute_vector,
    emit_json,
    load_sample,
)
from poumetrics import plcopen
from poumetrics.cli import main
from poumetrics.errors import AnalysisWarning
from poumetrics.plcopen import parse_xml

from conftest import CORPUS

HEADERS = (
    '<fileHeader companyName="t" productName="t" productVersion="1"'
    ' creationDateTime="2024-01-01T00:00:00"/>'
    '<contentHeader name="t"><coordinateInfo>'
    '<fbd><scaling x="1" y="1"/></fbd>'
    '<ld><scaling x="1" y="1"/></ld>'
    '<sfc><scaling x="1" y="1"/></sfc>'
    "</coordinateInfo></contentHeader>"
)

EMPTY_IFACE = "<interface><localVars/></interface>"


def doc(pous_xml: str, configurations: str = "<configurations/>") -> str:
    return (
        '<?xml version="1.0" encoding="utf-8"?>'
        '<project xmlns="http://www.plcopen.org/xml/tc6_0201">'
        + HEADERS
        + "<types><dataTypes/><pous>"
        + pous_xml
        + "</pous></types><instances>"
        + configurations
        + "</instances></project>"
    )


def pou_xml(name: str, pou_type: str, body: str, interface: str = EMPTY_IFACE) -> str:
    return '<pou name="%s" pouType="%s">%s<body>%s</body></pou>' % (name, pou_type, interface, body)


def load_doc(tmp_path, text: str, extra_files: dict | None = None):
    (tmp_path / "t.xml").write_text(text)
    for fname, content in (extra_files or {}).items():
        (tmp_path / fname).write_text(content)
    return load_sample([str(tmp_path)])


def one_pou(tmp_path, text: str, **kw):
    sample = load_doc(tmp_path, text, **kw)
    assert len(sample.pous) == 1, [w.code for w in sample.warnings]
    return sample.pous[0], sample.warnings


def tokens_of(pou):
    return [(t.cls, t.identity_key) for t in pou.body.tokens]


def decision_kinds(pou):
    return [d.kind for d in pou.body.decision_spans]


# ------------------------- document level -------------------------


def test_malformed_xml_becomes_warning(tmp_path):
    sample = load_doc(tmp_path, "<project><unclosed></project>")
    assert sample.pous == []
    assert [w.code for w in sample.warnings] == ["xml-malformed"]


def test_parse_xml_raises_on_garbage():
    with pytest.raises(XmlMalformed):
        parse_xml("not xml at all", "x.xml")


def test_whitespace_before_the_xml_declaration_skips_the_file(tmp_path, capsys):
    """XML 1.0 lets nothing precede the declaration, so the file is
    skipped whole with expat's message; stripping the whitespace would
    shift every line number in later errors.  The ST file is ranked."""
    xml = (CORPUS / "fbd_add.xml").read_text()
    (tmp_path / "a.st").write_text("PROGRAM Good\nVAR x : INT; END_VAR\nx := x + 1;\nEND_PROGRAM\n")
    (tmp_path / "b.xml").write_text("\n" + xml)
    (tmp_path / "c.txt").write_text("\n  " + xml)
    assert main(["analyze", *(str(tmp_path / name) for name in ("a.st", "b.xml", "c.txt"))]) == 2
    out, err = capsys.readouterr()
    malformed = [line for line in err.splitlines() if line.startswith("[xml-malformed]")]
    assert len(malformed) == 2
    for name, line in zip(("b.xml", "c.txt"), malformed):
        assert name + ": XML or text declaration not at start of entity" in line
    rows = out.splitlines()[2:]
    assert [row.split()[:3] for row in rows] == [["1", "Good", "ST"]]


TC6_NS = ' xmlns="http://www.plcopen.org/xml/tc6_0201"'

NAMESPACE_VARIANTS = {
    "no-namespace": lambda text: text.replace(TC6_NS, ""),
    "tc6-prefix": lambda text: re.sub(
        r"<(/?)(?=[A-Za-z])", r"<\1tc6:", text.replace(TC6_NS, TC6_NS.replace("xmlns", "xmlns:tc6"))
    ),
    "comments-and-pis": lambda text: re.sub(
        r"(<pou [^>]*>|<body>|<FBD>|<inVariable [^>]*>|</expression>)", r"\1<!-- note --><?vendor data?>", text
    ),
}


@pytest.mark.parametrize("variant", sorted(NAMESPACE_VARIANTS))
def test_namespace_is_irrelevant(tmp_path, variant):
    body = "<FBD><inVariable localId=\"1\"><connectionPointOut/><expression>a</expression></inVariable></FBD>"
    with_ns = doc(pou_xml("P", "program", body))
    other = NAMESPACE_VARIANTS[variant](with_ns)
    assert other != with_ns
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "t.xml").write_text(with_ns)
    (tmp_path / "b" / "t.xml").write_text(other)
    va = compute_vector(load_sample([str(tmp_path / "a")]).pous[0])
    vb = compute_vector(load_sample([str(tmp_path / "b")]).pous[0])
    assert va == vb


def test_missing_interface_warns_but_keeps_pou(tmp_path):
    text = doc('<pou name="P" pouType="program"><body><FBD/></body></pou>')
    pou, warnings = one_pou(tmp_path, text)
    assert pou.name == "P"
    assert "missing-interface" in [w.code for w in warnings]


def test_il_body_skips_pou(tmp_path):
    text = doc(pou_xml("P", "program", "<IL>LD a</IL>"))
    sample = load_doc(tmp_path, text)
    assert sample.pous == []
    assert [w.code for w in sample.warnings] == ["il-body-skipped"]


def test_unknown_body_language_skips_pou(tmp_path):
    text = doc(pou_xml("P", "program", "<InstructionList>LD a</InstructionList>"))
    sample = load_doc(tmp_path, text)
    assert sample.pous == []
    assert [w.code for w in sample.warnings] == ["body-language-unsupported"]


def test_body_with_only_documentation_is_skipped(tmp_path):
    text = doc(pou_xml("P", "program", "<documentation>notes</documentation>"))
    sample = load_doc(tmp_path, text)
    assert sample.pous == []
    assert [w.code for w in sample.warnings] == ["body-missing"]


@pytest.mark.parametrize(
    "body",
    ["", "<body/>", "<body><documentation>notes</documentation></body>"],
    ids=["no-body", "empty-body", "documentation-only"],
)
def test_pou_without_body_content_is_skipped(tmp_path, body):
    """A POU with no body, or a body without content (documentation
    only counts as none), has no language to be ranked in: it is skipped
    with `body-missing`, while a graphical POU of its own file and an ST
    POU beside it are ranked in their own groups."""
    graph = pou_xml("Graph", "program", '<FBD><inVariable localId="1"><expression>a</expression></inVariable></FBD>')
    (tmp_path / "t.xml").write_text(doc('<pou name="Empty" pouType="program">%s%s</pou>' % (EMPTY_IFACE, body) + graph))
    (tmp_path / "a.st").write_text("PROGRAM Real\nVAR x : INT; END_VAR\nx := x + 1;\nEND_PROGRAM\n")
    run = analyze_paths([str(tmp_path)], AnalysisConfig(grouping=Grouping.PER_LANGUAGE))
    pous = json.loads(emit_json(run))["pous"]
    assert sorted((pou["name"], pou["group"]) for pou in pous) == [("Graph", "FBD"), ("Real", "ST")]
    assert [w for w in run.warnings if w.pou == "Empty"] == [
        AnalysisWarning("body-missing", "pou has no body content; pou skipped", str(tmp_path / "t.xml"), "Empty")
    ]


def test_function_return_type_becomes_output(tmp_path):
    iface = (
        "<interface><returnType><INT/></returnType>"
        '<inputVars><variable name="x"><type><INT/></type></variable></inputVars>'
        "</interface>"
    )
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">Twice := x * 2;</xhtml></ST>'
    text = doc(pou_xml("Twice", "function", body, iface))
    pou, _ = one_pou(tmp_path, text)
    assert pou.kind is PouKind.FUNCTION
    outs = [v for v in pou.variables if v.section is VarSection.OUTPUT]
    assert [v.name for v in outs] == ["Twice"]


@pytest.mark.parametrize(
    "pou_type, interface, data_type, declared",
    [
        ("program", '<localVars><variable name="x"><type/></variable></localVars>', "", ("x", "")),
        ("function", "<returnType/>", "", ("F", "")),
        (
            "program",
            '<localVars><variable name="x"><type><derived name="T"/></type></variable></localVars>',
            '<dataType name="T"><baseType/></dataType>',
            ("x", "T"),
        ),
    ],
    ids=["type", "returnType", "baseType"],
)
def test_empty_type_wrapper_names_no_type(tmp_path, pou_type, interface, data_type, declared):
    """An empty <type/>, <returnType/> or <baseType/> reads as a missing
    type, as a variable without <type> does: Complex, without a warning,
    never a type named after the wrapper, which is not defined."""
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">a := 1;</xhtml></ST>'
    text = doc(pou_xml("F", pou_type, body, "<interface>%s</interface>" % interface))
    pou, warnings = one_pou(tmp_path, text.replace("<dataTypes/>", "<dataTypes>%s</dataTypes>" % data_type))
    assert warnings == []
    assert [(v.name, v.type_name, v.type_class) for v in pou.variables] == [(*declared, TypeClass.COMPLEX)]


def deep_type_docs(depth):
    """A project whose array type is nested `depth` levels deep, once in a
    <dataType> and once in a program interface."""
    nested = '<array><dimension lower="1" upper="2"/><baseType>' * depth + "<INT/>" + "</baseType></array>" * depth
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">a := 1;</xhtml></ST>'
    iface = '<interface><localVars><variable name="a"><type>%s</type></variable></localVars></interface>'
    data_type = '<dataTypes><dataType name="DeepT"><baseType>%s</baseType></dataType></dataTypes>' % nested
    return {
        "data-type": doc(pou_xml("Deep", "program", body, iface % "<derived name=\"DeepT\"/>")).replace(
            "<dataTypes/>", data_type
        ),
        "interface": doc(pou_xml("Deep", "program", body, iface % nested)),
    }


@pytest.mark.parametrize("where", ["data-type", "interface"])
def test_type_nesting_up_to_the_limit_loads(tmp_path, where):
    pou, warnings = one_pou(tmp_path, deep_type_docs(99)[where])
    assert warnings == []
    assert [len(v.sub_variables) for v in pou.variables] == [2]


@pytest.mark.parametrize("where", ["data-type", "interface"])
def test_type_nesting_past_the_limit_skips_the_file(tmp_path, where):
    sample = load_doc(tmp_path, deep_type_docs(101)[where])
    assert sample.pous == []
    assert [w.code for w in sample.warnings] == ["pou-parse-error"]
    assert "nesting deeper than 100 levels" in sample.warnings[0].message
    assert sample.context.lookup("DeepT") is None


def bad_bound_doc(where):
    """POUs Bad and Good, and maybe a <dataType> T.  "data-type": T is an
    array with the lower bound `a` and Bad, a program, declares a T.
    "fb-interface" and "interface": that array sits in Bad's interface,
    Bad a function block or a program.  "reversed": an array with the
    bounds 5..1 sits in Bad's interface, Bad a program.
    "data-type+fb-interface": the bad T, and Bad a function block with
    the reversed array.  "good-type+fb-interface": T is a valid INT, and
    Bad as in "fb-interface"."""
    array = '<array><dimension lower="%s" upper="%s"/><baseType><INT/></baseType></array>'
    bad, reversed_ = array % ("a", "2"), array % ("5", "1")
    data_type, pou_type, var_type = {
        "data-type": (bad, "program", '<derived name="T"/>'),
        "fb-interface": (None, "functionBlock", bad),
        "interface": (None, "program", bad),
        "reversed": (None, "program", reversed_),
        "data-type+fb-interface": (bad, "functionBlock", reversed_),
        "good-type+fb-interface": ("<INT/>", "functionBlock", bad),
    }[where]
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    iface = '<interface><localVars><variable name="v"><type>%s</type></variable></localVars></interface>'
    text = doc(pou_xml("Bad", pou_type, body, iface % var_type) + pou_xml("Good", "program", body))
    if data_type is None:
        return text
    data_types = '<dataTypes><dataType name="T"><baseType>%s</baseType></dataType></dataTypes>'
    return text.replace("<dataTypes/>", data_types % data_type)


@pytest.mark.parametrize(
    "where, kept, skipped",
    [
        ("data-type", [], ""),
        ("fb-interface", [], ""),
        ("interface", ["Good"], "Bad"),
        ("reversed", ["Good"], "Bad"),
        # A bad data type is reported before a bad FB interface.
        ("data-type+fb-interface", [], ""),
        # A file skipped whole records none of its data types.
        ("good-type+fb-interface", [], ""),
    ],
)
def test_array_bound_that_is_not_an_integer_is_a_parse_error(tmp_path, where, kept, skipped):
    sample = load_doc(tmp_path, bad_bound_doc(where))
    assert [p.name for p in sample.pous] == kept
    assert [(w.code, w.pou) for w in sample.warnings] == [("pou-parse-error", skipped)]
    if where == "reversed":
        assert sample.warnings[0].message == "array lower bound 5 exceeds upper bound 1"
    else:
        assert sample.warnings[0].message == "array bound 'a' is not an integer"
    assert sample.context.lookup("T") is None


# int() reads Unicode digits (here Arabic-Indic) and single `_`s too;
# a literal with `__` or inner blanks is not an integer, however long.
@pytest.mark.parametrize(
    "upper, problem",
    [
        ("9" * 5000, "has too many digits"),
        (" -" + "\u0669" * 5000, "has too many digits"),
        ("9_9" * 2500, "has too many digits"),
        ("1__2", "is not an integer"),
        ("1 2", "is not an integer"),
        ("9" * 5000 + "x", "is not an integer"),
    ],
    ids=["decimal", "arabic-indic", "underscores", "double-underscore", "blank", "trailing-letter"],
)
def test_array_bound_past_the_int_digit_limit_is_named_too_long(tmp_path, upper, problem):
    array = '<array><dimension lower="0" upper="%s"/><baseType><INT/></baseType></array>' % upper
    iface = '<interface><localVars><variable name="v"><type>%s</type></variable></localVars></interface>'
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    sample = load_doc(tmp_path, doc(pou_xml("Big", "program", body, iface % array) + pou_xml("Good", "program", body)))
    assert [p.name for p in sample.pous] == ["Good"]
    shown = repr(upper) if len(repr(upper)) <= 40 else repr(upper)[:40] + "..."
    assert [(w.code, w.pou, w.message) for w in sample.warnings] == [
        ("pou-parse-error", "Big", "array bound %s %s" % (shown, problem))
    ]


NAMELESS = {
    "missing": '<variable><type><INT/></type></variable>',
    "empty": '<variable name=""><type><INT/></type></variable>',
    "blank": '<variable name=" \t"><type><INT/></type></variable>',
    "struct-member": '<variable name="s"><type><struct><variable name="a"><type><INT/></type></variable>'
    "<variable><type><BOOL/></type></variable></struct></type></variable>",
}


@pytest.mark.parametrize(
    "variable, pou_type, kept, skipped",
    [
        *((NAMELESS[k], "program", ["Good"], "Bad") for k in sorted(NAMELESS)),
        # A named function block whose interface fails skips the file.
        (NAMELESS["empty"], "functionBlock", [], ""),
        (NAMELESS["struct-member"], "functionBlock", [], ""),
    ],
    ids=[*sorted(NAMELESS), "fb-empty", "fb-struct-member"],
)
def test_a_variable_without_a_name_is_a_parse_error(tmp_path, variable, pou_type, kept, skipped):
    """As `x, : INT;` does not parse in ST, an interface variable or a
    struct member without a name skips its POU, not only the variable."""
    iface = "<interface><localVars>%s</localVars></interface>" % variable
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    sample = load_doc(tmp_path, doc(pou_xml("Bad", pou_type, body, iface) + pou_xml("Good", "program", body)))
    assert [p.name for p in sample.pous] == kept
    assert [(w.code, w.pou, w.message) for w in sample.warnings] == [
        ("pou-parse-error", skipped, "variable without a name")
    ]


# An interface variable or struct member named by a keyword -> the name
# its warning gives, stripped.
KEYWORD_NAMED = {
    "local": ('<variable name="IF"><type><INT/></type></variable>', "IF"),
    "padded-lower-case": ('<variable name=" end_var "><type><INT/></type></variable>', "end_var"),
    "struct-member": (
        '<variable name="s"><type><struct><variable name="TRUE"><type><BOOL/></type></variable>'
        "</struct></type></variable>",
        "TRUE",
    ),
}


@pytest.mark.parametrize("pou_type, kept, skipped", [("program", ["Good"], "Bad"), ("functionBlock", [], "")])
@pytest.mark.parametrize("case", sorted(KEYWORD_NAMED))
def test_a_variable_named_by_a_keyword_is_a_parse_error(tmp_path, case, pou_type, kept, skipped):
    """As `VAR IF : INT;` does not parse in ST, an interface variable or a
    struct member named by a keyword skips its POU, and a named function
    block's skips the file."""
    variable, word = KEYWORD_NAMED[case]
    iface = '<interface><localVars>%s<variable name="x"><type><INT/></type></variable></localVars></interface>'
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    sample = load_doc(tmp_path, doc(pou_xml("Bad", pou_type, body, iface % variable) + pou_xml("Good", "program", body)))
    assert [p.name for p in sample.pous] == kept
    assert [(w.code, w.pou, w.message) for w in sample.warnings] == [
        ("pou-parse-error", skipped, "variable name %r is a keyword" % word)
    ]


def test_a_data_type_with_a_keyword_member_skips_the_file(tmp_path):
    struct = (
        '<struct><variable name="a"><type><INT/></type></variable>'
        '<variable name="Or"><type><INT/></type></variable></struct>'
    )
    data_types = '<dataTypes><dataType name="T"><baseType>%s</baseType></dataType></dataTypes>' % struct
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    sample = load_doc(tmp_path, doc(pou_xml("Good", "program", body)).replace("<dataTypes/>", data_types))
    assert sample.pous == []
    assert [(w.code, w.pou, w.message) for w in sample.warnings] == [
        ("pou-parse-error", "", "variable name 'Or' is a keyword")
    ]


def test_a_data_type_with_a_nameless_struct_member_skips_the_file(tmp_path):
    struct = '<struct><variable name="a"><type><INT/></type></variable><variable name=""><type><INT/></type></variable></struct>'
    data_types = '<dataTypes><dataType name="T"><baseType>%s</baseType></dataType></dataTypes>' % struct
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    sample = load_doc(tmp_path, doc(pou_xml("Good", "program", body)).replace("<dataTypes/>", data_types))
    assert sample.pous == []
    assert [(w.code, w.pou, w.message) for w in sample.warnings] == [("pou-parse-error", "", "variable without a name")]
    assert sample.context.lookup("T") is None


def deep_inline_doc(depth, inner="<FBD/>"):
    """POUs Deep and Good.  Deep's FBD body holds action blocks with inline
    FBD bodies, nested `depth` levels deep; the innermost inline body is
    `inner`."""
    opener, closer = '<actionBlock localId="1"><action><inline>', "</inline></action></actionBlock>"
    nested = (opener + "<FBD>") * (depth - 1) + opener + inner + closer + ("</FBD>" + closer) * (depth - 1)
    good = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    return doc(pou_xml("Deep", "program", "<FBD>%s</FBD>" % nested) + pou_xml("Good", "program", good))


def test_inline_nesting_up_to_the_limit_loads(tmp_path):
    sample = load_doc(tmp_path, deep_inline_doc(99))
    assert sorted(p.name for p in sample.pous) == ["Deep", "Good"]
    assert sample.warnings == []


def test_inline_nesting_past_the_limit_skips_only_that_pou(tmp_path):
    sample = load_doc(tmp_path, deep_inline_doc(101))
    assert [p.name for p in sample.pous] == ["Good"]
    assert [(w.code, w.pou) for w in sample.warnings] == [("pou-parse-error", "Deep")]
    assert "nesting deeper than 100 levels" in sample.warnings[0].message
    assert 'actionBlock localId="1": nesting deeper than 100 levels' in sample.warnings[0].message


def test_inline_st_counts_towards_the_nesting_limit(tmp_path):
    calls = "a := " + "1 + F(x := 1 + " * 99 + "a" + ")" * 99 + ";"
    inner = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">%s</xhtml></ST>' % calls
    sample = load_doc(tmp_path, deep_inline_doc(100, inner))
    assert [p.name for p in sample.pous] == ["Good"]
    assert "nesting deeper than 100 levels" in sample.warnings[0].message


def test_st_body_that_does_not_parse_skips_the_file(tmp_path):
    bad = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := ;</xhtml></ST>'
    sample = load_doc(tmp_path, doc(pou_xml("Bad", "program", bad)), {"ok.st": "PROGRAM Alpha x := 1; END_PROGRAM"})
    assert [p.name for p in sample.pous] == ["Alpha"]
    assert [w.code for w in sample.warnings] == ["pou-parse-error"]


def test_st_body_that_does_not_parse_skips_only_that_pou(tmp_path):
    bad = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := ;</xhtml></ST>'
    good = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    text = doc(pou_xml("BadX", "program", bad) + pou_xml("GoodX", "program", good))
    sample = load_doc(tmp_path, text)
    assert [p.name for p in sample.pous] == ["GoodX"]
    assert [(w.code, w.pou) for w in sample.warnings] == [("pou-parse-error", "BadX")]
    assert "t.xml" not in sample.warnings[0].message


def test_embedded_st_body_language_stays_st(tmp_path):
    body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">y := a + b;</xhtml></ST>'
    iface = (
        "<interface>"
        '<inputVars><variable name="a"><type><INT/></type></variable>'
        '<variable name="b"><type><INT/></type></variable></inputVars>'
        '<outputVars><variable name="y"><type><INT/></type></variable></outputVars>'
        "</interface>"
    )
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body, iface)))
    assert pou.language is Language.ST
    vec = compute_vector(pou)
    assert vec.program_length == 6  # y := a + b ; -> 4 operands? no: y,a,b + :=,+,; = 6


# ------------------------- FBD networks -------------------------


def test_block_operator_and_instance_operand(tmp_path):
    body = '<FBD><block localId="1" typeName="TON" instanceName="t1"/></FBD>'
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert tokens_of(pou) == [
        (TokenClass.OPERATOR, "ton()"),
        (TokenClass.OPERAND, "t1"),
    ]


def test_block_without_instance_has_no_operand(tmp_path):
    body = '<FBD><block localId="1" typeName="ADD"/></FBD>'
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert tokens_of(pou) == [(TokenClass.OPERATOR, "add()")]


def test_in_out_variables_count_reads_and_writes(tmp_path):
    body = (
        '<FBD><inVariable localId="1"><connectionPointOut/><expression>%IX0.0</expression></inVariable>'
        '<outVariable localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<expression>%QX0.1</expression></outVariable></FBD>"
    )
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert pou.body.external_reads == frozenset({"%ix0.0"})
    assert pou.body.external_writes == frozenset({"%qx0.1"})


def test_literal_expressions_are_not_access_candidates(tmp_path):
    body = '<FBD><inVariable localId="1"><connectionPointOut/><expression>42</expression></inVariable></FBD>'
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert pou.body.external_reads == frozenset()
    assert [c for c, _ in tokens_of(pou)] == [TokenClass.OPERAND]


def typed_literal_pous(text: str) -> str:
    """An ST, an FBD and an LD POU that each read `text` beside a global T."""
    iface = (
        '<interface><localVars><variable name="out"><type><TIME/></type></variable></localVars>'
        '<externalVars><variable name="T"><type><TIME/></type></variable></externalVars></interface>'
    )
    bodies = {
        "St": '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">out := %s;</xhtml></ST>' % text,
        "Fbd": '<FBD><inVariable localId="1"><connectionPointOut/><expression>%s</expression></inVariable>'
        '<outVariable localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<expression>out</expression></outVariable></FBD>" % text,
        "Ld": '<LD><contact localId="1"><connectionPointOut/><variable>%s</variable></contact>'
        '<coil localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<variable>out</variable></coil></LD>" % text,
    }
    return "".join(pou_xml(name, "program", body, iface) for name, body in bodies.items())


@pytest.mark.parametrize(
    "text, reads", [("T", {"t"}), ("T#5s", set()), ("TIME#1h", set()), ("DINT#5", set()), ("t#1h_2m", set())]
)
def test_a_typed_literal_reads_no_variable_in_any_language(tmp_path, text, reads):
    configurations = (
        '<configurations><configuration name="c"><resource name="r"><globalVars>'
        '<variable name="T"><type><TIME/></type></variable>'
        "</globalVars></resource></configuration></configurations>"
    )
    sample = load_doc(tmp_path, doc(typed_literal_pous(text), configurations))
    assert {p.name: p.body.external_reads for p in sample.pous} == {"St": reads, "Fbd": reads, "Ld": reads}


@pytest.mark.parametrize("text", ["NOT x", "IF", "true", "End_If"])
def test_a_variable_element_named_by_a_keyword_reads_nothing(text):
    """A variable element's root identifier that is an ST keyword names
    nothing; the element is still one operand."""
    body = '<FBD><inVariable localId="1"><connectionPointOut/><expression>%s</expression></inVariable></FBD>' % text
    (walked,) = plcopen.walk_pous(parse_xml(doc(pou_xml("P", "program", body))), "t.xml")
    assert walked.body.reads == set()
    assert [(t.cls, t.lexeme) for t in walked.body.tokens] == [(TokenClass.OPERAND, text)]


def test_wired_en_adds_guard_decision(tmp_path):
    body = (
        '<FBD><inVariable localId="1"><connectionPointOut/><expression>go</expression></inVariable>'
        '<block localId="2" typeName="MOVE"><inputVariables>'
        '<variable formalParameter="EN"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></variable>'
        "</inputVariables></block></FBD>"
    )
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert decision_kinds(pou) == ["en-guard"]
    assert compute_vector(pou).cyclomatic == 2


def test_selector_blocks_decide(tmp_path):
    body = '<FBD><block localId="1" typeName="MUX"/></FBD>'
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert decision_kinds(pou) == ["selector"]


def test_dangling_connection_warns(tmp_path):
    body = (
        '<FBD><outVariable localId="2"><connectionPointIn><connection refLocalId="99"/></connectionPointIn>'
        "<expression>y</expression></outVariable></FBD>"
    )
    _, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert "dangling-connection" in [w.code for w in warnings]


def test_fb_call_args_and_distinct_return_ports(tmp_path, corpus_pous):
    # corpus FbdSelect: scaler1 call gets 1 wired arg; y and z tap two
    # distinct ports of two blocks
    pou = corpus_pous["FbdSelect"]
    assert CallSite("scaler1", args_passed=1, returns_used=1) in pou.body.calls


def test_element_order_permutation_is_irrelevant(tmp_path):
    # same network, elements listed in reverse document order
    forward = (
        '<FBD><inVariable localId="1"><connectionPointOut/><expression>a</expression></inVariable>'
        '<block localId="2" typeName="NEG"><inputVariables>'
        '<variable formalParameter="IN"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></variable>'
        "</inputVariables></block>"
        '<outVariable localId="3"><connectionPointIn><connection refLocalId="2"/></connectionPointIn>'
        "<expression>y</expression></outVariable></FBD>"
    )
    pieces = [
        '<outVariable localId="3"><connectionPointIn><connection refLocalId="2"/></connectionPointIn><expression>y</expression></outVariable>',
        '<block localId="2" typeName="NEG"><inputVariables><variable formalParameter="IN"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></variable></inputVariables></block>',
        '<inVariable localId="1"><connectionPointOut/><expression>a</expression></inVariable>',
    ]
    backward = "<FBD>" + "".join(pieces) + "</FBD>"
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "t.xml").write_text(doc(pou_xml("P", "program", forward)))
    (tmp_path / "b" / "t.xml").write_text(doc(pou_xml("P", "program", backward)))
    pa = load_sample([str(tmp_path / "a")]).pous[0]
    pb = load_sample([str(tmp_path / "b")]).pous[0]
    assert compute_vector(pa) == compute_vector(pb)
    assert [t.identity_key for t in pa.body.tokens] == [t.identity_key for t in pb.body.tokens]


def test_corpus_fbd_permutation_shuffle(corpus_pous, tmp_path):
    # shuffle the real FbdSelect network children and compare vectors
    from pathlib import Path

    source = Path(__file__).parent / "corpus" / "fbd_select.xml"
    tree = ET.parse(str(source))
    ns = "{http://www.plcopen.org/xml/tc6_0201}"
    fbd = tree.getroot().find(".//%sbody/%sFBD" % (ns, ns))
    assert fbd is not None
    children = list(fbd)
    rng = random.Random(5)
    for trial in range(3):
        rng.shuffle(children)
        for c in list(fbd):
            fbd.remove(c)
        fbd.extend(children)
        case_dir = tmp_path / ("case%d" % trial)
        case_dir.mkdir()
        tree.write(str(case_dir / "shuffled.xml"), encoding="unicode")
        # the network calls a Scaler instance, so its defining file must
        # ride along for interface registration
        (case_dir / "scaler.xml").write_text((source.parent / "scaler.xml").read_text())
        shuffled = load_sample([str(case_dir)])
        (pou,) = [p for p in shuffled.pous if p.name == "FbdSelect"]
        base = compute_vector(corpus_pous["FbdSelect"])
        got = compute_vector(pou)
        assert got == base


# ------------------------- LD networks -------------------------


def test_contact_and_coil_kinds(tmp_path):
    body = (
        "<LD>"
        '<leftPowerRail localId="1"><connectionPointOut/></leftPowerRail>'
        '<contact localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<connectionPointOut/><variable>plain</variable></contact>"
        '<contact localId="3" negated="true"><connectionPointIn><connection refLocalId="2"/></connectionPointIn>'
        "<connectionPointOut/><variable>inv</variable></contact>"
        '<contact localId="4" edge="rising"><connectionPointIn><connection refLocalId="3"/></connectionPointIn>'
        "<connectionPointOut/><variable>rise</variable></contact>"
        '<contact localId="5" edge="falling"><connectionPointIn><connection refLocalId="4"/></connectionPointIn>'
        "<connectionPointOut/><variable>fall</variable></contact>"
        '<coil localId="6"><connectionPointIn><connection refLocalId="5"/></connectionPointIn>'
        "<connectionPointOut/><variable>out1</variable></coil>"
        '<coil localId="7" storage="set"><connectionPointIn><connection refLocalId="6"/></connectionPointIn>'
        "<connectionPointOut/><variable>out2</variable></coil>"
        '<coil localId="8" storage="reset"><connectionPointIn><connection refLocalId="7"/></connectionPointIn>'
        "<connectionPointOut/><variable>out3</variable></coil>"
        '<coil localId="9" negated="true"><connectionPointIn><connection refLocalId="8"/></connectionPointIn>'
        "<connectionPointOut/><variable>out4</variable></coil>"
        "</LD>"
    )
    pou, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    ops = [k for c, k in tokens_of(pou) if c is TokenClass.OPERATOR]
    assert ops == [
        "contact-no",
        "contact-nc",
        "contact-p",
        "contact-n",
        "coil",
        "coil-set",
        "coil-reset",
        "coil-negated",
    ]
    assert decision_kinds(pou) == ["contact"] * 4
    assert [w for w in warnings] == []


def test_unbound_contact_and_coil_warn(tmp_path):
    body = (
        "<LD>"
        '<contact localId="1"><connectionPointOut/></contact>'
        '<coil localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></coil>'
        "</LD>"
    )
    _, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert [w.code for w in warnings] == ["unbound-contact", "unbound-contact"]


def test_ld_wired_return_decides(tmp_path):
    body = (
        "<LD>"
        '<contact localId="1"><connectionPointOut/><variable>stop</variable></contact>'
        '<return localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></return>'
        "</LD>"
    )
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert "conditional-return" in decision_kinds(pou)
    assert ("return" in [k for c, k in tokens_of(pou) if c is TokenClass.OPERATOR])


def test_resource_globals_make_coil_write_external(tmp_path):
    configurations = (
        "<configurations><configuration name=\"c\"><resource name=\"r\">"
        '<globalVars><variable name="gAlarm"><type><BOOL/></type></variable></globalVars>'
        "</resource></configuration></configurations>"
    )
    body = (
        "<LD>"
        '<contact localId="1"><connectionPointOut/><variable>go</variable></contact>'
        '<coil localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<variable>gAlarm</variable></coil>"
        "</LD>"
    )
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body), configurations))
    assert pou.body.external_writes == frozenset({"galarm"})


# ------------------------- SFC networks -------------------------


def test_sfc_tokens_and_decisions(corpus_pous, oracle):
    pou = corpus_pous["SfcBranch"]
    assert decision_kinds(pou) == ["transition", "transition"]
    exp = oracle["SfcBranch"]
    vec = compute_vector(pou)
    assert vec.cyclomatic == exp["cyclomatic"]


def test_unreachable_step_warns(tmp_path):
    body = (
        "<SFC>"
        '<step localId="1" name="Init" initialStep="true"><connectionPointOut/></step>'
        '<step localId="9" name="Orphan"><connectionPointIn/></step>'
        "</SFC>"
    )
    _, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    codes = [w.code for w in warnings]
    assert codes.count("unreachable-step") == 1
    message = [w.message for w in warnings if w.code == "unreachable-step"][0]
    assert "orphan" in message.casefold()


# Init -> transition -> jump to the step the placeholder names; Far is
# wired to nothing else.
JUMP_SFC = (
    "<SFC>"
    '<step localId="1" name="Init" initialStep="true"><connectionPointOut/></step>'
    '<transition localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
    "<connectionPointOut/><condition><inline><ST>go</ST></inline></condition></transition>"
    '<jumpStep localId="3" targetName="%s"><connectionPointIn><connection refLocalId="2"/></connectionPointIn></jumpStep>'
    '<step localId="4" name="Far"><connectionPointIn/><connectionPointOut/></step>'
    "</SFC>"
)


def test_jump_step_keeps_target_reachable(tmp_path):
    _, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", JUMP_SFC % "Far")))
    assert [w.code for w in warnings] == []


def test_a_step_whose_name_another_step_repeats_is_checked(tmp_path):
    body = (
        "<SFC>"
        '<step localId="1" name="S0" initialStep="true"><connectionPointOut/></step>'
        '<step localId="5" name="Lost"><connectionPointIn/></step>'
        '<step localId="6" name="lost"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></step>'
        "</SFC>"
    )
    _, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert [(w.code, w.message) for w in warnings] == [
        ("unreachable-step", "step 'Lost' (localId 5) is not reachable from an initial step")
    ]


def test_sfc_condition_that_is_a_keyword_skips_its_pou(tmp_path):
    sample = load_doc(tmp_path, doc(pou_xml("Seq", "program", JUMP_SFC.replace(">go<", ">AND<") % "Far")))
    assert sample.pous == []
    assert [(w.code, w.pou, w.message) for w in sample.warnings] == [
        ("pou-parse-error", "Seq", "transition localId=\"2\": 1:1: unexpected 'AND' in expression")
    ]


def test_sfc_condition_that_starts_with_not_is_ranked(tmp_path, capsys):
    (tmp_path / "t.xml").write_text(doc(pou_xml("Seq", "program", JUMP_SFC.replace(">go<", ">NOT done<") % "Far")))
    assert main(["analyze", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert "pou-parse-error" not in err and out.splitlines()[2].split()[:3] == ["1", "Seq", "SFC"]
    pou, _ = one_pou(tmp_path, (tmp_path / "t.xml").read_text())
    assert [(c, k) for c, k in tokens_of(pou) if k in ("not", "done")] == [
        (TokenClass.OPERATOR, "not"),
        (TokenClass.OPERAND, "done"),
    ]
    assert pou.body.external_reads == frozenset()  # `done` is no global


@pytest.mark.parametrize("target, unreachable", [("Nowhere", ["Far"]), ("FAR", [])], ids=["unknown", "other-case"])
def test_jump_step_target_is_resolved_by_name(tmp_path, target, unreachable):
    _, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", JUMP_SFC % target)))
    assert [w.code for w in warnings] == ["unreachable-step"] * len(unreachable)
    assert [w.message.split("'")[1] for w in warnings] == unreachable


# A body or condition that ends right after an output binding `=>`:
# extra files, the XML POU that holds it, and the POU it skips.
TRUNCATED_BINDING = {
    "st-file": ({"bad.st": "PROGRAM Bad F(a => END_PROGRAM"}, "", "Bad"),
    "xml-st-body": ({}, pou_xml("BadX", "program", "<ST>F(a =&gt;</ST>"), "BadX"),
    "sfc-condition": ({}, pou_xml("BadX", "program", JUMP_SFC.replace(">go<", ">F(a =&gt;<") % "Far"), "BadX"),
}


@pytest.mark.parametrize("case", sorted(TRUNCATED_BINDING))
def test_truncated_output_binding_skips_only_its_pou(tmp_path, case):
    files, bad_xml, bad = TRUNCATED_BINDING[case]
    good = pou_xml("GoodX", "program", "<ST>x := 1;</ST>")
    sample = load_doc(tmp_path, doc(bad_xml + good), files)
    assert [p.name for p in sample.pous] == ["GoodX"]
    assert [(w.code, w.pou) for w in sample.warnings] == [("pou-parse-error", bad)]
    assert "expected ')', found 'end of input'" in sample.warnings[0].message


def test_named_transition_reference_merges_once(tmp_path):
    transitions = (
        "<transitions><transition name=\"tShared\"><body>"
        '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">count &gt; 3</xhtml></ST>'
        "</body></transition></transitions>"
    )
    body = (
        "<SFC>"
        '<step localId="1" name="A" initialStep="true"><connectionPointOut/></step>'
        '<transition localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        '<connectionPointOut/><condition><reference name="tShared"/></condition></transition>'
        '<step localId="3" name="B"><connectionPointIn><connection refLocalId="2"/></connectionPointIn><connectionPointOut/></step>'
        '<transition localId="4"><connectionPointIn><connection refLocalId="3"/></connectionPointIn>'
        '<connectionPointOut/><condition><reference name="tShared"/></condition></transition>'
        '<step localId="5" name="C"><connectionPointIn><connection refLocalId="4"/></connectionPointIn></step>'
        "</SFC>"
    )
    text = doc(
        '<pou name="P" pouType="program">%s<body>%s</body>%s</pou>' % (EMPTY_IFACE, body, transitions)
    )
    pou, warnings = one_pou(tmp_path, text)
    assert warnings == []
    operands = [k for c, k in tokens_of(pou) if c is TokenClass.OPERAND]
    # condition facts appear once, not once per referencing transition
    assert operands.count("count") == 1
    assert operands.count("3") == 1


def test_each_named_body_merges_once_and_is_indexed_once_per_pou(tmp_path, monkeypatch):
    """2,000 named actions and 2,000 named transitions, each referenced
    twice (once in another case): each body merges at its first reference,
    and the POU's <actions> and <transitions> are read once."""
    n = 2000
    fragment = '<body><ST><xhtml xmlns="http://www.w3.org/1999/xhtml">%s</xhtml></ST></body>'
    actions = "".join('<action name="A%d">%s</action>' % (i, fragment % ("a%d := TRUE;" % i)) for i in range(n))
    transitions = "".join('<transition name="T%d">%s</transition>' % (i, fragment % ("c%d" % i)) for i in range(n))
    elements = []
    for i in range(n):
        for lid, ref in ((4 * i + 1, "T%d" % i), (4 * i + 2, "t%d" % i)):
            elements.append('<transition localId="%d"><condition><reference name="%s"/></condition></transition>' % (lid, ref))
        elements.append(
            '<actionBlock localId="%d"><action><reference name="A%d"/></action><action qualifier="P">'
            '<reference name="a%d"/></action></actionBlock>' % (4 * i + 3, i, i)
        )
    text = doc(
        '<pou name="P" pouType="program">%s<body><SFC>%s</SFC></body><actions>%s</actions><transitions>%s</transitions></pou>'
        % (EMPTY_IFACE, "".join(elements), actions, transitions)
    )
    reads = []
    real = plcopen._named_bodies

    def counting(pou_el):
        reads.append(pou_el.get("name"))
        return real(pou_el)

    monkeypatch.setattr(plcopen, "_named_bodies", counting)
    pou, warnings = one_pou(tmp_path, text)
    assert warnings == []
    assert reads == ["P"]
    operands = Counter(k for c, k in tokens_of(pou) if c is TokenClass.OPERAND)
    assert operands == {"true": n, **{"a%d" % i: 1 for i in range(n)}, **{"c%d" % i: 1 for i in range(n)}}
    assert decision_kinds(pou) == ["transition"] * 2 * n


INLINE_FBD = (
    '<inline><FBD><inVariable localId="10"><expression>a</expression></inVariable>'
    '<outVariable localId="11"><connectionPointIn><connection refLocalId="%s"/></connectionPointIn>'
    "<expression>b</expression></outVariable></FBD></inline>"
)


@pytest.mark.parametrize("holder", ["action", "transition"])
@pytest.mark.parametrize("ref, dangling", [("10", []), ("99", ["'99'"])], ids=["wired", "dangling"])
def test_inline_network_connections_are_checked_in_their_own_network_only(tmp_path, holder, ref, dangling):
    inline = INLINE_FBD % ref
    action, condition = (inline, "<inline><ST>go</ST></inline>") if holder == "action" else ("", inline)
    body = (
        "<SFC>"
        '<step localId="1" name="Init" initialStep="true"><connectionPointOut/></step>'
        '<actionBlock localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<action>%s</action></actionBlock>"
        '<transition localId="3"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<connectionPointOut/><condition>%s</condition></transition>"
        "</SFC>"
    ) % (action, condition)
    _, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert [w.message.split()[-1] for w in warnings if w.code == "dangling-connection"] == dangling
    assert [w.code for w in warnings if w.code != "dangling-connection"] == []


def test_sfc_without_an_initial_step_is_not_checked_for_reachability(tmp_path):
    body = (
        "<SFC>"
        '<step localId="1" name="A"><connectionPointOut/></step>'
        '<transition localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<connectionPointOut/><condition><inline><ST>go</ST></inline></condition></transition>"
        '<step localId="9" name="Orphan"><connectionPointIn/></step>'
        "</SFC>"
    )
    _, warnings = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    assert warnings == []


def test_action_qualifiers_become_operators(tmp_path):
    body = (
        "<SFC>"
        '<step localId="1" name="Init" initialStep="true"><connectionPointOut/></step>'
        '<actionBlock localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        '<action qualifier="S"><inline><ST><xhtml xmlns="http://www.w3.org/1999/xhtml">run := TRUE;</xhtml></ST></inline></action>'
        "<action><inline><ST><xhtml xmlns=\"http://www.w3.org/1999/xhtml\">n := n + 1;</xhtml></ST></inline></action>"
        "</actionBlock>"
        "</SFC>"
    )
    pou, _ = one_pou(tmp_path, doc(pou_xml("P", "program", body)))
    ops = [k for c, k in tokens_of(pou) if c is TokenClass.OPERATOR]
    assert ops.count("action-s") == 1
    assert ops.count("action-n") == 1  # default qualifier


FRAGMENT = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">%s</xhtml></ST>'


@pytest.mark.parametrize(
    "condition, action, named, message",
    [
        ("<inline>%s</inline>" % (FRAGMENT % "a AND )"), "<inline>%s</inline>" % (FRAGMENT % "x := 1;"), "",
         'transition localId="2": 1:7: unexpected \')\' in expression'),
        ('<reference name="Go"/>', "<inline>%s</inline>" % (FRAGMENT % "x := 1;\n  END_IF"), "",
         'actionBlock localId="4": 2:3: unexpected END_IF'),
        ('<reference name="Go"/>', '<reference name="Run"/>', FRAGMENT % "y := 'open",
         'action name="Run": 1:6: string literal is never closed'),
    ],
    ids=["inline-transition", "inline-action", "named-action"],
)
def test_st_fragment_error_names_the_element_that_holds_it(tmp_path, condition, action, named, message):
    # ElementTree keeps no offsets, so line and column count from the
    # fragment and the element that holds or names it is reported.
    body = (
        "<SFC>"
        '<step localId="1" name="A" initialStep="true"><connectionPointOut/></step>'
        '<transition localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<connectionPointOut/><condition>%s</condition></transition>"
        '<step localId="3" name="B"><connectionPointIn><connection refLocalId="2"/></connectionPointIn></step>'
        '<actionBlock localId="4"><connectionPointIn><connection refLocalId="3"/></connectionPointIn>'
        "<action>%s</action></actionBlock>"
        "</SFC>"
    ) % (condition, action)
    named_bodies = (
        '<transitions><transition name="Go"><body>%s</body></transition></transitions>'
        '<actions><action name="Run"><body>%s</body></action></actions>'
    ) % (FRAGMENT % "TRUE", named)
    text = doc('<pou name="P" pouType="program">%s<body>%s</body>%s</pou>' % (EMPTY_IFACE, body, named_bodies))
    sample = load_doc(tmp_path, text)
    assert sample.pous == []
    assert [(w.code, w.pou, w.message) for w in sample.warnings] == [("pou-parse-error", "P", message)]


def test_fb_output_reads_in_one_fragment_join_a_call_in_another(tmp_path):
    st = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">%s</xhtml></ST>'
    iface = (
        '<interface><localVars><variable name="t"><type><derived name="TON"/></type></variable>'
        '<variable name="x"><type><BOOL/></type></variable>'
        '<variable name="y"><type><BOOL/></type></variable></localVars></interface>'
    )
    body = (
        "<SFC>"
        '<step localId="1" name="Init" initialStep="true"><connectionPointOut/></step>'
        '<actionBlock localId="2"><connectionPointIn><connection refLocalId="1"/></connectionPointIn>'
        "<action><inline>%s</inline></action>"
        '<action><reference name="Check"/></action>'
        "</actionBlock>"
        "</SFC>"
    ) % (st % "t(IN := x, PT := T#1s);")
    actions = '<actions><action name="Check"><body>%s</body></action></actions>' % (
        st % "y := t.Q AND t.ET &gt; T#0s OR t.q;"
    )
    text = doc('<pou name="P" pouType="program">%s<body>%s</body>%s</pou>' % (iface, body, actions))
    pou, warnings = one_pou(tmp_path, text)
    assert warnings == []
    # the distinct outputs Q and ET, read in the named action, are used
    # returns of the call in the inline action
    assert pou.body.calls == (CallSite("t", 2, 2),)


def test_duplicate_pou_names_across_files_error(tmp_path):
    a = doc(pou_xml("Same", "program", "<FBD/>"))
    st_twin = "PROGRAM same x := 1; END_PROGRAM"
    (tmp_path / "a.xml").write_text(a)
    (tmp_path / "b.st").write_text(st_twin)
    from poumetrics import AnalysisError

    with pytest.raises(AnalysisError) as err:
        load_sample([str(tmp_path)])
    assert "duplicate POU name" in str(err.value)
