"""Sample loading: the order of warnings and POUs across files, and how
often each file's declarations are parsed."""

from __future__ import annotations

from pathlib import Path

from golden_ir import CORPUS
from poumetrics import CallSite, load_sample
from poumetrics import plcopen, st

XML_HEAD = (
    '<?xml version="1.0" encoding="utf-8"?>'
    '<project xmlns="http://www.plcopen.org/xml/tc6_0201">'
    '<fileHeader companyName="t" productName="t" productVersion="1" creationDateTime="2024-01-01T00:00:00"/>'
    '<contentHeader name="t"><coordinateInfo><fbd><scaling x="1" y="1"/></fbd>'
    '<ld><scaling x="1" y="1"/></ld><sfc><scaling x="1" y="1"/></sfc></coordinateInfo></contentHeader>'
    "<types><dataTypes/><pous>"
)
XML_TAIL = "</pous></types><instances><configurations/></instances></project>"


def local_var(name: str, type_xml: str) -> str:
    return '<interface><localVars><variable name="%s"><type>%s</type></variable></localVars></interface>' % (
        name,
        type_xml,
    )


GRAPH_BODY = (
    "<FBD>"
    '<inVariable localId="1"><connectionPointOut/><expression>a</expression></inVariable>'
    '<block localId="2" typeName="LaterFb" instanceName="f1"><inputVariables>'
    '<variable formalParameter="IN"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></variable>'
    "</inputVariables></block>"
    '<block localId="3" typeName="ADD"><inputVariables>'
    '<variable formalParameter="IN1"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></variable>'
    "</inputVariables></block>"
    '<outVariable localId="4"><connectionPointIn><connection refLocalId="2" formalParameter="Q"/>'
    "</connectionPointIn><expression>b</expression></outVariable>"
    '<outVariable localId="5"><connectionPointIn><connection refLocalId="99"/></connectionPointIn>'
    "<expression>c</expression></outVariable>"
    "</FBD>"
)

# Files are read in name order.  Pass 1 warns about whole files and
# declarations that do not parse; each POU's own warnings follow, ST
# POUs first.  The FBD block of type LaterFb becomes a call although the
# FB is declared only in a file read after the XML project.
MIXED_SAMPLE = {
    "a_bad.st": (
        "PROGRAM Bad\nVAR x : Nope; END_VAR\nx := ;\nEND_PROGRAM\n"
        "PROGRAM Good\nVAR y : AlsoNope; END_VAR\ny := 1;\nEND_PROGRAM\n"
    ),
    "b_iface.st": "PROGRAM BadIface\nVAR z : ; END_VAR\nEND_PROGRAM\n",
    "c_project.xml": XML_HEAD
    + '<pou name="IlUnknown" pouType="program">%s<body><IL>LD a</IL></body></pou>'
    % local_var("v", '<derived name="Nope"/>')
    + '<pou name="NoIface" pouType="program"><body><IL>LD a</IL></body></pou>'
    + '<pou pouType="program"><body><IL>LD a</IL></body></pou>'
    + '<pou name="Graph" pouType="program"><interface><localVars>'
    '<variable name="f1"><type><derived name="LaterFb"/></type></variable>'
    '<variable name="w"><type><derived name="Missing"/></type></variable>'
    "</localVars></interface><body>%s</body></pou>" % GRAPH_BODY
    + '<pou name="Odd" pouType="program">%s<body><XYZ/></body></pou>' % local_var("u", '<derived name="Nope"/>')
    + '<pou name="BadSt" pouType="program">%s<body><ST>x := ;</ST></body></pou>'
    % local_var("x", '<derived name="Nope"/>')
    + XML_TAIL,
    "d_broken.xml": "<project><pous>",
    "e_later.st": (
        "FUNCTION_BLOCK LaterFb\nVAR_INPUT IN : BOOL; END_VAR\nVAR_OUTPUT Q : BOOL; END_VAR\n"
        "Q := IN;\nEND_FUNCTION_BLOCK\n"
    ),
    "f_garbage.st": "garbage here\n",
}

MIXED_WARNINGS = [
    ("pou-parse-error", "b_iface.st", "", "2:9: expected a type, found ';'"),
    ("xml-malformed", "d_broken.xml", "", "no element found: line 1, column 15"),
    ("pou-parse-error", "f_garbage.st", "", "1:1: unexpected top-level token 'garbage'"),
    ("pou-parse-error", "a_bad.st", "Bad", "3:6: unexpected ';' in expression"),
    (
        "unknown-type",
        "",
        "Good",
        "type 'AlsoNope' of 'y' is not defined; treated as Complex without sub-variables",
    ),
    (
        "unknown-type",
        "",
        "IlUnknown",
        "type 'Nope' of 'v' is not defined; treated as Complex without sub-variables",
    ),
    ("il-body-skipped", "c_project.xml", "IlUnknown", "IL body is not supported; pou skipped"),
    ("missing-interface", "c_project.xml", "NoIface", "pou has no interface element"),
    ("il-body-skipped", "c_project.xml", "NoIface", "IL body is not supported; pou skipped"),
    ("pou-parse-error", "c_project.xml", "", "pou without a name skipped"),
    (
        "unknown-type",
        "",
        "Graph",
        "type 'Missing' of 'w' is not defined; treated as Complex without sub-variables",
    ),
    ("dangling-connection", "c_project.xml", "Graph", "connection references missing element '99'"),
    (
        "unknown-type",
        "",
        "Odd",
        "type 'Nope' of 'u' is not defined; treated as Complex without sub-variables",
    ),
    ("body-language-unsupported", "c_project.xml", "Odd", "body language 'XYZ' is not supported; pou skipped"),
    ("pou-parse-error", "c_project.xml", "BadSt", "1:6: unexpected ';' in expression"),
]


def test_warnings_and_pous_keep_their_order_across_files(tmp_path):
    for name, text in MIXED_SAMPLE.items():
        (tmp_path / name).write_text(text)
    sample = load_sample([str(tmp_path)])
    got = [(w.code, Path(w.path).name, w.pou, w.message) for w in sample.warnings]
    assert got == MIXED_WARNINGS
    assert [p.name for p in sample.pous] == ["Good", "LaterFb", "Graph"]
    assert sample.pous[2].body.calls == (CallSite("f1", 1, 1),)


def test_interface_of_unit_runs_once_per_st_pou_unit(monkeypatch):
    """Each ST POU's declarations and each XML <pou>'s <interface> are
    read once, although function blocks also lend theirs to the sample."""
    calls = []
    real = st.interface_of_unit
    real_xml = plcopen._interface_vars

    def counting(unit, path):
        calls.append(path)
        return real(unit, path)

    xml_calls = []

    def counting_xml(interface, path):
        xml_calls.append(path)
        return real_xml(interface, path)

    monkeypatch.setattr(st, "interface_of_unit", counting)
    monkeypatch.setattr(plcopen, "_interface_vars", counting_xml)
    sample = load_sample([str(CORPUS)])
    st_pous = [p for p in sample.pous if p.source_ref.path.endswith(".st")]
    assert len(st_pous) > 1
    assert len(calls) == len(st_pous)
    xml_pous = sum(len(list(plcopen.parse_xml(p.read_text()).iter("pou"))) for p in CORPUS.glob("*.xml"))
    assert len(xml_calls) == xml_pous == 8


def test_function_block_whose_body_fails_still_lends_its_interface(tmp_path):
    (tmp_path / "a.st").write_text(
        "FUNCTION_BLOCK StBad\nVAR_INPUT i : INT; END_VAR\nx := ;\nEND_FUNCTION_BLOCK\n"
        "PROGRAM StUser\nVAR g : StBad; END_VAR\ng(i := 1);\nEND_PROGRAM\n"
    )
    (tmp_path / "b.xml").write_text(
        XML_HEAD
        + '<pou name="BadBodyFb" pouType="functionBlock"><interface>'
        '<inputVars><variable name="A"><type><INT/></type></variable>'
        '<variable name="B"><type><INT/></type></variable></inputVars>'
        '<outputVars><variable name="Q"><type><INT/></type></variable></outputVars>'
        "</interface><body><ST>x := ;</ST></body></pou>"
        + '<pou name="XmlUser" pouType="program">%s<body><ST>f(A := 1);</ST></body></pou>'
        % local_var("f", '<derived name="BadBodyFb"/>')
        + XML_TAIL
    )
    sample = load_sample([str(tmp_path)])
    assert [p.name for p in sample.pous] == ["StUser", "XmlUser"]
    assert {v.name: len(v.sub_variables) for p in sample.pous for v in p.variables} == {"g": 1, "f": 3}
    assert [(w.code, w.pou) for w in sample.warnings] == [
        ("pou-parse-error", "StBad"),
        ("pou-parse-error", "BadBodyFb"),
    ]
