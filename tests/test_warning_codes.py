"""One minimal input per warning code that `src/` emits, run through the
CLI.  Each row pins the rendered line, the JSON warning's `path` and
`pou`, and the exit code: 2 when the code skips a POU or file, else 0.
A warning names its file and POU where it has them; `metric-dropped`
names neither.  The codes come from the source, so a new code without a
row fails here."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from poumetrics.cli import main
from poumetrics.errors import SKIP_CODES

from test_plcopen import doc, pou_xml

SRC = Path(__file__).resolve().parents[1] / "src" / "poumetrics"

# A POU that gives no warning but metric-dropped, so a run that skips the
# row's POU or file still has one to rank.
GOOD = {"good.st": "PROGRAM Good VAR x : INT; END_VAR x := 1; END_PROGRAM\n"}


def xml_pou(body: str) -> str:
    return doc(pou_xml("P", "program", body))


# code -> (files, the file the warning names, its POU, its message)
ROWS = {
    "pou-parse-error": (
        {**GOOD, "bad.st": "PROGRAM Bad x := ; END_PROGRAM\n"},
        "bad.st",
        "Bad",
        "1:18: unexpected ';' in expression",
    ),
    "il-body-skipped": (
        {**GOOD, "p.xml": xml_pou("<IL>LD a</IL>")},
        "p.xml",
        "P",
        "IL body is not supported; pou skipped",
    ),
    "xml-malformed": (
        {**GOOD, "p.xml": "<project><pous>"},
        "p.xml",
        "",
        "no element found: line 1, column 15",
    ),
    "body-language-unsupported": (
        {**GOOD, "p.xml": xml_pou("<XYZ/>")},
        "p.xml",
        "P",
        "body language 'XYZ' is not supported; pou skipped",
    ),
    "missing-interface": (
        {"p.xml": doc('<pou name="P" pouType="program"><body><ST>x := 1;</ST></body></pou>')},
        "p.xml",
        "P",
        "pou has no interface element",
    ),
    "unknown-type": (
        {"p.st": "PROGRAM P VAR v : Nope; END_VAR v := 1; END_PROGRAM\n"},
        "p.st",
        "P",
        "type 'Nope' of 'v' is not defined; treated as Complex without sub-variables",
    ),
    "unbound-contact": (
        {"p.xml": xml_pou('<LD><contact localId="1"><connectionPointOut/></contact></LD>')},
        "p.xml",
        "P",
        "contact 1 has no variable",
    ),
    "dangling-connection": (
        {
            "p.xml": xml_pou(
                '<FBD><outVariable localId="2"><connectionPointIn><connection refLocalId="99"/>'
                "</connectionPointIn><expression>y</expression></outVariable></FBD>"
            )
        },
        "p.xml",
        "P",
        "connection references missing element '99'",
    ),
    "unreachable-step": (
        {
            "p.xml": xml_pou(
                '<SFC><step localId="1" name="Init" initialStep="true"><connectionPointOut/></step>'
                '<step localId="9" name="Orphan"><connectionPointIn/></step></SFC>'
            )
        },
        "p.xml",
        "P",
        "step 'orphan' is not reachable from an initial step",
    ),
    "metric-dropped": (
        GOOD,
        None,
        "",
        "median of fifo is zero in group 'all'; the metric is dropped for this group and the remaining "
        "weights are rescaled",
    ),
}


def emitted_codes() -> set[str]:
    """Every string literal passed as the code of an AnalysisWarning or of
    a collector's `warn`, in the source of the package."""
    codes = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in ("AnalysisWarning", "warn"):
                continue
            args = node.args[:1] + [k.value for k in node.keywords if k.arg == "code"]
            codes.update(a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return codes


def test_every_emitted_code_has_a_row():
    assert emitted_codes() == set(ROWS)


@pytest.mark.parametrize("code", sorted(ROWS))
def test_warning_code(tmp_path, capsys, code):
    files, named_file, pou, message = ROWS[code]
    src = tmp_path / "src"
    src.mkdir()
    for name, text in files.items():
        (src / name).write_text(text, encoding="utf-8")
    report = tmp_path / "report.json"
    exit_code = main(["analyze", str(src), "--json", str(report)])
    path = "" if named_file is None else str(src / named_file)

    context = ":".join(part for part in (path, pou) if part)
    line = "[%s] %s%s" % (code, context + ": " if context else "", message)
    assert [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("[%s]" % code)] == [line]
    got = [w for w in json.loads(report.read_text(encoding="utf-8"))["warnings"] if w["code"] == code]
    assert got == [{"code": code, "message": message, "path": path, "pou": pou}]
    assert exit_code == (2 if code in SKIP_CODES else 0)
