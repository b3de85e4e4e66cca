"""Sample loading: the order of warnings and POUs across files, how
often each file's declarations are parsed, and which records lend a
function-block interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import pickletools
import select
import signal
import tempfile
import threading
import time
from itertools import chain
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as strat

from golden_ir import CORPUS
from poumetrics import AnalysisError, CallSite, ParseError, compute_vector, load_sample, sample_row
from poumetrics import load, plcopen, st
from poumetrics.cli import main
from poumetrics.ir import Language, VarSection
from poumetrics.typesys import TypeContext

from stgen import generate_program

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
# units that are not POUs; each POU's own warnings follow, ST POUs
# first, declarations that do not parse among them.  The FBD block of type LaterFb becomes a call although the
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
    ("xml-malformed", "d_broken.xml", "", "no element found: line 1, column 15"),
    ("pou-parse-error", "f_garbage.st", "", "1:1: unexpected top-level token 'garbage'"),
    ("pou-parse-error", "a_bad.st", "Bad", "3:6: unexpected ';' in expression"),
    (
        "unknown-type",
        "a_bad.st",
        "Good",
        "type 'AlsoNope' of 'y' is not defined; treated as Complex without sub-variables",
    ),
    ("pou-parse-error", "b_iface.st", "BadIface", "2:9: expected a type, found ';'"),
    (
        "unknown-type",
        "c_project.xml",
        "IlUnknown",
        "type 'Nope' of 'v' is not defined; treated as Complex without sub-variables",
    ),
    ("il-body-skipped", "c_project.xml", "IlUnknown", "IL body is not supported; pou skipped"),
    ("missing-interface", "c_project.xml", "NoIface", "pou has no interface element"),
    ("il-body-skipped", "c_project.xml", "NoIface", "IL body is not supported; pou skipped"),
    ("pou-parse-error", "c_project.xml", "", "pou without a name skipped"),
    (
        "unknown-type",
        "c_project.xml",
        "Graph",
        "type 'Missing' of 'w' is not defined; treated as Complex without sub-variables",
    ),
    ("dangling-connection", "c_project.xml", "Graph", "connection references missing element '99'"),
    (
        "unknown-type",
        "c_project.xml",
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


# A POU whose declarations do not parse, in either frontend: it is
# skipped under its own name, and the name stays among the POU names.
NAMED_FAILURES = {
    "i.st": "PROGRAM Good x := 1; END_PROGRAM\nPROGRAM BadIface VAR z : ; END_VAR END_PROGRAM\n",
    "i.xml": XML_HEAD
    + '<pou name="Good" pouType="program"><interface/><body><ST>x := 1;</ST></body></pou>'
    + '<pou name="BadIface" pouType="program">%s<body><ST>x := 1;</ST></body></pou>'
    % local_var("z", '<array><dimension lower="2" upper="1"/><baseType><INT/></baseType></array>')
    + XML_TAIL,
}


@pytest.mark.parametrize("name", sorted(NAMED_FAILURES))
def test_a_pou_whose_declarations_fail_is_skipped_by_name(tmp_path, name):
    path = tmp_path / name
    path.write_text(NAMED_FAILURES[name])
    declared, _ = load._walk_file(str(path))
    assert declared.names == ["good", "badiface"] and declared.warnings == []
    sample = load_sample([str(path)])
    assert [p.name for p in sample.pous] == ["Good"]
    assert [(w.code, w.path, w.pou) for w in sample.warnings] == [("pou-parse-error", str(path), "BadIface")]


def test_interface_of_unit_runs_once_per_st_pou_unit(monkeypatch):
    """Each ST POU's declarations and each XML <pou>'s <interface> are
    read once, although function blocks also lend theirs to the sample.
    The spies count in this process only, so pass 1 runs here alone."""
    monkeypatch.setattr(load, "_usable_cpus", lambda: 1)
    calls = []
    real = st.interface_of_unit
    real_xml = plcopen._interface_vars

    def counting(*args):
        calls.append(args)
        return real(*args)

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


def test_plcopen_file_with_a_bad_function_block_interface_walks_no_later_body(tmp_path, monkeypatch):
    """The file is skipped whole, so the ST body after the bad interface
    is never walked.  The spy counts in this process only."""
    monkeypatch.setattr(load, "_usable_cpus", lambda: 1)
    walks = []
    real = plcopen.st_fragment_facts

    def counting(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(plcopen, "st_fragment_facts", counting)
    (tmp_path / "p.xml").write_text(
        XML_HEAD
        + '<pou name="BadFb" pouType="functionBlock">%s<body><ST>x := 1;</ST></body></pou>'
        % local_var("v", '<array><dimension lower="5" upper="1"/><baseType><INT/></baseType></array>')
        + '<pou name="Later" pouType="program"><interface/><body><ST>y := 2;</ST></body></pou>'
        + XML_TAIL
    )
    sample = load_sample([str(tmp_path)])
    assert walks == []
    assert sample.pous == []
    assert [(w.code, w.pou) for w in sample.warnings] == [("pou-parse-error", "")]


# A body whose error sits at 2:6 in an ST POU and in an XML ST body alike.
BAD_ST = "PROGRAM P\nx := ;\nEND_PROGRAM\n"
BAD_XML = XML_HEAD + '<pou name="P" pouType="functionBlock"><interface/><body><ST>y := 1;\nx := ;</ST></body></pou>' + XML_TAIL


@pytest.mark.parametrize("frontend", ["st", "xml"])
def test_parse_pou_unit_turns_a_failed_walk_into_its_warning(frontend):
    with pytest.raises(ParseError) as err:
        st.parse_st_pou(st.StSource("p.st", BAD_ST))
    if frontend == "st":
        (unit,) = st.split_st_units(st.StSource("p.st", BAD_ST))
        walked = st.walk_pou_unit(unit, "p.st")
    else:
        (walked,) = plcopen.walk_pous(plcopen.parse_xml(BAD_XML), "p.xml")
    pou, warnings = st.parse_pou_unit(walked, TypeContext(), frozenset())
    assert pou is None
    assert [(w.code, w.path, w.pou) for w in warnings] == [("pou-parse-error", "p." + frontend, "P")]
    assert warnings[0].message == err.value.detail == "2:6: unexpected ';' in expression"


def test_loader_registers_each_function_block_of_the_corpus(monkeypatch):
    names = []
    real = TypeContext.register_fb

    def counting(self, name, decls):
        names.append(name)
        return real(self, name, decls)

    monkeypatch.setattr(TypeContext, "register_fb", counting)
    load_sample([str(CORPUS)])
    assert sorted(names) == [
        "AssignBasic",
        "BranchMix",
        "FbdAdd",
        "FbdSelect",
        "MaxCall",
        "Scaler",
        "SfcBranch",
        "SfcLinear",
        "StructPoint",
    ]


def test_discovery_searches_directories_as_rglob_does(monkeypatch, tmp_path):
    top, outside = tmp_path / "top", tmp_path / "outside"
    for rel in (
        "a.ST", "B.st", "notes.txt", ".hidden.gvl", "..st", ".st", "x.", "sub/c.Xml", "sub/deep/d.typ",
        "sub.d/e.pou", "dir.st/f.scl", "locked/g.st",
    ):
        (top / rel).parent.mkdir(parents=True, exist_ok=True)
        (top / rel).write_text("PROGRAM P END_PROGRAM\n")
    outside.mkdir()
    (outside / "h.st").write_text("PROGRAM H END_PROGRAM\n")
    (top / "link_dir").symlink_to(outside, target_is_directory=True)
    (top / "link.st").symlink_to(outside / "h.st")
    (top / "broken.st").symlink_to(tmp_path / "missing.st")
    (top / "loop.st").symlink_to(top / "loop.st")
    real_scandir = os.scandir

    def scandir(path):
        if os.path.basename(path) == "locked":
            raise PermissionError(13, "Permission denied", path)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    found = [
        "..st", ".hidden.gvl", "B.st", "a.ST", "dir.st/f.scl", "link.st", "notes.txt",
        "sub.d/e.pou", "sub/c.Xml", "sub/deep/d.typ",
    ]
    given = [top, top / "sub", str(top / "a.ST"), top / "notes.txt", str(top) + "/"]
    inputs = load.discover_inputs(given)
    assert all(type(p) is type(top) for p in inputs)
    assert [str(p) for p in inputs] == [str(top / rel) for rel in found]
    assert load._discover(given) == [str(p) for p in inputs]  # the labels the loader walks
    monkeypatch.chdir(top)
    assert [str(p) for p in load.discover_inputs(["."])] == [rel for rel in found if rel != "notes.txt"]


@pytest.mark.parametrize(
    "data, text",
    [
        pytest.param(b"\xef\xbb\xbfPROGRAM", "PROGRAM", id="utf-8-bom"),
        pytest.param("\ufeffPROGRAM \u00e9".encode("utf-16-le"), "PROGRAM \u00e9", id="utf-16-le"),
        pytest.param("\ufeffPROGRAM \u00e9".encode("utf-16-be"), "PROGRAM \u00e9", id="utf-16-be"),
        pytest.param(b"\xff\xfeP", "\u00ff\u00feP", id="odd-length-is-latin-1"),
        pytest.param(b"caf\xe9", "caf\u00e9", id="latin-1"),
        pytest.param(b"a\r\nb\rc\n", "a\nb\nc\n", id="line-ends"),
        pytest.param("\ufeffa\r\nb".encode("utf-16-le"), "a\nb", id="utf-16-line-ends"),
    ],
)
def test_source_bytes_decode_by_their_bom(data, text):
    assert load._decode(data) == text


@pytest.mark.parametrize("source", ["branch_mix.st", "fbd_add.xml"])
@pytest.mark.parametrize("encoding", ["utf-16-le", "utf-16-be"])
def test_a_utf16_copy_gives_the_reports_of_its_original(monkeypatch, tmp_path, source, encoding):
    """A UTF-16 file with its BOM reads as its UTF-8 original, whatever
    encoding its XML declaration names."""
    text = (CORPUS / source).read_text(encoding="utf-8")
    reports = []
    for name, data in (("utf8", text.encode("utf-8")), ("utf16", ("\ufeff" + text).encode(encoding))):
        (tmp_path / name).mkdir()
        (tmp_path / name / source).write_bytes(data)
        monkeypatch.chdir(tmp_path / name)
        reports.append(cli_reports([source], tmp_path))
    assert reports[0][0] == 0 and json.loads(reports[0][3])["pous"]
    assert reports[1] == reports[0]


@pytest.mark.parametrize("lead", ["", "\n  "], ids=["at-start", "after-whitespace"])
def test_a_file_of_another_suffix_is_xml_when_its_text_starts_with_a_tag(tmp_path, lead):
    """A file named outright whose suffix is neither ST nor XML loads as
    PLCopen XML when its first character other than whitespace is "<", and
    as ST otherwise."""
    xml = (CORPUS / "fbd_add.xml").read_text()
    if lead:  # nothing may come before an XML declaration
        xml = xml.split("?>", 1)[1].lstrip()
    (tmp_path / "project.txt").write_text(lead + xml)
    (tmp_path / "program.txt").write_text(lead + "PROGRAM Q\nx := 1;\nEND_PROGRAM\n")
    for name, pou, language in (("project.txt", "FbdAdd", Language.FBD), ("program.txt", "Q", Language.ST)):
        sample = load_sample([str(tmp_path / name)])
        assert [(p.name, p.language) for p in sample.pous] == [(pou, language)]
        assert sample.warnings == []


def test_the_suffix_comes_from_the_file_name_not_its_directory(tmp_path):
    """A file without a suffix in a directory named `d.xml` is ST by its
    text, and `p.XML` in a directory named `d.st` is XML."""
    (tmp_path / "d.xml").mkdir()
    (tmp_path / "d.xml" / "p").write_text("PROGRAM Q\nx := 1;\nEND_PROGRAM\n")
    (tmp_path / "d.st").mkdir()
    (tmp_path / "d.st" / "p.XML").write_text((CORPUS / "fbd_add.xml").read_text())
    for rel, pou, language in (("d.xml/p", "Q", Language.ST), ("d.st/p.XML", "FbdAdd", Language.FBD)):
        sample = load_sample([str(tmp_path / rel)])
        assert [(p.name, p.language) for p in sample.pous] == [(pou, language)]
        assert sample.warnings == []


# ------------------------- pass 1 across processes -------------------------


def run_serially(monkeypatch) -> None:
    monkeypatch.setattr(load, "_usable_cpus", lambda: 1)


def run_forked(monkeypatch, cpus: int) -> list[int]:
    """Run pass 1 in `cpus` processes; the returned list collects the pid
    of every child forked."""
    monkeypatch.setattr(load, "_usable_cpus", lambda: cpus)
    pids: list[int] = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def sample_facts(sample) -> tuple:
    return (
        sample.pous,
        sample.warnings,
        list(sample.context.definitions.items()),
        list(sample.context.fb_interfaces.items()),
        sample.global_names,
    )


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_pass_one_gives_the_serial_sample(monkeypatch, cpus):
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(CORPUS)]))
    pids = run_forked(monkeypatch, cpus)
    assert sample_facts(load_sample([str(CORPUS)])) == serial
    assert len(pids) == cpus - 1
    assert_reaped(pids)


CORPUS_FILES = load.discover_inputs([str(CORPUS)])


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    seeds=strat.lists(strat.integers(min_value=0, max_value=10_000), max_size=5, unique=True),
    corpus_files=strat.lists(strat.sampled_from(CORPUS_FILES), max_size=6, unique=True),
    processes=strat.sampled_from([2, 3]),
)
@example(seeds=[], corpus_files=[], processes=2)
@example(seeds=[7], corpus_files=[], processes=3)
@example(seeds=[], corpus_files=[CORPUS / "types.st", CORPUS / "globals.gvl"], processes=3)
@example(seeds=[1, 2], corpus_files=CORPUS_FILES, processes=3)
def test_forked_pass_one_equals_serial_on_generated_samples(seeds, corpus_files, processes):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        for seed in seeds:
            (Path(tmp) / ("gen_%d.st" % seed)).write_text(generate_program(seed).source)
        for path in corpus_files:
            (Path(tmp) / path.name).write_bytes(path.read_bytes())
        run_serially(monkeypatch)
        serial = sample_facts(load_sample([tmp]))
        pids = run_forked(monkeypatch, processes)
        assert sample_facts(load_sample([tmp])) == serial
        assert len(pids) == max(0, min(processes, len(seeds) + len(corpus_files)) - 1)
        assert_reaped(pids)


def write_sample(directory: Path, files: dict[str, str]) -> Path:
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


def log_walks(monkeypatch, log: Path):
    """Log each file `_walk_file` reads, in any process, to `log`; the
    returned function maps each pid to the names it walked, in order."""
    real_walk = load._walk_file

    def walk_file(path):
        with open(log, "a") as out:
            out.write("%d %s\n" % (os.getpid(), os.path.basename(path)))
        return real_walk(path)

    def walked_by() -> dict[int, list[str]]:
        names: dict[int, list[str]] = {}
        for line in log.read_text().splitlines():
            pid, name = line.split()
            names.setdefault(int(pid), []).append(name)
        return names

    monkeypatch.setattr(load, "_walk_file", walk_file)
    return walked_by


def slow_first_walk(monkeypatch, seconds: float, here: bool = True) -> None:
    """Make the first `_walk_file` of the loading process (or, with `here`
    false, of each child) sleep `seconds` first, so that the other
    processes claim most of the files."""
    loading = os.getpid()
    first = []  # the pid of each process past its first walk
    real_walk = load._walk_file

    def walk_file(path):
        if os.getpid() not in first:
            first.append(os.getpid())
            if (os.getpid() == loading) is here:
                time.sleep(seconds)
        return real_walk(path)

    monkeypatch.setattr(load, "_walk_file", walk_file)


def assert_walked_once_more_here(walks: dict[int, list[str]], here: int, names, failed) -> None:
    """Every file is walked once across the processes, and each file that
    a failed child, one of the pids `failed`, claimed is walked here
    exactly once more."""
    again = [name for pid in failed for name in walks.get(pid, [])]
    assert sorted(chain(*walks.values())) == sorted([*names, *again])
    assert set(again) <= set(walks[here])


def cli_reports(paths, out_dir: Path) -> tuple:
    """Exit code, stdout, stderr and the JSON, CSV and SVG report bytes
    (None where none was written) of one `poumetrics analyze`."""
    outputs = [out_dir / ("report." + fmt) for fmt in ("json", "csv", "svg")]
    argv = ["analyze", *map(str, paths)]
    for option, path in zip(("--json", "--csv", "--chart"), outputs):
        path.unlink(missing_ok=True)
        argv += [option, str(path)]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return (code, out.getvalue(), err.getvalue(), *(p.read_bytes() if p.exists() else None for p in outputs))


def relaid(st_texts: list[str], xml_files: list[Path], rnd, directory: Path) -> None:
    """Write the same sources in another layout: the ST texts shuffled
    and joined into fewer files or kept apart, and every file under a
    new name, so the file order changes too."""
    rnd.shuffle(st_texts)
    cuts = sorted(rnd.sample(range(1, len(st_texts)), rnd.randint(0, max(0, len(st_texts) - 1))))
    groups = [st_texts[i:j] for i, j in zip([0, *cuts], [*cuts, len(st_texts)])]
    names = iter(rnd.sample(range(100), len(groups) + len(xml_files)))
    directory.mkdir()
    for group in groups:
        (directory / ("f%02d.st" % next(names))).write_text("\n".join(group))
    for path in xml_files:
        (directory / ("f%02d.xml" % next(names))).write_bytes(path.read_bytes())


def json_ranking(report: bytes) -> tuple:
    doc = json.loads(report)
    return doc["pous"], doc["groups"]


# An FBD block calls a function that only another file defines: a call
# site only where pass 2 knows every POU name of the sample.
CALLS_SAMPLE = {
    "clamp.st": "FUNCTION Clamp : INT\nVAR_INPUT v : INT; END_VAR\nClamp := MIN(v, 10);\nEND_FUNCTION\n",
    "uses_clamp.xml": XML_HEAD
    + '<pou name="UsesClamp" pouType="program">%s<body><FBD>'
    '<inVariable localId="1"><connectionPointOut/><expression>a</expression></inVariable>'
    '<block localId="2" typeName="Clamp"><inputVariables>'
    '<variable formalParameter="v"><connectionPointIn><connection refLocalId="1"/></connectionPointIn></variable>'
    "</inputVariables></block>"
    '<outVariable localId="3"><connectionPointIn><connection refLocalId="2"/></connectionPointIn>'
    "<expression>a</expression></outVariable>"
    "</FBD></body></pou>" % local_var("a", "<INT/>")
    + XML_TAIL,
}


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    seeds=strat.lists(strat.integers(min_value=0, max_value=10_000), max_size=4, unique=True),
    corpus_files=strat.lists(strat.sampled_from(CORPUS_FILES), max_size=8, unique=True),
    with_calls=strat.booleans(),
    processes=strat.sampled_from([2, 3]),
    rnd=strat.randoms(use_true_random=False),
)
@example(seeds=[3, 4], corpus_files=CORPUS_FILES, with_calls=True, processes=3, rnd=Random(0))
def test_forked_analyze_writes_the_serial_reports_in_any_layout(seeds, corpus_files, with_calls, processes, rnd):
    """`finish` runs in the children, so the reports are checked whole;
    a sample split, joined or reordered across files ranks the same."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        sample, out_dir = Path(tmp, "sample"), Path(tmp)
        sample.mkdir()
        st_texts = [generate_program(seed).source for seed in seeds]
        for seed, text in zip(seeds, st_texts):
            (sample / ("gen_%d.st" % seed)).write_text(text)
        if with_calls:
            for name, text in CALLS_SAMPLE.items():
                (Path(tmp) / name).write_text(text)
            corpus_files = [*corpus_files, *(Path(tmp) / name for name in CALLS_SAMPLE)]
        xml_files = []
        for path in corpus_files:
            (sample / path.name).write_bytes(path.read_bytes())
            if path.suffix == ".xml":
                xml_files.append(path)
            else:
                st_texts.append(path.read_text())
        run_serially(monkeypatch)
        serial = cli_reports([sample], out_dir)
        pids = run_forked(monkeypatch, processes)
        assert cli_reports([sample], out_dir) == serial
        assert len(pids) == max(0, min(processes, len(seeds) + len(corpus_files)) - 1)
        assert_reaped(pids)
        if serial[0] != 1:  # some POU was found
            relaid(st_texts, xml_files, rnd, Path(tmp, "relaid"))
            layout = cli_reports([Path(tmp, "relaid")], out_dir)
            assert layout[0] == serial[0]
            assert json_ranking(layout[3]) == json_ranking(serial[3])


# Later is used in a_user.st and defined in e_types.st; Twice is defined
# in b_bad.st and again in a later file, d_twice.st, which wins; Fb is
# used in d_twice.st and defined in e_types.st; c_broken.xml is
# malformed.  Whichever process walks each file, the knowledge applies
# in file order.
CHUNKED_SAMPLE = {
    "a_user.st": "PROGRAM UsesLater\nVAR v : Later; w : Twice; END_VAR\nv.a := 1;\nEND_PROGRAM\n",
    "b_bad.st": (
        "TYPE Twice : INT; END_TYPE\nPROGRAM Bad\nx := ;\nEND_PROGRAM\n"
        "PROGRAM BadIface VAR z : ; END_VAR END_PROGRAM\n"
    ),
    "c_broken.xml": "<project><pous>",
    "d_twice.st": "TYPE Twice : ARRAY[1..3] OF INT; END_TYPE\nPROGRAM UsesFb\nVAR f : Fb; END_VAR\nf(i := g);\nEND_PROGRAM\n",
    "e_types.st": (
        "TYPE Later : STRUCT a : INT; b : INT; END_STRUCT; END_TYPE\nVAR_GLOBAL g : INT; END_VAR\n"
        "FUNCTION_BLOCK Fb\nVAR_INPUT i : INT; END_VAR\nEND_FUNCTION_BLOCK\n"
    ),
    "f_project.xml": XML_HEAD
    + '<pou name="XmlP" pouType="program">%s<body><ST>t[1] := 1;</ST></body></pou>'
    % local_var("t", '<derived name="Twice"/>')
    + XML_TAIL,
}


def test_forked_pass_one_applies_each_file_in_order(monkeypatch, tmp_path):
    sample_dir = write_sample(tmp_path / "sample", CHUNKED_SAMPLE)
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(sample_dir)]))
    pids = run_forked(monkeypatch, 3)
    slow_first_walk(monkeypatch, 0.1)
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    sample = load_sample([str(sample_dir)])
    assert sample_facts(sample) == serial
    assert len(pids) == 2
    assert_reaped(pids)
    walks = walked_by()
    assert set(walks) <= {os.getpid(), *pids}
    assert sorted(chain(*walks.values())) == sorted(CHUNKED_SAMPLE)
    assert [p.name for p in sample.pous] == ["UsesLater", "UsesFb", "Fb", "XmlP"]
    assert sample.context.lookup("Twice").kind == "array"
    assert {v.name: len(v.sub_variables) for p in sample.pous for v in p.variables if v.name in "vwt"} == {
        "v": 2,
        "w": 3,
        "t": 3,
    }
    assert [(w.code, Path(w.path).name, w.pou) for w in sample.warnings] == [
        ("xml-malformed", "c_broken.xml", ""),
        ("pou-parse-error", "b_bad.st", "Bad"),
        ("pou-parse-error", "b_bad.st", "BadIface"),
    ]
    assert sample.global_names == {"g"}


def test_duplicate_pou_across_chunks_is_the_serial_error(monkeypatch, tmp_path):
    for name in ("a.st", "b.st"):
        (tmp_path / name).write_text("PROGRAM Dup x := 1; END_PROGRAM")
    run_serially(monkeypatch)
    with pytest.raises(AnalysisError) as serial:
        load_sample([str(tmp_path)])
    pids = run_forked(monkeypatch, 2)
    with pytest.raises(AnalysisError) as forked:
        load_sample([str(tmp_path)])
    assert str(forked.value) == str(serial.value)
    assert "duplicate POU name 'Dup'" in str(serial.value)
    assert len(pids) == 1
    assert_reaped(pids)


@pytest.mark.parametrize("failure", ["raises", "exits-after-one-record"])
def test_a_failed_child_has_its_chunk_walked_here(monkeypatch, tmp_path, failure):
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(CORPUS)]))
    here = os.getpid()
    if failure == "raises":
        real_walk = load._walk_file

        def walk_file(path):
            if os.getpid() != here:
                raise RuntimeError("child failed")
            return real_walk(path)

        monkeypatch.setattr(load, "_walk_file", walk_file)
    else:
        real_dump = pickle.dump

        def dump(obj, file, protocol=None):
            real_dump(obj, file, protocol)
            file.flush()
            os._exit(0)

        monkeypatch.setattr(pickle, "dump", dump)
    pids = run_forked(monkeypatch, 3)
    slow_first_walk(monkeypatch, 0.1)
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    assert sample_facts(load_sample([str(CORPUS)])) == serial
    assert len(pids) == 2
    assert_reaped(pids)
    walks = walked_by()
    assert_walked_once_more_here(walks, here, [p.name for p in CORPUS_FILES], pids)
    assert any(walks.get(pid) for pid in pids)


@pytest.mark.parametrize("failure", ["raises-in-pass-two", "exits-after-round-one"])
def test_a_child_failed_in_round_two_has_pass_two_run_here(monkeypatch, tmp_path, failure):
    sample_dir = write_sample(tmp_path / "sample", CHUNKED_SAMPLE)
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(sample_dir)]))
    here = os.getpid()
    (tmp_path / "failed.log").touch()
    if failure == "raises-in-pass-two":
        real_declare = TypeContext.declare

        def declare(self, *args):
            if os.getpid() != here:
                # A child that claimed no POU does not get here: it succeeds.
                with open(tmp_path / "failed.log", "a") as log:
                    log.write("%d\n" % os.getpid())
                raise RuntimeError("child failed in pass 2")
            return real_declare(self, *args)

        monkeypatch.setattr(TypeContext, "declare", declare)
    else:
        real_load = pickle.load

        def load_one(file):
            if os.getpid() != here:  # the child has sent its round-1 records
                os._exit(0)
            return real_load(file)

        monkeypatch.setattr(pickle, "load", load_one)
    pids = run_forked(monkeypatch, 3)
    slow_first_walk(monkeypatch, 0.1)
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    # Each child's pass-1 warnings and types reach the sample once.
    assert sample_facts(load_sample([str(sample_dir)])) == serial
    assert len(pids) == 2
    assert_reaped(pids)
    walks = walked_by()
    failed = pids
    if failure == "raises-in-pass-two":
        failed = [int(pid) for pid in (tmp_path / "failed.log").read_text().split()]
    assert_walked_once_more_here(walks, here, CHUNKED_SAMPLE, failed)
    assert any(walks.get(pid) for pid in pids)


def test_children_failed_in_each_round_have_their_files_walked_here(monkeypatch, tmp_path):
    """The first child fails in round 1 and the second in round 2: the
    loading process walks each one's files once more, the first child's
    before it applies the knowledge and the second's after."""
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(CORPUS)]))
    here = os.getpid()
    pids = run_forked(monkeypatch, 3)  # in a child: the children forked before it
    real_walk, real_declare = load._walk_file, TypeContext.declare

    def walk_file(path):
        if os.getpid() != here and not pids:
            raise RuntimeError("first child failed in round 1")
        return real_walk(path)

    def declare(self, *args):
        if os.getpid() != here:
            with open(tmp_path / "failed.log", "a") as log:
                log.write("%d\n" % os.getpid())
            raise RuntimeError("second child failed in round 2")
        return real_declare(self, *args)

    monkeypatch.setattr(load, "_walk_file", walk_file)
    monkeypatch.setattr(TypeContext, "declare", declare)
    slow_first_walk(monkeypatch, 0.1)
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    assert sample_facts(load_sample([str(CORPUS)])) == serial
    assert len(pids) == 2
    assert_reaped(pids)
    walks = walked_by()
    assert len(walks[pids[0]]) == 1
    assert [int(pid) for pid in (tmp_path / "failed.log").read_text().split()] == [pids[1]]
    assert_walked_once_more_here(walks, here, [p.name for p in CORPUS_FILES], pids)


SMALL_SAMPLE = {"p%02d.st" % i: "PROGRAM P%d\nx := %d;\nEND_PROGRAM\n" % (i, i) for i in range(12)}


@pytest.mark.parametrize("slow", ["child", "here"])
def test_a_slow_process_leaves_its_files_to_the_other(monkeypatch, tmp_path, slow):
    """Files are claimed on demand: while one process sleeps in its first
    walk, the other claims nearly all the rest."""
    sample_dir = write_sample(tmp_path / "sample", SMALL_SAMPLE)
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(sample_dir)]))
    here = os.getpid()
    pids = run_forked(monkeypatch, 2)
    slow_first_walk(monkeypatch, 0.2, here=slow == "here")
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    assert sample_facts(load_sample([str(sample_dir)])) == serial
    assert len(pids) == 1
    assert_reaped(pids)
    walks = walked_by()
    assert sorted(chain(*walks.values())) == sorted(SMALL_SAMPLE)
    slow_pid, fast_pid = (pids[0], here) if slow == "child" else (here, pids[0])
    assert len(walks.get(slow_pid, [])) <= 2
    assert len(walks[fast_pid]) >= 10


@pytest.mark.parametrize("processes", [2, 3])
def test_claims_of_runs_give_the_serial_sample(monkeypatch, tmp_path, processes):
    """With more files than claim entries, each entry names a run of
    consecutive files, which one process walks whole and in order."""
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(CORPUS)]))
    monkeypatch.setattr(load, "_CLAIM_ENTRIES", 3)
    pids = run_forked(monkeypatch, processes)
    slow_first_walk(monkeypatch, 0.1)
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    assert sample_facts(load_sample([str(CORPUS)])) == serial
    assert len(pids) == processes - 1
    assert_reaped(pids)
    names = [p.name for p in CORPUS_FILES]
    size = -(-len(names) // 3)
    runs = [names[i : i + size] for i in range(0, len(names), size)]
    assert len(runs) == 3
    walks = walked_by()
    assert sorted(chain(*walks.values())) == sorted(names)
    for walked in walks.values():
        assert walked == list(chain(*(r for r in runs if r[0] in walked)))


def test_a_child_killed_after_claiming_has_exactly_those_files_walked_here(monkeypatch, tmp_path):
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(CORPUS)]))
    here = os.getpid()
    real_walk = load._walk_file
    calls = []  # in the child: one per file it claimed

    def walk_file(path):
        if os.getpid() != here:
            calls.append(path)
            if len(calls) == 3:
                os._exit(0)  # the third file is claimed but never walked
        return real_walk(path)

    monkeypatch.setattr(load, "_walk_file", walk_file)
    pids = run_forked(monkeypatch, 2)
    slow_first_walk(monkeypatch, 0.2)
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    assert sample_facts(load_sample([str(CORPUS)])) == serial
    assert len(pids) == 1
    assert_reaped(pids)
    walks = walked_by()
    claimed = walks[pids[0]]
    assert len(claimed) == 3
    assert_walked_once_more_here(walks, here, [p.name for p in CORPUS_FILES], pids)
    # The loading process walks them after its own claims, in file order.
    assert walks[here][-3:] == claimed


def raise_in_the_loading_process(monkeypatch, claims: bool = True) -> None:
    """Make the loading process raise while the children wait for the
    shared knowledge, which only it builds, whatever files it claimed;
    with `claims` False it claims none."""
    here = os.getpid()
    real_claims = load._claims

    def share(declared, context):
        raise RuntimeError("loading process failed")

    def claim(fd, run, count):
        return real_claims(fd, run, count) if claims or os.getpid() != here else iter(())

    monkeypatch.setattr(load, "_share", share)
    monkeypatch.setattr(load, "_claims", claim)


@pytest.mark.parametrize("failure", [None, "raises-here", "raises-here-claiming-nothing"])
def test_every_child_is_reaped_and_every_pipe_closed(monkeypatch, failure):
    here = os.getpid()
    fds: list[int] = []
    real_pipe = os.pipe

    def pipe():
        ends = real_pipe()
        if os.getpid() == here:
            fds.extend(ends)
        return ends

    monkeypatch.setattr(os, "pipe", pipe)
    pids = run_forked(monkeypatch, 3)
    if failure:
        raise_in_the_loading_process(monkeypatch, claims=failure == "raises-here")
    with pytest.raises(RuntimeError) if failure else contextlib.nullcontext():
        load_sample([str(CORPUS)])
    assert len(pids) == 2
    assert_reaped(pids)
    assert len(fds) == 2 * (1 + 2 * 2)  # the claims, and an up and a down pipe per child
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_shared_knowledge_reaches_the_child_whole_under_a_timer_signal(monkeypatch, tmp_path):
    """A pipe write that a signal interrupts may return short; the
    knowledge is larger than a pipe holds, so it takes several writes."""
    types = "".join("TYPE Rec%d : STRUCT a : INT; b : BOOL; END_STRUCT; END_TYPE\n" % i for i in range(3000))
    program = "PROGRAM P%d\nVAR r : Rec%d; END_VAR\nr.a := %d;\nEND_PROGRAM\n"
    programs = {"p%d.st" % i: program % (i, i, i) for i in range(6)}
    sample_dir = write_sample(tmp_path / "sample", {"a_types.st": types, **programs})
    run_serially(monkeypatch)
    serial = load_sample([str(sample_dir)])
    assert len(pickle.dumps(serial.context.definitions, pickle.HIGHEST_PROTOCOL)) > 64 * 1024
    here = os.getpid()
    real_load = pickle.load

    def slow_load(file):
        if os.getpid() != here:
            # Once the knowledge starts to arrive, the loading process
            # fills the pipe and waits for room while the timer fires.
            select.select([file], [], [])
            time.sleep(0.05)
        return real_load(file)

    monkeypatch.setattr(pickle, "load", slow_load)
    pids = run_forked(monkeypatch, 2)
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    ticks = []
    previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
    signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
    try:
        forked = load_sample([str(sample_dir)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert ticks
    assert sample_facts(forked) == sample_facts(serial)
    assert len(pids) == 1
    assert_reaped(pids)
    # No file was walked a second time, so the child finished both rounds.
    assert sorted(chain(*walked_by().values())) == sorted(p.name for p in sample_dir.iterdir())


def test_the_records_that_cross_the_pipes_pickle_as_constructor_calls(tmp_path):
    """No BUILD opcode: each record is rebuilt by its constructor, with no
    per-instance state set after it in Python."""
    sample_dir = write_sample(tmp_path / "sample", MIXED_SAMPLE)
    declared, walked = zip(*(load._walk_file(p) for p in load._discover([str(CORPUS), str(sample_dir)])))
    shared, warnings = load._share(declared, TypeContext())
    assert shared.context.definitions and shared.context.fb_interfaces and warnings

    def entry(pou):
        return sample_row(pou.name, pou.kind, pou.language, compute_vector(pou), "tag")

    finished = [load._finish_file(*w, shared, entry) for w in walked]
    assert any(done.warnings for done in finished)
    for record in (*declared, shared, *finished):
        data = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
        assert "BUILD" not in {op.name for op, _, _ in pickletools.genops(data)}, type(record).__name__


def constructor_calls(record) -> int:
    data = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
    return sum(op.name in ("NEWOBJ", "NEWOBJ_EX", "REDUCE") for op, _, _ in pickletools.genops(data))


def wide_function_block(n: int) -> str:
    inputs = "".join("  i%d : INT;\n" % j for j in range(n))
    locals_ = "".join("  v%d : INT;\n" % j for j in range(n))
    return "FUNCTION_BLOCK Wide\nVAR_INPUT\n%sEND_VAR\nVAR\n%sEND_VAR\nv0 := i0;\nEND_FUNCTION_BLOCK\n" % (
        inputs,
        locals_,
    )


def test_the_pipes_carry_each_function_block_as_its_interface(tmp_path):
    """Round 1 sends each FB's interface as plain (name, section) pairs, and
    the shared knowledge keeps them so: a file's `_Declared` pickle makes as
    many constructor calls for an FB of 300 inputs and 300 locals as for one
    of 3 and 3, and the corpus's FB interfaces add to the `_Shared` pickle
    one call per distinct section (the enum member), none per member."""
    calls = []
    for n in (3, 300):
        path = tmp_path / ("wide%d.st" % n)
        path.write_text(wide_function_block(n))
        declared, _ = load._walk_file(str(path))
        assert [(name, len(members)) for name, members in declared.fbs] == [("Wide", n)]
        calls.append(constructor_calls(declared))
    assert calls[0] == calls[1]

    shared, _ = load._share([load._walk_file(p)[0] for p in load._discover([str(CORPUS)])], TypeContext())
    members = sum(map(len, shared.context.fb_interfaces.values()))
    without = shared._replace(context=TypeContext(None, shared.context.definitions, {}))
    assert constructor_calls(shared) - constructor_calls(without) <= len(VarSection) < members


def test_no_child_outlives_a_raise_in_the_loading_process(monkeypatch):
    pids = run_forked(monkeypatch, 3)
    raise_in_the_loading_process(monkeypatch)
    with pytest.raises(RuntimeError, match="loading process failed"):
        load_sample([str(CORPUS)])
    assert len(pids) == 2
    assert_reaped(pids)


def test_pass_one_stays_here_while_another_thread_runs(monkeypatch):
    pids = run_forked(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        sample = load_sample([str(CORPUS)])
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == []
    assert len(sample.pous) == 14
