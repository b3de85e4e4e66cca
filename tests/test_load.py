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
from poumetrics import AnalysisError, CallSite, ParseError, SampleEntry, compute_vector, load_sample
from poumetrics import load, plcopen, st
from poumetrics.cli import main
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
            out.write("%d %s\n" % (os.getpid(), path.name))
        return real_walk(path)

    def walked_by() -> dict[int, list[str]]:
        names: dict[int, list[str]] = {}
        for line in log.read_text().splitlines():
            pid, name = line.split()
            names.setdefault(int(pid), []).append(name)
        return names

    monkeypatch.setattr(load, "_walk_file", walk_file)
    return walked_by


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


# Process j of three walks files j and j + 3.  Later is used in process
# 0 and defined in process 1; Twice is defined in process 1 and again in
# process 0, in a later file, which wins; Fb is used in process 0 and
# defined in process 1; a child meets the malformed XML file.
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
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    sample = load_sample([str(sample_dir)])
    assert sample_facts(sample) == serial
    assert len(pids) == 2
    assert_reaped(pids)
    assert [walked_by()[pid] for pid in (os.getpid(), *pids)] == [
        ["a_user.st", "d_twice.st"],
        ["b_bad.st", "e_types.st"],
        ["c_broken.xml", "f_project.xml"],
    ]
    assert [p.name for p in sample.pous] == ["UsesLater", "UsesFb", "Fb", "XmlP"]
    assert sample.context.lookup("Twice").kind == "array"
    assert {v.name: len(v.sub_variables) for p in sample.pous for v in p.variables if v.name in "vwt"} == {
        "v": 2,
        "w": 3,
        "t": 3,
    }
    assert [(w.code, Path(w.path).name, w.pou) for w in sample.warnings] == [
        ("pou-parse-error", "b_bad.st", ""),
        ("xml-malformed", "c_broken.xml", ""),
        ("pou-parse-error", "b_bad.st", "Bad"),
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
def test_a_failed_child_has_its_chunk_walked_here(monkeypatch, failure):
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
    files = load.discover_inputs([str(CORPUS)])
    assert all(len(files[j::3]) > 1 for j in (1, 2))
    assert sample_facts(load_sample([str(CORPUS)])) == serial
    assert len(pids) == 2
    assert_reaped(pids)


@pytest.mark.parametrize("failure", ["raises-in-pass-two", "exits-after-round-one"])
def test_a_child_failed_in_round_two_has_pass_two_run_here(monkeypatch, tmp_path, failure):
    sample_dir = write_sample(tmp_path / "sample", CHUNKED_SAMPLE)
    run_serially(monkeypatch)
    serial = sample_facts(load_sample([str(sample_dir)]))
    here = os.getpid()
    if failure == "raises-in-pass-two":
        real_declare = TypeContext.declare

        def declare(self, *args):
            if os.getpid() != here:
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
    walked_by = log_walks(monkeypatch, tmp_path / "walked.log")
    # Each child's pass-1 warnings and types reach the sample once.
    assert sample_facts(load_sample([str(sample_dir)])) == serial
    assert len(pids) == 2
    assert_reaped(pids)
    assert [walked_by()[pid] for pid in (here, *pids)] == [
        ["a_user.st", "d_twice.st", "b_bad.st", "e_types.st", "c_broken.xml", "f_project.xml"],
        ["b_bad.st", "e_types.st"],
        ["c_broken.xml", "f_project.xml"],
    ]


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
    walked = [load._walk_file(p) for p in load.discover_inputs([str(CORPUS), str(sample_dir)])]
    declared = [load._declared(w) for w in walked]
    shared, warnings = load._share(declared, TypeContext())
    assert shared.context.definitions and shared.context.fb_interfaces and warnings

    def entry(pou):
        return SampleEntry(pou.name, pou.kind, pou.language, compute_vector(pou), "tag")

    finished = [load._finish_file(w, shared, entry) for w in walked]
    assert any(done.warnings for done in finished)
    for record in (*declared, shared, *finished):
        data = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
        assert "BUILD" not in {op.name for op, _, _ in pickletools.genops(data)}, type(record).__name__


def test_no_child_outlives_a_raise_in_the_loading_process(monkeypatch):
    here = os.getpid()
    real_walk = load._walk_file

    def walk_file(path):
        if os.getpid() == here:
            raise RuntimeError("loading process failed")
        return real_walk(path)

    pids = run_forked(monkeypatch, 3)
    monkeypatch.setattr(load, "_walk_file", walk_file)
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
