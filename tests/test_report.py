"""Serialization, ranking output and command line behavior."""

from __future__ import annotations

import csv
import gc
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import poumetrics
from poumetrics import (
    AnalysisConfig,
    Grouping,
    NoPousFound,
    analyze_paths,
    emit_csv,
    emit_json,
    fmt4,
    render_table,
)
from poumetrics.aggregate import Ranking, aggregate, sample_row
from poumetrics.chart import render_chart, write_chart
from poumetrics.cli import main
from poumetrics.errors import AnalysisWarning
from poumetrics.ir import Language, PouKind
from poumetrics.metrics import MetricVector
from poumetrics.report import CSV_HEADER, RunResult

import reference
from conftest import CORPUS
from golden_reports import GOLDEN, report_digests
from test_chart import chart_widths, reference_widths

F = Fraction

TWO_POUS = """
PROGRAM Alpha
x := 1;
END_PROGRAM

PROGRAM Beta
VAR a : INT; END_VAR
a := a + 2;
IF a > 0 THEN a := 0; END_IF;
END_PROGRAM
"""


@pytest.fixture()
def small_run(tmp_path):
    (tmp_path / "two.st").write_text(TWO_POUS)
    return analyze_paths([str(tmp_path)])


def report_of(run) -> dict:
    """The JSON report of `run`, as a reader of the report sees it."""
    return json.loads(emit_json(run))


# ------------------------- fmt4 -------------------------


def test_fmt4_plain_values():
    assert fmt4(F(1)) == "1.0000"
    assert fmt4(F(1, 3)) == "0.3333"
    assert fmt4(F(2, 3)) == "0.6667"
    assert fmt4(F(350, 3)) == "116.6667"
    assert fmt4(F(0)) == "0.0000"


def test_fmt4_half_to_even():
    assert fmt4(F(1, 20000)) == "0.0000"  # 0.00005 ties to even 0
    assert fmt4(F(3, 20000)) == "0.0002"  # 0.00015 ties to even 2
    assert fmt4(F(5, 20000)) == "0.0002"  # 0.00025 ties to even 2
    assert fmt4(F(7, 20000)) == "0.0004"


def test_fmt4_negative_values():
    assert fmt4(F(-1, 3)) == "-0.3333"
    assert fmt4(F(-1, 6)) == "-0.1667"
    assert fmt4(F(-1, 20000)) == "0.0000"  # -0.00005 ties to even 0


def test_fmt4_keeps_more_than_four_integer_digits():
    assert fmt4(F(1234567, 100)) == "12345.6700"


def test_fmt4_never_uses_scientific_notation():
    assert "e" not in fmt4(F(1, 99999999)).casefold()


# ------------------------- the JSON report -------------------------


def test_report_structure(small_run):
    obj = report_of(small_run)
    assert set(obj) == {"run", "pous", "groups", "warnings"}
    assert [row["name"] for row in obj["pous"]] == ["Alpha", "Beta"]
    row = obj["pous"][0]
    for col in ("name", "kind", "language", "oc_rel", "group", "tag"):
        assert col in row
    for i in range(1, 7):
        assert "m%d" % i in row and "c%d" % i in row


def test_report_run_metadata(small_run):
    meta = report_of(small_run)["run"]
    assert meta["tool"] == "poumetrics"
    assert meta["version"] == poumetrics.__version__
    assert meta["pou_count"] == 2
    assert meta["grouping"] == "whole-sample"


def test_raw_cells_are_ints_except_difficulty(small_run):
    row = report_of(small_run)["pous"][1]  # Beta
    # a := a + 2 ;   if a > 0   a := 0 ;   ;  -> 8 operators, 7 operands
    assert row["m1"] == 15 and isinstance(row["m1"], int)
    assert row["m2"] == 2
    assert row["m5"] == fmt4(F(5, 2) * F(7, 3))


def test_dropped_metric_serializes_null_and_empty(small_run):
    # neither POU moves data in or out, so the information-flow median
    # is zero and the metric drops for the whole group
    obj = report_of(small_run)
    assert obj["groups"][0]["excluded"] == ["m3"]
    assert all(row["c3"] is None for row in obj["pous"])
    csv_text = emit_csv(small_run)
    beta_line = [ln for ln in csv_text.splitlines() if ln.startswith("Beta")][0]
    cells = beta_line.split(",")
    assert cells[CSV_HEADER.index("c3")] == ""


def test_group_medians_render_fmt4(small_run):
    medians = report_of(small_run)["groups"][0]["medians"]
    assert medians["m1"] == "9.5000"  # mean of 4 and 15
    assert medians["m2"] == "1.5000"
    assert medians["m5"] == fmt4((F(1) + F(35, 6)) / 2)


def test_metric_dropped_warning_present(small_run):
    codes = [w["code"] for w in report_of(small_run)["warnings"]]
    assert "metric-dropped" in codes


def test_relative_cells_match_exact_arithmetic(small_run):
    obj = report_of(small_run)
    beta = obj["pous"][1]
    assert beta["c1"] == fmt4(F(100) * 15 / F(19, 2))
    assert beta["c2"] == fmt4(F(100) * 2 / F(3, 2))


def test_weighted_overall_consistent_with_cells(small_run):
    # five active metrics at 1/5 each after the drop
    (beta,) = [pou for pou in reference.rank(small_run.ranking.rows).pous if pou.name == "Beta"]
    assert beta.weights == (F(1, 5), F(1, 5), 0, F(1, 5), F(1, 5), F(1, 5))
    assert sum(beta.segments) == beta.oc_rel == F(*small_run.ranking.scores[-1].overall)
    assert report_of(small_run)["pous"][1]["oc_rel"] == reference.fmt4(beta.oc_rel)


# ------------------------- CSV / JSON text -------------------------


def test_csv_header_and_crlf(small_run):
    text = emit_csv(small_run)
    lines = text.split("\r\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len([ln for ln in lines if ln]) == 3  # header + 2 rows


def test_csv_quotes_fields_with_commas(tmp_path):
    (tmp_path / "p.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    cfg_annotations = AnalysisConfig(annotations={"alpha": "slow, fix later"})
    run = analyze_paths([str(tmp_path)], cfg_annotations)
    text = emit_csv(run)
    assert '"slow, fix later"' in text


def test_json_ends_with_newline_and_round_trips(small_run):
    text = emit_json(small_run)
    assert text.endswith("\n")
    assert json.loads(text) == reference.report(reference.rank(small_run.ranking.rows))


# Names and tags with quotes, backslashes, commas, control and non-ASCII
# characters.  A column whose median is zero drops its metric (null
# cells); program length is never zero, so some metric always stays.
_TEXT = st.text(st.sampled_from('ab"\\,;\n\r\t\x00\x1f\x7f é名\u2028\U0001f600%'), max_size=6)
_CELL = st.integers(0, 4)
_VECTOR = st.builds(
    MetricVector, st.integers(1, 4), _CELL, _CELL, _CELL, st.fractions(0, 20, max_denominator=7), _CELL
)


@st.composite
def _runs(draw):
    """A run of drawn rows and load warnings, and the report object the
    reference gives for it."""
    vectors = draw(st.lists(_VECTOR, min_size=1, max_size=8))
    names = draw(st.lists(_TEXT, min_size=len(vectors), max_size=len(vectors), unique_by=str.casefold))
    rows = [
        sample_row(
            name, draw(st.sampled_from(list(PouKind))), draw(st.sampled_from(list(Language))), v, draw(_TEXT)
        )
        for name, v in zip(names, vectors)
    ]
    grouping, normalize = draw(st.sampled_from(list(Grouping))), draw(st.booleans())
    load_warnings = draw(st.lists(st.builds(AnalysisWarning, _TEXT, _TEXT, _TEXT, _TEXT), max_size=3))
    ranking = aggregate(rows, grouping, normalize=normalize)
    ranked = reference.rank(rows, grouping.value, normalize=normalize)
    expected = reference.report(ranked, grouping.value, load_warnings)
    return RunResult(ranking, load_warnings + ranking.warnings, grouping.value), expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_runs())
def test_json_and_csv_match_the_plain_writers(sample):
    run, obj = sample
    assert emit_json(run) == json.dumps(obj, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for row in obj["pous"]:
        writer.writerow(["" if row[col] is None else str(row[col]) for col in CSV_HEADER])
    assert emit_csv(run) == buf.getvalue()


# The row path: many POUs share a vector, spread over every language
# group, with dropped metrics (a zero median), zeros and huge values.
# Program length is never zero, so some metric always stays.
_POOL_VALUE = st.sampled_from([0, 1, 2, 3, 7, 10**40])
_POOL_VECTOR = st.builds(
    MetricVector,
    st.sampled_from([1, 2, 5, 10**40]),
    _POOL_VALUE,
    _POOL_VALUE,
    _POOL_VALUE,
    st.sampled_from([F(0), F(1, 2), F(7, 3), F(10**40, 3)]),
    _POOL_VALUE,
)


@st.composite
def _pooled_runs(draw):
    pool = draw(st.lists(_POOL_VECTOR, min_size=1, max_size=4))
    count = draw(st.integers(1, 40))
    rows = [
        sample_row(
            "p%02d" % (i * 7 % count) + "_%d" % i,
            draw(st.sampled_from(list(PouKind))),
            draw(st.sampled_from(list(Language))),
            draw(st.sampled_from(pool)),
            draw(st.sampled_from(["", "hot"])),
        )
        for i in range(count)
    ]
    grouping, normalize = draw(st.sampled_from(list(Grouping))), draw(st.booleans())
    ranking = aggregate(rows, grouping, normalize=normalize)
    expected = reference.rank(rows, grouping.value, normalize=normalize)
    return RunResult(ranking, ranking.warnings, grouping.value), expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_pooled_runs())
def test_row_cells_segments_and_ranking_match_the_exact_math(sample):
    run, expected = sample
    ranking = run.ranking
    assert [row[0] for row in ranking.rows] == [pou.name for pou in expected.pous]
    for score, pou in zip(ranking.scores, expected.pous):
        # The report shows relative values scaled as the overall value is.
        assert run.cells(score) == pou.cells
        assert F(*score.overall) == pou.oc_rel == sum(pou.segments)

    widths = chart_widths(run)
    for pou in expected.pous:
        assert widths.get(pou.name, []) == reference_widths(pou)
    with io.StringIO() as out:
        write_chart(run, out)
        assert out.getvalue() == render_chart(run)


def test_json_of_an_empty_run_is_json_dumps():
    run = RunResult(Ranking([], [], [], []), [])
    assert emit_json(run) == json.dumps(reference.report(reference.Ranked([], [], [])), indent=2) + "\n"


def test_emitters_are_deterministic(small_run, tmp_path):
    (tmp_path / "again").mkdir()
    (tmp_path / "again" / "two.st").write_text(TWO_POUS)
    rerun = analyze_paths([str(tmp_path / "again")])
    assert emit_json(rerun) == emit_json(small_run)
    assert emit_csv(rerun) == emit_csv(small_run)


# ------------------------- table -------------------------


def test_table_most_complex_first(small_run):
    table = render_table(small_run)
    lines = table.splitlines()
    assert lines[0].split() == ["#", "name", "language", "oc_rel", "tag"]
    assert lines[2].startswith("1")
    assert "Beta" in lines[2]
    assert "Alpha" in lines[3]


def test_table_top_limits_rows(small_run):
    table = render_table(small_run, top=1)
    assert "Beta" in table and "Alpha" not in table


# ------------------------- analyze_paths -------------------------


def test_no_pous_found_raises(tmp_path):
    (tmp_path / "empty.st").write_text("(* nothing here *)")
    with pytest.raises(NoPousFound):
        analyze_paths([str(tmp_path)])


def test_annotations_tag_rows(tmp_path):
    (tmp_path / "p.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    cfg = AnalysisConfig(annotations={"alpha": "legacy"})
    run = analyze_paths([str(tmp_path)], cfg)
    assert report_of(run)["pous"][0]["tag"] == "legacy"


def test_exit_code_zero_clean(corpus_sample, small_run):
    assert small_run.exit_code == 0


def test_exit_code_two_when_pou_skipped(tmp_path):
    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (tmp_path / "il.xml").write_text(
        '<?xml version="1.0"?><project><types><pous>'
        '<pou name="Legacy" pouType="program"><interface/><body><IL>LD x</IL></body></pou>'
        "</pous></types></project>"
    )
    run = analyze_paths([str(tmp_path)])
    assert run.exit_code == 2
    assert "il-body-skipped" in [w.code for w in run.warnings]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", ["PROGRAM Alpha x := 1; END_PROGRAM", "(* no POU *)"])
def test_analyze_paths_restores_the_collector_state(tmp_path, enabled, text):
    (tmp_path / "p.st").write_text(text)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            analyze_paths([str(tmp_path)])
        except NoPousFound:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_analysis_leaves_no_reference_cycles(tmp_path):
    # Pausing the cyclic collector during analysis is safe only while
    # the analysis leaves nothing for it to collect.
    (tmp_path / "bad.st").write_text("PROGRAM Bad\n  x := ;\nEND_PROGRAM\n")
    paths = [str(CORPUS), str(tmp_path)]
    analyze_paths(paths)  # warm-up: lazy imports and compiled patterns
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run = analyze_paths(paths)
        assert gc.collect() == 0
        assert run.exit_code == 2
        del run  # nor does the run, once dropped
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# ------------------------- command line -------------------------


def test_cli_writes_all_reports(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "two.st").write_text(TWO_POUS)
    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "r.csv"
    out_svg = tmp_path / "r.svg"
    code = main(
        [
            "analyze",
            str(src),
            "--json",
            str(out_json),
            "--csv",
            str(out_csv),
            "--chart",
            str(out_svg),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Beta" in captured.out
    assert "metric-dropped" in captured.err
    assert json.loads(out_json.read_text())["pous"]
    assert out_csv.read_text().startswith("name,kind,language")
    assert out_svg.read_text().startswith("<svg")


def _analyze_beside_a_closed_pipe(tmp_path, stream: str):
    """`poumetrics analyze` of one POU with one warning, with `stream`
    ("stdout" or "stderr") a pipe whose read end is closed: the process,
    the JSON report it wrote, and the JSON report of a run with both
    streams open."""
    import os
    import subprocess
    import sys

    (tmp_path / "a.st").write_text("PROGRAM A VAR x : Nope; END_VAR x := 1; END_PROGRAM\n")
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parents[1] / "src"))
    argv = [sys.executable, "-m", "poumetrics.cli", "analyze", "a.st", "--json"]
    read, write = os.pipe()
    os.close(read)
    try:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write}
        proc = subprocess.run(argv + ["e.json"], cwd=tmp_path, env=env, timeout=120, **streams)
    finally:
        os.close(write)
    subprocess.run(argv + ["open.json"], cwd=tmp_path, env=env, timeout=120, capture_output=True, check=True)
    return proc, (tmp_path / "e.json").read_bytes(), (tmp_path / "open.json").read_bytes()


def test_cli_with_stdout_closed_writes_the_reports_and_one_error_line(tmp_path):
    proc, report, expected = _analyze_beside_a_closed_pipe(tmp_path, "stdout")
    assert proc.returncode == 1
    assert report == expected
    lines = proc.stderr.decode().splitlines()
    assert lines[0].startswith("[unknown-type] a.st:A: ")
    assert lines[-1] == "error: cannot write to stdout: [Errno 32] Broken pipe"
    assert "Traceback" not in proc.stderr.decode() and "Exception ignored" not in proc.stderr.decode()


def test_cli_with_stderr_closed_writes_the_reports_and_the_table(tmp_path):
    proc, report, expected = _analyze_beside_a_closed_pipe(tmp_path, "stderr")
    assert proc.returncode == 1
    assert report == expected
    assert proc.stdout.decode().splitlines()[2].split() == ["1", "A", "ST", "100.0000"]


def test_cli_missing_path_is_fatal(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "missing")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("option", ["--json", "--csv", "--chart"])
def test_cli_report_path_in_missing_directory_is_fatal(tmp_path, capsys, option):
    (tmp_path / "two.st").write_text(TWO_POUS)
    code = main(["analyze", str(tmp_path), option, str(tmp_path / "missing" / "report")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_duplicate_pou_names_fatal(tmp_path, capsys):
    (tmp_path / "a.st").write_text("PROGRAM Same x := 1; END_PROGRAM")
    (tmp_path / "b.st").write_text("PROGRAM same y := 2; END_PROGRAM")
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "duplicate POU name" in captured.err


@pytest.mark.parametrize(
    "name, data, warning",
    [
        ("bad.st", b"PROGRAM P x := ; END_PROGRAM", "[pou-parse-error] %s:P: 1:16: unexpected ';' in expression"),
        ("bad.xml", b"<project><bad", "[xml-malformed] %s: unclosed token"),
        # Without its BOM, UTF-16 is not told from UTF-8: the NUL after P
        # is no ST character.  With its BOM, it reads as its UTF-8 text.
        (
            "utf16.st",
            "PROGRAM P x := 1; END_PROGRAM".encode("utf-16-le"),
            "[pou-parse-error] %s: 1:2: unexpected character",
        ),
    ],
    ids=["st-parse-error", "malformed-xml", "utf-16"],
)
def test_cli_prints_why_when_no_pou_survives(tmp_path, capsys, name, data, warning):
    path = tmp_path / name
    path.write_bytes(data)
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 2 and lines[0].startswith(warning % path)
    assert lines[1] == "error: no POUs found under: %s" % path


def test_cli_skip_warnings_exit_two(tmp_path, capsys):
    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (tmp_path / "broken.st").write_text("PROGRAM Bad x := ; END_PROGRAM")
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "pou-parse-error" in captured.err


@pytest.mark.parametrize("name", ["''", "' '", "' \t  '"], ids=["empty", "blank", "blanks-and-tab"])
def test_cli_skips_an_st_pou_with_an_empty_name(tmp_path, capsys, name):
    src = tmp_path / "src"
    src.mkdir()
    (src / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (src / "nameless.st").write_text("PROGRAM %s y := 1; END_PROGRAM" % name)
    out_json = tmp_path / "r.json"
    code = main(["analyze", str(src), "--json", str(out_json)])
    captured = capsys.readouterr()
    assert code == 2
    assert [p["name"] for p in json.loads(out_json.read_text())["pous"]] == ["Alpha"]
    assert "[pou-parse-error] %s: 1:1: pou without a name skipped" % (src / "nameless.st") in captured.err


def test_cli_skips_an_xml_pou_with_a_blank_name(tmp_path, capsys):
    from test_plcopen import doc, pou_xml

    st_body = '<ST><xhtml xmlns="http://www.w3.org/1999/xhtml">x := 1;</xhtml></ST>'
    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (tmp_path / "p.xml").write_text(doc(pou_xml("  ", "functionBlock", st_body) + pou_xml("Good", "program", st_body)))
    out_json = tmp_path / "r.json"
    code = main(["analyze", str(tmp_path), "--json", str(out_json)])
    captured = capsys.readouterr()
    assert code == 2
    assert [p["name"] for p in json.loads(out_json.read_text())["pous"]] == ["Alpha", "Good"]
    assert captured.err.count("[pou-parse-error]") == 1
    assert "%s: pou without a name skipped" % (tmp_path / "p.xml") in captured.err


# 4000 hex digits are about 4800 decimal ones, more than Python prints.
@pytest.mark.parametrize(
    "bounds", ["0..16#%s" % ("F" * 4000), "16#%s..0" % ("F" * 4000)], ids=["upper", "lower-exceeds-upper"]
)
def test_cli_skips_an_st_pou_whose_based_bound_is_too_long_to_print(tmp_path, capsys, bounds):
    src = tmp_path / "src"
    src.mkdir()
    (src / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (src / "big.st").write_text("PROGRAM Big VAR a : ARRAY[%s] OF BYTE; END_VAR END_PROGRAM" % bounds)
    out_json = tmp_path / "r.json"
    code = main(["analyze", str(src), "--json", str(out_json)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    assert [p["name"] for p in json.loads(out_json.read_text())["pous"]] == ["Alpha"]
    assert "pou-parse-error" in captured.err and "has too many digits" in captured.err


@pytest.mark.parametrize(
    "block",
    ["TYPE Pt : STRUCT x : INT END_STRUCT; END_TYPE", "VAR_GLOBAL g : INT := 1 END_VAR"],
    ids=["type", "var-global"],
)
def test_cli_bad_type_or_global_block_is_skipped(tmp_path, capsys, block):
    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (tmp_path / "bad.st").write_text(block)
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Alpha" in captured.out
    assert "[pou-parse-error]" in captured.err and "bad.st" in captured.err


def test_cli_nesting_2000_deep_skips_only_that_pou(tmp_path, capsys):
    from test_st_parser import deep_pous

    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    deep = deep_pous(2000)
    deep["type-block"] = "TYPE Deep : %sINT;%s END_TYPE" % ("STRUCT m : " * 2000, " END_STRUCT;" * 2000)
    for construct, text in deep.items():
        (tmp_path / ("deep_%s.st" % construct)).write_text(text)
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Alpha" in captured.out and "Deep" not in captured.out
    assert captured.err.count("nesting deeper than 100 levels") == len(deep)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("where", ["data-type", "interface"])
def test_cli_xml_type_nesting_2000_deep_skips_that_file(tmp_path, capsys, where):
    from test_plcopen import deep_type_docs

    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (tmp_path / "deep.xml").write_text(deep_type_docs(2000)[where])
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Alpha" in captured.out and "Deep" not in captured.out
    assert "[pou-parse-error]" in captured.err and "nesting deeper than 100 levels" in captured.err
    assert "Traceback" not in captured.err


def test_cli_xml_inline_nesting_2000_deep_skips_only_that_pou(tmp_path, capsys):
    from test_plcopen import deep_inline_doc

    (tmp_path / "deep.xml").write_text(deep_inline_doc(2000))
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Good" in captured.out and "Deep" not in captured.out
    assert 'deep.xml:Deep: actionBlock localId="1": nesting deeper than 100 levels' in captured.err
    assert "Traceback" not in captured.err


def test_cli_array_with_2000_dimensions(tmp_path, capsys):
    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    dims = ", ".join(["1..1"] * 2000)
    (tmp_path / "wide.st").write_text("PROGRAM Wide VAR a : ARRAY[%s] OF INT; END_VAR a := a; END_PROGRAM" % dims)
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Alpha" in captured.out and "Wide" in captured.out


def test_cli_array_of_a_billion_elements_is_counted_not_built(tmp_path, capsys):
    (tmp_path / "big.st").write_text(
        "PROGRAM Big VAR a : ARRAY[1..1000,1..1000,1..1000] OF INT; END_VAR a[1,1,1] := 1; END_PROGRAM"
    )
    out_json = tmp_path / "r.json"
    start = time.perf_counter()
    code = main(["analyze", str(tmp_path), "--json", str(out_json)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    # One local Complex variable (2) plus one per element.
    assert json.loads(out_json.read_text())["pous"][0]["m6"] == 1_000_000_002
    assert elapsed < 1.0


def test_cli_skip_warnings_name_the_path_once(tmp_path, capsys):
    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (tmp_path / "bad.st").write_text("PROGRAM Bad\nVAR x : INT; END_VAR\nx := ;\nEND_PROGRAM\n")
    (tmp_path / "x.xml").write_text("<project><unclosed></project>")
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    parse_error = [line for line in lines if line.startswith("[pou-parse-error]")]
    malformed = [line for line in lines if line.startswith("[xml-malformed]")]
    assert len(parse_error) == 1 and len(malformed) == 1
    assert parse_error[0].count("bad.st") == 1 and ": 3:6: " in parse_error[0]
    assert malformed[0].count("x.xml") == 1 and "line 1" in malformed[0]


def test_cli_body_skip_warning_names_the_pou(tmp_path, capsys):
    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (tmp_path / "bad.st").write_text("PROGRAM Bad\nx := ;\nEND_PROGRAM\n")
    out_json = tmp_path / "r.json"
    code = main(["analyze", str(tmp_path), "--json", str(out_json)])
    captured = capsys.readouterr()
    assert code == 2
    [warning] = [w for w in json.loads(out_json.read_text())["warnings"] if w["code"] == "pou-parse-error"]
    assert warning["pou"] == "Bad" and warning["path"].endswith("bad.st")
    assert "bad.st:Bad: 2:6: " in captured.err


def test_cli_type_alias_chain_2000_long(tmp_path, capsys):
    aliases = "".join("A%d : A%d; " % (i, i + 1) for i in range(2000))
    (tmp_path / "ok.st").write_text("PROGRAM Alpha x := 1; END_PROGRAM")
    (tmp_path / "chain.st").write_text(
        "TYPE %sA2000 : INT; END_TYPE PROGRAM Chained VAR x : A0; END_VAR x := 1; END_PROGRAM" % aliases
    )
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Alpha" in captured.out and "Chained" in captured.out


def test_cli_group_by_language(tmp_path, capsys):
    (tmp_path / "two.st").write_text(TWO_POUS)
    out_json = tmp_path / "r.json"
    code = main(["analyze", str(tmp_path), "--group-by-language", "--json", str(out_json)])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(out_json.read_text())
    assert obj["run"]["grouping"] == "per-language"
    assert [g["label"] for g in obj["groups"]] == ["ST"]
    assert all(row["group"] == "ST" for row in obj["pous"])


def test_cli_normalize_scales_top_to_100(tmp_path, capsys):
    (tmp_path / "two.st").write_text(TWO_POUS)
    out_json = tmp_path / "r.json"
    code = main(["analyze", str(tmp_path), "--normalize", "--json", str(out_json)])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(out_json.read_text())
    assert obj["pous"][-1]["oc_rel"] == "100.0000"


def test_cli_top_flag(tmp_path, capsys):
    (tmp_path / "two.st").write_text(TWO_POUS)
    code = main(["analyze", str(tmp_path), "--top", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Beta" in captured.out and "Alpha" not in captured.out


def test_cli_negative_top_is_fatal(tmp_path, capsys):
    (tmp_path / "two.st").write_text(TWO_POUS)
    code = main(["analyze", str(tmp_path), "--top", "-2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --top must not be negative, got -2\n"


def test_cli_top_zero_prints_the_header_only(tmp_path, capsys):
    (tmp_path / "two.st").write_text(TWO_POUS)
    code = main(["analyze", str(tmp_path), "--top", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == ["#  name  language  oc_rel  tag", "-  ----  --------  ------  ---"]


def test_cli_config_file(tmp_path, capsys):
    (tmp_path / "two.st").write_text(TWO_POUS)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"annotations": {"Beta": "hotspot"}}))
    code = main(["analyze", str(tmp_path / "two.st"), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    assert "hotspot" in captured.out


def test_cli_invalid_config_fatal(tmp_path, capsys):
    (tmp_path / "two.st").write_text(TWO_POUS)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grouping": "nope"}))
    code = main(["analyze", str(tmp_path), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "grouping" in captured.err


@pytest.mark.parametrize("exponent", [100, 101, 308])
def test_cli_bounds_the_weight_table_prices(tmp_path, capsys, exponent):
    # 10**308 once ended in an OverflowError from the chart's float widths
    price = 10**exponent
    (tmp_path / "three.st").write_text(
        "PROGRAM A VAR_INPUT s : ARRAY[0..3] OF INT; END_VAR s[0] := 1; END_PROGRAM\n"
        "PROGRAM B VAR x : INT; END_VAR x := 1; END_PROGRAM\n"
        "PROGRAM C VAR x : INT; END_VAR x := 2; END_PROGRAM\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight_table": {"interface_simple": price, "interface_complex": price}}))
    reports = [tmp_path / name for name in ("r.json", "r.csv", "r.svg")]
    argv = ["analyze", str(tmp_path / "three.st"), "--config", str(cfg)]
    for flag, path in zip(("--json", "--csv", "--chart"), reports):
        argv += [flag, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    if exponent <= 100:
        assert code == 0
        assert json.loads(reports[0].read_text())["pous"][-1]["name"] == "A"
        assert all(path.exists() for path in reports)
    else:
        assert code == 1
        assert captured.err.splitlines() == ["error: weight_table.interface_simple must be at most 10^100"]
        assert captured.out == ""


def test_cli_rejects_an_annotation_with_a_lone_surrogate(tmp_path, capsys):
    (tmp_path / "two.st").write_text(TWO_POUS)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"annotations": {"Beta": "\\ud800"}}')
    code = main(["analyze", str(tmp_path), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["error: annotation for 'Beta' holds a lone surrogate"]
    assert captured.out == ""


def test_cli_chart_replaces_characters_xml_forbids(tmp_path, capsys):
    import xml.etree.ElementTree as ET

    from test_chart import data_rects

    (tmp_path / "q.st").write_text("PROGRAM 'a\x01b' x := 1; END_PROGRAM", encoding="utf-8")
    out_svg = tmp_path / "r.svg"
    code = main(["analyze", str(tmp_path), "--chart", str(out_svg)])
    capsys.readouterr()
    assert code == 0
    root = ET.fromstring(out_svg.read_text(encoding="utf-8"))
    assert {r.get("data-pou") for r in data_rects(root)} == {"a\ufffdb"}


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "poumetrics" in capsys.readouterr().out


def test_report_bytes_match_golden_digests():
    # The digests were written by tests/golden_reports.py; a change that
    # means to alter a report rewrites them with that script.
    assert report_digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))
