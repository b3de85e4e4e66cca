"""SVG chart rendering: structure, geometry, determinism."""

from __future__ import annotations

import xml.etree.ElementTree as ET

from poumetrics import COMPLEXITY_CLASSES, render_chart
from poumetrics.aggregate import Ranking
from poumetrics.chart import METRIC_FILLS
from poumetrics.report import RunResult

import reference

SVG_NS = "{http://www.w3.org/2000/svg}"
PX_PER_PERCENT = 3.0


def data_rects(root):
    return [el for el in root.iter(SVG_NS + "rect") if el.get("data-pou")]


def chart_widths(run) -> dict[str, list[str]]:
    """The width of each drawn segment, per POU, in drawing order."""
    widths: dict[str, list[str]] = {}
    for rect in data_rects(ET.fromstring(render_chart(run))):
        widths.setdefault(rect.get("data-pou"), []).append(rect.get("width"))
    return widths


def reference_widths(pou) -> list[str]:
    """The widths the chart draws for the segments of a POU of
    `reference.rank`: 3 px per percent, a segment that is not positive
    left out."""
    return ["%.4f" % (float(segment) * PX_PER_PERCENT) for segment in pou.segments if segment > 0]


def reference_pous(run) -> dict:
    """The POUs of `reference.rank` of the run's rows, by name, for a run
    of the default configuration."""
    return {pou.name: pou for pou in reference.rank(run.ranking.rows).pous}


def test_chart_is_well_formed_xml(corpus_run):
    root = ET.fromstring(render_chart(corpus_run))
    assert root.tag == SVG_NS + "svg"


def test_every_bar_row_has_its_pou(corpus_run):
    root = ET.fromstring(render_chart(corpus_run))
    names = {r.get("data-pou") for r in data_rects(root)}
    assert names == {row[0] for row in corpus_run.ranking.rows}


def test_segments_carry_metric_attribute(corpus_run):
    root = ET.fromstring(render_chart(corpus_run))
    metrics = {r.get("data-metric") for r in data_rects(root)}
    assert metrics <= {"program_length", "cyclomatic", "fifo", "vocabulary", "difficulty", "data_structure"}
    assert "program_length" in metrics


def test_segment_widths_match_weighted_contributions(corpus_run):
    by_pou = reference_pous(corpus_run)
    keys = ("program_length", "cyclomatic", "fifo", "vocabulary", "difficulty", "data_structure")
    for rect in data_rects(ET.fromstring(render_chart(corpus_run))):
        segment = by_pou[rect.get("data-pou")].segments[keys.index(rect.get("data-metric"))]
        assert rect.get("width") == "%.4f" % (float(segment) * PX_PER_PERCENT)
    # every positive segment is drawn, in metric order
    assert chart_widths(corpus_run) == {name: reference_widths(pou) for name, pou in by_pou.items()}


def test_segments_of_a_bar_sum_to_its_total(corpus_run):
    root = ET.fromstring(render_chart(corpus_run))
    widths: dict[str, float] = {}
    for rect in data_rects(root):
        widths[rect.get("data-pou")] = widths.get(rect.get("data-pou"), 0.0) + float(rect.get("width"))
    for name, pou in reference_pous(corpus_run).items():
        expected = float(pou.oc_rel) * PX_PER_PERCENT
        assert abs(widths[name] - expected) < 0.01


def test_reference_line_sits_at_100_percent(corpus_run):
    root = ET.fromstring(render_chart(corpus_run))
    (line,) = list(root.iter(SVG_NS + "line"))
    assert float(line.get("x1")) == 220 + 100.0 * PX_PER_PERCENT
    assert line.get("stroke-dasharray")


def test_legend_names_every_complexity_class(corpus_run):
    text = render_chart(corpus_run)
    for cls in COMPLEXITY_CLASSES:
        assert ">%s<" % cls in text
    # the two software-science shades both appear
    assert METRIC_FILLS[3] in text and METRIC_FILLS[4] in text
    assert METRIC_FILLS[3] != METRIC_FILLS[4]


def test_labels_are_escaped():
    # a name with markup characters must not break the document
    from fractions import Fraction

    from poumetrics import Language, MetricVector, PouKind, aggregate, sample_row

    row = sample_row('A<B>&"C"', PouKind.PROGRAM, Language.ST, MetricVector(1, 1, 1, 1, Fraction(1), 1))
    root = ET.fromstring(render_chart(RunResult(aggregate([row]), [])))
    assert data_rects(root)[0].get("data-pou") == 'A<B>&"C"'


def test_chart_bytes_deterministic(corpus_run):
    assert render_chart(corpus_run) == render_chart(corpus_run)


def test_empty_chart_still_renders():
    root = ET.fromstring(render_chart(RunResult(Ranking([], [], [], []), [])))
    assert root.tag == SVG_NS + "svg"
