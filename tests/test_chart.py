"""SVG chart rendering: structure, geometry, determinism."""

from __future__ import annotations

import xml.etree.ElementTree as ET

from poumetrics import COMPLEXITY_CLASSES, render_chart
from poumetrics.chart import METRIC_FILLS

SVG_NS = "{http://www.w3.org/2000/svg}"
PX_PER_PERCENT = 3.0


def data_rects(root):
    return [el for el in root.iter(SVG_NS + "rect") if el.get("data-pou")]


def test_chart_is_well_formed_xml(corpus_run):
    root = ET.fromstring(render_chart(corpus_run.results))
    assert root.tag == SVG_NS + "svg"


def test_every_bar_row_has_its_pou(corpus_run):
    root = ET.fromstring(render_chart(corpus_run.results))
    names = {r.get("data-pou") for r in data_rects(root)}
    assert names == {r.name for r in corpus_run.results}


def test_segments_carry_metric_attribute(corpus_run):
    root = ET.fromstring(render_chart(corpus_run.results))
    metrics = {r.get("data-metric") for r in data_rects(root)}
    assert metrics <= {"program_length", "cyclomatic", "fifo", "vocabulary", "difficulty", "data_structure"}
    assert "program_length" in metrics


def test_segment_widths_match_weighted_contributions(corpus_run):
    root = ET.fromstring(render_chart(corpus_run.results))
    by_pou = {r.name: r for r in corpus_run.results}
    keys = ("program_length", "cyclomatic", "fifo", "vocabulary", "difficulty", "data_structure")
    checked = 0
    for rect in data_rects(root):
        result = by_pou[rect.get("data-pou")]
        index = keys.index(rect.get("data-metric"))
        expected = float(result.segment(index)) * PX_PER_PERCENT
        got = float(rect.get("width"))
        assert abs(got - expected) <= max(expected, 1.0) * 1e-4
        checked += 1
    assert checked >= 6 * len(by_pou) - 6  # a few zero segments may be omitted


def test_segments_of_a_bar_sum_to_its_total(corpus_run):
    root = ET.fromstring(render_chart(corpus_run.results))
    widths: dict[str, float] = {}
    for rect in data_rects(root):
        widths[rect.get("data-pou")] = widths.get(rect.get("data-pou"), 0.0) + float(rect.get("width"))
    for result in corpus_run.results:
        expected = float(result.oc_rel) * PX_PER_PERCENT
        assert abs(widths[result.name] - expected) < 0.01


def test_reference_line_sits_at_100_percent(corpus_run):
    root = ET.fromstring(render_chart(corpus_run.results))
    (line,) = list(root.iter(SVG_NS + "line"))
    assert float(line.get("x1")) == 220 + 100.0 * PX_PER_PERCENT
    assert line.get("stroke-dasharray")


def test_legend_names_every_complexity_class(corpus_run):
    text = render_chart(corpus_run.results)
    for cls in COMPLEXITY_CLASSES:
        assert ">%s<" % cls in text
    # the two software-science shades both appear
    assert METRIC_FILLS[3] in text and METRIC_FILLS[4] in text
    assert METRIC_FILLS[3] != METRIC_FILLS[4]


def test_labels_are_escaped():
    # a name with markup characters must not break the document
    from fractions import Fraction

    from poumetrics import Language, MetricVector, PouKind
    from poumetrics.aggregate import Coefficients, PouResult

    vec = MetricVector(1, 1, 1, 1, Fraction(1), 1)
    result = PouResult(
        name="A<B>&\"C\"",
        kind=PouKind.PROGRAM,
        language=Language.ST,
        vector=vec,
        group="all",
        # each metric at its median of 1, so at 100%, weighted 1/6 each
        coefficients=Coefficients(
            weights=tuple([Fraction(1, 6)] * 6), percent=((100, 1),) * 6, weighted=(50,) * 6, denominator=3
        ),
        oc_rel=Fraction(100),
        scale=Fraction(1),
    )
    root = ET.fromstring(render_chart([result]))
    assert data_rects(root)[0].get("data-pou") == 'A<B>&"C"'


def test_chart_bytes_deterministic(corpus_run):
    assert render_chart(corpus_run.results) == render_chart(corpus_run.results)


def test_empty_chart_still_renders():
    root = ET.fromstring(render_chart([]))
    assert root.tag == SVG_NS + "svg"
