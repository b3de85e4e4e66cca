"""Stacked-bar SVG rendering of a ranked sample.

Each POU gets one horizontal bar; the bar's segments are the weighted
per-metric contributions, so segment lengths sum to the reported overall
value.  Segments are colored by complexity class; the two vocabulary and
difficulty segments share the class hue in two shades.  Output is plain
deterministic text: same run, same bytes.
"""

from __future__ import annotations

import io
import re

from .aggregate import Score, metric_ratios
from .metrics import METRIC_CLASSES, METRIC_KEYS
from .report import RunResult

# One fill per metric, grouped visually by complexity class.
METRIC_FILLS = (
    "#4e79a7",  # program length: size
    "#f28e2b",  # cyclomatic: control flow
    "#e15759",  # information flow
    "#76b7b2",  # vocabulary: software science, light shade
    "#4c908c",  # difficulty: software science, dark shade
    "#59a14f",  # declaration weight: data structure
)

_PX_PER_PERCENT = 3.0
_BAR_HEIGHT = 18
_BAR_GAP = 8
_LEFT_MARGIN = 220
_TOP_MARGIN = 20
_LEGEND_HEIGHT = 70
_RIGHT_PAD = 40


def _esc(text: str) -> str:
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    if not text.isprintable():
        # XML 1.0 forbids these characters anywhere in a document, even escaped.
        text = re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", "\ufffd", text)
    return text


# One rect per metric, with %-slots for the POU's name, x, y and width.
_RECTS = tuple(
    '<rect data-pou="%%s" data-metric="%s" x="%%.4f" y="%%s" width="%%.4f" height="%.4f" fill="%s"/>\n'
    % (key, _BAR_HEIGHT, fill)
    for key, fill in zip(METRIC_KEYS, METRIC_FILLS)
)


def _bar(score: Score) -> tuple[str, int, float]:
    """The text of the bar of the POUs that share `score`, with %-slots
    for the y of its label, the label, the name and y of each segment,
    and the y of its total; the number of segments; and the total.  Only
    the name and the position differ between those POUs.  Every y is a
    whole number, so its slot "%d.0000" writes it as "%.4f" does."""
    scoring = score.scoring
    c, scale = scoring.coefficients, scoring.scale
    sn, den = scale.numerator, c.denominator * scale.denominator
    parts = ['<text x="%.4f" y="%%d.0000" text-anchor="end">%%s</text>\n' % (_LEFT_MARGIN - 8)]
    x = float(_LEFT_MARGIN)
    # int / int is correctly rounded, so this is float(segment(i)).
    for rect, (n, d), k in zip(_RECTS, metric_ratios(score.key), c.weighted):
        seg = k * n * sn / (den * d) * _PX_PER_PERCENT
        if seg <= 0:
            continue
        parts.append(rect % ("%s", x, "%d.0000", seg))
        x += seg
    # int / int is correctly rounded, so this is float(oc_rel).
    total = score.overall[0] / score.overall[1]
    parts.append('<text x="%.4f" y="%%d.0000">%.1f</text>\n' % (x + 6, total))
    return "".join(parts), len(parts) - 2, total


def write_chart(run: RunResult, out) -> None:
    """Write the run's ranking as a standalone SVG document to `out`, one
    bar at a time.  The POUs that share a Score share their bar's text."""
    ranking = run.ranking
    bars = {score: _bar(score) for score in dict.fromkeys(ranking.scores)}
    count = len(ranking.rows)
    span = max(max((total for _, _, total in bars.values()), default=0.0), 100.0)
    width = _LEFT_MARGIN + span * _PX_PER_PERCENT + _RIGHT_PAD
    height = _TOP_MARGIN + count * (_BAR_HEIGHT + _BAR_GAP) + _LEGEND_HEIGHT
    out.write(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.4f" height="%.4f" '
        'viewBox="0 0 %.4f %.4f" font-family="sans-serif" font-size="12">\n' % (width, height, width, height)
    )
    out.write('<rect x="0" y="0" width="%.4f" height="%.4f" fill="#ffffff"/>\n' % (width, height))

    for row_index, (row, score) in enumerate(zip(ranking.rows, ranking.scores)):
        y = _TOP_MARGIN + row_index * (_BAR_HEIGHT + _BAR_GAP)
        text_y = y + _BAR_HEIGHT - 5
        name = _esc(row[0])
        label = _esc("%s [%s]" % (row[0], row[10])) if row[10] else name
        text, segments, _ = bars[score]
        out.write(text % ((text_y, label) + (name, y) * segments + (text_y,)))

    # Reference line where a bar exactly matches the group medians.
    bars_bottom = _TOP_MARGIN + count * (_BAR_HEIGHT + _BAR_GAP)
    ref_x = _LEFT_MARGIN + 100.0 * _PX_PER_PERCENT
    out.write(
        '<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" stroke="#555555" stroke-dasharray="4 3"/>\n'
        % (ref_x, _TOP_MARGIN - 6, ref_x, bars_bottom)
    )
    out.write(
        '<text x="%.4f" y="%.4f" text-anchor="middle" fill="#555555">100</text>\n' % (ref_x, bars_bottom + 14)
    )

    legend_y = bars_bottom + 28
    x = float(_LEFT_MARGIN)
    drawn: set[str] = set()
    for metric_index, key in enumerate(METRIC_KEYS):
        cls = METRIC_CLASSES[key]
        label = cls if cls not in drawn else None
        drawn.add(cls)
        out.write(
            '<rect x="%.4f" y="%.4f" width="12" height="12" fill="%s"/>\n' % (x, legend_y, METRIC_FILLS[metric_index])
        )
        x += 16.0
        if label is not None:
            out.write('<text x="%.4f" y="%.4f">%s</text>\n' % (x, legend_y + 11, _esc(label)))
            x += 9.0 * len(label) + 18.0
    out.write("</svg>\n")


def render_chart(run: RunResult) -> str:
    """The SVG document that `write_chart` writes, as one string."""
    out = io.StringIO()
    write_chart(run, out)
    return out.getvalue()
