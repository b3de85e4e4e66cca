"""Stacked-bar SVG rendering of a ranked sample.

Each POU gets one horizontal bar; the bar's segments are the weighted
per-metric contributions, so segment lengths sum to the reported overall
value.  Segments are colored by complexity class; the two vocabulary and
difficulty segments share the class hue in two shades.  Output is plain
deterministic text: same results, same bytes.
"""

from __future__ import annotations

import re

from .aggregate import PouResult
from .metrics import METRIC_CLASSES, METRIC_KEYS

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


def render_chart(results: list[PouResult]) -> str:
    """Render the ranked results as a standalone SVG document."""
    rows = list(results)
    # int / int is correctly rounded, so these are float(r.oc_rel).
    totals = [r.oc_rel.numerator / r.oc_rel.denominator for r in rows]
    span = max(max(totals, default=0.0), 100.0)
    width = _LEFT_MARGIN + span * _PX_PER_PERCENT + _RIGHT_PAD
    height = _TOP_MARGIN + len(rows) * (_BAR_HEIGHT + _BAR_GAP) + _LEGEND_HEIGHT

    out: list[str] = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.4f" height="%.4f" '
        'viewBox="0 0 %.4f %.4f" font-family="sans-serif" font-size="12">' % (width, height, width, height)
    )
    out.append('<rect x="0" y="0" width="%.4f" height="%.4f" fill="#ffffff"/>' % (width, height))

    bars_bottom = _TOP_MARGIN + len(rows) * (_BAR_HEIGHT + _BAR_GAP)
    rects = [
        '<rect data-pou="%%s" data-metric="%s" x="%%.4f" y="%%s" width="%%.4f" height="%.4f" fill="%s"/>'
        % (key, _BAR_HEIGHT, fill)
        for key, fill in zip(METRIC_KEYS, METRIC_FILLS)
    ]
    for row_index, (result, total) in enumerate(zip(rows, totals)):
        y = _TOP_MARGIN + row_index * (_BAR_HEIGHT + _BAR_GAP)
        name, bar_y = _esc(result.name), "%.4f" % y
        label = _esc("%s [%s]" % (result.name, result.tag)) if result.tag else name
        out.append(
            '<text x="%.4f" y="%.4f" text-anchor="end">%s</text>' % (_LEFT_MARGIN - 8, y + _BAR_HEIGHT - 5, label)
        )
        c, scale = result.coefficients, result.scale
        sn, den = scale.numerator, c.denominator * scale.denominator
        x = float(_LEFT_MARGIN)
        # int / int is correctly rounded, so this is float(segment(i)).
        for rect, value, k in zip(rects, result.vector, c.weighted):
            seg = k * value.numerator * sn / (den * value.denominator) * _PX_PER_PERCENT
            if seg <= 0:
                continue
            out.append(rect % (name, x, bar_y, seg))
            x += seg
        out.append('<text x="%.4f" y="%.4f">%.1f</text>' % (x + 6, y + _BAR_HEIGHT - 5, total))

    # Reference line where a bar exactly matches the group medians.
    ref_x = _LEFT_MARGIN + 100.0 * _PX_PER_PERCENT
    out.append(
        '<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" stroke="#555555" stroke-dasharray="4 3"/>'
        % (ref_x, _TOP_MARGIN - 6, ref_x, bars_bottom)
    )
    out.append(
        '<text x="%.4f" y="%.4f" text-anchor="middle" fill="#555555">100</text>' % (ref_x, bars_bottom + 14)
    )

    legend_y = bars_bottom + 28
    x = float(_LEFT_MARGIN)
    drawn: set[str] = set()
    for metric_index, key in enumerate(METRIC_KEYS):
        cls = METRIC_CLASSES[key]
        label = cls if cls not in drawn else None
        drawn.add(cls)
        out.append(
            '<rect x="%.4f" y="%.4f" width="12" height="12" fill="%s"/>' % (x, legend_y, METRIC_FILLS[metric_index])
        )
        x += 16.0
        if label is not None:
            out.append('<text x="%.4f" y="%.4f">%s</text>' % (x, legend_y + 11, _esc(label)))
            x += 9.0 * len(label) + 18.0
    out.append("</svg>\n")
    return "\n".join(out)
