"""An independent reference for the ranking and its reports.

It ranks `sample_row`s the slow, obvious way: every value a Fraction,
built per POU and metric from the definitions (median per metric,
100 * value / median, weighted sum, a zero median drops its metric and
rescales the remaining weights, the optional scale that puts the top
value at 100), then formats the report cells with its own half-to-even
rounding and assembles the JSON report object.

It imports nothing from `poumetrics.aggregate`, `poumetrics.report` or
`poumetrics.chart` (tests/test_reference.py checks that) and restates
the default weight profiles, so a test that compares the package's
rows, cells, JSON or SVG against it never compares the code with
itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from poumetrics import __version__
from poumetrics.errors import AnalysisWarning, EmptySample, WeightSumViolation
from poumetrics.metrics import METRIC_KEYS

F = Fraction
UNIFORM = (F(1, 6),) * 6
SFC = (F(4, 12), F(4, 12), F(1, 12), F(1, 12), F(1, 12), F(1, 12))
METRIC_COLUMNS = ("m1", "m2", "m3", "m4", "m5", "m6")
CELL_COLUMNS = METRIC_COLUMNS + ("c1", "c2", "c3", "c4", "c5", "c6", "oc_rel")


def fmt4(value) -> str:
    """`value` with four fractional digits, ties to the even neighbour
    (round of a Fraction rounds half to even)."""
    q = round(F(value) * 10000)
    return "%s%d.%04d" % ("-" if q < 0 else "", *divmod(abs(q), 10000))


def median(values: list) -> Fraction:
    if not values:
        raise EmptySample("cannot aggregate an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return F(ordered[mid])
    return F(ordered[mid - 1] + ordered[mid]) / 2


def vector_of(row: tuple) -> tuple[Fraction, ...]:
    """The six metrics of a `sample_row`: m1..m4 at 3..6, the difficulty
    as numerator and denominator at 7 and 8, m6 at 9."""
    m1, m2, m3, m4, p, q, m6 = row[3:10]
    return (F(m1), F(m2), F(m3), F(m4), F(p, q), F(m6))


def group_stats(label: str, vectors: list) -> tuple[tuple, list[AnalysisWarning]]:
    """(label, size, medians, excluded) of a group, which compares equal
    to the package's GroupStats, and its metric-dropped warnings."""
    medians = tuple(median(list(column)) for column in zip(*vectors))
    excluded = frozenset(i for i, m in enumerate(medians) if m == 0)
    warnings = [
        AnalysisWarning(
            code="metric-dropped",
            message="median of %s is zero in group %r; the metric is dropped for this group and the remaining weights are rescaled"
            % (METRIC_KEYS[i], label),
        )
        for i in sorted(excluded)
    ]
    return (label, len(vectors), medians, excluded), warnings


def relative_vector(vector, medians, excluded) -> tuple[Fraction | None, ...]:
    """Each metric as a percent of its group median, None when dropped."""
    return tuple(None if i in excluded else 100 * v / medians[i] for i, v in enumerate(vector))


def effective_weights(weights, excluded) -> tuple[Fraction, ...]:
    if not excluded:
        return tuple(weights)
    active_sum = sum((w for i, w in enumerate(weights) if i not in excluded), F(0))
    if active_sum == 0:
        raise WeightSumViolation("all remaining metric weights are zero after dropping degenerate metrics")
    return tuple(F(0) if i in excluded else w / active_sum for i, w in enumerate(weights))


def overall(relative, weights) -> Fraction:
    return sum((w * rel for rel, w in zip(relative, weights) if rel is not None), F(0))


class Pou(NamedTuple):
    """One ranked POU: its row's name, kind, language and tag, its group,
    its metrics, relative values (unscaled) and effective weights, the
    scale, and the reported overall value and chart segments (scaled)."""

    name: str
    kind: str
    language: str
    tag: str
    group: str
    vector: tuple[Fraction, ...]
    relative: tuple[Fraction | None, ...]
    weights: tuple[Fraction, ...]
    scale: Fraction
    oc_rel: Fraction
    segments: tuple[Fraction, ...]

    @property
    def cells(self) -> tuple:
        """The report cells m1..m6, c1..c6 and oc_rel: the metrics as ints
        but the difficulty as text, each relative value scaled as the
        overall value is (None when dropped), and the overall value."""
        m1, m2, m3, m4, m5, m6 = self.vector
        relative = (None if rel is None else fmt4(rel * self.scale) for rel in self.relative)
        return (int(m1), int(m2), int(m3), int(m4), fmt4(m5), int(m6), *relative, fmt4(self.oc_rel))

    def entry(self) -> dict:
        """The POU's entry in the `pous` list of the JSON report."""
        return {
            "name": self.name,
            "kind": self.kind,
            "language": self.language,
            **dict(zip(CELL_COLUMNS, self.cells)),
            "group": self.group,
            "tag": self.tag,
        }


class Ranked(NamedTuple):
    pous: list[Pou]  # ascending by oc_rel, ties by name
    stats: list[tuple]  # group_stats per group, by label
    warnings: list[AnalysisWarning]


def rank(rows: list[tuple], grouping: str = "whole-sample", profiles: dict | None = None, normalize: bool = False) -> Ranked:
    """Rank `sample_row`s.  `grouping` is "whole-sample" or
    "per-language"; `profiles` maps a language value ("ST", "SFC", ...)
    to its six weights, SFC to SFC and every other language to UNIFORM
    by default."""
    if not rows:
        raise EmptySample("cannot aggregate an empty sample")
    profiles = profiles or {}
    buckets: dict[str, list] = {}
    for row in rows:
        buckets.setdefault("all" if grouping == "whole-sample" else row[2], []).append(row)
    stats_by_label = {}
    warnings = []
    for label in sorted(buckets):
        stats_by_label[label], ws = group_stats(label, [vector_of(row) for row in buckets[label]])
        warnings.extend(ws)
    raw = []
    for label, bucket in buckets.items():
        _, _, medians, excluded = stats_by_label[label]
        for row in bucket:
            weights = effective_weights(profiles.get(row[2], SFC if row[2] == "SFC" else UNIFORM), excluded)
            relative = relative_vector(vector_of(row), medians, excluded)
            raw.append((row, label, relative, weights, overall(relative, weights)))
    scale = F(1)
    top = max(r[4] for r in raw)
    if normalize and top > 0:
        scale = 100 / top
    pous = [
        Pou(
            row[0], row[1], row[2], row[10], label, vector_of(row), relative, weights, scale, oc * scale,
            tuple(F(0) if rel is None else w * rel * scale for rel, w in zip(relative, weights)),
        )
        for row, label, relative, weights, oc in raw
    ]
    pous.sort(key=lambda pou: (pou.oc_rel, pou.name))
    return Ranked(pous, [stats_by_label[label] for label in sorted(stats_by_label)], warnings)


def report(ranked: Ranked, grouping: str = "whole-sample", load_warnings: list = ()) -> dict:
    """The JSON report object of a run that ranked as `ranked`, whose
    load gave `load_warnings`."""
    return {
        "run": {"tool": "poumetrics", "version": __version__, "pou_count": len(ranked.pous), "grouping": grouping},
        "pous": [pou.entry() for pou in ranked.pous],
        "groups": [
            {
                "label": label,
                "size": size,
                "medians": {col: fmt4(m) for col, m in zip(METRIC_COLUMNS, medians)},
                "excluded": [METRIC_COLUMNS[i] for i in sorted(excluded)],
            }
            for label, size, medians, excluded in ranked.stats
        ],
        "warnings": [
            {"code": w.code, "message": w.message, "path": w.path, "pou": w.pou}
            for w in [*load_warnings, *ranked.warnings]
        ],
    }
