"""Sample aggregation: medians, median-relative values and the weighted
overall complexity per POU.

Every quantity here is exact; rendering to decimal strings happens only
at the report boundary.  The overall value of a POU is the weighted sum
of its six median-relative percentages; a metric whose sample median is
zero carries no information for the group and is dropped for the whole
group, with the remaining weights rescaled so they still sum to exactly
1.

Each group folds its medians and effective weights into integer
coefficients over one common denominator (`Coefficients`), so a POU's
overall value is one integer sum and one Fraction.  Its relative values
and chart segments come from the same integers when they are asked for.

Ranking and medians order exact values through `exact_order`: one sort
on (float, value), where floats never contradict the exact order and
values are compared only where their floats tie.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import AnalysisWarning, EmptySample, WeightSumViolation
from .ir import Language, PouKind
from .metrics import METRIC_KEYS, MetricVector


def _short(value: Fraction) -> str:
    """`value` for a message, as its power of ten once it is too long to
    read (past 4300 digits Python refuses to print it at all)."""
    bits = abs(value.numerator).bit_length(), value.denominator.bit_length()
    return str(value) if sum(bits) <= 128 else "about 10^%d" % round((bits[0] - bits[1]) * 0.30103)


class _ProfileFields(NamedTuple):
    weights: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]


class WeightProfile(_ProfileFields):
    """Six non-negative metric weights summing to exactly 1, checked
    whenever a profile is built, by `_make` and `_replace` too."""

    __slots__ = ()

    def __new__(cls, weights: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]):
        if len(weights) != len(METRIC_KEYS):
            raise WeightSumViolation("a weight profile needs %d entries" % len(METRIC_KEYS))
        if any(w < 0 for w in weights):
            raise WeightSumViolation("metric weights must be non-negative")
        total = sum(weights, Fraction(0))
        if total != 1:
            raise WeightSumViolation("metric weights sum to %s, expected exactly 1" % _short(total))
        return super().__new__(cls, weights)

    @classmethod
    def _make(cls, values) -> "WeightProfile":
        return cls(*values)

    @staticmethod
    def of(*values) -> "WeightProfile":
        return WeightProfile(tuple(Fraction(v) for v in values))


UNIFORM_PROFILE = WeightProfile.of(*([Fraction(1, 6)] * 6))

# Sequential charts lean on length and branching, so those two metrics
# dominate; the remaining four share the rest evenly.
SFC_PROFILE = WeightProfile.of(
    Fraction(4, 12), Fraction(4, 12), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)
)


def default_profile(language: Language) -> WeightProfile:
    return SFC_PROFILE if language is Language.SFC else UNIFORM_PROFILE


class Grouping(Enum):
    WHOLE_SAMPLE = "whole-sample"
    PER_LANGUAGE = "per-language"


class SampleEntry(NamedTuple):
    name: str
    kind: PouKind
    language: Language
    vector: MetricVector
    tag: str = ""


class GroupStats(NamedTuple):
    label: str
    size: int
    medians: tuple[Fraction, ...]
    excluded: frozenset[int]  # metric indexes whose median is zero


# ------------------------- ordering and medians -------------------------


def exact_order(values: list) -> list[int]:
    """The indexes of `values` (ints and Fractions) in ascending order of
    value, equal values in their given order: what
    `sorted(range(len(values)), key=values.__getitem__)` returns, without
    a Python-level Fraction compare per pair.

    Python's int / int is correctly rounded, hence monotonic, so sorting
    on numerator / denominator never puts a larger value before a smaller
    one.  One sort, keyed on (float, value), lets the float decide and
    compares values exactly only where their floats tie.  The cost does
    not grow with the size of the values, as a key over a common
    denominator would."""
    indexes = range(len(values))
    if all(type(v) is int for v in values):
        return sorted(indexes, key=values.__getitem__)
    try:
        keys = [(v.numerator / v.denominator, v) for v in values]
    except OverflowError:  # a value past the float range
        return sorted(indexes, key=values.__getitem__)
    return sorted(indexes, key=keys.__getitem__)


def median_of(values: list) -> Fraction:
    """Sample median of ints or Fractions, as a Fraction; ties of even
    length average the middle pair."""
    if not values:
        raise EmptySample("cannot take the median of an empty sample")
    order = exact_order(values)
    mid = len(order) // 2
    if len(order) % 2:
        return Fraction(values[order[mid]])
    return Fraction(values[order[mid - 1]] + values[order[mid]], 2)


def compute_medians(vectors: list[MetricVector]) -> tuple[Fraction, ...]:
    if not vectors:
        raise EmptySample("cannot aggregate an empty sample")
    return tuple(median_of(list(column)) for column in zip(*vectors))


def group_stats(label: str, vectors: list[MetricVector]) -> tuple[GroupStats, list[AnalysisWarning]]:
    medians = compute_medians(vectors)
    excluded = frozenset(i for i, m in enumerate(medians) if m == 0)
    warnings = [
        AnalysisWarning(
            code="metric-dropped",
            message="median of %s is zero in group %r; the metric is dropped for this group and the remaining weights are rescaled"
            % (METRIC_KEYS[i], label),
        )
        for i in sorted(excluded)
    ]
    return GroupStats(label, len(vectors), medians, excluded), warnings


# ------------------------- integer coefficients -------------------------


def effective_weights(profile: WeightProfile, excluded: frozenset[int]) -> tuple[Fraction, ...]:
    """Zero the dropped metrics and rescale the rest to sum to exactly 1."""
    if not excluded:
        return profile.weights
    active_sum = sum((w for i, w in enumerate(profile.weights) if i not in excluded), Fraction(0))
    if active_sum == 0:
        raise WeightSumViolation("all remaining metric weights are zero after dropping degenerate metrics")
    return tuple(
        Fraction(0) if i in excluded else w / active_sum for i, w in enumerate(profile.weights)
    )


class Coefficients(NamedTuple):
    """What a group ranks its POUs by under one effective weight profile,
    as integers.  A POU whose metric i has the value v stands at
    v * percent[i][0] / percent[i][1] percent of the group median, and
    that percentage times the metric's weight is v * weighted[i] /
    denominator.  A dropped metric has None in percent and 0 in
    weighted."""

    weights: tuple[Fraction, ...]  # the effective (renormalized) profile
    percent: tuple[tuple[int, int] | None, ...]
    weighted: tuple[int, ...]
    denominator: int

    @staticmethod
    def of(stats: GroupStats, profile: WeightProfile) -> "Coefficients":
        weights = effective_weights(profile, stats.excluded)
        rates = [
            None if i in stats.excluded else Fraction(100) * w / m
            for i, (w, m) in enumerate(zip(weights, stats.medians))
        ]
        denominator = math.lcm(*(r.denominator for r in rates if r is not None))
        return Coefficients(
            weights=weights,
            percent=tuple(
                None if i in stats.excluded else (100 * m.denominator, m.numerator)
                for i, m in enumerate(stats.medians)
            ),
            weighted=tuple(0 if r is None else r.numerator * (denominator // r.denominator) for r in rates),
            denominator=denominator,
        )

    def overall(self, vector: MetricVector) -> Fraction:
        """The weighted sum of the vector's relative values.  Only the
        difficulty p/q is a fraction, so the sum of the other terms is
        multiplied through by q and the result is one Fraction."""
        m1, m2, m3, m4, difficulty, m6 = vector
        k1, k2, k3, k4, k5, k6 = self.weighted
        q = difficulty.denominator
        num = (k1 * m1 + k2 * m2 + k3 * m3 + k4 * m4 + k6 * m6) * q + k5 * difficulty.numerator
        return Fraction(num, q * self.denominator)


class PouResult(NamedTuple):
    name: str
    kind: PouKind
    language: Language
    vector: MetricVector
    group: str
    coefficients: Coefficients  # shared by the group's POUs of one profile
    oc_rel: Fraction  # reported overall value (scaled when normalization is on)
    scale: Fraction = Fraction(1)  # normalization factor applied to oc_rel and segments
    tag: str = ""

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The effective (renormalized) weight profile."""
        return self.coefficients.weights

    @property
    def relative(self) -> tuple[Fraction | None, ...]:
        """Each metric as a percent of its group median, None when dropped."""
        return tuple(
            None if p is None else Fraction(value.numerator * p[0], value.denominator * p[1])
            for value, p in zip(self.vector, self.coefficients.percent)
        )

    def segment(self, index: int) -> Fraction:
        """Contribution of one metric to the reported overall value."""
        value = self.vector[index]
        return Fraction(
            self.coefficients.weighted[index] * value.numerator * self.scale.numerator,
            self.coefficients.denominator * self.scale.denominator * value.denominator,
        )


# ------------------------- whole-sample driver -------------------------


def aggregate(
    entries: list[SampleEntry],
    grouping: Grouping = Grouping.WHOLE_SAMPLE,
    profiles: dict[Language, WeightProfile] | None = None,
    normalize: bool = False,
) -> tuple[list[PouResult], list[GroupStats], list[AnalysisWarning]]:
    """Rank a sample of POUs by overall relative complexity.

    Returns results sorted ascending by the reported value (ties broken
    by name), the per-group statistics, and any degenerate-median
    warnings.
    """
    if not entries:
        raise EmptySample("cannot aggregate an empty sample")
    profiles = profiles or {}

    if grouping is Grouping.WHOLE_SAMPLE:
        buckets = {"all": list(entries)}
    else:
        buckets = {}
        for entry in entries:
            buckets.setdefault(entry.language.value, []).append(entry)

    warnings: list[AnalysisWarning] = []
    stats_by_label: dict[str, GroupStats] = {}
    for label in sorted(buckets):
        stats, ws = group_stats(label, [e.vector for e in buckets[label]])
        stats_by_label[label] = stats
        warnings.extend(ws)

    ranked: list[tuple[Fraction, SampleEntry, str, Coefficients]] = []
    for label, bucket in buckets.items():
        stats = stats_by_label[label]
        by_language: dict[Language, Coefficients] = {}
        for entry in bucket:
            coefficients = by_language.get(entry.language)
            if coefficients is None:
                profile = profiles.get(entry.language, default_profile(entry.language))
                coefficients = by_language[entry.language] = Coefficients.of(stats, profile)
            ranked.append((coefficients.overall(entry.vector), entry, label, coefficients))

    # By name first, so equal values keep name order in the stable sort.
    ranked.sort(key=lambda r: r[1].name)
    ranked = [ranked[i] for i in exact_order([r[0] for r in ranked])]

    scale = Fraction(1)
    if normalize and ranked[-1][0] > 0:
        scale = Fraction(100) / ranked[-1][0]
        ranked = [(oc * scale, *rest) for oc, *rest in ranked]
    results = [
        PouResult(entry.name, entry.kind, entry.language, entry.vector, label, coefficients, oc, scale, entry.tag)
        for oc, entry, label, coefficients in ranked
    ]
    stats_list = [stats_by_label[label] for label in sorted(stats_by_label)]
    return results, stats_list, warnings
