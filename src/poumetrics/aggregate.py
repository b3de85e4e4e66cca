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
overall value is one integer sum over one denominator.  The report
writers work out its relative values and chart segments from the same
integers.

The sample arrives as plain rows (`sample_row`) and is ranked as rows:
the POUs of one group and weight profile whose vectors are equal share
one `Score`, so their overall value is worked out once, and the writers
format its cells and its chart bar once.

The ranking and the difficulty median order exact values through
`ratio_order`: one sort on floats, which never contradict the exact
order, then an exact sort of each run of equal floats.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from operator import itemgetter
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


def sample_row(name: str, kind: PouKind, language: Language, vector: MetricVector, tag: str = "") -> tuple:
    """The plain row that `aggregate` ranks: name, kind value and
    language value at 0, 1 and 2, the vector's key at `row[3:10]` (m1..m4,
    the difficulty as numerator and denominator, then m6), and the tag at
    10.  It holds no record, enum member or Fraction, so the processes of
    a load pass it on cheaply."""
    m1, m2, m3, m4, difficulty, m6 = vector
    return (name, kind._value_, language._value_, m1, m2, m3, m4, difficulty.numerator, difficulty.denominator, m6, tag)


def metric_ratios(key: tuple) -> tuple[tuple[int, int], ...]:
    """Each metric of a vector key as (numerator, denominator)."""
    m1, m2, m3, m4, p, q, m6 = key
    return (
        (m1.numerator, m1.denominator),
        (m2.numerator, m2.denominator),
        (m3.numerator, m3.denominator),
        (m4.numerator, m4.denominator),
        (p, q),
        (m6.numerator, m6.denominator),
    )


class GroupStats(NamedTuple):
    label: str
    size: int
    medians: tuple[Fraction, ...]
    excluded: frozenset[int]  # metric indexes whose median is zero


# ------------------------- ordering and medians -------------------------


def ratio_order(ratios: list[tuple[int, int]]) -> list[int]:
    """The indexes of (p, q) pairs with q > 0, which need not be reduced,
    in ascending order of p / q, equal values in their given order,
    without a Python-level Fraction compare per pair.

    Python's int / int is correctly rounded, hence monotonic, so sorting
    on p / q never puts a larger value before a smaller one.  One sort on
    those floats decides, and only a run of equal floats is sorted again,
    exactly.  The cost does not grow with the size of the values, as a
    key over a common denominator would, and no Fraction is made outside
    such a run."""
    indexes = range(len(ratios))

    def exact(i: int) -> Fraction:
        return Fraction(*ratios[i])

    try:
        floats = [p / q for p, q in ratios]
    except OverflowError:  # a value past the float range
        return sorted(indexes, key=exact)
    order = sorted(indexes, key=floats.__getitem__)
    start, count = 0, len(order)
    for end in range(1, count + 1):
        if end == count or floats[order[end]] != floats[order[start]]:
            if end - start > 1:
                order[start:end] = sorted(order[start:end], key=exact)
            start = end
    return order


def _middle(order: list[int], counts: list[int]) -> tuple[int, int]:
    """The middle pair of a sample given as distinct values, in ascending
    `order`, and how often each occurs: the index of each of the two, the
    same index twice when the sample's size is odd."""
    size = sum(counts)
    positions = [(size - 1) // 2, size // 2]
    middle = []
    seen = 0
    for i in order:
        seen += counts[i]
        while positions and positions[0] < seen:
            positions.pop(0)
            middle.append(i)
    return middle[0], middle[1]


def _medians(keys: list[tuple]) -> tuple[Fraction, ...]:
    """The median of each metric over vector keys.  Only each column's
    distinct values are sorted, and difficulties as their (numerator,
    denominator) pairs, so a Fraction is made only for the median."""
    if not keys:
        raise EmptySample("cannot aggregate an empty sample")
    column = [list(map(itemgetter(i), keys)) for i in range(7)]
    medians = []
    for c in (0, 1, 2, 3, 6):
        counts = Counter(column[c])
        values = list(counts)
        i, j = _middle(sorted(range(len(values)), key=values.__getitem__), list(counts.values()))
        medians.append(Fraction(values[i] + values[j], 2))
    counts = Counter(zip(column[4], column[5]))
    ratios = list(counts)
    i, j = _middle(ratio_order(ratios), list(counts.values()))
    difficulty = (Fraction(*ratios[i]) + Fraction(*ratios[j])) / 2
    return (*medians[:4], difficulty, medians[4])


def _group_stats(label: str, keys: list[tuple]) -> tuple[GroupStats, list[AnalysisWarning]]:
    medians = _medians(keys)
    excluded = frozenset(i for i, m in enumerate(medians) if m == 0)
    warnings = [
        AnalysisWarning(
            code="metric-dropped",
            message="median of %s is zero in group %r; the metric is dropped for this group and the remaining weights are rescaled"
            % (METRIC_KEYS[i], label),
        )
        for i in sorted(excluded)
    ]
    return GroupStats(label, len(keys), medians, excluded), warnings


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
            percent=tuple(
                None if i in stats.excluded else (100 * m.denominator, m.numerator)
                for i, m in enumerate(stats.medians)
            ),
            weighted=tuple(0 if r is None else r.numerator * (denominator // r.denominator) for r in rates),
            denominator=denominator,
        )

    def overall(self, key: tuple) -> tuple[int, int]:
        """The weighted sum of the relative values of the vector with this
        key, as (numerator, denominator), not reduced.  Only the
        difficulty p/q is a fraction, so the sum of the other terms is
        multiplied through by q."""
        m1, m2, m3, m4, p, q, m6 = key
        k1, k2, k3, k4, k5, k6 = self.weighted
        return (k1 * m1 + k2 * m2 + k3 * m3 + k4 * m4 + k6 * m6) * q + k5 * p, q * self.denominator


# ------------------------- the ranking -------------------------


class Scoring:
    """What the values of a group's POUs of one weight profile depend on
    besides their own vectors: the group, its coefficients and the
    scale."""

    __slots__ = ("group", "coefficients", "scale")

    def __init__(self, group: str, coefficients: Coefficients, scale: Fraction = Fraction(1)):
        self.group, self.coefficients, self.scale = group, coefficients, scale


class Score:
    """The POUs of one Scoring whose vectors share `key`, and their
    reported overall value as (numerator, denominator), not reduced."""

    __slots__ = ("scoring", "key", "overall")

    def __init__(self, scoring: Scoring, key: tuple, overall: tuple[int, int]):
        self.scoring, self.key, self.overall = scoring, key, overall


class Ranking:
    """A ranked sample as plain rows (see `sample_row`): `rows` ascending
    by reported value, equal values in name order, each row's Score in
    `scores`, the per-group statistics and the degenerate-median
    warnings."""

    def __init__(self, rows: list[tuple], scores: list[Score], stats: list[GroupStats], warnings: list[AnalysisWarning]):
        self.rows, self.scores, self.stats, self.warnings = rows, scores, stats, warnings


def aggregate(
    rows: list[tuple],
    grouping: Grouping = Grouping.WHOLE_SAMPLE,
    profiles: dict[Language, WeightProfile] | None = None,
    normalize: bool = False,
) -> Ranking:
    """Rank a sample of POUs, given as `sample_row`s, by overall relative
    complexity: ascending by the reported value, ties broken by name.
    Each overall value is worked out once per group, weight profile and
    distinct vector.
    """
    if not rows:
        raise EmptySample("cannot aggregate an empty sample")
    profiles = profiles or {}
    # By name first, so equal values keep name order in the stable sort.
    rows = sorted(rows, key=itemgetter(0))

    if grouping is Grouping.WHOLE_SAMPLE:
        buckets = {"all": rows}
    else:
        buckets = {}
        for row in rows:
            buckets.setdefault(row[2], []).append(row)
    warnings: list[AnalysisWarning] = []
    stats_by_label: dict[str, GroupStats] = {}
    for label in sorted(buckets):
        stats_by_label[label], ws = _group_stats(label, [row[3:10] for row in buckets[label]])
        warnings.extend(ws)

    # Per language, its Scoring and the Score of each distinct vector key
    # met so far; a group holds one language, or the whole sample.
    by_language: dict[str, tuple[Scoring, dict[tuple, Score]]] = {}
    by_profile: dict[tuple[str, WeightProfile], tuple[Scoring, dict[tuple, Score]]] = {}
    scores: list[Score] = []
    for row in rows:
        found = by_language.get(row[2])
        if found is None:
            label = "all" if grouping is Grouping.WHOLE_SAMPLE else row[2]
            language = Language(row[2])
            profile = profiles.get(language, default_profile(language))
            found = by_profile.get((label, profile))
            if found is None:
                found = by_profile[label, profile] = (Scoring(label, Coefficients.of(stats_by_label[label], profile)), {})
            by_language[row[2]] = found
        scoring, memo = found
        key = row[3:10]
        score = memo.get(key)
        if score is None:
            score = memo[key] = Score(scoring, key, scoring.coefficients.overall(key))
        scores.append(score)

    # Rank the distinct values; equal ones share a rank, so their rows
    # stay in name order.
    distinct = [score for _, memo in by_profile.values() for score in memo.values()]
    ratios = [score.overall for score in distinct]
    ranks: dict[Score, int] = {}
    rank = -1
    for i in ratio_order(ratios):
        p, q = ratios[i]
        if rank < 0 or p * top[1] != top[0] * q:
            rank, top = rank + 1, ratios[i]
        ranks[distinct[i]] = rank
    order = sorted(range(len(rows)), key=[ranks[score] for score in scores].__getitem__)

    if normalize and top[0] > 0:
        scale = Fraction(100 * top[1], top[0])
        for scoring, _ in by_profile.values():
            scoring.scale = scale
        for score in distinct:
            p, q = score.overall
            score.overall = p * scale.numerator, q * scale.denominator
    stats_list = [stats_by_label[label] for label in sorted(stats_by_label)]
    return Ranking([rows[i] for i in order], [scores[i] for i in order], stats_list, warnings)
