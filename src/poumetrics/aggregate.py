"""Sample aggregation: medians, median-relative values and the weighted
overall complexity per POU.

Every quantity here is exact (fractions.Fraction); rendering to decimal
strings happens only at the report boundary.  The overall value of a POU
is the weighted sum of its six median-relative percentages; a metric
whose sample median is zero carries no information for the group and is
dropped for the whole group, with the remaining weights rescaled so they
still sum to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .errors import AnalysisWarning, EmptySample, WeightSumViolation
from .ir import Language, PouKind
from .metrics import METRIC_KEYS, MetricVector


@dataclass(frozen=True)
class WeightProfile:
    """Six non-negative metric weights summing to exactly 1."""

    weights: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if len(self.weights) != len(METRIC_KEYS):
            raise WeightSumViolation("a weight profile needs %d entries" % len(METRIC_KEYS))
        if any(w < 0 for w in self.weights):
            raise WeightSumViolation("metric weights must be non-negative")
        total = sum(self.weights, Fraction(0))
        if total != 1:
            raise WeightSumViolation("metric weights sum to %s, expected exactly 1" % total)

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


@dataclass(frozen=True)
class SampleEntry:
    name: str
    kind: PouKind
    language: Language
    vector: MetricVector
    tag: str = ""


@dataclass(frozen=True)
class GroupStats:
    label: str
    size: int
    medians: tuple[Fraction, ...]
    excluded: frozenset[int]  # metric indexes whose median is zero


@dataclass(frozen=True)
class PouResult:
    name: str
    kind: PouKind
    language: Language
    vector: MetricVector
    group: str
    relative: tuple[Fraction | None, ...]  # percent of group median, None when dropped
    weights: tuple[Fraction, ...]  # effective (renormalized) profile
    oc_rel: Fraction  # reported overall value (scaled when normalization is on)
    scale: Fraction  # normalization factor applied to oc_rel and segments
    tag: str = ""

    def segment(self, index: int) -> Fraction:
        """Contribution of one metric to the reported overall value."""
        rel = self.relative[index]
        if rel is None:
            return Fraction(0)
        return self.weights[index] * rel * self.scale


# ------------------------- medians -------------------------


def median_of(values: list[Fraction]) -> Fraction:
    """Sample median; ties of even length average the middle pair."""
    if not values:
        raise EmptySample("cannot take the median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def compute_medians(vectors: list[MetricVector]) -> tuple[Fraction, ...]:
    if not vectors:
        raise EmptySample("cannot aggregate an empty sample")
    columns = zip(*(v.as_tuple() for v in vectors))
    return tuple(median_of([Fraction(x) for x in column]) for column in columns)


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


# ------------------------- relative and overall -------------------------


def relative_vector(vector: MetricVector, stats: GroupStats) -> tuple[Fraction | None, ...]:
    """Each metric as a percentage of its group median."""
    out: list[Fraction | None] = []
    for i, value in enumerate(vector.as_tuple()):
        if i in stats.excluded:
            out.append(None)
        else:
            out.append(Fraction(100 * value) / stats.medians[i])
    return tuple(out)


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


def overall_complexity(relative: tuple[Fraction | None, ...], weights: tuple[Fraction, ...]) -> Fraction:
    total = Fraction(0)
    for rel, weight in zip(relative, weights):
        if rel is not None:
            total += weight * rel
    return total


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

    raw_results: list[PouResult] = []
    for label, bucket in buckets.items():
        stats = stats_by_label[label]
        for entry in bucket:
            profile = profiles.get(entry.language, default_profile(entry.language))
            weights = effective_weights(profile, stats.excluded)
            relative = relative_vector(entry.vector, stats)
            oc = overall_complexity(relative, weights)
            raw_results.append(
                PouResult(
                    name=entry.name,
                    kind=entry.kind,
                    language=entry.language,
                    vector=entry.vector,
                    group=label,
                    relative=relative,
                    weights=weights,
                    oc_rel=oc,
                    scale=Fraction(1),
                    tag=entry.tag,
                )
            )

    scale = Fraction(1)
    if normalize:
        top = max((r.oc_rel for r in raw_results), default=Fraction(0))
        if top > 0:
            scale = Fraction(100) / top
    if scale != 1:
        raw_results = [replace(r, oc_rel=r.oc_rel * scale, scale=scale) for r in raw_results]

    raw_results.sort(key=lambda r: (r.oc_rel, r.name))
    stats_list = [stats_by_label[label] for label in sorted(stats_by_label)]
    return raw_results, stats_list, warnings
