"""Median baselines, relative values and the weighted overall number."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from poumetrics import (
    EmptySample,
    GroupStats,
    Grouping,
    Language,
    MetricVector,
    PouKind,
    SFC_PROFILE,
    SampleEntry,
    UNIFORM_PROFILE,
    WeightProfile,
    WeightSumViolation,
    aggregate,
    default_profile,
    median_of,
)
from poumetrics.errors import AnalysisWarning
from poumetrics.metrics import METRIC_KEYS
from poumetrics.aggregate import (
    compute_medians,
    effective_weights,
    group_stats,
)

F = Fraction


def vec(m1=1, m2=1, m3=1, m4=1, m5=F(1), m6=1) -> MetricVector:
    return MetricVector(
        program_length=m1,
        cyclomatic=m2,
        fifo=m3,
        vocabulary=m4,
        difficulty=F(m5),
        data_structure=m6,
    )


def entry(name, vector, language=Language.ST, tag=""):
    return SampleEntry(name=name, kind=PouKind.PROGRAM, language=language, vector=vector, tag=tag)


# ------------------------- medians -------------------------


def test_median_odd_sample_picks_middle():
    assert median_of([F(2), F(4), F(10)]) == F(4)


def test_median_even_sample_means_middle_pair():
    assert median_of([F(2), F(4)]) == F(3)


def test_median_is_exact_fraction():
    assert median_of([F(1), F(2)]) == F(3, 2)


def test_median_singleton():
    assert median_of([F(7)]) == F(7)


def test_median_unsorted_input():
    assert median_of([F(10), F(2), F(4)]) == F(4)


def test_median_empty_raises():
    with pytest.raises(EmptySample):
        median_of([])


def test_median_matches_statistics_module():
    import random
    import statistics

    rng = random.Random(3)
    for _ in range(200):
        values = [F(rng.randint(0, 50)) for _ in range(rng.randint(1, 15))]
        assert median_of(values) == F(statistics.median(values))


def test_compute_medians_per_column():
    vectors = [vec(m1=2), vec(m1=4), vec(m1=10)]
    medians = compute_medians(vectors)
    assert medians[0] == F(4)
    assert medians[1] == F(1)


# ------------------------- profiles -------------------------


def test_uniform_profile_weights():
    assert UNIFORM_PROFILE.weights == tuple([F(1, 6)] * 6)
    assert sum(UNIFORM_PROFILE.weights) == 1


def test_sfc_profile_weights():
    assert SFC_PROFILE.weights == (F(4, 12), F(4, 12), F(1, 12), F(1, 12), F(1, 12), F(1, 12))
    assert sum(SFC_PROFILE.weights) == 1


def test_default_profile_by_language():
    assert default_profile(Language.SFC) is SFC_PROFILE
    for lang in (Language.ST, Language.LD, Language.FBD):
        assert default_profile(lang) is UNIFORM_PROFILE


def test_profile_must_sum_to_one():
    with pytest.raises(WeightSumViolation):
        WeightProfile.of(F(1, 2), F(1, 2), F(1, 2), 0, 0, 0)


def test_profile_rejects_negative_weight():
    with pytest.raises(WeightSumViolation):
        WeightProfile.of(F(3, 2), F(-1, 2), 0, 0, 0, 0)


def test_profile_needs_six_entries():
    with pytest.raises(WeightSumViolation):
        WeightProfile((F(1),))


def test_float_weights_would_break_exactness():
    # 0.1 as a float is not 1/10; the profile API goes through Fraction
    p = WeightProfile.of("1/10", "1/10", "1/10", "1/10", "1/10", "1/2")
    assert sum(p.weights) == 1


# ------------------------- relative and overall -------------------------


def test_identity_pou_sits_at_100_percent():
    vectors = [vec(m1=2, m2=2, m3=2, m4=2, m5=2, m6=2)] * 3
    stats, warnings = group_stats("all", vectors)
    assert warnings == []
    rel = ref_relative_vector(vectors[0], stats)
    assert rel == tuple([F(100)] * 6)
    assert ref_overall_complexity(rel, UNIFORM_PROFILE.weights) == F(100)


def test_one_metric_sixty_percent_above_median():
    rel = (F(160), F(100), F(100), F(100), F(100), F(100))
    assert ref_overall_complexity(rel, UNIFORM_PROFILE.weights) == F(110)


def test_one_metric_doubled():
    rel = (F(200), F(100), F(100), F(100), F(100), F(100))
    value = ref_overall_complexity(rel, UNIFORM_PROFILE.weights)
    assert value == F(350, 3)  # 116.66..., exactly


def test_relative_values_are_exact():
    vectors = [vec(m1=3), vec(m1=7), vec(m1=9)]
    stats, _ = group_stats("all", vectors)
    rel = ref_relative_vector(vectors[0], stats)
    assert rel[0] == F(300, 7)


# ------------------------- degenerate medians -------------------------


def test_zero_median_drops_metric_for_group():
    vectors = [vec(m3=0), vec(m3=0), vec(m3=5)]
    stats, warnings = group_stats("all", vectors)
    assert stats.excluded == frozenset({2})
    assert [w.code for w in warnings] == ["metric-dropped"]
    rel = ref_relative_vector(vectors[2], stats)
    assert rel[2] is None


def test_effective_weights_renormalize_exactly():
    weights = effective_weights(UNIFORM_PROFILE, frozenset({2}))
    assert weights[2] == 0
    assert all(w == F(1, 5) for i, w in enumerate(weights) if i != 2)
    assert sum(weights) == 1


def test_effective_weights_unchanged_without_exclusions():
    assert effective_weights(SFC_PROFILE, frozenset()) == SFC_PROFILE.weights


def test_all_weight_on_dropped_metric_raises():
    lopsided = WeightProfile.of(1, 0, 0, 0, 0, 0)
    with pytest.raises(WeightSumViolation):
        effective_weights(lopsided, frozenset({0}))


def test_dropped_metric_contributes_nothing():
    rel = (None, F(100), F(100), F(100), F(100), F(100))
    weights = effective_weights(UNIFORM_PROFILE, frozenset({0}))
    assert ref_overall_complexity(rel, weights) == F(100)


# ------------------------- whole-sample driver -------------------------


def test_aggregate_sorts_ascending_with_name_ties():
    entries = [
        entry("b", vec(m1=4)),
        entry("a", vec(m1=4)),
        entry("c", vec(m1=2)),
    ]
    results, stats, warnings = aggregate(entries)
    assert [r.name for r in results] == ["c", "a", "b"]
    assert results[0].oc_rel < results[1].oc_rel
    assert results[1].oc_rel == results[2].oc_rel


def test_aggregate_whole_sample_single_group():
    entries = [entry("a", vec()), entry("b", vec(m1=3))]
    results, stats, _ = aggregate(entries)
    assert [s.label for s in stats] == ["all"]
    assert all(r.group == "all" for r in results)


def test_aggregate_per_language_groups():
    entries = [
        entry("st1", vec(m1=2), Language.ST),
        entry("st2", vec(m1=4), Language.ST),
        entry("ld1", vec(m1=6), Language.LD),
    ]
    results, stats, _ = aggregate(entries, grouping=Grouping.PER_LANGUAGE)
    assert sorted(s.label for s in stats) == ["LD", "ST"]
    by_name = {r.name: r for r in results}
    assert by_name["ld1"].group == "LD"
    # ld1 is alone in its group, so it sits at its own median
    assert by_name["ld1"].relative[0] == F(100)


def test_aggregate_applies_sfc_profile_by_default():
    entries = [
        entry("s", vec(m1=2), Language.SFC),
        entry("t", vec(m1=2), Language.SFC),
    ]
    results, _, _ = aggregate(entries)
    assert results[0].weights == SFC_PROFILE.weights


def test_aggregate_profile_override():
    custom = WeightProfile.of(1, 0, 0, 0, 0, 0)
    entries = [entry("a", vec(m1=2)), entry("b", vec(m1=6))]
    results, _, _ = aggregate(entries, profiles={Language.ST: custom})
    by_name = {r.name: r for r in results}
    # medians: m1 -> 4; a sits at 50%, b at 150%
    assert by_name["a"].oc_rel == F(50)
    assert by_name["b"].oc_rel == F(150)


def test_aggregate_normalize_scales_max_to_100():
    entries = [entry("a", vec(m1=2)), entry("b", vec(m1=6))]
    results, _, _ = aggregate(entries, normalize=True)
    top = results[-1]
    assert top.oc_rel == F(100)
    assert top.scale < 1
    # segments rescale with the same factor and still sum to the total
    assert sum(top.segment(i) for i in range(6)) == top.oc_rel


def test_aggregate_empty_sample_raises():
    with pytest.raises(EmptySample):
        aggregate([])


def test_segments_sum_to_overall_without_normalization():
    entries = [
        entry("a", vec(m1=2, m2=3, m3=1, m4=5, m5=F(7, 2), m6=4)),
        entry("b", vec(m1=6, m2=1, m3=2, m4=3, m5=F(1, 2), m6=8)),
        entry("c", vec(m1=4, m2=2, m3=3, m4=4, m5=F(2), m6=6)),
    ]
    results, _, _ = aggregate(entries)
    for result in results:
        assert sum(result.segment(i) for i in range(6)) == result.oc_rel


def test_group_stats_shape():
    stats, _ = group_stats("all", [vec()])
    assert isinstance(stats, GroupStats)
    assert stats.size == 1
    assert len(stats.medians) == 6


# ------------------------- reference implementation -------------------------
#
# The ranking as it was computed before it moved to integers over a
# per-group denominator: every value a Fraction, built per POU and
# metric.  `aggregate` must agree with it exactly.


def ref_median_of(values):
    if not values:
        raise EmptySample("cannot take the median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def ref_group_stats(label, vectors):
    columns = zip(*(v.as_tuple() for v in vectors))
    medians = tuple(ref_median_of([Fraction(x) for x in column]) for column in columns)
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


def ref_relative_vector(vector, stats):
    return tuple(
        None if i in stats.excluded else Fraction(100 * value) / stats.medians[i]
        for i, value in enumerate(vector.as_tuple())
    )


def ref_effective_weights(profile, excluded):
    if not excluded:
        return profile.weights
    active_sum = sum((w for i, w in enumerate(profile.weights) if i not in excluded), Fraction(0))
    if active_sum == 0:
        raise WeightSumViolation("all remaining metric weights are zero after dropping degenerate metrics")
    return tuple(Fraction(0) if i in excluded else w / active_sum for i, w in enumerate(profile.weights))


def ref_overall_complexity(relative, weights):
    total = Fraction(0)
    for rel, weight in zip(relative, weights):
        if rel is not None:
            total += weight * rel
    return total


def ref_aggregate(entries, grouping=Grouping.WHOLE_SAMPLE, profiles=None, normalize=False):
    """(name, group, relative, weights, oc_rel, segments) per POU in
    ranked order, the group statistics and the warnings."""
    if not entries:
        raise EmptySample("cannot aggregate an empty sample")
    profiles = profiles or {}
    if grouping is Grouping.WHOLE_SAMPLE:
        buckets = {"all": list(entries)}
    else:
        buckets = {}
        for e in entries:
            buckets.setdefault(e.language.value, []).append(e)
    warnings = []
    stats_by_label = {}
    for label in sorted(buckets):
        stats, ws = ref_group_stats(label, [e.vector for e in buckets[label]])
        stats_by_label[label] = stats
        warnings.extend(ws)
    raw = []
    for label, bucket in buckets.items():
        stats = stats_by_label[label]
        for e in bucket:
            profile = profiles.get(e.language, default_profile(e.language))
            weights = ref_effective_weights(profile, stats.excluded)
            relative = ref_relative_vector(e.vector, stats)
            raw.append([e.name, label, relative, weights, ref_overall_complexity(relative, weights)])
    scale = Fraction(1)
    if normalize:
        top = max((r[4] for r in raw), default=Fraction(0))
        if top > 0:
            scale = Fraction(100) / top
    results = []
    for name, label, relative, weights, oc in raw:
        segments = tuple(
            Fraction(0) if rel is None else weight * rel * scale for rel, weight in zip(relative, weights)
        )
        results.append((name, label, relative, weights, oc * scale, segments))
    results.sort(key=lambda r: (r[4], r[0]))
    return results, [stats_by_label[label] for label in sorted(stats_by_label)], warnings


# Small values so that ties and zero medians are common; difficulty is
# (n1 / 2) * (N2 / n2), so draw it as such a product.
_DIFFICULTY = st.builds(
    lambda n1, big_n2, n2: F(0) if n2 == 0 else F(n1, 2) * F(big_n2, n2),
    st.integers(0, 12),
    st.integers(0, 40),
    st.integers(0, 9),
)
_COLUMN = st.integers(0, 30)
_VECTOR = st.builds(MetricVector, _COLUMN, _COLUMN, _COLUMN, _COLUMN, _DIFFICULTY, _COLUMN)
_LANGUAGES = st.sampled_from([Language.ST, Language.LD, Language.SFC, Language.FBD])
_PROFILE = st.sampled_from(
    [
        UNIFORM_PROFILE,
        SFC_PROFILE,
        WeightProfile.of(1, 0, 0, 0, 0, 0),
        WeightProfile.of(0, 0, 0, 0, F(1, 3), F(2, 3)),
        WeightProfile.of(F(1, 7), F(2, 7), 0, F(1, 7), F(2, 7), F(1, 7)),
    ]
)


@st.composite
def _samples(draw):
    vectors = draw(st.lists(_VECTOR, min_size=1, max_size=12))
    if draw(st.booleans()):
        # copies of earlier vectors give exact ties in every metric
        vectors += draw(st.lists(st.sampled_from(vectors), max_size=6))
    for index in draw(st.sets(st.integers(0, 5), max_size=3)):
        # a column that is zero in every POU
        vectors = [MetricVector(*(0 if i == index else x for i, x in enumerate(v.as_tuple()))) for v in vectors]
    entries = [entry("p%02d" % (i * 7 % len(vectors)) + "_%d" % i, v, draw(_LANGUAGES)) for i, v in enumerate(vectors)]
    profiles = draw(st.dictionaries(_LANGUAGES, _PROFILE, max_size=3))
    return entries, draw(st.sampled_from(list(Grouping))), profiles, draw(st.booleans())


def _outcome(run):
    try:
        return run()
    except WeightSumViolation as exc:
        return ("raised", str(exc))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_samples())
def test_aggregate_matches_the_fraction_reference(sample):
    _assert_matches_the_reference(*sample)


def _assert_matches_the_reference(entries, grouping, profiles, normalize):
    expected = _outcome(lambda: ref_aggregate(entries, grouping, profiles, normalize))
    got = _outcome(lambda: aggregate(entries, grouping, profiles, normalize))
    if expected[0] == "raised" or got[0] == "raised":
        assert got == expected
        return
    ref_results, ref_stats, ref_warnings = expected
    results, stats, warnings = got
    assert stats == ref_stats
    assert warnings == ref_warnings
    assert [r.name for r in results] == [r[0] for r in ref_results]
    for result, (name, label, relative, weights, oc_rel, segments) in zip(results, ref_results):
        assert result.group == label
        assert result.relative == relative
        assert result.weights == weights
        assert result.oc_rel == oc_rel
        assert tuple(result.segment(i) for i in range(6)) == segments
        exact = [result.oc_rel, result.scale, *result.weights, *(result.segment(i) for i in range(6))]
        assert all(type(x) is Fraction for x in exact + [rel for rel in result.relative if rel is not None])


# ------------------------- exact order where floats tie -------------------------
#
# Ranking and medians sort on floats first.  With N2 and n2 near 10**17,
# unequal difficulties, and so unequal overall values, round to one
# float, and only the exact sort within such a run orders them.

THIRD = F(2, 2) * F(1, 3)
NEAR_THIRD = F(2, 2) * F(10**17 + 1, 3 * 10**17)


def test_unequal_values_that_share_a_float_are_ordered_exactly():
    assert THIRD < NEAR_THIRD and float(THIRD) == float(NEAR_THIRD)
    assert median_of([NEAR_THIRD, THIRD, THIRD]) == THIRD
    assert median_of([NEAR_THIRD, THIRD, NEAR_THIRD]) == NEAR_THIRD
    assert median_of([NEAR_THIRD, THIRD]) == (THIRD + NEAR_THIRD) / 2
    # past the float range as well
    assert median_of([F(10**400), F(10**400 + 1), F(1, 3)]) == F(10**400)
    assert median_of([10**400 + 1, 10**400, 10**400 + 2]) == 10**400 + 1
    results, _, _ = aggregate([entry("a", vec(m5=NEAR_THIRD)), entry("b", vec(m5=THIRD))])
    assert [r.name for r in results] == ["b", "a"]
    assert float(results[0].oc_rel) == float(results[1].oc_rel)


_CLOSE_DIFFICULTY = st.builds(
    lambda n1, k, n2, extra: F(n1, 2) * F(k * n2 + extra, n2),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(10**17 - 20, 10**17),
    st.integers(0, 2),
)
_SMALL = st.integers(0, 3)


@st.composite
def _close_samples(draw):
    vector = st.builds(MetricVector, _SMALL, _SMALL, _SMALL, _SMALL, _CLOSE_DIFFICULTY, _SMALL)
    vectors = draw(st.lists(vector, min_size=1, max_size=12))
    vectors += draw(st.lists(st.sampled_from(vectors), max_size=4))
    entries = [entry("p%02d" % (i * 5 % len(vectors)) + "_%d" % i, v, draw(_LANGUAGES)) for i, v in enumerate(vectors)]
    profiles = draw(st.dictionaries(_LANGUAGES, _PROFILE, max_size=3))
    return entries, draw(st.sampled_from(list(Grouping))), profiles, draw(st.booleans())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_close_samples())
@example(
    (
        [entry("a", vec(m5=NEAR_THIRD)), entry("b", vec(m5=THIRD)), entry("c", vec(m5=NEAR_THIRD))],
        Grouping.WHOLE_SAMPLE,
        {},
        False,
    )
)
def test_aggregate_and_median_match_the_reference_where_floats_tie(sample):
    entries = sample[0]
    difficulties = [e.vector.difficulty for e in entries]
    assert median_of(difficulties) == ref_median_of(difficulties)
    _assert_matches_the_reference(*sample)
