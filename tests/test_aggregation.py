"""Median baselines, relative values and the weighted overall number.

Expected values come from hand computation or from the Fraction
reference in `reference.py`; the ranking is read as the package writes
it: its rows, `Fraction(*score.overall)`, the report cells and the
chart."""

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
    UNIFORM_PROFILE,
    WeightProfile,
    WeightSumViolation,
    aggregate,
    default_profile,
    sample_row,
)
from poumetrics.aggregate import _medians, effective_weights
from poumetrics.report import RunResult

import reference
from test_chart import chart_widths, reference_widths

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
    return sample_row(name, PouKind.PROGRAM, language, vector, tag)


def stats_of(vectors):
    """The one group's statistics and the warnings of a whole-sample
    ranking of `vectors`."""
    ranking = aggregate([entry("p%d" % i, v) for i, v in enumerate(vectors)])
    (stats,) = ranking.stats
    return stats, ranking.warnings


def sample_median(values):
    """The median `aggregate` takes of `values` as difficulties, checked
    against the median of the same values as program lengths where they
    are whole numbers."""
    median = _medians([entry("p", vec(m5=v))[3:10] for v in values])[4]
    if all(F(v).denominator == 1 for v in values):
        assert _medians([entry("p", vec(m1=int(v)))[3:10] for v in values])[0] == median
    return median


def ranked(rows, grouping=Grouping.WHOLE_SAMPLE, profiles=None, normalize=False):
    """The ranking of `rows` as the reports show it: (row, exact overall
    value, report cells) per POU in ranked order."""
    ranking = aggregate(rows, grouping, profiles, normalize)
    run = RunResult(ranking, ranking.warnings, grouping.value)
    return [(row, F(*score.overall), run.cells(score)) for row, score in zip(ranking.rows, ranking.scores)]


def overall_by_name(rows, **options):
    return {row[0]: overall for row, overall, _ in ranked(rows, **options)}


# ------------------------- medians -------------------------


def test_median_odd_sample_picks_middle():
    assert sample_median([F(2), F(4), F(10)]) == F(4)


def test_median_even_sample_means_middle_pair():
    assert sample_median([F(2), F(4)]) == F(3)


def test_median_is_exact_fraction():
    assert sample_median([F(1), F(2)]) == F(3, 2)


def test_median_singleton():
    assert sample_median([F(7)]) == F(7)


def test_median_unsorted_input():
    assert sample_median([F(10), F(2), F(4)]) == F(4)


def test_median_empty_raises():
    with pytest.raises(EmptySample):
        _medians([])


def test_median_matches_statistics_module():
    import random
    import statistics

    rng = random.Random(3)
    for _ in range(200):
        values = [F(rng.randint(0, 50)) for _ in range(rng.randint(1, 15))]
        assert sample_median(values) == F(statistics.median(values))


def test_medians_per_column():
    vectors = [vec(m1=2), vec(m1=4), vec(m1=10)]
    medians = stats_of(vectors)[0].medians
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


def test_the_reference_restates_the_default_profiles():
    assert reference.UNIFORM == UNIFORM_PROFILE.weights
    assert reference.SFC == SFC_PROFILE.weights


# ------------------------- relative and overall -------------------------


def test_identity_pou_sits_at_100_percent():
    vectors = [vec(m1=2, m2=2, m3=2, m4=2, m5=2, m6=2)] * 3
    stats, warnings = stats_of(vectors)
    assert warnings == []
    rows = [entry("p%d" % i, v) for i, v in enumerate(vectors)]
    for _, overall, cells in ranked(rows):
        assert overall == F(100)
        assert cells[6:] == ("100.0000",) * 7
    rel = reference.relative_vector(reference.vector_of(rows[0]), stats.medians, stats.excluded)
    assert rel == tuple([F(100)] * 6)
    assert reference.overall(rel, reference.UNIFORM) == F(100)


def test_one_metric_sixty_percent_above_median():
    # median program length 5; b is at 160 percent, every other cell at 100
    rows = [entry("a", vec(m1=5)), entry("b", vec(m1=8)), entry("c", vec(m1=5))]
    assert overall_by_name(rows)["b"] == F(110)
    rel = (F(160), F(100), F(100), F(100), F(100), F(100))
    assert reference.overall(rel, reference.UNIFORM) == F(110)


def test_one_metric_doubled():
    rows = [entry("a", vec(m1=5)), entry("b", vec(m1=10)), entry("c", vec(m1=5))]
    assert overall_by_name(rows)["b"] == F(350, 3)  # 116.66..., exactly
    rel = (F(200), F(100), F(100), F(100), F(100), F(100))
    assert reference.overall(rel, reference.UNIFORM) == F(350, 3)


def test_relative_values_are_exact():
    vectors = [vec(m1=3), vec(m1=7), vec(m1=9)]
    rows = [entry("p%d" % i, v) for i, v in enumerate(vectors)]
    cells = {row[0]: cells for row, _, cells in ranked(rows)}
    assert cells["p0"][6] == "42.8571"  # 300/7 percent
    stats, _ = stats_of(vectors)
    rel = reference.relative_vector(reference.vector_of(rows[0]), stats.medians, stats.excluded)
    assert rel[0] == F(300, 7)


# ------------------------- degenerate medians -------------------------


def test_zero_median_drops_metric_for_group():
    vectors = [vec(m3=0), vec(m3=0), vec(m3=5)]
    stats, warnings = stats_of(vectors)
    assert stats.excluded == frozenset({2})
    assert [w.code for w in warnings] == ["metric-dropped"]
    rows = [entry("p%d" % i, v) for i, v in enumerate(vectors)]
    assert all(cells[8] is None for _, _, cells in ranked(rows))  # c3
    rel = reference.relative_vector(reference.vector_of(rows[2]), stats.medians, stats.excluded)
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
    # program length drops (median 0); every other metric sits at its
    # median, so c's large program length changes nothing
    rows = [entry("a", vec(m1=0)), entry("b", vec(m1=0)), entry("c", vec(m1=3))]
    assert set(overall_by_name(rows).values()) == {F(100)}
    rel = (None, F(100), F(100), F(100), F(100), F(100))
    assert reference.overall(rel, reference.effective_weights(reference.UNIFORM, {0})) == F(100)


# ------------------------- whole-sample driver -------------------------


def test_aggregate_sorts_ascending_with_name_ties():
    entries = [
        entry("b", vec(m1=4)),
        entry("a", vec(m1=4)),
        entry("c", vec(m1=2)),
    ]
    results = ranked(entries)
    assert [row[0] for row, _, _ in results] == ["c", "a", "b"]
    assert results[0][1] < results[1][1]
    assert results[1][1] == results[2][1]


def test_aggregate_whole_sample_single_group():
    entries = [entry("a", vec()), entry("b", vec(m1=3))]
    ranking = aggregate(entries)
    assert [s.label for s in ranking.stats] == ["all"]
    assert all(score.scoring.group == "all" for score in ranking.scores)


def test_aggregate_per_language_groups():
    entries = [
        entry("st1", vec(m1=2), Language.ST),
        entry("st2", vec(m1=4), Language.ST),
        entry("ld1", vec(m1=6), Language.LD),
    ]
    ranking = aggregate(entries, grouping=Grouping.PER_LANGUAGE)
    assert sorted(s.label for s in ranking.stats) == ["LD", "ST"]
    groups = {row[0]: score.scoring.group for row, score in zip(ranking.rows, ranking.scores)}
    assert groups["ld1"] == "LD"
    # ld1 is alone in its group, so it sits at its own median
    cells = {row[0]: cells for row, _, cells in ranked(entries, grouping=Grouping.PER_LANGUAGE)}
    assert cells["ld1"][6] == "100.0000"


def test_aggregate_applies_sfc_profile_by_default():
    entries = [
        entry("s", vec(m1=2), Language.SFC),
        entry("t", vec(m1=4), Language.SFC),
    ]
    # s is at 200/3 percent in program length, at 100 in the rest: the
    # sequential-chart profile weighs that 4/12, the uniform one 1/6
    assert overall_by_name(entries)["s"] == F(4, 12) * F(200, 3) + F(8, 12) * 100 == F(800, 9)
    assert [pou.oc_rel for pou in reference.rank(entries).pous] == [F(800, 9), F(1000, 9)]


def test_aggregate_profile_override():
    custom = WeightProfile.of(1, 0, 0, 0, 0, 0)
    entries = [entry("a", vec(m1=2)), entry("b", vec(m1=6))]
    by_name = overall_by_name(entries, profiles={Language.ST: custom})
    # medians: m1 -> 4; a sits at 50%, b at 150%
    assert by_name["a"] == F(50)
    assert by_name["b"] == F(150)


def test_aggregate_normalize_scales_max_to_100():
    entries = [entry("a", vec(m1=2)), entry("b", vec(m1=6))]
    ranking = aggregate(entries, normalize=True)
    top = ranking.scores[-1]
    assert F(*top.overall) == F(100)
    assert top.scoring.scale < 1
    # segments rescale with the same factor and still sum to the total
    (_, ref_top) = reference.rank(entries, normalize=True).pous
    assert ref_top.oc_rel == F(100) and sum(ref_top.segments) == ref_top.oc_rel
    assert chart_widths(RunResult(ranking, []))["b"] == reference_widths(ref_top)


def test_aggregate_empty_sample_raises():
    with pytest.raises(EmptySample):
        aggregate([])


def test_segments_sum_to_overall_without_normalization():
    entries = [
        entry("a", vec(m1=2, m2=3, m3=1, m4=5, m5=F(7, 2), m6=4)),
        entry("b", vec(m1=6, m2=1, m3=2, m4=3, m5=F(1, 2), m6=8)),
        entry("c", vec(m1=4, m2=2, m3=3, m4=4, m5=F(2), m6=6)),
    ]
    ranking = aggregate(entries)
    widths = chart_widths(RunResult(ranking, []))
    for pou, score in zip(reference.rank(entries).pous, ranking.scores):
        assert sum(pou.segments) == pou.oc_rel == F(*score.overall)
        assert widths[pou.name] == reference_widths(pou)


def test_group_stats_shape():
    stats, _ = stats_of([vec()])
    assert isinstance(stats, GroupStats)
    assert stats.size == 1
    assert len(stats.medians) == 6


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
        vectors = [MetricVector(*(0 if i == index else x for i, x in enumerate(v))) for v in vectors]
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
    """The ranking, report cells and chart of `entries` are those of the
    reference: names in ranked order, groups, exact overall values,
    every cell text and every segment width."""
    ref_profiles = {language.value: profile.weights for language, profile in profiles.items()}
    expected = _outcome(lambda: reference.rank(entries, grouping.value, ref_profiles, normalize))
    got = _outcome(lambda: aggregate(entries, grouping, profiles, normalize))
    if expected[0] == "raised" or type(got) is tuple:  # ("raised", message)
        assert got == expected
        return
    assert got.stats == expected.stats
    assert got.warnings == expected.warnings
    assert [row[0] for row in got.rows] == [pou.name for pou in expected.pous]
    run = RunResult(got, got.warnings, grouping.value)
    widths = chart_widths(run)
    for score, pou in zip(got.scores, expected.pous):
        assert score.scoring.group == pou.group
        assert F(*score.overall) == pou.oc_rel == sum(pou.segments)
        assert run.cells(score) == pou.cells
        assert widths.get(pou.name, []) == reference_widths(pou)


# ------------------------- exact order where floats tie -------------------------
#
# The ranking and the difficulty median sort on floats first.  With N2 and n2 near 10**17,
# unequal difficulties, and so unequal overall values, round to one
# float, and only the exact sort within such a run orders them.

THIRD = F(2, 2) * F(1, 3)
NEAR_THIRD = F(2, 2) * F(10**17 + 1, 3 * 10**17)


def test_unequal_values_that_share_a_float_are_ordered_exactly():
    assert THIRD < NEAR_THIRD and float(THIRD) == float(NEAR_THIRD)
    assert sample_median([NEAR_THIRD, THIRD, THIRD]) == THIRD
    assert sample_median([NEAR_THIRD, THIRD, NEAR_THIRD]) == NEAR_THIRD
    assert sample_median([NEAR_THIRD, THIRD]) == (THIRD + NEAR_THIRD) / 2
    # past the float range as well
    assert sample_median([F(10**400), F(10**400 + 1), F(1, 3)]) == F(10**400)
    assert sample_median([10**400 + 1, 10**400, 10**400 + 2]) == 10**400 + 1
    results = ranked([entry("a", vec(m5=NEAR_THIRD)), entry("b", vec(m5=THIRD))])
    assert [row[0] for row, _, _ in results] == ["b", "a"]
    assert results[0][1] < results[1][1] and float(results[0][1]) == float(results[1][1])


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
    difficulties = [reference.vector_of(e)[4] for e in entries]
    assert _medians([e[3:10] for e in entries])[4] == reference.median(difficulties)
    _assert_matches_the_reference(*sample)
