"""End-to-end acceptance checks.

Ten criteria, one test each; every test prints a single
"[criterion-N] PASS" or "[criterion-N] FAIL" line and the test name
carries the same number, so the verbose test report reads as a
checklist. Expected values come from the frozen hand-tallied corpus
sheet or from independent recomputation inside the test, never from
the code under test.
"""

from __future__ import annotations

import random
import statistics
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

from poumetrics import (
    DEFAULT_WEIGHT_TABLE,
    Language,
    MetricVector,
    SFC_PROFILE,
    StSource,
    UNIFORM_PROFILE,
    WeightProfile,
    WeightSumViolation,
    aggregate,
    analyze_paths,
    compute_vector,
    emit_csv,
    emit_json,
    load_sample,
    parse_st_pou,
    render_chart,
    sample_row,
)
from poumetrics.ir import PouKind, TokenClass
from poumetrics.report import RunResult

import reference
from stgen import generate_program, sprinkle_comments

F = Fraction
CORPUS = Path(__file__).parent / "corpus"
METRIC_FIELDS = ("program_length", "cyclomatic", "fifo", "vocabulary", "difficulty", "data_structure")


def _verdict(criterion: int, failures: list) -> None:
    print("[criterion-%d] %s" % (criterion, "PASS" if not failures else "FAIL"))
    assert not failures, "\n".join(str(f) for f in failures)


def _entry(name: str, vector: MetricVector, language=Language.ST) -> tuple:
    return sample_row(name, PouKind.PROGRAM, language, vector)


def _ranked(ranking) -> list[tuple]:
    """(name, exact overall value, report cells) per POU of `ranking`,
    in ranked order."""
    run = RunResult(ranking, [])
    return [(row[0], F(*score.overall), run.cells(score)) for row, score in zip(ranking.rows, ranking.scores)]


# ---------------------------------------------------------------


def test_criterion_01_default_declaration_weights():
    failures = []
    t = DEFAULT_WEIGHT_TABLE
    got = (
        t.interface_simple,
        t.interface_complex,
        t.local_simple,
        t.local_complex,
        t.sub_simple,
        t.sub_complex,
    )
    if got != (3, 4, 1, 2, 1, 1):
        failures.append("default weight table is %s, expected (3, 4, 1, 2, 1, 1)" % (got,))
    _verdict(1, failures)


def test_criterion_02_corpus_hand_tally_exactness(corpus_pous, oracle):
    failures = []
    started = time.perf_counter()
    if set(corpus_pous) != set(oracle):
        failures.append("pou set mismatch: %s vs %s" % (sorted(corpus_pous), sorted(oracle)))
    langs = [entry["language"] for entry in oracle.values()]
    if len(oracle) < 12:
        failures.append("corpus has only %d fixtures" % len(oracle))
    for lang, minimum in (("ST", 5), ("LD", 3), ("FBD", 2), ("SFC", 2)):
        if langs.count(lang) < minimum:
            failures.append("corpus has %d %s fixtures, need %d" % (langs.count(lang), lang, minimum))
    for name, pou in sorted(corpus_pous.items()):
        exp = oracle[name]
        vec = compute_vector(pou)
        want = tuple(F(exp[f]) if f == "difficulty" else exp[f] for f in METRIC_FIELDS)
        if vec != want:
            failures.append("%s: %s != %s" % (name, vec, want))
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append("corpus check took %.2f s, budget is 5 s" % elapsed)
    _verdict(2, failures)


def test_criterion_03_profile_weight_sums():
    failures = []
    if sum(UNIFORM_PROFILE.weights) != 1:
        failures.append("uniform profile does not sum to exactly 1")
    if sum(SFC_PROFILE.weights) != 1:
        failures.append("sequential-chart profile does not sum to exactly 1")
    if SFC_PROFILE.weights != (F(4, 12), F(4, 12), F(1, 12), F(1, 12), F(1, 12), F(1, 12)):
        failures.append("sequential-chart profile drifted: %s" % (SFC_PROFILE.weights,))
    accepted = [
        WeightProfile.of(F(1, 2), F(1, 10), F(1, 10), F(1, 10), F(1, 10), F(1, 10)),
        WeightProfile.of(1, 0, 0, 0, 0, 0),
        WeightProfile.of(F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6)),
    ]
    for profile in accepted:
        if sum(profile.weights) != 1:
            failures.append("accepted profile %s does not sum to 1" % (profile.weights,))
    try:
        WeightProfile.of(F(1, 2), F(1, 2), F(1, 2), 0, 0, 0)
        failures.append("profile summing to 3/2 was accepted")
    except WeightSumViolation:
        pass
    _verdict(3, failures)


def test_criterion_04_scaling_one_metric_changes_nothing():
    failures = []
    rng = random.Random(97)
    languages = (Language.ST, Language.LD, Language.FBD, Language.SFC)
    for case in range(200):
        count = rng.randint(3, 10)
        vectors = [
            MetricVector(
                program_length=rng.randint(0, 60),
                cyclomatic=rng.randint(1, 12),
                fifo=rng.randint(0, 40),
                vocabulary=rng.randint(0, 25),
                difficulty=F(rng.randint(0, 99), rng.randint(1, 8)),
                data_structure=rng.randint(0, 30),
            )
            for _ in range(count)
        ]
        entries = [
            _entry("p%02d" % i, vec, rng.choice(languages)) for i, vec in enumerate(vectors)
        ]
        column = rng.randrange(6)
        factor = F(rng.randint(1, 40), rng.randint(1, 40))
        scaled = []
        for e, vec in zip(entries, vectors):
            cells = list(vec)
            cells[column] = cells[column] * factor
            scaled.append(_entry(e[0], MetricVector(*cells), Language(e[2])))

        base, changed = aggregate(entries), aggregate(scaled)
        base_res, base_stats = _ranked(base), base.stats
        scaled_res, scaled_stats = _ranked(changed), changed.stats

        if [r[0] for r in base_res] != [r[0] for r in scaled_res]:
            failures.append("case %d: ranking changed" % case)
            break
        # the overall value, the relative cells c1..c6 and oc_rel
        if any(a[1] != b[1] or a[2][6:] != b[2][6:] for a, b in zip(base_res, scaled_res)):
            failures.append("case %d: a relative value moved" % case)
            break
        if [g.excluded for g in base_stats] != [g.excluded for g in scaled_stats]:
            failures.append("case %d: exclusion set changed" % case)
            break
    _verdict(4, failures)


def test_criterion_05_identical_sample_sits_at_100():
    failures = []
    same = MetricVector(14, 3, 6, 9, F(7, 2), 5)
    entries = [_entry("p%d" % i, same) for i in range(7)]
    ranking = aggregate(entries)
    warnings = ranking.warnings
    for name, overall, cells in _ranked(ranking):
        if overall != 100:
            failures.append("%s: overall %s != 100" % (name, overall))
        if cells[6:12] != ("100.0000",) * 6:
            failures.append("%s: a relative cell is off 100" % name)
    if warnings:
        failures.append("unexpected warnings: %s" % [w.code for w in warnings])
    _verdict(5, failures)


def test_criterion_06_cyclomatic_against_flow_graph_oracle():
    failures = []
    seeds = range(60)
    for seed in seeds:
        prog = generate_program(seed)
        pou, _ = parse_st_pou(StSource(path="<gen>", text=prog.source))
        got = compute_vector(pou).cyclomatic
        if got != prog.cyclomatic:
            failures.append("seed %d: analyzer %d vs flow graph %d" % (seed, got, prog.cyclomatic))
    if len(list(seeds)) < 50:
        failures.append("fewer than 50 seeds exercised")
    _verdict(6, failures)


def test_criterion_07_token_conservation_and_comment_immunity(corpus_pous, tmp_path):
    failures = []
    for name, pou in sorted(corpus_pous.items()):
        vec = compute_vector(pou)
        n1 = sum(1 for t in pou.body.tokens if t.cls is TokenClass.OPERATOR)
        n2 = sum(1 for t in pou.body.tokens if t.cls is TokenClass.OPERAND)
        if vec.program_length != n1 + n2 or vec.program_length != len(pou.body.tokens):
            failures.append("%s: token accounting broke" % name)
        if vec.vocabulary > vec.program_length:
            failures.append("%s: vocabulary exceeds program length" % name)
    for st_file in sorted(CORPUS.glob("*.st")):
        base = {p.name: compute_vector(p) for p in load_sample([str(st_file)]).pous}
        noisy_file = tmp_path / st_file.name
        noisy_file.write_text(sprinkle_comments(st_file.read_text(), seed=29))
        noisy = {p.name: compute_vector(p) for p in load_sample([str(noisy_file)]).pous}
        if base != noisy:
            failures.append("%s: inserting comments changed a metric" % st_file.name)
    _verdict(7, failures)


def test_criterion_08_degenerate_median_drops_and_renormalizes():
    failures = []
    entries = [
        _entry("a", MetricVector(10, 2, 0, 7, F(3, 2), 4)),
        _entry("b", MetricVector(12, 3, 0, 8, F(5, 2), 5)),
        _entry("c", MetricVector(14, 4, 0, 9, F(7, 2), 6)),
    ]
    ranking = aggregate(entries)
    warnings = ranking.warnings
    (group,) = ranking.stats
    if group.excluded != frozenset({2}):
        failures.append("excluded set is %s, expected the flow metric alone" % (group.excluded,))
    # The five remaining metrics weigh 1/5 each: the overall value is the
    # mean of their relative values.
    medians = (F(12), F(3), None, F(8), F(5, 2), F(5))
    rows = {e[0]: e for e in entries}
    for name, overall, cells in _ranked(ranking):
        e = rows[name]
        vector = (e[3], e[4], e[5], e[6], F(e[7], e[8]), e[9])
        expected = sum(F(100) * v / m for v, m in zip(vector, medians) if m is not None) / 5
        if overall != expected:
            failures.append("%s: overall %s, expected %s with the weights rescaled" % (name, overall, expected))
        if cells[8] is not None:
            failures.append("%s: dropped metric still has a relative value" % name)
    dropped = [w for w in warnings if w.code == "metric-dropped"]
    if not dropped:
        failures.append("no metric-dropped warning emitted")
    elif not any("fifo" in w.message for w in dropped):
        failures.append("warning does not name the dropped metric: %r" % dropped[0].message)
    _verdict(8, failures)


def test_criterion_09_determinism_and_chart_report_consistency(corpus_run):
    failures = []
    second = analyze_paths([str(CORPUS)])
    if emit_json(corpus_run) != emit_json(second):
        failures.append("JSON output changed between identical runs")
    if emit_csv(corpus_run) != emit_csv(second):
        failures.append("CSV output changed between identical runs")
    svg = render_chart(corpus_run)
    if svg != render_chart(second):
        failures.append("SVG output changed between identical runs")

    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    by_pou = {pou.name: pou for pou in reference.rank(corpus_run.ranking.rows).pous}
    rects = [el for el in root.iter(ns + "rect") if el.get("data-pou")]
    if not rects:
        failures.append("no data rectangles found")
    for rect in rects:
        result = by_pou.get(rect.get("data-pou"))
        if result is None:
            failures.append("unknown pou %r in chart" % rect.get("data-pou"))
            continue
        index = METRIC_FIELDS.index(rect.get("data-metric"))
        expected = float(result.segments[index]) * 3.0
        got = float(rect.get("width"))
        if expected > 0 and abs(got - expected) / expected > 1e-4:
            failures.append(
                "%s/%s: width %.6f deviates from %.6f by more than 0.01%%"
                % (result.name, METRIC_FIELDS[index], got, expected)
            )
    if {r.get("data-pou") for r in rects} != set(by_pou):
        failures.append("chart bars missing for some pous")
    _verdict(9, failures)


def test_criterion_10_chart_shape_on_synthetic_sample():
    failures = []
    entries = [
        _entry(
            "P%02d" % i,
            MetricVector(6 + 3 * i, 1 + i % 4, 2 + i, 5 + 2 * i, F(3 + i, 2), 4 + i),
        )
        for i in range(10)
    ]
    ranking = aggregate(entries)
    warnings = ranking.warnings
    if warnings:
        failures.append("synthetic sample raised warnings: %s" % [w.code for w in warnings])
    overall = [F(*score.overall) for score in ranking.scores]
    if overall != sorted(overall):
        failures.append("bars are not ordered ascending by overall value")
    results = reference.rank(entries).pous
    if [(r.name, r.oc_rel) for r in results] != [(row[0], o) for row, o in zip(ranking.rows, overall)]:
        failures.append("ranking differs from the reference")

    svg = render_chart(RunResult(ranking, warnings))
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    per_pou = {}
    for rect in root.iter(ns + "rect"):
        if rect.get("data-pou"):
            per_pou.setdefault(rect.get("data-pou"), []).append(rect)
    for r in results:
        bars = per_pou.get(r.name, [])
        if len(bars) != 6:
            failures.append("%s: %d segments drawn, expected 6" % (r.name, len(bars)))
        for rect in bars:
            index = METRIC_FIELDS.index(rect.get("data-metric"))
            expected = float(r.weights[index] * r.relative[index]) * 3.0  # weight x relative
            got = float(rect.get("width"))
            if abs(got - expected) / expected > 1e-4:
                failures.append("%s/%d: segment geometry off" % (r.name, index))
    # the drawn bar order must follow the ranking
    tops = [min(float(rect.get("y")) for rect in per_pou[r.name]) for r in results if r.name in per_pou]
    if tops != sorted(tops):
        failures.append("bar layout does not follow the ranking")
    _verdict(10, failures)


# ---------------------------------------------------------------
# Supplementary end-to-end check beyond the numbered criteria: every
# overall value of the corpus recomputed from the tally sheet alone.


def test_supplement_overall_values_recomputed_from_tally(corpus_run, oracle):
    failures = []
    columns = {f: [F(entry[f]) for entry in oracle.values()] for f in METRIC_FIELDS}
    medians = {f: F(statistics.median(vals)) for f, vals in columns.items()}
    if any(m == 0 for m in medians.values()):
        failures.append("unexpected zero median in corpus")
    ranking = corpus_run.ranking
    by_name = {row[0]: (F(*score.overall), corpus_run.cells(score)) for row, score in zip(ranking.rows, ranking.scores)}
    for name, entry in oracle.items():
        weights = SFC_PROFILE.weights if entry["language"] == "SFC" else UNIFORM_PROFILE.weights
        cells = [F(100) * F(entry[f]) / medians[f] for f in METRIC_FIELDS]
        expected = sum(w * c for w, c in zip(weights, cells))
        overall, got_cells = by_name[name]
        if overall != expected:
            failures.append("%s: overall %s != recomputed %s" % (name, overall, expected))
        if got_cells[6:12] != tuple(map(reference.fmt4, cells)):
            failures.append("%s: relative cells mismatch" % name)
    assert not failures, "\n".join(failures)
