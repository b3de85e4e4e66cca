"""Result assembly and serialization.

One analysis run produces a ranked list of per-POU rows plus per-group
statistics.  Rows are ordered ascending by the overall value with name
as tie-breaker, so equal inputs always serialize byte-identically.

Columns m1..m6 are the raw metric values (program length, cyclomatic
complexity, information flow, vocabulary, difficulty, declaration
weight); c1..c6 are the same metrics as a percentage of their group
median; oc_rel is the weighted overall value.  Exact rational cells are
rendered with four fractional digits, ties rounded to even.

Every report is written from a `RunResult`, which `analyze_paths`
builds from the plain rows of the sample: the ranked rows, their Scores
and the cells `RunResult.cells` formats once per Score are the one view
of the ranking that every writer reads.  Each report has one writer
that writes it to an open file a POU at a time (`write_json`,
`write_csv`, and `chart.write_chart`); `emit_json`, `emit_csv` and
`chart.render_chart` return the same text as one string.
"""

from __future__ import annotations

import csv
import gc
import io
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .aggregate import GroupStats, Ranking, Score, Scoring, aggregate, metric_ratios, sample_row
from .config import AnalysisConfig, Grouping
from .errors import SKIP_CODES, AnalysisWarning, NoPousFound
from .ir import Pou
from .load import load_sample
from .metrics import METRIC_KEYS, compute_vector

METRIC_COLUMNS = tuple("m%d" % (i + 1) for i in range(len(METRIC_KEYS)))
RELATIVE_COLUMNS = tuple("c%d" % (i + 1) for i in range(len(METRIC_KEYS)))
CELL_COLUMNS = METRIC_COLUMNS + RELATIVE_COLUMNS + ("oc_rel",)
CSV_HEADER = ("name", "kind", "language") + CELL_COLUMNS + ("tag",)


def fmt4(value: Fraction) -> str:
    """Render an exact rational (or an int) with 4 fractional digits,
    half to even."""
    return fmt4_ratio(value.numerator, value.denominator)


def fmt4_ratio(numerator: int, denominator: int) -> str:
    """fmt4 of numerator / denominator, for denominator > 0.  The ratio
    need not be reduced: scaling both terms scales the remainder and the
    denominator alike, so no rounding decision changes."""
    # q is floor(x + 1/2) for x = 10000 * numerator / denominator; no
    # remainder means x was a tie, which goes to the even neighbour.
    q, r = divmod(numerator * 20000 + denominator, 2 * denominator)
    if r == 0 and q & 1:
        q -= 1
    if q < 0:
        return "-%d.%04d" % divmod(-q, 10000)
    return "%d.%04d" % divmod(q, 10000)


class RunResult:
    """One analysis run: the `ranking` every report is written from (see
    `aggregate.Ranking`), the run's warnings and its grouping.  `stats`
    reads through to the ranking."""

    def __init__(self, ranking: Ranking, warnings: list[AnalysisWarning], grouping: str = Grouping.WHOLE_SAMPLE.value):
        self.ranking, self.warnings, self.grouping = ranking, warnings, grouping
        self._cells: dict[Score, tuple] = {}
        self._relative: dict[tuple, str] = {}

    @property
    def stats(self) -> list[GroupStats]:
        return self.ranking.stats

    def cells(self, score: Score) -> tuple:
        """The CELL_COLUMNS cells of the POUs that share `score`, formatted
        once for every report that shows them: m1..m6 (ints, difficulty as
        text), c1..c6 (text, None where the metric is dropped) and oc_rel
        (text).  A relative cell depends on its scoring, column and value
        alone, so each is formatted once per run."""
        cells = self._cells.get(score)
        if cells is None:
            scoring = score.scoring
            sn, sd = scoring.scale.numerator, scoring.scale.denominator
            relative = []
            for column, (ratio, percent) in enumerate(zip(metric_ratios(score.key), scoring.coefficients.percent)):
                text = None
                if percent is not None:
                    memo = (scoring, column, ratio)
                    text = self._relative.get(memo)
                    if text is None:
                        n, d = ratio[0] * percent[0] * sn, ratio[1] * percent[1] * sd
                        text = self._relative[memo] = fmt4_ratio(n, d)
                relative.append(text)
            m1, m2, m3, m4, p, q, m6 = score.key
            cells = self._cells[score] = (m1, m2, m3, m4, fmt4_ratio(p, q), m6, *relative, fmt4_ratio(*score.overall))
        return cells

    @property
    def exit_code(self) -> int:
        if any(w.code in SKIP_CODES for w in self.warnings):
            return 2
        return 0


def analyze_paths(paths, cfg: AnalysisConfig | None = None) -> RunResult:
    """Load every POU under `paths`, compute metrics and rank them.

    The cyclic garbage collector is paused meanwhile: the analysis builds
    no reference cycles, and each collection would rescan every IR record
    and XML element built so far."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _analyze(paths, cfg or AnalysisConfig())
    finally:
        if enabled:
            gc.enable()


def _analyze(paths, cfg: AnalysisConfig) -> RunResult:
    def row(pou: Pou) -> tuple:
        # Runs in the process that walked the POU's file, so only the
        # row, not the POU, reaches this one.
        tag = cfg.annotations.get(pou.name.casefold(), "")
        return sample_row(pou.name, pou.kind, pou.language, compute_vector(pou, cfg.weight_table), tag)

    sample = load_sample(paths, cfg.array_sub_cap, row)
    if not sample.pous:
        raise NoPousFound("no POUs found under: %s" % ", ".join(str(p) for p in paths), sample.warnings)
    ranking = aggregate(sample.pous, cfg.grouping, cfg.profiles, cfg.normalize)
    return RunResult(ranking, sample.warnings + ranking.warnings, cfg.grouping.value)


# ------------------------- serialization -------------------------


def _report_parts(run: RunResult) -> tuple[dict, list, list]:
    """The run metadata, groups and warnings of the report."""
    meta = {
        "tool": "poumetrics",
        "version": __version__,
        "pou_count": len(run.ranking.rows),
        "grouping": run.grouping,
    }
    groups = [
        {
            "label": stats.label,
            "size": stats.size,
            "medians": {col: fmt4(m) for col, m in zip(METRIC_COLUMNS, stats.medians)},
            "excluded": [METRIC_COLUMNS[i] for i in sorted(stats.excluded)],
        }
        for stats in run.stats
    ]
    warnings = [
        {"code": w.code, "message": w.message, "path": w.path, "pou": w.pou}
        for w in run.warnings
    ]
    return meta, groups, warnings


# One `pous` entry as json.dumps(indent=2) writes it: the separator before
# it, the encoded name, kind, language, the entry's cells and group (see
# `_cells_template`) and the encoded tag.
_JSON_POU = '%s{\n      "name": %s,\n      "kind": "%s",\n      "language": "%s",\n      %s,\n      "tag": %s\n    }'


def _cells_template(scoring: Scoring) -> str:
    """The JSON text of the CELL_COLUMNS cells and the group of a `pous`
    entry of `scoring`, with a %-slot for each cell: ints as they are,
    text quoted.  A metric the scoring drops has a None cell, which
    "%.0s" consumes before its null."""
    dropped = {col for col, p in zip(RELATIVE_COLUMNS, scoring.coefficients.percent) if p is None}
    quoted = {"m5", "oc_rel", *RELATIVE_COLUMNS}

    def slot(column: str) -> str:
        if column in dropped:
            return '"%s": %%.0snull' % column
        return ('"%s": "%%s"' if column in quoted else '"%s": %%s') % column

    group = '"group": %s' % encode_basestring_ascii(scoring.group).replace("%", "%%")
    return ",\n      ".join([*map(slot, CELL_COLUMNS), group])


def write_json(run: RunResult, out) -> None:
    """Write the JSON report to `out`, one `pous` entry at a time, as
    json.dumps(report, indent=2) plus a newline would write it: the run
    metadata, one entry per row in ranked order (name, kind, language,
    the CELL_COLUMNS cells, group and tag), the groups and the warnings.
    The entries that share a Score share their cells' text; names and
    tags go through the encoder json.dumps uses."""
    meta, groups, warnings = (
        # ensure_ascii escapes every newline inside a string, so each line
        # break of json.dumps's text is one to indent.
        json.dumps(x, indent=2).replace("\n", "\n  ")
        for x in _report_parts(run)
    )
    out.write('{\n  "run": %s,\n  "pous": ' % meta)
    templates: dict[Scoring, str] = {}
    texts: dict[Score, str] = {}
    separator = "[\n    "
    for row, score in zip(run.ranking.rows, run.ranking.scores):
        text = texts.get(score)
        if text is None:
            template = templates.get(score.scoring)
            if template is None:
                template = templates[score.scoring] = _cells_template(score.scoring)
            text = texts[score] = template % run.cells(score)
        out.write(
            _JSON_POU
            % (separator, encode_basestring_ascii(row[0]), row[1], row[2], text, encode_basestring_ascii(row[10]))
        )
        separator = ",\n    "
    out.write("\n  ]" if run.ranking.rows else "[]")
    out.write(',\n  "groups": %s,\n  "warnings": %s\n}\n' % (groups, warnings))


def emit_json(run: RunResult) -> str:
    out = io.StringIO()
    write_json(run, out)
    return out.getvalue()


def write_csv(run: RunResult, out) -> None:
    """Write the CSV report to `out`, one row at a time."""
    writer = csv.writer(out)  # writes an int as str() and None as ""
    writer.writerow(CSV_HEADER)
    cells = run.cells
    writer.writerows(row[:3] + cells(score) + row[10:] for row, score in zip(run.ranking.rows, run.ranking.scores))


def emit_csv(run: RunResult) -> str:
    out = io.StringIO()
    write_csv(run, out)
    return out.getvalue()


def render_table(run: RunResult, top: int | None = None) -> str:
    """Plain-text ranking, most complex first, for terminal output."""
    ranked = list(zip(reversed(run.ranking.rows), reversed(run.ranking.scores)))
    if top is not None:
        ranked = ranked[:top]
    header = ("#", "name", "language", "oc_rel", "tag")
    rows = [
        (str(i + 1), row[0], row[2], run.cells(score)[-1], row[10])
        for i, (row, score) in enumerate(ranked)
    ]
    widths = [max(len(h), *(len(row[col]) for row in rows)) if rows else len(h) for col, h in enumerate(header)]
    line = "  ".join("%%-%ds" % w for w in widths)  # each cell left-justified to its column's width
    lines = [(line % header).rstrip(), "  ".join("-" * w for w in widths)]
    lines.extend((line % row).rstrip() for row in rows)
    return "\n".join(lines) + "\n"
