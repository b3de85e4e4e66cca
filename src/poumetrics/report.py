"""Result assembly and serialization.

One analysis run produces a ranked list of per-POU rows plus per-group
statistics.  Rows are ordered ascending by the overall value with name
as tie-breaker, so equal inputs always serialize byte-identically.

Columns m1..m6 are the raw metric values (program length, cyclomatic
complexity, information flow, vocabulary, difficulty, declaration
weight); c1..c6 are the same metrics as a percentage of their group
median; oc_rel is the weighted overall value.  Exact rational cells are
rendered with four fractional digits, ties rounded to even.
"""

from __future__ import annotations

import csv
import gc
import io
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii

from . import __version__
from .aggregate import GroupStats, PouResult, SampleEntry, aggregate
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
    def __init__(
        self,
        results: list[PouResult] | None = None,
        stats: list[GroupStats] | None = None,
        warnings: list[AnalysisWarning] | None = None,
        grouping: str = Grouping.WHOLE_SAMPLE.value,
    ):
        self.results = [] if results is None else results
        self.stats = [] if stats is None else stats
        self.warnings = [] if warnings is None else warnings
        self.grouping = grouping

    @cached_property
    def rows(self) -> list[tuple]:
        """Per result, its CELL_COLUMNS cells, formatted once for every
        report that shows them: m1..m6 (ints, difficulty as text), c1..c6
        (text, None where the metric is dropped) and oc_rel (text)."""
        rows = []
        for r in self.results:
            sn, sd = r.scale.numerator, r.scale.denominator
            values = r.vector
            relative = [
                None if p is None else fmt4_ratio(v.numerator * p[0] * sn, v.denominator * p[1] * sd)
                for v, p in zip(values, r.coefficients.percent)
            ]
            rows.append((*values[:4], fmt4(values[4]), values[5], *relative, fmt4(r.oc_rel)))
        return rows

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
    def entry(pou: Pou) -> SampleEntry:
        # Runs in the process that walked the POU's file, so only the
        # entry, not the POU, reaches this one.
        return SampleEntry(
            name=pou.name,
            kind=pou.kind,
            language=pou.language,
            vector=compute_vector(pou, cfg.weight_table),
            tag=cfg.annotations.get(pou.name.casefold(), ""),
        )

    sample = load_sample(paths, cfg.array_sub_cap, entry)
    if not sample.pous:
        raise NoPousFound("no POUs found under: %s" % ", ".join(str(p) for p in paths), sample.warnings)
    results, stats, agg_warnings = aggregate(sample.pous, cfg.grouping, cfg.profiles, cfg.normalize)
    return RunResult(
        results=results,
        stats=stats,
        warnings=sample.warnings + agg_warnings,
        grouping=cfg.grouping.value,
    )


# ------------------------- serialization -------------------------


def _report_parts(run: RunResult) -> tuple[dict, list, list]:
    """The run metadata, groups and warnings of the report."""
    meta = {
        "tool": "poumetrics",
        "version": __version__,
        "pou_count": len(run.results),
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


def report_object(run: RunResult) -> dict:
    """The report as plain data, ready for json.dump."""
    meta, groups, warnings = _report_parts(run)
    pous = []
    for result, cells in zip(run.results, run.rows):
        # Each writer reads an enum member's `_value_`, a plain attribute;
        # `.value` is a descriptor that runs in Python.
        row = {"name": result.name, "kind": result.kind._value_, "language": result.language._value_}
        row.update(zip(CELL_COLUMNS, cells))
        row["group"] = result.group
        row["tag"] = result.tag
        pous.append(row)
    return {"run": meta, "pous": pous, "groups": groups, "warnings": warnings}


# JSON text of each scalar type the report holds, from the C helpers that
# json.dumps itself calls for them.
_JSON_SCALAR = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null"}


def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2) for nested dicts and lists of str, int
    and None.  With an indent, json.dumps runs its pure-Python encoder;
    this builds the same text with one join per container."""
    encode = _JSON_SCALAR.get(type(value))
    if encode is not None:
        return encode(value)
    inner = pad + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            encode = _JSON_SCALAR.get(type(item))  # most dicts are flat: one call fewer per cell
            items.append(encode_basestring_ascii(key) + ": " + (encode(item) if encode else _json_text(item, inner)))
        opening, closing = "{", "}"
    elif type(value) is list:
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError("%s is not a report value" % type(value).__name__)
    return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + closing


def _row_template(percent: tuple) -> str:
    """The JSON text of one `pous` entry as json.dumps(indent=2) writes
    it, with a %-slot for each of: the encoded name, kind, language, the
    CELL_COLUMNS cells, and the encoded group and tag.  A metric that
    `percent` drops has a None cell, which "%.0s" consumes before its
    null."""
    dropped = {col for col, p in zip(RELATIVE_COLUMNS, percent) if p is None}
    quoted = {"kind", "language", "m5", "oc_rel", *RELATIVE_COLUMNS}

    def slot(column: str) -> str:
        if column in dropped:
            return '"%s": %%.0snull' % column
        return ('"%s": "%%s"' if column in quoted else '"%s": %%s') % column

    columns = ("name", "kind", "language") + CELL_COLUMNS + ("group", "tag")
    return "{\n      " + ",\n      ".join(map(slot, columns)) + "\n    }"


def emit_json(run: RunResult) -> str:
    """json.dumps(report_object(run), indent=2) plus a newline.  Each POU
    row is one %-format of a template that the POUs sharing coefficients
    share: names, groups and tags go through the encoder json.dumps uses,
    and the cells are already text or ints."""
    meta, groups, warnings = _report_parts(run)
    templates: dict[int, str] = {}
    rows = []
    for r, cells in zip(run.results, run.rows):
        template = templates.get(id(r.coefficients))
        if template is None:
            template = templates[id(r.coefficients)] = _row_template(r.coefficients.percent)
        rows.append(
            template
            % (
                encode_basestring_ascii(r.name),
                r.kind._value_,
                r.language._value_,
                *cells,
                encode_basestring_ascii(r.group),
                encode_basestring_ascii(r.tag),
            )
        )
    pous = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return '{\n  "run": %s,\n  "pous": %s,\n  "groups": %s,\n  "warnings": %s\n}\n' % (
        _json_text(meta, "  "),
        pous,
        _json_text(groups, "  "),
        _json_text(warnings, "  "),
    )


def emit_csv(run: RunResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # writes an int as str() and None as ""
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (result.name, result.kind._value_, result.language._value_, *cells, result.tag)
        for result, cells in zip(run.results, run.rows)
    )
    return buf.getvalue()


def render_table(run: RunResult, top: int | None = None) -> str:
    """Plain-text ranking, most complex first, for terminal output."""
    ranked = list(zip(reversed(run.results), reversed(run.rows)))
    if top is not None:
        ranked = ranked[:top]
    header = ("#", "name", "language", "oc_rel", "tag")
    rows = [
        (str(i + 1), r.name, r.language._value_, cells[-1], r.tag)
        for i, (r, cells) in enumerate(ranked)
    ]
    widths = [max(len(h), *(len(row[col]) for row in rows)) if rows else len(h) for col, h in enumerate(header)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
