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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii

from . import __version__
from .aggregate import GroupStats, PouResult, SampleEntry, aggregate
from .config import AnalysisConfig, Grouping
from .errors import SKIP_CODES, AnalysisWarning, NoPousFound
from .load import load_sample
from .metrics import METRIC_KEYS, compute_vector

METRIC_COLUMNS = tuple("m%d" % (i + 1) for i in range(len(METRIC_KEYS)))
RELATIVE_COLUMNS = tuple("c%d" % (i + 1) for i in range(len(METRIC_KEYS)))
CSV_HEADER = ("name", "kind", "language") + METRIC_COLUMNS + RELATIVE_COLUMNS + ("oc_rel", "tag")


def fmt4(value: Fraction) -> str:
    """Render an exact rational (or an int) with 4 fractional digits,
    half to even."""
    return fmt4_ratio(value.numerator, value.denominator)


def fmt4_ratio(numerator: int, denominator: int) -> str:
    """fmt4 of numerator / denominator, for denominator > 0.  The ratio
    need not be reduced: scaling both terms scales the remainder and the
    denominator alike, so no rounding decision changes."""
    q, r = divmod(numerator * 10000, denominator)
    double = 2 * r
    if double > denominator or (double == denominator and q % 2 == 1):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return "%s%d.%04d" % (sign, q // 10000, q % 10000)


def _raw_cells(result: PouResult) -> list:
    cells = []
    for key, value in zip(METRIC_KEYS, result.vector.as_tuple()):
        if key == "difficulty":
            cells.append(fmt4(value))
        else:
            cells.append(int(value))
    return cells


def _relative_cells(result: PouResult) -> list:
    return [None if terms is None else fmt4_ratio(*terms) for terms in result.relative_terms()]


@dataclass
class RunResult:
    results: list[PouResult] = field(default_factory=list)
    stats: list[GroupStats] = field(default_factory=list)
    warnings: list[AnalysisWarning] = field(default_factory=list)
    grouping: str = Grouping.WHOLE_SAMPLE.value

    @cached_property
    def rows(self) -> list[tuple[list, list, str]]:
        """Per result: its raw, relative and oc_rel cells, formatted once
        for every report that shows them."""
        return [(_raw_cells(r), _relative_cells(r), fmt4(r.oc_rel)) for r in self.results]

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
    sample = load_sample(paths, cfg.array_sub_cap)
    if not sample.pous:
        raise NoPousFound("no POUs found under: %s" % ", ".join(str(p) for p in paths))
    entries = [
        SampleEntry(
            name=pou.name,
            kind=pou.kind,
            language=pou.language,
            vector=compute_vector(pou, cfg.weight_table),
            tag=cfg.annotations.get(pou.name.casefold(), ""),
        )
        for pou in sample.pous
    ]
    results, stats, agg_warnings = aggregate(entries, cfg.grouping, cfg.profiles, cfg.normalize)
    return RunResult(
        results=results,
        stats=stats,
        warnings=sample.warnings + agg_warnings,
        grouping=cfg.grouping.value,
    )


# ------------------------- serialization -------------------------


def report_object(run: RunResult) -> dict:
    """The report as plain data, ready for json.dump."""
    meta = {
        "tool": "poumetrics",
        "version": __version__,
        "pou_count": len(run.results),
        "grouping": run.grouping,
    }
    pous = []
    for result, (raw, relative, oc_rel) in zip(run.results, run.rows):
        row = {"name": result.name, "kind": result.kind.value, "language": result.language.value}
        row.update(zip(METRIC_COLUMNS, raw))
        row.update(zip(RELATIVE_COLUMNS, relative))
        row["oc_rel"] = oc_rel
        row["group"] = result.group
        row["tag"] = result.tag
        pous.append(row)

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
            encode = _JSON_SCALAR.get(type(item))  # rows are flat: one call fewer per cell
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


def emit_json(run: RunResult) -> str:
    return _json_text(report_object(run)) + "\n"


def emit_csv(run: RunResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for result, (raw, relative, oc_rel) in zip(run.results, run.rows):
        writer.writerow(
            [result.name, result.kind.value, result.language.value]
            + [str(c) for c in raw]
            + ["" if cell is None else cell for cell in relative]
            + [oc_rel, result.tag]
        )
    return buf.getvalue()


def render_table(run: RunResult, top: int | None = None) -> str:
    """Plain-text ranking, most complex first, for terminal output."""
    ranked = list(zip(reversed(run.results), reversed(run.rows)))
    if top is not None:
        ranked = ranked[:top]
    header = ("#", "name", "language", "oc_rel", "tag")
    rows = [
        (str(i + 1), r.name, r.language.value, oc_rel, r.tag)
        for i, (r, (_, _, oc_rel)) in enumerate(ranked)
    ]
    widths = [max(len(h), *(len(row[col]) for row in rows)) if rows else len(h) for col, h in enumerate(header)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
