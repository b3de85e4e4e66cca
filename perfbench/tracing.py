"""Spans around poumetrics' public functions, and the per-layer numbers
derived from them.

`Tracer.install` wraps each traced function on the module where its
caller looks the name up, so the wrapper is what actually runs: names
imported with `from x import y` are wrapped on the importing module.
Spans stay in memory as [name, start, end, parent] lists and are written
out when the run ends.  Functions called too often for a span each
(`st.parse_type_spec`) are only counted.
"""

from __future__ import annotations

import functools
import statistics
import time

# (layer name, module that looks the name up, attribute there)
SPANNED = (
    ("cli.main", "cli", "main"),
    ("report.analyze_paths", "cli", "analyze_paths"),
    ("report.emit_json", "cli", "emit_json"),
    ("report.emit_csv", "cli", "emit_csv"),
    ("report.render_table", "cli", "render_table"),
    ("chart.render_chart", "cli", "render_chart"),
    ("load.load_sample", "report", "load_sample"),
    ("metrics.compute_vector", "report", "compute_vector"),
    ("aggregate.aggregate", "report", "aggregate"),
    ("load.discover_inputs", "load", "discover_inputs"),
    ("plcopen.parse_xml", "plcopen", "parse_xml"),
    ("plcopen.register_project_types", "plcopen", "register_project_types"),
    ("plcopen.extract_pous", "plcopen", "extract_pous"),
    ("st.st_fragment_facts", "plcopen", "st_fragment_facts"),
    ("st.split_st_units", "st", "split_st_units"),
    ("st.interface_of_unit", "st", "interface_of_unit"),
    ("st.parse_pou_unit", "st", "parse_pou_unit"),
    ("st.lex", "st", "lex"),
    ("typesys.classify", "typesys.TypeContext", "classify"),
)
COUNTED = (("st.parse_type_spec", "st", "parse_type_spec"),)

# Layers whose self time the traced run reports.
SELF_TIMED = tuple(name for name, _, _ in SPANNED)


# Counters taken from a traced function's result after its span closed.
# Each costs O(1); sizes that need work are read in Tracer.finish().
TALLIES = {
    "st.lex": ("st.lex.tokens", len),
    "st.split_st_units": ("st.units", len),
    "typesys.classify": ("typesys.sub_variables", lambda res: len(res[1])),
    "plcopen.extract_pous": ("plcopen.pous", lambda res: len(res[0])),
    "load.discover_inputs": ("load.files", len),
}
EMITTERS = ("report.emit_json", "report.emit_csv", "report.render_table", "chart.render_chart")
KEPT = ("load.discover_inputs",) + EMITTERS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.kept: dict[str, list] = {name: [] for name in KEPT}

    def span(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        key, measure = TALLIES.get(name, (None, None))
        kept = self.kept.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if key is not None:
                counters[key] = counters.get(key, 0) + measure(result)
            if kept is not None:
                kept.append(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap the traced functions of an imported `poumetrics` package."""
        for name, owner, attr in SPANNED:
            target = _resolve(package, owner)
            setattr(target, attr, self.span(name, getattr(target, attr)))
        for name, owner, attr in COUNTED:
            target = _resolve(package, owner)
            setattr(target, attr, self.count(name + ".calls", getattr(target, attr)))

    def finish(self) -> dict[str, float]:
        """All counters, once the traced call has returned."""
        counters = dict(self.counters)
        counters["load.bytes"] = sum(p.stat().st_size for found in self.kept["load.discover_inputs"] for p in found)
        counters["report.bytes_out"] = sum(
            len(text.encode("utf-8")) for name in EMITTERS for text in self.kept[name]
        )
        return counters


def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


# ------------------------- span arithmetic -------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c_end, end))
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer name: summed self time and call count."""
    totals: dict[str, dict[str, float]] = {}
    for (name, _, _, _), self_s in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["calls"] += 1
    return totals


def classify_calls_under(spans: list[list], ancestor: str) -> int:
    """Number of typesys.classify spans with `ancestor` above them."""
    count = 0
    for name, _, _, parent in spans:
        if name != "typesys.classify":
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


# The traced run's metrics: (name, unit, better).
PER_LAYER = tuple(
    [(name + ".self_s", "s", "lower") for name in SELF_TIMED]
    + [
        ("st.lex.calls", "count", "lower"),
        ("st.lex.tokens", "count", "lower"),
        ("st.lex.tokens_per_s", "1/s", "higher"),
        ("st.units", "count", "lower"),
        ("st.parse_type_spec.calls", "count", "lower"),
        ("st.type_parses_per_var", "ratio", "lower"),
        ("typesys.classify.calls", "count", "lower"),
        ("typesys.sub_variables", "count", "lower"),
        ("plcopen.pous", "count", "lower"),
        ("st.st_fragment_facts.calls", "count", "lower"),
        ("load.files", "count", "lower"),
        ("load.bytes", "B", "lower"),
        ("metrics.pous", "count", "lower"),
        ("report.bytes_out", "B", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced analyze call (all but
    trace.overhead_s, which needs the untraced runs too)."""
    totals = layer_totals(spans)

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    out: dict[str, float] = {name + ".self_s": total(name, "self_s") for name in SELF_TIMED}
    for name in ("st.lex", "typesys.classify", "st.st_fragment_facts"):
        out[name + ".calls"] = total(name, "calls")
    for name in ("st.lex.tokens", "st.units", "st.parse_type_spec.calls", "typesys.sub_variables",
                 "plcopen.pous", "load.files", "load.bytes", "report.bytes_out"):
        out[name] = counters.get(name, 0)
    out["metrics.pous"] = total("metrics.compute_vector", "calls")
    lex_s = out["st.lex.self_s"]
    out["st.lex.tokens_per_s"] = out["st.lex.tokens"] / lex_s if lex_s > 0 else 0.0
    st_vars = classify_calls_under(spans, "st.parse_pou_unit")
    out["st.type_parses_per_var"] = out["st.parse_type_spec.calls"] / st_vars if st_vars else 0.0
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
