"""perfbench's tracer wraps poumetrics functions by module and attribute
name, so a rename, or a caller that no longer looks the name up there,
would silently drop a span from `run.py --trace 1`.  This reads the
lists of `perfbench/tracing.py` without importing or changing anything
under `perfbench/`."""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import poumetrics
from poumetrics import cli, load

from conftest import CORPUS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_name_perfbench_wraps_resolves_on_the_package():
    tracing = load_tracing()
    named = tracing.SPANNED + tracing.COUNTED
    for _, owner, _ in named:
        importlib.import_module("poumetrics." + owner.split(".")[0])
    unresolved = []
    for name, owner, attr in named:
        target = poumetrics
        for part in owner.split("."):
            target = getattr(target, part, None)
        if not callable(getattr(target, attr, None)):
            unresolved.append(name)
    assert named
    assert unresolved == []


# Wrapped names no run of the command line reaches: `analyze_paths`
# takes path strings and never calls `discover_inputs`, and the command
# line writes its reports with `write_json`, `write_csv` and
# `write_chart`.  These are the known dead spans of ROADMAP item 1.
DEAD_SPANS = {"load.discover_inputs", "cli.emit_json", "cli.emit_csv", "cli.render_chart"}


def test_every_name_perfbench_wraps_is_reached_but_the_known_dead_spans(monkeypatch, tmp_path, capsys):
    tracing = load_tracing()
    calls = {}
    for _, owner, attr in tracing.SPANNED + tracing.COUNTED:
        target = poumetrics
        for part in owner.split("."):
            target = getattr(target, part)
        name = owner + "." + attr
        calls[name] = 0

        def counted(*args, _real=getattr(target, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(target, attr, counted)
    monkeypatch.setattr(load, "_usable_cpus", lambda: 1)
    outputs = ["--json", tmp_path / "r.json", "--csv", tmp_path / "r.csv", "--chart", tmp_path / "r.svg"]
    assert cli.main(["analyze", str(CORPUS), *map(str, outputs)]) in (0, 2)
    assert {name for name, n in calls.items() if n == 0} == DEAD_SPANS
