"""perfbench's tracer wraps poumetrics functions by module and attribute
name, so a rename would silently drop a span from `run.py --trace 1`.
This reads the lists of `perfbench/tracing.py` without importing or
changing anything under `perfbench/`."""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import poumetrics

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
