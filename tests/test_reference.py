"""The Fraction reference in `reference.py` stays independent of the code
it checks."""

from __future__ import annotations

import ast
from pathlib import Path

import poumetrics

REFERENCE = Path(__file__).with_name("reference.py")
CHECKED = {"poumetrics.aggregate", "poumetrics.report", "poumetrics.chart"}


def checked_imports(text: str) -> list[str]:
    """The imports in `text` of a checked module, or of a name that the
    package re-exports from one, each as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
            if node.module == "poumetrics":
                for alias in node.names:
                    value = getattr(poumetrics, alias.name, None)
                    modules.append(getattr(value, "__module__", None) or "poumetrics." + alias.name)
        else:
            continue
        found += ["%d: %s" % (node.lineno, m) for m in modules if any(m == c or m.startswith(c + ".") for c in CHECKED)]
    return found


def test_the_reference_imports_nothing_it_checks():
    assert checked_imports(REFERENCE.read_text()) == []


def test_the_import_check_sees_each_kind_of_import():
    text = (
        "import poumetrics.chart\n"
        "from poumetrics.report import fmt4\n"
        "from poumetrics import aggregate\n"
        "from poumetrics import sample_row, __version__\n"
        "from poumetrics.errors import EmptySample\n"
        "from .aggregate import Score\n"
    )
    assert checked_imports(text) == [
        "1: poumetrics.chart",
        "2: poumetrics.report",
        "3: poumetrics.aggregate",
        "4: poumetrics.aggregate",
    ]
