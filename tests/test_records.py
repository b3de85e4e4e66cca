"""The record contract: every record is an immutable named tuple, and
the two weight records check their values whenever one is built."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poumetrics import (
    DEFAULT_WEIGHT_TABLE,
    SFC_PROFILE,
    UNIFORM_PROFILE,
    AnalysisConfig,
    BodyFacts,
    CallSite,
    DecisionSpan,
    Grouping,
    GroupStats,
    InvalidConfig,
    Language,
    MetricVector,
    Pou,
    PouKind,
    SourceRef,
    StSource,
    Token,
    TokenClass,
    TypeClass,
    VariableDecl,
    VarSection,
    WeightProfile,
    WeightSumViolation,
    WeightTable,
)
from poumetrics.aggregate import Coefficients
from poumetrics.errors import AnalysisWarning
from poumetrics.load import LoadedSample
from poumetrics.st import StUnit, WalkedPou, _BodyResult, _EOF, LineTable
from poumetrics.typesys import RawDecl, TypeContext, TypeSpec

SRC = Path(__file__).resolve().parent.parent / "src"

VECTOR = MetricVector(10, 2, 4, 6, Fraction(7, 3), 5)
REF = SourceRef("a.st", 3, 7)

# Per record: the fields given, the defaults of those left out, and one
# field to replace with another value.
RECORDS = [
    (SourceRef, {}, {"path": "", "line": 0, "column": 0, "element": ""}, ("line", 4)),
    (Token, {"lexeme": "x", "cls": TokenClass.OPERAND, "identity_key": "x"}, {}, ("lexeme", "X")),
    (
        VariableDecl,
        {"name": "v", "section": VarSection.LOCAL, "type_class": TypeClass.SIMPLE, "type_name": "INT"},
        {"sub_variables": range(0)},
        ("name", "w"),
    ),
    (CallSite, {"callee": "F", "args_passed": 2, "returns_used": 1}, {}, ("returns_used", 0)),
    (DecisionSpan, {"kind": "if", "ref": REF}, {}, ("kind", "while")),
    (
        BodyFacts,
        {},
        {
            "tokens": (),
            "decision_spans": (),
            "calls": (),
            "external_reads": frozenset(),
            "external_writes": frozenset(),
        },
        ("external_reads", frozenset({"g"})),
    ),
    (
        Pou,
        {"name": "P", "kind": PouKind.PROGRAM, "language": Language.ST},
        {"variables": (), "body": BodyFacts(), "source_ref": SourceRef()},
        ("language", Language.FBD),
    ),
    (AnalysisWarning, {"code": "c", "message": "m"}, {"path": "", "pou": ""}, ("pou", "P")),
    (TypeSpec, {"kind": "named"}, {"name": "", "dims": (), "element": None, "fields": ()}, ("name", "INT")),
    (RawDecl, {"name": "v", "section": VarSection.INPUT, "spec": TypeSpec("named", "INT")}, {}, ("name", "w")),
    (
        MetricVector,
        dict(zip(MetricVector._fields, VECTOR)),
        {},
        ("difficulty", Fraction(1, 2)),
    ),
    (
        GroupStats,
        {"label": "all", "size": 3, "medians": (Fraction(1),) * 6, "excluded": frozenset()},
        {},
        ("size", 4),
    ),
    (
        Coefficients,
        {"percent": ((100, 1),) * 6, "weighted": (1,) * 6, "denominator": 6},
        {},
        ("denominator", 12),
    ),
    (StSource, {"path": "p.st", "text": "PROGRAM P END_PROGRAM"}, {}, ("path", "q.st")),
    (StUnit, {"kind": "pou", "tokens": [_EOF], "offsets": [-1], "lines": LineTable("")}, {}, ("kind", "types")),
    (
        WalkedPou,
        {
            "name": "P",
            "source_ref": REF,
            "kind": PouKind.PROGRAM,
            "language": Language.ST,
            "decls": [],
            "return_spec": None,
            "body": _BodyResult(),
        },
        {"error": None},
        ("error", ("m", "a.st", 3, 7, "")),
    ),
    (
        WeightTable,
        {"interface_complex": 5},
        {"interface_simple": 3, "local_simple": 1, "local_complex": 2, "sub_simple": 1, "sub_complex": 1},
        ("local_complex", 3),
    ),
    (WeightProfile, {"weights": (Fraction(1, 6),) * 6}, {}, ("weights", SFC_PROFILE.weights)),
    (
        LoadedSample,
        {"pous": [], "warnings": [], "context": TypeContext(), "global_names": frozenset()},
        {},
        ("global_names", frozenset({"g"})),
    ),
]
RECORD_IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, given, defaults, change", RECORDS, ids=RECORD_IDS)
def test_record_contract(cls, given, defaults, change):
    record = cls(**given)
    assert set(cls._fields) == set(given) | set(defaults)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert not hasattr(record, "__dict__")
    assert not {"count", "index"} & set(cls._fields)  # no tuple method is shadowed

    name, value = change
    with pytest.raises(AttributeError):
        setattr(record, name, value)

    changed = record._replace(**{name: value})
    assert type(changed) is cls and getattr(changed, name) == value
    assert [getattr(changed, f) for f in cls._fields if f != name] == [
        getattr(record, f) for f in cls._fields if f != name
    ]
    assert getattr(record, name) != value  # the original is unchanged

    twin = cls(**given)
    assert twin == record
    if cls not in (StUnit, WalkedPou, LoadedSample):  # a record that holds a list is not hashable
        assert hash(twin) == hash(record)
    assert changed != record
    # A record compares equal to the tuple of its values.
    assert record == tuple(getattr(record, f) for f in cls._fields)


def test_analysis_config_contract():
    cfg = AnalysisConfig()
    assert cfg.profiles == {lang: (SFC_PROFILE if lang is Language.SFC else UNIFORM_PROFILE) for lang in Language}
    assert (cfg.weight_table, cfg.array_sub_cap, cfg.grouping, cfg.normalize, cfg.annotations) == (
        DEFAULT_WEIGHT_TABLE, None, Grouping.WHOLE_SAMPLE, False, {}
    )
    # Each config has dicts of its own.
    other = AnalysisConfig()
    assert other == cfg
    assert other.profiles is not cfg.profiles and other.annotations is not cfg.annotations
    with pytest.raises(AttributeError):
        cfg.normalize = True
    changed = cfg._replace(grouping=Grouping.PER_LANGUAGE)
    assert type(changed) is AnalysisConfig and changed.grouping is Grouping.PER_LANGUAGE
    assert changed.profiles is cfg.profiles and cfg.grouping is Grouping.WHOLE_SAMPLE
    given = AnalysisConfig(annotations={"p": "hot"}, array_sub_cap=8)
    assert given.annotations == {"p": "hot"} and given.array_sub_cap == 8


def test_weight_table_contract():
    table = WeightTable()
    assert [getattr(table, f) for f in WeightTable._fields] == [3, 4, 1, 2, 1, 1]
    assert WeightTable(local_complex=3) == table._replace(local_complex=3) != table
    assert hash(WeightTable()) == hash(table) and WeightTable() == table
    with pytest.raises(AttributeError):
        table.local_simple = 2
    assert table.local_simple == 1
    assert repr(table) == (
        "WeightTable(interface_simple=3, interface_complex=4, local_simple=1, local_complex=2, "
        "sub_simple=1, sub_complex=1)"
    )


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"local_simple": 0}, "variable weights must be positive integers"),
        ({"local_simple": 3}, "interface weights must exceed local weights"),
        ({"interface_simple": 5}, "complex weights must not undercut simple weights"),
        ({"sub_complex": 2}, "sub-variable weights must not depend on the type class"),
    ],
)
def test_weight_table_checks_every_build(changes, message):
    with pytest.raises(InvalidConfig, match=message):
        WeightTable(**changes)
    with pytest.raises(InvalidConfig, match=message):
        DEFAULT_WEIGHT_TABLE._replace(**changes)


def test_weight_profile_contract():
    profile = WeightProfile(weights=(Fraction(1, 6),) * 6)
    assert profile == UNIFORM_PROFILE and hash(profile) == hash(UNIFORM_PROFILE)
    assert profile != SFC_PROFILE
    with pytest.raises(AttributeError):
        profile.weights = SFC_PROFILE.weights
    assert profile.weights == (Fraction(1, 6),) * 6
    with pytest.raises(WeightSumViolation, match="metric weights sum to 7/6, expected exactly 1"):
        WeightProfile((Fraction(1, 3),) + (Fraction(1, 6),) * 5)


def test_weight_records_check_replace_and_make():
    """`_replace` builds its copy through `_make`, so both run the checks
    that building a weight record runs."""
    with pytest.raises(WeightSumViolation, match="metric weights sum to 7/6, expected exactly 1"):
        UNIFORM_PROFILE._replace(weights=(Fraction(1, 3),) + (Fraction(1, 6),) * 5)
    with pytest.raises(WeightSumViolation, match="a weight profile needs 6 entries"):
        WeightProfile._make([(Fraction(1),)])
    with pytest.raises(InvalidConfig, match="variable weights must be positive integers"):
        WeightTable._make([0] * 6)
    assert WeightTable._make([3, 4, 1, 2, 1, 1]) == DEFAULT_WEIGHT_TABLE
    assert type(WeightProfile._make([UNIFORM_PROFILE.weights])) is WeightProfile


def test_importing_the_cli_generates_no_code():
    """No record class is built by `dataclasses`, whose import also loads
    `inspect`, `ast` and `dis`: a fresh import of the CLI loads none."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import poumetrics.cli, sys; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.split() == []


def test_importing_the_cli_compiles_six_patterns():
    """Each regular expression compiled at import costs every run about
    half a millisecond, so a fresh import of the CLI leaves exactly these
    module-level patterns in the package: one lexer pattern, not two."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import poumetrics.cli, re, sys; "
            "print(' '.join(sorted('%s.%s' % (name, attr) for name, module in list(sys.modules.items()) "
            "if name.startswith('poumetrics') for attr, value in vars(module).items() "
            "if isinstance(value, re.Pattern))))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.split() == [
        "poumetrics.config._EXPONENT",
        "poumetrics.plcopen._IDENT_ROOT",
        "poumetrics.st._BASED_INT",
        "poumetrics.st._COMMENT_MARK",
        "poumetrics.st._NEWLINE",
        "poumetrics.st._NEXT_TOKEN",
    ]


def unused_imports(text: str) -> list[str]:
    """The names that a module's imports bind but the module never reads
    and does not list in `__all__`.  An import whose first line is marked
    `# noqa: F401` is kept on purpose and not counted."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return ["%d: %s" % (line, name) for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    stale = {path.name: unused_imports(path.read_text()) for path in sorted((SRC / "poumetrics").glob("*.py"))}
    assert {name: names for name, names in stale.items() if names} == {}


def test_the_unused_import_guard_sees_each_kind_of_import():
    text = (
        "from __future__ import annotations\n"
        "import os\n"
        "import xml.etree.ElementTree as ET\n"
        "from json import dumps, loads\n"
        "from .chart import render_chart  # noqa: F401\n"
        "from .report import emit_csv\n"
        "__all__ = ['emit_csv']\n"
        "def f() -> ET.Element:\n"
        "    import re\n"
        "    return loads(os.sep)\n"
    )
    assert unused_imports(text) == ["4: dumps", "9: re"]


def unread_private_names(texts: dict[str, str]) -> list[str]:
    """The private names that a module of `texts` (file name -> source)
    binds at its top level but no module reads: by name, as an attribute
    (`st._KEYWORDS`) or by importing it.  Dunders are exempt."""
    trees = {name: ast.parse(text) for name, text in texts.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                "%s:%d: %s" % (name, node.lineno, b)
                for b in bound
                if b.startswith("_") and not (b.startswith("__") and b.endswith("__")) and b not in read
            ]
    return unread


def test_no_module_binds_a_private_name_nothing_reads():
    texts = {path.name: path.read_text() for path in sorted((SRC / "poumetrics").glob("*.py"))}
    assert unread_private_names(texts) == []


def test_the_unread_name_guard_sees_each_kind_of_binding():
    texts = {
        "a.py": (
            "__version__ = '1'\n"
            "_WORDS = frozenset({'IF'})\n"
            "_LIST: list = []\n"
            "_count = 0\n"
            "def _helper(): pass\n"
            "class _Rec: pass\n"
            "def f(x): return x in _WORDS\n"
            "_count += 1\n"
        ),
        "b.py": "from .a import _helper\nfrom . import a\nprint(a._LIST, _helper)\n",
    }
    assert unread_private_names(texts) == ["a.py:4: _count", "a.py:6: _Rec"]
